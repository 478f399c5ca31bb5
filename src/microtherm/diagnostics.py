"""Verification quantities: energies, dissipation, spectra, decay fits,
time-reversed functionals and the non-extinction probe.

All quantities are derived from the same staggered-gradient quadrature
that defines the Gram matrix, so the structural identities hold at
round-off level rather than discretization level:

* energy().total is exactly half the squared Gram norm;
* dissipation_rate equals -U^T G A U (the generator's quadratic form);
* along midpoint trajectories E_{k+1} - E_k = -dt * D(midpoint state)
  exactly.
"""

import math
from dataclasses import dataclass

import numpy as np

from .discrete1d import DiscreteOperator, State1D, staggered_difference
from .errors import (DegenerateTrajectory, DimensionMismatch, EigenFailure,
                     IndefiniteForm, NonFinite, SizeLimit, SolveFailure)
from .evolve import InitialData, Trajectory, run_forward, time_reversal

__all__ = [
    "EnergyBreakdown",
    "SpectralReport",
    "DecayFit",
    "BackwardFunctionals",
    "LocalizationReport",
    "energy",
    "energy_series",
    "dissipation_rate",
    "dissipation_series",
    "energy_balance_residuals",
    "spectral_report",
    "fit_decay",
    "backward_functionals",
    "backward_identity_residual",
    "localization_probe",
]

_DENSE_LIMIT = 3000       # largest 6n for dense eigensolves
_GRONWALL_FLOOR = 1e-300  # guards 0/0 in the Gronwall ratio


@dataclass(frozen=True)
class EnergyBreakdown:
    """Total energy and its seven quadratic contributions.

    kinetic:      1/2 h sum rho v^2
    thermal:      1/2 h sum c_cap theta^2
    microthermal: 1/2 h sum alpha_m M^2
    elastic:      1/2 h sum m_uu (u')^2      (staggered gradients)
    coupling:         h sum m_ur u' R'
    tau_gradient: 1/2 h sum k_cond (tau')^2
    r_gradient:   1/2 h sum m_rr (R')^2
    dissipation_rate: instantaneous -dE/dt estimate at this state
    """

    total: float
    kinetic: float
    thermal: float
    microthermal: float
    elastic: float
    coupling: float
    tau_gradient: float
    r_gradient: float
    dissipation_rate: float

    @property
    def terms(self):
        return (self.kinetic, self.thermal, self.microthermal, self.elastic,
                self.coupling, self.tau_gradient, self.r_gradient)


def _check_state(op: DiscreteOperator, s: State1D):
    if s.n != op.grid.n_interior:
        raise DimensionMismatch(
            f"state has {s.n} nodes, operator grid has {op.grid.n_interior}"
        )


def energy(op: DiscreteOperator, s: State1D) -> EnergyBreakdown:
    """Per-term energy of one state; total computed as 1/2 U^T G U."""
    _check_state(op, s)
    m, h = op.moduli, op.grid.h
    vec = s.to_vector()
    total = 0.5 * float(vec @ (op.g_mat @ vec))
    du = staggered_difference(s.u, h)
    dtau = staggered_difference(s.tau, h)
    dr = staggered_difference(s.r, h)
    return EnergyBreakdown(
        total=total,
        kinetic=0.5 * h * m.rho * float(s.v @ s.v),
        thermal=0.5 * h * m.c_cap * float(s.theta @ s.theta),
        microthermal=0.5 * h * m.alpha_m * float(s.m @ s.m),
        elastic=0.5 * h * m.m_uu * float(du @ du),
        coupling=h * m.m_ur * float(du @ dr),
        tau_gradient=0.5 * h * m.k_cond * float(dtau @ dtau),
        r_gradient=0.5 * h * m.m_rr * float(dr @ dr),
        dissipation_rate=dissipation_rate(op, s),
    )


def energy_series(traj: Trajectory, op: DiscreteOperator) -> np.ndarray:
    """E(t_j) = 1/2 U_j^T G U_j for every snapshot.

    Evaluated per snapshot through the same expression as
    energy().total so the two agree bit for bit.
    """
    stacked = traj.stacked()
    if stacked.shape[1] != op.g_mat.shape[0]:
        raise DimensionMismatch("trajectory and operator sizes differ")
    return np.array([0.5 * float(vec @ (op.g_mat @ vec)) for vec in stacked])


def dissipation_rate(op: DiscreteOperator, s: State1D) -> float:
    """Gradient-rate quadrature h*(h_cond |theta'|^2 + m_rr_rate |M'|^2),
    signed by the operator's time orientation.

    Equals -U^T G A U for the operator's own a_mat; hence >= 0 for
    forward operators and <= 0 (energy production) for time-reversed
    ones.  Identically zero for conservative moduli.
    """
    _check_state(op, s)
    m, h = op.moduli, op.grid.h
    dtheta = staggered_difference(s.theta, h)
    dm = staggered_difference(s.m, h)
    quad = h * (m.h_cond * float(dtheta @ dtheta) + m.m_rr_rate * float(dm @ dm))
    return op.time_sign * quad


def dissipation_series(traj: Trajectory, op: DiscreteOperator) -> np.ndarray:
    return np.array([dissipation_rate(op, s) for s in traj.snapshots])


def energy_balance_residuals(traj: Trajectory, op: DiscreteOperator,
                             sampling: str = "midpoint") -> np.ndarray:
    """Per-step residual of E_{k+1} - E_k + dt_snap * D.

    sampling="midpoint" evaluates D at the averaged state
    (U_k + U_{k+1})/2, for which the midpoint scheme satisfies the
    balance exactly (residual at round-off).  sampling="trapezoid"
    averages the endpoint rates instead; its residual carries a genuine
    O(dt^3) term, which is what a refinement study can measure.

    Exactness of the midpoint form needs consecutive stepper states,
    i.e. a trajectory recorded with snapshot_every = 1; for coarser
    sampling the residual measures the quadrature error over each
    recording interval instead.
    """
    if sampling not in ("midpoint", "trapezoid"):
        raise ValueError(f"unknown sampling {sampling!r}")
    energies = energy_series(traj, op)
    dt_snap = traj.snapshot_every * traj.dt
    residuals = np.empty(len(traj) - 1)
    for k in range(len(traj) - 1):
        a, b = traj.snapshots[k], traj.snapshots[k + 1]
        if sampling == "midpoint":
            mid = State1D.from_vector(0.5 * (a.to_vector() + b.to_vector()))
            d = dissipation_rate(op, mid)
        else:
            d = 0.5 * (dissipation_rate(op, a) + dissipation_rate(op, b))
        residuals[k] = energies[k + 1] - energies[k] + dt_snap * d
    return residuals


@dataclass(frozen=True)
class SpectralReport:
    """Dense spectrum of a_mat plus a dissipativity probe.

    eigenvalues are sorted by (real, imag); spectral_abscissa is the
    largest real part; dissipativity_margin is the largest Rayleigh
    quotient Re(U* G A U)/(U* G U) over the random probes and the
    eigenvectors.  An eigenvector's quotient is its eigenvalue's real
    part, so margin >= abscissa by construction.
    """

    eigenvalues: np.ndarray
    spectral_abscissa: float
    dissipativity_margin: float


def spectral_report(op: DiscreteOperator, n_probes: int = 100,
                    seed: int = 0) -> SpectralReport:
    size = op.a_mat.shape[0]
    if size > _DENSE_LIMIT:
        raise SizeLimit(
            f"dense eigensolve limited to 6n <= {_DENSE_LIMIT}, got {size}"
        )
    try:
        lams = np.linalg.eigvals(op.a_mat.toarray())
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(f"dense eigensolve failed: {exc}") from exc

    g_a = (op.g_mat @ op.a_mat).tocsr()

    def rayleigh(cols):
        num = np.einsum("ij,ij->j", cols.conj(), g_a @ cols).real
        den = np.einsum("ij,ij->j", cols.conj(), op.g_mat @ cols).real
        return num / den

    rng = np.random.default_rng(seed)
    probes = rng.standard_normal((size, max(int(n_probes), 1)))
    # eigenvector quotients equal the eigenvalue real parts exactly, so
    # feed those in directly instead of re-evaluating them in floats
    margin = max(float(rayleigh(probes).max()), float(lams.real.max()))

    order = np.lexsort((lams.imag, lams.real))
    return SpectralReport(
        eigenvalues=lams[order],
        spectral_abscissa=float(lams.real.max()),
        dissipativity_margin=margin,
    )


@dataclass(frozen=True)
class DecayFit:
    """Least-squares slope of log E(t) over the tail half of a run.

    window is rate +/- two standard errors of the slope; a measurement,
    never compared against a theoretical target.
    """

    rate: float
    window: tuple
    n_points: int

    def time_to_fraction(self, fraction: float) -> float:
        """Time for E to reach the given fraction of E(0) at this rate."""
        if not 0 < fraction < 1:
            raise ValueError("fraction must be in (0, 1)")
        if self.rate >= 0:
            raise ValueError("decay time undefined for non-negative rate")
        return math.log(fraction) / self.rate


def fit_decay(traj: Trajectory, op: DiscreteOperator) -> DecayFit:
    if len(traj) < 10:
        raise ValueError(f"need at least 10 snapshots, got {len(traj)}")
    energies = energy_series(traj, op)
    if energies[0] <= 0.0:
        raise DegenerateTrajectory("initial energy is zero")
    tail = slice(len(traj) // 2, None)
    ts, es = traj.times[tail], energies[tail]
    good = es > 0.0
    if good.sum() < 2:
        raise DegenerateTrajectory("energy vanished over the fit window")
    ts, es = ts[good], np.log(es[good])
    slope, intercept = np.polyfit(ts, es, 1)
    resid = es - (slope * ts + intercept)
    dof = max(len(ts) - 2, 1)
    denom = float(((ts - ts.mean()) ** 2).sum())
    stderr = math.sqrt(float(resid @ resid) / dof / denom) if denom > 0 else 0.0
    return DecayFit(rate=float(slope),
                    window=(float(slope - 2 * stderr), float(slope + 2 * stderr)),
                    n_points=len(ts))


@dataclass(frozen=True)
class BackwardFunctionals:
    """The three time-reversed functionals, their running integral and
    the measured Gronwall constant.

    e1 is the plain energy; e2 flips the sign of the thermal and
    microthermal contributions and drops the elastic-microthermal
    cross term; e3 mixes displacements with rates and adds the rate
    tensors contracted with non-rate gradients.  cal_e(t) is the
    trapezoid integral of eps*e1 + e2 + lam*e3 from 0 to t; gronwall_k
    is the largest centered-difference ratio cal_e'/(4 cal_e).
    """

    times: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    e3: np.ndarray
    cal_e: np.ndarray
    gronwall_k: float
    eps: float
    lam: float


def backward_functionals(traj: Trajectory, op: DiscreteOperator,
                         eps: float = 0.5, lam: float = 2.0) -> BackwardFunctionals:
    """Evaluate the time-reversed uniqueness functionals along a run.

    Requires (eps, lam) to make the gradient form

        [lam*h_cond + (eps-2)*k_cond] |tau'|^2
      + [lam*m_rr_rate + (eps-2)*m_rr] |R'|^2

    positive definite; raises IndefiniteForm otherwise (conservative
    moduli admit no such pair since both rate coefficients vanish).
    """
    if not 0 < eps < 1:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    if not lam > 0:
        raise ValueError(f"lam must be positive, got {lam}")
    m = op.moduli
    coeff_tau = lam * m.h_cond + (eps - 2.0) * m.k_cond
    coeff_r = lam * m.m_rr_rate + (eps - 2.0) * m.m_rr
    if not (coeff_tau > 0 and coeff_r > 0):
        raise IndefiniteForm(
            "quadratic form is not positive definite: "
            f"lam*h_cond + (eps-2)*k_cond = {coeff_tau}, "
            f"lam*m_rr_rate + (eps-2)*m_rr = {coeff_r}"
        )

    h = op.grid.h
    n_snap = len(traj)
    e1 = energy_series(traj, op)
    e2 = np.empty(n_snap)
    e3 = np.empty(n_snap)
    for j, s in enumerate(traj.snapshots):
        _check_state(op, s)
        du = staggered_difference(s.u, h)
        dtau = staggered_difference(s.tau, h)
        dr = staggered_difference(s.r, h)
        e2[j] = 0.5 * h * (
            m.rho * float(s.v @ s.v)
            - m.c_cap * float(s.theta @ s.theta)
            - m.alpha_m * float(s.m @ s.m)
            + m.m_uu * float(du @ du)
            - m.k_cond * float(dtau @ dtau)
            - m.m_rr * float(dr @ dr)
        )
        # tau sampled at interval midpoints to pair with the staggered u'
        tau_mid = np.empty(s.n + 1)
        tau_mid[0] = 0.5 * s.tau[0]
        tau_mid[1:-1] = 0.5 * (s.tau[1:] + s.tau[:-1])
        tau_mid[-1] = 0.5 * s.tau[-1]
        e3[j] = h * (
            m.rho * float(s.u @ s.v)
            - m.c_cap * float(s.theta @ s.tau)
            - m.alpha_m * float(s.m @ s.r)
            + 0.5 * m.h_cond * float(dtau @ dtau)
            + 0.5 * m.m_rr_rate * float(dr @ dr)
            + m.beta * float(tau_mid @ du)
        )

    integrand = eps * e1 + e2 + lam * e3
    cal_e = np.zeros(n_snap)
    if n_snap > 1:
        steps = np.diff(traj.times)
        cal_e[1:] = np.cumsum(0.5 * steps * (integrand[1:] + integrand[:-1]))

    gronwall_k = 0.0
    if n_snap > 1:
        rate = np.gradient(cal_e, traj.times)
        mask = cal_e > _GRONWALL_FLOOR
        if mask.any():
            gronwall_k = float(np.max(rate[mask] / (4.0 * cal_e[mask])))

    return BackwardFunctionals(times=traj.times, e1=e1, e2=e2, e3=e3,
                               cal_e=cal_e, gronwall_k=gronwall_k,
                               eps=float(eps), lam=float(lam))


def backward_identity_residual(op: DiscreteOperator, s: State1D) -> float:
    """Residual of the stiffness/rate exchange identity

        (m_uu |u'|^2 + c_cap theta^2 + alpha_m M^2)
      - (rho v^2 + k_cond |tau'|^2 + m_rr |R'|^2)

    integrated over the domain.  Exactly zero on the null state; along
    nonzero time-reversed runs it is recorded as a measurement.
    """
    _check_state(op, s)
    m, h = op.moduli, op.grid.h
    du = staggered_difference(s.u, h)
    dtau = staggered_difference(s.tau, h)
    dr = staggered_difference(s.r, h)
    lhs = h * (m.m_uu * float(du @ du) + m.c_cap * float(s.theta @ s.theta)
               + m.alpha_m * float(s.m @ s.m))
    rhs = h * (m.rho * float(s.v @ s.v) + m.k_cond * float(dtau @ dtau)
               + m.m_rr * float(dr @ dr))
    return lhs - rhs


@dataclass(frozen=True)
class LocalizationReport:
    """Finite-time-extinction probe.

    trivial: the initial state was identically zero (E == 0 throughout,
    nothing to certify).  min_energy_ratio: min over the run of
    E(t)/E(0).  energy_positive: E(t) > 0 at every step.
    round_trip_error: max-abs mismatch after integrating forward
    n_steps, flipping rates, integrating the time-reversed operator
    n_steps and flipping back; inf when the reversed run overflows or
    its solve misses the residual guard (strong dissipation amplifies
    round-off beyond float range).
    """

    trivial: bool
    min_energy_ratio: float
    energy_positive: bool
    round_trip_error: float


def localization_probe(op_fwd: DiscreteOperator, op_bwd: DiscreteOperator,
                       init: InitialData, dt: float, n_steps: int) -> LocalizationReport:
    init_vec = init.to_state().to_vector()
    if not init_vec.any():
        return LocalizationReport(trivial=True, min_energy_ratio=float("nan"),
                                  energy_positive=False, round_trip_error=0.0)

    traj = run_forward(op_fwd, init, dt, n_steps)
    energies = energy_series(traj, op_fwd)
    ratios = energies / energies[0]

    flipped = InitialData.from_state(time_reversal(traj.snapshots[-1]))
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            back = run_forward(op_bwd, flipped, dt, n_steps,
                               snapshot_every=max(n_steps, 1))
            recovered = time_reversal(back.snapshots[-1]).to_vector()
            err = float(np.abs(recovered - init_vec).max())
    except (NonFinite, SolveFailure):
        err = float("inf")
    round_trip = err if math.isfinite(err) else float("inf")

    return LocalizationReport(
        trivial=False,
        min_energy_ratio=float(ratios.min()),
        energy_positive=bool((energies > 0.0).all()),
        round_trip_error=round_trip,
    )
