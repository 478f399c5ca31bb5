"""Verification quantities: energies, dissipation, spectra, decay fits,
time-reversed functionals and the non-extinction probe.

Every energy-type quantity is one of the operator's quadratic forms
(discrete1d.form_tables), evaluated along a whole trajectory at once by
discrete1d.form_values.  The same tables define the Gram matrix G and
the dissipation matrix Q (discrete1d.form_matrix), so the structural
identities hold at round-off level rather than discretization level:

* energy().total is exactly half the squared Gram norm;
* sym(G A) = -Q, so the dissipation_rate form equals -U^T G A U
  (dissipativity_residual measures the matrix identity);
* along midpoint trajectories E_{k+1} - E_k = -dt * D(midpoint state)
  exactly.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .discrete1d import FORMS, DiscreteOperator, State1D, form_matrix, form_values
from .errors import (DegenerateTrajectory, DimensionMismatch, EigenFailure,
                     IndefiniteForm, NonFinite, SizeLimit, SolveFailure)
from .evolve import Trajectory, run_forward, time_reversal

__all__ = [
    "EnergyBreakdown",
    "SpectralReport",
    "DecayFit",
    "BackwardFunctionals",
    "LocalizationReport",
    "energy",
    "energy_table",
    "energy_series",
    "energy_balance_residuals",
    "dissipativity_residual",
    "spectral_report",
    "fit_decay",
    "backward_functionals",
    "localization_probe",
]

DENSE_LIMIT = 3000        # largest 6n for dense eigensolves
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


# the forms named by the EnergyBreakdown fields, in field order
_BREAKDOWN = tuple(f.name for f in fields(EnergyBreakdown))


def energy(op: DiscreteOperator, s: State1D) -> EnergyBreakdown:
    """Per-term energy of one state: a one-snapshot energy_table row."""
    row = form_values(op, s.to_vector()[None], _BREAKDOWN)[0]
    return EnergyBreakdown(*map(float, row))


def energy_table(traj: Trajectory, op: DiscreteOperator) -> np.ndarray:
    """The EnergyBreakdown of every snapshot, one field per column:
    (n_snapshots, 9), total first and dissipation_rate last."""
    return form_values(op, traj.states, _BREAKDOWN)


def energy_series(traj: Trajectory, op: DiscreteOperator) -> np.ndarray:
    """E(t_j) = 1/2 U_j^T G U_j for every snapshot; equal bit for bit
    to energy().total of each snapshot."""
    return energy_table(traj, op)[:, 0]


def energy_balance_residuals(traj: Trajectory, op: DiscreteOperator,
                             table: np.ndarray,
                             sampling: str = "midpoint") -> np.ndarray:
    """Per-step residual of E_{k+1} - E_k + dt_snap * D, given the
    trajectory's energy_table(traj, op).

    sampling="midpoint" evaluates D at the averaged state
    (U_k + U_{k+1})/2, for which the midpoint rule satisfies the
    balance exactly (residual at round-off).  sampling="trapezoid"
    averages the endpoint rates of the table instead; its residual
    carries a genuine O(dt^3) term, which is what a refinement study
    can measure.

    Exactness of the midpoint form needs consecutive stepper states,
    i.e. a trajectory recorded with snapshot_every = 1; for coarser
    sampling the residual measures the quadrature error over each
    recording interval instead.
    """
    if sampling not in ("midpoint", "trapezoid"):
        raise ValueError(f"unknown sampling {sampling!r}")
    if sampling == "midpoint":
        rates = form_values(op, traj.states, ("dissipation_rate",), midpoints=True)[:, 0]
    else:
        rates = 0.5 * (table[:-1, -1] + table[1:, -1])
    return np.diff(table[:, 0]) + traj.snapshot_every * traj.dt * rates


def dissipativity_residual(op: DiscreteOperator) -> float:
    """Relative residual max|sym(G A) + Q| / max|G A| of the discrete
    dissipativity identity, Q the matrix of the dissipation_rate form.

    The identity says dE/dt = U^T G A U = -D(U) for every state U, the
    step that makes the generator dissipative once Q is positive
    semidefinite.  It is checked on the sparse matrices themselves, so
    it needs no probe states and no dense matrix at any grid size.
    """
    g_a = (op.g_mat @ op.a_mat).tocsr()
    resid = 0.5 * (g_a + g_a.T) + form_matrix(op, "dissipation_rate")
    return float(abs(resid).max() / abs(g_a).max())


@dataclass(frozen=True)
class SpectralReport:
    """Dense spectrum of a_mat: eigenvalues sorted by (real, imag) and
    the spectral abscissa, their largest real part."""

    eigenvalues: np.ndarray
    spectral_abscissa: float


def spectral_report(op: DiscreteOperator) -> SpectralReport:
    size = op.a_mat.shape[0]
    if size > DENSE_LIMIT:
        raise SizeLimit(
            f"dense eigensolve limited to 6n <= {DENSE_LIMIT}, got {size}"
        )
    try:
        lams = np.linalg.eigvals(op.a_mat.toarray())
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(f"dense eigensolve failed: {exc}") from exc
    order = np.lexsort((lams.imag, lams.real))
    return SpectralReport(eigenvalues=lams[order],
                          spectral_abscissa=float(lams.real.max()))


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

    values = dict(zip(FORMS, form_values(op, traj.states).T))
    e1 = values["total"]
    e2 = (values["kinetic"] - values["thermal"] - values["microthermal"]
          + values["elastic"] - values["tau_gradient"] - values["r_gradient"])
    e3 = values["e3"]
    n_snap = len(traj)

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


@dataclass(frozen=True)
class LocalizationReport:
    """Finite-time-extinction probe.

    trivial: the initial state was identically zero (E == 0 throughout,
    nothing to certify).  min_energy_ratio: min over the run of
    E(t)/E(0).  energy_positive: E(t) > 0 at every step.
    round_trip_error: max-abs mismatch after flipping the rates of the
    run's final state, integrating the time-reversed operator as many
    steps back and flipping again; inf when the reversed run overflows
    or its solve misses the residual guard (strong dissipation
    amplifies round-off beyond float range).
    """

    trivial: bool
    min_energy_ratio: float
    energy_positive: bool
    round_trip_error: float


def localization_probe(op_bwd: DiscreteOperator, traj: Trajectory,
                       energies: np.ndarray) -> LocalizationReport:
    """Probe a forward run for finite-time extinction.

    traj is an every-step run (snapshot_every = 1) and energies its
    energy at every snapshot, e.g. energy_table(traj, op)[:, 0]; the
    probe reads the energies, row 0 and the last row, and runs only the
    time-reversed half itself.  Raises ValueError for a strided run,
    whose energies would miss steps.
    """
    if traj.snapshot_every != 1:
        raise ValueError(
            "localization needs an every-step run, got snapshot_every = "
            f"{traj.snapshot_every}")
    if len(energies) != len(traj):
        raise DimensionMismatch(
            f"need one energy per snapshot ({len(traj)}), got {len(energies)}")
    init_vec = traj.states[0]
    if not init_vec.any():
        return LocalizationReport(trivial=True, min_energy_ratio=float("nan"),
                                  energy_positive=False, round_trip_error=0.0)

    n_steps = len(traj) - 1
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            back = run_forward(op_bwd, time_reversal(traj[-1]), traj.dt, n_steps,
                               snapshot_every=max(n_steps, 1))
            recovered = time_reversal(back[-1]).to_vector()
            err = float(np.abs(recovered - init_vec).max())
    except (NonFinite, SolveFailure):
        err = float("inf")
    round_trip = err if math.isfinite(err) else float("inf")

    return LocalizationReport(
        trivial=False,
        min_energy_ratio=float((energies / energies[0]).min()),
        energy_positive=bool((energies > 0.0).all()),
        round_trip_error=round_trip,
    )
