"""Material parameter sets and their validation.

The medium couples three fields: elastic displacement, thermal
displacement (time integral of temperature) and a microtemperature
vector describing sub-element temperature variation.  Two heat-flux
models are supported:

* conservative ("type2"): fluxes depend on displacement gradients only;
  the total energy is an exact invariant of the motion;
* dissipative ("type3"): two extra rate coefficients (h_cond for the
  temperature, rho1..rho3 for the microtemperatures) damp gradient
  rates and drive asymptotic decay.

Validation mirrors the hypotheses the structural results rest on:

* condition (i): exact tensor symmetries (anisotropic sets only);
* condition (ii): non-negative rate coefficients (h_cond >= 0,
  rho1+rho2+rho3 >= 0), strict when decay is asserted;
* condition (iii): the elastic/microthermal stiffness block is
  positive definite and k_cond > 0;

plus positivity of the inertial coefficients rho, c_cap, alpha_m.

The 1D solver consumes the reduced moduli of ``Moduli1D``.  Conditions
(ii) and (iii) and the inertias are checked on the reduced moduli, by
one check that validate_isotropic, to_moduli_1d and the assembly share,
so a reduction that overflows is rejected too.  The full anisotropic
tensor sets are validated but never evolved.
"""

from dataclasses import dataclass, fields as dc_fields
import math

import numpy as np

from .errors import InvalidMaterial, NonFinite

__all__ = [
    "MaterialIsotropic",
    "AnisotropicTensors",
    "Moduli1D",
    "ValidationReport",
    "validate_isotropic",
    "validate_anisotropic",
    "to_moduli_1d",
    "isotropic_embedding",
    "reference_type2",
    "reference_type3",
]


@dataclass(frozen=True)
class MaterialIsotropic:
    """Isotropic coefficient set in consistent nondimensional units.

    Attributes
    ----------
    rho : mass density (> 0)
    lambda_e, mu_e : Lame constants of the elastic response
    beta : thermal stress coupling
    c_cap : scaled specific heat (> 0)
    alpha_m : microthermal inertia (> 0)
    gamma1, gamma2 : elastic-microtemperature coupling
    k_cond : thermal conductivity (> 0)
    h_cond : temperature-rate conductivity (0 for the conservative model)
    varpi, hbar_c : entropy/microtemperature gradient couplings
    eta1, eta2, eta3 : microthermal stiffness
    rho1, rho2, rho3 : microtemperature-rate coefficients (0 for the
        conservative model)
    """

    rho: float
    lambda_e: float
    mu_e: float
    beta: float
    c_cap: float
    alpha_m: float
    gamma1: float
    gamma2: float
    k_cond: float
    h_cond: float
    varpi: float
    hbar_c: float
    eta1: float
    eta2: float
    eta3: float
    rho1: float
    rho2: float
    rho3: float

    def __post_init__(self):
        for f in dc_fields(self):
            object.__setattr__(self, f.name, float(getattr(self, f.name)))


@dataclass(frozen=True)
class Moduli1D:
    """Reduced coefficients of the 1D equations.

    With all fields depending on x only and u, R aligned with the axis,
    the three balance laws read (forward in time)

        rho * u_tt   = m_uu u'' - beta theta' + m_ur R''
        c_cap*tau_tt = -beta v' + k_cond tau'' + h_cond theta''
                       - varpi_plus_hbar M'
        alpha*R_tt   = m_ur u'' + m_rr R'' + m_rr_rate M''
                       - varpi_plus_hbar theta'

    where v, theta, M are the time rates of u, tau, R.  The theta'
    coupling in the third row carries the *sum* varpi + hbar_c: the two
    gradient couplings enter once through the flux divergence and once
    directly, exactly mirroring the M' coupling of the second row.
    That pairing is what makes the energy identity below exact:

        dE/dt = -(h_cond * |theta'|^2 + m_rr_rate * |M'|^2)

    to_moduli_1d reduces an isotropic set to these (_reduce).
    """

    m_uu: float
    m_ur: float
    m_rr: float
    m_rr_rate: float
    rho: float
    beta: float
    c_cap: float
    alpha_m: float
    k_cond: float
    h_cond: float
    varpi_plus_hbar: float


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a material validation; empty violations = valid."""

    violations: tuple

    @property
    def valid(self) -> bool:
        return not self.violations

    def __str__(self):
        if self.valid:
            return "valid"
        return "; ".join(self.violations)


def _require_finite(pairs):
    for name, value in pairs:
        if not math.isfinite(value):
            raise NonFinite(f"{name} is not finite: {value!r}")


def _reduce(m: MaterialIsotropic) -> Moduli1D:
    """The 1D moduli of an isotropic set; raises NonFinite naming the
    first coefficient that is NaN or infinite."""
    _require_finite((f.name, getattr(m, f.name)) for f in dc_fields(m))
    return Moduli1D(
        m_uu=m.lambda_e + 2 * m.mu_e,
        m_ur=m.gamma1 + 2 * m.gamma2,
        m_rr=m.eta1 + m.eta2 + m.eta3,
        m_rr_rate=m.rho1 + m.rho2 + m.rho3,
        rho=m.rho,
        beta=m.beta,
        c_cap=m.c_cap,
        alpha_m=m.alpha_m,
        k_cond=m.k_cond,
        h_cond=m.h_cond,
        varpi_plus_hbar=m.varpi + m.hbar_c,
    )


def _hypotheses(m: Moduli1D) -> ValidationReport:
    """The model hypotheses on the reduced moduli, each inequality
    written so that NaN violates it.

    Raises
    ------
    NonFinite
        if any modulus is NaN or infinite, one whose reduction overflowed
        included.
    """
    _require_finite((f.name, getattr(m, f.name)) for f in dc_fields(m))

    v = []
    for name in ("rho", "c_cap", "alpha_m"):
        if not getattr(m, name) > 0:
            v.append(f"{name} > 0 violated: {name} = {getattr(m, name)}")

    # condition (ii): the rate form h_cond*(theta')^2 + sum(rho_i)*(M')^2
    # must be non-negative
    if not m.h_cond >= 0:
        v.append(f"condition (ii): h_cond >= 0 violated: h_cond = {m.h_cond}")
    if not m.m_rr_rate >= 0:
        v.append(
            f"condition (ii): rho1+rho2+rho3 >= 0 violated: sum = {m.m_rr_rate}"
        )

    # condition (iii): stiffness block [[m_uu, m_ur], [m_ur, m_rr]]
    # positive definite (leading minors) and k_cond > 0
    det = m.m_uu * m.m_rr - m.m_ur * m.m_ur
    if not m.m_uu > 0:
        v.append(f"condition (iii): m_uu > 0 violated: m_uu = {m.m_uu}")
    if not det > 0:
        v.append(
            "condition (iii): m_uu*m_rr - m_ur^2 > 0 violated: "
            f"det = {det} (m_uu = {m.m_uu}, m_ur = {m.m_ur}, m_rr = {m.m_rr})"
        )
    if not m.k_cond > 0:
        v.append(f"condition (iii): k_cond > 0 violated: k_cond = {m.k_cond}")

    return ValidationReport(tuple(v))


def validate_isotropic(m: MaterialIsotropic) -> ValidationReport:
    """Check the isotropic hypotheses on the reduced moduli; returns a
    report, never raises on a merely unphysical material.

    Raises
    ------
    NonFinite
        if any coefficient, or any reduced modulus, is NaN or infinite.
    """
    return _hypotheses(_reduce(m))


def to_moduli_1d(m: MaterialIsotropic) -> Moduli1D:
    """Reduce a valid isotropic material to the 1D moduli.

    Raises
    ------
    InvalidMaterial
        if validate_isotropic reports any violation.
    """
    moduli = _reduce(m)
    report = _hypotheses(moduli)
    if not report.valid:
        raise InvalidMaterial(str(report))
    return moduli


_RANK4 = ("elasticity", "micro_coupling", "micro_stiffness", "micro_stiffness_rate")
_RANK2 = ("thermal_coupling", "entropy_micro", "micro_inertia", "thermal_micro",
          "conductivity", "conductivity_rate")


@dataclass(frozen=True)
class AnisotropicTensors:
    """Full anisotropic coefficient set (validation only, never evolved).

    Rank-4 tensors (3x3x3x3): elasticity, micro_coupling (elastic to
    microtemperature gradients), micro_stiffness, micro_stiffness_rate
    (the dissipative rate tensor).  Rank-2 tensors (3x3):
    thermal_coupling, entropy_micro, micro_inertia, thermal_micro,
    conductivity, conductivity_rate.  Scalars: rho, c_cap.
    """

    elasticity: np.ndarray
    micro_coupling: np.ndarray
    micro_stiffness: np.ndarray
    micro_stiffness_rate: np.ndarray
    thermal_coupling: np.ndarray
    entropy_micro: np.ndarray
    micro_inertia: np.ndarray
    thermal_micro: np.ndarray
    conductivity: np.ndarray
    conductivity_rate: np.ndarray
    rho: float
    c_cap: float

    def __post_init__(self):
        for name in _RANK4 + _RANK2:
            arr = np.array(getattr(self, name), dtype=float)
            want = (3, 3, 3, 3) if name in _RANK4 else (3, 3)
            if arr.shape != want:
                raise ValueError(f"{name} must have shape {want}, got {arr.shape}")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "rho", float(self.rho))
        object.__setattr__(self, "c_cap", float(self.c_cap))


def _first_mismatch(arr, axes):
    """First index tuple where arr differs from its transpose, or None."""
    swapped = arr.transpose(axes)
    bad = np.argwhere(arr != swapped)
    if bad.size == 0:
        return None
    return tuple(int(i) for i in bad[0])


def _check_symmetry(v, name, arr, axes, relation):
    idx = _first_mismatch(arr, axes)
    if idx is not None:
        other = tuple(idx[a] for a in axes)
        v.append(
            f"condition (i): {name} symmetry {relation} violated at index "
            f"{idx}: {arr[idx]!r} != {arr[other]!r}"
        )


def validate_anisotropic(t: AnisotropicTensors) -> ValidationReport:
    """Check the exact symmetry relations and positive definiteness of
    the microthermal inertia.

    Symmetries are compared with exact equality: tensor sets are
    authored inputs, not computed quantities, so no tolerance applies.
    """
    for name in _RANK4 + _RANK2:
        arr = getattr(t, name)
        if not np.isfinite(arr).all():
            raise NonFinite(f"{name} contains non-finite entries")
    _require_finite([("rho", t.rho), ("c_cap", t.c_cap)])

    v = []
    # pair symmetry ijkl = jikl for the three static rank-4 tensors
    for name in ("elasticity", "micro_coupling", "micro_stiffness"):
        _check_symmetry(v, name, getattr(t, name), (1, 0, 2, 3), "ijkl = jikl")
    # major symmetry ijkl = klij, rate tensor included
    for name in _RANK4:
        _check_symmetry(v, name, getattr(t, name), (2, 3, 0, 1), "ijkl = klij")
    # rank-2 symmetry
    for name in _RANK2:
        _check_symmetry(v, name, getattr(t, name), (1, 0), "ij = ji")

    # micro_inertia positive definite, by leading principal minors
    c = t.micro_inertia
    minors = (c[0, 0], np.linalg.det(c[:2, :2]), np.linalg.det(c))
    for k, minor in enumerate(minors, start=1):
        if not minor > 0:
            v.append(
                f"micro_inertia not positive definite: leading minor {k} = {minor}"
            )

    return ValidationReport(tuple(v))


def isotropic_embedding(m: MaterialIsotropic) -> AnisotropicTensors:
    """Build the full tensor set generated by an isotropic material.

    Rank-4 patterns are Lame-like: c1*d_ij*d_kl + c2*(d_ik*d_jl +
    d_il*d_jk).  The microthermal stiffness uses the symmetrized shear
    coefficient (eta2+eta3)/2 so the pair symmetry holds for any eta2,
    eta3; the axial contraction eta1+eta2+eta3 is unchanged.
    """
    eye = np.eye(3)

    def lame(c1, c2):
        t = c1 * np.einsum("ij,kl->ijkl", eye, eye)
        t += c2 * (np.einsum("ik,jl->ijkl", eye, eye) + np.einsum("il,jk->ijkl", eye, eye))
        return t

    return AnisotropicTensors(
        elasticity=lame(m.lambda_e, m.mu_e),
        micro_coupling=lame(m.gamma1, m.gamma2),
        micro_stiffness=lame(m.eta1, 0.5 * (m.eta2 + m.eta3)),
        micro_stiffness_rate=lame(m.rho1, 0.5 * (m.rho2 + m.rho3)),
        thermal_coupling=m.beta * eye,
        entropy_micro=m.varpi * eye,
        micro_inertia=m.alpha_m * eye,
        thermal_micro=m.hbar_c * eye,
        conductivity=m.k_cond * eye,
        conductivity_rate=m.h_cond * eye,
        rho=m.rho,
        c_cap=m.c_cap,
    )


def reference_type3() -> MaterialIsotropic:
    """Canonical nondimensional fixture for the dissipative model."""
    return MaterialIsotropic(
        rho=1.0, lambda_e=1.0, mu_e=1.0, beta=1.0, c_cap=1.0, alpha_m=1.0,
        gamma1=0.1, gamma2=0.1, k_cond=1.0, h_cond=1.0, varpi=0.1, hbar_c=0.1,
        eta1=1 / 3, eta2=1 / 3, eta3=1 / 3, rho1=1 / 3, rho2=1 / 3, rho3=1 / 3,
    )


def reference_type2() -> MaterialIsotropic:
    """Canonical fixture for the conservative model (all rates zero)."""
    return MaterialIsotropic(
        rho=1.0, lambda_e=1.0, mu_e=1.0, beta=1.0, c_cap=1.0, alpha_m=1.0,
        gamma1=0.1, gamma2=0.1, k_cond=1.0, h_cond=0.0, varpi=0.1, hbar_c=0.1,
        eta1=1 / 3, eta2=1 / 3, eta3=1 / 3, rho1=0.0, rho2=0.0, rho3=0.0,
    )
