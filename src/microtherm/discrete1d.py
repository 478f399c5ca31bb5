"""Uniform-grid discretization of the 1D coupled system.

Layout: n_interior nodes x_j = j*h, j = 1..n, h = L/(n+1); the fields
u, tau, R satisfy homogeneous Dirichlet conditions, realized as zero
ghost values at x_0 and x_{n+1}.  The stacked state orders the six
fields as (u, v, tau, theta, R, M) where v, theta, M are the time
rates.

Two structural choices make the energy identities exact in the
discrete setting (up to round-off):

* the centered first difference with zero ghosts is exactly
  antisymmetric, so the velocity/temperature/microtemperature
  couplings drop out of d/dt (U^T G U) identically;
* gradients inside the energy are taken on the n+1 staggered
  intervals (forward differences including the boundary cells), whose
  summation-by-parts identity

      sum_i h * (df)_i (dg)_i = - sum_j h * f_j (Lap g)_j

  holds exactly, pairing the stiffness rows of A with the gradient
  blocks of G.

Every energy-type quantity is a quadratic form given by a coefficient
table T over field pairs and three stencils S_k (form_tables), and its
matrix is F = sum_k kron(T[k], S_k) (form_matrix).  The Gram matrix G
is the matrix of twice the energy, U^T G U =
sum h*(rho v^2 + c_cap theta^2 + alpha_m M^2) + sum_i h*(m_uu (u')^2 +
2 m_ur u'R' + k_cond (tau')^2 + m_rr (R')^2), and the two structural
choices above make sym(G A) = -Q exactly, Q the matrix of the
dissipation_rate form.  form_values evaluates any of the forms along a
whole trajectory.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatch, InvalidGrid, InvalidMaterial, NonFinite
from .material import Moduli1D

__all__ = [
    "FIELDS",
    "FORMS",
    "Grid1D",
    "State1D",
    "DiscreteOperator",
    "assemble_operator",
    "assemble_backward",
    "form_tables",
    "form_values",
]

FIELDS = ("u", "v", "tau", "theta", "r", "m")
# the quadratic forms of form_tables: the energy, its seven terms and
# the rate quadrature, which name the fields of diagnostics.EnergyBreakdown,
# and the third backward functional e3
FORMS = ("total", "kinetic", "thermal", "microthermal", "elastic", "coupling",
         "tau_gradient", "r_gradient", "dissipation_rate", "e3")

_BLOCK_ENTRIES = 1 << 15  # state entries per block (block_rows): 256 KiB


@dataclass(frozen=True)
class Grid1D:
    """Uniform interior grid on (0, length) with zero Dirichlet boundaries."""

    n_interior: int
    length: float = 1.0

    def __post_init__(self):
        if not isinstance(self.n_interior, (int, np.integer)) or self.n_interior < 2:
            raise InvalidGrid(f"n_interior must be an integer >= 2, got {self.n_interior!r}")
        if not 0 < self.length < np.inf:
            raise InvalidGrid(f"length must be positive and finite, got {self.length!r}")
        object.__setattr__(self, "n_interior", int(self.n_interior))
        object.__setattr__(self, "length", float(self.length))

    @property
    def h(self) -> float:
        return self.length / (self.n_interior + 1)

    @property
    def nodes(self) -> np.ndarray:
        """Interior node coordinates x_j = j*h."""
        return np.arange(1, self.n_interior + 1) * self.h


@dataclass(frozen=True)
class State1D:
    """The six grid fields at one time instant; all finite, equal lengths.

    u: displacement, v: velocity, tau: thermal displacement,
    theta: temperature, r: microtemperature displacement,
    m: microtemperature.  Along any computed trajectory v, theta, m
    are the time rates of u, tau, r.
    """

    u: np.ndarray
    v: np.ndarray
    tau: np.ndarray
    theta: np.ndarray
    r: np.ndarray
    m: np.ndarray

    def __post_init__(self):
        n = None
        for name in FIELDS:
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim != 1:
                raise DimensionMismatch(f"field {name} must be a 1-D vector")
            if n is None:
                n = arr.size
            elif arr.size != n:
                raise DimensionMismatch(
                    f"field {name} has length {arr.size}, expected {n}"
                )
            if not np.isfinite(arr).all():
                raise NonFinite(f"field {name} contains non-finite entries")
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.u.size

    @classmethod
    def zeros(cls, n: int) -> "State1D":
        return cls(*(np.zeros(n) for _ in FIELDS))

    @classmethod
    def from_vector(cls, vec: np.ndarray) -> "State1D":
        vec = np.asarray(vec, dtype=float)
        if vec.ndim != 1 or vec.size % 6:
            raise DimensionMismatch(
                f"stacked state must have length 6n, got shape {vec.shape}"
            )
        n = vec.size // 6
        return cls(*(vec[k * n:(k + 1) * n] for k in range(6)))

    def to_vector(self) -> np.ndarray:
        return np.concatenate([getattr(self, name) for name in FIELDS])


class DiscreteOperator(NamedTuple):
    """Sparse realization of the evolution operator and the energy Gram.

    a_mat: 6n x 6n generator of dU/dt = A U; g_mat: symmetric positive
    definite Gram with U^T G U = 2 * energy; forms: the coefficient
    tables of form_tables, from which g_mat is assembled; time_sign: +1
    for the forward system, -1 for the time-reversed one.  Treat as
    read-only.
    """

    a_mat: sp.csr_matrix
    g_mat: sp.csr_matrix
    forms: np.ndarray
    moduli: Moduli1D
    grid: Grid1D
    time_sign: int = 1

    @property
    def n(self) -> int:
        return self.grid.n_interior


def _check_moduli(m: Moduli1D):
    det = m.m_uu * m.m_rr - m.m_ur * m.m_ur
    bad = (
        m.rho <= 0 or m.c_cap <= 0 or m.alpha_m <= 0
        or m.m_uu <= 0 or det <= 0 or m.k_cond <= 0
        or m.h_cond < 0 or m.m_rr_rate < 0
    )
    if bad:
        raise InvalidMaterial(
            "moduli violate the model hypotheses: "
            f"rho={m.rho}, c_cap={m.c_cap}, alpha_m={m.alpha_m}, "
            f"m_uu={m.m_uu}, det={det}, k_cond={m.k_cond}, "
            f"h_cond={m.h_cond}, m_rr_rate={m.m_rr_rate}"
        )


def _difference_matrices(n, h):
    off = np.ones(n - 1)
    lap = sp.diags([off, np.full(n, -2.0), off], (-1, 0, 1), format="csr") / (h * h)
    grad = sp.diags([-off, off], (-1, 1), format="csr") / (2.0 * h)
    return lap, grad


def _assemble(grid: Grid1D, m: Moduli1D, time_sign: int) -> DiscreteOperator:
    if not isinstance(grid, Grid1D):
        raise InvalidGrid(f"expected Grid1D, got {type(grid).__name__}")
    _check_moduli(m)
    n, h = grid.n_interior, grid.h
    lap, grad = _difference_matrices(n, h)
    eye = sp.identity(n, format="csr")

    s = float(time_sign)
    # the time reversal negates exactly the rate couplings:
    # beta, varpi+hbar, h_cond, m_rr_rate
    b = s * m.beta
    p = s * m.varpi_plus_hbar
    hc = s * m.h_cond
    q = s * m.m_rr_rate

    # rows: du/dt = v, dtau/dt = theta, dr/dt = m, plus the three
    # accelerations divided by their inertias
    a_mat = sp.bmat([
        [None, eye, None, None, None, None],
        [m.m_uu / m.rho * lap, None, None, -b / m.rho * grad, m.m_ur / m.rho * lap, None],
        [None, None, None, eye, None, None],
        [None, -b / m.c_cap * grad, m.k_cond / m.c_cap * lap, hc / m.c_cap * lap, None,
         -p / m.c_cap * grad],
        [None, None, None, None, None, eye],
        [m.m_ur / m.alpha_m * lap, None, None, -p / m.alpha_m * grad,
         m.m_rr / m.alpha_m * lap, q / m.alpha_m * lap],
    ], format="csr")

    forms = form_tables(m, time_sign)
    g_mat = _kron_form(2.0 * forms[FORMS.index("total")], (eye, lap, grad), h)
    return DiscreteOperator(a_mat=a_mat, g_mat=g_mat, forms=forms, moduli=m,
                            grid=grid, time_sign=int(time_sign))


def _kron_form(table: np.ndarray, difference, h: float) -> sp.csr_matrix:
    """sum_k kron(table[k], S_k) for the stencils S_k of form_tables,
    given (identity, Laplacian, centered gradient) on the n nodes."""
    eye, lap, grad = difference
    stencils = (h * eye, (-h) * lap, h * grad)
    return sum(sp.kron(t, s, format="csr") for t, s in zip(table, stencils))


def form_matrix(op: DiscreteOperator, name: str) -> sp.csr_matrix:
    """The 6n x 6n matrix F of form name: U^T F U is the form's value at
    the stacked state U, and F = sum_k kron(T[k], S_k) over the
    coefficient table T and stencils S_k of form_tables."""
    n, h = op.n, op.grid.h
    difference = (sp.identity(n, format="csr"), *_difference_matrices(n, h))
    return _kron_form(op.forms[FORMS.index(name)], difference, h)


def form_tables(m: Moduli1D, time_sign: int) -> np.ndarray:
    """Coefficient tables T[f, k, a, b] of the quadratic forms in FORMS.

    Form f takes the value sum_{k,a,b} T[f, k, a, b] <U_a, S_k U_b> at a
    state U with fields U_a in FIELDS order, under three stencils: S_0 =
    h I (mass), S_1 = tridiag(-1, 2, -1)/h (the staggered stiffness,
    <f, S_1 g> = h sum_i f'_i g'_i over the n+1 intervals) and S_2 = h D
    with D the centered gradient.  The seven energy terms carry half the
    Gram blocks and total is their sum, so G = 2 * total exactly.
    dissipation_rate is the gradient-rate quadrature, signed by
    time_sign; e3 is the third backward functional, whose beta term
    beta <tau, h D u> pairs tau at the interval midpoints with u'.
    """
    u, v, tau, theta, r, mm = range(6)
    mass, stiff, grad = range(3)
    (total, kinetic, thermal, micro, elastic, coupling, tau_gradient,
     r_gradient, dissipation, e3) = range(len(FORMS))
    t = np.zeros((len(FORMS), 3, 6, 6))
    t[kinetic, mass, v, v] = 0.5 * m.rho
    t[thermal, mass, theta, theta] = 0.5 * m.c_cap
    t[micro, mass, mm, mm] = 0.5 * m.alpha_m
    t[elastic, stiff, u, u] = 0.5 * m.m_uu
    t[coupling, stiff, u, r] = t[coupling, stiff, r, u] = 0.5 * m.m_ur
    t[tau_gradient, stiff, tau, tau] = 0.5 * m.k_cond
    t[r_gradient, stiff, r, r] = 0.5 * m.m_rr
    t[total] = t[kinetic:dissipation].sum(axis=0)
    t[dissipation, stiff, theta, theta] = time_sign * m.h_cond
    t[dissipation, stiff, mm, mm] = time_sign * m.m_rr_rate
    t[e3, mass, u, v] = t[e3, mass, v, u] = 0.5 * m.rho
    t[e3, mass, tau, theta] = t[e3, mass, theta, tau] = -0.5 * m.c_cap
    t[e3, mass, r, mm] = t[e3, mass, mm, r] = -0.5 * m.alpha_m
    t[e3, stiff, tau, tau] = 0.5 * m.h_cond
    t[e3, stiff, r, r] = 0.5 * m.m_rr_rate
    t[e3, grad, tau, u] = m.beta
    return t


def form_values(op: DiscreteOperator, states, forms=FORMS,
                midpoints: bool = False) -> np.ndarray:
    """The named forms of op.forms at every row of states, (n_rows, 6n).

    Returns an (n_rows, len(forms)) array; with midpoints=True the forms
    are evaluated at the averages (U_k + U_{k+1})/2 of consecutive rows,
    one row fewer.  Each row's 6x6 field Gram tensors under the three
    stencils are contracted with the tables.  Rows are taken in blocks,
    so no temporary grows with the trajectory, and a row's values do not
    depend on the other rows.
    """
    n = op.n
    states = np.asarray(states, dtype=float)
    if states.ndim != 2 or states.shape[1] != 6 * n:
        raise DimensionMismatch(
            f"states of shape {states.shape} do not match the operator's 6n = {6 * n}")
    return _form_kernel(op, forms)(states, midpoints)


def _form_kernel(op: DiscreteOperator, forms):
    """The kernel of form_values for fixed forms: a function of
    (states, midpoints) that checks nothing, with the forms' tables and
    the stencils they use selected once, for a caller that evaluates
    many blocks of states (diagnostics.reduce_blocks)."""
    n, h = op.n, op.grid.h
    tables = op.forms[[FORMS.index(name) for name in forms]]
    used = tables.any(axis=(0, 2, 3))
    block = block_rows(n)

    def values(states, midpoints=False):
        rows = max(len(states) - midpoints, 0)
        out = np.empty((rows, len(forms)))
        for start in range(0, rows, block):
            x = states[start:start + block + midpoints]
            if midpoints:
                x = 0.5 * (x[:-1] + x[1:])
            grams = _field_grams(x.reshape(len(x), 6, n), h, used)
            out[start:start + block] = np.einsum("skab,fkab->sf", grams, tables)
        return out

    return values


def block_rows(n: int) -> int:
    """Rows of 6n-entry states per block, so that a block holds about
    _BLOCK_ENTRIES entries: the block of form_values and of a streamed
    run (evolve.snapshot_blocks)."""
    return max(_BLOCK_ENTRIES // (6 * n), 1)


def _field_grams(x: np.ndarray, h: float, used) -> np.ndarray:
    """<U_a, S_k U_b> for each state x[s] (six fields of n nodes) and
    each stencil k with used[k]; zero for the others."""
    grams = np.zeros((len(x), 3, 6, 6))
    if used[0]:
        grams[:, 0] = h * (x @ x.transpose(0, 2, 1))
    if used[1] or used[2]:
        # jumps over the n-1 inner intervals; those over the two boundary
        # intervals are the first and last values (zero ghosts)
        jumps_t = (x[..., 1:] - x[..., :-1]).transpose(0, 2, 1)
        first = x[:, :, None, 0] * x[:, None, :, 0]
        last = x[:, :, None, -1] * x[:, None, :, -1]
    if used[1]:
        grams[:, 1] = (jumps_t.transpose(0, 2, 1) @ jumps_t + first + last) / h
    if used[2]:
        grams[:, 2] = 0.5 * (x[..., :-1] @ jumps_t + x[..., 1:] @ jumps_t + first - last)
    return grams


def assemble_operator(g: Grid1D, m: Moduli1D) -> DiscreteOperator:
    """Assemble the forward evolution operator and energy Gram matrix.

    For conservative moduli (h_cond = m_rr_rate = 0) the assembled pair
    satisfies U^T G A U = 0 for every U; with dissipation it satisfies
    U^T G A U = -(h_cond |theta'|^2 + m_rr_rate |M'|^2) * h, both up to
    round-off.
    """
    return _assemble(g, m, +1)


def assemble_backward(g: Grid1D, m: Moduli1D) -> DiscreteOperator:
    """Assemble the time-reversed operator.

    Equivalent to negating the rate couplings (beta, varpi+hbar,
    h_cond, m_rr_rate); identically A_bwd = -S A_fwd S where S flips
    the signs of v, theta, M.
    """
    return _assemble(g, m, -1)
