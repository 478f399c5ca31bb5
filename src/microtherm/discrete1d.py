"""Uniform-grid discretization of the 1D coupled system.

Layout: n_interior nodes x_j = j*h, j = 1..n, h = L/(n+1); the fields
u, tau, R satisfy homogeneous Dirichlet conditions, realized as zero
ghost values at x_0 and x_{n+1}.  A state is one float vector of
length 6n that stacks the six fields in FIELDS order,
(u, v, tau, theta, R, M), each field's n values contiguous; v, theta,
M are the time rates.  A run or a table of states is a (rows, 6n)
array of such vectors.

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
matrix is F = sum_k kron(T[k], S_k).  The generator A has a table of its
own in the same layout (generator_table), over the unscaled identity,
Laplacian and gradient.  A stencil couples a node only with its
neighbours, and the medium is homogeneous, so any such matrix is one
node stencil (table_stencil): three 6 x 6 blocks coupling node j with
nodes j - 1, j, j + 1, alike at every node, those past the two ends
zero.  The stencil of A is the only form of the operator; the stepper,
the mirror sectors and the dissipativity identity read its node blocks
(node_blocks), only the band stepper (evolve) builds a sparse matrix
from them, and this module imports numpy alone.  The Gram matrix G is
the matrix of twice the energy, U^T G U = sum h*(rho v^2 + c_cap
theta^2 + alpha_m M^2) + sum_i h*(m_uu (u')^2 + 2 m_ur u'R' + k_cond
(tau')^2 + m_rr (R')^2), and the two structural choices above make
sym(G A) = -Q exactly, Q the matrix of the dissipation_rate form.
form_values evaluates any of the forms at every row of a block of
states, and diagnostics.reduce_blocks reduces a streamed run block by
block through the same kernel.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, InvalidGrid, InvalidMaterial
from .material import Moduli1D, _hypotheses

__all__ = [
    "FIELDS",
    "FORMS",
    "Grid1D",
    "DiscreteOperator",
    "assemble_operator",
    "assemble_backward",
    "form_tables",
    "form_values",
]

FIELDS = ("u", "v", "tau", "theta", "r", "m")
# the quadratic forms of form_tables: the energy, its seven terms and
# the rate quadrature, the columns of diagnostics.energy_table, and the
# third backward functional e3
FORMS = ("total", "kinetic", "thermal", "microthermal", "elastic", "coupling",
         "tau_gradient", "r_gradient", "dissipation_rate", "e3")

_BLOCK_ENTRIES = 1 << 15  # state entries per block (block_rows): 256 KiB
_ROW_NODES = 7  # nodes whose blocks hold every distinct row (row_blocks)


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
        if not (self.h * self.h > 0 and 0 < 1 / (self.h * self.h) < np.inf):
            raise InvalidGrid(f"length = {self.length!r} makes 1/h^2 not a finite positive float")

    @property
    def h(self) -> float:
        return self.length / (self.n_interior + 1)

    @property
    def nodes(self) -> np.ndarray:
        """Interior node coordinates x_j = j*h."""
        return np.arange(1, self.n_interior + 1) * self.h


class DiscreteOperator(NamedTuple):
    """The evolution operator as its node stencil, and the forms' tables.

    stencil: the generator A of dU/dt = A U as its (3, 6, 6) node
    stencil, stencil[s + 1, a, b] = A[6j + a, 6(j + s) + b] in node-major
    indices for s = -1, 0, +1 at every node j, but for the couplings past
    node 0 and node n - 1, which are zero (node_blocks); forms: the
    tables of form_tables, U^T G U = 2 * energy; time_sign: +1 forward,
    -1 time-reversed.  Treat as read-only.
    """

    stencil: np.ndarray
    forms: np.ndarray
    moduli: Moduli1D
    grid: Grid1D
    time_sign: int = 1

    @property
    def n(self) -> int:
        return self.grid.n_interior


def table_stencil(table: np.ndarray, h: float, scales=(1.0, 1.0, 1.0)) -> np.ndarray:
    """The node stencil (DiscreteOperator.stencil) of sum_k kron(table[k],
    S_k), S_k the identity, Laplacian and centered gradient at spacing h
    times scales ((h, -h, h): the stencils of form_tables).  Each entry
    sums table[k, a, b] * (w * scale) over k, w the weight at its offset:
    one product, as no two stencils of a module table share a pair."""
    lap, grad = 1 / (h * h), 1 / (2.0 * h)
    weights = (((0, 1.0),), ((-1, lap), (0, -2.0 * lap), (1, lap)), ((-1, -grad), (1, grad)))
    out = np.zeros((3, 6, 6))
    for t, scale, stencil in zip(table, scales, weights):
        a, b = np.nonzero(t)
        for s, w in stencil:
            out[s + 1, a, b] += t[a, b] * (w * scale)
    return out


def node_blocks(stencil: np.ndarray, m: int) -> np.ndarray:
    """The (m, 3, 6, 6) node blocks of a node stencil on m nodes,
    blocks[j, s + 1] = stencil[s + 1] but for the couplings past node 0
    and node m - 1, which are zero."""
    out = np.broadcast_to(stencil, (m, 3, 6, 6)).copy()
    out[0, 0] = out[-1, 2] = 0.0
    return out


def row_blocks(stencil: np.ndarray, n: int) -> np.ndarray:
    """The node blocks of a node stencil on min(n, _ROW_NODES) nodes:
    every distinct row of its n-node matrix and of a product of two such
    matrices (whose end rows reach two nodes in), so a row norm or the
    largest entry of a product is the n-node grid's, bit for bit."""
    return node_blocks(stencil, min(n, _ROW_NODES))


def form_stencil(op: DiscreteOperator, name: str, factor: float = 1.0) -> np.ndarray:
    """The node stencil (table_stencil) of factor times the matrix F of
    form name: U^T F U is the form's value at the stacked state U."""
    h = op.grid.h
    return table_stencil(factor * op.forms[FORMS.index(name)], h, (h, -h, h))


def _assemble(grid: Grid1D, m: Moduli1D, time_sign: int) -> DiscreteOperator:
    if not isinstance(grid, Grid1D):
        raise InvalidGrid(f"expected Grid1D, got {type(grid).__name__}")
    report = _hypotheses(m)
    if not report.valid:
        raise InvalidMaterial(str(report))
    return DiscreteOperator(stencil=table_stencil(generator_table(m, time_sign), grid.h),
                            forms=form_tables(m, time_sign), moduli=m, grid=grid,
                            time_sign=int(time_sign))


def generator_table(m: Moduli1D, time_sign: int) -> np.ndarray:
    """Coefficient table T[k, a, b] of the generator in form_tables'
    layout over the unscaled I, Lap and D, A = sum_k kron(T[k], S_k):
    rows du/dt = v, dtau/dt = theta, dr/dt = m and the accelerations over
    their inertias; time_sign = -1 negates exactly the rate couplings
    beta, varpi+hbar, h_cond and m_rr_rate."""
    u, v, tau, theta, r, mm = range(6)
    eye, lap, grad = range(3)
    s = float(time_sign)
    b, p = s * m.beta, s * m.varpi_plus_hbar
    t = np.zeros((3, 6, 6))
    t[eye, [u, tau, r], [v, theta, mm]] = 1.0
    t[lap, v, [u, r]] = m.m_uu / m.rho, m.m_ur / m.rho
    t[lap, theta, [tau, theta]] = m.k_cond / m.c_cap, s * m.h_cond / m.c_cap
    t[lap, mm, [u, r, mm]] = m.m_ur / m.alpha_m, m.m_rr / m.alpha_m, s * m.m_rr_rate / m.alpha_m
    t[grad, [v, theta, theta, mm], [theta, v, mm, theta]] = (
        -b / m.rho, -b / m.c_cap, -p / m.c_cap, -p / m.alpha_m)
    return t


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
    one row fewer.  Only the (stencil, field, field) entries that the
    tables hold are evaluated, each a row-wise dot product (_form_kernel).
    Rows are taken in blocks, so no temporary grows with the trajectory,
    and a row's values do not depend on the other rows.
    """
    n = op.n
    states = np.asarray(states, dtype=float)
    if states.ndim != 2 or states.shape[1] != 6 * n:
        raise DimensionMismatch(
            f"states of shape {states.shape} do not match the operator's 6n = {6 * n}")
    return _form_kernel(op, forms)(states, midpoints)


def _form_kernel(op: DiscreteOperator, forms):
    """The kernel of form_values for fixed forms: a function of
    (states, midpoints) that checks nothing, for a caller that evaluates
    many blocks of states (diagnostics.reduce_blocks).  It evaluates only
    the entries <U_a, S_k U_b> that the tables hold, a symmetric mass or
    stiffness pair (a, b), (b, a) folded into one, each a row-wise
    np.vecdot plus the two boundary terms, and accumulates each row's
    entries in one fixed order, so a row's values do not depend on the
    rows beside it.  Midpoints average only the fields the entries read."""
    n, h = op.n, op.grid.h
    tables = op.forms[[FORMS.index(name) for name in forms]]
    sym = tables[:, :2]
    tables[:, :2] = np.triu(sym + sym.transpose(0, 1, 3, 2), 1) + sym * np.eye(6)
    k, a, b = np.nonzero(tables.any(axis=0))
    weights = tables[:, k, a, b].T
    pairs = list(zip(k.tolist(), a.tolist(), b.tolist()))
    used, jumped = set(a.tolist() + b.tolist()), {c for s, i, j in pairs if s for c in (i, j)}
    block = block_rows(n)

    def values(states, midpoints=False):
        rows = max(len(states) - midpoints, 0)
        out = np.zeros((rows, len(forms)))
        for start in range(0, rows, block):
            x = states[start:start + block + midpoints].reshape(-1, 6, n)
            fields = {c: x[:, c] for c in used}
            if midpoints:
                fields = {c: 0.5 * (f[:-1] + f[1:]) for c, f in fields.items()}
            # jumps over the n-1 inner intervals; those over the two
            # boundary intervals are the first and last values
            jumps = {c: fields[c][:, 1:] - fields[c][:, :-1] for c in jumped}
            acc = out[start:start + block]
            for (s, i, j), w in zip(pairs, weights):
                fi, fj = fields[i], fields[j]
                if s == 0:
                    gram = h * np.vecdot(fi, fj)
                elif s == 1:
                    gram = (np.vecdot(jumps[i], jumps[j]) + fi[:, 0] * fj[:, 0]
                            + fi[:, -1] * fj[:, -1]) / h
                else:
                    gram = 0.5 * (np.vecdot(fi[:, :-1] + fi[:, 1:], jumps[j])
                                  + fi[:, 0] * fj[:, 0] - fi[:, -1] * fj[:, -1])
                acc += gram[:, None] * w
        return out

    return values


def block_rows(n: int) -> int:
    """Rows of 6n-entry states per block, so that a block holds about
    _BLOCK_ENTRIES entries: the block of form_values and of a streamed
    run (evolve.snapshot_blocks)."""
    return max(_BLOCK_ENTRIES // (6 * n), 1)


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
