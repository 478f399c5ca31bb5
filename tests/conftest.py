"""Shared fixtures: reference operators, random-state helpers, the
per-field difference formulas the assembled matrices are checked
against, the COO and the block-wise scipy assembly of the generator and
the form matrices (the oracles of the node stencils), the node-major COO
build of the stepper's guard matrix, stencil mutations of an operator, the
one-wavenumber determinant expansion and root finders, complex and
real, the batched dispersion routes are checked against, the
hand-written Fourier symbol, complex and under the routes' similarity,
that the symbols read from the generator table are checked against,
scipy's assignment as the oracle of the root pairing, the branch
matcher one step at a time and the dispersion quantities only tests
read, the run oracles (a whole run as one array, the trapezoid energy
balance and the decay fit), and the validation case registry (one
passing and one failing fixture per inequality and per symmetry
relation)."""

import dataclasses
import math
import threading

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linear_sum_assignment

from microtherm import (FIELDS, EigenFailure, Grid1D, MaterialIsotropic, RootFailure,
                        assemble_backward, assemble_operator, isotropic_embedding,
                        reference_type2, reference_type3, snapshot_blocks, to_moduli_1d,
                        validate_isotropic)
from microtherm.diagnostics import balance_residuals
from microtherm.discrete1d import FORMS, generator_table, node_blocks
from microtherm.dispersion import (_JUMP_FRACTION, _SIX, DispersionResult, least_pairing,
                                   quadratic_frequencies)

# ---------------------------------------------------------------------------
# operators


@pytest.fixture(scope="session")
def grid16():
    return Grid1D(n_interior=16)


@pytest.fixture(scope="session")
def moduli3():
    return to_moduli_1d(reference_type3())


@pytest.fixture(scope="session")
def moduli2():
    return to_moduli_1d(reference_type2())


@pytest.fixture(scope="session")
def op3(grid16, moduli3):
    return assemble_operator(grid16, moduli3)


@pytest.fixture(scope="session")
def op2(grid16, moduli2):
    return assemble_operator(grid16, moduli2)


@pytest.fixture(scope="session")
def op3_back(grid16, moduli3):
    return assemble_backward(grid16, moduli3)


@pytest.fixture(scope="session")
def op2_back(grid16, moduli2):
    return assemble_backward(grid16, moduli2)


# ---------------------------------------------------------------------------
# reference formulas: the stencils written out per field, zero ghosts


def _as_field(f, h):
    f = np.asarray(f, dtype=float)
    if f.ndim != 1 or f.size < 2:
        raise ValueError(f"need a 1-D vector of length >= 2, got shape {f.shape}")
    if not h > 0:
        raise ValueError(f"spacing must be positive, got {h}")
    return f


def second_difference(f, h):
    """3-point Laplacian (f_{j-1} - 2 f_j + f_{j+1}) / h^2, zero ghosts."""
    f = _as_field(f, h)
    out = -2.0 * f
    out[:-1] += f[1:]
    out[1:] += f[:-1]
    return out / (h * h)


def first_difference(f, h):
    """Centered gradient (f_{j+1} - f_{j-1}) / (2h), zero ghosts."""
    f = _as_field(f, h)
    out = np.zeros_like(f)
    out[:-1] += f[1:]
    out[1:] -= f[:-1]
    return out / (2.0 * h)


def staggered_difference(f, h):
    """Forward differences (f_{i+1} - f_i)/h over all n+1 intervals,
    the two boundary cells included: the gradient sampling of the
    energy quadrature."""
    f = _as_field(f, h)
    out = np.empty(f.size + 1)
    out[0] = f[0] / h
    out[1:-1] = np.diff(f) / h
    out[-1] = -f[-1] / h
    return out


def gram_norm(op, x: np.ndarray) -> float:
    """Energy norm sqrt(U^T G U) = sqrt(2 * energy) of a stacked state."""
    return float(np.sqrt(max(float(x @ (gram_matrix(op) @ x)), 0.0)))


# ---------------------------------------------------------------------------
# assembly oracles: the generator and the form matrices built from COO
# triplets and block by block with scipy's constructors, whose nonzero
# entries the node blocks of discrete1d's stencils must reproduce byte for
# byte; the node-major CSR of the COO build (that of evolve._csr, which
# builds the band stepper's right-hand side); and mutations of an
# operator's stencil


def stencil_triplets(n: int, h: float, scales=(1.0, 1.0, 1.0)):
    """(rows, cols, values) triplets of the identity, the Laplacian and
    the centered gradient on n nodes with zero ghosts, their values
    times scales; (h, -h, h) gives the stencils of form_tables."""
    j, i = np.arange(n), np.arange(n - 1)
    off = np.ones(n - 1)
    stencils = ((j, j, np.ones(n)),
                (np.concatenate([i + 1, j, i]), np.concatenate([i, j, i + 1]),
                 np.concatenate([off, np.full(n, -2.0), off]) * (1 / (h * h))),
                (np.concatenate([i + 1, i]), np.concatenate([i, i + 1]),
                 np.concatenate([-off, off]) * (1 / (2.0 * h))))
    return [(r, c, v * s) for (r, c, v), s in zip(stencils, scales)]


def table_matrix(table: np.ndarray, n: int, h: float, scales=(1.0, 1.0, 1.0)) -> sp.csr_matrix:
    """sum_k kron(table[k], S_k) over the stencils of stencil_triplets,
    built from COO triplets: block (a, b) holds S_k scaled by
    table[k, a, b], and a zero coefficient adds no block.  The oracle of
    the node stencils of discrete1d, whose node blocks' node-major CSR
    (evolve._csr) must equal its node_major_csr byte for byte."""
    rows, cols, data = [], [], []
    for t, (r, c, v) in zip(table, stencil_triplets(n, h, scales)):
        a, b = np.nonzero(t)
        rows.append(np.add.outer(a * n, r).ravel())
        cols.append(np.add.outer(b * n, c).ravel())
        data.append(np.multiply.outer(t[a, b], v).ravel())
    return sp.csr_matrix((np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(6 * n, 6 * n))


def form_matrix(op, name: str) -> sp.csr_matrix:
    """The 6n x 6n matrix F of form name, U^T F U the form's value at the
    stacked state U: table_matrix of its table under the stencils h I,
    -h Lap and h D of form_tables."""
    h = op.grid.h
    return table_matrix(op.forms[FORMS.index(name)], op.n, h, (h, -h, h))


def generator_matrix(op) -> sp.csr_matrix:
    """The field-major generator A of op's moduli and time orientation:
    the COO build of generator_table, which the node blocks of
    op.stencil hold entry for entry unless a test has changed it (then
    blocks_matrix)."""
    return table_matrix(generator_table(op.moduli, op.time_sign), op.n, op.grid.h)


def gram_matrix(op) -> sp.csr_matrix:
    """The field-major Gram matrix G = 2 F_total, U^T G U = 2 * energy."""
    return 2.0 * form_matrix(op, "total")


def blocks_matrix(blocks: np.ndarray) -> sp.csr_matrix:
    """The field-major CSR matrix of node blocks (discrete1d.node_blocks),
    built from COO triplets: the inverse of with_generator's scatter, for
    a stencil that a test has changed."""
    n = len(blocks)
    j, s, a, b = np.nonzero(blocks)
    return sp.csr_matrix((blocks[j, s, a, b], (a * n + j, b * n + j + s - 1)),
                         shape=(6 * n, 6 * n))


def node_major_csr(a_mat: sp.csr_matrix) -> sp.csr_matrix:
    """The nonzero entries of a field-major CSR matrix in node-major
    indices (the six fields of node 0, then those of node 1, ...), as a
    CSR matrix built from COO triplets: the oracle of evolve._csr."""
    n = a_mat.shape[0] // 6
    row = np.repeat(np.arange(6 * n), np.diff(a_mat.indptr))
    nonzero = a_mat.data != 0.0
    (field_r, node_r), (field_c, node_c) = (np.divmod(x[nonzero], n)
                                            for x in (row, a_mat.indices))
    return sp.csr_matrix((a_mat.data[nonzero], (6 * node_r + field_r, 6 * node_c + field_c)),
                         shape=a_mat.shape)


def with_generator(op, a_mat):
    """op with the generator of the field-major matrix a_mat, which must
    be one node stencil (DiscreteOperator.stencil): its entries
    scattered into the stencil, whose node blocks must give a_mat back."""
    n = op.n
    a_mat = sp.coo_matrix(a_mat)
    (a, j), (b, k) = np.divmod(a_mat.row, n), np.divmod(a_mat.col, n)
    assert (np.abs(k - j) <= 1).all(), "only the block tridiagonal is representable"
    stencil = np.zeros((3, 6, 6))
    stencil[k - j + 1, a, b] = a_mat.data
    assert (blocks_matrix(node_blocks(stencil, n)) != a_mat).nnz == 0, "not one node stencil"
    return op._replace(stencil=stencil)


def with_entry(op, row, col, value):
    """op with the stencil entry of the field-major generator entry
    A[row, col] set to value, written into a copy of its stencil: every
    entry of A with the same fields and node offset changes with it."""
    (a, j), (b, k) = divmod(row, op.n), divmod(col, op.n)
    assert abs(k - j) <= 1, "only the block tridiagonal is representable"
    stencil = op.stencil.copy()
    stencil[k - j + 1, a, b] = value
    return op._replace(stencil=stencil)


def difference_matrices(n, h):
    """The Laplacian and the centered gradient on n nodes, zero ghosts,
    as sparse matrices."""
    off = np.ones(n - 1)
    lap = sp.diags([off, np.full(n, -2.0), off], (-1, 0, 1), format="csr") / (h * h)
    grad = sp.diags([-off, off], (-1, 1), format="csr") / (2.0 * h)
    return lap, grad


def bmat_generator(grid: Grid1D, m, time_sign: int) -> sp.csr_matrix:
    """The generator A of the (time_sign-oriented) system as one sp.bmat
    of 36 blocks; zero coefficients keep their blocks as stored zeros."""
    n, h = grid.n_interior, grid.h
    lap, grad = difference_matrices(n, h)
    eye = sp.identity(n, format="csr")
    s = float(time_sign)
    b = s * m.beta
    p = s * m.varpi_plus_hbar
    hc = s * m.h_cond
    q = s * m.m_rr_rate
    return sp.bmat([
        [None, eye, None, None, None, None],
        [m.m_uu / m.rho * lap, None, None, -b / m.rho * grad, m.m_ur / m.rho * lap, None],
        [None, None, None, eye, None, None],
        [None, -b / m.c_cap * grad, m.k_cond / m.c_cap * lap, hc / m.c_cap * lap, None,
         -p / m.c_cap * grad],
        [None, None, None, None, None, eye],
        [m.m_ur / m.alpha_m * lap, None, None, -p / m.alpha_m * grad,
         m.m_rr / m.alpha_m * lap, q / m.alpha_m * lap],
    ], format="csr")


def kron_form(table: np.ndarray, n: int, h: float) -> sp.csr_matrix:
    """sum_k kron(table[k], S_k) over the stencils h I, -h Lap and h D of
    discrete1d.form_tables."""
    lap, grad = difference_matrices(n, h)
    stencils = (h * sp.identity(n, format="csr"), (-h) * lap, h * grad)
    return sum(sp.kron(t, s, format="csr") for t, s in zip(table, stencils))


def gram_form_values(op, states, forms, midpoints=False) -> np.ndarray:
    """The named forms at every row of states, or at the averages of
    consecutive rows, by the full 6x6 field Gram tensors under the three
    stencils of form_tables contracted with the tables: the oracle of
    discrete1d's kernel, which evaluates only the entries the tables
    hold."""
    n, h = op.n, op.grid.h
    x = np.asarray(states, dtype=float)
    if midpoints:
        x = 0.5 * (x[:-1] + x[1:])
    grams = field_grams(x.reshape(len(x), 6, n), h)
    return np.einsum("skab,fkab->sf", grams, op.forms[[FORMS.index(f) for f in forms]])


def field_grams(x: np.ndarray, h: float) -> np.ndarray:
    """<U_a, S_k U_b> for each state x[s] (six fields of n nodes) and
    each stencil k of form_tables, (len(x), 3, 6, 6)."""
    grams = np.empty((len(x), 3, 6, 6))
    grams[:, 0] = h * (x @ x.transpose(0, 2, 1))
    # jumps over the n-1 inner intervals; those over the two boundary
    # intervals are the first and last values (zero ghosts)
    jumps_t = (x[..., 1:] - x[..., :-1]).transpose(0, 2, 1)
    first = x[:, :, None, 0] * x[:, None, :, 0]
    last = x[:, :, None, -1] * x[:, None, :, -1]
    grams[:, 1] = (jumps_t.transpose(0, 2, 1) @ jumps_t + first + last) / h
    grams[:, 2] = 0.5 * (x[..., :-1] @ jumps_t + x[..., 1:] @ jumps_t + first - last)
    return grams


def form_scale(op, states, forms, midpoints=False) -> np.ndarray:
    """A bound on the magnitude of each form's entries at each row, the
    scale of its rounding: sum_{k,a,b} |T[f, k, a, b]| times a
    Cauchy-Schwarz bound on |<U_a, S_k U_b>|, by the diagonals of the
    positive semidefinite mass and stiffness Grams, and by
    |U_a| |U_b| for the centered gradient (|h D| <= 1)."""
    x = np.asarray(states, dtype=float)
    if midpoints:
        x = 0.5 * (x[:-1] + x[1:])
    grams = field_grams(x.reshape(len(x), 6, op.n), op.grid.h)
    diag = np.sqrt(np.maximum(np.diagonal(grams, axis1=2, axis2=3), 0.0))
    bound = diag[:, :, :, None] * diag[:, :, None, :]
    bound[:, 2] = bound[:, 0] / op.grid.h
    return np.einsum("skab,fkab->sf", bound,
                     np.abs(op.forms[[FORMS.index(f) for f in forms]]))


def product_mirror_blocks(a_mat, n: int) -> list:
    """The mirror-sector blocks P A F of diagnostics.mirror_blocks by
    sparse products: R A R - A must have no nonzero entry (else
    EigenFailure), and each block is the kept rows of A times the fold
    F, whose columns are e_i + s e_mirror(i), or e_i alone for a kept
    middle node.  The oracle of the blocks scattered from the triplets."""
    index = np.arange(6 * n)
    node = index % n
    mirror = index + (n - 1 - 2 * node)
    parity = np.repeat([1.0, 1.0, -1.0, -1.0, 1.0, 1.0], n)
    r_mat = sp.csr_matrix((parity, (index, mirror)), shape=(6 * n, 6 * n))
    if (r_mat @ a_mat @ r_mat - a_mat).count_nonzero():
        raise EigenFailure("generator does not commute with the node reversal")
    blocks = []
    for sign in (parity, -parity):
        keep = np.flatnonzero((index < mirror) | ((index == mirror) & (sign > 0)))
        cols = np.arange(keep.size)
        paired = keep < mirror[keep]
        pair = keep[paired]
        fold = sp.csr_matrix(
            (np.concatenate([np.ones(keep.size), sign[pair]]),
             (np.concatenate([keep, mirror[pair]]), np.concatenate([cols, cols[paired]]))),
            shape=(6 * n, keep.size))
        blocks.append((a_mat[keep] @ fold).toarray())
    return blocks


# ---------------------------------------------------------------------------
# reference formulas: the dispersion's quadratic eigenproblem and its
# determinant polynomial one wavenumber at a time, and the Fourier symbol
# written by hand

# the six permutations of {0,1,2} with their signs
_PERMS = (
    ((0, 1, 2), 1.0), ((1, 2, 0), 1.0), ((2, 0, 1), 1.0),
    ((0, 2, 1), -1.0), ((2, 1, 0), -1.0), ((1, 0, 2), -1.0),
)


def linearized_roots(entry):
    """The eigenvalues of one wavenumber's quadratic eigenproblem
    (m0 + omega m1 + omega^2 m2) v = 0, entry its (power of omega, row,
    col) coefficients, sorted by (real, imag): the first companion
    matrix [[-m1 / (d gamma), -m0 / (d gamma^2)], [I, 0]], d = diag(m2),
    divided part by part, its eigenvalues times gamma = sqrt(max |m0| /
    max |d|) over real and imaginary parts, or 1 where that is 0 or not
    finite.  The oracle of dispersion.quadratic_frequencies."""
    m0, m1, m2 = entry
    d = np.diag(m2).real[:, None]
    gamma = np.sqrt(max(np.abs(m0.real).max(), np.abs(m0.imag).max()) / np.abs(d).max())
    if not 0.0 < gamma < np.inf:
        gamma = 1.0
    a = np.zeros((6, 6), dtype=complex)
    a.real[:3, :3] = -m1.real / d / gamma
    a.imag[:3, :3] = -m1.imag / d / gamma
    a.real[:3, 3:] = -m0.real / d / gamma / gamma
    a.imag[:3, 3:] = -m0.imag / d / gamma / gamma
    a[3:, :3] = np.eye(3)
    roots = gamma * np.linalg.eigvals(a)
    return roots[np.lexsort((roots.imag, roots.real))]


def omega_of_s(s, gamma=1.0):
    """omega = i gamma s, its parts + 0.0 (no -0), sorted by (real,
    imag)."""
    w = 1j * gamma * np.asarray(s, dtype=complex) + 0.0
    return w[np.lexsort((w.imag, w.real))]


def linearized_roots_in_s(entry):
    """linearized_roots in s = -i omega and real arithmetic: the
    coefficients i^p D m_p D^*, D = diag(1, -i, 1), of s^p, which are
    real, their first companion matrix [[-n1 / (d gamma), -n0 / (d
    gamma^2)], [I, 0]], d = diag(n2), and omega = i gamma eig, gamma =
    sqrt(max |n0| / max |d|) or 1.  The oracle of
    dispersion.quadratic_frequencies, bit for bit."""
    d = np.array([1, -1j, 1])
    n = entry * (np.array([1, 1j, -1])[:, None, None] * np.outer(d, d.conj()))
    assert not n.imag.any(), "the similarity leaves an entry complex"
    n0, n1, n2 = n.real
    d = np.diag(n2)[:, None]
    gamma = np.sqrt(np.abs(n0).max() / np.abs(d).max())
    if not 0.0 < gamma < np.inf:
        gamma = 1.0
    a = np.zeros((6, 6))
    a[:3, :3] = -n1 / d / gamma
    a[:3, 3:] = -n0 / d / gamma / gamma
    a[3:, :3] = np.eye(3)
    return omega_of_s(np.linalg.eigvals(a), gamma)


def convolve_det_coefficients(entry):
    """Ascending coefficients of det(M(omega)) for one wavenumber's
    (power of omega, row, col) coefficients, expanded over permutations
    with np.convolve."""
    total = np.zeros(7, dtype=complex)
    for perm, sign in _PERMS:
        prod = np.ones(1, dtype=complex)
        for row, col in enumerate(perm):
            prod = np.convolve(prod, entry[:, row, col])
        total[: len(prod)] += sign * prod
    return total


def sorted_roots(coeffs):
    """np.roots of ascending coefficients scaled by their largest
    magnitude, sorted by (real, imag)."""
    roots = np.roots(coeffs[::-1] / np.abs(coeffs).max())
    return roots[np.lexsort((roots.imag, roots.real))]


def first_order_symbol(m, k_values) -> np.ndarray:
    """6x6 generators of the Fourier modes (d/dx -> ik) in FIELDS order,
    stacked as (n_k, 6, 6), written out by hand from the equations of
    Moduli1D: the oracle of the symbols that dispersion reads from
    generator_table.  The ik entries are i times a real quotient: numpy's
    complex division rounds otherwise."""
    ks = np.asarray(k_values, dtype=float)
    k2 = ks * ks
    p = m.varpi_plus_hbar
    a = np.zeros((len(ks), 6, 6), dtype=complex)
    a[:, [0, 2, 4], [1, 3, 5]] = 1.0
    a[:, 1, 0] = -m.m_uu * k2 / m.rho
    a[:, 1, 3] = 1j * (-m.beta * ks / m.rho)
    a[:, 1, 4] = -m.m_ur * k2 / m.rho
    a[:, 3, 1] = 1j * (-m.beta * ks / m.c_cap)
    a[:, 3, 2] = -m.k_cond * k2 / m.c_cap
    a[:, 3, 3] = -m.h_cond * k2 / m.c_cap
    a[:, 3, 5] = 1j * (-p * ks / m.c_cap)
    a[:, 5, 0] = -m.m_ur * k2 / m.alpha_m
    a[:, 5, 3] = 1j * (-p * ks / m.alpha_m)
    a[:, 5, 4] = -m.m_rr * k2 / m.alpha_m
    a[:, 5, 5] = -m.m_rr_rate * k2 / m.alpha_m
    return a


def first_order_symbol_under_s(m, k_values) -> np.ndarray:
    """S^-1 a S for each symbol a of first_order_symbol, S = diag(1, 1,
    i, i, 1, 1), as the real (n_k, 6, 6) array it is: the ik entries
    coupling theta with v and m become real.  The oracle of
    dispersion._symbols."""
    s = np.array([1, 1, 1j, 1j, 1, 1])
    a = first_order_symbol(m, k_values) * np.outer(s.conj(), s)
    assert not a.imag.any(), "the similarity leaves an entry complex"
    return a.real


def root_set_distance(a, b) -> float:
    """Max pointwise distance between two root multisets of any equal
    size under the least-sum pairing of scipy's linear_sum_assignment:
    the oracle of dispersion.least_pairing, and the judge of root sets
    too large for its 720 pairings, such as a spectrum."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("root sets must be 1-d and equally sized")
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def sequential_branches(m, k_values) -> DispersionResult:
    """dispersion.solve_branches one step at a time: each step's
    prediction from the labelled branches of the last two rows, its
    costs, and least_pairing.  The oracle of the batched matcher."""
    ks = np.asarray(k_values, dtype=float)
    roots = quadratic_frequencies(m, ks)
    # row 0 is omega(0) = 0, the origin of the first step's secant
    k_all = np.concatenate([[0.0], ks])
    omega = np.zeros((len(ks) + 1, 6), dtype=complex)
    omega[1] = roots[0]
    jump = np.zeros(len(ks))
    for i in range(2, len(k_all)):
        cur = roots[i - 1]
        step = k_all[i - 1] - k_all[i - 2]  # zero at a repeated wavenumber: no slope
        slope = np.zeros(6, dtype=complex)
        if step:  # by parts: numpy's complex by real division forms 1/step
            np.divide((omega[i - 1] - omega[i - 2]).view(float), step, out=slope.view(float))
        predicted = omega[i - 1] + slope * (k_all[i] - k_all[i - 1])
        cost = np.abs(predicted[:, None] - cur)
        cols = least_pairing(cost[None])[0]
        omega[i] = cur[cols]
        jump[i - 1] = cost[_SIX, cols].max()
    scale = np.maximum(1.0, np.abs(roots).max(axis=1))
    return DispersionResult(k_values=ks, omega=omega[1:], crossings=jump > _JUMP_FRACTION * scale)


def decay_rates(result: DispersionResult) -> np.ndarray:
    """Temporal amplitude decay of each branch, positive means damped."""
    return -result.omega.imag


def group_speed(result: DispersionResult) -> np.ndarray:
    """d Re(omega) / dk of each branch by np.gradient over the grid."""
    if len(result.k_values) < 2:
        raise ValueError("group speed needs at least two wavenumbers")
    return np.gradient(result.omega.real, result.k_values, axis=0)


# ---------------------------------------------------------------------------
# run oracles


def collect(op, init: np.ndarray, dt, n_steps, every=1) -> np.ndarray:
    """Every kept state of a run, (n_steps // every + 1, 6n): the blocks
    of snapshot_blocks concatenated.  Row j is the state at time
    j * every * dt."""
    return np.concatenate(list(snapshot_blocks(op, init, dt, n_steps, every)))


def other_threads():
    """The threads alive besides the main one: none once a call that
    starts workers has returned or raised."""
    return [t for t in threading.enumerate() if t is not threading.main_thread()]


def overflowing_branches(*args):
    """A stand-in for runner.solve_branches that raises the dispersion's
    RootFailure at a wavenumber whose k^2 overflows, as it would at
    k_max = 1e160, which check rejects: the failing dispersion task that
    a run meets only by this injection."""
    raise RootFailure("the linearization or its roots leave the float range at k = 1e+160")


def trapezoid_balance(table: np.ndarray, dt_snap) -> np.ndarray:
    """E_{k+1} - E_k + dt_snap * (D_k + D_{k+1}) / 2 for an energy table
    (energy_table): the endpoint rates averaged, so the residual carries
    a genuine O(dt^3) term that a refinement study can measure, where
    the midpoint rates of reduce_blocks balance to round-off."""
    return balance_residuals(table, 0.5 * (table[:-1, -1] + table[1:, -1]), dt_snap)


@dataclasses.dataclass(frozen=True)
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


def fit_decay(times: np.ndarray, energies: np.ndarray) -> DecayFit:
    """DecayFit of the energies at the given times; raises ValueError
    for fewer than 10 points, zero initial energy or an energy that
    vanished over the fit window."""
    if len(energies) < 10:
        raise ValueError(f"need at least 10 snapshots, got {len(energies)}")
    if energies[0] <= 0.0:
        raise ValueError("initial energy is zero")
    tail = slice(len(energies) // 2, None)
    ts, es = times[tail], energies[tail]
    good = es > 0.0
    if good.sum() < 2:
        raise ValueError("energy vanished over the fit window")
    ts, es = ts[good], np.log(es[good])
    slope, intercept = np.polyfit(ts, es, 1)
    resid = es - (slope * ts + intercept)
    dof = max(len(ts) - 2, 1)
    denom = float(((ts - ts.mean()) ** 2).sum())
    stderr = math.sqrt(float(resid @ resid) / dof / denom) if denom > 0 else 0.0
    return DecayFit(rate=float(slope),
                    window=(float(slope - 2 * stderr), float(slope + 2 * stderr)),
                    n_points=len(ts))


# ---------------------------------------------------------------------------
# state helpers


def random_state(n: int, rng) -> np.ndarray:
    """A stacked 6n state of standard normal entries."""
    return rng.standard_normal(6 * n)


def fields(x: np.ndarray) -> dict:
    """The six fields of a stacked state x by name: views of x."""
    return dict(zip(FIELDS, x.reshape(6, -1)))


def field_major(x: np.ndarray) -> np.ndarray:
    """The stepper's node-major stacking (the six fields of node 0, then
    those of node 1, ...) back to field-major."""
    return x.reshape(-1, 6).T.ravel()


def sine_init(grid: Grid1D, u_amp=1.0, theta_amp=0.5, theta_mode=2) -> np.ndarray:
    """The stacked state with a sine u of mode 1 and a sine theta, the
    other fields zero."""
    x = grid.nodes
    init = np.zeros((6, grid.n_interior))
    init[FIELDS.index("u")] = u_amp * np.sin(np.pi * x / grid.length)
    init[FIELDS.index("theta")] = theta_amp * np.sin(theta_mode * np.pi * x / grid.length)
    return init.ravel()


def random_valid_material(rng, type3: bool = True) -> MaterialIsotropic:
    """Rejection-sample a material satisfying every hypothesis (strict
    rate coefficients when type3)."""
    while True:
        m = MaterialIsotropic(
            rho=rng.uniform(0.5, 2.0),
            lambda_e=rng.uniform(0.2, 2.0),
            mu_e=rng.uniform(0.2, 2.0),
            beta=rng.uniform(-1.5, 1.5),
            c_cap=rng.uniform(0.5, 2.0),
            alpha_m=rng.uniform(0.5, 2.0),
            gamma1=rng.uniform(-0.3, 0.3),
            gamma2=rng.uniform(-0.3, 0.3),
            k_cond=rng.uniform(0.5, 2.0),
            h_cond=rng.uniform(0.1, 2.0) if type3 else 0.0,
            varpi=rng.uniform(-0.5, 0.5),
            hbar_c=rng.uniform(-0.5, 0.5),
            eta1=rng.uniform(0.2, 1.0),
            eta2=rng.uniform(0.2, 1.0),
            eta3=rng.uniform(0.2, 1.0),
            rho1=rng.uniform(0.05, 1.0) if type3 else 0.0,
            rho2=rng.uniform(0.05, 1.0) if type3 else 0.0,
            rho3=rng.uniform(0.05, 1.0) if type3 else 0.0,
        )
        if validate_isotropic(m).valid:
            return m


# ---------------------------------------------------------------------------
# validation registry: isotropic inequalities

def _mat(**overrides) -> MaterialIsotropic:
    return dataclasses.replace(reference_type3(), **overrides)


# (case id, material, expected report substring); the reference
# materials are the passing fixture for every inequality at once
ISOTROPIC_FAILS = [
    ("rho_nonpositive", _mat(rho=-1.0), "rho > 0 violated"),
    ("c_cap_nonpositive", _mat(c_cap=0.0), "c_cap > 0 violated"),
    ("alpha_m_nonpositive", _mat(alpha_m=-2.0), "alpha_m > 0 violated"),
    ("h_cond_negative", _mat(h_cond=-0.5),
     "condition (ii): h_cond >= 0 violated"),
    ("rate_sum_negative", _mat(rho1=-1.0, rho2=0.0, rho3=0.0),
     "condition (ii): rho1+rho2+rho3 >= 0 violated"),
    ("m_uu_nonpositive", _mat(lambda_e=1.0, mu_e=-1.0),
     "condition (iii): m_uu > 0 violated"),
    ("stiffness_indefinite", _mat(gamma1=2.0),
     "condition (iii): m_uu*m_rr - m_ur^2 > 0 violated"),
    ("k_cond_nonpositive", _mat(k_cond=0.0),
     "condition (iii): k_cond > 0 violated"),
]


# ---------------------------------------------------------------------------
# validation registry: tensor symmetries

def perturbed(tensors, name: str, entries):
    """Copy one tensor and add deltas at the given index tuples."""
    arr = np.array(getattr(tensors, name))
    for idx, delta in entries:
        arr[idx] += delta
    return dataclasses.replace(tensors, **{name: arr})


def _clean():
    return isotropic_embedding(reference_type3())


def _pair_break(name):
    # one slot only: breaks ijkl = jikl (and incidentally the major one)
    return perturbed(_clean(), name, [((0, 1, 0, 2), 1e-3)])


def _major_break(name):
    # symmetric double perturbation keeps ijkl = jikl, breaks ijkl = klij
    return perturbed(_clean(), name, [((0, 1, 0, 2), 1e-3), ((1, 0, 0, 2), 1e-3)])


def _rank2_break(name):
    return perturbed(_clean(), name, [((0, 1), 1e-3)])


SYMMETRY_FAILS = (
    [(f"{name}_pair", _pair_break(name), f"{name} symmetry ijkl = jikl")
     for name in ("elasticity", "micro_coupling", "micro_stiffness")]
    + [(f"{name}_major", _major_break(name), f"{name} symmetry ijkl = klij")
       for name in ("elasticity", "micro_coupling", "micro_stiffness",
                    "micro_stiffness_rate")]
    + [(f"{name}_rank2", _rank2_break(name), f"{name} symmetry ij = ji")
       for name in ("thermal_coupling", "entropy_micro", "micro_inertia",
                    "thermal_micro", "conductivity", "conductivity_rate")]
    + [("micro_inertia_indefinite",
        dataclasses.replace(_clean(), micro_inertia=np.diag([1.0, 1.0, -1.0])),
        "micro_inertia not positive definite")]
)
