"""Plane-wave dispersion for the coupled displacement/thermal/microthermal
system on the whole line.

Ansatz exp(i(k x - omega t)) with k > 0 real; temporal decay therefore
means Im(omega) < 0.  For each k the admissible frequencies are the six
roots of det(M(omega; k)) = 0 where M is quadratic in omega.  Every
function takes a grid of n_k wavenumbers at once and returns (n_k, ...)
arrays; frequencies come as (n_k, 6), rows sorted by (real, imag).  Two
independent routes, each one stacked eigensolve, are kept side by side:

* the (n_k, 6, 6) companion matrices of the degree-6 polynomial
  assembled by permutation expansion of the determinant of
  characteristic_matrix, written by hand from the second-order
  equations;
* the (n_k, 6, 6) Fourier symbols (d/dx -> ik) of the generator the
  stepper runs, read from discrete1d.generator_table, whose
  eigenvalues s map through omega = i s.

Agreement of the two root sets is a correctness certificate, so neither
route is ever expressed in terms of the other, and a wrong coefficient
in the stepper's table shows as a disagreement.  Root sets are compared,
and branches followed from one wavenumber to the next, through the
least-sum pairing of six roots (least_pairing), exact over all 720
pairings and vectorized over the grid.  Conservative moduli
yield real frequencies (no temporal decay) with k-independent phase
speeds; rate terms bend the roots into the lower half plane.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .discrete1d import generator_table
from .errors import RootFailure
from .material import Moduli1D

__all__ = [
    "DispersionResult",
    "characteristic_matrix",
    "symbol_frequencies",
    "solve_branches",
]

_RESIDUAL_TOL = 1e-8   # relative to the magnitude-weighted coefficient scale
_JUMP_FRACTION = 0.1   # branch jump above this fraction of the scale flags a crossing
# wavenumbers per block of the stacked evaluations (polynomial_frequencies,
# symbol_frequencies, root_distances): their (n_k, 6, 6) temporaries of
# 576 B a wavenumber would otherwise grow with the grid, and the runner
# computes them while the dense spectrum's sector blocks are alive on
# its worker threads (n = 256 spectrum and 4000 wavenumbers: 94.3 MiB
# peak RSS with the grid whole, 90.4-90.7 in blocks of 512, 88.5-88.9
# with the tasks one after the other).  Every row is computed on its own,
# so the results do not depend on the block size
_K_BLOCK = 512

# the six permutations of {0,1,2} with their signs
_PERMS = (
    ((0, 1, 2), 1.0), ((1, 2, 0), 1.0), ((2, 0, 1), 1.0),
    ((0, 2, 1), -1.0), ((2, 1, 0), -1.0), ((1, 0, 2), -1.0),
)
# the 720 pairings of six roots, in lexicographic order
_PAIRINGS = np.array(list(itertools.permutations(range(6))))
_SIX = np.arange(6)


def _wavenumbers(k_values) -> np.ndarray:
    ks = np.asarray(k_values, dtype=float)
    if ks.ndim != 1 or len(ks) == 0:
        raise ValueError("k_values must be a nonempty 1-d array")
    if not (ks > 0).all():
        raise ValueError("all wavenumbers must be positive")
    return ks


def characteristic_matrix(m: Moduli1D, k_values) -> np.ndarray:
    """M(omega) = m0 + omega m1 + omega^2 m2 per wavenumber, stacked as
    (n_k, 3, 3, 3): (wavenumber, power of omega, row, col)."""
    ks = _wavenumbers(k_values)
    k2 = ks * ks
    p = m.varpi_plus_hbar
    c = np.zeros((len(ks), 3, 3, 3), dtype=complex)
    c[:, 0, 0, 0] = -m.m_uu * k2
    c[:, 0, 0, 2] = -m.m_ur * k2
    c[:, 0, 1, 1] = m.k_cond * k2
    c[:, 0, 2, 0] = m.m_ur * k2
    c[:, 0, 2, 2] = m.m_rr * k2
    c[:, 1, 0, 1] = -m.beta * ks
    c[:, 1, 1, 0] = m.beta * ks
    c[:, 1, 1, 1] = -1j * m.h_cond * k2
    c[:, 1, 1, 2] = c[:, 1, 2, 1] = p * ks
    c[:, 1, 2, 2] = -1j * m.m_rr_rate * k2
    c[:, 2] = np.diag([m.rho, -m.c_cap, -m.alpha_m])
    return c


def _convolve_rows(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise np.convolve(a[i], v[i]), bit for bit: each coefficient is
    np.convolve's complex BLAS dot (longer operand first), as one stacked
    matmul on contiguous operands; strided ones would leave BLAS."""
    if v.shape[1] > a.shape[1]:
        a, v = v, a
    n1, n2 = a.shape[1], v.shape[1]
    rev = v[:, ::-1]
    out = np.empty((len(a), n1 + n2 - 1), dtype=complex)
    for t in range(n1 + n2 - 1):
        lo, hi = max(0, t - n2 + 1), min(t, n1 - 1) + 1
        x = np.ascontiguousarray(a[:, lo:hi])[:, None, :]
        y = np.ascontiguousarray(rev[:, n2 - 1 - t + lo:n2 - 1 - t + hi])[:, :, None]
        out[:, t] = (x @ y)[:, 0, 0]
    return out


def det_coefficients(m: Moduli1D, k_values) -> np.ndarray:
    """Ascending coefficients of det(M(omega)), degree 6, as (n_k, 7):
    permutation expansion with per-entry quadratics multiplied as
    polynomials, no matrix inversions, so exact up to round-off."""
    entry = characteristic_matrix(m, k_values)
    n_k = len(entry)
    # the six permutations' products stacked along rows, one factor at a time
    prod = np.ones((6 * n_k, 1), dtype=complex)
    for row in range(3):
        prod = _convolve_rows(prod, np.concatenate([entry[:, :, row, p[row]] for p, _ in _PERMS]))
    total = np.zeros((n_k, 7), dtype=complex)
    for (_, sign), part in zip(_PERMS, prod.reshape(6, n_k, 7)):
        total += sign * part
    return total


def _horner(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Each row's ascending polynomial at that row's points, by Horner."""
    y = np.zeros_like(x)
    for c in coeffs[:, ::-1].T:
        y = y * x + c[:, None]
    return y


def _blockwise(fn, *rows) -> np.ndarray:
    """fn of consecutive _K_BLOCK-row slices of the arrays rows, in
    order, the results concatenated; an error raised for one block
    leaves the later blocks unevaluated."""
    return np.concatenate([fn(*(a[i:i + _K_BLOCK] for a in rows))
                           for i in range(0, max(len(rows[0]), 1), _K_BLOCK)])


def _sorted(freqs: np.ndarray) -> np.ndarray:
    order = np.lexsort((freqs.imag, freqs.real), axis=-1)
    return np.take_along_axis(freqs, order, axis=-1)


def polynomial_frequencies(m: Moduli1D, k_values) -> np.ndarray:
    """The determinant polynomial's roots, (n_k, 6), rows sorted by
    (real, imag).  Raises RootFailure at the first wavenumber whose
    coefficients, companion or residuals leave the float range (too
    large for this route) or whose root misses the residual guard.
    The grid is solved _K_BLOCK wavenumbers at a time."""
    return _blockwise(lambda ks: _polynomial_block(m, ks), _wavenumbers(k_values))


def _polynomial_block(m: Moduli1D, ks: np.ndarray) -> np.ndarray:
    # companions as the one-polynomial root finder builds them, of the
    # max-scaled coefficients; a row out of float range gets a stand-in
    with np.errstate(all="ignore"):
        coeffs = det_coefficients(m, ks)
        p = coeffs[:, ::-1] / np.abs(coeffs).max(axis=1, keepdims=True)
        top = -p[:, 1:] / p[:, :1]
    finite = np.isfinite(top).all(axis=1)
    companion = np.zeros((len(ks), 6, 6), dtype=complex)
    companion[:, 0, :] = np.where(finite[:, None], top, 0.0)
    companion[:, range(1, 6), range(5)] = 1.0
    roots = np.linalg.eigvals(companion)
    # certify every root against the full polynomial, weighting by
    # coefficient magnitudes so the guard is scale-free
    with np.errstate(over="ignore", invalid="ignore"):
        value = np.abs(_horner(coeffs, roots))
        bound = _horner(np.abs(coeffs), np.abs(roots))
    bad = ~((value <= _RESIDUAL_TOL * bound) & (_RESIDUAL_TOL * bound < np.inf))
    failed = ~finite | bad.any(axis=1)
    if failed.any():
        i = int(np.argmax(failed))
        if not finite[i]:
            raise RootFailure(
                f"determinant coefficients leave the float range at k = {float(ks[i])}")
        j = int(np.argmax(bad[i]))
        raise RootFailure(
            f"root residual {value[i, j]:.3e} exceeds {_RESIDUAL_TOL:.0e} "
            f"* {bound[i, j]:.3e} at k = {float(ks[i])}")
    return _sorted(roots)


def _symbols(m: Moduli1D, k_values) -> np.ndarray:
    """Generators of the Fourier modes (d/dx -> ik), stacked as (n_k, 6,
    6) in FIELDS order: the stepper's generator_table(m, +1) contracted
    with the continuum symbols (1, -k^2, ik) of its identity, Laplacian
    and gradient, real and imaginary parts written in place."""
    ks = _wavenumbers(k_values)[:, None, None]
    t = generator_table(m, +1)
    a = np.empty((len(ks), 6, 6), dtype=complex)
    np.multiply(ks * ks, -t[1], out=a.real)
    np.add(a.real, t[0], out=a.real)
    np.multiply(ks, t[2], out=a.imag)
    return a


def symbol_frequencies(m: Moduli1D, k_values) -> np.ndarray:
    """Frequencies via the Fourier symbols, omega = i * eig(A(k)), as
    (n_k, 6), each row sorted by (real, imag), _K_BLOCK wavenumbers at a
    time."""
    return _blockwise(lambda ks: _sorted(1j * np.linalg.eigvals(_symbols(m, ks))),
                      _wavenumbers(k_values))


def least_pairing(cost: np.ndarray) -> np.ndarray:
    """For each (6, 6) cost matrix of an (n, 6, 6) stack, the columns
    cols (n, 6) that pair row j with column cols[:, j] at the least total
    cost, ties going to the first least-sum pairing in lexicographic
    order.  The row-wise argmin is that pairing whenever it is a
    permutation, the sum of the row minima bounding every pairing from
    below; otherwise the 720 pairings are summed and the least taken.
    """
    cols = cost.argmin(axis=2)
    for i, row in enumerate(cols.tolist()):
        if len(set(row)) < 6:
            cols[i] = _PAIRINGS[cost[i, _SIX, _PAIRINGS].sum(axis=1).argmin()]
    return cols


def root_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per row of two (n_k, 6) root arrays, the largest distance between
    paired roots under the least-sum pairing (least_pairing).  Sorting
    complex roots is not stable when real parts coincide to round-off,
    so set equivalence is judged through a pairing, never through sorted
    order.  The rows are paired _K_BLOCK at a time."""
    return _blockwise(_paired_distances, a, b)


def _paired_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    cost = np.abs(a[:, :, None] - b[:, None, :])
    cols = least_pairing(cost)
    return np.take_along_axis(cost, cols[:, :, None], axis=2).max(axis=(1, 2))


@dataclass(frozen=True)
class DispersionResult:
    """Matched frequency branches over a wavenumber grid.

    omega has shape (n_k, 6), branch j (dispersion.csv's branch_index)
    continuous in k only where crossings is False: each step pairs the
    new roots with a linear extrapolation of the branches at the least
    total distance (least_pairing, ties to the first pairing in
    lexicographic order), so smooth advection is not mistaken for
    relabeling.  Every root vanishes with k, so the first step
    extrapolates along the secant through omega(0) = 0; a flat first
    prediction would tie every same-sign pairing of k-independent phase
    speeds (type2) and leave the labels to the tie rule.  crossings[i] is
    True when the best match at step i still deviated from the
    prediction by more than a tenth of the frequency scale, i.e. labels
    may have swapped there (5 of the type3 reference's 16 wavenumbers).
    """

    k_values: np.ndarray
    omega: np.ndarray
    crossings: np.ndarray

    @property
    def phase_speed(self) -> np.ndarray:
        return self.omega.real / self.k_values[:, None]

    @property
    def decay_rates(self) -> np.ndarray:
        """Temporal amplitude decay, positive means damped."""
        return -self.omega.imag

    def group_speed(self) -> np.ndarray:
        if len(self.k_values) < 2:
            raise ValueError("group speed needs at least two wavenumbers")
        return np.gradient(self.omega.real, self.k_values, axis=0)


def solve_branches(m: Moduli1D, k_values) -> DispersionResult:
    ks = _wavenumbers(k_values)
    roots = polynomial_frequencies(m, ks)

    # row 0 is omega(0) = 0, the origin of the first step's secant
    k_all = np.concatenate([[0.0], ks])
    omega = np.zeros((len(ks) + 1, 6), dtype=complex)
    omega[1] = roots[0]
    jump = np.zeros(len(ks))
    for i in range(2, len(k_all)):
        cur = roots[i - 1]
        step = k_all[i - 1] - k_all[i - 2]  # zero at a repeated wavenumber: no slope
        slope = (omega[i - 1] - omega[i - 2]) / step if step else 0.0
        predicted = omega[i - 1] + slope * (k_all[i] - k_all[i - 1])
        cost = np.abs(predicted[:, None] - cur)
        cols = least_pairing(cost[None])[0]
        omega[i] = cur[cols]
        jump[i - 1] = cost[_SIX, cols].max()
    scale = np.maximum(1.0, np.abs(roots).max(axis=1))
    return DispersionResult(k_values=ks, omega=omega[1:],
                            crossings=jump > _JUMP_FRACTION * scale)
