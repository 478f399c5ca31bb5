"""Plane-wave dispersion for the coupled displacement/thermal/microthermal
system on the whole line.

Ansatz exp(i(k x - omega t)) with k > 0 real; temporal decay therefore
means Im(omega) < 0.  For each k the admissible frequencies are the six
roots of det(M(omega; k)) = 0 where M is quadratic in omega.  Every
function takes a grid of n_k wavenumbers at once and returns (n_k, ...)
arrays; frequencies come as (n_k, 6), rows sorted by (real, imag).  Two
independent routes, each one stacked eigensolve, are kept side by side:

* the (n_k, 6, 6) scaled first companion linearizations of the
  quadratic eigenproblem M(omega) v = 0, M from characteristic_matrix,
  written by hand from the second-order equations;
* the (n_k, 6, 6) Fourier symbols (d/dx -> ik) of the generator the
  stepper runs, read from discrete1d.generator_table, whose
  eigenvalues s map through omega = i s.

Agreement of the two root sets is a correctness certificate, so neither
route is ever expressed in terms of the other, and it is the one check
of each root: a wrong coefficient in the stepper's table or in
characteristic_matrix shows as a disagreement.  Root sets are compared,
and branches followed from one wavenumber to the next, through the
least-sum pairing of six roots (least_pairing), exact over all 720
pairings and vectorized over the grid.  Conservative moduli yield real
frequencies (no temporal decay) with k-independent phase speeds; rate
terms bend the roots into the lower half plane.
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

_JUMP_FRACTION = 0.1   # branch jump above this fraction of the scale flags a crossing
# wavenumbers per block of the stacked evaluations (quadratic_frequencies,
# symbol_frequencies, root_distances): their (n_k, 6, 6) temporaries of
# 576 B a wavenumber would otherwise grow with the grid, and the runner
# computes them while the dense spectrum's sector blocks are alive on
# its worker threads (n = 256 spectrum and 4000 wavenumbers, a CLI run's
# ru_maxrss: 57.3-57.7 MiB with the grid whole, 54.0-55.1 in blocks of
# 512, 51.6-52.2 with the tasks one after the other).  Every row is
# computed on its own, so the results do not depend on the block size
_K_BLOCK = 512

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


def _blockwise(fn, *rows) -> np.ndarray:
    """fn of consecutive _K_BLOCK-row slices of the arrays rows, in
    order, the results concatenated; an error raised for one block
    leaves the later blocks unevaluated."""
    return np.concatenate([fn(*(a[i:i + _K_BLOCK] for a in rows))
                           for i in range(0, max(len(rows[0]), 1), _K_BLOCK)])


def _sorted(freqs: np.ndarray) -> np.ndarray:
    order = np.lexsort((freqs.imag, freqs.real), axis=-1)
    return np.take_along_axis(freqs, order, axis=-1)


def quadratic_frequencies(m: Moduli1D, k_values) -> np.ndarray:
    """The roots of det(M(omega)) = 0, (n_k, 6), rows sorted by (real,
    imag): the eigenvalues mu of the first companion linearization
    [[-m1 / (d gamma), -m0 / (d gamma^2)], [I, 0]] of characteristic_matrix,
    d = diag(m2), times gamma = sqrt(|m0| / |m2|) (largest real or
    imaginary part; 1 where 0 or not finite), so that mu is of order one
    at every k (Fan, Lin & Van Dooren, SIAM J. Matrix Anal. Appl. 26(1),
    2004).  Raises RootFailure at the first wavenumber whose
    linearization or roots leave the float range (k^2 overflows from k
    of about 1.3e154).  _K_BLOCK wavenumbers at a time."""
    return _blockwise(lambda ks: _quadratic_block(m, ks), _wavenumbers(k_values))


def _quadratic_block(m: Moduli1D, ks: np.ndarray) -> np.ndarray:
    # a row out of float range gets a stand-in, and is named below
    with np.errstate(all="ignore"):
        c = characteristic_matrix(m, ks)
        d = -c[0, 2].diagonal().real[:, None]  # -diag(m2), one row each
        # float views, real and imaginary parts side by side: divided as
        # reals, since numpy's complex by real division forms 1/d
        m0, m1 = c[:, 0].view(float), c[:, 1].view(float)
        gamma = np.sqrt(np.abs(m0).max(axis=(1, 2)) / np.abs(d).max())
        gamma[~((gamma > 0) & (gamma < np.inf))] = 1.0
        g = gamma[:, None, None]
        a = np.zeros((len(ks), 6, 6), dtype=complex)
        top = a[:, :3].view(float)
        np.divide(m1, d, out=top[:, :, :6])
        np.divide(m0, d, out=top[:, :, 6:])
        top /= g
        top[:, :, 6:] /= g
        a[:, range(3, 6), range(3)] = 1.0
        finite = np.isfinite(top).all(axis=(1, 2))
        a[~finite] = 0.0
        roots = gamma[:, None] * np.linalg.eigvals(a)
        finite &= np.isfinite(roots).all(axis=1)
    if not finite.all():
        raise RootFailure("the linearization or its roots leave the float range "
                          f"at k = {float(ks[np.argmin(finite)])}")
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
    return DispersionResult(k_values=ks, omega=omega[1:],
                            crossings=jump > _JUMP_FRACTION * scale)
