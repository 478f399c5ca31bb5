"""Plane-wave dispersion for the coupled displacement/thermal/microthermal
system on the whole line.

Ansatz exp(i(k x - omega t)) with k > 0 real; temporal decay therefore
means Im(omega) < 0.  For each k the frequencies are the six roots of
det(M(omega; k)) = 0, M quadratic in omega.  Every function takes a
grid of n_k wavenumbers and returns (n_k, ...) arrays, frequencies as
(n_k, 6) rows sorted by (real, imag).  Two independent routes, each
one stacked real eigensolve in s = -i omega, are kept side by side:

* the (n_k, 6, 6) scaled first companion linearizations of D M(i s) D^*,
  D = diag(1, -i, 1), M the hand-written characteristic_matrix;
* the (n_k, 6, 6) Fourier symbols (d/dx -> ik) S^-1 A(k) S, S = diag(1,
  1, i, i, 1, 1), of the generator the stepper runs (generator_table).

Each similarity multiplies entries by 1, -1, i or -i, exactly, and
leaves them real; an entry it leaves complex raises RootFailure.
Agreement of the two root sets is a correctness certificate, so neither
route is ever expressed in terms of the other, and it is the one check
of each root: a wrong coefficient in the stepper's table or in
characteristic_matrix shows as a disagreement.  Root sets are compared,
and branches followed from one wavenumber to the next, through the
least-sum pairing of six roots (least_pairing), exact over all 720
pairings.  Conservative moduli yield real frequencies with
k-independent phase speeds; rate terms bend the roots into the lower
half plane.
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
# wavenumbers per block of the stacked evaluations and of the branch
# matcher's pairings, whose temporaries would otherwise grow with the
# grid (README); no result depends on the block size
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


def _real(z: np.ndarray, units: np.ndarray, name: str) -> np.ndarray:
    """z * units (each 1, -1, i or -i: exact) as reals, or RootFailure."""
    z = z * units
    if ((z.imag != 0) & np.isfinite(z)).any():
        raise RootFailure(f"{name} has an entry that its route's similarity leaves complex")
    return z.real


def _omega(s: np.ndarray, scale=1.0) -> np.ndarray:
    """omega = i scale s, sorted rows, its parts + 0.0: no -0 is written."""
    w = s * (1j * scale) + 0.0
    return np.take_along_axis(w, np.lexsort((w.imag, w.real), axis=-1), axis=-1)


def quadratic_frequencies(m: Moduli1D, k_values) -> np.ndarray:
    """The roots of det(M(omega)) = 0, (n_k, 6), sorted rows: omega = i
    gamma mu, mu the eigenvalues of [[-n1 / (d gamma), -n0 / (d
    gamma^2)], [I, 0]], the first companion of n0 + s n1 + s^2 n2 = D
    M(i s) D^*, d = diag(n2), gamma = sqrt(max |n0| / max |d|) or 1 where
    0 or not finite (Fan, Lin & Van Dooren, SIAM J. Matrix Anal. Appl.
    26(1), 2004).  Raises RootFailure at the first wavenumber whose
    linearization or roots leave the float range (k^2 overflows from k
    of about 1.3e154).  _K_BLOCK wavenumbers at a time."""
    return _blockwise(lambda ks: _quadratic_block(m, ks), _wavenumbers(k_values))


def _quadratic_block(m: Moduli1D, ks: np.ndarray) -> np.ndarray:
    # a row out of float range gets a stand-in, and is named below
    with np.errstate(all="ignore"):
        dg = np.array([1, -1j, 1])  # D; n_p = i^p D m_p D^*, the coefficient of s^p
        c = _real(characteristic_matrix(m, ks), np.array([1, 1j, -1])[:, None, None]
                  * np.outer(dg, dg.conj()), "characteristic_matrix")
        d = -c[0, 2].diagonal()[:, None]  # -diag(n2), one row each
        gamma = np.sqrt(np.abs(c[:, 0]).max(axis=(1, 2)) / np.abs(d).max())
        gamma[~((gamma > 0) & (gamma < np.inf))] = 1.0
        a = np.zeros((len(ks), 6, 6))
        top = a[:, :3]
        np.divide(c[:, 1], d, out=top[:, :, :3])
        np.divide(c[:, 0], d, out=top[:, :, 3:])
        top /= gamma[:, None, None]
        top[:, :, 3:] /= gamma[:, None, None]
        a[:, range(3, 6), range(3)] = 1.0
        finite = np.isfinite(top).all(axis=(1, 2))
        a[~finite] = 0.0
        roots = _omega(np.linalg.eigvals(a), gamma[:, None])
        finite &= np.isfinite(roots).all(axis=1)
    if not finite.all():
        raise RootFailure("the linearization or its roots leave the float range "
                          f"at k = {float(ks[np.argmin(finite)])}")
    return roots


def _symbols(m: Moduli1D, k_values) -> np.ndarray:
    """The Fourier modes' (d/dx -> ik) generators S^-1 A(k) S, stacked as
    real (n_k, 6, 6) in FIELDS order: the stepper's generator_table(m,
    +1) contracted with the continuum symbols (1, -k^2, ik) of its
    identity, Laplacian and gradient, ik T[grad] made -+k T[grad]."""
    ks = _wavenumbers(k_values)[:, None, None]
    s = np.array([1, 1, 1j, 1j, 1, 1])
    t = _real(generator_table(m, +1), np.array([1, 1, 1j])[:, None, None]
              * np.outer(s.conj(), s), "generator_table")
    a = np.multiply(ks * ks, -t[1])
    a += t[0]
    a += ks * t[2]
    return a


def symbol_frequencies(m: Moduli1D, k_values) -> np.ndarray:
    """Frequencies via the Fourier symbols, omega = i eig(_symbols), as
    (n_k, 6), rows sorted by (real, imag), _K_BLOCK wavenumbers at a time."""
    return _blockwise(lambda ks: _omega(np.linalg.eigvals(_symbols(m, ks))),
                      _wavenumbers(k_values))


def least_pairing(cost: np.ndarray) -> np.ndarray:
    """For each (6, 6) cost matrix of an (n, 6, 6) stack, the columns
    cols (n, 6) that pair row j with column cols[:, j] at the least total
    cost, ties to the first such pairing in lexicographic order: the
    row-wise argmin where it is a permutation (the row minima bound every
    pairing's sum), else the least sum of the 720 pairings."""
    cols = cost.argmin(axis=2)
    for i, row in enumerate(cols.tolist()):
        if len(set(row)) < 6:
            cols[i] = _PAIRINGS[cost[i, _SIX, _PAIRINGS].sum(axis=1).argmin()]
    return cols


def root_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per row of two (n_k, 6) root arrays, the largest distance between
    paired roots under least_pairing, never by sorted order (unstable
    where real parts tie to round-off), _K_BLOCK rows at a time."""
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
    new roots with a linear extrapolation of the branches, through
    omega(0) = 0 at the first step (a flat one would tie type2's
    k-independent phase speeds), by least_pairing.  Steps are paired a
    block at a time on the sorted roots while the branches keep their
    sorted positions, else one at a time, bit for bit alike.
    crossings[i] is True when the best match at step i still deviated
    from the prediction by more than a tenth of the frequency scale:
    labels may have swapped there (5 of the type3 reference's 16).
    """

    k_values: np.ndarray
    omega: np.ndarray
    crossings: np.ndarray

    @property
    def phase_speed(self) -> np.ndarray:
        return self.omega.real / self.k_values[:, None]


def _costs(r: np.ndarray, k: np.ndarray) -> np.ndarray:
    """The (n, 6, 6) costs |predicted - r[2:]| of n steps: branches r[:-2]
    and r[1:-1], at k[:-2] and k[1:-1], extrapolated to k[2:]."""
    step = (k[1:-1] - k[:-2])[:, None]  # zero at a repeated wavenumber: no slope
    slope = np.zeros(r[1:-1].shape, dtype=complex)
    # by parts: numpy's complex by real division forms 1/step
    np.divide((r[1:-1] - r[:-2]).view(float), step, out=slope.view(float), where=step != 0)
    predicted = r[1:-1] + slope * (k[2:] - k[1:-1])[:, None]
    return np.abs(predicted[:, :, None] - r[2:, None, :])


def solve_branches(m: Moduli1D, k_values) -> DispersionResult:
    ks = _wavenumbers(k_values)
    # row 0 is omega(0) = 0, the origin of the first step's secant; omega[i]
    # is rows[i, labels], and kept: the last two rows share their labels
    k_all = np.concatenate([[0.0], ks])
    rows = np.concatenate([np.zeros((1, 6), dtype=complex), quadratic_frequencies(m, ks)])
    omega, jump = rows.copy(), np.zeros(len(ks))
    labels, kept = _SIX, True
    for start in range(2, len(rows), _K_BLOCK):
        stop = min(start + _K_BLOCK, len(rows))
        # the block's costs on the sorted rows: each step's own, rows
        # permuted by labels, where its last two rows share them
        cost = _costs(rows[start - 2:stop], k_all[start - 2:stop])
        cols = cost.argmin(axis=2)
        jump[start - 1:stop - 1] = np.take_along_axis(cost, cols[..., None], 2).max(axis=(1, 2))
        moved = iter((np.flatnonzero((cols != _SIX).any(axis=1)) + start).tolist())
        i = start
        while i < stop:
            if kept:  # the batched pairings, up to the next step off the sorted order
                end = next((j for j in moved if j >= i), stop)
                omega[i:end] = rows[i:end, labels]
                if end == stop:
                    break
                i = end
            if kept and len(set(cols[i - start].tolist())) == 6:
                new = cols[i - start][labels]
            else:  # the step on the labelled branches
                cost = _costs(np.concatenate([omega[i - 2:i], rows[i:i + 1]]), k_all[i - 2:i + 1])
                new = least_pairing(cost)[0]
                jump[i - 1] = cost[0, _SIX, new].max()
            omega[i] = rows[i, new]
            kept, labels = np.array_equal(new, labels), new
            i += 1
    scale = np.maximum(1.0, np.abs(rows[1:]).max(axis=1))
    return DispersionResult(k_values=ks, omega=omega[1:],
                            crossings=jump > _JUMP_FRACTION * scale)
