"""Plane-wave dispersion for the coupled displacement/thermal/microthermal
system on the whole line.

Ansatz exp(i(k x - omega t)) with k > 0 real; temporal decay therefore
means Im(omega) < 0.  For each k the admissible frequencies are the six
roots of det(M(omega; k)) = 0 where M is quadratic in omega.  Two
independent routes to those roots are kept side by side:

* a degree-6 polynomial assembled by permutation expansion of the
  determinant, solved with the companion-matrix root finder;
* the eigenvalues s of the 6x6 first-order symbol (d/dx -> ik), mapped
  through omega = i s.

Agreement of the two root sets is a correctness certificate, so neither
route is ever expressed in terms of the other.  Conservative moduli
yield real frequencies (no temporal decay) with k-independent phase
speeds; rate terms bend the roots into the lower half plane.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import RootFailure
from .material import Moduli1D

__all__ = [
    "CharacteristicMatrix",
    "DispersionResult",
    "characteristic_matrix",
    "first_order_symbol",
    "symbol_frequencies",
    "root_set_distance",
    "solve_branches",
]

_RESIDUAL_TOL = 1e-8   # relative to the magnitude-weighted coefficient scale
_JUMP_FRACTION = 0.1   # branch jump above this fraction of the scale flags a crossing

# the six permutations of {0,1,2} with their signs
_PERMS = (
    ((0, 1, 2), 1.0), ((1, 2, 0), 1.0), ((2, 0, 1), 1.0),
    ((0, 2, 1), -1.0), ((2, 1, 0), -1.0), ((1, 0, 2), -1.0),
)


@dataclass(frozen=True)
class CharacteristicMatrix:
    """M(omega) = m0 + omega m1 + omega^2 m2 for one wavenumber."""

    k: float
    m0: np.ndarray
    m1: np.ndarray
    m2: np.ndarray

    def __call__(self, omega: complex) -> np.ndarray:
        return self.m0 + omega * self.m1 + omega * omega * self.m2

    def det_coefficients(self) -> np.ndarray:
        """Ascending coefficients of det(M(omega)), degree 6.

        Permutation expansion with per-entry quadratics multiplied as
        polynomials; no intermediate matrix inversions, so the result
        is exact up to round-off in the coefficient arithmetic.
        """
        entry = np.stack((self.m0, self.m1, self.m2))  # (coeff, row, col)
        total = np.zeros(7, dtype=complex)
        for perm, sign in _PERMS:
            prod = np.ones(1, dtype=complex)
            for row, col in enumerate(perm):
                prod = np.convolve(prod, entry[:, row, col])
            total[: len(prod)] += sign * prod
        return total

    def roots(self) -> np.ndarray:
        """Six frequencies, sorted by (real, imag); residual-guarded."""
        coeffs = self.det_coefficients()
        scale = np.abs(coeffs).max()
        roots = np.roots(coeffs[::-1] / scale)
        # certify every root against the full polynomial, weighting by
        # coefficient magnitudes so the guard is scale-free
        mags = np.abs(coeffs)
        for w in roots:
            value = abs(np.polyval(coeffs[::-1], w))
            bound = float(np.polyval(mags[::-1], abs(w)))
            if value > _RESIDUAL_TOL * bound:
                raise RootFailure(
                    f"root residual {value:.3e} exceeds {_RESIDUAL_TOL:.0e} "
                    f"* {bound:.3e} at k = {self.k}"
                )
        order = np.lexsort((roots.imag, roots.real))
        return roots[order]


def characteristic_matrix(m: Moduli1D, k: float) -> CharacteristicMatrix:
    k = float(k)
    if not k > 0:
        raise ValueError(f"wavenumber must be positive, got {k}")
    k2 = k * k
    p = m.varpi_plus_hbar
    m0 = np.array([
        [-m.m_uu * k2, 0.0, -m.m_ur * k2],
        [0.0, m.k_cond * k2, 0.0],
        [m.m_ur * k2, 0.0, m.m_rr * k2],
    ], dtype=complex)
    m1 = np.array([
        [0.0, -m.beta * k, 0.0],
        [m.beta * k, -1j * m.h_cond * k2, p * k],
        [0.0, p * k, -1j * m.m_rr_rate * k2],
    ], dtype=complex)
    m2 = np.array([
        [m.rho, 0.0, 0.0],
        [0.0, -m.c_cap, 0.0],
        [0.0, 0.0, -m.alpha_m],
    ], dtype=complex)
    return CharacteristicMatrix(k=k, m0=m0, m1=m1, m2=m2)


def first_order_symbol(m: Moduli1D, k: float) -> np.ndarray:
    """6x6 generator of the Fourier mode (d/dx -> ik) in the order
    (u, v, tau, theta, R, M)."""
    k = float(k)
    if not k > 0:
        raise ValueError(f"wavenumber must be positive, got {k}")
    ik = 1j * k
    k2 = k * k
    p = m.varpi_plus_hbar
    a = np.zeros((6, 6), dtype=complex)
    a[0, 1] = 1.0
    a[2, 3] = 1.0
    a[4, 5] = 1.0
    a[1, 0] = -m.m_uu * k2 / m.rho
    a[1, 3] = -m.beta * ik / m.rho
    a[1, 4] = -m.m_ur * k2 / m.rho
    a[3, 1] = -m.beta * ik / m.c_cap
    a[3, 2] = -m.k_cond * k2 / m.c_cap
    a[3, 3] = -m.h_cond * k2 / m.c_cap
    a[3, 5] = -p * ik / m.c_cap
    a[5, 0] = -m.m_ur * k2 / m.alpha_m
    a[5, 3] = -p * ik / m.alpha_m
    a[5, 4] = -m.m_rr * k2 / m.alpha_m
    a[5, 5] = -m.m_rr_rate * k2 / m.alpha_m
    return a


def symbol_frequencies(m: Moduli1D, k: float) -> np.ndarray:
    """Frequencies via the first-order symbol: omega = i * eig(A(k))."""
    freqs = 1j * np.linalg.eigvals(first_order_symbol(m, k))
    order = np.lexsort((freqs.imag, freqs.real))
    return freqs[order]


def root_set_distance(a, b) -> float:
    """Max pointwise distance between two root multisets under the
    optimal pairing.  Sorting complex roots is not stable when real
    parts coincide to round-off, so set equivalence is always judged
    through an assignment, never through sorted order.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("root sets must be 1-d and equally sized")
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


@dataclass(frozen=True)
class DispersionResult:
    """Matched frequency branches over a wavenumber grid.

    omega has shape (n_k, 6) with branch j continuous in k: each step
    matches the new roots against a linear extrapolation of the branch
    (bipartite assignment), so smooth advection is not mistaken for
    relabeling.  crossings[i] is True when the best match at step i
    still deviated from the prediction by more than a tenth of the
    frequency scale, i.e. labels may have swapped there.
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
    ks = np.asarray(k_values, dtype=float)
    if ks.ndim != 1 or len(ks) == 0:
        raise ValueError("k_values must be a nonempty 1-d array")
    if not (ks > 0).all():
        raise ValueError("all wavenumbers must be positive")

    per_k = [characteristic_matrix(m, k).roots() for k in ks]

    omega = np.empty((len(ks), 6), dtype=complex)
    crossings = np.zeros(len(ks), dtype=bool)
    omega[0] = per_k[0]
    for i in range(1, len(ks)):
        cur = per_k[i]
        if i == 1:
            predicted = omega[0]
        else:
            slope = (omega[i - 1] - omega[i - 2]) / (ks[i - 1] - ks[i - 2])
            predicted = omega[i - 1] + slope * (ks[i] - ks[i - 1])
        cost = np.abs(predicted[:, None] - cur[None, :])
        rows, cols = linear_sum_assignment(cost)
        omega[i, rows] = cur[cols]
        scale = max(1.0, float(np.abs(cur).max()))
        crossings[i] = bool(cost[rows, cols].max() > _JUMP_FRACTION * scale)
    return DispersionResult(k_values=ks, omega=omega, crossings=crossings)
