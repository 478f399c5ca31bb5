import dataclasses
import re

import numpy as np
import pytest

from microtherm import (RootFailure, characteristic_matrix,
                        first_order_symbol, reference_type2, reference_type3,
                        root_set_distance, solve_branches, symbol_frequencies,
                        to_moduli_1d)
from microtherm import dispersion
from microtherm.dispersion import det_coefficients, polynomial_frequencies

from conftest import convolve_det_coefficients, sorted_roots

# solve_branches has its own grid validation test below
BATCHED = (characteristic_matrix, det_coefficients, polynomial_frequencies,
           first_order_symbol, symbol_frequencies)
GRIDS = {
    "linear4000": np.linspace(0.5, 40.0, 4000),
    "linear16": np.linspace(0.5, 8.0, 16),
    "geometric3000": np.geomspace(1e-3, 1e12, 3000),
}


def decoupled(material, **extra):
    """Kill every cross coupling; extra overrides separate the branches."""
    return to_moduli_1d(dataclasses.replace(
        material, beta=0.0, gamma1=0.0, gamma2=0.0, varpi=0.0, hbar_c=0.0,
        **extra))


class TestCharacteristicMatrix:
    @pytest.mark.parametrize("func", BATCHED, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("bad", [[0.0], [0.5, -1.0], [], [[1.0, 2.0]]],
                             ids=["zero", "negative", "empty", "2d"])
    def test_wavenumber_grid_must_be_positive_and_1d(self, func, bad, moduli3):
        with pytest.raises(ValueError):
            func(moduli3, bad)

    def test_stacked_shapes(self, moduli3):
        ks = np.linspace(0.5, 8.0, 5)
        assert characteristic_matrix(moduli3, ks).shape == (5, 3, 3, 3)
        assert det_coefficients(moduli3, ks).shape == (5, 7)
        assert polynomial_frequencies(moduli3, ks).shape == (5, 6)
        assert first_order_symbol(moduli3, ks).shape == (5, 6, 6)
        assert symbol_frequencies(moduli3, ks).shape == (5, 6)

    def test_coefficients_evaluate_to_determinant(self, moduli3):
        e = characteristic_matrix(moduli3, [1.7])
        coeffs = det_coefficients(moduli3, [1.7])[0]
        mags = np.abs(coeffs)
        for w in (0.3 + 0.7j, -1.2 + 0.1j, 2.0 - 3.0j):
            poly = np.polyval(coeffs[::-1], w)
            det = np.linalg.det(e[0, 0] + w * e[0, 1] + w * w * e[0, 2])
            scale = float(np.polyval(mags[::-1], abs(w)))
            assert abs(poly - det) <= 1e-12 * scale

    def test_leading_coefficient_is_inertia_product(self, moduli3):
        coeffs = det_coefficients(moduli3, [2.0])[0]
        target = moduli3.rho * moduli3.c_cap * moduli3.alpha_m
        assert coeffs[6] == pytest.approx(target, rel=1e-14)

    def test_bad_roots_are_rejected(self, moduli3, monkeypatch):
        monkeypatch.setattr(dispersion.np.linalg, "eigvals",
                            lambda a: np.zeros(a.shape[:-1], dtype=complex))
        with pytest.raises(RootFailure, match="root residual.*at k = 1.0$"):
            polynomial_frequencies(moduli3, [1.0, 2.0])

    @pytest.mark.parametrize("moduli", ["moduli2", "moduli3"])
    def test_overflowing_coefficients_are_a_root_failure(self, moduli, request):
        # k^6 leaves the float range: no root is certified, and no
        # overflow warning escapes
        m = request.getfixturevalue(moduli)
        with pytest.raises(RootFailure, match="float range at k = 1e\\+60"):
            polynomial_frequencies(m, [1.0, 1e60])
        with pytest.raises(RootFailure):
            solve_branches(m, [1.0, 1e60])

    def test_overflowing_companion_is_a_root_failure(self):
        # tiny inertias: at k = 1e50 the coefficients are finite but
        # their ratios to the leading one are not
        m = to_moduli_1d(dataclasses.replace(
            reference_type3(), rho=1e-3, c_cap=1e-3, alpha_m=1e-3))
        assert np.isfinite(det_coefficients(m, [1e50])).all()
        with pytest.raises(RootFailure, match="float range at k = 1e\\+50"):
            polynomial_frequencies(m, [1.0, 1e50])

    def test_first_failing_wavenumber_is_named(self, moduli3):
        # a residual failure below an overflowing wavenumber is the one
        # reported
        with pytest.raises(RootFailure, match="root residual.*at k = 1000000000000000.0$"):
            polynomial_frequencies(moduli3, [1.0, 1e15, 1e60])


@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("moduli", ["moduli2", "moduli3"])
class TestBatchedBits:
    """The batched routes give, bit for bit, what the one-wavenumber
    formulas give."""

    def test_det_coefficients_match_convolve_expansion(self, moduli, grid, request):
        m, ks = request.getfixturevalue(moduli), GRIDS[grid]
        entries = characteristic_matrix(m, ks)
        expected = np.array([convolve_det_coefficients(e) for e in entries])
        assert np.array_equal(det_coefficients(m, ks), expected)

    def test_polynomial_frequencies_match_np_roots(self, moduli, grid, request):
        m, ks = request.getfixturevalue(moduli), GRIDS[grid]
        if (moduli, grid) == ("moduli3", "geometric3000"):
            # the residual guard rejects type3 from k of about 1.1e11 on;
            # below the wavenumber it names, the roots must still match
            with pytest.raises(RootFailure) as exc:
                polynomial_frequencies(m, ks)
            k_bad = float(re.search(r"at k = (\S+)$", str(exc.value)).group(1))
            ks = ks[: int(np.searchsorted(ks, k_bad))]
            assert len(ks) > 2500
        got = polynomial_frequencies(m, ks)
        expected = np.array([sorted_roots(c) for c in det_coefficients(m, ks)])
        assert np.array_equal(got, expected)

    def test_symbol_frequencies_match_per_k_eigvals(self, moduli, grid, request):
        m, ks = request.getfixturevalue(moduli), GRIDS[grid]
        expected = []
        for a in first_order_symbol(m, ks):
            w = 1j * np.linalg.eigvals(a)
            expected.append(w[np.lexsort((w.imag, w.real))])
        assert np.array_equal(symbol_frequencies(m, ks), np.array(expected))

    def test_strided_grid_gives_contiguous_bits(self, moduli, grid, request):
        m, ks = request.getfixturevalue(moduli), GRIDS[grid][:400]
        for func in (det_coefficients, polynomial_frequencies, symbol_frequencies):
            assert np.array_equal(func(m, ks[::2]), func(m, ks[::2].copy()))


class TestTwoRoutes:
    @pytest.mark.parametrize("which", ["type2", "type3"])
    def test_polynomial_and_symbol_roots_agree(self, which, moduli2, moduli3):
        m = moduli2 if which == "type2" else moduli3
        ks = np.linspace(0.1, 10.0, 23)
        for a, b in zip(polynomial_frequencies(m, ks), symbol_frequencies(m, ks)):
            scale = max(np.abs(a).max(), 1.0)
            assert root_set_distance(a, b) <= 1e-10 * scale

    def test_distance_requires_matching_shapes(self):
        with pytest.raises(ValueError):
            root_set_distance(np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError):
            root_set_distance(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_distance_is_permutation_invariant(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=6) + 1j * rng.normal(size=6)
        assert root_set_distance(a, a[::-1]) == 0.0


class TestRootStructure:
    def test_conservative_frequencies_are_real(self, moduli2):
        for w in polynomial_frequencies(moduli2, np.linspace(0.1, 10.0, 23)):
            assert np.abs(w.imag).max() <= 1e-10 * np.abs(w).max()

    def test_dissipative_roots_stay_in_lower_half_plane(self, moduli3):
        for w in polynomial_frequencies(moduli3, np.linspace(0.1, 10.0, 23)):
            assert w.imag.max() <= 1e-10 * np.abs(w).max()

    def test_conjugate_symmetry(self, moduli2, moduli3):
        # real-coefficient systems: the root set maps to itself under
        # omega -> -conj(omega)
        for m in (moduli2, moduli3):
            for w in polynomial_frequencies(m, [0.3, 1.0, 4.0]):
                assert root_set_distance(w, -w.conj()) <= 1e-10 * np.abs(w).max()

    def test_all_branches_vanish_with_k(self, moduli3):
        ks = np.array([1e-3, 1e-2])
        for k, w in zip(ks, polynomial_frequencies(moduli3, ks)):
            assert np.abs(w).max() <= 3.0 * k

    def test_decoupled_closed_forms(self):
        m = decoupled(reference_type2(), alpha_m=2.0)
        ks = np.array([0.1, 1.0, 10.0])
        for k, w in zip(ks, polynomial_frequencies(m, ks)):
            scale = np.abs(w).max()
            for s2 in (m.m_uu / m.rho, m.k_cond / m.c_cap, m.m_rr / m.alpha_m):
                target = np.sqrt(s2) * k
                assert np.abs(w - target).min() <= 1e-10 * scale
                assert np.abs(w + target).min() <= 1e-10 * scale

    def test_damped_heat_branch_quadratic(self):
        m = decoupled(reference_type3(), alpha_m=2.0)
        c, kc, h = m.c_cap, m.k_cond, m.h_cond
        ks = np.array([0.5, 5.0])
        for k, w in zip(ks, polynomial_frequencies(m, ks)):
            disc = np.sqrt(complex(-h * h * k ** 4 + 4.0 * c * kc * k * k))
            for root in ((-1j * h * k * k + disc) / (2 * c),
                         (-1j * h * k * k - disc) / (2 * c)):
                assert np.abs(w - root).min() <= 1e-10 * np.abs(w).max()

    def test_damping_vanishes_with_rate_moduli(self):
        base = reference_type3()
        ks = np.linspace(0.5, 8.0, 8)
        prev = np.inf
        for s in (1.0, 0.5, 0.25, 0.1, 0.0):
            m = to_moduli_1d(dataclasses.replace(
                base, h_cond=s * base.h_cond, rho1=s * base.rho1,
                rho2=s * base.rho2, rho3=s * base.rho3))
            res = solve_branches(m, ks)
            worst = np.abs(res.omega.imag).max()
            assert worst <= prev * 1.05
            prev = worst
        assert prev <= 1e-10 * np.abs(res.omega).max()


class TestBranches:
    def test_conservative_speeds_frozen_values(self, moduli2):
        w = polynomial_frequencies(moduli2, [10.0])[0]
        speeds = np.sort(w.real[w.real > 0]) / 10.0
        expected = (0.830204584837, 0.980824368576, 2.094932911891)
        assert speeds.shape == (3,)
        np.testing.assert_allclose(speeds, expected, atol=1e-6, rtol=0)

    def test_speed_bounds(self, moduli2):
        # 100 samples: coarser grids overshoot the difference quotient
        # where branches rearrange near the low-k end
        res = solve_branches(moduli2, np.linspace(0.1, 10.0, 100))
        assert np.abs(res.phase_speed).max() <= 2.5
        assert np.abs(res.group_speed()).max() <= 2.5

    def test_decay_rates_sign(self, moduli3):
        res = solve_branches(moduli3, np.linspace(0.5, 8.0, 8))
        assert res.decay_rates.min() >= -1e-10 * np.abs(res.omega).max()

    def test_wavenumber_grid_validation(self, moduli3):
        for bad in ([], [[1.0, 2.0]], [0.5, -1.0], [0.5, 0.0]):
            with pytest.raises(ValueError):
                solve_branches(moduli3, bad)

    def test_group_speed_needs_two_wavenumbers(self, moduli3):
        res = solve_branches(moduli3, [1.0])
        with pytest.raises(ValueError):
            res.group_speed()
