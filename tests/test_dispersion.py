import dataclasses

import numpy as np
import pytest

from microtherm import (RootFailure, characteristic_matrix,
                        first_order_symbol, reference_type2, reference_type3,
                        root_set_distance, solve_branches, symbol_frequencies,
                        to_moduli_1d)


def decoupled(material, **extra):
    """Kill every cross coupling; extra overrides separate the branches."""
    return to_moduli_1d(dataclasses.replace(
        material, beta=0.0, gamma1=0.0, gamma2=0.0, varpi=0.0, hbar_c=0.0,
        **extra))


class TestCharacteristicMatrix:
    def test_wavenumber_must_be_positive(self, moduli3):
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError):
                characteristic_matrix(moduli3, bad)
            with pytest.raises(ValueError):
                first_order_symbol(moduli3, bad)

    def test_coefficients_evaluate_to_determinant(self, moduli3):
        mat = characteristic_matrix(moduli3, 1.7)
        coeffs = mat.det_coefficients()
        mags = np.abs(coeffs)
        for w in (0.3 + 0.7j, -1.2 + 0.1j, 2.0 - 3.0j):
            poly = np.polyval(coeffs[::-1], w)
            det = np.linalg.det(mat(w))
            scale = float(np.polyval(mags[::-1], abs(w)))
            assert abs(poly - det) <= 1e-12 * scale

    def test_leading_coefficient_is_inertia_product(self, moduli3):
        coeffs = characteristic_matrix(moduli3, 2.0).det_coefficients()
        target = moduli3.rho * moduli3.c_cap * moduli3.alpha_m
        assert coeffs[6] == pytest.approx(target, rel=1e-14)

    def test_bad_roots_are_rejected(self, moduli3, monkeypatch):
        monkeypatch.setattr(np, "roots", lambda c: np.zeros(6, dtype=complex))
        with pytest.raises(RootFailure):
            characteristic_matrix(moduli3, 1.0).roots()

    @pytest.mark.parametrize("moduli", ["moduli2", "moduli3"])
    def test_overflowing_coefficients_are_a_root_failure(self, moduli, request):
        # k^6 leaves the float range: no root is certified, and no
        # overflow warning escapes
        m = request.getfixturevalue(moduli)
        with pytest.raises(RootFailure, match="float range"):
            characteristic_matrix(m, 1e60).roots()
        with pytest.raises(RootFailure):
            solve_branches(m, [1.0, 1e60])


class TestTwoRoutes:
    @pytest.mark.parametrize("which", ["type2", "type3"])
    def test_polynomial_and_symbol_roots_agree(self, which, moduli2, moduli3):
        m = moduli2 if which == "type2" else moduli3
        for k in np.linspace(0.1, 10.0, 23):
            a = characteristic_matrix(m, k).roots()
            b = symbol_frequencies(m, k)
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
        for k in np.linspace(0.1, 10.0, 23):
            w = characteristic_matrix(moduli2, k).roots()
            assert np.abs(w.imag).max() <= 1e-10 * np.abs(w).max()

    def test_dissipative_roots_stay_in_lower_half_plane(self, moduli3):
        for k in np.linspace(0.1, 10.0, 23):
            w = characteristic_matrix(moduli3, k).roots()
            assert w.imag.max() <= 1e-10 * np.abs(w).max()

    def test_conjugate_symmetry(self, moduli2, moduli3):
        # real-coefficient systems: the root set maps to itself under
        # omega -> -conj(omega)
        for m in (moduli2, moduli3):
            for k in (0.3, 1.0, 4.0):
                w = characteristic_matrix(m, k).roots()
                assert root_set_distance(w, -w.conj()) <= 1e-10 * np.abs(w).max()

    def test_all_branches_vanish_with_k(self, moduli3):
        for k in (1e-3, 1e-2):
            w = characteristic_matrix(moduli3, k).roots()
            assert np.abs(w).max() <= 3.0 * k

    def test_decoupled_closed_forms(self):
        m = decoupled(reference_type2(), alpha_m=2.0)
        for k in (0.1, 1.0, 10.0):
            w = characteristic_matrix(m, k).roots()
            scale = np.abs(w).max()
            for s2 in (m.m_uu / m.rho, m.k_cond / m.c_cap, m.m_rr / m.alpha_m):
                target = np.sqrt(s2) * k
                assert np.abs(w - target).min() <= 1e-10 * scale
                assert np.abs(w + target).min() <= 1e-10 * scale

    def test_damped_heat_branch_quadratic(self):
        m = decoupled(reference_type3(), alpha_m=2.0)
        c, kc, h = m.c_cap, m.k_cond, m.h_cond
        for k in (0.5, 5.0):
            w = characteristic_matrix(m, k).roots()
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
        w = characteristic_matrix(moduli2, 10.0).roots()
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
