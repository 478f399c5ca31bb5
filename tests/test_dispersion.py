import dataclasses
import itertools
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from microtherm import (RootFailure, characteristic_matrix, reference_type2,
                        reference_type3, solve_branches, symbol_frequencies,
                        to_moduli_1d)
from microtherm import dispersion
from microtherm.cli import main
from microtherm.dispersion import (_symbols, det_coefficients, least_pairing,
                                   polynomial_frequencies, root_distances)

from conftest import (convolve_det_coefficients, first_order_symbol,
                      root_set_distance, sorted_roots)

# solve_branches has its own grid validation test below
BATCHED = (characteristic_matrix, det_coefficients, polynomial_frequencies,
           _symbols, symbol_frequencies)
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
        assert _symbols(moduli3, ks).shape == (5, 6, 6)
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
        # the eigenvalues of the hand-written symbol, one wavenumber at a
        # time: bitwise at the references' unit inertias (TestDerivedSymbol)
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


class TestBlocks:
    """The stacked evaluations run _K_BLOCK wavenumbers at a time: a grid
    of three blocks, the last one partial, gives the per-wavenumber
    results bit for bit, and a failure names the first failing
    wavenumber whichever block it falls in."""

    KS = np.linspace(0.5, 40.0, 2 * dispersion._K_BLOCK + 37)

    @pytest.mark.parametrize("moduli", ["moduli2", "moduli3"])
    def test_blocks_equal_the_per_wavenumber_results(self, moduli, request):
        m, ks = request.getfixturevalue(moduli), self.KS
        poly, sym = polynomial_frequencies(m, ks), symbol_frequencies(m, ks)
        assert np.array_equal(poly, np.concatenate([polynomial_frequencies(m, [k])
                                                    for k in ks]))
        assert np.array_equal(sym, np.concatenate([symbol_frequencies(m, [k]) for k in ks]))
        assert np.array_equal(root_distances(poly, sym),
                              np.concatenate([root_distances(poly[i:i + 1], sym[i:i + 1])
                                              for i in range(len(ks))]))

    @pytest.mark.parametrize("first", ["second block", "third block"])
    def test_first_failure_in_a_later_block_is_named(self, moduli3, first):
        # k = 1e15 misses the residual guard and k = 1e60 leaves the float
        # range; the earlier of the two is reported
        ks, late = self.KS.copy(), 2 * dispersion._K_BLOCK + 5
        if first == "second block":
            ks[dispersion._K_BLOCK + 3], ks[late] = 1e60, 1e15
            match = "float range at k = 1e\\+60$"
        else:
            ks[late], ks[late + 4] = 1e15, 1e60
            match = "root residual.*at k = 1000000000000000.0$"
        with pytest.raises(RootFailure, match=match):
            polynomial_frequencies(moduli3, ks)


class TestDerivedSymbol:
    """The symbols are the generator table contracted with (1, -k^2, ik),
    checked against the hand-written symbol of conftest."""

    @pytest.mark.parametrize("ks", [GRIDS["linear4000"], GRIDS["linear16"],
                                    np.geomspace(1e-3, 1e15, 2000)],
                             ids=["linear4000", "linear16", "geometric2000"])
    @pytest.mark.parametrize("moduli", ["moduli2", "moduli3"])
    def test_references_give_the_hand_written_symbol_bit_for_bit(self, moduli, ks,
                                                                 request):
        # equal symbols make equal frequencies (TestBatchedBits checks
        # those against the oracle's per-wavenumber eigenvalues)
        m = request.getfixturevalue(moduli)
        assert np.array_equal(_symbols(m, ks), first_order_symbol(m, ks))

    @pytest.mark.parametrize("material", [reference_type2(), reference_type3()],
                             ids=["type2", "type3"])
    def test_non_unit_inertias_round_the_quotients_otherwise(self, material):
        # T[lap] * k^2 against the oracle's (coefficient * k^2) / inertia:
        # the same entries, each within an ulp or two
        m = to_moduli_1d(dataclasses.replace(material, rho=1.7, c_cap=0.6, alpha_m=2.3))
        ks = np.geomspace(1e-3, 1e15, 2000)
        got, oracle = _symbols(m, ks), first_order_symbol(m, ks)
        assert np.array_equal(got == 0, oracle == 0)
        nonzero = oracle != 0
        assert (np.abs(got - oracle)[nonzero] <= 1e-15 * np.abs(oracle)[nonzero]).all()
        # the frequencies move by some ulps of the row's largest root
        w = 1j * np.linalg.eigvals(oracle)
        scale = np.maximum(1.0, np.abs(w).max(axis=1))
        assert (root_distances(symbol_frequencies(m, ks), w) <= 1e-13 * scale).all()

    def test_a_wrong_table_entry_fails_the_route_agreement(self, monkeypatch, tmp_path):
        # the symbol route reads the stepper's table, so doubling its
        # m_ur / alpha_m entry must fail "dispersion routes agree"
        table = dispersion.generator_table

        def doubled(m, time_sign):
            t = table(m, time_sign)
            t[1, 5, 0] *= 2.0  # T[lap, m, u] = m_ur / alpha_m
            return t

        monkeypatch.setattr(dispersion, "generator_table", doubled)
        cfg = pathlib.Path(dispersion.__file__).parent / "configs" / "reference_type3.cfg"
        out = tmp_path / "out"
        assert main(["dispersion", str(cfg), "--out", str(out)]) == 1
        report = (out / "report.txt").read_text()
        line = next(s for s in report.splitlines() if s.startswith("dispersion routes agree"))
        assert line.startswith("dispersion routes agree: FAIL")
        assert float(re.search(r"distance (\S+)", line).group(1)) > 1e-2


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
        a = rng.normal(size=(50, 6)) + 1j * rng.normal(size=(50, 6))
        shuffled = np.take_along_axis(a, rng.permuted(np.tile(np.arange(6), (50, 1)),
                                                      axis=1), axis=1)
        assert not np.array_equal(shuffled, a)
        assert (root_distances(a, shuffled) == 0.0).all()

    @pytest.mark.parametrize("moduli", ["moduli2", "moduli3"])
    def test_certificate_distance_matches_the_assignment_loop(self, moduli, request):
        # the runner's batched distances are, bit for bit, those of one
        # scipy assignment per wavenumber
        m, ks = request.getfixturevalue(moduli), GRIDS["linear4000"]
        own, other = solve_branches(m, ks).omega, symbol_frequencies(m, ks)
        expected = np.array([root_set_distance(a, b) for a, b in zip(own, other)])
        assert np.array_equal(root_distances(own, other), expected)


class TestLeastPairing:
    """least_pairing against scipy's linear_sum_assignment."""

    @staticmethod
    def assignments(costs):
        return np.array([linear_sum_assignment(c)[1] for c in costs])

    @staticmethod
    def sums(costs, cols):
        return np.take_along_axis(costs, cols[:, :, None], axis=2).sum(axis=(1, 2))

    def test_random_costs_give_the_assignment(self):
        rng = np.random.default_rng(11)
        costs = rng.random((10_000, 6, 6))
        cols = least_pairing(costs)
        # most row-wise argmins collide, so both paths are exercised
        minima = costs.argmin(axis=2)
        fast = np.array([len(set(row)) == 6 for row in minima.tolist()])
        assert 50 < fast.sum() < 9_950
        assert np.array_equal(cols[fast], minima[fast])
        assert np.array_equal(cols, self.assignments(costs))

    def test_tied_integer_costs_give_the_least_sum(self):
        rng = np.random.default_rng(12)
        costs = rng.integers(0, 4, size=(2_000, 6, 6)).astype(float)
        cols = least_pairing(costs)
        assert (np.sort(cols, axis=1) == np.arange(6)).all()
        assert np.array_equal(self.sums(costs, cols),
                              self.sums(costs, self.assignments(costs)))

    def test_ties_go_to_the_first_least_sum_pairing(self):
        rng = np.random.default_rng(13)
        pairings = np.array(list(itertools.permutations(range(6))))
        for cost in rng.integers(0, 3, size=(200, 6, 6)).astype(float):
            sums = cost[np.arange(6), pairings].sum(axis=1)
            first = pairings[np.flatnonzero(sums == sums.min())[0]]
            assert np.array_equal(least_pairing(cost[None])[0], first)

    def test_importing_the_package_leaves_scipy_optimize_out(self):
        src = pathlib.Path(dispersion.__file__).resolve().parents[1]
        code = ("import sys, microtherm, microtherm.cli; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


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

    @pytest.mark.parametrize("ks", [GRIDS["linear16"], [0.5, 1.0], GRIDS["linear4000"]],
                             ids=["linear16", "two", "linear4000"])
    def test_conservative_branches_keep_their_phase_speed(self, moduli2, ks):
        # type2 frequencies are homogeneous of degree one in k, so each
        # branch keeps one phase speed from its first wavenumber on; a
        # flat first prediction would tie every same-sign pairing
        res = solve_branches(moduli2, ks)
        speed = res.phase_speed
        assert (np.abs(speed - speed[0]) <= 1e-12 * np.abs(speed[0])).all()
        assert not res.crossings.any()

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
