import dataclasses
import itertools
import json
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
from microtherm import dispersion, evolve
from microtherm.cli import main
from microtherm.dispersion import (_symbols, least_pairing, quadratic_frequencies,
                                   root_distances)

from conftest import (convolve_det_coefficients, first_order_symbol,
                      linearized_roots, root_set_distance, sorted_roots)

# solve_branches has its own grid validation test below
BATCHED = (characteristic_matrix, quadratic_frequencies, _symbols, symbol_frequencies)
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
        assert quadratic_frequencies(moduli3, ks).shape == (5, 6)
        assert _symbols(moduli3, ks).shape == (5, 6, 6)
        assert symbol_frequencies(moduli3, ks).shape == (5, 6)

    def test_coefficients_evaluate_to_determinant(self, moduli3):
        # the determinant polynomial of the np.roots oracle (TestTwoRoutes)
        e = characteristic_matrix(moduli3, [1.7])
        coeffs = convolve_det_coefficients(e[0])
        mags = np.abs(coeffs)
        for w in (0.3 + 0.7j, -1.2 + 0.1j, 2.0 - 3.0j):
            poly = np.polyval(coeffs[::-1], w)
            det = np.linalg.det(e[0, 0] + w * e[0, 1] + w * w * e[0, 2])
            scale = float(np.polyval(mags[::-1], abs(w)))
            assert abs(poly - det) <= 1e-12 * scale

    def test_leading_coefficient_is_inertia_product(self, moduli3):
        coeffs = convolve_det_coefficients(characteristic_matrix(moduli3, [2.0])[0])
        target = moduli3.rho * moduli3.c_cap * moduli3.alpha_m
        assert coeffs[6] == pytest.approx(target, rel=1e-14)

    @pytest.mark.parametrize("moduli", ["moduli2", "moduli3"])
    def test_overflowing_wavenumber_is_a_root_failure(self, moduli, request):
        # k^2 leaves the float range: no root is returned, and no
        # overflow warning escapes
        m = request.getfixturevalue(moduli)
        with pytest.raises(RootFailure, match="float range at k = 1e\\+160$"):
            quadratic_frequencies(m, [1.0, 1e160])
        with pytest.raises(RootFailure):
            solve_branches(m, [1.0, 1e160])

    def test_tiny_inertias_at_large_wavenumbers_are_solved(self):
        # tiny inertias at k = 1e50: the determinant's coefficients are
        # finite but their ratios to the leading one are not, and the
        # scaled linearization forms no such ratio
        m = to_moduli_1d(dataclasses.replace(
            reference_type3(), rho=1e-3, c_cap=1e-3, alpha_m=1e-3))
        ks = [1.0, 1e50]
        w, sym = quadratic_frequencies(m, ks), symbol_frequencies(m, ks)
        assert (root_distances(w, sym) <= 1e-13 * np.abs(sym).max(axis=1)).all()

    def test_first_failing_wavenumber_is_named(self, moduli3):
        # the first overflowing wavenumber in grid order, not the largest;
        # k = 1e15 is solved
        with pytest.raises(RootFailure, match="float range at k = 1e\\+200$"):
            quadratic_frequencies(moduli3, [1.0, 1e15, 1e200, 1e160])


@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("moduli", ["moduli2", "moduli3"])
class TestBatchedBits:
    """The batched routes give, bit for bit, what the one-wavenumber
    formulas give."""

    def test_quadratic_frequencies_match_the_linearization(self, moduli, grid, request):
        # the whole grid, 1e-3 to 1e12 included
        m, ks = request.getfixturevalue(moduli), GRIDS[grid]
        expected = np.array([linearized_roots(e) for e in characteristic_matrix(m, ks)])
        assert np.array_equal(quadratic_frequencies(m, ks), expected)

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
        for func in (quadratic_frequencies, symbol_frequencies):
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
        poly, sym = quadratic_frequencies(m, ks), symbol_frequencies(m, ks)
        assert np.array_equal(poly, np.concatenate([quadratic_frequencies(m, [k])
                                                    for k in ks]))
        assert np.array_equal(sym, np.concatenate([symbol_frequencies(m, [k]) for k in ks]))
        assert np.array_equal(root_distances(poly, sym),
                              np.concatenate([root_distances(poly[i:i + 1], sym[i:i + 1])
                                              for i in range(len(ks))]))

    @pytest.mark.parametrize("first", ["second block", "third block"])
    def test_first_failure_in_a_later_block_is_named(self, moduli3, first):
        # k = 1e160 and k = 1e200 both overflow k^2; the earlier of the
        # two in the grid is reported, whichever is larger
        ks, late = self.KS.copy(), 2 * dispersion._K_BLOCK + 5
        if first == "second block":
            ks[dispersion._K_BLOCK + 3], ks[late] = 1e160, 1e200
            match = "float range at k = 1e\\+160$"
        else:
            ks[late], ks[late + 4] = 1e200, 1e160
            match = "float range at k = 1e\\+200$"
        with pytest.raises(RootFailure, match=match):
            quadratic_frequencies(moduli3, ks)


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
    @pytest.mark.parametrize("grid", ["linear4000", "linear16"])
    @pytest.mark.parametrize("moduli", ["moduli2", "moduli3"])
    def test_quadratic_frequencies_match_np_roots(self, moduli, grid, request):
        # an oracle independent of the linearization: np.roots of the
        # determinant polynomial, within its rounding (type3 on
        # linear4000: 1.7e-13); on the geometric grid the coefficients
        # span too many decades for np.roots
        m, ks = request.getfixturevalue(moduli), GRIDS[grid]
        for w, e in zip(quadratic_frequencies(m, ks), characteristic_matrix(m, ks)):
            assert (root_set_distance(w, sorted_roots(convolve_det_coefficients(e)))
                    <= 1e-11 * max(1.0, np.abs(w).max()))

    @pytest.mark.parametrize("which", ["type2", "type3"])
    def test_quadratic_and_symbol_roots_agree(self, which, moduli2, moduli3):
        m = moduli2 if which == "type2" else moduli3
        ks = np.linspace(0.1, 10.0, 23)
        for a, b in zip(quadratic_frequencies(m, ks), symbol_frequencies(m, ks)):
            scale = max(np.abs(a).max(), 1.0)
            assert root_set_distance(a, b) <= 1e-10 * scale

    @staticmethod
    def dispersion_lines(tmp_path, model):
        """The dispersion command's exit code on a reference file, and its
        report's certificate lines by name."""
        cfg = pathlib.Path(dispersion.__file__).parent / "configs" / f"reference_{model}.cfg"
        code = main(["dispersion", str(cfg), "--out", str(tmp_path / "out")])
        report = (tmp_path / "out" / "report.txt").read_text()
        return code, dict(s.split(": ", 1) for s in report.splitlines() if ": " in s)

    @pytest.mark.parametrize("model", ["type2", "type3"])
    def test_a_wrong_characteristic_entry_fails_the_route_agreement(self, monkeypatch,
                                                                    tmp_path, model):
        # the quadratic route reads the hand-written characteristic_matrix,
        # so doubling its m_ur k^2 entry must fail "dispersion routes agree"
        matrix = dispersion.characteristic_matrix

        def doubled(m, k_values):
            c = matrix(m, k_values)
            c[:, 0, 2, 0] *= 2.0  # m0[m, u] = m_ur k^2
            return c

        monkeypatch.setattr(dispersion, "characteristic_matrix", doubled)
        code, lines = self.dispersion_lines(tmp_path, model)
        assert code == 1
        assert lines["dispersion routes agree"].startswith("FAIL")
        assert float(re.search(r"distance (\S+)", lines["dispersion routes agree"]).group(1)) > 1e-2

    def test_an_imaginary_rate_entry_fails_real_frequencies(self, monkeypatch, tmp_path):
        # a thermal rate term -i h k^2 written into type2's matrix bends
        # its roots off the real axis
        matrix = dispersion.characteristic_matrix

        def damped(m, k_values):
            c = matrix(m, k_values)
            c[:, 1, 1, 1] = -0.5j * np.asarray(k_values) ** 2
            return c

        monkeypatch.setattr(dispersion, "characteristic_matrix", damped)
        code, lines = self.dispersion_lines(tmp_path, "type2")
        assert code == 1
        assert lines["real frequencies"].startswith("FAIL")
        assert lines["dispersion routes agree"].startswith("FAIL")

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


class TestColdStart:
    """What a fresh interpreter loads: scipy only for the band stepper."""

    @staticmethod
    def scipy_after(tmp_path, *commands):
        """In a fresh interpreter: import microtherm.cli, then call main
        on each (command, config) in turn.  Returns the exit codes and,
        after the import and after each call, the scipy modules loaded."""
        src = pathlib.Path(dispersion.__file__).resolve().parents[1]
        code = (
            "import json, sys\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "import microtherm.cli\n"
            "seen, codes = [loaded()], []\n"
            "for i, (command, cfg) in enumerate(json.loads(sys.argv[1])):\n"
            "    extra = ['--out', sys.argv[2] + '/' + str(i)] if command == 'run' else []\n"
            "    codes.append(microtherm.cli.main([command, cfg] + extra))\n"
            "    seen.append(loaded())\n"
            "print(json.dumps([codes, seen]))\n")
        proc = subprocess.run(
            [sys.executable, "-c", code, json.dumps(commands), str(tmp_path)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
            timeout=300)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_small_runs_load_no_scipy(self, tmp_path):
        # the package, check and run of both references and a spectrum
        # and dispersion run at n = 256 import no scipy module: only the
        # band stepper (6n > evolve._DENSE_STEP) needs it
        configs = pathlib.Path(dispersion.__file__).parent / "configs"
        wide = tmp_path / "spectral.cfg"
        wide.write_text("[material]\nmodel = type3\n[grid]\nn_interior = 256\n"
                        "[time]\ndt = 1e-3\nn_steps = 10\n[init]\npreset = sine\n"
                        "u_amp = 1.0\n[tasks]\nrun = spectrum, dispersion\n")
        commands = [(command, str(configs / f"reference_{model}.cfg"))
                    for model in ("type2", "type3") for command in ("check", "run")]
        codes, seen = self.scipy_after(tmp_path, *commands, ("run", str(wide)))
        assert codes == [0] * 5
        assert seen == [[]] * 6

    def test_band_run_loads_scipy_linalg_and_sparse(self, tmp_path):
        cfg = tmp_path / "band.cfg"
        cfg.write_text(
            (pathlib.Path(dispersion.__file__).parent / "configs" / "reference_type3.cfg")
            .read_text().replace("n_interior = 16", f"n_interior = {evolve._DENSE_STEP // 6 + 1}")
            .replace("n_steps = 400", "n_steps = 20").replace("n_steps = 200", "n_steps = 20"))
        codes, (imported, after) = self.scipy_after(tmp_path, ("run", str(cfg)))
        assert codes == [0] and imported == []
        assert {"scipy.linalg", "scipy.sparse"} <= set(after)


class TestRootStructure:
    def test_conservative_frequencies_are_real(self, moduli2):
        for w in quadratic_frequencies(moduli2, np.linspace(0.1, 10.0, 23)):
            assert np.abs(w.imag).max() <= 1e-10 * np.abs(w).max()

    def test_dissipative_roots_stay_in_lower_half_plane(self, moduli3):
        for w in quadratic_frequencies(moduli3, np.linspace(0.1, 10.0, 23)):
            assert w.imag.max() <= 1e-10 * np.abs(w).max()

    def test_conjugate_symmetry(self, moduli2, moduli3):
        # real-coefficient systems: the root set maps to itself under
        # omega -> -conj(omega)
        for m in (moduli2, moduli3):
            for w in quadratic_frequencies(m, [0.3, 1.0, 4.0]):
                assert root_set_distance(w, -w.conj()) <= 1e-10 * np.abs(w).max()

    def test_all_branches_vanish_with_k(self, moduli3):
        ks = np.array([1e-3, 1e-2])
        for k, w in zip(ks, quadratic_frequencies(moduli3, ks)):
            assert np.abs(w).max() <= 3.0 * k

    def test_decoupled_closed_forms(self):
        m = decoupled(reference_type2(), alpha_m=2.0)
        ks = np.array([0.1, 1.0, 10.0])
        for k, w in zip(ks, quadratic_frequencies(m, ks)):
            scale = np.abs(w).max()
            for s2 in (m.m_uu / m.rho, m.k_cond / m.c_cap, m.m_rr / m.alpha_m):
                target = np.sqrt(s2) * k
                assert np.abs(w - target).min() <= 1e-10 * scale
                assert np.abs(w + target).min() <= 1e-10 * scale

    def test_damped_heat_branch_quadratic(self):
        m = decoupled(reference_type3(), alpha_m=2.0)
        c, kc, h = m.c_cap, m.k_cond, m.h_cond
        ks = np.array([0.5, 5.0])
        for k, w in zip(ks, quadratic_frequencies(m, ks)):
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
        w = quadratic_frequencies(moduli2, [10.0])[0]
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

    def test_repeated_wavenumber_keeps_its_labels(self, moduli3):
        # a zero step between wavenumbers has no secant: the prediction
        # is the last frequencies, so the same roots keep their labels
        res = solve_branches(moduli3, [3.0, 3.0, 3.0])
        assert np.array_equal(res.omega[1:], res.omega[:2])
        assert not res.crossings.any()

    def test_wavenumber_grid_validation(self, moduli3):
        for bad in ([], [[1.0, 2.0]], [0.5, -1.0], [0.5, 0.0]):
            with pytest.raises(ValueError):
                solve_branches(moduli3, bad)

    def test_group_speed_needs_two_wavenumbers(self, moduli3):
        res = solve_branches(moduli3, [1.0])
        with pytest.raises(ValueError):
            res.group_speed()
