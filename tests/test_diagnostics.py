import dataclasses
import math
import threading

import numpy as np
import pytest

from microtherm import (DimensionMismatch, EigenFailure, Grid1D, IndefiniteForm,
                        SizeLimit, SolveFailure, assemble_backward,
                        assemble_operator, backward_functionals, energy_table,
                        localization_probe, reference_type2, reference_type3,
                        snapshot_blocks, snapshot_times, spectral_report,
                        to_moduli_1d)
from microtherm import diagnostics
from microtherm.diagnostics import (balance_residuals, dissipativity_residual,
                                    mirror_blocks, reduce_blocks)
from microtherm.discrete1d import FIELDS, FORMS, form_values, node_blocks

from conftest import (blocks_matrix, collect, fit_decay, generator_matrix, gram_matrix,
                      gram_norm, other_threads, product_mirror_blocks, random_state,
                      root_set_distance, sine_init, staggered_difference, trapezoid_balance,
                      with_entry)


def functionals(states: np.ndarray, dt, op, **kwargs):
    """backward_functionals of a run's every-step states, one per row."""
    times = snapshot_times(dt, len(states) - 1)
    return backward_functionals(times, form_values(op, states), op, **kwargs)


def reference_energy_terms(op, x):
    """The seven energy terms of a stacked state by per-state staggered
    differences."""
    m, h = op.moduli, op.grid.h
    u, v, tau, theta, r, mm = x.reshape(6, -1)
    du = staggered_difference(u, h)
    dtau = staggered_difference(tau, h)
    dr = staggered_difference(r, h)
    return np.array([
        0.5 * h * m.rho * float(v @ v),
        0.5 * h * m.c_cap * float(theta @ theta),
        0.5 * h * m.alpha_m * float(mm @ mm),
        0.5 * h * m.m_uu * float(du @ du),
        h * m.m_ur * float(du @ dr),
        0.5 * h * m.k_cond * float(dtau @ dtau),
        0.5 * h * m.m_rr * float(dr @ dr),
    ])


def reference_dissipation(op, x):
    m, h = op.moduli, op.grid.h
    _, _, _, theta, _, mm = x.reshape(6, -1)
    dtheta = staggered_difference(theta, h)
    dm = staggered_difference(mm, h)
    quad = h * (m.h_cond * float(dtheta @ dtheta) + m.m_rr_rate * float(dm @ dm))
    return op.time_sign * quad


def reference_e2_e3(op, x):
    m, h = op.moduli, op.grid.h
    u, v, tau, theta, r, mm = x.reshape(6, -1)
    du = staggered_difference(u, h)
    dtau = staggered_difference(tau, h)
    dr = staggered_difference(r, h)
    e2 = 0.5 * h * (
        m.rho * float(v @ v)
        - m.c_cap * float(theta @ theta)
        - m.alpha_m * float(mm @ mm)
        + m.m_uu * float(du @ du)
        - m.k_cond * float(dtau @ dtau)
        - m.m_rr * float(dr @ dr)
    )
    # tau sampled at interval midpoints to pair with the staggered u'
    tau_mid = np.empty(tau.size + 1)
    tau_mid[0] = 0.5 * tau[0]
    tau_mid[1:-1] = 0.5 * (tau[1:] + tau[:-1])
    tau_mid[-1] = 0.5 * tau[-1]
    e3 = h * (
        m.rho * float(u @ v)
        - m.c_cap * float(theta @ tau)
        - m.alpha_m * float(mm @ r)
        + 0.5 * m.h_cond * float(dtau @ dtau)
        + 0.5 * m.m_rr_rate * float(dr @ dr)
        + m.beta * float(tau_mid @ du)
    )
    return e2, e3


def energy_row(op, x):
    """The energy_table row of one stacked state, as a dict by column."""
    return dict(zip(FORMS, energy_table(op, x[None])[0]))


class TestAgainstReferenceLoops:
    """The table-driven diagnostics against per-snapshot loops over the
    staggered-difference formulas they replace."""

    @pytest.fixture(params=[(16, "forward"), (16, "backward"),
                            (64, "forward"), (64, "backward")],
                    ids=lambda p: f"n{p[0]}-{p[1]}")
    def run(self, request, moduli3):
        n, direction = request.param
        assemble = assemble_operator if direction == "forward" else assemble_backward
        op = assemble(Grid1D(n_interior=n), moduli3)
        dt = 0.01 if direction == "forward" else 5e-5
        init = random_state(n, np.random.default_rng(n))
        return op, collect(op, init, dt, 30), dt

    def test_energy_terms_and_dissipation(self, run):
        op, states, _ = run
        table = energy_table(op, states)
        for row, s in zip(table, states):
            terms = reference_energy_terms(op, s)
            total = terms.sum()
            assert abs(row[0] - total) <= 1e-13 * total
            # every term but the coupling is a sum of squares
            for j in (0, 1, 2, 3, 5, 6):
                assert abs(row[1 + j] - terms[j]) <= 1e-13 * terms[j]
            assert abs(row[5] - terms[4]) <= 1e-13 * total
            d = reference_dissipation(op, s)
            assert abs(row[8] - d) <= 1e-13 * abs(d)

    def test_backward_functionals(self, run):
        op, states, dt = run
        f = functionals(states, dt, op)
        for e1, e2, e3, s in zip(f.e1, f.e2, f.e3, states):
            ref2, ref3 = reference_e2_e3(op, s)
            assert abs(e2 - ref2) <= 1e-13 * e1
            assert abs(e3 - ref3) <= 1e-13 * e1

    @pytest.mark.parametrize("sampling", ["midpoint", "trapezoid"])
    def test_energy_balance_residuals(self, run, sampling):
        op, states, dt = run
        if sampling == "midpoint":
            table, rates, _, _ = reduce_blocks([states], op, midpoints=True)
            got = balance_residuals(table, rates, dt)
        else:
            got = trapezoid_balance(energy_table(op, states), dt)
        energies = [reference_energy_terms(op, s).sum() for s in states]
        for k, (a, b) in enumerate(zip(states, states[1:])):
            if sampling == "midpoint":
                d = reference_dissipation(op, 0.5 * (a + b))
            else:
                d = 0.5 * (reference_dissipation(op, a) + reference_dissipation(op, b))
            expected = energies[k + 1] - energies[k] + dt * d
            assert abs(got[k] - expected) <= 1e-13 * energies[k]


class TestEnergyTable:
    def test_total_is_half_squared_gram_norm(self, op3):
        rng = np.random.default_rng(0)
        for _ in range(10):
            s = random_state(16, rng)
            total = energy_table(op3, s[None])[0, 0]
            assert math.isclose(total, 0.5 * gram_norm(op3, s) ** 2,
                                rel_tol=1e-14)

    def test_terms_sum_to_total(self, op3, op2):
        rng = np.random.default_rng(1)
        for op in (op3, op2):
            for _ in range(20):
                row = energy_table(op, random_state(16, rng)[None])[0]
                assert abs(row[0] - sum(row[1:8])) <= 1e-14 * abs(row[0])
                assert row[0] >= 0.0

    def test_single_node_temperature_oracle(self, op3, moduli3):
        n, h = 16, op3.grid.h
        s = np.zeros((6, n))
        s[FIELDS.index("theta"), 4] = 1.0
        b = energy_row(op3, s.ravel())
        assert b["thermal"] == 0.5 * moduli3.c_cap * h
        assert b["total"] == pytest.approx(b["thermal"], rel=1e-15)

    def test_elastic_sine_oracle(self, op3, moduli3):
        n, h = 16, op3.grid.h
        x = op3.grid.nodes
        s = np.zeros((6, n))
        s[FIELDS.index("u")] = np.sin(np.pi * x)
        mu = (4.0 / h ** 2) * np.sin(np.pi * h / 2.0) ** 2
        b = energy_row(op3, s.ravel())
        assert b["elastic"] == pytest.approx(moduli3.m_uu * mu / 4.0, rel=1e-13)
        assert b["elastic"] == pytest.approx(moduli3.m_uu * np.pi ** 2 / 4.0,
                                             rel=(np.pi * h) ** 2 / 12 * 2)

    def test_dimension_mismatch(self, op3):
        with pytest.raises(DimensionMismatch):
            energy_table(op3, np.zeros((1, 6 * 4)))
        with pytest.raises(DimensionMismatch):
            energy_table(op3, np.zeros(6 * 16))

    def test_series_matches_pointwise_energy(self, op3):
        states = collect(op3, sine_init(op3.grid), 0.01, 20)
        series = energy_table(op3, states)[:, 0]
        for val, snap in zip(series, states):
            assert val == energy_table(op3, snap[None])[0, 0]


class TestDissipationRate:
    def test_matches_generator_quadratic_form(self, op3, op3_back):
        rng = np.random.default_rng(2)
        for op in (op3, op3_back):
            a_mat, g_mat = generator_matrix(op), gram_matrix(op)
            for _ in range(20):
                u = random_state(16, rng)
                d = energy_table(op, u[None])[0, -1]
                quad = -float(u @ (g_mat @ (a_mat @ u)))
                scale = d + float(u @ (g_mat @ u))
                assert abs(d - quad) <= 1e-10 * scale

    def test_nonnegative_forward_and_type2_exact_zero(self, op3, op2):
        rng = np.random.default_rng(3)
        for _ in range(50):
            s = random_state(16, rng)
            assert energy_table(op3, s[None])[0, -1] >= 0.0
            assert energy_table(op2, s[None])[0, -1] == 0.0

    def test_sine_temperature_oracle(self, op3, moduli3):
        n, h = 16, op3.grid.h
        x = op3.grid.nodes
        s = np.zeros((6, n))
        s[FIELDS.index("theta")] = np.sin(np.pi * x)
        mu = (4.0 / h ** 2) * np.sin(np.pi * h / 2.0) ** 2
        d = energy_table(op3, s.reshape(1, -1))[0, -1]
        assert d == pytest.approx(moduli3.h_cond * mu / 2.0, rel=1e-13)
        assert d == pytest.approx(moduli3.h_cond * np.pi ** 2 / 2.0,
                                  rel=(np.pi * h) ** 2 / 12 * 2)

    def test_series_sign_follows_orientation(self, op3_back):
        states = collect(op3_back, sine_init(op3_back.grid), 5e-5, 10)
        series = energy_table(op3_back, states)[:, -1]
        assert (series[1:] < 0.0).all()  # time-reversed: production


class TestEnergyBalance:
    def test_midpoint_sampling_is_exact(self, op3):
        blocks = snapshot_blocks(op3, sine_init(op3.grid), 0.01, 100)
        table, rates, _, _ = reduce_blocks(blocks, op3, midpoints=True)
        resid = balance_residuals(table, rates, 0.01)
        assert np.abs(resid).max() <= 1e-13 * table[0, 0]

    def test_trapezoid_sampling_is_third_order(self, op3):
        init = sine_init(op3.grid)

        def constant(dt):
            n_steps = int(round(1.0 / dt))
            resid = trapezoid_balance(energy_table(op3, collect(op3, init, dt, n_steps)), dt)
            return np.abs(resid).max() / dt ** 3

        c1, c2 = constant(2e-3), constant(1e-3)
        assert 0.5 <= c2 / c1 <= 2.0


class TestDissipativityIdentity:
    @pytest.mark.parametrize("n", [16, 64, 256, 4096])
    @pytest.mark.parametrize("reference", [reference_type2, reference_type3])
    @pytest.mark.parametrize("assemble", [assemble_operator, assemble_backward])
    def test_holds_to_round_off(self, n, reference, assemble):
        op = assemble(Grid1D(n_interior=n), to_moduli_1d(reference()))
        assert dissipativity_residual(op) <= 1e-12

    def test_fails_for_a_generator_with_halved_conduction(self, op3, moduli3):
        # the energy and its dissipation form keep the true h_cond while
        # A damps at half of it; the spectrum still lies left of the axis
        halved = dataclasses.replace(moduli3, h_cond=0.5 * moduli3.h_cond)
        tampered = op3._replace(stencil=assemble_operator(op3.grid, halved).stencil)
        assert spectral_report(tampered).spectral_abscissa < 0.0
        assert dissipativity_residual(tampered) > 0.1

    def test_fails_for_a_one_sided_thermal_coupling(self, op3):
        # beta flipped in the theta row only: its v entries of the stencil
        stencil = op3.stencil.copy()
        stencil[:, FIELDS.index("theta"), FIELDS.index("v")] *= -1.0
        tampered = op3._replace(stencil=stencil)
        assert dissipativity_residual(tampered) > 1e-3


class TestSpectralReport:
    def test_type3_abscissa_and_margin(self, op3):
        rep = spectral_report(op3)
        assert rep.spectral_abscissa < 0.0
        assert dissipativity_residual(op3) <= 1e-12
        assert rep.eigenvalues.shape == (96,)

    def test_type2_spectrum_is_imaginary(self, op2):
        rep = spectral_report(op2)
        scale = np.abs(rep.eigenvalues).max()
        assert np.abs(rep.eigenvalues.real).max() <= 1e-10 * scale

    def test_eigenvalues_are_deterministic(self, op3):
        a = spectral_report(op3)
        b = spectral_report(op3)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)

    def test_decoupled_elastic_eigenvalues(self):
        import dataclasses
        mat = dataclasses.replace(reference_type2(), beta=0.0, gamma1=0.0,
                                  gamma2=0.0, varpi=0.0, hbar_c=0.0)
        grid = Grid1D(n_interior=16)
        op = assemble_operator(grid, to_moduli_1d(mat))
        rep = spectral_report(op)
        h = grid.h
        scale = np.abs(rep.eigenvalues).max()
        for k in range(1, 17):
            mu = (4.0 / h ** 2) * np.sin(k * np.pi * h / 2.0) ** 2
            target = 1j * np.sqrt(op.moduli.m_uu / op.moduli.rho * mu)
            for lam in (target, -target):
                assert np.abs(rep.eigenvalues - lam).min() <= 1e-10 * scale

    def test_size_limit(self, moduli3):
        op = assemble_operator(Grid1D(n_interior=501), moduli3)
        with pytest.raises(SizeLimit):
            spectral_report(op)

    @pytest.mark.parametrize("n, sizes", [(2, (6, 6)), (3, (10, 8)), (16, (48, 48)),
                                          (17, (52, 50))])
    def test_mirror_sector_sizes(self, n, sizes, moduli3):
        op = assemble_operator(Grid1D(n_interior=n), moduli3)
        assert tuple(b.shape for b in mirror_blocks(op.stencil, n)) == tuple(
            (k, k) for k in sizes)

    @pytest.mark.parametrize("n", [2, 3, 16, 17, 29, 256])
    @pytest.mark.parametrize("reference", [reference_type2, reference_type3])
    @pytest.mark.parametrize("assemble", [assemble_operator, assemble_backward])
    def test_scattered_blocks_equal_the_sparse_products(self, n, reference, assemble):
        op = assemble(Grid1D(n_interior=n), to_moduli_1d(reference()))
        got = mirror_blocks(op.stencil, n)
        want = product_mirror_blocks(generator_matrix(op), n)
        assert len(got) == len(want) == 2
        for block, oracle in zip(got, want):
            assert block.dtype == oracle.dtype and block.shape == oracle.shape
            assert block.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("n", [2, 3, 16, 17, 64])
    @pytest.mark.parametrize("reference", [reference_type2, reference_type3])
    @pytest.mark.parametrize("assemble", [assemble_operator, assemble_backward])
    def test_split_matches_the_full_eigensolve(self, n, reference, assemble):
        op = assemble(Grid1D(n_interior=n), to_moduli_1d(reference()))
        full = np.linalg.eigvals(generator_matrix(op).toarray())
        split = spectral_report(op).eigenvalues
        assert root_set_distance(split, full) <= 1e-12 * np.abs(full).max()

    def test_mirror_asymmetric_generator_is_refused(self, op3):
        # the u Laplacian of the v row changed on the left neighbour (node
        # 0 of node 1's row) but not on the right one, its mirror
        n = op3.n
        tampered = with_entry(op3, n + 1, 0, 1.5 * generator_matrix(op3)[n + 1, 0])
        with pytest.raises(EigenFailure, match="node reversal"):
            spectral_report(tampered)

    @pytest.mark.parametrize("n", [16, 17])
    def test_mirror_signs_are_checked_with_the_pattern(self, n, moduli3):
        # the v row's centered theta gradient made symmetric: the same
        # sparsity pattern under the mirror, but J |D| J = |D| where the
        # odd theta needs J D J = -D
        op = assemble_operator(Grid1D(n_interior=n), moduli3)
        stencil = op.stencil.copy()
        v, theta = FIELDS.index("v"), FIELDS.index("theta")
        stencil[:, v, theta] = np.abs(stencil[:, v, theta])
        with pytest.raises(EigenFailure, match="node reversal"):
            mirror_blocks(stencil, n)
        with pytest.raises(EigenFailure, match="node reversal"):
            product_mirror_blocks(blocks_matrix(node_blocks(stencil, n)), n)

    @pytest.mark.filterwarnings("error::pytest.PytestUnhandledThreadExceptionWarning")
    def test_eigensolver_failure_is_wrapped(self, op3, monkeypatch):
        def boom(_):
            raise np.linalg.LinAlgError("did not converge")
        monkeypatch.setattr(np.linalg, "eigvals", boom)
        with pytest.raises(EigenFailure):
            spectral_report(op3)


# the two least grids solved on two threads, one even and one odd n
LEAST_THREADED = math.ceil(diagnostics._THREADED_SECTORS / 6)
THREADED_N = (LEAST_THREADED, LEAST_THREADED + 1)


@pytest.mark.filterwarnings("error::pytest.PytestUnhandledThreadExceptionWarning")
class TestThreadedSectors:
    """From 6n = _THREADED_SECTORS up, the -1 sector is solved on one
    worker thread; the eigenvalues are those of the sequential solves,
    and no thread outlives the call."""

    @pytest.fixture(scope="class", params=[(n, reference) for n in THREADED_N
                                           for reference in (reference_type2, reference_type3)],
                    ids=lambda p: f"{p[1].__name__}-n{p[0]}")
    def big_op(self, request):
        n, reference = request.param
        return assemble_operator(Grid1D(n_interior=n), to_moduli_1d(reference()))

    def test_eigenvalues_equal_the_sequential_solves(self, big_op):
        lams = np.concatenate([np.linalg.eigvals(block)
                               for block in mirror_blocks(big_op.stencil, big_op.n)])
        lams = lams[np.lexsort((lams.imag, lams.real))]
        assert np.array_equal(spectral_report(big_op).eigenvalues, lams)
        assert other_threads() == []

    @pytest.mark.parametrize("n", [THREADED_N[0] - 1, *THREADED_N])
    def test_one_worker_solves_the_minus_sector(self, n, moduli3, monkeypatch):
        calls = []

        def record(block):
            calls.append((len(block), threading.current_thread()))
            return np.zeros(len(block), dtype=complex)

        op = assemble_operator(Grid1D(n_interior=n), moduli3)
        monkeypatch.setattr(np.linalg, "eigvals", record)
        spectral_report(op)
        main, plus, minus = threading.main_thread(), 3 * n + n % 2, 3 * n - n % 2
        if 6 * n < diagnostics._THREADED_SECTORS:
            assert calls == [(plus, main), (minus, main)]
        else:
            assert len(calls) == 2
            assert {(size, t is main) for size, t in calls} == {(plus, True), (minus, False)}
            assert not any(t.is_alive() for _, t in calls if t is not main)
        assert other_threads() == []

    @pytest.mark.parametrize("failing", ["calling", "worker"])
    def test_a_failing_sector_is_an_eigen_failure(self, big_op, failing, monkeypatch):
        def flaky(block):
            on_worker = threading.current_thread() is not threading.main_thread()
            if on_worker == (failing == "worker"):
                raise np.linalg.LinAlgError("did not converge")
            return np.zeros(len(block), dtype=complex)

        monkeypatch.setattr(np.linalg, "eigvals", flaky)
        with pytest.raises(EigenFailure, match="did not converge"):
            spectral_report(big_op)
        assert other_threads() == []


def decay_fit(op, init, dt, n_steps, every):
    """fit_decay of the energies of a strided run."""
    energies = energy_table(op, collect(op, init, dt, n_steps, every))[:, 0]
    return fit_decay(snapshot_times(dt, n_steps, every), energies)


class TestFitDecay:
    def test_type3_rate_negative_with_window(self, op3):
        fit = decay_fit(op3, sine_init(op3.grid), 0.01, 1000, 10)
        assert fit.rate < 0.0
        assert fit.window[0] <= fit.rate <= fit.window[1]
        assert fit.n_points >= 10
        assert fit.time_to_fraction(0.01) > 0.0

    def test_type2_rate_vanishes(self, op2):
        fit = decay_fit(op2, sine_init(op2.grid), 0.01, 1000, 10)
        assert abs(fit.rate) <= 1e-8
        with pytest.raises(ValueError):
            fit.time_to_fraction(0.01)

    def test_degenerate_and_short_trajectories(self, op3):
        with pytest.raises(ValueError, match="initial energy is zero"):
            decay_fit(op3, np.zeros(6 * 16), 0.01, 20, 1)
        with pytest.raises(ValueError, match="at least 10"):
            decay_fit(op3, sine_init(op3.grid), 0.01, 5, 1)

    def test_fraction_domain(self, op3):
        fit = decay_fit(op3, sine_init(op3.grid), 0.01, 200, 10)
        with pytest.raises(ValueError):
            fit.time_to_fraction(1.5)


class TestBackwardFunctionals:
    def test_zero_trajectory_all_vanish(self, op3_back):
        f = functionals(collect(op3_back, np.zeros(6 * 16), 5e-5, 20), 5e-5, op3_back)
        assert not f.e1.any() and not f.e2.any() and not f.e3.any()
        assert not f.cal_e.any()
        assert f.gronwall_k == 0.0

    def test_e1_is_bitwise_energy(self, op3_back):
        states = collect(op3_back, sine_init(op3_back.grid), 5e-5, 50)
        f = functionals(states, 5e-5, op3_back)
        for val, snap in zip(f.e1, states):
            assert val == energy_table(op3_back, snap[None])[0, 0]

    def test_e1_e2_recombination(self, op3_back):
        # E1 = E2 + (c theta^2 + alpha M^2 + K tau'^2 + m_rr R'^2
        #            + m_ur cross) quadrature, restated per state
        rng = np.random.default_rng(4)
        for _ in range(20):
            s = random_state(16, rng)
            f = functionals(s[None], 1.0, op3_back)
            b = energy_row(op3_back, s)
            twice = 2.0 * (b["thermal"] + b["microthermal"]
                           + b["tau_gradient"] + b["r_gradient"])
            recombined = f.e2[0] + twice + b["coupling"]
            assert abs(f.e1[0] - recombined) <= 1e-14 * abs(f.e1[0])

    def test_positivity_and_gronwall_envelope(self, op3_back):
        f = functionals(collect(op3_back, sine_init(op3_back.grid), 5e-5, 200), 5e-5,
                        op3_back)
        assert (f.cal_e[1:] > 0.0).all()
        assert math.isfinite(f.gronwall_k)
        t0, c0 = f.times[1], f.cal_e[1]
        bound = c0 * np.exp(4.0 * f.gronwall_k * (f.times[1:] - t0))
        assert (f.cal_e[1:] <= bound * (1 + 1e-9)).all()

    def test_indefinite_pairs_rejected(self, op3_back, op2_back):
        states = collect(op3_back, sine_init(op3_back.grid), 5e-5, 10)
        with pytest.raises(IndefiniteForm):
            functionals(states, 5e-5, op3_back, eps=0.5, lam=0.1)
        states2 = collect(op2_back, sine_init(op2_back.grid), 0.01, 10)
        # conservative moduli admit no valid pair: rate coefficients vanish
        with pytest.raises(IndefiniteForm):
            functionals(states2, 0.01, op2_back)

    def test_parameter_domains(self, op3_back):
        states = collect(op3_back, sine_init(op3_back.grid), 5e-5, 10)
        with pytest.raises(ValueError):
            functionals(states, 5e-5, op3_back, eps=1.5)
        with pytest.raises(ValueError):
            functionals(states, 5e-5, op3_back, lam=-1.0)


class TestLocalizationProbe:
    @staticmethod
    def probe(op, op_bwd, init, dt, n_steps):
        table, _, first, last = reduce_blocks(snapshot_blocks(op, init, dt, n_steps), op)
        return localization_probe(op_bwd, first, last, dt, table[:, 0])

    def test_trivial_zero_data_flagged(self, op2, op2_back):
        probe = self.probe(op2, op2_back, np.zeros(6 * 16), 0.01, 10)
        assert probe.trivial
        assert math.isnan(probe.min_energy_ratio)
        assert probe.round_trip_error == 0.0

    def test_type2_round_trip_certified(self, op2, op2_back):
        probe = self.probe(op2, op2_back, sine_init(op2.grid), 0.01, 400)
        assert not probe.trivial
        assert probe.energy_positive
        assert probe.min_energy_ratio == pytest.approx(1.0, abs=1e-10)
        assert probe.round_trip_error <= 1e-8

    def test_type3_energy_stays_positive(self, op3, op3_back):
        probe = self.probe(op3, op3_back, sine_init(op3.grid), 0.01, 400)
        assert probe.energy_positive
        assert 0.0 < probe.min_energy_ratio < 1.0
        # the reversed run amplifies beyond float range; recorded, not raised
        assert probe.round_trip_error == math.inf

    def test_zero_steps_round_trip_is_exact(self, op3, op3_back):
        # one energy, no step: the reversed run is the flipped state alone
        probe = self.probe(op3, op3_back, sine_init(op3.grid), 0.01, 0)
        assert not probe.trivial and probe.energy_positive
        assert probe.min_energy_ratio == 1.0
        assert probe.round_trip_error == 0.0

    def test_failed_reversed_run_records_inf(self, op2, op2_back, monkeypatch):
        # the reversed run is drawn inside the probe's guard
        def failing(*args, **kwargs):
            raise SolveFailure("reversed step missed the guard")
            yield

        monkeypatch.setattr(diagnostics, "snapshot_blocks", failing)
        probe = self.probe(op2, op2_back, sine_init(op2.grid), 0.01, 10)
        assert probe.energy_positive and probe.round_trip_error == math.inf
