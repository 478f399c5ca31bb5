import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp

from microtherm import (DegenerateTrajectory, DimensionMismatch, EigenFailure,
                        Grid1D, IndefiniteForm, SizeLimit,
                        State1D, Trajectory, assemble_backward,
                        assemble_operator, backward_functionals,
                        energy, energy_balance_residuals,
                        energy_series, energy_table, fit_decay,
                        localization_probe, reference_type2, reference_type3,
                        run_forward, spectral_report, to_moduli_1d)
from microtherm.diagnostics import dissipativity_residual

from conftest import gram_norm, random_state, sine_init, staggered_difference


def single_state_trajectory(s: State1D) -> Trajectory:
    return Trajectory(times=np.array([0.0]), states=s.to_vector()[None], dt=1.0)


def reference_energy_terms(op, s):
    """The seven energy terms by per-state staggered differences."""
    m, h = op.moduli, op.grid.h
    du = staggered_difference(s.u, h)
    dtau = staggered_difference(s.tau, h)
    dr = staggered_difference(s.r, h)
    return np.array([
        0.5 * h * m.rho * float(s.v @ s.v),
        0.5 * h * m.c_cap * float(s.theta @ s.theta),
        0.5 * h * m.alpha_m * float(s.m @ s.m),
        0.5 * h * m.m_uu * float(du @ du),
        h * m.m_ur * float(du @ dr),
        0.5 * h * m.k_cond * float(dtau @ dtau),
        0.5 * h * m.m_rr * float(dr @ dr),
    ])


def reference_dissipation(op, s):
    m, h = op.moduli, op.grid.h
    dtheta = staggered_difference(s.theta, h)
    dm = staggered_difference(s.m, h)
    quad = h * (m.h_cond * float(dtheta @ dtheta) + m.m_rr_rate * float(dm @ dm))
    return op.time_sign * quad


def reference_e2_e3(op, s):
    m, h = op.moduli, op.grid.h
    du = staggered_difference(s.u, h)
    dtau = staggered_difference(s.tau, h)
    dr = staggered_difference(s.r, h)
    e2 = 0.5 * h * (
        m.rho * float(s.v @ s.v)
        - m.c_cap * float(s.theta @ s.theta)
        - m.alpha_m * float(s.m @ s.m)
        + m.m_uu * float(du @ du)
        - m.k_cond * float(dtau @ dtau)
        - m.m_rr * float(dr @ dr)
    )
    # tau sampled at interval midpoints to pair with the staggered u'
    tau_mid = np.empty(s.n + 1)
    tau_mid[0] = 0.5 * s.tau[0]
    tau_mid[1:-1] = 0.5 * (s.tau[1:] + s.tau[:-1])
    tau_mid[-1] = 0.5 * s.tau[-1]
    e3 = h * (
        m.rho * float(s.u @ s.v)
        - m.c_cap * float(s.theta @ s.tau)
        - m.alpha_m * float(s.m @ s.r)
        + 0.5 * m.h_cond * float(dtau @ dtau)
        + 0.5 * m.m_rr_rate * float(dr @ dr)
        + m.beta * float(tau_mid @ du)
    )
    return e2, e3


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
        return op, run_forward(op, init, dt, 30)

    def test_energy_terms_and_dissipation(self, run):
        op, traj = run
        table = energy_table(traj, op)
        for row, s in zip(table, traj):
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
        op, traj = run
        f = backward_functionals(traj, op)
        for e1, e2, e3, s in zip(f.e1, f.e2, f.e3, traj):
            ref2, ref3 = reference_e2_e3(op, s)
            assert abs(e2 - ref2) <= 1e-13 * e1
            assert abs(e3 - ref3) <= 1e-13 * e1

    @pytest.mark.parametrize("sampling", ["midpoint", "trapezoid"])
    def test_energy_balance_residuals(self, run, sampling):
        op, traj = run
        got = energy_balance_residuals(traj, op, energy_table(traj, op), sampling=sampling)
        snaps = list(traj)
        energies = [reference_energy_terms(op, s).sum() for s in snaps]
        for k, (a, b) in enumerate(zip(snaps, snaps[1:])):
            if sampling == "midpoint":
                mid = State1D.from_vector(0.5 * (a.to_vector() + b.to_vector()))
                d = reference_dissipation(op, mid)
            else:
                d = 0.5 * (reference_dissipation(op, a) + reference_dissipation(op, b))
            expected = energies[k + 1] - energies[k] + traj.dt * d
            assert abs(got[k] - expected) <= 1e-13 * energies[k]


class TestEnergyBreakdown:
    def test_total_is_half_squared_gram_norm(self, op3):
        rng = np.random.default_rng(0)
        for _ in range(10):
            s = random_state(16, rng)
            b = energy(op3, s)
            assert math.isclose(b.total, 0.5 * gram_norm(op3, s) ** 2,
                                rel_tol=1e-14)

    def test_terms_sum_to_total(self, op3, op2):
        rng = np.random.default_rng(1)
        for op in (op3, op2):
            for _ in range(20):
                b = energy(op, random_state(16, rng))
                assert abs(b.total - sum(b.terms)) <= 1e-14 * abs(b.total)
                assert b.total >= 0.0

    def test_single_node_temperature_oracle(self, op3, moduli3):
        n, h = 16, op3.grid.h
        theta = np.zeros(n)
        theta[4] = 1.0
        s = State1D(np.zeros(n), np.zeros(n), np.zeros(n), theta,
                    np.zeros(n), np.zeros(n))
        b = energy(op3, s)
        assert b.thermal == 0.5 * moduli3.c_cap * h
        assert b.total == pytest.approx(b.thermal, rel=1e-15)

    def test_elastic_sine_oracle(self, op3, moduli3):
        n, h = 16, op3.grid.h
        x = op3.grid.nodes
        s = State1D(np.sin(np.pi * x), np.zeros(n), np.zeros(n), np.zeros(n),
                    np.zeros(n), np.zeros(n))
        mu = (4.0 / h ** 2) * np.sin(np.pi * h / 2.0) ** 2
        b = energy(op3, s)
        assert b.elastic == pytest.approx(moduli3.m_uu * mu / 4.0, rel=1e-13)
        assert b.elastic == pytest.approx(moduli3.m_uu * np.pi ** 2 / 4.0,
                                          rel=(np.pi * h) ** 2 / 12 * 2)

    def test_dimension_mismatch(self, op3):
        with pytest.raises(DimensionMismatch):
            energy(op3, State1D.zeros(4))

    def test_series_matches_pointwise_energy(self, op3):
        traj = run_forward(op3, sine_init(op3.grid), 0.01, 20)
        series = energy_series(traj, op3)
        for val, snap in zip(series, traj):
            assert val == energy(op3, snap).total


class TestDissipationRate:
    def test_matches_generator_quadratic_form(self, op3, op3_back):
        rng = np.random.default_rng(2)
        for op in (op3, op3_back):
            for _ in range(20):
                s = random_state(16, rng)
                u = s.to_vector()
                d = energy(op, s).dissipation_rate
                quad = -float(u @ (op.g_mat @ (op.a_mat @ u)))
                scale = d + float(u @ (op.g_mat @ u))
                assert abs(d - quad) <= 1e-10 * scale

    def test_nonnegative_forward_and_type2_exact_zero(self, op3, op2):
        rng = np.random.default_rng(3)
        for _ in range(50):
            s = random_state(16, rng)
            assert energy(op3, s).dissipation_rate >= 0.0
            assert energy(op2, s).dissipation_rate == 0.0

    def test_sine_temperature_oracle(self, op3, moduli3):
        n, h = 16, op3.grid.h
        x = op3.grid.nodes
        s = State1D(np.zeros(n), np.zeros(n), np.zeros(n), np.sin(np.pi * x),
                    np.zeros(n), np.zeros(n))
        mu = (4.0 / h ** 2) * np.sin(np.pi * h / 2.0) ** 2
        d = energy(op3, s).dissipation_rate
        assert d == pytest.approx(moduli3.h_cond * mu / 2.0, rel=1e-13)
        assert d == pytest.approx(moduli3.h_cond * np.pi ** 2 / 2.0,
                                  rel=(np.pi * h) ** 2 / 12 * 2)

    def test_series_sign_follows_orientation(self, op3_back):
        traj = run_forward(op3_back, sine_init(op3_back.grid), 5e-5, 10)
        series = energy_table(traj, op3_back)[:, -1]
        assert (series[1:] < 0.0).all()  # time-reversed: production


class TestEnergyBalance:
    def test_midpoint_sampling_is_exact(self, op3):
        traj = run_forward(op3, sine_init(op3.grid), 0.01, 100)
        resid = energy_balance_residuals(traj, op3, energy_table(traj, op3))
        e0 = energy_series(traj, op3)[0]
        assert np.abs(resid).max() <= 1e-13 * e0

    def test_trapezoid_sampling_is_third_order(self, op3):
        init = sine_init(op3.grid)

        def constant(dt):
            n_steps = int(round(1.0 / dt))
            traj = run_forward(op3, init, dt, n_steps)
            resid = energy_balance_residuals(traj, op3, energy_table(traj, op3),
                                             sampling="trapezoid")
            return np.abs(resid).max() / dt ** 3

        c1, c2 = constant(2e-3), constant(1e-3)
        assert 0.5 <= c2 / c1 <= 2.0

    def test_unknown_sampling_rejected(self, op3):
        traj = run_forward(op3, sine_init(op3.grid), 0.01, 2)
        with pytest.raises(ValueError):
            energy_balance_residuals(traj, op3, energy_table(traj, op3),
                                     sampling="simpson")


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
        tampered = op3._replace(a_mat=assemble_operator(op3.grid, halved).a_mat)
        assert spectral_report(tampered).spectral_abscissa < 0.0
        assert dissipativity_residual(tampered) > 0.1

    def test_fails_for_a_one_sided_thermal_coupling(self, op3):
        # beta flipped in the theta row only
        n = op3.n
        a = op3.a_mat.toarray()
        a[3 * n:4 * n, n:2 * n] *= -1.0
        tampered = op3._replace(a_mat=sp.csr_matrix(a))
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

    def test_eigensolver_failure_is_wrapped(self, op3, monkeypatch):
        def boom(_):
            raise np.linalg.LinAlgError("did not converge")
        monkeypatch.setattr(np.linalg, "eigvals", boom)
        with pytest.raises(EigenFailure):
            spectral_report(op3)


class TestFitDecay:
    def test_type3_rate_negative_with_window(self, op3):
        traj = run_forward(op3, sine_init(op3.grid), 0.01, 1000, snapshot_every=10)
        fit = fit_decay(traj, op3)
        assert fit.rate < 0.0
        assert fit.window[0] <= fit.rate <= fit.window[1]
        assert fit.n_points >= 10
        assert fit.time_to_fraction(0.01) > 0.0

    def test_type2_rate_vanishes(self, op2):
        traj = run_forward(op2, sine_init(op2.grid), 0.01, 1000, snapshot_every=10)
        fit = fit_decay(traj, op2)
        assert abs(fit.rate) <= 1e-8
        with pytest.raises(ValueError):
            fit.time_to_fraction(0.01)

    def test_degenerate_and_short_trajectories(self, op3):
        zero = run_forward(op3, State1D.zeros(16), 0.01, 20)
        with pytest.raises(DegenerateTrajectory):
            fit_decay(zero, op3)
        short = run_forward(op3, sine_init(op3.grid), 0.01, 5)
        with pytest.raises(ValueError):
            fit_decay(short, op3)

    def test_fraction_domain(self, op3):
        traj = run_forward(op3, sine_init(op3.grid), 0.01, 200, snapshot_every=10)
        fit = fit_decay(traj, op3)
        with pytest.raises(ValueError):
            fit.time_to_fraction(1.5)


class TestBackwardFunctionals:
    def test_zero_trajectory_all_vanish(self, op3_back):
        traj = run_forward(op3_back, State1D.zeros(16), 5e-5, 20)
        f = backward_functionals(traj, op3_back)
        assert not f.e1.any() and not f.e2.any() and not f.e3.any()
        assert not f.cal_e.any()
        assert f.gronwall_k == 0.0

    def test_e1_is_bitwise_energy(self, op3_back):
        traj = run_forward(op3_back, sine_init(op3_back.grid), 5e-5, 50)
        f = backward_functionals(traj, op3_back)
        for val, snap in zip(f.e1, traj):
            assert val == energy(op3_back, snap).total

    def test_e1_e2_recombination(self, op3_back):
        # E1 = E2 + (c theta^2 + alpha M^2 + K tau'^2 + m_rr R'^2
        #            + m_ur cross) quadrature, restated per state
        rng = np.random.default_rng(4)
        for _ in range(20):
            s = random_state(16, rng)
            f = backward_functionals(single_state_trajectory(s), op3_back)
            b = energy(op3_back, s)
            recombined = f.e2[0] + 2.0 * (b.thermal + b.microthermal
                                          + b.tau_gradient + b.r_gradient) + b.coupling
            assert abs(f.e1[0] - recombined) <= 1e-14 * abs(f.e1[0])

    def test_positivity_and_gronwall_envelope(self, op3_back):
        traj = run_forward(op3_back, sine_init(op3_back.grid), 5e-5, 200)
        f = backward_functionals(traj, op3_back)
        assert (f.cal_e[1:] > 0.0).all()
        assert math.isfinite(f.gronwall_k)
        t0, c0 = f.times[1], f.cal_e[1]
        bound = c0 * np.exp(4.0 * f.gronwall_k * (f.times[1:] - t0))
        assert (f.cal_e[1:] <= bound * (1 + 1e-9)).all()

    def test_indefinite_pairs_rejected(self, op3_back, op2_back):
        traj = run_forward(op3_back, sine_init(op3_back.grid), 5e-5, 10)
        with pytest.raises(IndefiniteForm):
            backward_functionals(traj, op3_back, eps=0.5, lam=0.1)
        traj2 = run_forward(op2_back, sine_init(op2_back.grid), 0.01, 10)
        # conservative moduli admit no valid pair: rate coefficients vanish
        with pytest.raises(IndefiniteForm):
            backward_functionals(traj2, op2_back)

    def test_parameter_domains(self, op3_back):
        traj = run_forward(op3_back, sine_init(op3_back.grid), 5e-5, 10)
        with pytest.raises(ValueError):
            backward_functionals(traj, op3_back, eps=1.5)
        with pytest.raises(ValueError):
            backward_functionals(traj, op3_back, lam=-1.0)


class TestLocalizationProbe:
    @staticmethod
    def probe(op, op_bwd, init, dt, n_steps):
        traj = run_forward(op, init, dt, n_steps)
        return localization_probe(op_bwd, traj, energy_series(traj, op))

    def test_trivial_zero_data_flagged(self, op2, op2_back):
        probe = self.probe(op2, op2_back, State1D.zeros(16), 0.01, 10)
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

    def test_rejects_strided_run(self, op2, op2_back):
        traj = run_forward(op2, sine_init(op2.grid), 0.01, 10, snapshot_every=2)
        with pytest.raises(ValueError, match="every-step run"):
            localization_probe(op2_back, traj, energy_series(traj, op2))

    def test_rejects_energies_of_another_length(self, op2, op2_back):
        traj = run_forward(op2, sine_init(op2.grid), 0.01, 10)
        with pytest.raises(DimensionMismatch):
            localization_probe(op2_back, traj, energy_series(traj, op2)[:-1])
