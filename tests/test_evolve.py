import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from microtherm import (DimensionMismatch, Grid1D, NonFinite,
                        SolveFailure, State1D, Trajectory, assemble_backward,
                        assemble_operator, energy_series, reference_type2,
                        reference_type3, run_forward, time_reversal,
                        to_moduli_1d)
from microtherm.evolve import MidpointStepper, _field_major, _node_major

from conftest import gram_norm, random_state, sine_init


def decoupled_elastic_moduli():
    """All couplings zero: the displacement pair evolves alone."""
    import dataclasses
    m = dataclasses.replace(reference_type2(), beta=0.0, gamma1=0.0,
                            gamma2=0.0, varpi=0.0, hbar_c=0.0)
    return to_moduli_1d(m)


class TestState1D:
    def test_round_trip_state(self):
        rng = np.random.default_rng(0)
        s = random_state(6, rng)
        copy = State1D(s.u, s.v, s.tau, s.theta, s.r, s.m)
        assert copy.n == 6
        assert np.array_equal(State1D.from_vector(copy.to_vector()).to_vector(),
                              s.to_vector())

    def test_rejects_ragged_and_nonfinite(self):
        with pytest.raises(DimensionMismatch):
            State1D(np.zeros(3), np.zeros(4), np.zeros(3),
                    np.zeros(3), np.zeros(3), np.zeros(3))
        with pytest.raises(NonFinite):
            State1D(np.array([np.nan, 0.0]), np.zeros(2), np.zeros(2),
                    np.zeros(2), np.zeros(2), np.zeros(2))
        with pytest.raises(NonFinite):
            State1D.from_vector(np.r_[np.zeros(11), np.inf])


class TestTrajectory:
    def test_times_and_snapshot_spacing(self, op2):
        init = sine_init(op2.grid)
        traj = run_forward(op2, init, 0.01, 20, snapshot_every=5)
        assert len(traj) == 5
        assert np.allclose(traj.times, [0.0, 0.05, 0.10, 0.15, 0.20])
        assert traj.states.shape == (5, 96)
        assert np.array_equal(traj[2].to_vector(), traj.states[2])

    def test_zero_steps_keeps_initial_state_only(self, op2):
        traj = run_forward(op2, sine_init(op2.grid), 0.01, 0)
        assert len(traj) == 1 and traj.times[0] == 0.0

    def test_validation_errors(self, op2):
        init = sine_init(op2.grid)
        with pytest.raises(ValueError):
            run_forward(op2, init, 0.01, -1)
        with pytest.raises(ValueError):
            run_forward(op2, init, 0.01, 10, snapshot_every=3)
        with pytest.raises(DimensionMismatch):
            run_forward(op2, State1D.zeros(8), 0.01, 10)
        with pytest.raises(ValueError):
            Trajectory(times=np.array([0.0, 0.0]), states=np.zeros((2, 24)),
                       dt=0.01)
        with pytest.raises(DimensionMismatch):
            Trajectory(times=np.array([0.0, 0.1]), states=np.zeros((3, 24)),
                       dt=0.1)


class TestMidpointStructure:
    def test_type2_conservation_long_run(self):
        grid = Grid1D(n_interior=32)
        op = assemble_operator(grid, to_moduli_1d(reference_type2()))
        traj = run_forward(op, sine_init(grid), 1e-3, 1000, snapshot_every=10)
        energies = energy_series(traj, op)
        drift = np.abs(energies - energies[0]).max() / energies[0]
        assert drift <= 1e-10

    def test_type3_monotone_decay(self):
        grid = Grid1D(n_interior=32)
        op = assemble_operator(grid, to_moduli_1d(reference_type3()))
        traj = run_forward(op, sine_init(grid), 1e-3, 1000, snapshot_every=10)
        energies = energy_series(traj, op)
        assert (np.diff(energies) <= 1e-12 * energies[0]).all()

    def test_linearity(self, op3):
        rng = np.random.default_rng(11)
        s1, s2 = random_state(16, rng), random_state(16, rng)
        a, b = 0.7, -1.3
        combo = State1D.from_vector(a * s1.to_vector() + b * s2.to_vector())
        out = {}
        for tag, s in (("s1", s1), ("s2", s2), ("combo", combo)):
            traj = run_forward(op3, s, 0.02, 50)
            out[tag] = traj.states[-1]
        lhs = out["combo"]
        rhs = a * out["s1"] + b * out["s2"]
        assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(rhs).max()

    def test_kinematic_consistency(self, op3):
        # the midpoint update gives u+ - u = dt/2 (v + v+) identically,
        # and likewise for (tau, theta) and (R, M)
        traj = run_forward(op3, sine_init(op3.grid), 0.02, 10)
        dt = traj.dt
        snaps = list(traj)
        for a, b in zip(snaps, snaps[1:]):
            scale = max(np.abs(b.to_vector()).max(), 1.0)
            for disp, rate in (("u", "v"), ("tau", "theta"), ("r", "m")):
                lhs = getattr(b, disp) - getattr(a, disp)
                rhs = 0.5 * dt * (getattr(a, rate) + getattr(b, rate))
                assert np.abs(lhs - rhs).max() <= 1e-12 * scale

    def test_matches_dense_matrix_exponential(self, moduli3):
        grid = Grid1D(n_interior=8)
        op = assemble_operator(grid, moduli3)
        init = sine_init(grid)
        t_final = 0.4
        dense = scipy.linalg.expm(t_final * op.a_mat.toarray())
        expected = dense @ init.to_vector()

        def endpoint_error(dt):
            n_steps = int(round(t_final / dt))
            traj = run_forward(op, init, dt, n_steps, snapshot_every=n_steps)
            return np.abs(traj.states[-1] - expected).max()

        e1, e2 = endpoint_error(4e-3), endpoint_error(2e-3)
        assert e2 < e1 < 1e-2
        assert np.log2(e1 / e2) >= 1.9

    def test_decoupled_mode_is_discrete_oscillator(self):
        grid = Grid1D(n_interior=16)
        op = assemble_operator(grid, decoupled_elastic_moduli())
        x = grid.nodes
        h = grid.h
        init = State1D(u=np.sin(np.pi * x), v=np.zeros(16),
                       tau=np.zeros(16), theta=np.zeros(16),
                       r=np.zeros(16), m=np.zeros(16))
        mu = (4.0 / h ** 2) * np.sin(np.pi * h / 2.0) ** 2
        omega = np.sqrt(op.moduli.m_uu / op.moduli.rho * mu)

        def endpoint_error(dt):
            n_steps = int(round(1.0 / dt))
            traj = run_forward(op, init, dt, n_steps, snapshot_every=n_steps)
            expected = np.cos(omega * traj.times[-1]) * np.sin(np.pi * x)
            return np.abs(traj[-1].u - expected).max()

        e1, e2 = endpoint_error(2e-3), endpoint_error(1e-3)
        assert np.log2(e1 / e2) >= 1.9

    def test_rk4_cross_check(self, op3):
        init = sine_init(op3.grid)
        mid = run_forward(op3, init, 1e-3, 500, snapshot_every=500)
        # classical four-stage reference on the same generator
        a_mat, dt, vec = op3.a_mat, 1e-3, init.to_vector()
        for _ in range(500):
            k1 = a_mat @ vec
            k2 = a_mat @ (vec + 0.5 * dt * k1)
            k3 = a_mat @ (vec + 0.5 * dt * k2)
            k4 = a_mat @ (vec + dt * k3)
            vec = vec + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        diff = np.abs(mid.states[-1] - vec).max()
        assert diff <= 1e-3  # independent schemes, both at least 2nd order


def with_entry(op, row, col, value):
    """op with a_mat[row, col] set to value."""
    a_mat = op.a_mat.tolil()
    a_mat[row, col] = value
    return op._replace(a_mat=a_mat.tocsr())


class TestBandedStepper:
    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("model", ["type2", "type3"])
    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_each_step_matches_dense_solve(self, n, model, direction):
        grid = Grid1D(n_interior=n)
        moduli = to_moduli_1d(reference_type2() if model == "type2"
                              else reference_type3())
        assemble = assemble_operator if direction == "forward" else assemble_backward
        op = assemble(grid, moduli)
        dt = 0.01 if direction == "forward" else 5e-5
        a_dense = op.a_mat.toarray()
        eye = np.eye(6 * n)
        lhs, rhs_mat = eye - 0.5 * dt * a_dense, eye + 0.5 * dt * a_dense
        traj = run_forward(op, sine_init(grid), dt, 20)
        for before, got in zip(traj.states, traj.states[1:]):
            expected = np.linalg.solve(lhs, rhs_mat @ before)
            assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_reversed_type3_run_stops_at_first_overflow(self, op3, op3_back):
        dt = 0.01
        fwd = run_forward(op3, sine_init(op3.grid), dt, 400, snapshot_every=400)
        turned = time_reversal(fwd[-1]).to_vector()
        stepper = MidpointStepper(op3_back, dt)
        kept = []
        with pytest.raises(NonFinite), np.errstate(over="ignore", invalid="ignore"):
            for x in stepper.states(_node_major(turned)):
                kept.append(x)
                assert len(kept) < 400
        assert kept and all(np.isfinite(x).all() for x in kept)
        # the next right-hand side is where the run leaves float range
        rhs = (sp.identity(6 * op3.n) + 0.5 * dt * op3_back.a_mat) \
            @ _field_major(kept[-1])
        with np.errstate(over="ignore"):
            assert not np.isfinite(rhs @ rhs)
        with pytest.raises(NonFinite), np.errstate(over="ignore", invalid="ignore"):
            run_forward(op3_back, State1D.from_vector(turned), dt, 400)


class TestSolverGuard:
    def test_singular_midpoint_matrix_raises(self, op2, grid16, moduli2):
        dt = 0.01
        size = 6 * grid16.n_interior
        degenerate = op2._replace(a_mat=sp.identity(size, format="csr") * (2.0 / dt))
        with pytest.raises(SolveFailure):
            MidpointStepper(degenerate, dt)

    def test_singular_reduced_matrix_raises(self, op2):
        # position rows [0 | I], rate rows [0 | 2/dt I]: C = 2/dt I
        # makes I - dt/2 C - dt^2/4 K vanish
        dt = 0.01
        a_mat = sp.kron(sp.identity(3), [[0.0, 1.0], [0.0, 2.0 / dt]])
        a_mat = sp.kron(a_mat, sp.identity(op2.n), format="csr")
        with pytest.raises(SolveFailure, match="factored"):
            MidpointStepper(op2._replace(a_mat=a_mat), dt)

    @pytest.mark.parametrize("row, col, value", [
        (0, 16, 2.0),    # du/dt = 2 v
        (0, 3, 1.0),     # du/dt picks up a displacement
        (32, 16, 0.5),   # dtau/dt picks up a velocity
        (36, 52, 0.0),   # dtau/dt loses its temperature
    ])
    def test_position_rows_must_be_zero_identity(self, op2, row, col, value):
        with pytest.raises(SolveFailure, match=r"\[0 \| I\]"):
            MidpointStepper(with_entry(op2, row, col, value), 0.01)

    def test_rate_rows_must_fit_the_band(self, op2):
        # dv/dt at node 0 coupled to u at node 3: outside kl = ku = 5
        with pytest.raises(SolveFailure, match="band"):
            MidpointStepper(with_entry(op2, 16, 3, 1.0), 0.01)

    def test_bad_dt_rejected(self, op2):
        with pytest.raises(ValueError):
            MidpointStepper(op2, 0.0)

    def test_single_step_runs_chain_to_a_long_run(self, op2):
        # run_forward(op, s, dt, 1) is the one-step entry point
        s = sine_init(op2.grid)
        long_form = run_forward(op2, s, 0.01, 3)
        for k in range(1, 4):
            s = State1D.from_vector(run_forward(op2, s, 0.01, 1).states[-1])
            assert np.array_equal(s.to_vector(), long_form.states[k])


class TestTimeReversal:
    def test_involution(self):
        rng = np.random.default_rng(12)
        s = random_state(5, rng)
        back = time_reversal(time_reversal(s))
        assert np.array_equal(back.to_vector(), s.to_vector())

    def test_round_trip_type2(self, op2, op2_back):
        init = sine_init(op2.grid)
        dt, n_steps = 0.01, 1000  # T = 10
        fwd = run_forward(op2, init, dt, n_steps, snapshot_every=n_steps)
        turned = time_reversal(fwd[-1])
        bwd = run_forward(op2_back, turned, dt, n_steps, snapshot_every=n_steps)
        recovered = time_reversal(bwd[-1]).to_vector()
        err = np.abs(recovered - init.to_vector()).max()
        assert err <= 1e-8

    def test_backward_energy_grows(self, op3_back):
        traj = run_forward(op3_back, sine_init(op3_back.grid), 5e-5, 100)
        energies = energy_series(traj, op3_back)
        assert (np.diff(energies) >= -1e-12 * energies[0]).all()
        assert energies[-1] > energies[0]

    def test_gram_norm_contraction_forward(self, op3):
        # dissipative semigroup: the G-norm never grows
        traj = run_forward(op3, sine_init(op3.grid), 0.01, 50)
        norms = [gram_norm(op3, s) for s in traj]
        assert (np.diff(norms) <= 1e-12 * norms[0]).all()
