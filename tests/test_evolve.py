import dataclasses

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from microtherm import (DimensionMismatch, Grid1D, NonFinite,
                        SolveFailure, assemble_backward,
                        assemble_operator, energy_table, reference_type2,
                        reference_type3, snapshot_blocks, snapshot_times,
                        time_reversal, to_moduli_1d)
from microtherm import evolve
from microtherm.discrete1d import node_blocks
from microtherm.evolve import MidpointStepper, _by_node

from conftest import (collect, field_major, fields, generator_matrix, gram_norm, node_major_csr,
                      random_state, sine_init, with_entry, with_generator)


def end_state(op, init, dt, n_steps) -> np.ndarray:
    """The state after n_steps midpoint steps from init."""
    return collect(op, init, dt, n_steps, max(n_steps, 1))[-1]


def drawn(chunks) -> np.ndarray:
    """The states of a stepper's chunks (MidpointStepper.states), each
    copied before the next draw overwrites it, as one (steps, 6n) array."""
    return np.concatenate([chunk.copy() for chunk in chunks])


def decoupled_elastic_moduli():
    """All couplings zero: the displacement pair evolves alone."""
    m = dataclasses.replace(reference_type2(), beta=0.0, gamma1=0.0,
                            gamma2=0.0, varpi=0.0, hbar_c=0.0)
    return to_moduli_1d(m)


class TestInitialState:
    """snapshot_blocks checks the stacked initial state at the call,
    before any step, and copies it."""

    @pytest.mark.parametrize("init, error", [
        (np.zeros(6 * 16 - 1), DimensionMismatch),
        (np.zeros(6 * 16 + 6), DimensionMismatch),
        (np.zeros((6, 16)), DimensionMismatch),
        (np.r_[np.nan, np.zeros(6 * 16 - 1)], NonFinite),
        (np.r_[np.zeros(6 * 16 - 1), np.inf], NonFinite),
        (np.r_[np.zeros(6 * 16 - 1), -np.inf], NonFinite),
    ], ids=["short", "long", "2-d", "nan", "inf", "-inf"])
    def test_bad_initial_state_raises_before_any_step(self, op2, monkeypatch, init, error):
        built = []
        monkeypatch.setattr(evolve, "MidpointStepper", lambda *args: built.append(args))
        with pytest.raises(error):
            snapshot_blocks(op2, init, 0.01, 10)
        assert not built

    def test_first_block_does_not_alias_the_initial_state(self, op2):
        init = sine_init(op2.grid)
        kept = init.copy()
        blocks = snapshot_blocks(op2, init, 0.01, 3)
        init[:] = 0.0  # a change after the call does not reach the run
        first = next(blocks)
        assert not np.shares_memory(first, init)
        assert np.array_equal(first[0], kept)
        first[0] = 1.0
        assert not init.any()
        assert np.array_equal(np.concatenate([first[1:], *blocks]),
                              collect(op2, kept, 0.01, 3)[1:])


class TestTrajectory:
    def test_times_and_snapshot_spacing(self, op2):
        init = sine_init(op2.grid)
        states = collect(op2, init, 0.01, 20, every=5)
        assert states.shape == (5, 96)
        assert np.allclose(snapshot_times(0.01, 20, 5), [0.0, 0.05, 0.10, 0.15, 0.20])
        assert np.array_equal(states[0], init)

    def test_zero_steps_keeps_initial_state_only(self, op2):
        assert len(collect(op2, sine_init(op2.grid), 0.01, 0)) == 1
        assert np.array_equal(snapshot_times(0.01, 0), [0.0])

    def test_validation_errors(self, op2):
        init = sine_init(op2.grid)
        with pytest.raises(ValueError):
            snapshot_blocks(op2, init, 0.01, -1)
        with pytest.raises(ValueError):
            snapshot_blocks(op2, init, 0.01, 10, snapshot_every=3)
        with pytest.raises(ValueError):
            snapshot_blocks(op2, init, 0.01, 10, snapshot_every=0)
        with pytest.raises(DimensionMismatch):
            snapshot_blocks(op2, np.zeros(6 * 8), 0.01, 10)


class TestMidpointStructure:
    def test_type2_conservation_long_run(self):
        grid = Grid1D(n_interior=32)
        op = assemble_operator(grid, to_moduli_1d(reference_type2()))
        energies = energy_table(op, collect(op, sine_init(grid), 1e-3, 1000, 10))[:, 0]
        drift = np.abs(energies - energies[0]).max() / energies[0]
        assert drift <= 1e-10

    def test_type3_monotone_decay(self):
        grid = Grid1D(n_interior=32)
        op = assemble_operator(grid, to_moduli_1d(reference_type3()))
        energies = energy_table(op, collect(op, sine_init(grid), 1e-3, 1000, 10))[:, 0]
        assert (np.diff(energies) <= 1e-12 * energies[0]).all()

    def test_linearity(self, op3):
        rng = np.random.default_rng(11)
        s1, s2 = random_state(16, rng), random_state(16, rng)
        a, b = 0.7, -1.3
        combo = a * s1 + b * s2
        out = {}
        for tag, s in (("s1", s1), ("s2", s2), ("combo", combo)):
            out[tag] = end_state(op3, s, 0.02, 50)
        lhs = out["combo"]
        rhs = a * out["s1"] + b * out["s2"]
        assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(rhs).max()

    def test_kinematic_consistency(self, op3):
        # the midpoint update gives u+ - u = dt/2 (v + v+) identically,
        # and likewise for (tau, theta) and (R, M)
        dt = 0.02
        snaps = collect(op3, sine_init(op3.grid), dt, 10)
        for x, y in zip(snaps, snaps[1:]):
            scale = max(np.abs(y).max(), 1.0)
            a, b = fields(x), fields(y)
            for disp, rate in (("u", "v"), ("tau", "theta"), ("r", "m")):
                lhs = b[disp] - a[disp]
                rhs = 0.5 * dt * (a[rate] + b[rate])
                assert np.abs(lhs - rhs).max() <= 1e-12 * scale

    def test_matches_dense_matrix_exponential(self, moduli3):
        grid = Grid1D(n_interior=8)
        op = assemble_operator(grid, moduli3)
        init = sine_init(grid)
        t_final = 0.4
        dense = scipy.linalg.expm(t_final * generator_matrix(op).toarray())
        expected = dense @ init

        def endpoint_error(dt):
            n_steps = int(round(t_final / dt))
            return np.abs(end_state(op, init, dt, n_steps) - expected).max()

        e1, e2 = endpoint_error(4e-3), endpoint_error(2e-3)
        assert e2 < e1 < 1e-2
        assert np.log2(e1 / e2) >= 1.9

    def test_decoupled_mode_is_discrete_oscillator(self):
        grid = Grid1D(n_interior=16)
        op = assemble_operator(grid, decoupled_elastic_moduli())
        x = grid.nodes
        h = grid.h
        init = np.zeros((6, 16))
        init[0] = np.sin(np.pi * x)
        init = init.ravel()
        mu = (4.0 / h ** 2) * np.sin(np.pi * h / 2.0) ** 2
        omega = np.sqrt(op.moduli.m_uu / op.moduli.rho * mu)

        def endpoint_error(dt):
            n_steps = int(round(1.0 / dt))
            expected = np.cos(omega * n_steps * dt) * np.sin(np.pi * x)
            return np.abs(fields(end_state(op, init, dt, n_steps))["u"] - expected).max()

        e1, e2 = endpoint_error(2e-3), endpoint_error(1e-3)
        assert np.log2(e1 / e2) >= 1.9

    def test_rk4_cross_check(self, op3):
        init = sine_init(op3.grid)
        mid = end_state(op3, init, 1e-3, 500)
        # classical four-stage reference on the same generator
        a_mat, dt, vec = generator_matrix(op3), 1e-3, init
        for _ in range(500):
            k1 = a_mat @ vec
            k2 = a_mat @ (vec + 0.5 * dt * k1)
            k3 = a_mat @ (vec + 0.5 * dt * k2)
            k4 = a_mat @ (vec + dt * k3)
            vec = vec + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        diff = np.abs(mid - vec).max()
        assert diff <= 1e-3  # independent schemes, both at least 2nd order


def make_stepper(model, n, dt, assemble=assemble_operator, lame=1.0):
    """The stepper of a reference material, with lambda_e = mu_e = lame."""
    material = reference_type2() if model == "type2" else reference_type3()
    moduli = to_moduli_1d(dataclasses.replace(material, lambda_e=lame, mu_e=lame))
    return MidpointStepper(assemble(Grid1D(n_interior=n), moduli), dt)


# the smallest grid above the dense-inverse limit: it takes the band solve
N_BAND = evolve._DENSE_STEP // 6 + 1


class TestBandedStepper:
    @pytest.mark.parametrize("n", [2, 3, 16, N_BAND - 1, 64])
    @pytest.mark.parametrize("model", ["type2", "type3"])
    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_each_step_matches_dense_solve(self, n, model, direction):
        grid = Grid1D(n_interior=n)
        moduli = to_moduli_1d(reference_type2() if model == "type2"
                              else reference_type3())
        assemble = assemble_operator if direction == "forward" else assemble_backward
        op = assemble(grid, moduli)
        dt = 0.01 if direction == "forward" else 5e-5
        a_dense = generator_matrix(op).toarray()
        eye = np.eye(6 * n)
        lhs, rhs_mat = eye - 0.5 * dt * a_dense, eye + 0.5 * dt * a_dense
        inv = np.linalg.inv(lhs) if 6 * n <= evolve._DENSE_STEP else None
        states = collect(op, sine_init(grid), dt, 20)
        for before, got in zip(states, states[1:]):
            expected = np.linalg.solve(lhs, rhs_mat @ before)
            assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)
            if inv is not None:
                # the step matrix's product is the solve-then-2y-x step
                # 2 (I - dt/2 A)^-1 x - x
                y = inv @ before
                solved = 2 * y - before
                assert np.linalg.norm(got - solved) <= 1e-13 * np.linalg.norm(solved)

    def test_reversed_type3_run_stops_at_first_overflow(self, op3, op3_back):
        dt = 0.01
        turned = time_reversal(end_state(op3, sine_init(op3.grid), dt, 400))
        stepper = MidpointStepper(op3_back, dt)
        chunks = []
        with pytest.raises(NonFinite), np.errstate(over="ignore", invalid="ignore"):
            for chunk in stepper.states(_by_node(turned), 400):
                chunks.append(chunk.copy())
        kept = np.concatenate(chunks)
        assert 0 < len(kept) < 400
        # the step from the last state yielded is where the run leaves
        # float range: its next state has no finite norm
        with np.errstate(over="ignore", invalid="ignore"):
            assert all(np.isfinite(x @ x) for x in kept)
            after = np.empty_like(kept[-1])
            stepper._step(kept[-1], after)
            assert not np.isfinite(after @ after)
        with pytest.raises(NonFinite), np.errstate(over="ignore", invalid="ignore"):
            collect(op3_back, turned, dt, 400)


class TestChunkGuard:
    """Each step is one product with the step matrix (dense path) or one
    solve (band path); the residuals of a chunk of steps are checked
    together, and only states of a passing chunk leave."""

    # lame = 1e8: a stiff material, whose relative residuals near 4e-8
    # are within the backward-error guard
    @pytest.mark.parametrize("lame", [1.0, 1e8])
    @pytest.mark.parametrize("n", [N_BAND, 512])
    def test_corrupted_upper_band_raises(self, n, lame):
        stepper = make_stepper("type3", n, 1e-3, lame=lame)
        lower, unit, inv_diag = stepper._triangular
        inv_diag = inv_diag.copy()
        # one entry of the kept 1/diag(U), that of v at a node where the
        # sine data's u is nonzero (the middle one at n = 29 is theta's,
        # which these data leave at round-off level by symmetry)
        inv_diag[3 * (n // 3)] *= 2.0
        stepper._triangular = (lower, unit, inv_diag)
        kept = []
        with pytest.raises(SolveFailure, match="residual"):
            for x in stepper.states(_by_node(sine_init(Grid1D(n_interior=n))), 40):
                kept.append(x.copy())
        assert not kept

    @pytest.mark.parametrize("n", [N_BAND, 512])
    def test_stored_upper_diagonal_row_is_never_read(self, n):
        # the unit upper factor's solve reads no diagonal: doubling the
        # row that stores it changes no state
        x0 = _by_node(sine_init(Grid1D(n_interior=n)))
        clean = drawn(make_stepper("type3", n, 1e-3).states(x0, 40))
        stepper = make_stepper("type3", n, 1e-3)
        lower, unit, inv_diag = stepper._triangular
        unit = unit.copy()
        unit[-1] *= 2.0
        stepper._triangular = (lower, unit, inv_diag)
        assert drawn(stepper.states(x0, 40)).tobytes() == clean.tobytes()

    # the rates' solve (its product h K x_pos) and the positions' solve
    # (-h C x_pos)
    @pytest.mark.parametrize("dt, positions", [(1e-3, False), (1e3, True)])
    @pytest.mark.parametrize("n", [N_BAND, 512])
    def test_corrupted_right_hand_side_is_refined_at_every_step(self, monkeypatch, n, dt,
                                                               positions):
        # a doubled entry of the product's matrix misses the guard at
        # every step; it raises no SolveFailure, because the refinement
        # solves for a residual whose position rows, y_pos - h y_rate -
        # x_pos, are round-off, so the doubled entry hardly enters the
        # correction, and the refined step passes
        monkeypatch.setattr(evolve, "_CHUNK", 1)
        x0 = _by_node(sine_init(Grid1D(n_interior=n)))
        clean = drawn(make_stepper("type3", n, dt).states(x0, 40))
        stepper = make_stepper("type3", n, dt)
        assert stepper._positions == positions
        rhs = stepper._rhs.copy()
        # the entry whose term of the product is largest on these data
        k = np.argmax(np.abs(rhs.data * x0[rhs.indices]))
        rhs.data[k] *= 2.0
        stepper._rhs, solve, calls = rhs, stepper._solve, []

        def counted(r, out):
            calls.append(1)
            return solve(r, out)

        stepper._solve = counted
        kept = drawn(stepper.states(x0, 40))
        assert len(calls) == 2 * 40  # the step's solve and its refinement
        err = np.abs(kept - clean).max(axis=1) / np.abs(clean).max(axis=1)
        assert err.max() <= 1e-11

    @pytest.mark.parametrize("lame", [1.0, 1e8])
    def test_corrupted_dense_inverse_raises(self, lame):
        n = 16
        stepper = make_stepper("type3", n, 1e-3, lame=lame)
        assert stepper._p is not None
        x0 = _by_node(sine_init(Grid1D(n_interior=n)))
        node = 6 * (n // 2)  # u at the middle node, where the sine data peak
        assert x0[node] != 0.0
        stepper._p = stepper._p.copy()
        stepper._p[node, node] *= 2.0
        # the refinement solves with the inverse the step matrix is made
        # of, P = 2 inv - I: corrupt both alike
        stepper._inv = (stepper._p + np.eye(6 * n)) / 2
        kept = []
        with pytest.raises(SolveFailure, match="residual"):
            for x in stepper.states(x0, 40):
                kept.append(x.copy())
        assert not kept

    @staticmethod
    def perturb(stepper, calls, shift, name="_step"):
        """Make stepper._step, the dense path's product out = P x, or
        stepper._solve add shift to its output on the calls numbered in
        calls (from 1), or on every call when calls is None."""
        method, count = getattr(stepper, name), [0]

        def perturbed(x, out):
            method(x, out)
            count[0] += 1
            if calls is None or count[0] in calls:
                out += shift
            return out

        setattr(stepper, name, perturbed)

    def test_one_perturbed_solve_is_refined(self, monkeypatch):
        n, n_steps = 16, 100
        x0 = _by_node(sine_init(Grid1D(n_interior=n)))
        shift = 1e-9 * np.linalg.norm(x0) * np.eye(x0.size)[7]
        # the perturbed step, a product with P (dense path) or a solve
        # (band path), misses the guard and is refined by the solve
        for limit, name in ((evolve._DENSE_STEP, "_step"), (0, "_solve")):
            monkeypatch.setattr(evolve, "_DENSE_STEP", limit)
            clean = drawn(make_stepper("type3", n, 1e-3).states(x0, n_steps))
            stepper = make_stepper("type3", n, 1e-3)
            self.perturb(stepper, {40}, shift, name)  # step 39, inside the second chunk
            kept = drawn(stepper.states(x0, n_steps))
            assert len(kept) == n_steps
            assert np.array_equal(kept[:39], clean[:39])
            # the state x_40 is the clean one to round-off ...
            assert np.linalg.norm(kept[39] - clean[39]) <= 1e-14 * np.linalg.norm(clean[39])
            # ... and the rest of the run steps on from it as a run from
            # x_40 does, by P on the dense path
            rest = drawn(make_stepper("type3", n, 1e-3).states(kept[39], n_steps - 40))
            assert np.array_equal(kept[40:], rest)

    def test_every_call_perturbed_raises(self):
        n = 16
        x0 = _by_node(sine_init(Grid1D(n_interior=n)))
        stepper = make_stepper("type3", n, 1e-3)
        assert stepper._p is not None
        shift = 1e-9 * np.linalg.norm(x0) * np.eye(x0.size)[7]
        self.perturb(stepper, None, shift)
        self.perturb(stepper, None, shift, "_solve")
        with pytest.raises(SolveFailure, match="residual"):
            list(stepper.states(x0, 10))

    def test_run_refined_at_every_step_makes_few_products(self):
        # at dt = 300 every dense step misses the guard and is refined by
        # the solve; the chunk after a refined step is one step, so the
        # run makes at most two products with P a step, not one chunk's
        n, n_steps = 16, 400
        stepper = make_stepper("type3", n, 300.0)
        assert stepper._p is not None
        calls = {"_step": 0, "_solve": 0}
        for name in calls:
            def counted(*args, _method=getattr(stepper, name), _name=name):
                calls[_name] += 1
                return _method(*args)

            setattr(stepper, name, counted)
        kept = drawn(stepper.states(_by_node(sine_init(Grid1D(n_interior=n))), n_steps))
        assert len(kept) == n_steps
        assert calls["_solve"] == n_steps  # one refinement a step
        assert calls["_step"] <= 2 * n_steps

    def test_stiff_dense_run_steps_by_p(self, monkeypatch):
        # lambda_e = mu_e = 1e4 puts |dt/2 A| near 1.7e5 (17 at the
        # reference): a read-back midpoint's residual, the states'
        # rounding times |dt/2 A|, is large, yet its backward error is
        # within the guard, so every step is one product with P and none
        # is refined by the solve
        grid = Grid1D(n_interior=16)
        op = assemble_operator(grid, to_moduli_1d(dataclasses.replace(
            reference_type3(), lambda_e=1e4, mu_e=1e4)))
        calls = {"_step": 0, "_solve": 0}
        for name in calls:
            method = getattr(MidpointStepper, name)

            def counted(self, *args, name=name, method=method):
                calls[name] += 1
                return method(self, *args)

            monkeypatch.setattr(MidpointStepper, name, counted)
        runs = []
        for chunk in (1, 7, 32):
            monkeypatch.setattr(evolve, "_CHUNK", chunk)
            runs.append(collect(op, sine_init(grid), 0.01, 400))
        assert calls == {"_step": 3 * 400, "_solve": 0}
        assert all(run.tobytes() == runs[0].tobytes() for run in runs[1:])
        energies = energy_table(op, runs[0])[:, 0]
        assert (np.diff(energies) <= 1e-12 * energies[0]).all()

    @pytest.mark.parametrize("model", ["type2", "type3"])
    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_states_do_not_depend_on_the_chunk(self, monkeypatch, model, direction):
        grid = Grid1D(n_interior=16)
        moduli = to_moduli_1d(reference_type2() if model == "type2" else reference_type3())
        assemble = assemble_operator if direction == "forward" else assemble_backward
        op = assemble(grid, moduli)
        dt = 0.01 if direction == "forward" else 5e-5
        runs = []
        for chunk in (1, 7, 32):
            monkeypatch.setattr(evolve, "_CHUNK", chunk)
            runs.append(collect(op, sine_init(grid), dt, 100))
        assert all(run.tobytes() == runs[0].tobytes() for run in runs[1:])

    @pytest.mark.parametrize("n_steps", [0, 1, 31, 32, 33, 400])
    @pytest.mark.parametrize("strided", [False, True], ids=["every", "last"])
    def test_one_solve_per_step_and_none_past_the_end(self, op3, monkeypatch,
                                                      n_steps, strided):
        calls = dict.fromkeys(("_step", "_solve", "_guard"), 0)
        for name in calls:
            method = getattr(MidpointStepper, name)

            def counted(self, *args, name=name, method=method):
                calls[name] += 1
                return method(self, *args)

            monkeypatch.setattr(MidpointStepper, name, counted)
        every = max(n_steps, 1) if strided else 1
        chunks = -(-n_steps // 32)
        # n = 16: one step product per step on the dense path, one solve
        # per step on the band path; one guard call per chunk of 32
        for limit, per_step in ((evolve._DENSE_STEP, "_step"), (0, "_solve")):
            monkeypatch.setattr(evolve, "_DENSE_STEP", limit)
            calls.update(dict.fromkeys(calls, 0))
            collect(op3, sine_init(op3.grid), 0.01, n_steps, every)
            assert calls == {"_step": 0, "_solve": 0, per_step: n_steps, "_guard": chunks}

    @pytest.mark.parametrize("limit", [evolve._DENSE_STEP, 0], ids=["dense", "band"])
    def test_one_row_refinement_through_the_padded_buffers(self, monkeypatch, limit):
        # a perturbed step is refined by the one-row guard call on the
        # padded rows of the chunk's buffers, whose ghost nodes stay zero
        monkeypatch.setattr(evolve, "_DENSE_STEP", limit)
        n, n_steps = 16, 40
        x0 = _by_node(sine_init(Grid1D(n_interior=n)))
        clean = drawn(make_stepper("type3", n, 1e-3).states(x0, n_steps))
        stepper = make_stepper("type3", n, 1e-3)
        shift = 1e-9 * np.linalg.norm(x0) * np.eye(x0.size)[7]
        self.perturb(stepper, {5}, shift, "_step" if limit else "_solve")
        guard, calls = stepper._guard, []

        def recorded(xs, ys, res):
            out = guard(xs, ys, res)
            assert ys.shape == res.shape == (len(xs) - 1, 6 * (n + 2))
            for rows in (ys, res):
                ghosts = rows.reshape(len(rows), n + 2, 6)[:, [0, -1]]
                assert not ghosts.any()
            calls.append((len(ys), bool(out[3].all())))
            return out

        stepper._guard = recorded
        kept = drawn(stepper.states(x0, n_steps))
        # the first chunk misses at its fifth step, the refinement's
        # one-row call passes, and the chunk after it is one step
        assert calls[:3] == [(32, False), (1, True), (1, True)]
        assert len(kept) == n_steps and np.array_equal(kept[:4], clean[:4])
        err = np.abs(kept - clean).max(axis=1) / np.abs(clean).max(axis=1)
        assert err.max() <= 1e-14


class TestStepperKernels:
    """The right-hand side's CSR product and the two unit triangular band
    solves, scaled by 1/diag(U), stand in for the node-major band kernels
    they replace, and the guard's stencil GEMMs for the generator."""

    @pytest.mark.parametrize("n", [2, 16, 512])
    @pytest.mark.parametrize("model", ["type2", "type3"])
    @pytest.mark.parametrize("dt", [1e-3, 5e-5])
    def test_forward_triangular_solve_is_backward_stable(self, monkeypatch, n, model, dt):
        monkeypatch.setattr(evolve, "_DENSE_STEP", 0)  # the band kernels at every n
        stepper = make_stepper(model, n, dt)
        size = 3 * n
        assert np.array_equal(stepper._piv, np.arange(size))
        assert stepper._triangular is not None
        rng = np.random.default_rng(n)
        for _ in range(3):
            r = rng.standard_normal(2 * size)
            y = stepper._solve(r, np.empty_like(r))
            assert TestElimination.backward_error(stepper.op, dt, r, y) <= evolve._ETA_TOL

    def test_reversed_type3_interchanges_rows_and_keeps_dgbtrs(self, monkeypatch):
        # n = 29, the smallest grid on the band path, with dt = 0.01: the
        # reversed type3 LU interchanges rows
        n, dt = 29, 0.01
        assert n == N_BAND
        calls = []
        dgbtrs = scipy.linalg.lapack.dgbtrs

        def counting(*args, **kwargs):
            calls.append(1)
            return dgbtrs(*args, **kwargs)

        # the band stepper takes its routines from scipy.linalg when built
        monkeypatch.setattr(scipy.linalg.lapack, "dgbtrs", counting)
        stepper = make_stepper("type3", n, dt, assemble_backward)
        assert stepper._inv is None
        assert np.any(stepper._piv != np.arange(3 * n))
        assert stepper._triangular is None
        rhs = np.random.default_rng(5).standard_normal(6 * n)
        got = field_major(stepper._solve(_by_node(rhs), np.empty_like(rhs)))
        assert calls == [1]
        lhs = np.eye(6 * n) - 0.5 * dt * generator_matrix(stepper.op).toarray()
        expected = np.linalg.solve(lhs, rhs)
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize("n", [2, 16])
    @pytest.mark.parametrize("model", ["type2", "type3"])
    @pytest.mark.parametrize("direction", ["forward", "backward"])
    @pytest.mark.parametrize("dt", [1e-2, 5e-5])
    def test_dense_solve_matches_dense_linear_solve(self, n, model, direction, dt):
        assemble = assemble_operator if direction == "forward" else assemble_backward
        stepper = make_stepper(model, n, dt, assemble)
        assert stepper._inv is not None
        lhs = np.eye(6 * n) - 0.5 * dt * generator_matrix(stepper.op).toarray()
        rng = np.random.default_rng(n)
        for _ in range(3):
            rhs = rng.standard_normal(6 * n)
            got = field_major(stepper._solve(_by_node(rhs), np.empty_like(rhs)))
            expected = np.linalg.solve(lhs, rhs)
            assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    # not the reversed type3 run: its growing modes amplify any round-off
    # difference (about 1e5-fold over these 400 steps); its dense steps
    # are checked one at a time in test_each_step_matches_dense_solve
    @pytest.mark.parametrize("model, direction", [
        ("type2", "forward"), ("type3", "forward"), ("type2", "backward")])
    def test_dense_and_band_runs_agree(self, monkeypatch, model, direction):
        n = 16
        assemble = assemble_operator if direction == "forward" else assemble_backward
        dt = 0.01 if direction == "forward" else 5e-5
        x0 = _by_node(sine_init(Grid1D(n_interior=n)))
        dense = make_stepper(model, n, dt, assemble)
        monkeypatch.setattr(evolve, "_DENSE_STEP", 0)
        band = make_stepper(model, n, dt, assemble)
        assert dense._p is not None and band._p is None
        runs = [drawn(s.states(x0, 400)) for s in (dense, band)]
        err = np.linalg.norm(runs[0] - runs[1], axis=1) / np.linalg.norm(runs[1], axis=1)
        assert err.max() <= 1e-11

    @pytest.mark.parametrize("n, dense", [(N_BAND - 1, True), (N_BAND, False)])
    def test_dense_inverse_exactly_up_to_the_limit(self, n, dense):
        assert (6 * n <= evolve._DENSE_STEP) == dense
        stepper = make_stepper("type3", n, 1e-3)
        assert (stepper._p is not None) == (stepper._inv is not None) == dense
        # the dense path builds no band LU
        assert hasattr(stepper, "_lu") != dense

    @staticmethod
    def coo_build(stepper):
        """The node-major CSR of the COO build of the nonzero triplets of
        the stepper's generator table's field-major CSR."""
        return node_major_csr(generator_matrix(stepper.op))

    @pytest.mark.parametrize("n", [2, 3, 16, 17, N_BAND - 1, N_BAND, 512])
    @pytest.mark.parametrize("model", ["type2", "type3"])
    @pytest.mark.parametrize("assemble", [assemble_operator, assemble_backward])
    def test_guard_stencil_equals_the_coo_build(self, n, model, assemble):
        # the guard's stencil of I - h A, h = dt/2, expanded to node
        # blocks (zero end couplings), against the node blocks of I - h
        # times the COO build, bit for bit
        dt = 1e-3
        stepper = make_stepper(model, n, dt, assemble)
        got = node_blocks(stepper._stencil.transpose(0, 2, 1), n)
        lhs = (sp.identity(6 * n) - (dt / 2) * self.coo_build(stepper)).tocoo()
        (j, a), (col, b) = np.divmod(lhs.row, 6), np.divmod(lhs.col, 6)
        want = np.zeros((n, 3, 6, 6))
        want[j, col - j + 1, a, b] = lhs.data
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [2, 16, N_BAND])
    @pytest.mark.parametrize("model", ["type2", "type3"])
    @pytest.mark.parametrize("assemble", [assemble_operator, assemble_backward])
    @pytest.mark.parametrize("dt", [1e-2, 1e50])
    def test_midpoint_matrix_norm_is_the_dense_one(self, n, model, assemble, dt):
        # the guard's |I - dt/2 A|, summed from the node blocks, against
        # the inf-norm of the dense matrix; each row sums at most 18
        # entries, in another order
        stepper = make_stepper(model, n, dt, assemble)
        lhs = np.eye(6 * n) - 0.5 * dt * generator_matrix(stepper.op).toarray()
        expected = np.abs(lhs).sum(axis=1).max()
        assert abs(stepper._norm - expected) <= 1e-14 * expected

    @pytest.mark.parametrize("n", [N_BAND, 512])
    @pytest.mark.parametrize("model", ["type2", "type3"])
    @pytest.mark.parametrize("assemble", [assemble_operator, assemble_backward])
    @pytest.mark.parametrize("dt", [1e-3, 1e3])
    def test_right_hand_side_matrix_is_the_scaled_coo_build(self, n, model, assemble, dt):
        # the rate rows of h K (rates' solve), h = dt/2, or -C (positions'
        # solve, divided by h) on the position columns, against the COO
        # build of the generator scaled alike, bit for bit
        stepper = make_stepper(model, n, dt, assemble)
        h = dt / 2
        coo = self.coo_build(stepper)[1::2]
        want = h * coo[:, 0::2] if not stepper._positions else -coo[:, 1::2]
        want.eliminate_zeros()
        got = stepper._rhs
        assert got.shape == (3 * n, 6 * n) and got[:, 1::2].nnz == 0
        got = got[:, 0::2]
        for m in (got, want):
            m.sort_indices()
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert got.data.dtype == want.data.dtype and got.data.tobytes() == want.data.tobytes()

    @pytest.mark.parametrize("n", [2, 16, 512])
    @pytest.mark.parametrize("model", ["type2", "type3"])
    def test_guard_residual_is_the_generators(self, n, model):
        # the stencil's GEMMs on random (x, y) against the residual summed
        # from the node blocks in long double: apart by the rounding of a
        # residual, within the guard's bound
        dt = 1e-3
        stepper = make_stepper(model, n, dt)
        rng = np.random.default_rng(n + 1)
        xs, y = rng.standard_normal((2, 6 * n)), rng.standard_normal(6 * n)
        ys = np.zeros((1, 6 * (n + 2)))
        ys[0, 6:-6] = y
        res, _, bound, _ = stepper._guard(xs, ys, np.empty_like(ys))
        expected = TestElimination.residual(stepper.op, dt, xs[0], y)
        assert np.abs(res[0, 6:-6] - expected).max() <= bound[0]
        assert not res[0, :6].any() and not res[0, -6:].any()


class TestElimination:
    """A band stepper solves its reduced system for the rates, or for the
    positions when h^2 |K| > _POSITIONS_ABOVE (h = dt/2): one solve,
    with no refinement, is backward stable at every dt."""

    @staticmethod
    def residual(op, dt, x, y) -> np.ndarray:
        """r = (I - dt/2 A) y - x for node-major x and y, three products
        of the stencil in long double, so that its own rounding hardly
        counts."""
        n = op.n
        h, stencil = np.longdouble(dt) / 2, op.stencil.astype(np.longdouble)
        nodes = np.zeros((n + 2, 6), dtype=np.longdouble)  # nodes -1 .. n, zero ghosts
        nodes[1:-1] = y.reshape(n, 6)
        a_y = sum(np.einsum("ab,jb->ja", stencil[s], nodes[s:s + n]) for s in range(3))
        return (nodes[1:-1] - h * a_y - x.reshape(n, 6)).ravel()

    @staticmethod
    def backward_error(op, dt, x, y) -> float:
        """|r| / (|I - dt/2 A| |y| + |x|) with r = (I - dt/2 A) y - x and
        inf-norms, for node-major x and y, r and the norm in long double."""
        h, blocks = np.longdouble(dt) / 2, node_blocks(op.stencil, op.n).astype(np.longdouble)
        lhs = -h * blocks
        lhs[:, 1] += np.eye(6)
        norm = np.abs(lhs).sum(axis=(1, 3)).max()
        res = TestElimination.residual(op, dt, x, y)
        return float(np.abs(res).max() / (norm * np.abs(y).max() + np.abs(x).max()))

    # h^2 |K| is 3.0e-3, 0.30, 3.0e3, 3.0e9 and 3.0e103 at n = 29 and
    # 0.87, 87, 8.7e5 and 8.7e11 at n = 512; on these data the other
    # elimination's backward error reaches 212 u (positions, forward,
    # n = 29, dt = 1e-3) and 6.2e14 u (rates, n = 29, dt = 1e50)
    @pytest.mark.parametrize("n, dt, positions", [
        (N_BAND, 1e-3, False), (N_BAND, 1e-2, False), (N_BAND, 1.0, True),
        (N_BAND, 1e3, True), (N_BAND, 1e50, True), (N_BAND, 1e154, True),
        (512, 1e-3, False), (512, 1e-2, True), (512, 1.0, True), (512, 1e3, True),
        (512, 1e154, True)])
    @pytest.mark.parametrize("assemble", [assemble_operator, assemble_backward])
    def test_one_solve_is_backward_stable(self, n, dt, positions, assemble):
        stepper = make_stepper("type3", n, dt, assemble)
        assert stepper._positions == positions
        x = np.random.default_rng(n).standard_normal(6 * n)
        y = stepper._solve(x, np.empty_like(x))
        assert self.backward_error(stepper.op, dt, x, y) <= evolve._ETA_TOL


class TestSolverGuard:
    def test_singular_midpoint_matrix_raises(self, op2, grid16, moduli2):
        dt = 0.01
        size = 6 * grid16.n_interior
        degenerate = with_generator(op2, sp.identity(size, format="csr") * (2.0 / dt))
        with pytest.raises(SolveFailure):
            MidpointStepper(degenerate, dt)

    def test_singular_reduced_matrix_raises(self, op2, monkeypatch):
        # position rows [0 | I], rate rows [0 | 2/dt I]: C = 2/dt I
        # makes I - dt/2 C - dt^2/4 K vanish
        dt = 0.01
        a_mat = sp.kron(sp.identity(3), [[0.0, 1.0], [0.0, 2.0 / dt]])
        a_mat = sp.kron(a_mat, sp.identity(op2.n), format="csr")
        # the dense inverse at n = 16, then the band LU
        for limit in (evolve._DENSE_STEP, 0):
            monkeypatch.setattr(evolve, "_DENSE_STEP", limit)
            with pytest.raises(SolveFailure, match="factored"):
                MidpointStepper(with_generator(op2, a_mat), dt)

    # a diagonal entry of U whose reciprocal overflows, and one that a
    # larger entry above it in its column overflows when divided by it
    @pytest.mark.parametrize("diagonal, above", [(1e-310, None), (1e-10, 1e300)])
    def test_non_finite_unit_upper_factor_raises(self, monkeypatch, diagonal, above):
        dgbtrf = scipy.linalg.lapack.dgbtrf

        def scaled(*args, **kwargs):
            lu, piv, info = dgbtrf(*args, **kwargs)
            lu[2 * evolve._BAND, 40] = diagonal
            if above is not None:
                lu[2 * evolve._BAND - 1, 40] = above
            return lu, piv, info

        # the band stepper takes its routines from scipy.linalg when built
        monkeypatch.setattr(scipy.linalg.lapack, "dgbtrf", scaled)
        with pytest.raises(SolveFailure, match="not finite"):
            make_stepper("type3", N_BAND, 1e-3)

    def test_overflowing_midpoint_matrix_raises(self, op2):
        # dv/dt picks up 1e300 u: dt/2 A overflows at dt = 1e10, and a
        # guard bound made of |I - dt/2 A| = inf would pass any step; the
        # error reports it, with no overflow warning
        with pytest.raises(SolveFailure, match="not a finite"):
            MidpointStepper(with_entry(op2, 16, 0, 1e300), 1e10)

    def test_non_finite_dense_inverse_raises(self):
        # at length = 1e-150 |I - dt/2 A| is finite, 1.9e301, but the
        # dense inverse is not: construction raises, with no warning,
        # where the first step product was NaN
        grid = Grid1D(n_interior=16, length=1e-150)
        op = assemble_operator(grid, to_moduli_1d(reference_type3()))
        with pytest.raises(SolveFailure, match=r"\(I - dt/2 A\)\^-1 .*not finite"):
            MidpointStepper(op, 0.01)

    @pytest.mark.parametrize("row, col, value", [
        (0, 16, 2.0),    # du/dt = 2 v
        (0, 1, 1.0),     # du/dt picks up the displacement of node 1
        (32, 16, 0.5),   # dtau/dt picks up a velocity
        (36, 52, 0.0),   # dtau/dt loses its temperature
    ])
    def test_position_rows_must_be_zero_identity(self, op2, row, col, value):
        with pytest.raises(SolveFailure, match=r"\[0 \| I\]"):
            MidpointStepper(with_entry(op2, row, col, value), 0.01)

    def test_bad_dt_rejected(self, op2):
        # dt > 0, with (dt/2)^2 of the reduced midpoint matrix a finite float
        for dt in (0.0, -0.01, np.nan, np.inf, 1e160, 2.7e154):
            with pytest.raises(ValueError, match="dt"):
                MidpointStepper(op2, dt)

    def test_single_step_runs_chain_to_a_long_run(self, op2):
        # a one-step run is the one-step entry point
        s = sine_init(op2.grid)
        long_form = collect(op2, s, 0.01, 3)
        for k in range(1, 4):
            s = end_state(op2, s, 0.01, 1)
            assert np.array_equal(s, long_form[k])


class TestTimeReversal:
    def test_involution(self):
        rng = np.random.default_rng(12)
        s = random_state(5, rng)
        assert np.array_equal(time_reversal(time_reversal(s)), s)

    def test_negates_the_rate_fields_into_a_new_array(self):
        s = random_state(5, np.random.default_rng(13))
        kept = s.copy()
        turned = time_reversal(s)
        expected = s.reshape(6, 5).copy()
        expected[1::2] = -expected[1::2]  # v, theta, m
        assert turned.tobytes() == expected.ravel().tobytes()
        assert not np.shares_memory(turned, s)
        assert np.array_equal(s, kept)

    @pytest.mark.parametrize("model", ["type2", "type3"])
    def test_backward_generator_is_the_reversed_forward_one(self, model, grid16):
        moduli = to_moduli_1d(reference_type2() if model == "type2" else reference_type3())
        flip = sp.diags(time_reversal(np.ones(6 * grid16.n_interior)))
        a_fwd = generator_matrix(assemble_operator(grid16, moduli))
        a_bwd = generator_matrix(assemble_backward(grid16, moduli))
        assert (-(flip @ a_fwd @ flip) - a_bwd).count_nonzero() == 0

    def test_round_trip_type2(self, op2, op2_back):
        init = sine_init(op2.grid)
        dt, n_steps = 0.01, 1000  # T = 10
        turned = time_reversal(end_state(op2, init, dt, n_steps))
        recovered = time_reversal(end_state(op2_back, turned, dt, n_steps))
        err = np.abs(recovered - init).max()
        assert err <= 1e-8

    def test_backward_energy_grows(self, op3_back):
        states = collect(op3_back, sine_init(op3_back.grid), 5e-5, 100)
        energies = energy_table(op3_back, states)[:, 0]
        assert (np.diff(energies) >= -1e-12 * energies[0]).all()
        assert energies[-1] > energies[0]

    def test_gram_norm_contraction_forward(self, op3):
        # dissipative semigroup: the G-norm never grows
        states = collect(op3, sine_init(op3.grid), 0.01, 50)
        norms = [gram_norm(op3, row) for row in states]
        assert (np.diff(norms) <= 1e-12 * norms[0]).all()
