import copy
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
from microtherm.evolve import MidpointStepper, _node_major

from conftest import collect, field_major, fields, gram_norm, random_state, sine_init


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
        dense = scipy.linalg.expm(t_final * op.a_mat.toarray())
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
        a_mat, dt, vec = op3.a_mat, 1e-3, init
        for _ in range(500):
            k1 = a_mat @ vec
            k2 = a_mat @ (vec + 0.5 * dt * k1)
            k3 = a_mat @ (vec + 0.5 * dt * k2)
            k4 = a_mat @ (vec + dt * k3)
            vec = vec + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        diff = np.abs(mid - vec).max()
        assert diff <= 1e-3  # independent schemes, both at least 2nd order


def make_stepper(model, n, dt, assemble=assemble_operator):
    moduli = to_moduli_1d(reference_type2() if model == "type2" else reference_type3())
    return MidpointStepper(assemble(Grid1D(n_interior=n), moduli), dt)


# the smallest grid above the dense-inverse limit: it takes the band solve
N_BAND = evolve._DENSE_STEP // 6 + 1


def with_entry(op, row, col, value):
    """op with a_mat[row, col] set to value."""
    a_mat = op.a_mat.tolil()
    a_mat[row, col] = value
    return op._replace(a_mat=a_mat.tocsr())


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
        a_dense = op.a_mat.toarray()
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
            for chunk in stepper.states(_node_major(turned), 400):
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

    @pytest.mark.parametrize("n", [N_BAND, 512])
    def test_corrupted_upper_band_raises(self, n):
        stepper = make_stepper("type3", n, 1e-3)
        lower, upper = stepper._triangular
        upper = upper.copy()
        # one diagonal entry of U, that of v at a node where the sine
        # data's u is nonzero (the middle one at n = 29 is theta's, which
        # these data leave at round-off level by symmetry)
        upper[-1, 3 * (n // 3)] *= 2.0
        stepper._triangular = (lower, upper)
        kept = []
        with pytest.raises(SolveFailure, match="residual"):
            for x in stepper.states(_node_major(sine_init(Grid1D(n_interior=n))), 40):
                kept.append(x.copy())
        assert not kept

    def test_corrupted_dense_inverse_raises(self):
        n = 16
        stepper = make_stepper("type3", n, 1e-3)
        assert stepper._p is not None
        x0 = _node_major(sine_init(Grid1D(n_interior=n)))
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

        def hit():
            count[0] += 1
            return calls is None or count[0] in calls

        def step(x, out):
            method(x, out)
            if hit():
                out += shift

        def solve(r):
            return method(r) + shift if hit() else method(r)

        setattr(stepper, name, step if name == "_step" else solve)

    def test_one_perturbed_solve_is_refined(self, monkeypatch):
        n, n_steps = 16, 100
        x0 = _node_major(sine_init(Grid1D(n_interior=n)))
        shift = 1e-9 * np.linalg.norm(x0) * np.eye(x0.size)[7]
        # dense path: the perturbed product's read-back midpoint misses
        # the guard, and the run steps again from x_39 by the solve;
        # band path: the perturbed solve is refined
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
            # ... and the rest of the run steps on from it by the solve
            rest = make_stepper("type3", n, 1e-3)
            rest._p = None
            rest = drawn(rest.states(kept[39], n_steps - 40))
            assert np.array_equal(kept[40:], rest)

    def test_every_call_perturbed_raises(self):
        n = 16
        x0 = _node_major(sine_init(Grid1D(n_interior=n)))
        stepper = make_stepper("type3", n, 1e-3)
        assert stepper._p is not None
        shift = 1e-9 * np.linalg.norm(x0) * np.eye(x0.size)[7]
        self.perturb(stepper, None, shift)
        self.perturb(stepper, None, shift, "_solve")
        with pytest.raises(SolveFailure, match="residual"):
            list(stepper.states(x0, 10))

    def test_stiff_dense_run_goes_on_by_the_solve(self, monkeypatch):
        # lambda_e = mu_e = 1e4 puts |dt/2 A| near 1.7e5 (17 at the
        # reference): a read-back midpoint's residual, the states'
        # rounding times |dt/2 A|, misses the guard, and one refined from
        # it misses it too; the run goes on solving with the dense inverse
        grid = Grid1D(n_interior=16)
        op = assemble_operator(grid, to_moduli_1d(dataclasses.replace(
            reference_type3(), lambda_e=1e4, mu_e=1e4)))
        products, step = [], MidpointStepper._step

        def counted(self, x, out):
            products.append(1)
            step(self, x, out)

        monkeypatch.setattr(MidpointStepper, "_step", counted)
        runs = []
        for chunk in (1, 7, 32):
            monkeypatch.setattr(evolve, "_CHUNK", chunk)
            runs.append(collect(op, sine_init(grid), 0.01, 400))
        assert 0 < len(products) < 3 * 32
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
        calls = dict.fromkeys(("_step", "_solve", "_apply"), 0)
        for name in calls:
            method = getattr(MidpointStepper, name)

            def counted(self, *args, name=name, method=method):
                calls[name] += 1
                return method(self, *args)

            monkeypatch.setattr(MidpointStepper, name, counted)
        every = max(n_steps, 1) if strided else 1
        chunks = -(-n_steps // 32)
        # n = 16: one step product per step on the dense path, one solve
        # per step on the band path; one sparse product per chunk of 32
        for limit, per_step in ((evolve._DENSE_STEP, "_step"), (0, "_solve")):
            monkeypatch.setattr(evolve, "_DENSE_STEP", limit)
            calls.update(dict.fromkeys(calls, 0))
            collect(op3, sine_init(op3.grid), 0.01, n_steps, every)
            assert calls == {"_step": 0, "_solve": 0, per_step: n_steps, "_apply": chunks}


class TestStepperKernels:
    """The CSR product and the two triangular band solves reproduce the
    node-major band kernels they replace."""

    @pytest.mark.parametrize("n", [2, 16, 512])
    @pytest.mark.parametrize("model", ["type2", "type3"])
    @pytest.mark.parametrize("dt", [1e-3, 5e-5])
    def test_forward_solve_is_dgbtrs_bitwise(self, monkeypatch, n, model, dt):
        monkeypatch.setattr(evolve, "_DENSE_STEP", 0)  # the band kernels at every n
        stepper = make_stepper(model, n, dt)
        size = 3 * n
        assert np.array_equal(stepper._piv, np.arange(size))
        assert stepper._triangular is not None
        # the same stepper made to take the dgbtrs path
        pivoting = copy.copy(stepper)
        pivoting._triangular = None
        rng = np.random.default_rng(n)
        for _ in range(3):
            r = rng.standard_normal(2 * size)
            assert np.array_equal(stepper._solve(r), pivoting._solve(r))

    def test_reversed_type3_interchanges_rows_and_keeps_dgbtrs(self, monkeypatch):
        # n = 29, the smallest grid on the band path, with dt = 0.01: the
        # reversed type3 LU interchanges rows
        n, dt = 29, 0.01
        assert n == N_BAND
        stepper = make_stepper("type3", n, dt, assemble_backward)
        assert stepper._inv is None
        assert np.any(stepper._piv != np.arange(3 * n))
        assert stepper._triangular is None
        calls = []
        dgbtrs = evolve.lapack.dgbtrs

        def counting(*args, **kwargs):
            calls.append(1)
            return dgbtrs(*args, **kwargs)

        monkeypatch.setattr(evolve.lapack, "dgbtrs", counting)
        rhs = np.random.default_rng(5).standard_normal(6 * n)
        got = field_major(stepper._solve(_node_major(rhs)))
        assert calls == [1]
        lhs = np.eye(6 * n) - 0.5 * dt * stepper.op.a_mat.toarray()
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
        lhs = np.eye(6 * n) - 0.5 * dt * stepper.op.a_mat.toarray()
        rng = np.random.default_rng(n)
        for _ in range(3):
            rhs = rng.standard_normal(6 * n)
            got = field_major(stepper._solve(_node_major(rhs)))
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
        x0 = _node_major(sine_init(Grid1D(n_interior=n)))
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

    @pytest.mark.parametrize("n", [2, 16, 512])
    @pytest.mark.parametrize("model", ["type2", "type3"])
    def test_csr_product_is_the_generator(self, n, model):
        stepper = make_stepper(model, n, 1e-3)
        x = np.random.default_rng(n + 1).standard_normal(6 * n)
        expected = _node_major(stepper.op.a_mat @ x)
        got = stepper._apply(_node_major(x))
        assert np.abs(got - expected).max() <= 1e-15 * np.abs(expected).max()


class TestSolverGuard:
    def test_singular_midpoint_matrix_raises(self, op2, grid16, moduli2):
        dt = 0.01
        size = 6 * grid16.n_interior
        degenerate = op2._replace(a_mat=sp.identity(size, format="csr") * (2.0 / dt))
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
        a_fwd = assemble_operator(grid16, moduli).a_mat
        a_bwd = assemble_backward(grid16, moduli).a_mat
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
