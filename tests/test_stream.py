"""Forward runs streamed in blocks of kept states.

evolve.snapshot_blocks yields a run's kept states block by block.  The
runner reduces each block as it comes (diagnostics.reduce_blocks), so
its outputs must be byte-identical to those of the diagnostics of the
whole run as one array at every block boundary, and its peak memory
must stay far below the run it never holds."""

import contextlib
import io
import tracemalloc

import numpy as np
import pytest

from microtherm import (Grid1D, assemble_backward, assemble_operator, build_initial,
                        energy_table, evolve, localization_probe, parse_scenario,
                        runner, snapshot_blocks, snapshot_times, to_moduli_1d)
from microtherm.diagnostics import backward_functionals, balance_residuals, reduce_blocks
from microtherm.discrete1d import FORMS, block_rows, form_values

from conftest import collect, sine_init

N = 128
BLOCK = block_rows(N)  # 42 states of 6n = 768 values

SCENARIO = """\
[material]
model = {model}

[grid]
n_interior = {n}

[time]
dt = 0.001
n_steps = {n_steps}
snapshot_every = {every}

[init]
preset = sine
u_amp = 1.0
theta_amp = 0.5
theta_mode = 2

[tasks]
run = {tasks}

[backward]
dt = 1e-7
n_steps = {backward_steps}
"""


def scenario(model, every, kept, tasks, n=N, backward_steps=None):
    """kept: the states kept after the initial one."""
    steps = kept if backward_steps is None else backward_steps
    return parse_scenario(SCENARIO.format(model=model, n=n, n_steps=every * kept,
                                          every=every, tasks=tasks, backward_steps=steps))


def quiet_run(scen, out_dir):
    with contextlib.redirect_stdout(io.StringIO()):
        return runner.run_scenario(scen, str(out_dir))


def whole_run(*args, **kwargs):
    """The run of snapshot_blocks as a single block: every kept state."""
    yield collect(*args, **kwargs)


def read_csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


class TestSnapshotBlocks:
    @pytest.mark.parametrize("every", [1, 3])
    def test_blocks_are_the_trajectory_rows(self, op3, every):
        n_steps = every * (2 * block_rows(op3.n) + 5)
        blocks = list(snapshot_blocks(op3, sine_init(op3.grid), 0.01, n_steps, every))
        assert [len(b) for b in blocks] == [block_rows(op3.n)] * 2 + [6]
        assert np.array_equal(blocks[0][0], sine_init(op3.grid))
        # the kept states are every every-th state of the every-step run
        every_step = np.concatenate(list(snapshot_blocks(op3, sine_init(op3.grid), 0.01,
                                                         n_steps)))
        assert np.array_equal(np.concatenate(blocks), every_step[::every])

    def test_arguments_are_checked_before_the_first_draw(self, op3):
        init = sine_init(op3.grid)
        with pytest.raises(ValueError, match="n_steps must be >= 0"):
            snapshot_blocks(op3, init, 0.01, -1)
        with pytest.raises(ValueError, match="not a multiple"):
            snapshot_blocks(op3, init, 0.01, 10, 3)

    def test_zero_steps_is_the_initial_state(self, op3):
        init = sine_init(op3.grid)
        (block,) = snapshot_blocks(op3, init, 0.01, 0)
        assert np.array_equal(block, init[None])


@pytest.mark.parametrize("n", [16, 200])
@pytest.mark.parametrize("every", [3, 31, 33, 64])
def test_strided_blocks_straddle_the_stepper_chunks(op3, n, every):
    # the stepper yields chunks of min(_CHUNK, block_rows(n)) steps, 32
    # at n = 16 and block_rows(200) = 27 at n = 200; these strides put
    # the kept states at every offset within a chunk
    assert block_rows(200) < evolve._CHUNK < block_rows(16)
    op = assemble_operator(Grid1D(n_interior=n), op3.moduli)
    init, kept = sine_init(op.grid), block_rows(n) + 3
    blocks = list(snapshot_blocks(op, init, 1e-3, every * kept, every))
    assert [len(b) for b in blocks] == [block_rows(n), 4]
    every_step = collect(op, init, 1e-3, every * kept)
    assert np.array_equal(np.concatenate(blocks), every_step[::every])


KEPT = [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3]


@pytest.mark.parametrize("kept", KEPT)
@pytest.mark.parametrize("every", [1, 4])
@pytest.mark.parametrize("model", ["type2", "type3"])
@pytest.mark.parametrize("tasks", ["simulate, localization, backward",
                                   "localization, simulate", "localization"])
def test_streamed_outputs_match_the_stored_trajectory(tmp_path, monkeypatch, tasks,
                                                      model, every, kept):
    scen = scenario(model, every, kept, tasks)
    code = quiet_run(scen, tmp_path / "streamed")
    with monkeypatch.context() as patch:
        patch.setattr(runner, "snapshot_blocks", whole_run)
        assert quiet_run(scen, tmp_path / "stored") == code
    for name in ("energy.csv", "backward.csv", "report.txt"):
        streamed, stored = tmp_path / "streamed" / name, tmp_path / "stored" / name
        assert streamed.exists() == stored.exists(), name
        if stored.exists():
            assert streamed.read_bytes() == stored.read_bytes(), name

    # both runs' outputs are those of the diagnostics of the whole run
    moduli = to_moduli_1d(scen.material)
    op, op_bwd = assemble_operator(scen.grid, moduli), assemble_backward(scen.grid, moduli)
    init = build_initial(scen)
    if "simulate" in tasks:
        states = collect(op, init, scen.dt, scen.n_steps, scen.snapshot_every)
        table = energy_table(op, states)
        times = snapshot_times(scen.dt, scen.n_steps, scen.snapshot_every)
        assert np.array_equal(read_csv(tmp_path / "streamed" / "energy.csv"),
                              np.column_stack([times, table]))
        if every == 1 and kept:
            blocks = snapshot_blocks(op, init, scen.dt, scen.n_steps)
            streamed_table, rates, _, _ = reduce_blocks(blocks, op, midpoints=True)
            assert np.array_equal(streamed_table, table)
            whole_rates = form_values(op, states, ("dissipation_rate",), midpoints=True)
            assert np.array_equal(balance_residuals(table, rates, scen.dt),
                                  balance_residuals(table, whole_rates[:, 0], scen.dt))
    if "localization" in tasks:
        every_step = collect(op, init, scen.dt, scen.n_steps)
        probe = localization_probe(op_bwd, every_step[0], every_step[-1], scen.dt,
                                   energy_table(op, every_step)[:, 0])
        report = (tmp_path / "streamed" / "report.txt").read_text()
        assert f"min E/E0 = {probe.min_energy_ratio:.6e}" in report
        round_trip = (f"max error {probe.round_trip_error:.3e}" if model == "type2"
                      else f"round trip error = {probe.round_trip_error}")
        assert round_trip in report
    if "backward" in tasks and model == "type3":
        back = collect(op_bwd, init, scen.backward_dt, scen.backward_n_steps)
        times = snapshot_times(scen.backward_dt, scen.backward_n_steps)
        funcs = backward_functionals(times, form_values(op_bwd, back), op_bwd,
                                     eps=scen.eps, lam=scen.lam)
        assert np.array_equal(read_csv(tmp_path / "streamed" / "backward.csv"),
                              np.column_stack([funcs.times, funcs.e1, funcs.e2,
                                               funcs.e3, funcs.cal_e]))


def test_one_block_reduces_like_the_trajectory(op3):
    states = collect(op3, sine_init(op3.grid), 0.01, 30)
    table, rates, first, last = reduce_blocks([states], op3, FORMS)
    assert np.array_equal(table, form_values(op3, states))
    assert rates is None
    assert np.array_equal(first, states[0]) and np.array_equal(last, states[-1])


def traced_peak(scen, out_dir):
    tracemalloc.start()
    try:
        quiet_run(scen, out_dir)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("tasks, backward_steps", [("simulate, localization", 0),
                                                   ("backward", 2000)])
def test_peak_memory_is_a_fraction_of_the_trajectory(tmp_path, tasks, backward_steps):
    # a stored run of 2001 states of 6n = 768 values takes 12.3 MB
    scen = scenario("type3", 1, 2000, tasks, backward_steps=backward_steps)
    trajectory_bytes = 2001 * 6 * N * 8
    assert traced_peak(scen, tmp_path) < trajectory_bytes / 4
