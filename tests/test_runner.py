"""run_scenario makes each scenario's forward midpoint run at most once:
simulate and localization share it, an every-step run when localization
is a task, of which simulate keeps every snapshot_every-th row.  Each run
is streamed in blocks and never held whole.  From 6n = _THREADED_SECTORS
up a spectrum and a dispersion that are consecutive tasks are computed
together, the spectrum on worker threads, with the outputs and the
abort order of the tasks one after the other.  The CSV writer's bytes are those of the csv module."""

import csv
import dataclasses
import inspect
import math
import threading
import weakref

import numpy as np
import pytest

from microtherm import (EigenFailure, RootFailure, SolveFailure, diagnostics,
                        parse_scenario, runner)

from conftest import other_threads, overflowing_branches

SCENARIO = """\
[material]
model = {model}

[grid]
n_interior = 16

[time]
dt = 0.002
n_steps = 200
snapshot_every = {every}

[init]
preset = sine
u_amp = 1.0
theta_amp = 0.5
theta_mode = 2

[tasks]
run = {tasks}
"""

LOCALIZATION_LINES = ("no finite time extinction", "round trip", "# round trip error")


def scenario(tasks, model="type3", every=1):
    return parse_scenario(SCENARIO.format(model=model, every=every, tasks=tasks))


@pytest.fixture
def runs(monkeypatch):
    """snapshot_every of every run made by the runner itself and by the
    localization probe (its time-reversed run), each a stream of
    snapshot blocks."""
    made = {"runner": [], "probe": []}

    def counting(module, name, key):
        original = getattr(module, name)
        signature = inspect.signature(original)

        def counted(*args, **kwargs):
            call = signature.bind(*args, **kwargs)
            call.apply_defaults()
            made[key].append(call.arguments["snapshot_every"])
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    counting(runner, "snapshot_blocks", "runner")
    counting(diagnostics, "snapshot_blocks", "probe")
    return made


def localization_lines(out_dir):
    report = (out_dir / "report.txt").read_text().splitlines()
    return [line for line in report if line.startswith(LOCALIZATION_LINES)]


@pytest.mark.parametrize("tasks", ["simulate, localization", "localization, simulate",
                                   "simulate, spectrum, localization"])
def test_every_step_midpoint_run_is_shared(tmp_path, runs, tasks):
    assert runner.run_scenario(scenario(tasks), str(tmp_path)) == 0
    assert runs["runner"] == [1]
    assert len(runs["probe"]) == 1


def test_strided_simulate_shares_the_every_step_run(tmp_path, runs):
    runner.run_scenario(scenario("simulate, localization", every=2), str(tmp_path))
    assert runs["runner"] == [1]
    assert len(runs["probe"]) == 1


def test_probe_alone_makes_its_own_run(tmp_path, runs):
    runner.run_scenario(scenario("localization"), str(tmp_path))
    assert runs["runner"] == [1]


@pytest.mark.parametrize("model", ["type2", "type3"])
def test_localization_lines_do_not_depend_on_sharing(tmp_path, model):
    variants = {
        "alone": scenario("localization", model),
        "after": scenario("simulate, localization", model),
        "before": scenario("localization, simulate", model),
        "strided": scenario("simulate, localization", model, every=2),
    }
    lines = {}
    for name, scen in variants.items():
        runner.run_scenario(scen, str(tmp_path / name))
        lines[name] = localization_lines(tmp_path / name)
    assert lines["alone"] and lines["alone"][0].startswith("no finite time extinction")
    for name in variants:
        assert lines[name] == lines["alone"], name


ZERO_STEP_HEADER = """\
# model = type3
# grid n_interior = 16, length = 1
# dt = 0.002, n_steps = 0, scheme = midpoint
# seed = 0
"""
ZERO_STEP_LINES = {
    # amplitude: (dissipativity, extinction, notes of localization, final energy)
    "1.0": ("dissipativity: PASS (max energy increase 0.000e+00, tol 7.631e-12)",
            "no finite time extinction: PASS (min E/E0 = 1.000000e+00)",
            ["# round trip error = 0.0 (recorded, not asserted)"],
            "# final energy = 7.6311612870285792"),
    "0.0": ("dissipativity: PASS (max energy increase 0.000e+00, tol 1.000e-42)",
            "no finite time extinction: PASS (trivial zero state)",
            [],
            "# final energy = 0"),
}


@pytest.mark.parametrize("amp", ["1.0", "0.0"])
@pytest.mark.parametrize("first", ["simulate", "localization"])
def test_zero_step_report(tmp_path, amp, first):
    # no step: one energy per run, and a reversed run of the flipped
    # final state alone, or no run at all for zero data
    tasks = "simulate, localization" if first == "simulate" else "localization, simulate"
    text = (SCENARIO.format(model="type3", every=1, tasks=tasks)
            .replace("n_steps = 200", "n_steps = 0")
            .replace("u_amp = 1.0", f"u_amp = {amp}")
            .replace("theta_amp = 0.5", f"theta_amp = {amp}"))
    assert runner.run_scenario(parse_scenario(text), str(tmp_path)) == 0
    dissipativity, extinction, probe_notes, final = ZERO_STEP_LINES[amp]
    if first == "simulate":
        lines = [dissipativity, extinction, final, *probe_notes]
    else:
        lines = [extinction, dissipativity, *probe_notes, final]
    expected = ZERO_STEP_HEADER + "\n".join(lines) + "\noverall: PASS\n"
    assert (tmp_path / "report.txt").read_text() == expected


@pytest.mark.parametrize("model", ["type2", "type3"])
@pytest.mark.parametrize("every", [1, 2])
def test_simulate_output_does_not_depend_on_sharing(tmp_path, model, every):
    # energy.csv, and report.txt less the localization lines, are those
    # of a simulate-only run byte for byte; with every = 2 simulate keeps
    # every other row of the every-step run
    for name, tasks in (("alone", "simulate"), ("after", "simulate, localization"),
                        ("before", "localization, simulate")):
        runner.run_scenario(scenario(tasks, model, every), str(tmp_path / name))
    energy = (tmp_path / "alone" / "energy.csv").read_bytes()
    report = (tmp_path / "alone" / "report.txt").read_text()
    for name in ("after", "before"):
        assert (tmp_path / name / "energy.csv").read_bytes() == energy
        lines = (tmp_path / name / "report.txt").read_text().splitlines(keepends=True)
        kept = [line for line in lines if not line.startswith(LOCALIZATION_LINES)]
        assert len(kept) < len(lines) and "".join(kept) == report


def test_shared_trajectory_is_released_after_simulate(tmp_path, monkeypatch):
    # the run is never held whole: when a block is drawn, at most the one
    # before it is alive, and none is at the turn of the spectrum task
    # between simulate and localization, which keep only the run's tables
    refs, turns = [], []
    snapshot_blocks, spectrum = runner.snapshot_blocks, runner._spectrum

    def recording(*args, **kwargs):
        for block in snapshot_blocks(*args, **kwargs):
            assert sum(ref() is not None for ref in refs) <= 1
            refs.append(weakref.ref(block))
            yield block

    def checking(*args, **kwargs):
        turns.append(len(refs))
        assert refs and all(ref() is None for ref in refs)
        return spectrum(*args, **kwargs)

    monkeypatch.setattr(runner, "snapshot_blocks", recording)
    monkeypatch.setattr(runner, "_spectrum", checking)
    text = SCENARIO.format(model="type3", every=1, tasks="simulate, spectrum, localization")
    # three blocks of n = 16 states
    long_run = parse_scenario(text.replace("n_steps = 200", "n_steps = 1000"))
    assert runner.run_scenario(long_run, str(tmp_path)) == 0
    assert turns == [3] and len(refs) == 3


# the least grid whose spectrum the runner solves on worker threads
LEAST_THREADED = math.ceil(runner._THREADED_SECTORS / 6)


# the report line of a dispersion that fails (overflowing_branches)
OVERFLOW_ABORT = "aborted: dispersion: the linearization or its roots leave the float range"


def threaded_scenario(tasks, extra=""):
    text = (SCENARIO.format(model="type3", every=1, tasks=tasks)
            .replace("n_interior = 16", f"n_interior = {LEAST_THREADED}")
            .replace("n_steps = 200", "n_steps = 20"))
    return parse_scenario(text + extra)


@pytest.mark.filterwarnings("error::pytest.PytestUnhandledThreadExceptionWarning")
class TestOverlappedSpectrum:
    """The spectrum solved on worker threads while the dispersion is
    computed, at the first of the two consecutive tasks' turns, keeps the
    order of the tasks: each writes and certifies at its turn, an error
    aborts at its task's turn, no other task runs beside the workers or
    while a result waits, and no thread outlives run_scenario."""

    def test_failing_eigensolve_aborts_at_the_spectrum(self, tmp_path, monkeypatch):
        eigvals = np.linalg.eigvals

        def dense_fails(a):
            # the dispersion's stacked eigensolves go through
            if a.ndim == 2:
                raise np.linalg.LinAlgError("did not converge")
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", dense_fails)
        with pytest.raises(EigenFailure):
            runner.run_scenario(threaded_scenario("simulate, spectrum, dispersion"),
                                str(tmp_path))
        assert other_threads() == []
        lines = (tmp_path / "report.txt").read_text().splitlines()
        assert lines[4].startswith("dissipativity: PASS")
        assert lines[5].startswith("energy balance: PASS")
        assert lines[6].startswith("# final energy = ")
        assert lines[7:] == ["aborted: spectrum: dense eigensolve failed: did not converge"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["energy.csv", "report.txt"]

    def test_failing_dispersion_aborts_before_the_spectrum(self, tmp_path, monkeypatch):
        monkeypatch.setattr(runner, "solve_branches", overflowing_branches)
        scenario = threaded_scenario("dispersion, spectrum")
        with pytest.raises(RootFailure):
            runner.run_scenario(scenario, str(tmp_path))
        assert other_threads() == []
        lines = (tmp_path / "report.txt").read_text().splitlines()
        assert len(lines) == 5 and lines[4].startswith(OVERFLOW_ABORT)
        assert [p.name for p in tmp_path.iterdir()] == ["report.txt"]

    def test_failing_dispersion_joins_the_sectors(self, tmp_path, monkeypatch):
        # the dispersion fails while the worker threads solve the sectors
        solving = threading.Event()
        eigvals = np.linalg.eigvals

        def flagged(a):
            if a.ndim == 2:
                solving.set()
            return eigvals(a)

        def failing(*args):
            assert solving.wait(timeout=60)
            return overflowing_branches(*args)

        monkeypatch.setattr(np.linalg, "eigvals", flagged)
        monkeypatch.setattr(runner, "solve_branches", failing)
        scenario = threaded_scenario("spectrum, dispersion")
        with pytest.raises(RootFailure):
            runner.run_scenario(scenario, str(tmp_path))
        assert other_threads() == []
        lines = (tmp_path / "report.txt").read_text().splitlines()
        assert lines[4].startswith("spectral_abscissa < 0: PASS")
        assert lines[-1].startswith(OVERFLOW_ABORT)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.txt", "spectrum.csv"]

    def test_only_consecutive_tasks_overlap(self, tmp_path, monkeypatch):
        # the spectrum and the dispersion overlap only as neighbours, and
        # the stepping tasks run with no worker alive and no spectral or
        # dispersion result, nor their rendered CSV rows, held
        snapshot_blocks = runner.snapshot_blocks
        threads, results, steps = [], [], []

        class Rows(list):
            """Rendered rows that a weak reference can follow."""

        def recording(name):
            numbers = getattr(runner, name)

            def recorded(*args):
                threads.append((name, threading.current_thread()))
                *values, rows = numbers(*args)
                rows = Rows(rows)
                results.extend([weakref.ref(values[0]), weakref.ref(rows)])
                return (*values, rows)
            monkeypatch.setattr(runner, name, recorded)

        def stepping(*args, **kwargs):
            steps.append((other_threads(), [ref() is None for ref in results]))
            return snapshot_blocks(*args, **kwargs)

        recording("_spectrum_numbers")
        recording("_dispersion_numbers")
        monkeypatch.setattr(runner, "snapshot_blocks", stepping)
        for k, tasks in enumerate(("spectrum, simulate, dispersion",
                                   "dispersion, spectrum, backward")):
            scenario = threaded_scenario(tasks, "\n[backward]\ndt = 1e-7\nn_steps = 20\n")
            assert runner.run_scenario(scenario, str(tmp_path / str(k))) == 0
        main = threading.main_thread()
        on_main = {name: [thread is main for called, thread in threads if called == name]
                   for name in ("_spectrum_numbers", "_dispersion_numbers")}
        assert on_main == {"_spectrum_numbers": [True, False],
                           "_dispersion_numbers": [True, True]}
        # simulate after the lone spectrum, backward after the pair
        assert steps == [([], [True] * 2), ([], [True] * 8)]
        assert other_threads() == []

    @pytest.mark.parametrize("tasks", ["spectrum, dispersion", "dispersion, spectrum"])
    def test_outputs_equal_the_sequential_run(self, tmp_path, monkeypatch, tasks):
        # as shipped the spectrum runs off the calling thread; with the
        # threshold above 6n the tasks run one after the other
        spectral_report, threads = runner.spectral_report, []

        def recording(op):
            threads.append(threading.current_thread())
            return spectral_report(op)

        monkeypatch.setattr(runner, "spectral_report", recording)
        scenario = threaded_scenario(tasks, "\n[dispersion]\nn_k = 600\n")
        assert runner.run_scenario(scenario, str(tmp_path / "overlapped")) == 0
        monkeypatch.setattr(runner, "_THREADED_SECTORS", 6 * LEAST_THREADED + 1)
        assert runner.run_scenario(scenario, str(tmp_path / "sequential")) == 0
        main = threading.main_thread()
        assert threads[0] is not main and threads[1] is main
        assert other_threads() == []
        for name in ("report.txt", "spectrum.csv", "dispersion.csv"):
            assert ((tmp_path / "overlapped" / name).read_bytes()
                    == (tmp_path / "sequential" / name).read_bytes()), name


def test_dissipativity_certificate_checks_the_identity(tmp_path, monkeypatch):
    # a generator that damps theta at half the h_cond of the energy's
    # dissipation form: its spectrum stays left of the axis, and only the
    # identity sym(G A) = -Q shows the mismatch
    assemble = runner.assemble_operator

    def halved_conduction(grid, moduli):
        op = assemble(grid, moduli)
        halved = dataclasses.replace(moduli, h_cond=0.5 * moduli.h_cond)
        return op._replace(stencil=assemble(grid, halved).stencil)

    monkeypatch.setattr(runner, "assemble_operator", halved_conduction)
    assert runner.run_scenario(scenario("spectrum"), str(tmp_path)) == 1
    report = (tmp_path / "report.txt").read_text()
    assert "spectral_abscissa < 0: PASS" in report
    assert "dissipativity margin: FAIL (identity residual 1.667e-01" in report


def test_csv_writer_bytes_match_csv_module(tmp_path):
    # the renderer formats whole chunks of rows with one %; the written
    # bytes must be those of csv.writer on format(x, ".17g") row by row
    specials = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 3.0, -12.0, 1e16, 0.1]
    rows = 2 * runner._CSV_CHUNK + 7
    table = np.random.default_rng(3).standard_normal((rows, 5))
    table.ravel()[:len(specials)] = specials
    table[-1] = specials[-5:]
    header = ("t", "E1", "E2", "E3", "calE")
    runner._write_csv(str(tmp_path / "new.csv"), header, runner._render(list(table.T)))
    with open(tmp_path / "oracle.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in table:
            writer.writerow([format(float(x), ".17g") for x in row])
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
