"""run_scenario makes each scenario's forward midpoint run at most once:
simulate and localization share it when simulate keeps every midpoint
step, and the localization probe makes its own run otherwise."""

import dataclasses
import inspect
import weakref

import pytest

from microtherm import diagnostics, parse_scenario, runner

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
    """snapshot_every of every run made by the runner itself
    and by the localization probe (its time-reversed run)."""
    made = {"runner": [], "probe": []}

    def counting(module, key):
        original = module.run_forward
        signature = inspect.signature(original)

        def run_forward(*args, **kwargs):
            call = signature.bind(*args, **kwargs)
            call.apply_defaults()
            made[key].append(call.arguments["snapshot_every"])
            return original(*args, **kwargs)

        monkeypatch.setattr(module, "run_forward", run_forward)

    counting(runner, "runner")
    counting(diagnostics, "probe")
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


def test_probe_makes_its_own_run_when_simulate_cannot_share(tmp_path, runs):
    runner.run_scenario(scenario("simulate, localization", every=2), str(tmp_path))
    assert runs["runner"] == [2, 1]
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


@pytest.mark.parametrize("model", ["type2", "type3"])
def test_simulate_output_does_not_depend_on_sharing(tmp_path, model):
    for name, tasks in (("alone", "simulate"), ("after", "simulate, localization"),
                        ("before", "localization, simulate")):
        runner.run_scenario(scenario(tasks, model), str(tmp_path / name))
    energy = (tmp_path / "alone" / "energy.csv").read_bytes()
    assert (tmp_path / "after" / "energy.csv").read_bytes() == energy
    assert (tmp_path / "before" / "energy.csv").read_bytes() == energy


def test_shared_trajectory_is_released_after_simulate(tmp_path, monkeypatch):
    refs = []
    run_forward, spectral_report = runner.run_forward, runner.spectral_report

    def recording(*args, **kwargs):
        traj = run_forward(*args, **kwargs)
        refs.append(weakref.ref(traj))
        return traj

    def checking(*args, **kwargs):
        assert refs and all(ref() is None for ref in refs)
        return spectral_report(*args, **kwargs)

    monkeypatch.setattr(runner, "run_forward", recording)
    monkeypatch.setattr(runner, "spectral_report", checking)
    tasks = "simulate, spectrum, localization"
    assert runner.run_scenario(scenario(tasks), str(tmp_path)) == 0
    assert len(refs) == 1


def test_dissipativity_certificate_checks_the_identity(tmp_path, monkeypatch):
    # a generator that damps theta at half the h_cond of the energy's
    # dissipation form: its spectrum stays left of the axis, and only the
    # identity sym(G A) = -Q shows the mismatch
    assemble = runner.assemble_operator

    def halved_conduction(grid, moduli):
        op = assemble(grid, moduli)
        halved = dataclasses.replace(moduli, h_cond=0.5 * moduli.h_cond)
        return op._replace(a_mat=assemble(grid, halved).a_mat)

    monkeypatch.setattr(runner, "assemble_operator", halved_conduction)
    assert runner.run_scenario(scenario("spectrum"), str(tmp_path)) == 1
    report = (tmp_path / "report.txt").read_text()
    assert "spectral_abscissa < 0: PASS" in report
    assert "dissipativity margin: FAIL (identity residual 1.667e-01" in report
