"""Self-check of the benchmark at tiny sizes.

    python3 -m pytest bench/tests -q

Runs every workload in quick mode, traced and untraced, and checks
that every metric BENCHMARK.json names is emitted with its unit, that
the traced self times add up, that the correctness gate trips on
corrupted output, that the calibration timer is disarmed after a pass,
and that the benchmark refuses to run without the package sources.
"""

import json
import math
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from gate import Gate, load_expected  # noqa: E402
from tracing import LAYERS  # noqa: E402
from workloads import WORKLOADS, make_cases  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def quick_results():
    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            results[workload, trace] = run.run(
                ["--workload", workload, "--seed", "5", "--seconds", "0",
                 "--trace", str(trace), "--quick"])
    return results


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["command"][:2] == ["python3", "bench/run.py"]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_emitted_with_its_unit(quick_results, workload, trace):
    result = quick_results[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])
    json.dumps(result, allow_nan=False)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_add_up_to_the_traced_pass(quick_results, workload):
    metrics = {k: v["value"] for k, v in quick_results[workload, 1]["metrics"].items()}
    total = metrics["root.self_s"] + sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    assert total == pytest.approx(metrics["trace.run_s"], rel=1e-9)


def test_gate_trips_on_corrupted_output(tmp_path):
    microtherm = run._import_microtherm()
    case = next(c for c in make_cases("reference_sweep", 1, str(tmp_path / "cfg"),
                                      str(run.SRC / "microtherm" / "configs"), quick=True)
                if c.kind == "type3-sine")
    out = tmp_path / "out"
    exit_code = microtherm.cli.main(["run", case.path, "--out", str(out)])
    expected = load_expected(BENCH_DIR / "expected_verdicts.json", "reference_sweep")
    gate = Gate(expected)
    assert gate.check(case, str(out), exit_code) == []
    assert gate.check(case, str(out), exit_code) == []

    energy = out / "energy.csv"
    data = bytearray(energy.read_bytes())
    first_value = data.index(b"\n") + 1
    data[first_value] = ord("7") if data[first_value] != ord("7") else ord("3")
    energy.write_bytes(bytes(data))
    assert any("byte-identical" in p for p in gate.check(case, str(out), exit_code))

    report = out / "report.txt"
    report.write_text(report.read_text().replace("backward positivity: PASS",
                                                 "backward positivity: FAIL"))
    fresh = Gate(expected)
    assert any("verdicts differ" in p for p in fresh.check(case, str(out), exit_code))

    (out / "spectrum.csv").unlink()
    assert any("wrote" in p for p in Gate(expected).check(case, str(out), exit_code))
    assert Gate(expected).check(case, str(out), 2) != []
    assert Gate(expected).check(case, str(out), None, RuntimeError("boom")) != []
    assert gate.failed == 1 and gate.attempted == 3


def test_calibration_timer_is_disarmed_after_sampling():
    from calibration import CHUNK_REPS, Calibrator
    calibrator = Calibrator()
    handler = signal.getsignal(signal.SIGALRM)
    with pytest.raises(RuntimeError), calibrator.sampling():
        time.sleep(0.35)
        raise RuntimeError("the pass failed")
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert calibrator.reps >= 3 * CHUNK_REPS
    assert calibrator.take() > 0 and calibrator.reps == 0


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
