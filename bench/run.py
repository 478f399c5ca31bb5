"""Time-to-verdict benchmark: scenario files in, certified reports out.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

Run from any directory of a source checkout; the package is imported
from the checkout's ``src/``.  For the workload named (see
workloads.py) it writes the scenario files the seed gives, measures
set-up in fresh interpreters, then runs passes over the scenarios
through ``microtherm.cli.main(["run", cfg, "--out", dir])`` in this
process for ``--seconds`` (at least two passes).  Every scenario run goes
through the correctness gate (gate.py).

``--trace 0`` reports the end-to-end metrics from untraced passes.
Pass times are reported in calibration units (``run_cal``): a fixed
kernel (calibration.py) interrupts each pass every 0.1 s for a few
milliseconds, and the pass time less the kernel's is divided by the
kernel's rate, so that the swings in speed of a shared CPU cancel.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of tracing.py plus the tracing overhead.  ``--quick``
runs the same code at tiny sizes.  The last line of standard output is
one JSON object: correct, attempted, failed and metrics.  Spans, the
environment record and the result are also written under
``.bench_work/<workload>/`` in the checkout.

BLAS and OpenMP pools are pinned to one thread before numpy loads.
"""

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gate import Gate, load_expected
from tracing import Tracer, layer_metrics
from workloads import WORKLOADS, make_cases

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5   # timed fresh-interpreter set-ups per run, after one warm-up
MIN_PASSES = 2      # untraced passes per run, however long a pass takes


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes, for the benchmark's self-check")
    return parser.parse_args(argv)


def _import_microtherm():
    if not (SRC / "microtherm" / "__init__.py").is_file():
        raise BenchError(f"no microtherm package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import microtherm
    import microtherm.cli
    if Path(microtherm.__file__).resolve().parent != SRC / "microtherm":
        raise BenchError(f"imported microtherm from {microtherm.__file__}, not {SRC}")
    return microtherm


def _measure_setup(cases, repeats):
    """Wall seconds of fresh interpreters that import microtherm and
    parse the workload's scenarios; the first, which also fills the
    bytecode cache, is not counted."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC),
           *(case.path for case in cases)]
    times = []
    for _ in range(repeats + 1):
        start = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode:
            raise BenchError(f"set-up probe failed:\n{proc.stderr}")
    return times[1:]


def _run_pass(cli_main, cases, gate, out_root, tracer=None, calibrator=None):
    """Run every case once; returns (pass seconds, bytes written).  Only
    the scenario runs are timed; the gate checks them afterwards.  With
    a calibrator, the time its kernel took during the pass is not
    counted."""
    shutil.rmtree(out_root, ignore_errors=True)
    gc.collect()
    results = []
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            (tracer or contextlib.nullcontext()):
        main = tracer.wrap(cli_main, "main") if tracer else cli_main
        if tracer:
            root = tracer.begin("root.pass", "root")
        kernel_s = calibrator.seconds if calibrator else 0.0
        start = time.perf_counter()
        with calibrator.sampling() if calibrator else contextlib.nullcontext():
            for case in cases:
                if tracer:
                    tracer.scenario = case.ident
                out_dir = str(out_root / case.ident)
                try:
                    results.append((case, out_dir,
                                    main(["run", case.path, "--out", out_dir]), None))
                except Exception as exc:  # a crash is a gate failure, not a benchmark crash
                    results.append((case, out_dir, None, exc))
        elapsed = time.perf_counter() - start
        if calibrator:
            elapsed -= calibrator.seconds - kernel_s
        if tracer:
            tracer.scenario = None
            tracer.end()
            elapsed = root.end - root.start
    written = 0
    for case, out_dir, exit_code, error in results:
        gate.check(case, out_dir, exit_code, error)
        if os.path.isdir(out_dir):
            written += sum(entry.stat().st_size for entry in os.scandir(out_dir))
    return elapsed, written


def _caches():
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            fields = [(index / key).read_text().strip() for key in ("level", "type", "size")]
        except OSError:
            continue
        caches.append("L{} {} {}".format(*fields))
    return caches or ["unknown"]


def _commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "microtherm").rglob("*")):
        if path.suffix in (".py", ".cfg"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(args):
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "quick": args.quick,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "caches": _caches(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "commit": _commit(), "source_sha256": _source_digest(),
    }


def _tail(samples):
    """Highest whole percentile with at least ten samples beyond it, or
    None when the run has fewer than twenty samples."""
    if len(samples) < 20:
        return None
    pct = math.floor(100 * (1 - 10 / len(samples)))
    return pct, statistics.quantiles(samples, n=100)[pct - 1]


def run(argv=None):
    """Run the benchmark; returns the result object printed last."""
    args = _parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    microtherm = _import_microtherm()
    from calibration import Calibrator  # loads numpy, so after the pinning

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    config_dir = str(SRC / "microtherm" / "configs")
    cases = make_cases(args.workload, args.seed, str(work / "scenarios"), config_dir,
                       quick=args.quick)
    warm_cases = [dataclasses.replace(case, ident=f"warmup-{case.ident}") for case in
                  make_cases(args.workload, args.seed, str(work / "warmup"), config_dir,
                             quick=True)]
    gate = Gate(load_expected(BENCH_DIR / "expected_verdicts.json", args.workload))
    env = environment(args)
    print("env: " + json.dumps(env, sort_keys=True))

    setup = _measure_setup(cases, 1 if args.quick else SETUP_REPEATS)
    cli_main = microtherm.cli.main
    _run_pass(cli_main, warm_cases, gate, work / "out-warmup")

    tracer = Tracer() if args.trace else None
    calibrator = Calibrator()
    calibrator.chunk()  # warm-up, not counted
    calibrator.take()
    untraced, traced, unit_s = [], [], []
    written = 0
    start = time.perf_counter()
    while True:
        use_tracer = tracer is not None and len(traced) < len(untraced)
        pass_start = time.perf_counter()
        if use_tracer:
            elapsed, nbytes = _run_pass(cli_main, cases, gate, work / "out", tracer)
            traced.append(elapsed)
            written += nbytes
        else:
            elapsed, _ = _run_pass(cli_main, cases, gate, work / "out",
                                   calibrator=calibrator)
            untraced.append(elapsed)
            unit_s.append(calibrator.take())
        # stop before a pass that would likely end after --seconds
        now = time.perf_counter()
        if (now - start + (now - pass_start) > args.seconds and len(untraced) >= MIN_PASSES
                and (tracer is None or traced)):
            break

    run_cal = [t / u for t, u in zip(untraced, unit_s)]
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "run_cal": (statistics.median(run_cal), "cal"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    else:
        metrics = layer_metrics(tracer, len(traced), written)
        traced_s, untraced_s = statistics.fmean(traced), statistics.fmean(untraced)
        metrics["trace.run_s"] = (traced_s, "s")
        metrics["trace.untraced_run_s"] = (untraced_s, "s")
        metrics["trace.overhead_pct"] = (100 * (traced_s / untraced_s - 1), "%")
        tracer.write(work / "spans.jsonl")

    tail = _tail(untraced)
    print(f"{args.workload}: {len(cases)} scenarios per pass, "
          f"{len(untraced)} untraced and {len(traced)} traced passes, "
          f"setup samples {len(setup)}")
    print(f"run_s: median {statistics.median(untraced):.6g} s over {len(untraced)} "
          "untraced passes; " + (f"p{tail[0]} {tail[1]:.6g} s" if tail else
                                 "fewer than 20 passes, so no tail percentile"))
    print(f"calibration unit: median {statistics.median(unit_s):.6g} s, "
          f"range {min(unit_s):.6g} to {max(unit_s):.6g} s over the untraced passes")
    print(f"failed_frac: {gate.failed_frac:.6g} ({gate.failed} of {gate.attempted} "
          "scenario runs failed the gate)")
    for problem in gate.problems[:20]:
        print(f"gate: {problem}")
    if tracer and tracer.absent:
        print("absent trace points: " + ", ".join(sorted(tracer.absent)))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")

    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(work / "result.json", "w") as handle:
        json.dump({"env": env, "setup_samples_s": setup, "untraced_passes_s": untraced,
                   "traced_passes_s": traced, "calibration_unit_s": unit_s,
                   "run_cal": run_cal, "gate_problems": gate.problems,
                   "absent": sorted(tracer.absent) if tracer else [],
                   "result": result}, handle, indent=1)
    return result


def main(argv=None):
    try:
        result = run(argv)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
