"""Scenario files for the three benchmark workloads, made from a seed.

Every workload is a list of ``Case`` entries: a scenario file plus the
``kind`` under which ``expected_verdicts.json`` records its certificate
verdicts.  The same seed always gives byte-identical files.  ``quick``
shrinks each workload to a size that runs in about a second while
keeping the verdicts of the full size.
"""

import os
import random
from dataclasses import dataclass

WORKLOADS = ("reference_sweep", "scaled_type3", "spectral_dispersion")

_TASKS = {
    "type2": "simulate, spectrum, dispersion, localization",
    "type3": "simulate, spectrum, dispersion, backward, localization",
}
# variant indices of reference_sweep that use preset = random (4 of 14);
# the other ten use sine modes
_RANDOM_VARIANTS = (2, 3, 9, 10)


@dataclass(frozen=True)
class Case:
    ident: str   # scenario id: output directory name and trace request id
    path: str    # scenario file
    kind: str    # key into the workload's expected verdicts


def _sine_init(rng):
    return [
        "preset = sine",
        f"u_amp = {rng.uniform(0.5, 1.5)!r}",
        f"u_mode = {rng.randint(1, 5)}",
        f"theta_amp = {rng.uniform(0.1, 1.0)!r}",
        f"theta_mode = {rng.randint(1, 5)}",
        f"seed = {rng.randrange(2**31)}",
    ]


def _scenario_text(model, n_interior, dt, n_steps, init, tasks, dispersion=None):
    lines = [
        "[material]", f"model = {model}", "",
        "[grid]", f"n_interior = {n_interior}", "",
        "[time]", f"dt = {dt!r}", f"n_steps = {n_steps}", "snapshot_every = 1", "",
        "[init]", *init, "",
        "[tasks]", f"run = {tasks}", "",
    ]
    if dispersion:
        k_min, k_max, n_k = dispersion
        lines += ["[dispersion]", f"k_min = {k_min!r}", f"k_max = {k_max!r}",
                  f"n_k = {n_k}", ""]
    return "\n".join(lines)


def _reference_sweep(rng, quick, config_dir):
    """The two shipped reference files verbatim plus seeded variants
    that alternate type2/type3 at the reference size (n = 16, 400
    steps).  type2 variants omit the backward task, as the type2
    reference does: conservative moduli admit no positive backward
    functional."""
    cases = [(f"ref_{m}", os.path.join(config_dir, f"reference_{m}.cfg"), None, f"{m}-sine")
             for m in ("type2", "type3")]
    for i in range(4 if quick else 14):
        model = ("type2", "type3")[i % 2]
        if i in _RANDOM_VARIANTS:
            init, kind = ["preset = random", f"seed = {rng.randrange(2**31)}"], f"{model}-random"
        else:
            init, kind = _sine_init(rng), f"{model}-sine"
        text = _scenario_text(model, 16, 0.01, 400, init, _TASKS[model])
        cases.append((f"var{i:02d}_{kind}", None, text, kind))
    return cases


def _scaled_type3(rng, quick):
    """One long, stepping-bound type3 run whose trajectory is larger
    than the last-level cache."""
    n, steps = (32, 400) if quick else (512, 5000)
    text = _scenario_text("type3", n, 1e-3, steps, _sine_init(rng),
                          "simulate, localization")
    return [("scaled", None, text, "type3-sine")]


def _spectral_dispersion(rng, quick):
    """Dense spectrum plus a long wavenumber sweep; no time stepping."""
    n, n_k = (32, 200) if quick else (256, 4000)
    text = _scenario_text("type3", n, 0.01, 0, _sine_init(rng),
                          "spectrum, dispersion", dispersion=(0.5, 40.0, n_k))
    return [("spectral", None, text, "type3-sine")]


def make_cases(workload, seed, out_dir, config_dir, quick=False):
    """Write the workload's generated scenario files into out_dir and
    return its cases in run order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "reference_sweep":
        specs = _reference_sweep(rng, quick, config_dir)
    elif workload == "scaled_type3":
        specs = _scaled_type3(rng, quick)
    elif workload == "spectral_dispersion":
        specs = _spectral_dispersion(rng, quick)
    else:
        raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")
    os.makedirs(out_dir, exist_ok=True)
    cases = []
    for ident, path, text, kind in specs:
        if path is None:
            path = os.path.join(out_dir, f"{ident}.cfg")
            with open(path, "w") as handle:
                handle.write(text)
        cases.append(Case(ident, path, kind))
    return cases
