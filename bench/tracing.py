"""Spans around microtherm's layer boundaries, recorded from outside.

The tracer rebinds public names that microtherm's modules import from
one another (``TRACE_POINTS``) to wrappers that record a span per call:
name, start, end, parent and scenario id.  Nothing in the package is
edited; ``uninstall`` restores the original bindings.  A name that has
disappeared from its module is reported absent instead of failing.

Per-snapshot helpers called inside the diagnostics loops (such as
``staggered_difference``) are not wrapped: the wrapper would cost more
than their work, so their time counts toward the calling diagnostic.
"""

import collections
import functools
import importlib
import inspect
import json
import time

LAYERS = ("scenario", "material", "discrete1d", "evolve", "diagnostics",
          "dispersion", "runner", "cli")

# module -> names it imports from other microtherm modules.  The runner
# calls the layers through its own bindings, localization_probe and
# the backward diagnostics through those of diagnostics, and
# run_forward constructs its stepper through evolve's.
TRACE_POINTS = (
    ("microtherm.cli", ("parse_scenario", "run_scenario")),
    ("microtherm.runner", (
        "to_moduli_1d", "assemble_operator", "assemble_backward",
        "build_initial", "run_forward", "energy", "energy_series",
        "energy_balance_residuals", "dissipation_rate",
        "backward_functionals", "localization_probe", "spectral_report",
        "solve_branches", "symbol_frequencies", "root_set_distance")),
    ("microtherm.diagnostics", ("run_forward", "energy_series", "time_reversal")),
    ("microtherm.evolve", ("MidpointStepper",)),
)


def _nnz(call, result):
    return {"nnz": result.a_mat.nnz}


# counts taken from a traced call's arguments and result
_COUNTERS = {
    "run_forward": lambda call, result: {
        "steps": call.arguments["n_steps"],
        "snapshots": len(result),
        "trajectory_bytes": len(result) * 6 * call.arguments["op"].n * 8,
    },
    "assemble_operator": _nnz,
    "assemble_backward": _nnz,
    "spectral_report": lambda call, result: {"size": len(result.eigenvalues)},
    "solve_branches": lambda call, result: {"wavenumbers": len(result.k_values)},
}


class Span:
    __slots__ = ("ident", "name", "layer", "scenario", "parent", "start",
                 "end", "child_s", "counts")

    def __init__(self, ident, name, layer, scenario, parent):
        self.ident = ident
        self.name = name
        self.layer = layer
        self.scenario = scenario
        self.parent = parent
        self.child_s = 0.0
        self.counts = None

    @property
    def self_s(self):
        return self.end - self.start - self.child_s


class Tracer:
    """Keeps spans in memory; ``scenario`` tags every span opened."""

    def __init__(self):
        self.spans = []
        self.scenario = None
        self.absent = set()
        self._open = []
        self._originals = []
        self._epoch = time.perf_counter()

    def begin(self, name, layer):
        parent = self._open[-1].ident if self._open else None
        span = Span(len(self.spans) + len(self._open), name, layer,
                    self.scenario, parent)
        self._open.append(span)
        span.start = time.perf_counter()
        return span

    def end(self):
        span = self._open.pop()
        span.end = time.perf_counter()
        if self._open:
            self._open[-1].child_s += span.end - span.start
        self.spans.append(span)

    def wrap(self, fn, attr):
        """fn with a span around every call, named layer.attr where the
        layer is the module that defines fn."""
        layer = fn.__module__.rpartition(".")[2]
        name = f"{layer}.{attr}"
        counter = _COUNTERS.get(attr)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            span = self.begin(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if counter:
                span.counts = self._count(counter, signature, args, kwargs, result, name)
            return result

        return traced

    def _count(self, counter, signature, args, kwargs, result, name):
        try:
            call = signature.bind(*args, **kwargs)
            call.apply_defaults()
            return counter(call, result)
        except (AttributeError, KeyError, TypeError) as exc:
            self.absent.add(f"counts of {name} ({exc!r})")
            return None

    def install(self):
        for module_name, attrs in TRACE_POINTS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.add(module_name)
                continue
            for attr in attrs:
                fn = getattr(module, attr, None)
                if fn is None:
                    self.absent.add(f"{module_name}.{attr}")
                    continue
                self._originals.append((module, attr, fn))
                setattr(module, attr, self.wrap(fn, attr))

    def uninstall(self):
        while self._originals:
            module, attr, fn = self._originals.pop()
            setattr(module, attr, fn)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def write(self, path):
        """Write every closed span as one JSON object per line."""
        with open(path, "w") as handle:
            for s in self.spans:
                record = {"id": s.ident, "name": s.name, "layer": s.layer,
                          "parent": s.parent, "scenario": s.scenario,
                          "start": s.start - self._epoch,
                          "end": s.end - self._epoch, "self_s": s.self_s}
                if s.counts:
                    record.update(s.counts)
                handle.write(json.dumps(record) + "\n")


def layer_metrics(tracer, passes, bytes_written):
    """Per-pass per-layer metrics from the spans of ``passes`` traced
    passes; values are means per pass, so the layers' self times plus
    root.self_s add up to trace.run_s.  Returns name -> (value, unit)."""
    total = collections.defaultdict(float)
    self_by_name = collections.defaultdict(float)
    self_by_layer = collections.defaultdict(float)
    calls = collections.Counter()
    counts = collections.defaultdict(float)
    largest = collections.defaultdict(float)
    for s in tracer.spans:
        total[s.name] += s.end - s.start
        self_by_name[s.name] += s.self_s
        self_by_layer[s.layer] += s.self_s
        calls[s.name] += 1
        for key, value in (s.counts or {}).items():
            counts[f"{s.name}.{key}"] += value
            largest[f"{s.name}.{key}"] = max(largest[f"{s.name}.{key}"], value)

    def per_pass(value):
        return value / passes

    factor_s = total["evolve.MidpointStepper"]
    step_s = total["evolve.run_forward"] - factor_s
    steps = counts["evolve.run_forward.steps"]
    metrics = {
        "evolve.factor_s": (per_pass(factor_s), "s"),
        "evolve.step_s": (per_pass(step_s), "s"),
        "evolve.step_us": (step_s / steps * 1e6 if steps else 0.0, "us"),
        "evolve.steps": (per_pass(steps), "count"),
        "evolve.snapshots": (per_pass(counts["evolve.run_forward.snapshots"]), "count"),
        # computed as snapshots x 6n x 8 B for the largest trajectory of a pass
        "evolve.trajectory_mb": (largest["evolve.run_forward.trajectory_bytes"] / 1e6, "MB"),
        "diagnostics.energy_series_s": (per_pass(total["diagnostics.energy_series"]), "s"),
        "diagnostics.energy_s": (per_pass(total["diagnostics.energy"]), "s"),
        "diagnostics.energy_calls": (per_pass(calls["diagnostics.energy"]), "count"),
        "diagnostics.balance_s": (per_pass(total["diagnostics.energy_balance_residuals"]), "s"),
        "diagnostics.backward_s": (per_pass(total["diagnostics.backward_functionals"]), "s"),
        "diagnostics.localization_self_s": (
            per_pass(self_by_name["diagnostics.localization_probe"]), "s"),
        "diagnostics.spectrum_s": (per_pass(total["diagnostics.spectral_report"]), "s"),
        "diagnostics.spectrum_size": (largest["diagnostics.spectral_report.size"], "count"),
        "dispersion.branches_s": (per_pass(total["dispersion.solve_branches"]), "s"),
        "dispersion.symbol_s": (per_pass(total["dispersion.symbol_frequencies"]), "s"),
        "dispersion.match_s": (per_pass(total["dispersion.root_set_distance"]), "s"),
        "dispersion.wavenumbers": (
            per_pass(counts["dispersion.solve_branches.wavenumbers"]), "count"),
        "discrete1d.assemble_s": (per_pass(total["discrete1d.assemble_operator"]
                                           + total["discrete1d.assemble_backward"]), "s"),
        "discrete1d.nnz": (per_pass(counts["discrete1d.assemble_operator.nnz"]
                                    + counts["discrete1d.assemble_backward.nnz"]), "count"),
        "material.to_moduli_s": (per_pass(total["material.to_moduli_1d"]), "s"),
        "scenario.build_initial_s": (per_pass(total["scenario.build_initial"]), "s"),
        "scenario.parse_s": (per_pass(total["scenario.parse_scenario"]), "s"),
        "runner.bytes_written": (per_pass(bytes_written), "B"),
        "root.self_s": (per_pass(self_by_layer["root"]), "s"),
        "trace.spans": (per_pass(len(tracer.spans)), "count"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (per_pass(self_by_layer[layer]), "s")
    return metrics
