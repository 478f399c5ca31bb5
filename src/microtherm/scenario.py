"""Scenario files: INI text describing one solver run.

Required sections [material], [grid], [time], [init], [tasks]; optional
[dispersion], [backward], [output].  One table (_KEYS) declares every
key: its type, its default, and the range of the rule that reads it
alone; the rules that read several keys follow it in parse_scenario.
The dt rules read the generators' node stencils, the k_max rule the
dispersion route at k_max.  So bad input fails loudly at parse time.

The [material] section selects model = type2 (conservative) or type3
(dissipative) and may override any isotropic modulus; unset moduli fall
back to the reference material of the chosen model.  Conservative runs
must not carry rate moduli, so setting h_cond or rho1..rho3 nonzero
under model = type2 is rejected.
"""

import configparser
import math
from dataclasses import dataclass, field, fields as dc_fields, replace
from typing import NamedTuple

import numpy as np

from .diagnostics import DENSE_LIMIT
from .discrete1d import FIELDS, Grid1D, block_rows, generator_table, table_stencil
from .dispersion import quadratic_frequencies
from .errors import ParseError, RootFailure, ValidationError
from .evolve import _midpoint_norm
from .material import MaterialIsotropic, _hypotheses, _reduce, reference_type2, reference_type3

__all__ = ["InitSpec", "Scenario", "parse_scenario", "build_initial"]

_MODELS = ("type2", "type3")
_PRESETS = ("zero", "sine", "impulse", "random")
_TASKS = ("simulate", "spectrum", "dispersion", "backward", "localization")
_MAX_ARRAY_BYTES = 2 * 2**30  # largest peak of a run's arrays
# peak bytes a simulate, localization or backward task allocates per
# kept state, the runs being streamed in blocks: tracemalloc around
# run_scenario reads 142 to 175 B (type3, n_interior = 8 and 64, 2e4
# to 1.2e5 kept states, the slope between the two), rounded up
_BYTES_PER_KEPT_STATE = 192
# peak bytes the dispersion task allocates per wavenumber, its numbers
# held with their rendered dispersion.csv rows (runner._dispersion_numbers):
# the slope of the tracemalloc peak around runner._dispersion (n_k = 4000
# to 200000, the grid solved in blocks of dispersion._K_BLOCK
# wavenumbers) is 619.2 B on the type2 and 608.1 B on the type3
# reference, and 660 and 665 B on grids of k_min = 1.1e-5 to k_max =
# 9.9e-5, whose every value prints with an exponent.  Of that, 106 to
# 154 B are the branches and the columns of the block being rendered,
# the rest the text: 506 to 559 B there, and at most 6 rows of 102
# characters, 612 B.  The count is 612 + 154 B rounded up.  Below about
# 4000 wavenumbers the blocks' temporaries, about 1.5 MB, set the peak.
# At the limit, 2^31 / 768 = 2796202 wavenumbers, the steepest measured
# line gives 1.86e9 B, which leaves about 270 MiB for those temporaries
# and for the dense spectrum that runner._overlapped solves beside the
# dispersion (at 6n = DENSE_LIMIT spectral_report peaks at 39 MiB under
# tracemalloc)
_DISPERSION_BYTES_PER_K = 768

# a default that is no value: the key must be set, or a rule derives it
# (an unset modulus is the model's reference material's, build_initial
# puts an impulse at the middle node)
_REQUIRED, _REFERENCE, _MIDDLE = "required", "reference material", "n_interior // 2"
_AT_LEAST_0, _AT_LEAST_1 = (lambda v: v >= 0, ">= 0"), (lambda v: v >= 1, ">= 1")
_POSITIVE = (lambda v: v > 0, "positive")


def _one_of(choices: tuple):
    return choices.__contains__, f"one of {choices}"


class _Key(NamedTuple):
    """A scenario key: kind (float, int, str, or tasks, a comma- or
    space-separated list of _TASKS), its default, and the range where
    the rule reads this key alone, as (test, text) or None."""

    kind: str
    default: object
    rule: tuple = None


# every [section] key a scenario file may set, in the order they are read
_KEYS = {
    ("material", "model"): _Key("str", _REQUIRED, _one_of(_MODELS)),
    **{("material", f.name): _Key("float", _REFERENCE) for f in dc_fields(MaterialIsotropic)},
    ("grid", "n_interior"): _Key("int", _REQUIRED),
    ("grid", "length"): _Key("float", 1.0),
    ("time", "dt"): _Key("float", _REQUIRED),
    ("time", "n_steps"): _Key("int", _REQUIRED, _AT_LEAST_0),
    ("time", "snapshot_every"): _Key("int", 1, _AT_LEAST_1),
    ("init", "preset"): _Key("str", _REQUIRED, _one_of(_PRESETS)),
    ("init", "seed"): _Key("int", 0, _AT_LEAST_0),
    ("init", "amp"): _Key("float", 1.0),
    ("init", "field"): _Key("str", "theta", _one_of(FIELDS)),
    ("init", "node"): _Key("int", _MIDDLE),
    **{("init", f"{name}_amp"): _Key("float", 0.0) for name in FIELDS},
    **{("init", f"{name}_mode"): _Key("int", 1) for name in FIELDS},
    ("tasks", "run"): _Key("tasks", ()),
    ("dispersion", "k_min"): _Key("float", 0.5, _POSITIVE),
    ("dispersion", "k_max"): _Key("float", 8.0),
    ("dispersion", "n_k"): _Key("int", 16, _AT_LEAST_1),
    ("backward", "dt"): _Key("float", 5e-5),
    ("backward", "n_steps"): _Key("int", 200, _AT_LEAST_0),
    ("backward", "eps"): _Key("float", 0.5, (lambda v: 0 < v < 1, "in (0, 1)")),
    ("backward", "lam"): _Key("float", 2.0, _POSITIVE),
    ("output", "directory"): _Key("str", ""),
}
_SECTIONS = dict.fromkeys(section for section, _ in _KEYS)
_REQUIRED_SECTIONS = ("material", "grid", "time", "init", "tasks")


@dataclass(frozen=True)
class InitSpec:
    """Initial-data recipe; params hold the preset-specific knobs the
    file sets."""

    preset: str
    params: dict = field(default_factory=dict)

    def value(self, key: str):
        """The [init] key as the file set it, else its default."""
        return self.params.get(key, _KEYS["init", key].default)


@dataclass(frozen=True)
class Scenario:
    model: str
    material: MaterialIsotropic
    grid: Grid1D
    dt: float
    n_steps: int
    snapshot_every: int
    init: InitSpec
    tasks: tuple
    k_min: float
    k_max: float
    n_k: int
    backward_dt: float
    backward_n_steps: int
    eps: float
    lam: float
    out_dir: str


def _convert(section: str, key: str, kind: str, raw: str):
    """The text raw of [section] key as a value of its kind."""
    if kind == "str":
        return raw
    if kind == "tasks":
        tasks = tuple(raw.replace(",", " ").split())
        for k, task in enumerate(tasks):
            if task not in _TASKS:
                raise ParseError(f"unknown task {task!r}, expected one of {_TASKS}")
            if task in tasks[:k]:
                raise ParseError(f"[tasks] run: task {task!r} is listed twice")
        return tasks
    try:
        value = float(raw) if kind == "float" else int(raw)
    except ValueError:
        what = "a number" if kind == "float" else "an integer"
        raise ParseError(f"[{section}] {key}: could not parse {raw!r} as {what}") from None
    if not math.isfinite(value):
        raise ParseError(f"[{section}] {key}: {raw!r} is not a finite number")
    return value


def _read_keys(parsed: dict) -> dict:
    """The keys the file sets, by section, each converted to its kind and
    checked against its own range; an unset required key is an error."""
    values = {section: {} for section in _SECTIONS}
    for (section, key), (kind, default, rule) in _KEYS.items():
        raw = parsed.get(section, {}).get(key)
        if raw is None:
            if default == _REQUIRED:
                raise ParseError(f"missing key '{key}' in [{section}]")
            continue
        value = _convert(section, key, kind, raw)
        if rule is not None and not rule[0](value):
            raise ParseError(f"[{section}] {key} must be {rule[1]}, got {value!r}")
        values[section][key] = value
    return values


def parse_scenario(text: str) -> Scenario:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ParseError(str(exc)) from exc

    parsed = {name: dict(parser[name]) for name in parser.sections()}
    for name in _REQUIRED_SECTIONS:
        if name not in parsed:
            raise ParseError(f"missing [{name}] section")
    for name, keys in parsed.items():
        if name not in _SECTIONS:
            raise ParseError(f"unknown section [{name}]")
        for key in keys:
            if (name, key) not in _KEYS:
                raise ParseError(f"unknown key '{key}' in [{name}]")
    values = _read_keys(parsed)

    def value(section, key):
        return values[section].get(key, _KEYS[section, key].default)

    # the rules below read several keys
    overrides = values["material"]
    model = overrides.pop("model")
    if model == "type2":
        for key in ("h_cond", "rho1", "rho2", "rho3"):
            if overrides.get(key):
                raise ValidationError(f"type II requires H=0 and vanishing rate moduli, "
                                      f"got {key} = {overrides[key]}")
    base = reference_type2() if model == "type2" else reference_type3()
    material = replace(base, **overrides)
    moduli = _reduce(material)  # validate_isotropic, keeping the moduli
    report = _hypotheses(moduli)
    if not report.valid:
        raise ValidationError(str(report))

    params = values["init"]
    scenario = Scenario(
        model=model,
        material=material,
        grid=Grid1D(n_interior=value("grid", "n_interior"), length=value("grid", "length")),
        dt=value("time", "dt"),
        n_steps=value("time", "n_steps"),
        snapshot_every=value("time", "snapshot_every"),
        init=InitSpec(preset=params.pop("preset"), params=params),
        tasks=value("tasks", "run"),
        k_min=value("dispersion", "k_min"),
        k_max=value("dispersion", "k_max"),
        n_k=value("dispersion", "n_k"),
        backward_dt=value("backward", "dt"),
        backward_n_steps=value("backward", "n_steps"),
        eps=value("backward", "eps"),
        lam=value("backward", "lam"),
        out_dir=value("output", "directory"),
    )
    n = scenario.grid.n_interior
    generators = [table_stencil(generator_table(moduli, sign), scenario.grid.h)
                  for sign in (1, -1)]
    _check_dt("time", scenario.dt, generators, n)
    if scenario.n_steps % scenario.snapshot_every:
        raise ParseError(
            f"[time] n_steps = {scenario.n_steps} must be a multiple of "
            f"snapshot_every = {scenario.snapshot_every}")
    # an unset node is the middle one (build_initial), inside every grid
    if scenario.init.preset == "impulse" and "node" in params and not 0 <= params["node"] < n:
        raise ParseError(f"[init] node = {params['node']} outside the grid nodes 0..{n - 1}")
    _check_dt("backward", scenario.backward_dt, generators, n)
    if scenario.k_min > scenario.k_max:
        raise ParseError(f"[dispersion] needs k_min <= k_max, got k_min = "
                         f"{scenario.k_min}, k_max = {scenario.k_max}")
    # k_max has the grid's largest k^2, where the dispersion fails first;
    # checked whatever the tasks, as the dispersion command runs it
    try:
        quadratic_frequencies(moduli, [scenario.k_max])
    except RootFailure as exc:
        raise ParseError(f"[dispersion] k_max = {scenario.k_max} is too large: {exc}") from None
    _check_sizes(scenario)
    # a huge amplitude can overflow the state or its square x . x, the
    # stepper's range test, whatever the tasks: reject it here, not in a run
    with np.errstate(over="ignore"):
        x = build_initial(scenario)
        if not np.isfinite(x @ x):
            amps = ", ".join(f"{k} = {v!r}" for k, v in sorted(params.items()) if k.endswith("amp"))
            raise ParseError(f"[init] {amps} makes the initial state's x . x overflow the "
                             "float range")
    return scenario


def _check_dt(section: str, dt: float, generators: list, n: int):
    """Reject a step the midpoint matrix I - dt/2 C - (dt/2)^2 K cannot
    be formed with: dt not positive, (dt/2)^2 not a finite float, or
    |I - dt/2 A| on n nodes (evolve._midpoint_norm, the step guard's)
    not a finite float for a generator of the stencils generators."""
    if dt <= 0:
        raise ParseError(f"[{section}] dt must be positive, got {dt}")
    if not math.isfinite((dt / 2) * (dt / 2)):
        raise ParseError(f"[{section}] dt = {dt} is too large: (dt/2)^2 overflows")
    if not all(math.isfinite(_midpoint_norm(stencil, n, dt)) for stencil in generators):
        raise ParseError(f"[{section}] dt = {dt} is too large for the [grid] spacing: "
                         "|I - dt/2 A| overflows")


def _check_sizes(scenario: Scenario):
    """Reject a scenario whose initial state, dense spectrum, kept
    states or dispersion peak would exceed the size limits, before any
    numerics run."""
    n = scenario.grid.n_interior
    size = 6 * n
    # the initial state, built for the x . x test whatever the tasks
    if size * 8 > _MAX_ARRAY_BYTES:
        raise ParseError(
            f"[grid] n_interior = {n} makes a state of 6n * 8 = {size * 8} B, above the "
            f"{_MAX_ARRAY_BYTES // 2**30} GiB limit on a run's arrays")
    if "spectrum" in scenario.tasks and size > DENSE_LIMIT:
        raise ParseError(
            f"task spectrum needs two dense eigensolves of about 3n = {3 * n} "
            f"each, and 6n = {size} is above the limit {DENSE_LIMIT}; "
            f"lower [grid] n_interior")
    # states kept per run: simulate's every snapshot_every-th step,
    # every step of the forward run when localization reads it, and every
    # step of the backward run; each is reduced as its block comes, so
    # whole states count once per block
    rows = {
        "simulate": scenario.n_steps // scenario.snapshot_every + 1,
        "localization": scenario.n_steps + 1,
        "backward": scenario.backward_n_steps + 1,
    }
    block = block_rows(n) * size * 8
    for task in scenario.tasks:
        if task in rows and rows[task] * _BYTES_PER_KEPT_STATE + block > _MAX_ARRAY_BYTES:
            raise ParseError(
                f"task {task} would keep {rows[task]} states at "
                f"{_BYTES_PER_KEPT_STATE} B each, plus a block of {block} B, "
                f"above the {_MAX_ARRAY_BYTES // 2**30} GiB limit on a run's arrays")
    # the dispersion task's peak allocation; checked whatever the task
    # list, as the dispersion command runs this section
    if scenario.n_k * _DISPERSION_BYTES_PER_K > _MAX_ARRAY_BYTES:
        raise ParseError(
            f"[dispersion] n_k = {scenario.n_k} would need "
            f"{_DISPERSION_BYTES_PER_K} B per wavenumber, above the "
            f"{_MAX_ARRAY_BYTES // 2**30} GiB limit on a run's arrays")


def build_initial(scenario: Scenario) -> np.ndarray:
    """Realize the [init] recipe on the scenario grid as a stacked 6n
    state (discrete1d), the fields in FIELDS order."""
    grid, spec = scenario.grid, scenario.init
    n = grid.n_interior
    fields = np.zeros((len(FIELDS), n))
    if spec.preset == "sine":
        x = grid.nodes
        for row, name in zip(fields, FIELDS):
            amp = spec.value(f"{name}_amp")
            if amp:
                row[:] = amp * np.sin(spec.value(f"{name}_mode") * np.pi * x / grid.length)
    elif spec.preset == "impulse":
        node = spec.params.get("node", n // 2)  # the _MIDDLE default
        if not 0 <= node < n:
            raise ValidationError(f"impulse node {node} outside 0..{n - 1}")
        fields[FIELDS.index(spec.value("field")), node] = spec.value("amp")
    elif spec.preset == "random":
        rng = np.random.default_rng(spec.value("seed"))
        fields = spec.value("amp") * rng.standard_normal((len(FIELDS), n))
    elif spec.preset != "zero":
        raise ValidationError(f"unknown preset {spec.preset!r}")
    return fields.ravel()
