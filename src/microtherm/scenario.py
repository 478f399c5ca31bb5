"""Scenario files: INI text describing one solver run.

Required sections [material], [grid], [time], [init], [tasks]; optional
[dispersion], [backward], [output].  Every key is validated against a
known set, and every number against its range, so bad input fails loudly
at parse time, before any numerics run.

The [material] section selects model = type2 (conservative) or type3
(dissipative) and may override any isotropic modulus; unset moduli fall
back to the reference material of the chosen model.  Conservative runs
must not carry rate moduli, so setting h_cond or rho1..rho3 nonzero
under model = type2 is rejected.
"""

import configparser
import math
from dataclasses import dataclass, field, fields as dc_fields, replace

import numpy as np

from .diagnostics import DENSE_LIMIT
from .discrete1d import FIELDS, Grid1D, block_rows, generator_table, table_blocks
from .errors import ParseError, ValidationError
from .evolve import _midpoint_norm
from .material import (MaterialIsotropic, Moduli1D, _hypotheses, _reduce, reference_type2,
                       reference_type3)

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
# peak bytes the dispersion task allocates per wavenumber: the slope of
# the tracemalloc peak around runner._dispersion (both references, n_k =
# 4000 to 200000, the grid solved in blocks of dispersion._K_BLOCK
# wavenumbers) is 489.3 B, rounded up by 4.6%.  Below about 4000
# wavenumbers the blocks' temporaries, about 1.5 MB, set the peak.  At
# the limit, 2^31 / 512 = 4194304 wavenumbers, the measured line gives
# 2.05e9 B, which leaves about 90 MiB for those temporaries and for the
# dense spectrum that runner._overlapped solves beside the dispersion
# (at 6n = DENSE_LIMIT spectral_report peaks at 39 MiB under tracemalloc)
_DISPERSION_BYTES_PER_K = 512

_MATERIAL_KEYS = frozenset({"model"} | {f.name for f in dc_fields(MaterialIsotropic)})
_GRID_KEYS = frozenset({"n_interior", "length"})
_TIME_KEYS = frozenset({"dt", "n_steps", "snapshot_every"})
_INIT_KEYS = frozenset(
    {"preset", "seed", "amp", "field", "node"}
    | {f"{name}_mode" for name in FIELDS}
    | {f"{name}_amp" for name in FIELDS}
)
_TASK_KEYS = frozenset({"run"})
_DISPERSION_KEYS = frozenset({"k_min", "k_max", "n_k"})
_BACKWARD_KEYS = frozenset({"dt", "n_steps", "eps", "lam"})
_OUTPUT_KEYS = frozenset({"directory"})

_SECTION_KEYS = {
    "material": _MATERIAL_KEYS,
    "grid": _GRID_KEYS,
    "time": _TIME_KEYS,
    "init": _INIT_KEYS,
    "tasks": _TASK_KEYS,
    "dispersion": _DISPERSION_KEYS,
    "backward": _BACKWARD_KEYS,
    "output": _OUTPUT_KEYS,
}
_REQUIRED_SECTIONS = ("material", "grid", "time", "init", "tasks")


@dataclass(frozen=True)
class InitSpec:
    """Initial-data recipe; params hold the preset-specific knobs."""

    preset: str
    params: dict = field(default_factory=dict)


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
    k_min: float = 0.5
    k_max: float = 8.0
    n_k: int = 16
    backward_dt: float = 5e-5
    backward_n_steps: int = 200
    eps: float = 0.5
    lam: float = 2.0
    out_dir: str = ""


def _as_float(section: str, key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ParseError(
            f"[{section}] {key}: could not parse {raw!r} as a number"
        ) from None
    if not math.isfinite(value):
        raise ParseError(f"[{section}] {key}: {raw!r} is not a finite number")
    return value


def _as_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ParseError(
            f"[{section}] {key}: could not parse {raw!r} as an integer"
        ) from None


def _require(parsed, section: str, key: str) -> str:
    if key not in parsed[section]:
        raise ParseError(f"missing key '{key}' in [{section}]")
    return parsed[section][key]


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
        known = _SECTION_KEYS.get(name)
        if known is None:
            raise ParseError(f"unknown section [{name}]")
        for key in keys:
            if key not in known:
                raise ParseError(f"unknown key '{key}' in [{name}]")

    mat_raw = parsed["material"]
    model = mat_raw.get("model", "").strip()
    if model not in _MODELS:
        raise ParseError(
            f"[material] model must be one of {_MODELS}, got {model!r}"
        )
    base = reference_type2() if model == "type2" else reference_type3()
    overrides = {
        key: _as_float("material", key, raw)
        for key, raw in mat_raw.items() if key != "model"
    }
    if model == "type2":
        if overrides.get("h_cond", 0.0) != 0.0:
            raise ValidationError(
                f"type II requires H=0, got h_cond = {overrides['h_cond']}"
            )
        for key in ("rho1", "rho2", "rho3"):
            if overrides.get(key, 0.0) != 0.0:
                raise ValidationError(
                    f"type II requires vanishing rate moduli, got {key} = "
                    f"{overrides[key]}"
                )
    material = replace(base, **overrides)
    moduli = _reduce(material)  # validate_isotropic, keeping the moduli
    report = _hypotheses(moduli)
    if not report.valid:
        raise ValidationError(str(report))

    grid = Grid1D(
        n_interior=_as_int("grid", "n_interior", _require(parsed, "grid", "n_interior")),
        length=_as_float("grid", "length", parsed["grid"].get("length", "1.0")),
    )

    time_raw = parsed["time"]
    dt = _as_float("time", "dt", _require(parsed, "time", "dt"))
    n_steps = _as_int("time", "n_steps", _require(parsed, "time", "n_steps"))
    snapshot_every = _as_int("time", "snapshot_every",
                             time_raw.get("snapshot_every", "1"))
    generators = _generator_blocks(moduli, grid)
    _check_dt("time", dt, generators)
    if n_steps < 0 or snapshot_every < 1 or n_steps % snapshot_every:
        raise ParseError(
            f"[time] n_steps = {n_steps} must be a nonnegative multiple of "
            f"snapshot_every = {snapshot_every}"
        )

    init_raw = parsed["init"]
    preset = init_raw.get("preset", "").strip()
    if preset not in _PRESETS:
        raise ParseError(f"[init] preset must be one of {_PRESETS}, got {preset!r}")
    params = {}
    for key, raw in init_raw.items():
        if key == "preset":
            continue
        if key in ("seed", "node"):
            params[key] = _as_int("init", key, raw)
            if key == "seed" and params[key] < 0:
                raise ParseError(f"[init] seed must be >= 0, got {params[key]}")
        elif key == "field":
            if raw.strip() not in FIELDS:
                raise ParseError(f"[init] field must be one of {FIELDS}, got {raw!r}")
            params[key] = raw.strip()
        elif key.endswith("_mode"):
            params[key] = _as_int("init", key, raw)
        else:
            params[key] = _as_float("init", key, raw)
    node = params.get("node", grid.n_interior // 2)
    if preset == "impulse" and not 0 <= node < grid.n_interior:
        raise ParseError(
            f"[init] node = {node} outside the grid nodes 0..{grid.n_interior - 1}")
    init = InitSpec(preset=preset, params=params)

    run_raw = parsed["tasks"].get("run", "")
    tasks = tuple(t for t in run_raw.replace(",", " ").split() if t)
    for task in tasks:
        if task not in _TASKS:
            raise ParseError(f"unknown task {task!r}, expected one of {_TASKS}")

    disp = parsed.get("dispersion", {})
    back = parsed.get("backward", {})
    out = parsed.get("output", {})
    scenario = Scenario(
        model=model,
        material=material,
        grid=grid,
        dt=dt,
        n_steps=n_steps,
        snapshot_every=snapshot_every,
        init=init,
        tasks=tasks,
        k_min=_as_float("dispersion", "k_min", disp.get("k_min", "0.5")),
        k_max=_as_float("dispersion", "k_max", disp.get("k_max", "8.0")),
        n_k=_as_int("dispersion", "n_k", disp.get("n_k", "16")),
        backward_dt=_as_float("backward", "dt", back.get("dt", "5e-5")),
        backward_n_steps=_as_int("backward", "n_steps", back.get("n_steps", "200")),
        eps=_as_float("backward", "eps", back.get("eps", "0.5")),
        lam=_as_float("backward", "lam", back.get("lam", "2.0")),
        out_dir=out.get("directory", ""),
    )
    _check_dt("backward", scenario.backward_dt, generators)
    if scenario.backward_n_steps < 0:
        raise ParseError(
            f"[backward] n_steps must be >= 0, got {scenario.backward_n_steps}")
    if not 0 < scenario.eps < 1:
        raise ParseError(f"[backward] eps must be in (0, 1), got {scenario.eps}")
    if scenario.lam <= 0:
        raise ParseError(f"[backward] lam must be positive, got {scenario.lam}")
    if scenario.n_k < 1 or not 0 < scenario.k_min <= scenario.k_max:
        raise ParseError(
            f"[dispersion] needs 0 < k_min <= k_max and n_k >= 1, got "
            f"k_min = {scenario.k_min}, k_max = {scenario.k_max}, n_k = {scenario.n_k}"
        )
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


def _generator_blocks(moduli: Moduli1D, grid: Grid1D) -> np.ndarray:
    """The node blocks of the forward A at the grid's h on at most three
    nodes, then those of the time-reversed A_bwd = -S A S (S negating
    the rates): a middle node's blocks are those of every interior node,
    so their rows hold every row sum of either generator."""
    if grid.n_interior > 3:
        grid = Grid1D(n_interior=3, length=4 * grid.h)  # h = 4h / 4 exactly
    forward = table_blocks(generator_table(moduli, 1), grid)
    flip = np.array([1.0, -1.0] * 3)
    return np.concatenate([forward, -(flip[:, None] * forward * flip)])


def _check_dt(section: str, dt: float, generators: np.ndarray):
    """Reject a step the midpoint matrix I - dt/2 C - (dt/2)^2 K cannot
    be formed with: dt not positive, (dt/2)^2 not a finite float, or
    |I - dt/2 A| (the step guard's inf-norm, evolve._midpoint_norm) not a
    finite float for the forward or the time-reversed generator."""
    if dt <= 0:
        raise ParseError(f"[{section}] dt must be positive, got {dt}")
    if not math.isfinite((dt / 2) * (dt / 2)):
        raise ParseError(f"[{section}] dt = {dt} is too large: (dt/2)^2 overflows")
    if not math.isfinite(_midpoint_norm(generators, dt)):
        raise ParseError(f"[{section}] dt = {dt} is too large for the [grid] spacing: "
                         "|I - dt/2 A| overflows")


def _check_sizes(scenario: Scenario):
    """Reject a scenario whose dense spectrum, kept states or
    dispersion peak would exceed the size limits, before any numerics
    run."""
    n = scenario.grid.n_interior
    size = 6 * n
    if "spectrum" in scenario.tasks and size > DENSE_LIMIT:
        raise ParseError(
            f"task spectrum needs two dense eigensolves of about 3n = {3 * n} "
            f"each, and 6n = {size} is above the limit {DENSE_LIMIT}; "
            f"lower [grid] n_interior")
    # states kept per run: simulate's every snapshot_every-th step, the
    # localization probe's every step (whether it shares simulate's run
    # or makes its own) and every step of the backward run; each is
    # reduced as its block comes, so whole states count once per block
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
    params = spec.params
    if spec.preset == "sine":
        x = grid.nodes
        for row, name in zip(fields, FIELDS):
            amp = params.get(f"{name}_amp", 0.0)
            if amp:
                mode = params.get(f"{name}_mode", 1)
                row[:] = amp * np.sin(mode * np.pi * x / grid.length)
    elif spec.preset == "impulse":
        name = params.get("field", "theta")
        node = params.get("node", n // 2)
        if not 0 <= node < n:
            raise ValidationError(f"impulse node {node} outside 0..{n - 1}")
        fields[FIELDS.index(name), node] = params.get("amp", 1.0)
    elif spec.preset == "random":
        rng = np.random.default_rng(params.get("seed", 0))
        fields = params.get("amp", 1.0) * rng.standard_normal((len(FIELDS), n))
    elif spec.preset != "zero":
        raise ValidationError(f"unknown preset {spec.preset!r}")
    return fields.ravel()
