"""Execute a scenario's tasks and write the certificate report.

Outputs land in one directory: energy.csv, spectrum.csv,
dispersion.csv, backward.csv as requested by the task list, plus
report.txt with one PASS/FAIL line per certificate.  The exit code is
0 exactly when no certificate failed; a task that raises a
MicrothermError ends report.txt with "aborted: <task>: <error>" in place
of a verdict, and the error propagates.  All floating-point output uses
17 significant digits so repeated runs are byte-identical.

Each forward or backward run is streamed (evolve.snapshot_blocks) and
reduced block by block (diagnostics.reduce_blocks) to the tables its
tasks read: the energy table and the midpoint dissipation rates for
simulate, the energies and the end states for the localization probe,
the form table for backward.  No task holds a whole run, only the
block it reduces and the next one while it is stepped, and the outputs
are those of the run's states reduced as one array.  A scenario makes
one forward run: simulate and localization read the same one, which
keeps every step when localization is a task, simulate then taking
every snapshot_every-th row of its energy table.

The spectrum and the dispersion read only the operator and the moduli.
Their numbers functions (_spectrum_numbers, _dispersion_numbers) return
the task's numbers with its CSV rows already rendered (_render), the
text only, not the float table it was formatted from.  When the two are
consecutive tasks and 6n is at least diagnostics._THREADED_SECTORS,
both are computed at the first one's turn: a worker thread solves the
spectrum's two sectors and renders spectrum.csv while this thread
computes the dispersion's branches, symbol route and route distances
and renders dispersion.csv, the worker joined before the turn goes on.
No CSV is then formatted after the join: at each task's turn it only
writes its rendered rows and adds its certificates.  Otherwise each is
computed at its own turn on this thread, by the same functions.  No
other task runs while the worker does or while a result waits for its
turn.  Each task still writes and certifies at its turn and raises its
error there, so an abort leaves the later tasks without output.
"""

import os
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .diagnostics import (_BREAKDOWN, _THREADED_SECTORS, backward_functionals,
                          balance_residuals, dissipativity_residual,
                          localization_probe, reduce_blocks, spectral_report)
from .discrete1d import FIELDS, FORMS, assemble_backward, assemble_operator
from .dispersion import root_distances, solve_branches, symbol_frequencies
from .errors import IndefiniteForm, MicrothermError, NonFinite, SolveFailure
from .evolve import snapshot_blocks, snapshot_times
from .material import to_moduli_1d
from .scenario import Scenario, build_initial

__all__ = ["Certificate", "run_scenario"]

_ABS_FLOOR = 1e-30  # keeps relative tolerances meaningful near zero energy
# rows per % of _render, one string each: the streamed energy.csv and
# backward.csv are written chunk by chunk, while spectrum.csv and
# dispersion.csv (about 43 KB a chunk) are held rendered until their turn
_CSV_CHUNK = 512
# consecutive tasks whose numbers are computed together (_overlapped)
_OVERLAPPED = frozenset({"spectrum", "dispersion"})
# the tasks that read the scenario's one forward run (_forward_run)
_FORWARD = frozenset({"simulate", "localization"})


@dataclass(frozen=True)
class Certificate:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"{self.name}: {verdict} ({self.detail})"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _render(columns):
    """The CSV rows of equal-length columns of numbers, each value as _fmt
    writes it, comma-separated with \r\n line ends: _CSV_CHUNK rows at a
    time, each chunk formatted by one % into one string."""
    line = ",".join(["%.17g"] * len(columns)) + "\r\n"
    for start in range(0, len(columns[0]), _CSV_CHUNK):
        chunk = np.column_stack([column[start:start + _CSV_CHUNK] for column in columns])
        yield line * len(chunk) % tuple(chunk.ravel().tolist())


def _write_csv(path: str, header, rows):
    """The header and the rendered rows (_render) of a CSV file."""
    with open(path, "w", newline="") as handle:
        handle.write(",".join(header) + "\r\n")
        handle.writelines(rows)


def _forward_run(scenario: Scenario, op, init):
    """The scenario's [time] run, streamed and reduced (reduce_blocks):
    its energy table, the dissipation rates of the energy balance when
    simulate keeps every step, and its first and last state.  The run
    keeps every step when the localization probe reads it, else every
    snapshot_every-th."""
    every = 1 if "localization" in scenario.tasks else scenario.snapshot_every
    blocks = snapshot_blocks(op, init, scenario.dt, scenario.n_steps, every)
    return reduce_blocks(blocks, op, midpoints="simulate" in scenario.tasks
                         and scenario.snapshot_every == 1)


def _simulate(scenario: Scenario, run, out_dir, certs, notes):
    """The simulate task on the forward run of _forward_run, whose every
    snapshot_every-th row it keeps: a row's energies do not depend on
    the rows beside it."""
    table, rates, _, _ = run
    every = scenario.snapshot_every
    if "localization" in scenario.tasks:
        table = table[::every]
    times = snapshot_times(scenario.dt, scenario.n_steps, every)
    _write_csv(os.path.join(out_dir, "energy.csv"), ("t", *_BREAKDOWN),
               _render([times, *table.T]))
    energies = table[:, 0]

    e0 = energies[0]
    scale = max(float(e0), _ABS_FLOOR)
    if scenario.model == "type3":
        worst = float(np.diff(energies).max()) if len(energies) > 1 else 0.0
        certs.append(Certificate(
            "dissipativity", worst <= 1e-12 * scale,
            f"max energy increase {worst:.3e}, tol {1e-12 * scale:.3e}"))
    else:
        drift = float(np.abs(energies - e0).max())
        certs.append(Certificate(
            "energy conservation", drift <= 1e-10 * scale,
            f"max |E - E0| = {drift:.3e}, tol {1e-10 * scale:.3e}"))
    # the per-step balance is exact only between consecutive stepper
    # states, so the certificate needs an every-step run, whose midpoint
    # rates the run carries
    if rates is not None and len(energies) > 1:
        resid = float(np.abs(balance_residuals(table, rates, scenario.dt)).max())
        certs.append(Certificate(
            "energy balance", resid <= 1e-10 * scale,
            f"max step residual {resid:.3e}, tol {1e-10 * scale:.3e}"))
    notes.append(f"final energy = {_fmt(energies[-1])}")


def _spectrum_numbers(op):
    """The spectrum task's spectral_report and its rendered rows."""
    report = spectral_report(op)
    return report, list(_render([report.eigenvalues.real, report.eigenvalues.imag]))


def _spectrum(scenario: Scenario, op, ahead, out_dir, certs, notes):
    """The spectrum task; `ahead` is the future of its numbers settled
    at the turn before (_overlapped), or None to compute them here."""
    report, rows = ahead.result() if ahead is not None else _spectrum_numbers(op)
    _write_csv(os.path.join(out_dir, "spectrum.csv"), ("re", "im"), rows)
    lam_scale = max(float(np.abs(report.eigenvalues).max()), _ABS_FLOOR)
    if scenario.model == "type3":
        certs.append(Certificate(
            "spectral_abscissa < 0", report.spectral_abscissa < 0.0,
            f"abscissa = {report.spectral_abscissa:.6e}"))
    else:
        worst = float(np.abs(report.eigenvalues.real).max())
        certs.append(Certificate(
            "imaginary axis spectrum", worst <= 1e-10 * lam_scale,
            f"max |Re| = {worst:.3e}, tol {1e-10 * lam_scale:.3e}"))
    # sym(G A) = -Q makes A dissipative when Q is positive semidefinite,
    # and Q, the stiffness stencil weighted by the two rate coefficients,
    # is exactly when both are nonnegative
    resid = dissipativity_residual(op)
    stiff = op.forms[FORMS.index("dissipation_rate"), 1]
    rates = [op.time_sign * stiff[i, i] for i in map(FIELDS.index, ("theta", "m"))]
    certs.append(Certificate(
        "dissipativity margin", resid <= 1e-12 and min(rates) >= 0.0,
        f"identity residual {resid:.3e}, tol 1.000e-12, "
        f"rate coefficients {rates[0]:.6e}, {rates[1]:.6e}"))


def _dispersion_numbers(scenario: Scenario, moduli):
    """The dispersion task's branches over its wavenumber grid, the
    largest distance between them and the symbol route's roots, relative
    to the symbol roots' scale (at least 1), and its rendered rows."""
    ks = np.linspace(scenario.k_min, scenario.k_max, scenario.n_k)
    result = solve_branches(moduli, ks)
    other = symbol_frequencies(moduli, result.k_values)
    scale = np.maximum(1.0, np.abs(other).max(axis=1))
    worst = float((root_distances(result.omega, other) / scale).max())
    del other, scale  # not held beside the rendered rows
    # rendered _CSV_CHUNK // 2 wavenumbers at a time, three whole chunks
    # of rows, so the chunks are the whole table's and no column of the
    # whole grid is held beside the text
    rows, block = [], _CSV_CHUNK // 2
    for i in range(0, len(result.k_values), block):
        ks, omega = result.k_values[i:i + block], result.omega[i:i + block]
        phase = omega.real / ks[:, None]  # DispersionResult.phase_speed
        rows += _render([np.repeat(ks, 6), np.tile(np.arange(6), len(ks)),
                         omega.real.ravel(), omega.imag.ravel(), phase.ravel()])
    return result, worst, rows


def _dispersion(scenario: Scenario, moduli, ahead, out_dir, certs, notes):
    """The dispersion task; `ahead` is the future of its numbers settled
    at the turn before (_overlapped), or None to compute them here."""
    result, worst, rows = (ahead.result() if ahead is not None
                           else _dispersion_numbers(scenario, moduli))
    _write_csv(os.path.join(out_dir, "dispersion.csv"),
               ("k", "branch_index", "re_omega", "im_omega", "phase_speed"), rows)

    certs.append(Certificate(
        "dispersion routes agree", worst <= 1e-10,
        f"max matched root distance {worst:.3e} (relative)"))
    if scenario.model == "type2":
        im_worst = float(np.abs(result.omega.imag).max())
        scale = max(1.0, float(np.abs(result.omega).max()))
        certs.append(Certificate(
            "real frequencies", im_worst <= 1e-10 * scale,
            f"max |Im omega| = {im_worst:.3e}"))
    if result.crossings.any():
        notes.append(f"branch crossings flagged at {int(result.crossings.sum())} wavenumbers")


def _backward(scenario: Scenario, op_bwd, init, out_dir, certs, notes):
    times = snapshot_times(scenario.backward_dt, scenario.backward_n_steps)
    try:
        # an overflowing run stops with NonFinite; its last step's
        # overflow is reported by that error, not as a warning
        with np.errstate(over="ignore", invalid="ignore"):
            blocks = snapshot_blocks(op_bwd, init, scenario.backward_dt,
                                     scenario.backward_n_steps)
            forms = reduce_blocks(blocks, op_bwd, FORMS)[0]
        funcs = backward_functionals(times, forms, op_bwd, eps=scenario.eps,
                                     lam=scenario.lam)
    except (IndefiniteForm, NonFinite, SolveFailure) as exc:
        # an indefinite form, or a reversed run that overflows or misses
        # the solve guard, leaves positivity uncertified
        certs.append(Certificate("backward positivity", False, str(exc)))
        return
    _write_csv(os.path.join(out_dir, "backward.csv"),
               ("t", "E1", "E2", "E3", "calE"),
               _render([funcs.times, funcs.e1, funcs.e2, funcs.e3, funcs.cal_e]))
    top = max(float(funcs.cal_e.max()), _ABS_FLOOR)
    low = float(funcs.cal_e.min())
    certs.append(Certificate(
        "backward positivity", low >= -1e-12 * top,
        f"min calE = {low:.3e}, max calE = {top:.3e}"))
    certs.append(Certificate(
        "gronwall bound", np.isfinite(funcs.gronwall_k),
        f"K = {funcs.gronwall_k:.6e}"))


def _localization(scenario: Scenario, op_bwd, run, certs, notes):
    """The localization task on the every-step forward run of
    _forward_run."""
    table, _, first, last = run
    probe = localization_probe(op_bwd, first, last, scenario.dt, table[:, 0])
    if probe.trivial:
        certs.append(Certificate(
            "no finite time extinction", True, "trivial zero state"))
        return
    certs.append(Certificate(
        "no finite time extinction",
        probe.energy_positive and probe.min_energy_ratio > 0.0,
        f"min E/E0 = {probe.min_energy_ratio:.6e}"))
    if scenario.model == "type2":
        certs.append(Certificate(
            "round trip", probe.round_trip_error <= 1e-8,
            f"max error {probe.round_trip_error:.3e}"))
    else:
        notes.append(
            f"round trip error = {probe.round_trip_error} (recorded, not asserted)")


def run_scenario(scenario: Scenario, out_dir: str = "") -> int:
    """Run every task, write outputs, return 0 iff all certificates pass."""
    out_dir = out_dir or scenario.out_dir or "."
    os.makedirs(out_dir, exist_ok=True)

    lines = [
        f"# model = {scenario.model}",
        f"# grid n_interior = {scenario.grid.n_interior}, "
        f"length = {_fmt(scenario.grid.length)}",
        f"# dt = {_fmt(scenario.dt)}, n_steps = {scenario.n_steps}, "
        "scheme = midpoint",
        f"# seed = {scenario.init.value('seed')}",
    ]
    if not scenario.tasks:
        lines.append("no tasks")
        _emit(out_dir, lines)
        return 0

    moduli = to_moduli_1d(scenario.material)
    op = assemble_operator(scenario.grid, moduli)
    init = build_initial(scenario)
    certs: list = []
    notes: list = []
    op_bwd = None
    if "backward" in scenario.tasks or "localization" in scenario.tasks:
        op_bwd = assemble_backward(scenario.grid, moduli)

    run = aborted = None
    threaded = 6 * op.n >= _THREADED_SECTORS
    ahead = {}  # the overlapped results, by task, until their turn
    for turn, task in enumerate(scenario.tasks):
        try:
            if threaded and set(scenario.tasks[turn:turn + 2]) == _OVERLAPPED:
                ahead = _overlapped(scenario, op, moduli)
            if task in _FORWARD:
                run = run or _forward_run(scenario, op, init)
                if task == "simulate":
                    _simulate(scenario, run, out_dir, certs, notes)
                else:
                    _localization(scenario, op_bwd, run, certs, notes)
                if _FORWARD.isdisjoint(scenario.tasks[turn + 1:]):
                    run = None  # no later task reads the run
            elif task == "spectrum":
                _spectrum(scenario, op, ahead.pop(task, None), out_dir, certs, notes)
            elif task == "dispersion":
                _dispersion(scenario, moduli, ahead.pop(task, None), out_dir, certs,
                            notes)
            elif task == "backward":
                _backward(scenario, op_bwd, init, out_dir, certs, notes)
        except MicrothermError as exc:
            aborted = exc
            break

    lines.extend(cert.line() for cert in certs)
    lines.extend(f"# {note}" for note in notes)
    if aborted is not None:  # no verdict; the caller reports the error
        lines.append(f"aborted: {task}: {aborted}")
        _emit(out_dir, lines)
        raise aborted
    ok = all(cert.passed for cert in certs)
    lines.append(f"overall: {'PASS' if ok else 'FAIL'}")
    _emit(out_dir, lines)
    return 0 if ok else 1


def _overlapped(scenario: Scenario, op, moduli) -> dict:
    """The spectrum's and the dispersion's numbers, with their rendered
    rows, as settled futures, by task: the spectrum's on a worker thread
    while this thread computes the dispersion's.  Each future holds its
    result or its error, for its task to take at its turn; the worker is
    joined before this returns."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        spectrum = pool.submit(_spectrum_numbers, op)
        dispersion = _settled(_dispersion_numbers, scenario, moduli)
    return {"spectrum": spectrum, "dispersion": dispersion}


def _settled(fn, *args) -> Future:
    """A future settled on this thread with fn(*args): its result, or
    the error it raised, for its task to take at its turn."""
    future = Future()
    try:
        future.set_result(fn(*args))
    except Exception as exc:
        future.set_exception(exc)
    return future


def _emit(out_dir: str, lines):
    with open(os.path.join(out_dir, "report.txt"), "w") as handle:
        handle.write("\n".join(lines) + "\n")
    print("\n".join(lines))
