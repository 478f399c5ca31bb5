"""Execute a scenario's tasks and write the certificate report.

Outputs land in one directory: energy.csv, spectrum.csv,
dispersion.csv, backward.csv as requested by the task list, plus
report.txt with one PASS/FAIL line per certificate.  The exit code is
0 exactly when no certificate failed.  All floating-point output uses
17 significant digits so repeated runs are byte-identical.
"""

import csv
import os
from dataclasses import dataclass

import numpy as np

from .diagnostics import (backward_functionals, dissipativity_residual,
                          energy_balance_residuals, energy_series, energy_table,
                          localization_probe, spectral_report)
from .discrete1d import FIELDS, FORMS, assemble_backward, assemble_operator
from .dispersion import root_set_distance, solve_branches, symbol_frequencies
from .errors import IndefiniteForm, NonFinite, SolveFailure
from .evolve import run_forward
from .material import to_moduli_1d
from .scenario import Scenario, build_initial

__all__ = ["Certificate", "run_scenario"]

_ABS_FLOOR = 1e-30  # keeps relative tolerances meaningful near zero energy


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


def _write_csv(path: str, header, rows):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _forward_run(scenario: Scenario, op, init):
    """The scenario's [time] run and its energy table."""
    traj = run_forward(op, init, scenario.dt, scenario.n_steps,
                       snapshot_every=scenario.snapshot_every)
    return traj, energy_table(traj, op)


def _simulate(scenario: Scenario, op, traj, table, out_dir, certs, notes):
    _write_csv(os.path.join(out_dir, "energy.csv"),
               ("t", "total", "kinetic", "thermal", "microthermal", "elastic",
                "coupling", "tau_gradient", "r_gradient", "dissipation_rate"),
               np.column_stack([traj.times, table]).tolist())
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
    # states, so the certificate needs every step in the trajectory
    if scenario.snapshot_every == 1 and len(traj) > 1:
        resid = float(np.abs(energy_balance_residuals(traj, op, table)).max())
        certs.append(Certificate(
            "energy balance", resid <= 1e-10 * scale,
            f"max step residual {resid:.3e}, tol {1e-10 * scale:.3e}"))
    notes.append(f"final energy = {_fmt(energies[-1])}")


def _spectrum(scenario: Scenario, op, out_dir, certs, notes):
    report = spectral_report(op)
    _write_csv(os.path.join(out_dir, "spectrum.csv"), ("re", "im"),
               [(lam.real, lam.imag) for lam in report.eigenvalues])
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


def _dispersion(scenario: Scenario, moduli, out_dir, certs, notes):
    ks = np.linspace(scenario.k_min, scenario.k_max, scenario.n_k)
    result = solve_branches(moduli, ks)
    rows = []
    for i, k in enumerate(result.k_values):
        for j in range(6):
            w = result.omega[i, j]
            rows.append((k, j, w.real, w.imag, w.real / k))
    _write_csv(os.path.join(out_dir, "dispersion.csv"),
               ("k", "branch_index", "re_omega", "im_omega", "phase_speed"),
               rows)

    worst = 0.0
    for i, k in enumerate(result.k_values):
        other = symbol_frequencies(moduli, k)
        scale = max(1.0, float(np.abs(other).max()))
        worst = max(worst, root_set_distance(result.omega[i], other) / scale)
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
    try:
        # an overflowing run stops with NonFinite; its last step's
        # overflow is reported by that error, not as a warning
        with np.errstate(over="ignore", invalid="ignore"):
            traj = run_forward(op_bwd, init, scenario.backward_dt,
                               scenario.backward_n_steps)
        funcs = backward_functionals(traj, op_bwd, eps=scenario.eps,
                                     lam=scenario.lam)
    except (IndefiniteForm, NonFinite, SolveFailure) as exc:
        # an indefinite form, or a reversed run that overflows or misses
        # the solve guard, leaves positivity uncertified
        certs.append(Certificate("backward positivity", False, str(exc)))
        return
    _write_csv(os.path.join(out_dir, "backward.csv"),
               ("t", "E1", "E2", "E3", "calE"),
               zip(funcs.times, funcs.e1, funcs.e2, funcs.e3, funcs.cal_e))
    top = max(float(funcs.cal_e.max()), _ABS_FLOOR)
    low = float(funcs.cal_e.min())
    certs.append(Certificate(
        "backward positivity", low >= -1e-12 * top,
        f"min calE = {low:.3e}, max calE = {top:.3e}"))
    certs.append(Certificate(
        "gronwall bound", np.isfinite(funcs.gronwall_k),
        f"K = {funcs.gronwall_k:.6e}"))


def _probe(scenario: Scenario, op, op_bwd, init, run):
    """The localization probe on the shared (trajectory, energy table)
    run, or on its own every-step midpoint run when run is None."""
    if run is None:
        traj = run_forward(op, init, scenario.dt, scenario.n_steps)
        return localization_probe(op_bwd, traj, energy_series(traj, op))
    traj, table = run
    return localization_probe(op_bwd, traj, table[:, 0])


def _localization(scenario: Scenario, probe, certs, notes):
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
        f"# seed = {scenario.init.params.get('seed', 0)}",
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

    # an every-step midpoint simulate run is also the probe's forward
    # run: the first of the two tasks makes the run and the probe, the
    # other reuses them, and the trajectory is released after simulate
    shared = ({"simulate", "localization"} <= set(scenario.tasks)
              and scenario.snapshot_every == 1)
    run = probe = None
    for task in scenario.tasks:
        if task == "simulate":
            run = run or _forward_run(scenario, op, init)
            _simulate(scenario, op, *run, out_dir, certs, notes)
            if shared and probe is None:
                probe = _probe(scenario, op, op_bwd, init, run)
            run = None
        elif task == "spectrum":
            _spectrum(scenario, op, out_dir, certs, notes)
        elif task == "dispersion":
            _dispersion(scenario, moduli, out_dir, certs, notes)
        elif task == "backward":
            _backward(scenario, op_bwd, init, out_dir, certs, notes)
        elif task == "localization":
            if probe is None:
                if shared:
                    run = _forward_run(scenario, op, init)
                probe = _probe(scenario, op, op_bwd, init, run)
            _localization(scenario, probe, certs, notes)

    lines.extend(cert.line() for cert in certs)
    lines.extend(f"# {note}" for note in notes)
    ok = all(cert.passed for cert in certs)
    lines.append(f"overall: {'PASS' if ok else 'FAIL'}")
    _emit(out_dir, lines)
    return 0 if ok else 1


def _emit(out_dir: str, lines):
    with open(os.path.join(out_dir, "report.txt"), "w") as handle:
        handle.write("\n".join(lines) + "\n")
    print("\n".join(lines))
