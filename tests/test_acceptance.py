"""Acceptance gate: one test per structural claim, each printing a
single pass/fail line (visible even under output capture).

Claims, at desk scale: conservative-model energy conservation,
dissipativity of the generator with an exact-to-third-order energy
balance, a negative spectral abscissa with energy decay honouring the
decay time a pilot run's fitted rate gives, bounded
wave speeds with closed-form decoupled limits, absence of finite-time
extinction, second-order convergence in space and time, and full
pass/fail coverage of the material admissibility conditions.
"""

import dataclasses
import time

import numpy as np
import pytest
from scipy.linalg import expm

from microtherm import (Grid1D, assemble_backward, assemble_operator,
                        backward_functionals, energy_table, first_order_symbol,
                        isotropic_embedding, localization_probe,
                        reference_type2, reference_type3, snapshot_times,
                        solve_branches, spectral_report, symbol_frequencies,
                        to_moduli_1d, validate_anisotropic, validate_isotropic)
from microtherm.discrete1d import form_values
from microtherm.dispersion import polynomial_frequencies

from conftest import (ISOTROPIC_FAILS, SYMMETRY_FAILS, collect, fit_decay,
                      random_state, random_valid_material, root_set_distance,
                      sine_init, trapezoid_balance)


def energies(op, init, dt, n_steps, every=1):
    """The energy of every kept state of a run."""
    return energy_table(op, collect(op, init, dt, n_steps, every))[:, 0]


def report(capsys, num: int, ok: bool, detail: str):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    with capsys.disabled():
        print(line)
    assert ok, line


def test_criterion_1_energy_conservation(capsys):
    start = time.monotonic()
    grid = Grid1D(n_interior=32)
    op = assemble_operator(grid, to_moduli_1d(reference_type2()))
    es = energies(op, sine_init(grid), 1e-3, 10_000)
    drift = float(np.abs(es - es[0]).max() / es[0])
    elapsed = time.monotonic() - start
    ok = drift <= 1e-10 and elapsed <= 10.0
    report(capsys, 1, ok,
           f"max relative drift {drift:.3e} over 10^4 steps, {elapsed:.1f}s")


def test_criterion_2_dissipativity(capsys):
    grid = Grid1D(n_interior=16)
    rng = np.random.default_rng(20240817)
    worst = -np.inf
    for _ in range(10):
        op = assemble_operator(grid, to_moduli_1d(random_valid_material(rng)))
        for _ in range(100):
            u = random_state(16, rng)
            quad = float(u @ (op.g_mat @ (op.a_mat @ u)))
            norm2 = float(u @ (op.g_mat @ u))
            worst = max(worst, quad / norm2)
    quad_ok = worst <= 1e-12

    op3 = assemble_operator(grid, to_moduli_1d(reference_type3()))
    constants = []
    for dt in (2e-3, 1e-3, 5e-4):
        states = collect(op3, sine_init(grid), dt, int(round(1.0 / dt)))
        resid = trapezoid_balance(energy_table(op3, states), dt)
        constants.append(float(np.abs(resid).max()) / dt ** 3)
    ratios = [constants[i + 1] / constants[i] for i in range(2)]
    balance_ok = all(0.7 <= r <= 1.5 for r in ratios)

    shown = ", ".join(f"{c:.0f}" for c in constants)
    report(capsys, 2, quad_ok and balance_ok,
           f"max normalized form value {worst:.3e}; balance C = [{shown}]")


def test_criterion_3_asymptotic_decay(capsys):
    start = time.monotonic()
    grid = Grid1D(n_interior=16)
    op = assemble_operator(grid, to_moduli_1d(reference_type3()))
    rep = spectral_report(op)

    pilot = energies(op, sine_init(grid), 0.01, 1000, every=10)
    t_pred = fit_decay(snapshot_times(0.01, 1000, 10), pilot).time_to_fraction(0.01)
    t_test = 2.0 * t_pred  # prediction honored within a factor of two
    n_steps = int(np.ceil(t_test / 0.01))
    es = energies(op, sine_init(grid), 0.01, n_steps, every=n_steps)
    ratio = float(es[-1] / es[0])
    elapsed = time.monotonic() - start
    ok = rep.spectral_abscissa < 0.0 and ratio < 0.01 and elapsed <= 30.0
    report(capsys, 3, ok,
           f"abscissa {rep.spectral_abscissa:.3e}, E({t_test:.1f})/E(0) = "
           f"{ratio:.2e}, {elapsed:.1f}s")


def test_criterion_4_finite_wave_speeds(capsys):
    m2 = to_moduli_1d(reference_type2())
    res = solve_branches(m2, np.linspace(0.1, 10.0, 100))
    max_phase = float(np.abs(res.phase_speed).max())
    max_group = float(np.abs(res.group_speed()).max())
    bounded = max_phase <= 2.5 and max_group <= 2.5
    real_ok = float(np.abs(res.omega.imag).max()) <= 1e-10

    dec = to_moduli_1d(dataclasses.replace(
        reference_type2(), beta=0.0, gamma1=0.0, gamma2=0.0, varpi=0.0,
        hbar_c=0.0, alpha_m=2.0))
    speeds = [np.sqrt(dec.m_uu / dec.rho), np.sqrt(dec.k_cond / dec.c_cap),
              np.sqrt(dec.m_rr / dec.alpha_m)]
    closed = 0.0
    ks = np.array([0.1, 1.0, 10.0])
    for k, w in zip(ks, polynomial_frequencies(dec, ks)):
        for s in speeds:
            closed = max(closed, float(np.abs(w.real / k - s).min()),
                         float(np.abs(w.real / k + s).min()))
    ok = bounded and real_ok and closed <= 1e-10
    report(capsys, 4, ok,
           f"max phase {max_phase:.3f}, max group {max_group:.3f}, "
           f"closed-form speed error {closed:.2e}")


def test_criterion_5_no_localization(capsys):
    grid = Grid1D(n_interior=16)
    m3 = to_moduli_1d(reference_type3())
    op3 = assemble_operator(grid, m3)
    es = energies(op3, sine_init(grid), 0.01, 5000)  # T = 50
    positive = bool((es > 0.0).all())

    op3b = assemble_backward(grid, m3)
    back = collect(op3b, sine_init(grid), 5e-5, 200)
    f = backward_functionals(snapshot_times(5e-5, 200), form_values(op3b, back), op3b)
    backward_ok = bool((f.cal_e[1:] > 0.0).all()) and np.isfinite(f.gronwall_k)

    m2 = to_moduli_1d(reference_type2())
    op2 = assemble_operator(grid, m2)
    fwd = collect(op2, sine_init(grid), 0.01, 1000)
    probe = localization_probe(assemble_backward(grid, m2), fwd[0], fwd[-1], 0.01,
                               energy_table(op2, fwd)[:, 0])
    round_trip_ok = probe.round_trip_error <= 1e-8

    ok = positive and backward_ok and round_trip_ok
    report(capsys, 5, ok,
           f"min E {es.min():.2e}, Gronwall K {f.gronwall_k:.1f}, "
           f"round trip {probe.round_trip_error:.2e}")


def test_criterion_6_discretization_orders(capsys):
    # space: single sine mode of the displacement/microtemperature block
    # (couplings that mix in the thermal pair switched off), continuum
    # reference from the dense exponential of the mode's symbol
    mat = dataclasses.replace(reference_type3(), beta=0.0, varpi=0.0,
                              hbar_c=0.0)
    m = to_moduli_1d(mat)
    sym = first_order_symbol(m, [np.pi])[0]
    coeff0 = np.array([1.0, 0.0, 0.0, 0.0, 0.3, 0.0])
    horizon, dt_fine = 0.4, 2.5e-4
    coeff_t = expm(horizon * sym.real) @ coeff0
    errs = []
    for n in (8, 17, 35):
        grid = Grid1D(n_interior=n)
        s = np.sin(np.pi * grid.nodes)
        zero = np.zeros(n)
        init = np.concatenate([1.0 * s, zero, zero, zero, 0.3 * s, zero])
        op = assemble_operator(grid, m)
        n_steps = int(round(horizon / dt_fine))
        end = collect(op, init, dt_fine, n_steps, every=n_steps)[-1]
        exact = np.concatenate([c * s for c in coeff_t])
        errs.append(float(np.abs(end - exact).max()))
    space_orders = [float(np.log2(errs[i] / errs[i + 1])) for i in range(2)]

    # time: fixed grid, dense matrix exponential as the reference
    grid = Grid1D(n_interior=16)
    op = assemble_operator(grid, to_moduli_1d(reference_type3()))
    init = sine_init(grid)
    u_ref = expm(horizon * op.a_mat.toarray()) @ init
    terrs = []
    for dt in (4e-3, 2e-3, 1e-3):
        n_steps = int(round(horizon / dt))
        end = collect(op, init, dt, n_steps, every=n_steps)[-1]
        terrs.append(float(np.abs(end - u_ref).max()))
    time_orders = [float(np.log2(terrs[i] / terrs[i + 1])) for i in range(2)]

    agree = 0.0
    for moduli in (to_moduli_1d(reference_type2()), to_moduli_1d(reference_type3())):
        ks = np.linspace(0.1, 10.0, 23)
        for a, b in zip(polynomial_frequencies(moduli, ks), symbol_frequencies(moduli, ks)):
            agree = max(agree, root_set_distance(a, b) / max(1.0, float(np.abs(b).max())))

    ok = (all(o >= 1.9 for o in space_orders)
          and all(o >= 1.9 for o in time_orders)
          and agree <= 1e-10)
    report(capsys, 6, ok,
           f"space orders {[f'{o:.2f}' for o in space_orders]}, time orders "
           f"{[f'{o:.2f}' for o in time_orders]}, two-oracle gap {agree:.2e}")


def test_criterion_7_validation_coverage(capsys):
    passing = validate_isotropic(reference_type3()).valid
    passing &= validate_isotropic(reference_type2()).valid
    fail_hits = 0
    for case_id, material, mention in ISOTROPIC_FAILS:
        rep = validate_isotropic(material)
        assert not rep.valid, case_id
        assert mention in str(rep), case_id
        fail_hits += 1

    clean = validate_anisotropic(isotropic_embedding(reference_type3()))
    passing &= clean.valid
    sym_hits = 0
    for case_id, tensors, mention in SYMMETRY_FAILS:
        rep = validate_anisotropic(tensors)
        assert not rep.valid, case_id
        assert mention in str(rep), case_id
        sym_hits += 1

    ok = passing and fail_hits == 8 and sym_hits == 14
    report(capsys, 7, ok,
           f"{fail_hits} inequality fixtures and {sym_hits} symmetry fixtures "
           f"fail as required; reference fixtures pass")
