import dataclasses
import tracemalloc

import numpy as np
import pytest

from microtherm import (ParseError, ValidationError, build_initial,
                        parse_scenario, run_scenario, to_moduli_1d)
from microtherm.discrete1d import block_rows
from microtherm.runner import _dispersion
from microtherm.scenario import _BYTES_PER_KEPT_STATE, _DISPERSION_BYTES_PER_K

from conftest import fields

FULL = """\
[material]
model = type3
beta = 0.8

[grid]
n_interior = 24
length = 2.0

[time]
dt = 0.005
n_steps = 40
snapshot_every = 4

[init]
preset = sine
u_amp = 1.0
u_mode = 2
theta_amp = 0.25

[tasks]
run = simulate, spectrum

[dispersion]
k_min = 0.2
k_max = 5.0
n_k = 9

[backward]
dt = 1e-5
n_steps = 100
eps = 0.4
lam = 3.0

[output]
directory = out
"""

MINIMAL = """\
[material]
model = {model}

[grid]
n_interior = 8

[time]
dt = 0.01
n_steps = 10

[init]
preset = zero

[tasks]
run = simulate
"""


def minimal(model="type3", **swaps):
    text = MINIMAL.format(model=model)
    for old, new in swaps.items():
        text = text.replace(old, new)
    return text


class TestParse:
    def test_full_scenario_round_trip(self):
        s = parse_scenario(FULL)
        assert s.model == "type3"
        assert s.material.beta == 0.8
        assert (s.grid.n_interior, s.grid.length) == (24, 2.0)
        assert (s.dt, s.n_steps, s.snapshot_every) == (0.005, 40, 4)
        assert s.init.preset == "sine"
        assert s.init.params == {"u_amp": 1.0, "u_mode": 2, "theta_amp": 0.25}
        assert s.tasks == ("simulate", "spectrum")
        assert (s.k_min, s.k_max, s.n_k) == (0.2, 5.0, 9)
        assert (s.backward_dt, s.backward_n_steps) == (1e-5, 100)
        assert (s.eps, s.lam) == (0.4, 3.0)
        assert s.out_dir == "out"

    def test_defaults(self):
        s = parse_scenario(minimal())
        assert s.snapshot_every == 1
        assert "seed" not in s.init.params
        assert (s.k_min, s.k_max, s.n_k) == (0.5, 8.0, 16)
        assert (s.backward_dt, s.backward_n_steps) == (5e-5, 200)
        assert (s.eps, s.lam) == (0.5, 2.0)
        assert s.out_dir == ""
        assert s.grid.length == 1.0

    def test_material_falls_back_to_reference(self):
        s = parse_scenario(minimal())
        from microtherm import reference_type3
        assert s.material == reference_type3()

    def test_empty_text_reports_first_missing_section(self):
        with pytest.raises(ParseError, match=r"missing \[material\] section"):
            parse_scenario("")

    def test_unknown_section(self):
        with pytest.raises(ParseError, match=r"unknown section \[extra\]"):
            parse_scenario(minimal() + "\n[extra]\nx = 1\n")

    def test_unknown_key_names_section(self):
        text = minimal().replace("preset = zero", "preset = zero\ntypo = 3")
        with pytest.raises(ParseError, match=r"unknown key 'typo' in \[init\]"):
            parse_scenario(text)

    def test_unparsable_number_names_key(self):
        with pytest.raises(ParseError, match=r"\[time\] dt"):
            parse_scenario(minimal(**{"dt = 0.01": "dt = fast"}))
        with pytest.raises(ParseError, match="integer"):
            parse_scenario(minimal(**{"n_steps = 10": "n_steps = 1.5"}))

    def test_malformed_line_reports_position(self):
        with pytest.raises(ParseError, match="line"):
            parse_scenario("not an ini line\n" + minimal())

    def test_missing_required_keys(self):
        with pytest.raises(ParseError, match="missing key 'dt'"):
            parse_scenario(minimal(**{"dt = 0.01": "snapshot_every = 1"}))
        with pytest.raises(ParseError, match="n_interior"):
            parse_scenario(minimal(**{"n_interior = 8": "length = 1.0"}))

    def test_model_required(self):
        with pytest.raises(ParseError, match="model"):
            parse_scenario(minimal(**{"model = type3": "rho = 1.0"}))
        with pytest.raises(ParseError, match="model"):
            parse_scenario(minimal(model="type4"))

    def test_conservative_model_rejects_rate_moduli(self):
        text = minimal(model="type2", **{"model = type2": "model = type2\nh_cond = 0.5"})
        with pytest.raises(ValidationError, match="type II requires H=0"):
            parse_scenario(text)
        text = minimal(model="type2", **{"model = type2": "model = type2\nrho2 = 0.1"})
        with pytest.raises(ValidationError, match="rate moduli"):
            parse_scenario(text)

    def test_conservative_model_accepts_explicit_zero_rates(self):
        text = minimal(model="type2", **{"model = type2": "model = type2\nh_cond = 0.0"})
        assert parse_scenario(text).model == "type2"

    def test_invalid_material_is_reported(self):
        text = minimal(**{"model = type3": "model = type3\nrho = -1.0"})
        with pytest.raises(ValidationError, match="rho"):
            parse_scenario(text)

    @pytest.mark.parametrize("old, new, key", [
        ("beta = 0.8", "beta = nan", "beta"),
        ("length = 2.0", "length = inf", "length"),
        ("dt = 0.005", "dt = -inf", "dt"),
        ("u_amp = 1.0", "u_amp = nan", "u_amp"),
        ("k_max = 5.0", "k_max = inf", "k_max"),
        ("lam = 3.0", "lam = -inf", "lam"),
    ], ids=["material", "grid", "time", "init", "dispersion", "backward"])
    def test_non_finite_numbers_rejected(self, old, new, key):
        assert old in FULL
        with pytest.raises(ParseError, match=rf"{key}: .* is not a finite number"):
            parse_scenario(FULL.replace(old, new))

    def test_time_validation(self):
        with pytest.raises(ParseError, match="dt must be positive"):
            parse_scenario(minimal(**{"dt = 0.01": "dt = -0.01"}))
        # the midpoint matrix needs (dt/2)^2 as a finite float
        for section, old_text, new_text in (
                ("time", "dt = 0.01", "dt = 1e160"),
                ("time", "dt = 0.01", "dt = 2.7e154"),
                ("backward", "[tasks]", "[backward]\ndt = 1e160\n\n[tasks]")):
            with pytest.raises(ParseError, match=rf"\[{section}\] dt = .* too large"):
                parse_scenario(minimal(**{old_text: new_text}))
        assert parse_scenario(minimal(**{"dt = 0.01": "dt = 2.6e154"})).dt == 2.6e154
        with pytest.raises(ParseError, match="multiple"):
            parse_scenario(minimal(**{"n_steps = 10": "n_steps = 10\nsnapshot_every = 3"}))
        # the implicit midpoint rule is the only integrator, not a choice
        with pytest.raises(ParseError, match=r"unknown key 'scheme' in \[time\]"):
            parse_scenario(minimal(**{"dt = 0.01": "dt = 0.01\nscheme = midpoint"}))

    def test_preset_and_task_validation(self):
        with pytest.raises(ParseError, match="preset"):
            parse_scenario(minimal(**{"preset = zero": "preset = gaussian"}))
        with pytest.raises(ParseError, match="unknown task"):
            parse_scenario(minimal(**{"run = simulate": "run = simulate decay"}))

    def test_empty_task_list_allowed(self):
        s = parse_scenario(minimal(**{"run = simulate": "run ="}))
        assert s.tasks == ()

    def test_dispersion_range_validation(self):
        bad = minimal() + "\n[dispersion]\nk_min = 5.0\nk_max = 1.0\n"
        with pytest.raises(ParseError, match="k_min"):
            parse_scenario(bad)
        bad = minimal() + "\n[dispersion]\nn_k = 0\n"
        with pytest.raises(ParseError, match="n_k"):
            parse_scenario(bad)


class TestSizeLimits:
    # n_interior = 8: a task counts 192 B per kept state plus one block
    # of 682 states of 6n * 8 = 384 B, and 11183446 kept states are the
    # most that fit in 2 GiB
    FIT = 11183446

    def test_spectrum_above_the_dense_limit(self):
        ok = minimal(**{"n_interior = 8": "n_interior = 500", "run = simulate": "run = spectrum"})
        assert parse_scenario(ok).grid.n_interior == 500
        with pytest.raises(ParseError, match="spectrum.*3006.*3000"):
            parse_scenario(ok.replace("n_interior = 500", "n_interior = 501"))
        # the dense limit concerns the spectrum task only
        assert parse_scenario(ok.replace("n_interior = 500", "n_interior = 600")
                              .replace("run = spectrum", "run = dispersion"))

    def test_simulate_counts_kept_snapshots(self):
        ok = minimal(**{"n_steps = 10": f"n_steps = {self.FIT - 1}"})
        assert parse_scenario(ok).n_steps == self.FIT - 1
        with pytest.raises(ParseError, match="simulate.*11183447 states at 192 B"):
            parse_scenario(minimal(**{"n_steps = 10": f"n_steps = {self.FIT}"}))
        strided = minimal(**{"n_steps = 10": f"n_steps = {2 * (self.FIT - 1)}\n"
                                             "snapshot_every = 2"})
        assert parse_scenario(strided).snapshot_every == 2
        # the localization probe keeps every step, shared or not
        with pytest.raises(ParseError, match="localization.*22366891 states"):
            parse_scenario(strided.replace("run = simulate", "run = simulate, localization"))

    def test_backward_counts_every_step(self):
        back = minimal(**{"run = simulate": "run = backward"}) + "\n[backward]\nn_steps = {}\n"
        assert parse_scenario(back.format(self.FIT - 1)).backward_n_steps == self.FIT - 1
        with pytest.raises(ParseError, match="backward"):
            parse_scenario(back.format(self.FIT))

    def test_dispersion_counts_stacked_matrices(self):
        # the measured peak of about 1.3 KiB per wavenumber, counted as
        # 1536 B: 1398101 wavenumbers fit in 2 GiB
        fit = 1398101
        disp = minimal() + "\n[dispersion]\nn_k = {}\n"
        assert parse_scenario(disp.format(fit)).n_k == fit
        # the dispersion command runs this section whatever the task list
        with pytest.raises(ParseError, match="n_k = 1398102 would need 1536 B.*2 GiB"):
            parse_scenario(disp.format(fit + 1))

    @pytest.mark.parametrize("model", ["type2", "type3"])
    def test_dispersion_peak_is_within_the_counted_bytes(self, model, tmp_path):
        n_k = 2000
        scenario = parse_scenario(minimal(model) + f"\n[dispersion]\nn_k = {n_k}\n")
        moduli = to_moduli_1d(scenario.material)
        tracemalloc.start()
        try:
            _dispersion(scenario, moduli, None, str(tmp_path), [], [])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= n_k * _DISPERSION_BYTES_PER_K

    @pytest.mark.parametrize("tasks", ["simulate, localization", "backward"])
    def test_kept_state_peak_is_within_the_counted_bytes(self, tasks, tmp_path):
        kept = 40000
        text = minimal(**{"n_steps = 10": f"n_steps = {kept}",
                          "preset = zero": "preset = sine\nu_amp = 1.0",
                          "run = simulate": f"run = {tasks}"})
        scenario = parse_scenario(text + f"\n[backward]\ndt = 1e-7\nn_steps = {kept}\n")
        tracemalloc.start()
        try:
            run_scenario(scenario, str(tmp_path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = block_rows(8) * 48 * 8
        assert peak <= (kept + 1) * _BYTES_PER_KEPT_STATE + block

    def test_huge_step_count_is_rejected_without_allocating(self):
        with pytest.raises(ParseError, match="GiB"):
            parse_scenario(minimal(**{"n_steps = 10": "n_steps = 100000000000000000000"}))

    def test_scaled_scenario_is_well_inside(self):
        scaled = minimal(**{"n_interior = 8": "n_interior = 512",
                            "n_steps = 10": "n_steps = 5000",
                            "run = simulate": "run = simulate, localization"})
        assert parse_scenario(scaled).n_steps == 5000


class TestBuildInitial:
    def test_zero_preset(self):
        init = build_initial(parse_scenario(minimal()))
        assert init.shape == (6 * 8,) and init.dtype == float
        assert not init.any()

    def test_sine_preset_fields(self):
        s = parse_scenario(FULL)
        init = fields(build_initial(s))
        x = s.grid.nodes
        np.testing.assert_array_equal(init["u"], np.sin(2 * np.pi * x / 2.0))
        np.testing.assert_array_equal(init["theta"], 0.25 * np.sin(np.pi * x / 2.0))
        assert not init["v"].any() and not init["r"].any()

    def test_impulse_preset(self):
        text = minimal(**{"preset = zero": "preset = impulse\nfield = v\nnode = 3\namp = 2.5"})
        init = build_initial(parse_scenario(text))
        assert fields(init)["v"][3] == 2.5
        assert np.count_nonzero(init) == 1

    def test_impulse_node_out_of_range(self):
        text = minimal(**{"preset = zero": "preset = impulse\nnode = 8"})
        with pytest.raises(ParseError, match="outside"):
            parse_scenario(text)
        # a scenario built by hand still meets the check in build_initial
        ok = parse_scenario(minimal(**{"preset = zero": "preset = impulse\nnode = 7"}))
        by_hand = dataclasses.replace(
            ok, init=dataclasses.replace(ok.init, params={"node": 8}))
        with pytest.raises(ValidationError, match="outside"):
            build_initial(by_hand)

    def test_impulse_defaults_to_center_temperature(self):
        text = minimal(**{"preset = zero": "preset = impulse"})
        init = build_initial(parse_scenario(text))
        assert fields(init)["theta"][4] == 1.0

    def test_random_preset_is_seed_deterministic(self):
        text = minimal(**{"preset = zero": "preset = random\nseed = 11"})
        a = build_initial(parse_scenario(text))
        b = build_initial(parse_scenario(text))
        assert np.array_equal(a, b)
        other = minimal(**{"preset = zero": "preset = random\nseed = 12"})
        c = build_initial(parse_scenario(other))
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("run", ["simulate", "dispersion"])
    def test_overflowing_random_state_is_rejected_at_parse_time(self, run):
        # amp = 1e308 times a standard normal draw above 1.8 in magnitude
        # overflows; the check does not depend on the tasks
        text = minimal(**{"preset = zero": "preset = random\nseed = 3\namp = 1e308",
                          "run = simulate": f"run = {run}"})
        with pytest.raises(ParseError, match=r"\[init\] amp"):
            parse_scenario(text)

    def test_random_seed_reaches_scenario(self):
        text = minimal(**{"preset = zero": "preset = random\nseed = 11"})
        assert parse_scenario(text).init.params["seed"] == 11
