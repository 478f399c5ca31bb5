import pathlib

import pytest

import microtherm
from microtherm.cli import main

CONFIG_DIR = pathlib.Path(microtherm.__file__).parent / "configs"
TYPE3 = str(CONFIG_DIR / "reference_type3.cfg")
TYPE2 = str(CONFIG_DIR / "reference_type2.cfg")

SMALL_TYPE3 = """\
[material]
model = type3

[grid]
n_interior = 16

[time]
dt = 0.2
n_steps = 10

[init]
preset = sine
u_amp = 1.0

[tasks]
run = simulate
"""


LOCALIZATION_1024 = """\
[material]
model = type3

[grid]
n_interior = 1024

[time]
dt = 1e-3
n_steps = 300

[init]
preset = sine
u_amp = 1.0
theta_amp = 0.5
theta_mode = 2

[tasks]
run = simulate, localization
"""

# id -> (text to replace in SMALL_TYPE3, replacement, key named in the error)
INVALID = {
    "time-dt-nan": ("dt = 0.2", "dt = nan", "dt"),
    "time-scheme-unknown": ("dt = 0.2", "dt = 0.2\nscheme = midpoint", "scheme"),
    "grid-length-inf": ("n_interior = 16", "n_interior = 16\nlength = inf", "length"),
    "init-u_amp-nan": ("u_amp = 1.0", "u_amp = nan", "u_amp"),
    "dispersion-k_max-inf": ("[tasks]", "[dispersion]\nk_max = inf\n\n[tasks]", "k_max"),
    "backward-dt-negative": ("[tasks]", "[backward]\ndt = -1\n\n[tasks]", "dt"),
    "backward-eps-above-1": ("[tasks]", "[backward]\neps = 1.5\n\n[tasks]", "eps"),
    "backward-n_steps-negative": ("[tasks]", "[backward]\nn_steps = -3\n\n[tasks]",
                                  "n_steps"),
    "backward-lam-zero": ("[tasks]", "[backward]\nlam = 0\n\n[tasks]", "lam"),
    "init-seed-negative": ("u_amp = 1.0", "u_amp = 1.0\nseed = -4", "seed"),
    "init-impulse-node-outside-grid": ("preset = sine", "preset = impulse\nnode = 16",
                                       "node"),
    "dispersion-n_k-above-2GiB": ("[tasks]", "[dispersion]\nn_k = 1000000000000\n\n[tasks]",
                                  "n_k"),
}


def write(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestRun:
    def test_reference_type3_all_certificates_pass(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", TYPE3, "--out", str(out)]) == 0
        report = (out / "report.txt").read_text()
        assert "dissipativity: PASS" in report
        assert "spectral_abscissa < 0: PASS" in report
        assert "overall: PASS" in report
        assert "FAIL" not in report
        for name in ("energy.csv", "spectrum.csv", "dispersion.csv",
                     "backward.csv"):
            assert (out / name).exists()
        assert report == capsys.readouterr().out.rstrip("\n") + "\n"

    def test_reference_type2_all_certificates_pass(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", TYPE2, "--out", str(out)]) == 0
        report = (out / "report.txt").read_text()
        assert "energy conservation: PASS" in report
        assert "imaginary axis spectrum: PASS" in report
        assert "real frequencies: PASS" in report
        assert "round trip: PASS" in report
        assert not (out / "backward.csv").exists()

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", TYPE3, "--out", str(a)]) == 0
        assert main(["run", TYPE3, "--out", str(b)]) == 0
        files = sorted(p.name for p in a.iterdir())
        assert files == sorted(p.name for p in b.iterdir())
        for name in files:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_no_tasks_is_exit_0(self, tmp_path, capsys):
        cfg = write(tmp_path, SMALL_TYPE3.replace("run = simulate", "run ="))
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == 0
        assert "no tasks" in capsys.readouterr().out
        assert "no tasks" in (out / "report.txt").read_text()

    def test_seed_option_is_gone(self, tmp_path, capsys):
        # [init] seed is the one seed; the command line cannot relabel it
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["run", TYPE2, "--out", str(out), "--seed", "7"])
        assert exc.value.code == 2
        assert not out.exists()
        assert "--seed" in capsys.readouterr().err

    def test_reversed_run_that_trips_the_solve_guard_is_recorded(self, tmp_path):
        # the time-reversed type3 run misses the residual guard long
        # before it overflows; the probe records it as an infinite
        # round-trip error instead of aborting the run
        cfg = write(tmp_path, LOCALIZATION_1024)
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == 0
        report = (out / "report.txt").read_text()
        assert "no finite time extinction: PASS" in report
        assert "# round trip error = inf (recorded, not asserted)" in report
        assert "overall: PASS" in report

    def test_overflowing_backward_run_fails_its_certificate(self, tmp_path):
        # over a long horizon the reversed type3 run leaves float range;
        # the run stops there and reports the certificate as failed
        text = (pathlib.Path(TYPE3).read_text().replace("dt = 5e-5", "dt = 1e-3")
                .replace("n_steps = 200", "n_steps = 20000")
                .replace("run = simulate, spectrum, dispersion, backward, localization",
                         "run = backward"))
        out = tmp_path / "out"
        assert main(["run", write(tmp_path, text), "--out", str(out)]) == 1
        report = (out / "report.txt").read_text()
        assert "backward positivity: FAIL (midpoint step left the float range" in report
        assert "gronwall bound" not in report
        assert "overall: FAIL" in report
        assert not (out / "backward.csv").exists()


class TestCheck:
    def test_valid_config(self, capsys):
        assert main(["check", TYPE3]) == 0
        msg = capsys.readouterr().out
        assert "ok: model = type3" in msg
        assert "n_interior = 16" in msg
        assert "simulate" in msg

    def test_parse_error(self, tmp_path, capsys):
        cfg = write(tmp_path, "[material]\nmodel = type3\n")
        assert main(["check", cfg]) == 2
        assert "error:" in capsys.readouterr().err

    def test_validation_error_mentions_cause(self, tmp_path, capsys):
        cfg = write(tmp_path, SMALL_TYPE3.replace(
            "model = type3", "model = type2\nh_cond = 0.5"))
        assert main(["check", cfg]) == 2
        assert "type II requires H=0" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, key", INVALID.values(), ids=INVALID)
    def test_out_of_range_values_are_rejected_before_running(
            self, tmp_path, capsys, old, new, key):
        cfg = write(tmp_path, SMALL_TYPE3.replace(old, new))
        out = tmp_path / "out"
        assert main(["check", cfg]) == 2
        assert main(["run", cfg, "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("error:") == 2 and key in err

    @pytest.mark.parametrize("swaps, task", [
        ({"n_interior = 16": "n_interior = 600", "run = simulate": "run = simulate, spectrum"},
         "spectrum"),
        ({"n_steps = 10": "n_steps = 100000000000000000000"}, "simulate"),
    ], ids=["spectrum-above-dense-limit", "simulate-snapshots-above-2GiB"])
    def test_size_limits_are_checked_before_running(self, tmp_path, capsys, swaps, task):
        text = SMALL_TYPE3
        for old, new in swaps.items():
            text = text.replace(old, new)
        cfg = write(tmp_path, text)
        out = tmp_path / "out"
        assert main(["check", cfg]) == 2
        assert main(["run", cfg, "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("error:") == 2 and f"task {task}" in err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "nope.cfg")]) == 2
        assert "cannot read" in capsys.readouterr().err


class TestDispersionCommand:
    def test_overflowing_wavenumber_is_exit_2(self, tmp_path, capsys):
        cfg = write(tmp_path, SMALL_TYPE3.replace(
            "[tasks]", "[dispersion]\nk_min = 1e60\nk_max = 1e60\nn_k = 1\n\n[tasks]"))
        out = tmp_path / "out"
        assert main(["dispersion", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "float range" in err

    def test_writes_only_dispersion_output(self, tmp_path):
        out = tmp_path / "out"
        assert main(["dispersion", TYPE2, "--out", str(out)]) == 0
        assert (out / "dispersion.csv").exists()
        assert not (out / "energy.csv").exists()
        report = (out / "report.txt").read_text()
        assert "dispersion routes agree: PASS" in report
        assert "real frequencies: PASS" in report

    def test_header_row(self, tmp_path):
        out = tmp_path / "out"
        assert main(["dispersion", TYPE2, "--out", str(out)]) == 0
        first = (out / "dispersion.csv").read_text().splitlines()[0]
        assert first == "k,branch_index,re_omega,im_omega,phase_speed"
