import pathlib
import re

import pytest

import microtherm
from microtherm import evolve, runner
from microtherm.cli import main
from microtherm.scenario import _DISPERSION_BYTES_PER_K, _MAX_ARRAY_BYTES

from conftest import overflowing_branches

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
    # 1/h^2 not a finite positive float: h*h underflows to zero, to a
    # subnormal whose inverse overflows, or overflows itself
    "grid-length-h2-zero": ("n_interior = 16", "n_interior = 16\nlength = 1e-200", "length"),
    "grid-length-h2-subnormal": ("n_interior = 16", "n_interior = 16\nlength = 1e-160",
                                 "length"),
    "grid-length-h2-inf": ("n_interior = 16", "n_interior = 16\nlength = 1e200", "length"),
    "init-u_amp-nan": ("u_amp = 1.0", "u_amp = nan", "u_amp"),
    "dispersion-k_max-inf": ("[tasks]", "[dispersion]\nk_max = inf\n\n[tasks]", "k_max"),
    # k_max^2 overflows in the dispersion route, whatever the task list
    "dispersion-k_max-square-overflow": ("[tasks]", "[dispersion]\nk_max = 1e160\n\n[tasks]",
                                         "[dispersion] k_max"),
    "backward-dt-negative": ("[tasks]", "[backward]\ndt = -1\n\n[tasks]", "dt"),
    # (dt/2)^2 of the midpoint matrix overflows
    "time-dt-half-square-overflow": ("dt = 0.2", "dt = 1e160", "[time] dt"),
    "backward-dt-half-square-overflow": ("[tasks]", "[backward]\ndt = 1e160\n\n[tasks]",
                                         "[backward] dt"),
    # dt/2 |A| overflows: the stiffness entries grow like dt m / (rho h^2)
    "time-dt-midpoint-norm-overflow": ("n_interior = 16\n\n[time]\ndt = 0.2",
                                       "n_interior = 16\nlength = 1e-150\n\n[time]\ndt = 1e10",
                                       "[time] dt"),
    "backward-dt-midpoint-norm-overflow": (
        "n_interior = 16\n\n[time]\ndt = 0.2",
        "n_interior = 16\nlength = 1e-150\n\n[backward]\ndt = 1e10\n\n[time]\ndt = 1e-10",
        "[backward] dt"),
    "backward-eps-above-1": ("[tasks]", "[backward]\neps = 1.5\n\n[tasks]", "eps"),
    "backward-n_steps-negative": ("[tasks]", "[backward]\nn_steps = -3\n\n[tasks]",
                                  "n_steps"),
    "backward-lam-zero": ("[tasks]", "[backward]\nlam = 0\n\n[tasks]", "lam"),
    # each task at most once: a repeat would run it, and write its files, twice
    "tasks-run-repeated": ("run = simulate", "run = simulate, simulate", "[tasks] run"),
    "init-seed-negative": ("u_amp = 1.0", "u_amp = 1.0\nseed = -4", "seed"),
    "init-impulse-node-outside-grid": ("preset = sine", "preset = impulse\nnode = 16",
                                       "node"),
    # the state's square x . x, the stepper's range test, overflows
    "init-u_amp-square-overflow": ("u_amp = 1.0", "u_amp = 1e160", "[init] u_amp"),
    "dispersion-n_k-above-2GiB": ("[tasks]", "[dispersion]\nn_k = 1000000000000\n\n[tasks]",
                                  "n_k"),
    # bytes 0xff 0xfe end the model line (write keeps them as bytes)
    "file-not-utf-8": ("model = type3", "model = type2\udcff\udcfe", "not UTF-8 text"),
    # the random draws times amp overflow, whether or not a task steps
    "init-random-amp-overflow": ("preset = sine", "preset = random\nseed = 3\namp = 1e308",
                                 "[init] amp"),
    "init-random-amp-overflow-dispersion-only": (
        "preset = sine\nu_amp = 1.0\n\n[tasks]\nrun = simulate",
        "preset = random\nseed = 3\namp = 1e308\n\n[tasks]\nrun = dispersion", "[init] amp"),
    # the initial state of 6n floats, built for the x . x test, above
    # 2 GiB, with no task that steps or solves the spectrum
    "grid-n_interior-state-above-2GiB": (
        "n_interior = 16\n\n[time]\ndt = 0.2\nn_steps = 10\n\n[init]\npreset = sine\n"
        "u_amp = 1.0\n\n[tasks]\nrun = simulate",
        "n_interior = 1000000000000\n\n[time]\ndt = 0.2\nn_steps = 10\n\n[init]\n"
        "preset = sine\nu_amp = 1.0\n\n[tasks]\nrun = dispersion", "n_interior"),
}


# the largest n_interior whose steps apply the dense inverse
DENSE_N = evolve._DENSE_STEP // 6


def reference_text(cfg, swaps):
    """The reference file cfg cut to 5 steps forward and backward, with
    each old text of swaps replaced by its new text."""
    text = (pathlib.Path(cfg).read_text().replace("n_steps = 400", "n_steps = 5")
            .replace("n_steps = 200", "n_steps = 5"))
    for old, new in swaps.items():
        if old not in text:  # an AssertionError would pass as an expected xfail
            raise KeyError(old)
        text = text.replace(old, new)
    return text


# id -> (reference file, swaps): admitted inputs at the edges of what
# check accepts; run must exit 0 or 1
CONTRACT_EDGES = {
    "type2-n2": (TYPE2, {"n_interior = 16": "n_interior = 2"}),
    "type3-n2": (TYPE3, {"n_interior = 16": "n_interior = 2"}),
    "type3-dense-limit": (TYPE3, {"n_interior = 16": f"n_interior = {DENSE_N}"}),
    "type3-above-dense-limit": (TYPE3, {"n_interior = 16": f"n_interior = {DENSE_N + 1}"}),
    "type3-one-wavenumber": (TYPE3, {"k_min = 0.5\nk_max = 8.0\nn_k = 16":
                                     "k_min = 3.0\nk_max = 3.0\nn_k = 1"}),
    # a zero step between wavenumbers: the branch matcher's secant
    "type3-repeated-wavenumber": (TYPE3, {"k_min = 0.5\nk_max = 8.0\nn_k = 16":
                                          "k_min = 3.0\nk_max = 3.0\nn_k = 3"}),
    # the huge-dt step within the guard: by the dense inverse, and by
    # the band solve for the positions
    "type3-dt-1e50-dense": (TYPE3, {"dt = 0.01": "dt = 1e50"}),
    "type3-dt-1e50-band": (
        TYPE3, {"dt = 0.01": "dt = 1e50", "n_interior = 16": f"n_interior = {DENSE_N + 1}"}),
    # (dt/2)^2 |K| overflows, and the positions' system divided by h
    # forms no h^2 K
    "type3-dt-1e154-band": (
        TYPE3, {"dt = 0.01": "dt = 1e154", "n_interior = 16": f"n_interior = {DENSE_N + 1}"}),
    # a large grid at a small dt, and a stiff material: large relative
    # residuals, backward errors within the guard
    "type3-n8192-dt1e-4": (
        TYPE3, {"n_interior = 16": "n_interior = 8192", "dt = 0.01": "dt = 1e-4",
                "run = simulate, spectrum, dispersion, backward, localization":
                "run = simulate"}),
    "type3-lame-1e8": (TYPE3, {"model = type3": "model = type3\nlambda_e = 1e8\nmu_e = 1e8"}),
    # |I - dt/2 A| near 1e200: the steps pass the guard, and the round
    # trip FAILs (exit 1)
    "type2-length-1e-100": (TYPE2, {"length = 1.0": "length = 1e-100"}),
    # large wavenumbers, whose k^2 is still a float
    "type3-k_max-1e12": (TYPE3, {"k_max = 8.0": "k_max = 1e12"}),
    "type2-k_max-1e30": (TYPE2, {"k_max = 8.0": "k_max = 1e30"}),
    "type3-k_max-1e30": (TYPE3, {"k_max = 8.0": "k_max = 1e30"}),
    # the least positive wavenumber: k^2 underflows to 0, and the branch
    # matcher's first secant divides by a subnormal step
    "type2-k_min-5e-324": (TYPE2, {"k_min = 0.5": "k_min = 5e-324"}),
    "type3-k_min-5e-324": (TYPE3, {"k_min = 0.5": "k_min = 5e-324"}),
}

# id -> (reference file, swaps, the CHANGES.md FOUND line or ROADMAP item
# that names it): inputs that pass check but exit 2 in run (ROADMAP items
# 4 and 16)
CONTRACT_BREAKS = {
    "type3-length-1e-150": (
        TYPE3, {"length = 1.0": "length = 1e-150"},
        "ROADMAP item 16: |I - dt/2 A| = 1.9e301 is finite, but the dense "
        "inverse is not, a SolveFailure at the stepper's construction"),
}


# id -> (reference file, swaps): inputs that once passed check and exited
# 2 in run, now rejected by check
CONTRACT_MENDED = {
    # finite moduli whose reduction lambda_e + 2 mu_e overflows
    "type3-lame-1e308": (TYPE3, {"model = type3": "model = type3\nlambda_e = 1e308\nmu_e = 1e308"}),
    # |I - dt/2 A| overflows, which the stepper's construction rejects
    "type2-length-1e-150-dt-1e10": (TYPE2, {"length = 1.0": "length = 1e-150",
                                            "dt = 0.01": "dt = 1e10"}),
    # k^2 overflows in characteristic_matrix from k of about 1.3e154
    "type3-k_max-1e160": (TYPE3, {"k_max = 8.0": "k_max = 1e160"}),
}

def write(tmp_path, text, name="scenario.cfg"):
    """The text as a UTF-8 file, its lone surrogates U+DC80..U+DCFF
    written as the bytes 0x80..0xff."""
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
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
        # the balance holds to 1e-13 of the initial energy: its tol is 1e-10 of it
        resid, tol = map(float, re.search(
            r"energy balance: PASS \(max step residual (\S+), tol (\S+)\)", report).groups())
        assert resid <= 1e-3 * tol

    def test_huge_dt_on_the_dense_path_passes_without_warning(self, tmp_path):
        # [time] dt = 2.6e154 at n = 16: the dense path forms no band
        # matrix, whose dt^2/4 K overflowed with a RuntimeWarning, which
        # pytest turns into an error
        text = pathlib.Path(TYPE3).read_text()
        assert text.count("dt = 0.01") == 1
        out = tmp_path / "out"
        assert main(["run", write(tmp_path, text.replace("dt = 0.01", "dt = 2.6e154")),
                     "--out", str(out)]) == 0
        assert "FAIL" not in (out / "report.txt").read_text()

    def test_reference_type2_all_certificates_pass(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", TYPE2, "--out", str(out)]) == 0
        report = (out / "report.txt").read_text()
        assert "energy conservation: PASS" in report
        assert "imaginary axis spectrum: PASS" in report
        assert "real frequencies: PASS" in report
        assert "round trip: PASS" in report
        assert not (out / "backward.csv").exists()

    @pytest.mark.parametrize("cfg", [TYPE2, TYPE3], ids=["type2", "type3"])
    def test_reruns_are_byte_identical(self, cfg, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", cfg, "--out", str(a)]) == 0
        assert main(["run", cfg, "--out", str(b)]) == 0
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

    def test_reversed_run_that_overflows_is_recorded(self, tmp_path):
        # the time-reversed type3 run at n = 1024 leaves the float range
        # (NonFinite) within 300 steps; the probe records it as an
        # infinite round-trip error instead of aborting the run
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

    @pytest.mark.parametrize("command", ["run", "dispersion"])
    @pytest.mark.parametrize("under", [False, True], ids=["out-is-a-file", "out-under-a-file"])
    def test_unwritable_output_directory_is_exit_2(self, tmp_path, capsys, command, under):
        # --out names an existing file, or a path under one: one error
        # line, no report, and the file left as it was
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        out = taken / "out" if under else taken
        assert main([command, TYPE2, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("error:") == 1
        assert "cannot write the output" in captured.err and str(out) in captured.err
        assert taken.read_text() == "kept\n"

    def test_aborted_task_still_writes_a_report(self, tmp_path, capsys, monkeypatch):
        # the dispersion fails after simulate and spectrum have
        # certified; the report keeps their lines and ends in the abort,
        # with no overall verdict
        monkeypatch.setattr(runner, "solve_branches", overflowing_branches)
        out = tmp_path / "out"
        assert main(["check", TYPE3]) == 0
        assert main(["run", TYPE3, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.count("error:") == 1 and "float range" in captured.err
        report = (out / "report.txt").read_text()
        assert report.startswith("# model = type3\n")
        assert "dissipativity: PASS" in report
        assert "spectral_abscissa < 0: PASS" in report
        assert "# final energy = " in report
        assert report.splitlines()[-1] == (
            "aborted: dispersion: the linearization or its roots leave the float range "
            "at k = 1e+160")
        assert "overall" not in report and "backward" not in report
        assert report in captured.out
        assert (out / "energy.csv").exists() and (out / "spectrum.csv").exists()
        assert not (out / "dispersion.csv").exists()


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

    def test_dispersion_size_limit_is_checked_on_both_sides(self, tmp_path, capsys):
        # check runs no numerics: the largest n_k whose counted peak fits
        # in 2 GiB passes, one more is rejected
        limit = _MAX_ARRAY_BYTES // _DISPERSION_BYTES_PER_K
        for n_k, code in ((limit, 0), (limit + 1, 2)):
            cfg = write(tmp_path, SMALL_TYPE3.replace("[tasks]",
                                                      f"[dispersion]\nn_k = {n_k}\n\n[tasks]"))
            assert main(["check", cfg]) == code
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and f"n_k = {limit + 1}" in err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "nope.cfg")]) == 2
        assert "cannot read" in capsys.readouterr().err


class TestExitCodeContract:
    """check exiting 0 implies run exiting 0 or 1."""

    @staticmethod
    def exit_codes(tmp_path, cfg, swaps):
        """check's exit code on the edited reference file, and run's when
        check exits 0 (else None)."""
        path = write(tmp_path, reference_text(cfg, swaps))
        checked = main(["check", path])
        return checked, main(["run", path, "--out", str(tmp_path / "out")]) if checked == 0 else None

    @pytest.mark.parametrize("cfg, swaps", CONTRACT_EDGES.values(), ids=CONTRACT_EDGES)
    def test_admitted_edges_run_to_0_or_1(self, tmp_path, cfg, swaps):
        checked, ran = self.exit_codes(tmp_path, cfg, swaps)
        assert checked == 0 and ran in (0, 1)

    @pytest.mark.parametrize("cfg, swaps", [
        pytest.param(cfg, swaps, id=name,
                     marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=found))
        for name, (cfg, swaps, found) in CONTRACT_BREAKS.items()] + [
        pytest.param(cfg, swaps, id=name) for name, (cfg, swaps) in CONTRACT_MENDED.items()])
    def test_check_0_implies_run_0_or_1(self, tmp_path, cfg, swaps):
        checked, ran = self.exit_codes(tmp_path, cfg, swaps)
        assert checked != 0 or ran in (0, 1)


class TestDispersionCommand:
    def test_overflowing_wavenumber_is_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(runner, "solve_branches", overflowing_branches)
        cfg = write(tmp_path, SMALL_TYPE3)
        out = tmp_path / "out"
        assert main(["dispersion", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "float range" in err
        report = (out / "report.txt").read_text().splitlines()
        assert all(line.startswith("# ") for line in report[:-1])
        assert report[-1] == ("aborted: dispersion: the linearization or its roots "
                              "leave the float range at k = 1e+160")

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
