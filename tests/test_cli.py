import json
import os
import subprocess
import sys
import time

import pytest

import quartic_cones
from quartic_cones.cli import main

from conftest import STANDARD_HEPTAD

KLEIN = "x^3*y + y^3*z + z^3*x\n"
FERMAT = "x^4 + y^4 + z^4\n"


@pytest.fixture()
def heptad_file(tmp_path):
    path = tmp_path / "heptad.txt"
    path.write_text("# standard heptad\n" + "\n".join(
        ",".join(str(c) for c in p) for p in STANDARD_HEPTAD) + "\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestCovariantsCommand:
    def test_klein(self, capsys, tmp_path):
        path = tmp_path / "klein.txt"
        path.write_text(KLEIN)
        report = run_json(capsys, "covariants", str(path))
        assert report["g4"] == "s^3*t + s*u^3 + t^3*u"
        assert report["g6"] == "s^5*u - 5*s^2*t^2*u^2 + s*t^5 + t*u^5"
        assert report["dual_degree"] == 12

    def test_fermat(self, capsys, tmp_path):
        path = tmp_path / "fermat.txt"
        path.write_text(FERMAT)
        report = run_json(capsys, "covariants", str(path))
        assert report["g4"] == "4*s^4 + 4*t^4 + 4*u^4"
        assert report["g6"] == "16*s^2*t^2*u^2"
        assert report["input_smoothness"]["smooth"] is True

    def test_non_quartic_exit_1(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("x^3\n")
        code, out, err = run(capsys, "covariants", str(path))
        assert code == 1
        assert "degree 4" in err

    def test_parse_error_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("x^\n")
        code, out, err = run(capsys, "covariants", str(path))
        assert code == 2

    @pytest.mark.parametrize("text, message", [
        ("(x+y+z+1)^60\n", "degree 60 exceeds the cap of 32"),
        ("x^4 + 2^100000*y^4 + z^4\n", "bits exceeds the cap of 4096"),
    ])
    def test_runaway_input_exits_2_before_computing(self, capsys, tmp_path, text, message):
        path = tmp_path / "huge.txt"
        path.write_text(text)
        started = time.perf_counter()
        code, out, err = run(capsys, "covariants", str(path))
        assert time.perf_counter() - started < 1
        assert code == 2 and out == ""
        assert message in err

    @pytest.mark.parametrize("text, why", [
        ("x^4\n", "g4 = g6 = 0"),
        ("x^2*y^2\n", "4 g4^3 = 27 g6^2"),
    ])
    def test_vanishing_dual_curve_exit_1(self, capsys, tmp_path, text, why):
        path = tmp_path / "degenerate.txt"
        path.write_text(text)
        code, out, err = run(capsys, "covariants", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: {why}: the dual curve vanishes identically\n"

    def test_symbolic_parameter_accepted(self, capsys, tmp_path):
        path = tmp_path / "family.txt"
        path.write_text("x^4+y^4+z^4+lambda*(y^2*z^2+x^2*z^2+x^2*y^2)\n")
        report = run_json(capsys, "covariants", str(path))
        assert report["input_smoothness"]["status"] == "not_evaluated_parametric"
        assert "lambda" in report["g4"]


class TestJCommand:
    def test_finite_value(self, capsys, tmp_path):
        path = tmp_path / "fermat.txt"
        path.write_text(FERMAT)
        report = run_json(capsys, "j", str(path), "--point", "1,2,3")
        assert report["status"] == "ok"
        assert report["j"] == "203297472/113275"

    def test_on_dual_curve_status(self, capsys, tmp_path):
        path = tmp_path / "fermat.txt"
        path.write_text(FERMAT)
        report = run_json(capsys, "j", str(path), "--point", "1,1,1")
        assert report["status"] == "on_dual_curve"
        assert report["dual_curve_value"] == "0"

    def test_malformed_point_exit_2(self, capsys, tmp_path):
        path = tmp_path / "fermat.txt"
        path.write_text(FERMAT)
        code, _, _ = run(capsys, "j", str(path), "--point", "1,2")
        assert code == 2


class TestOctadCommand:
    def test_check(self, capsys, heptad_file):
        report = run_json(capsys, "octad", "check", heptad_file)
        assert report["verdict"] is True
        assert report["net_dimension"] == 3
        assert report["coplanarity_determinants_computed"] == 35

    def test_eighth(self, capsys, heptad_file):
        report = run_json(capsys, "octad", "eighth", heptad_file)
        assert report["eighth_point"] == ["121", "-22", "-15", "-11"]
        assert report["verified_on_generators"] is True

    def test_bitangents(self, capsys, heptad_file):
        report = run_json(capsys, "octad", "bitangents", heptad_file)
        assert report["count"] == 28
        assert report["distinct_lines"] is True

    def test_cremona_scalar_flag(self, capsys, heptad_file):
        report = run_json(capsys, "octad", "cremona", heptad_file,
                          "--center", "1,2,3,4")
        assert report["determinant_preserved"] is True
        assert report["hessian_scalar_equal"] is True
        assert report["center_theta_label"] == [1, 2, 3, 4]
        assert report["new_octad"] == [
            [str(c) for c in p] for p in
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 1, 1, 1],
             [12, 6, 4, 3], [900, 225, 100, 36], [30, -165, -242, -330]]]

    def test_gale(self, capsys, heptad_file):
        report = run_json(capsys, "octad", "gale", heptad_file)
        assert report["checks_pass"] is True
        assert report["projected_points"] == [
            [str(c) for c in p] for p in
            [[2, 15, 1], [1, 0, 0], [0, 1, 0], [0, 0, 1], [13, 136, 12],
             [8, 126, 15], [1, 24, 6]]]

    @pytest.mark.parametrize("center", ["1,1,2,3", "0,1,2,3", "1,2,3,9", "1,2,3", "1,2,3,4,4"])
    def test_center_labels_are_input(self, capsys, heptad_file, center):
        code, out, err = run(capsys, "octad", "cremona", heptad_file, "--center", center)
        assert (code, out) == (2, "")
        assert err == f"input error: --center needs four distinct labels in 1..8, " \
                      f"got {center!r}\n"

    def test_wrong_point_count_exit_2(self, capsys, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("1,0,0,0\n0,1,0,0\n")
        code, _, _ = run(capsys, "octad", "check", str(path))
        assert code == 2

    def test_non_aronhold_exit_1(self, capsys, tmp_path):
        path = tmp_path / "cubic.txt"
        path.write_text("\n".join(f"1,{t},{t*t},{t*t*t}" for t in range(7)) + "\n")
        code, out, err = run(capsys, "octad", "eighth", str(path))
        assert (code, out) == (1, "")
        assert err == "error: heptad is not Aronhold (net dimension 3, smooth=False)\n"


class TestThetaCommand:
    def test_count(self, capsys):
        report = run_json(capsys, "theta", "count")
        assert report == {"command": "theta.count", "odd": 28, "even": 36,
                          "aronhold": 288}

    def test_aronhold_list(self, capsys):
        report = run_json(capsys, "theta", "aronhold", "--list")
        assert report["count"] == 288
        assert len(report["systems"]) == 288
        assert report["fiber_sizes"] == [8]
        assert report["fibers"] == 36

    def test_jobs_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--jobs", "2", "theta", "count"])
        assert exit_info.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("flags", [["--seed", "3"], ["-v"], ["--verbose"]])
    def test_seed_and_verbose_flags_are_gone(self, capsys, flags):
        with pytest.raises(SystemExit) as exit_info:
            main([*flags, "theta", "count"])
        assert exit_info.value.code == 2
        assert capsys.readouterr().out == ""


class TestS4Command:
    def test_lambda_zero_fermat_consistency(self, capsys):
        report = run_json(capsys, "s4", "--lambda", "0")
        assert report["fermat_consistent"] is True
        assert report["gamma"] == "-4"

    def test_lambda_three(self, capsys):
        report = run_json(capsys, "s4", "--lambda", "3")
        assert report["gamma"] == "4"
        assert report["identities"]["planes_in_cone"] is True

    def test_symbolic(self, capsys):
        report = run_json(capsys, "s4", "--lambda", "symbolic")
        assert report["lambda"] == "symbolic"
        assert report["identities"]["stu_squared"] is True
        assert "planes_omitted" in report

    def test_excluded_exit_1(self, capsys):
        code, _, err = run(capsys, "s4", "--lambda", "2")
        assert code == 1
        assert "-2" in err and "-1" in err


class TestDeterminism:
    def test_identical_bytes_across_runs(self, capsys, heptad_file):
        outputs = []
        for _ in range(2):
            code = main(["octad", "check", heptad_file])
            assert code == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]

    def test_format_env_default(self, capsys, tmp_path, monkeypatch):
        # no environment variable sets a default: QUARTIC_CONES_FORMAT, read
        # by earlier versions, changes no byte
        path = tmp_path / "fermat.txt"
        path.write_text(FERMAT)
        monkeypatch.delenv("QUARTIC_CONES_FORMAT", raising=False)
        outputs = []
        for value in (None, "text"):
            if value is not None:
                monkeypatch.setenv("QUARTIC_CONES_FORMAT", value)
            assert main(["covariants", str(path)]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        json.loads(outputs[1].out)


class TestStartup:
    # Each job runs in a fresh interpreter, so no earlier test has imported
    # anything already.  dataclasses and inspect cost about 11 ms per job,
    # and a subcommand compiles only the package modules it runs.
    @pytest.mark.parametrize("argv, absent", [
        (["covariants", "{quartic}"], ("quartic_cones.octad", "quartic_cones.theta")),
        (["j", "{quartic}", "--point", "1,2,3"],
         ("quartic_cones.cone", "quartic_cones.octad", "quartic_cones.theta")),
        (["s4", "--lambda", "3"], ("quartic_cones.octad", "quartic_cones.theta")),
        (["octad", "gale", "{heptad}"], ("quartic_cones.cone", "quartic_cones.covariants",
                                         "quartic_cones.theta")),
        (["theta", "count"], ("quartic_cones.cone", "quartic_cones.covariants",
                              "quartic_cones.octad", "quartic_cones.polycore")),
    ], ids=["covariants", "j", "s4", "octad-gale", "theta-count"])
    def test_job_imports_only_what_its_subcommand_needs(self, tmp_path, heptad_file,
                                                        argv, absent):
        path = tmp_path / "klein.txt"
        path.write_text(KLEIN)
        argv = [a.format(quartic=str(path), heptad=heptad_file) for a in argv]
        absent = ("dataclasses", "inspect") + absent
        script = (
            "import contextlib, io, sys\n"
            "from quartic_cones import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main({argv!r}) == 0\n"
            f"print(sorted(m for m in {absent!r} if m in sys.modules))\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(quartic_cones.__file__)))
        done = subprocess.run([sys.executable, "-c", script],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"
