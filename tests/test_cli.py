"""CLI contract: subcommands, JSON schema, exit codes, determinism."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import f4prolong
from conftest import spy_flags
from f4prolong import cartan, cli, control, nullflag, prolong
from f4prolong.cli import run


def _capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_cartan_json(capsys):
    code, out, _ = _capture(capsys, ["verify", "cartan", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "f4prolong/1"
    assert data["suite"] == "cartan"
    assert data["seed"] == 0
    assert len(data["items"]) == 141
    assert all(i["status"] == "pass" for i in data["items"])


def test_verify_all_reproduces_the_golden_report(capsys):
    # tests/data/verify_all_seed0.json is `verify all --json --seed 0` with
    # elapsed_ms set to 0; regenerate it when a report text changes on purpose
    code, out, _ = _capture(capsys, ["verify", "all", "--json", "--seed", "0"])
    assert code == 0
    golden = (Path(__file__).parent / "data" / "verify_all_seed0.json").read_text()
    assert re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', out) == golden


@pytest.mark.parametrize("suite", ["cartan", "control", "nullflag", "prolong", "roots"])
def test_each_suite_alone_reproduces_its_slice_of_the_golden_report(suite):
    golden = json.loads((Path(__file__).parent / "data" / "verify_all_seed0.json").read_text())
    prefix = f"{suite}:"
    want = [
        {**item, "id": item["id"][len(prefix) :]}
        for item in golden["items"]
        if item["id"].startswith(prefix)
    ]
    assert want and cli._run_suite(suite, 0, None).to_json()["items"] == want


def test_verify_all_closes_the_flags_of_D_and_E_once_each(capsys, monkeypatch):
    prolong.build_zeta_generators.cache_clear()
    closed = spy_flags(monkeypatch)
    code, _, _ = _capture(capsys, ["verify", "all", "--json"])
    assert code == 0
    assert [t.flag[0] for t in closed] == [(8, 15), prolong.EXPECTED_GROWTH]


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["flag", "--coords", "1,0,2,0,1,1/2,0,3,1", "--json"], "flag_fractions.json"),
        (["flag", "--coords", "2,-1,0,1,3,0,-2,1,1", "--json"], "flag_integers.json"),
        (["export-model", "--json"], "export_model.json"),
        (["roots", "--json"], "roots.json"),
    ],
    ids=["flag-fractions", "flag-integers", "export-model", "roots"],
)
def test_exact_outputs_reproduce_their_golden_files(capsys, argv, golden):
    # each file is the command's stdout; regenerate it when an output
    # changes on purpose
    code, out, _ = _capture(capsys, argv)
    assert code == 0
    assert out == (Path(__file__).parent / "data" / golden).read_text()


def test_verify_all_builds_the_model_once(capsys, monkeypatch):
    cartan.build_model.cache_clear()
    built = []
    real = cartan.CartanModel
    monkeypatch.setattr(cartan, "CartanModel", lambda *a, **kw: built.append(1) or real(*a, **kw))
    code, _, _ = _capture(capsys, ["verify", "all", "--json"])
    assert code == 0
    assert len(built) == 1


def test_verify_roots_human(capsys):
    code, out, _ = _capture(capsys, ["verify", "roots"])
    assert code == 0
    assert "paper-discrepancy" in out
    assert "suite roots:" in out


def test_identical_seeds_identical_json(capsys):
    _, out1, _ = _capture(capsys, ["verify", "roots", "--json", "--seed", "3"])
    _, out2, _ = _capture(capsys, ["verify", "roots", "--json", "--seed", "3"])
    d1, d2 = json.loads(out1), json.loads(out2)
    d1.pop("elapsed_ms")
    d2.pop("elapsed_ms")
    assert d1 == d2


def test_global_suites_ignore_seed_and_samples(capsys):
    # no suite draws a point, so neither flag changes a report
    for suite in ("cartan", "control", "nullflag", "prolong", "all"):
        reports = []
        for seed, samples in (("0", "1"), ("7", "5")):
            argv = ["verify", suite, "--json", "--seed", seed, "--samples", samples]
            code, out, _ = _capture(capsys, argv)
            assert code == 0
            data = json.loads(out)
            del data["seed"], data["elapsed_ms"]
            reports.append(data)
        assert reports[0] == reports[1]


def test_a_closed_pipe_ends_without_a_traceback():
    # export-model --json is about 200 KB, more than a pipe holds, so the
    # writer is still printing when the reader closes its end
    src = str(Path(f4prolong.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "f4prolong", "export-model", "--json"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait() == 1
    assert "Traceback" not in err and err == ""


def test_the_command_line_imports_neither_dataclasses_nor_inspect():
    # both cost start-up time on every command and the package uses neither
    src = str(Path(f4prolong.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys; before = set(sys.modules); import f4prolong, f4prolong.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    added = done.stdout.split()
    assert "f4prolong.cli" in added
    assert not {"dataclasses", "inspect"} & set(added)


@pytest.mark.parametrize("module", ["f4prolong", "f4prolong.cli"])
def test_python_dash_m_runs_the_command_line(module):
    src = str(Path(f4prolong.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    m = [sys.executable, "-m", module]
    done = subprocess.run(m + ["verify", "cartan", "--json"], capture_output=True, text=True, env=env)
    assert done.returncode == 0
    assert json.loads(done.stdout)["suite"] == "cartan"
    done = subprocess.run(m + ["integrate", "--step", "nan"], capture_output=True, text=True, env=env)
    assert done.returncode == 2
    assert "step must be a positive finite number" in done.stderr and not done.stdout


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2


def test_unknown_suite_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["verify", "bogus"])
    assert exc.value.code == 2


def test_malformed_rational_exits_2(capsys):
    code, _, err = _capture(capsys, ["flag", "--coords", "1,2,nope,0,0,0,0,0,0"])
    assert code == 2
    assert "malformed rational" in err


def test_wrong_arity_exits_2(capsys):
    code, _, err = _capture(capsys, ["flag", "--coords", "1,2"])
    assert code == 2
    assert "9" in err


def test_flag_command(capsys):
    code, out, _ = _capture(
        capsys, ["flag", "--coords", "1,0,2,0,1,1/2,0,3,1", "--json"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "f4prolong/1"
    assert len(data["lambda_frame"]) == 3
    assert len(data["v_frame"]) == 4
    assert all(len(f) == 7 for f in data["lambda_frame"])
    assert all(len(e) == 8 for e in data["v_frame"])
    assert all(i["status"] == "pass" for i in data["items"])


def test_integrate_default_data(capsys):
    code, out, _ = _capture(
        capsys, ["integrate", "--step", "1e-2", "--tmax", "0.1", "--json"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "f4prolong/1"
    assert data["max_constraint_drift"] < 1e-8
    assert data["steps"] == 10


def test_integrate_custom_covector(capsys):
    # covector s=0, r34=1 with controls in its kernel
    code, out, _ = _capture(
        capsys,
        [
            "integrate",
            "--step", "1e-2", "--tmax", "0.1",
            "--covector", "0,0,0,0,0,0,1",
            "--controls", "1,0,0,0,0,0,1,0",
            "--json",
        ],
    )
    assert code == 0
    assert json.loads(out)["max_constraint_drift"] < 1e-8


def test_integrate_bad_controls_exit_2(capsys):
    code, _, err = _capture(
        capsys,
        ["integrate", "--covector", "0,0,1,0,0,0,0"],
    )
    assert code == 2
    assert "ker" in err


@pytest.mark.parametrize(
    "flags",
    [
        ["--step", "nan"],
        ["--step", "inf"],
        ["--tmax", "inf"],
        ["--tmax", "nan"],
        ["--tmax", "-1"],
        ["--tmax", "0"],
    ],
)
def test_integrate_rejects_bad_step_or_horizon(capsys, flags):
    code, out, err = _capture(capsys, ["integrate", *flags])
    assert code == 2
    assert "must be a positive finite number" in err
    assert out == ""


@pytest.mark.parametrize(
    "step, tmax", [("0.3", "1"), ("1", "1e-300"), ("1e-2", "0.015")]
)
def test_integrate_rejects_a_horizon_that_is_not_a_whole_number_of_steps(capsys, step, tmax):
    code, out, err = _capture(capsys, ["integrate", "--json", "--step", step, "--tmax", tmax])
    assert code == 2
    assert "is not a whole number of steps" in err
    assert repr(float(step)) in err and repr(float(tmax)) in err
    assert out == ""


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_samples_below_one_exit_2(capsys, samples):
    code, out, err = _capture(capsys, ["verify", "control", "--samples", samples])
    assert code == 2
    assert "--samples must be at least 1" in err
    assert out == ""


@pytest.mark.parametrize("suite", ["control", "nullflag", "all"])
@pytest.mark.parametrize("samples", ["100001", "1000000000"])
def test_samples_above_the_cap_exit_2(capsys, monkeypatch, suite, samples):
    def never(*args, **kwargs):
        raise AssertionError("a suite ran with an over-cap sample count")

    for module in (cartan, control, nullflag):
        monkeypatch.setattr(module, "verify_suite", never)
    code, out, err = _capture(capsys, ["verify", suite, "--samples", samples])
    assert code == 2
    assert f"at most {cli.MAX_SAMPLES}, got {samples}" in err
    assert out == ""


def test_samples_at_the_cap_are_accepted(capsys, monkeypatch):
    seen = []
    monkeypatch.setattr(nullflag, "verify_suite", lambda: seen.append("ran") or [])
    code, _, _ = _capture(capsys, ["verify", "nullflag", "--samples", str(cli.MAX_SAMPLES)])
    assert cli.MAX_SAMPLES == 100_000
    assert code == 0
    assert seen == ["ran"]


@pytest.mark.parametrize(
    "argv",
    [
        ["roots"],
        ["export-model"],
        ["integrate"],
        ["flag", "--coords", "0,0,0,0,0,0,0,0,0"],
    ],
)
def test_samples_belongs_to_verify_only(argv):
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--samples", "-3"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [["roots"], ["export-model"]])
def test_seed_is_refused_where_nothing_reads_it(argv):
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--seed", "3"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "flags", [["--step", "1e-9", "--tmax", "1"], ["--step", "1e-300", "--tmax", "1e300"]]
)
def test_integrate_caps_the_step_count(capsys, flags):
    # the controls also lie outside ker A, so the cap must be checked first;
    # without a cap the call still fails at once, on the controls, instead of
    # integrating 10^9 steps
    code, out, err = _capture(capsys, ["integrate", *flags, "--controls", "1,0,0,0,0,0,0,0"])
    assert code == 2
    assert "exceeds the cap of 100000 steps" in err
    assert out == ""


def test_integrate_cap_message_shows_a_ratio_beyond_the_cap(capsys):
    # 100.0000001 / 0.001 is 100000.0001, which six significant digits show as the cap itself
    code, out, err = _capture(capsys, ["integrate", "--step", "0.001", "--tmax", "100.0000001"])
    assert (code, out) == (2, "")
    shown = re.fullmatch(r"error: t_max / step = (\S+) exceeds the cap of 100000 steps\n", err)
    assert shown is not None and float(shown.group(1)) > control.MAX_STEPS


def test_point_belongs_to_integrate_only():
    with pytest.raises(SystemExit) as exc:
        run(["verify", "roots", "--point", "0"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "coords, code, message",
    [
        # its completion has an entry of about 6,000 digits, past the
        # interpreter's int-to-text limit; this used to end in a traceback
        ("1e3000,1,1,1,1,1,1,1,1", 2, "a frame entry has more than"),
        # this used to run for minutes on million-digit integers
        ("1e999999,0,0,0,0,0,0,0,0", 2, "rational '1e999999' has more than"),
        ("1,1e-5000,0,0,0,0,0,0,0", 2, "rational '1e-5000' has more than"),
        ("1e1500,1,1,1,1,1,1,1,1", 0, ""),
    ],
    ids=["entry-too-long", "huge-numerator", "huge-denominator", "long-but-printable"],
)
def test_flag_bounds_the_digits_of_its_input(capsys, coords, code, message):
    got, out, err = _capture(capsys, ["flag", "--coords", coords, "--json"])
    assert got == code
    if code:
        assert message in err and out == ""
    else:
        assert json.loads(out)["lambda_frame"][0][0] == str(10**1500)


@pytest.mark.parametrize(
    "coords, text",
    [
        ("1e9999999,0,0,0,0,0,0,0,0", "1e9999999"),
        ("2.5E-4301,1,0,0,0,0,0,0,0", "2.5E-4301"),
        ("1e+1_000_000,0,0,0,0,0,0,0,0", "1e+1_000_000"),
    ],
    ids=["huge-exponent", "huge-negative-exponent", "underscores"],
)
def test_flag_refuses_a_huge_exponent_before_it_builds_the_rational(capsys, monkeypatch, coords, text):
    # Fraction would build 10**exponent first: 1e9999999 takes seconds
    def forbidden(*args):
        raise AssertionError("Fraction was called")

    monkeypatch.setattr(cli, "Fraction", forbidden)
    got, out, err = _capture(capsys, ["flag", "--coords", coords, "--json"])
    assert got == 2 and out == ""
    assert f"rational {text!r} has more than {sys.get_int_max_str_digits()} as its decimal exponent" in err


def test_integrate_csv_export(capsys, tmp_path):
    path = tmp_path / "traj.csv"
    code, _, _ = _capture(
        capsys,
        ["integrate", "--step", "1e-2", "--tmax", "0.05", "--csv", str(path)],
    )
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("time,z,")
    assert len(lines) == 1 + 5 + 1  # header + steps + initial state


def test_integrate_reproduces_the_golden_trajectory(capsys, tmp_path):
    # tests/data/integrate_seed1.{json,csv} are this run's --json output and
    # --csv file, at the benchmark's seed-1 controls and covector; a change to
    # the RK4 code must leave every float of them as it is
    path = tmp_path / "traj.csv"
    code, out, _ = _capture(capsys, [
        "integrate", "--json", "--seed", "1", "--covector=-6/23,-1443/1058,409/1058,9/529,1,0,0",
        "--controls=-2,1,3,3,27/23,-48/23,40/23,-6/23", "--step", "0.001", "--tmax", "0.05",
        "--csv", str(path),
    ])  # fmt: skip
    assert code == 0
    data = Path(__file__).parent / "data"
    assert out == (data / "integrate_seed1.json").read_text()
    assert path.read_bytes() == (data / "integrate_seed1.csv").read_bytes()


def test_the_json_run_keeps_no_trajectory_and_the_csv_rows_are_the_kept_states(capsys, tmp_path):
    # 3,000 kept states take about 2.7 MB; the JSON output reads only the drift
    cov, ctl = "-6/23,-1443/1058,409/1058,9/529,1,0,0", "-2,1,3,3,27/23,-48/23,40/23,-6/23"
    argv = ["integrate", "--covector=" + cov, "--controls=" + ctl, "--step", "0.001"]

    def peak(tmax):
        tracemalloc.start()
        try:
            assert run([*argv, "--json", "--tmax", tmax]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak("0.01")  # builds the cached lift tables
    short = peak("0.03")
    capsys.readouterr()
    long = peak("3.0")
    assert json.loads(capsys.readouterr().out)["steps"] == 3000
    assert long < 1_500_000 and long - short < 100_000
    path = tmp_path / "traj.csv"
    assert run([*argv, "--tmax", "3.0", "--csv", str(path)]) == 0
    init = control.initial_state(None, [Fraction(x) for x in cov.split(",")])
    c = [Fraction(x) for x in ctl.split(",")]
    traj, _ = control.integrate_extremal(init, control.ControlVector(c[:4], c[4:]), 0.001, 3.0)
    want = [",".join(map(repr, [t, *st])) for t, st in zip(traj.times, traj.states)]
    assert path.read_text().splitlines()[1:] == want and len(want) == 3001


def test_the_parser_is_built_once_per_process():
    assert cli.build_parser() is cli.build_parser()


def test_integrate_unwritable_csv_exits_2(capsys, tmp_path):
    path = tmp_path / "missing" / "traj.csv"
    code, out, err = _capture(capsys, ["integrate", "--tmax", "0.01", "--csv", str(path)])
    assert code == 2
    assert str(path) in err
    assert out == ""


def test_integrate_refuses_an_unwritable_csv_before_any_step(capsys, monkeypatch, tmp_path):
    def never(*args):
        raise AssertionError("integrate_extremal ran")

    monkeypatch.setattr(control, "integrate_extremal", never)
    path = tmp_path / "missing" / "traj.csv"
    code, out, err = _capture(capsys, ["integrate", "--csv", str(path)])
    assert (code, out) == (2, "")
    assert f"cannot write --csv {path}" in err


def test_integrate_that_fails_leaves_the_csv_empty(capsys, tmp_path):
    # a file from an earlier run is not left standing as if this one wrote it
    path = tmp_path / "traj.csv"
    path.write_text("time,z\n0.0,0.0\n")
    argv = ["integrate", "--step", "0.3", "--tmax", "1", "--csv", str(path)]
    code, out, err = _capture(capsys, argv)
    assert (code, out) == (2, "")
    assert "whole number of steps" in err
    assert path.read_text() == ""


@pytest.mark.parametrize(
    "flag, message",
    [
        ("--covector=", "malformed rational ''"),
        ("--controls=", "malformed rational ''"),
        ("--point=", "malformed rational ''"),
        ("--csv=", "cannot write --csv"),
    ],
)
def test_integrate_an_empty_value_exits_2(capsys, flag, message):
    # an empty value is an input error, not a request for the default data
    code, out, err = _capture(capsys, ["integrate", "--json", "--tmax", "0.01", flag])
    assert code == 2
    assert message in err
    assert out == ""


def test_export_model_text_shows_every_coefficient(capsys):
    runs = [_capture(capsys, ["export-model"]) for _ in range(2)]
    assert runs[0] == runs[1]
    code, out, _ = runs[0]
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 30  # 15 frame fields, then 15 coframe forms
    assert not any("object at 0x" in line for line in lines)
    assert "omega: (1)dz + (-y1)dx1 + (-y2)dx2 + (-y3)dx3 + (-y4)dx4" in lines


def test_export_model_json(capsys):
    code, out, _ = _capture(capsys, ["export-model", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "f4prolong/1"
    assert len(data["chart"]) == 15
    assert set(data["frame"]) >= {"X1", "Y4", "X34", "Z"}
    assert len(data["coframe"]) == 15
    assert "omega" in data["coframe"]


def test_roots_list_json(capsys):
    code, out, _ = _capture(capsys, ["roots", "--json"])
    assert code == 0
    data = json.loads(out)
    assert len(data["positive_roots"]) == 24
    assert {"root": [2, 3, 4, 2], "height": 11, "alpha4": 2} in data["positive_roots"]


BIG = str(10**160)


@pytest.mark.parametrize(
    "flags, message",
    [
        # three steps of 1e300; this used to exit 0 with a finite drift over
        # 16 non-finite state entries
        (
            [
                "--covector=9/5,-1/200,109/200,81/100,1,0,0",
                "--controls=-2,1,1,-2,-6/5,11/10,1/10,9/5",
                "--step", "1e300", "--tmax", "3e300",
            ],
            "RK4 state is not finite",
        ),
        # a finite state whose constraint H_X1 is nan in floats; this used to
        # report a drift of 0.0
        (
            [
                "--point", f"0,0,{BIG},0,-{BIG},0,0,0,0,0,0,0,0,0,0",
                "--covector", f"0,{BIG},0,{BIG},0,0,0",
                "--controls", "0,0,1,0,0,0,0,0",
                "--step", "0.01", "--tmax", "0.03",
            ],
            "drift is not finite",
        ),
        (["--covector", f"0,{10**400},0,0,0,0,0"], "does not fit in floats"),
        # a Hamiltonian coefficient of 1e400; this used to end in an OverflowError traceback
        (["--controls=0,0,1e400,0,1e400,0,0,0"], "coefficient does not fit in a float"),
    ],
    ids=["state", "drift", "initial-state", "coefficient"],
)  # fmt: skip
def test_integrate_exits_2_when_the_floats_overflow(capsys, flags, message):
    code, out, err = _capture(capsys, ["integrate", "--json", *flags])
    assert code == 2
    assert message in err
    assert out == ""
