import copy
import dataclasses
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import meanreflect
from conftest import check_bits, child_env, verify_as_run, zero_s_with
from meanreflect import cli, registry, runner, verify_mean_reflection
from meanreflect.config import config_from_dict

CRITERION8 = {
    "mode": "full_sde",
    "problem": {
        "x0": 0.0,
        "horizon": 1.0,
        "n_steps": 8,
        "sigma_low_sq": 1.0,
        "sigma_high_sq": 4.0,
        "loss": {"name": "linear", "params": {"c0": 0.0, "c1": 1.0}},
        "sigma": {"name": "constant_sigma", "params": {"a": 1.0}},
    },
    "outputs": {"csv": "trace.csv", "report": "report.json"},
}


def run_cli(args, cwd, env_extra=None):
    return subprocess.run(
        [sys.executable, "-m", "meanreflect", *args],
        cwd=cwd, env=child_env(env_extra), capture_output=True, text=True,
    )


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def test_child_imports_package_under_test(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", "import meanreflect; print(meanreflect.__file__)"],
        cwd=tmp_path, env=child_env(), capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert Path(proc.stdout.strip()).resolve() == Path(meanreflect.__file__).resolve()


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    cfg = write_config(tmp, CRITERION8)
    proc = run_cli(["run", str(cfg)], cwd=tmp)
    return tmp, cfg, proc


def test_run_exits_zero_and_prints_checks(run_dir):
    tmp, _cfg, proc = run_dir
    assert proc.returncode == 0, proc.stderr
    assert "overall: PASS" in proc.stdout
    assert "PASS identity_residual" in proc.stdout


def test_run_writes_wellformed_csv(run_dir):
    tmp, _cfg, _proc = run_dir
    lines = (tmp / "trace.csv").read_text().splitlines()
    assert lines[0] == "t,A,E_l_X,E_X,E_absX_p"
    assert len(lines) == 1 + 9  # header + n_steps + 1 rows
    ts = [float(line.split(",")[0]) for line in lines[1:]]
    a = [float(line.split(",")[1]) for line in lines[1:]]
    assert ts == sorted(ts)
    assert all(y >= x for x, y in zip(a, a[1:]))
    # linear closed form: A column equals t within root tolerance
    assert max(abs(x - y) for x, y in zip(ts, a)) <= 1e-9


def test_report_is_valid_json_with_provenance(run_dir):
    tmp, _cfg, _proc = run_dir
    report = json.loads((tmp / "report.json").read_text())
    assert report["overall_pass"] is True
    assert len(report["provenance"]["config_sha256"]) == 64
    assert report["provenance"]["package_version"]


def test_repeated_runs_byte_identical(tmp_path):
    cfg = write_config(tmp_path, CRITERION8)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        proc = run_cli(["run", str(cfg)], cwd=tmp_path,
                       env_extra={"MEANREFLECT_OUTPUT_DIR": str(out)})
        assert proc.returncode == 0, proc.stderr
    assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()


def test_verify_writes_report_but_no_csv(tmp_path):
    cfg = write_config(tmp_path, CRITERION8)
    out = tmp_path / "verify_out"
    proc = run_cli(["verify", str(cfg)], cwd=tmp_path,
                   env_extra={"MEANREFLECT_OUTPUT_DIR": str(out)})
    assert proc.returncode == 0, proc.stderr
    assert (out / "report.json").exists()
    assert not (out / "trace.csv").exists()


def test_probe_mode_single_line_csv(tmp_path, band):
    payload = json.loads(json.dumps(CRITERION8))
    payload["problem"]["payoff"] = {"name": "square"}
    cfg = write_config(tmp_path, payload)
    proc = run_cli(["probe", str(cfg)], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert lines[0] == "payoff,value"
    name, value = lines[1].split(",")
    assert name == "square"
    assert float(value) == pytest.approx(band.sigma_high_sq * 1.0, abs=1e-12)


def test_sp_only_mode_never_binding(tmp_path):
    payload = json.loads(json.dumps(CRITERION8))
    payload["mode"] = "sp_only"
    payload["problem"]["loss"] = {"name": "linear", "params": {"c0": -1.0, "c1": 0.0}}
    cfg = write_config(tmp_path, payload)
    proc = run_cli(["run", str(cfg)], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    a = [float(line.split(",")[1]) for line in lines[1:]]
    assert a == [0.0] * 9


def test_exit_code_2_on_config_error(tmp_path):
    payload = json.loads(json.dumps(CRITERION8))
    payload["problem"]["sigma_low_sq"] = 9.0
    cfg = write_config(tmp_path, payload)
    proc = run_cli(["run", str(cfg)], cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "config error" in proc.stderr


def test_exit_code_1_on_failed_check(tmp_path):
    payload = json.loads(json.dumps(CRITERION8))
    payload["problem"]["loss"] = {
        "name": "linear", "params": {"c0": 0.0, "c1": 1.0}, "c_l": 5.0, "C_l": 5.0,
    }
    cfg = write_config(tmp_path, payload)
    proc = run_cli(["run", str(cfg)], cwd=tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert "FAIL loss_spotcheck_violations" in proc.stdout
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["overall_pass"] is False
    assert report["diagnostics"]["solve_skipped"]


OU = {"b": {"name": "ou_drift", "params": {"theta": 0.5}},
      "sigma": {"name": "linear_sigma", "params": {"a": 1.0, "b": 0.1}}}

# an n=6 run whose constraint binds at every step
BINDING6 = {
    "problem": {"n_steps": 6, **OU, "loss": {"name": "linear", "params": {"c0": 0.0, "c1": 1.0}}},
}


@pytest.mark.parametrize("mode, loss, tol", [
    ("full_sde", "linear", 1e-7), ("full_sde", "linear", 1e-6),
    ("sp_only", "linear", 1e-7), ("sp_only", "linear", 1e-6),
    ("full_sde", "smooth_sin", 1e-5),
])
def test_flatoff_limit_follows_the_solver_tol(tmp_path, mode, loss, tol):
    # each root is minimal within solver.tol, so E[l] reaches C_l tol where
    # A rises, above the fixed 1e-8 (1 + A_T - A_0) of the default tol; the
    # library verifier at the solve's tol writes the same five checks
    payload = copy.deepcopy(BINDING6)
    payload["mode"] = mode
    payload["solver"] = {"tol": tol}
    if loss != "linear":
        payload["problem"]["loss"] = {"name": loss}
    config = config_from_dict(payload)
    result = runner.run_experiment(config, output_dir=str(tmp_path))
    [flatoff] = [c for c in result.report["checks"] if c["name"] == "flatoff_residual"]
    assert result.exit_code == runner.EXIT_PASS, result.report["checks"]
    total_a = float(result.csv_text.splitlines()[-1].split(",")[1])
    limit = config.loss_spec().C_l * tol * (1.0 + total_a)
    assert flatoff["threshold"] == limit
    assert 1e-8 * (1.0 + total_a) < flatoff["measured"] <= limit
    verification = verify_as_run(config)
    assert check_bits(verification.checks) == check_bits(result.report["checks"][-5:])
    assert verification.passed


def _constant_s_run(tmp_path, monkeypatch, A, losses=None, tol=1e-10, c0=0.0):
    """A depth-2 ``sp_only`` run of the constant S = c0 against l = x - c0
    whose direct construction returns A and the kept ``losses``."""
    monkeypatch.setattr(runner, "_reflect_direct", lambda *args, **kwargs: (A, losses))
    config = config_from_dict({
        "mode": "sp_only", "solver": {"tol": tol},
        "problem": {"n_steps": 2, "x0": c0,
                    "sigma": {"name": "constant_sigma", "params": {"a": 0.0}},
                    "loss": {"name": "linear", "params": {"c0": c0, "c1": 0.0}}},
    })
    return runner.run_experiment(config, output_dir=str(tmp_path))


@pytest.mark.parametrize("tol", [1e-8, 1e-6])
def test_flatoff_above_the_limit_fails(tmp_path, monkeypatch, band, tol):
    # A rises by 0.5 to step 2 only, where E[l] is given as twice the
    # flat-off: the limit tol (1 + A_T - A_0) itself passes, one float
    # above it fails, in the library and in the run
    lattice, s, solution = zero_s_with(band, [0.0, 0.5, 1.0])
    loss = registry.make_loss("linear", {"c0": 0.0, "c1": 0.0})
    limit = tol * 2.0
    for measured, passed in ((limit, True), (np.nextafter(limit, 1.0), False)):
        given = np.array([0.0, 0.0, 2.0 * measured])
        report = verify_mean_reflection(solution, loss, s, lattice, tol=tol,
                                        expected_losses=given)
        [flatoff] = [c for c in report.checks if c.name == "flatoff_residual"]
        assert (flatoff.measured, flatoff.threshold, flatoff.passed) == (measured, limit, passed)
        assert report.passed == passed
        result = _constant_s_run(tmp_path, monkeypatch, solution.A, given, tol)
        assert check_bits(result.report["checks"][-5:]) == check_bits(report.checks)
        assert result.exit_code == (runner.EXIT_PASS if passed else runner.EXIT_CHECK_FAILED)


def test_non_compensator_fails_in_the_run(tmp_path, monkeypatch, band):
    # A = 0.1 from the start meets E[l] >= 0 for l = x - 0.1 with no
    # flat-off residual, but does not start at 0 (the library's verdict is
    # TestVerifier.test_non_compensator_fails)
    _, _, solution = zero_s_with(band, [0.1, 0.1, 0.1])
    result = _constant_s_run(tmp_path, monkeypatch, solution.A, c0=0.1)
    assert [c["name"] for c in result.report["checks"] if not c["pass"]] == [
        "compensator_starts_at_zero"]
    assert result.exit_code == runner.EXIT_CHECK_FAILED


def test_exit_code_3_on_solver_failure(tmp_path):
    # the golden picard_no_contraction problem: no contraction at one step
    payload = json.loads(json.dumps(CRITERION8))
    payload["problem"]["n_steps"] = 4
    payload["problem"]["b"] = {"name": "ou_drift", "params": {"theta": 60.0}}
    cfg = write_config(tmp_path, payload)
    proc = run_cli(["run", str(cfg)], cwd=tmp_path)
    assert proc.returncode == 3, proc.stderr
    report = json.loads((tmp_path / "report.json").read_text())
    assert "solver_error" in report["diagnostics"]


@pytest.mark.parametrize("field, value", [
    ("max_iter", 60), ("contraction_guard", 0.5), ("delta_min_steps", 1),
])
def test_removed_solver_field_is_config_error(tmp_path, capsys, field, value):
    cfg = write_config(tmp_path, {"solver": {field: value}})
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--output-dir", str(out)]) == 2
    assert f"solver: unknown field(s) ['{field}']" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == [cfg]


LIST_STDOUT = """\
coefficients:
  constant_drift
  constant_sigma
  linear_sigma
  ou_drift
  zero
losses:
  arctan_shift
  linear
  smooth_sin
payoffs:
  abs
  call
  identity
  neg_square
  square
"""


def test_list_command(tmp_path):
    proc = run_cli(["list"], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == LIST_STDOUT


@pytest.mark.parametrize("where, key, value, code", [
    ("problem", "x0", float("nan"), 2),
    ("solver", "tol", float("nan"), 2),
    ("problem.loss.params", "c0", "abc", 2),
    ("problem.loss.params", "c0", float("nan"), 2),
    ("problem.b.params", "theta", True, 2),
    ("problem.loss", "c_l", -1.0, 2),
    ("problem.sigma.params", "a", 1e308, 3),
    ("problem", "x0", 1e300, 3),
    ("outputs", "csv", "/", 2),
], ids=["x0_nan", "tol_nan", "c0_str", "c0_nan", "theta_bool", "c_l_negative",
        "sigma_overflow", "x0_overflow", "csv_root"])
def test_bad_numbers_map_to_exit_codes(tmp_path, capsys, where, key, value, code):
    payload = json.loads(json.dumps(CRITERION8))
    payload["problem"]["n_steps"] = 4
    payload["problem"]["b"] = {"name": "ou_drift", "params": {"theta": 0.5}}
    payload["solver"] = {}
    section = payload
    for part in where.split("."):
        section = section[part]
    section[key] = value
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--output-dir", str(out)]) == code
    if code == 2:
        assert "config error" in capsys.readouterr().err
    else:
        report = json.loads((out / "report.json").read_text())
        assert "solver_error" in report["diagnostics"]


def test_non_utf8_config_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_bytes(b"\xff\xfe{}")
    assert cli.main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
    assert "config error: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_control_bytes_in_printed_paths_are_escaped(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["run", "a\0b.json"]) == 2
    err = capsys.readouterr().err
    assert "\0" not in err
    assert err.startswith("config error: cannot read config file a\\x00b.json: ")
    cfg = write_config(tmp_path, {"problem": {"n_steps": 3}})
    assert cli.main(["run", str(cfg), "--output-dir", "out\x07dir"]) == 0
    out = capsys.readouterr().out
    assert "\x07" not in out
    assert out.endswith("overall: PASS (report: out\\x07dir/report.json)\n")
    assert (tmp_path / "out\x07dir" / "report.json").is_file()
    # a report path under an existing file cannot be written
    (tmp_path / "bell\x07").write_text("")
    assert cli.main(["run", str(cfg), "--output-dir", "bell\x07/out"]) == 2
    err = capsys.readouterr().err
    assert "\x07" not in err
    assert err.startswith("config error: outputs.csv: cannot write bell\\x07/out/trace.csv: ")


def test_printable_paths_print_as_they_are(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, {"problem": {"n_steps": 3}})
    assert cli.main(["run", str(cfg), "--output-dir", "out dir\\é"]) == 0
    assert capsys.readouterr().out.endswith("overall: PASS (report: out dir\\é/report.json)\n")
    assert cli.main(["run", "missing é.json"]) == 2
    assert capsys.readouterr().err == (
        "config error: cannot read config file missing é.json: "
        "[Errno 2] No such file or directory: 'missing é.json'\n")


def test_overflow_at_config_load_is_solver_failure(tmp_path, capsys):
    # 2 x0 overflows in the load-time check of l(0, x0); pytest turns a
    # RuntimeWarning into an error, so a warning leaking out would raise here
    cfg = write_config(tmp_path, {"mode": "sp_only",
                                  "problem": {"n_steps": 4, "x0": 1e308,
                                              "loss": {"name": "arctan_shift",
                                                       "params": {"c": 5.0}}}})
    assert cli.main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "RuntimeWarning" not in err and "Traceback" not in err


def test_unwritable_output_dir_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, CRITERION8)
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    assert cli.main(["run", str(cfg), "--output-dir", str(not_a_dir)]) == 2
    err = capsys.readouterr().err
    assert "config error: outputs.csv: cannot write" in err
    assert str(not_a_dir / "trace.csv") in err


def test_csv_overflow_names_column_and_time(tmp_path, capsys):
    payload = json.loads(json.dumps(CRITERION8))
    payload["problem"].update(n_steps=4, x0=1e300)
    cfg = write_config(tmp_path, payload)
    assert cli.main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 3
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert "CSV column E_absX_p at t=0.0" in report["diagnostics"]["solver_error"]
    assert all(check["pass"] for check in report["checks"])
    assert not (tmp_path / "out" / "trace.csv").exists()
    out, err = capsys.readouterr()
    assert "CSV column E_absX_p at t=0.0" in out
    assert "Traceback" not in out + err


@pytest.mark.parametrize("payoff", ["square", "neg_square"])
@pytest.mark.parametrize("command", ["run", "verify", "probe"])
def test_probe_overflow_is_solver_failure(tmp_path, capsys, command, payoff):
    payload = {"mode": "gexp_probe",
               "problem": {"n_steps": 4, "sigma_low_sq": 1.0, "sigma_high_sq": 1.7e308,
                           "payoff": {"name": payoff}}}
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert cli.main([command, str(cfg), "--output-dir", str(out)]) == 3
    report = json.loads((out / "report.json").read_text())
    assert report["diagnostics"]["solver_error"] == (
        "InvalidParameterError: functional values must be finite"
    )
    assert report["overall_pass"] is False
    assert not (out / "trace.csv").exists()
    assert "solver error: InvalidParameterError" in capsys.readouterr().out


def test_every_command_runs_in_one_process(tmp_path, capsys):
    payload = json.loads(json.dumps(CRITERION8))
    payload["problem"].update(n_steps=4, payoff={"name": "square"})
    cfg = write_config(tmp_path, payload)
    for command in ("run", "probe", "verify", "list"):
        out = tmp_path / command
        args = [command] if command == "list" else [command, str(cfg), "--output-dir", str(out)]
        assert cli.main(args) == 0, command
        printed = capsys.readouterr().out
        if command == "list":
            assert printed.splitlines()[0] == f"{next(iter(registry.REGISTRIES))}:"
            assert "  square" in printed.splitlines()
            continue
        first = "value_finite" if command == "probe" else "loss_spotcheck_violations"
        assert printed.startswith(f"PASS {first}: ")
        assert printed.endswith(f"overall: PASS (report: {out / 'report.json'})\n")
        report = json.loads((out / "report.json").read_text())
        assert report["mode"] == ("gexp_probe" if command == "probe" else "full_sde")
        assert (out / "trace.csv").exists() == (command != "verify")
    # one parser serves every call
    assert cli.build_parser() is cli.build_parser()


def test_probe_builds_no_lattice(tmp_path, monkeypatch):
    def refuse(band, grid):
        raise AssertionError("a probe run built a lattice")

    monkeypatch.setattr(runner, "build_lattice", refuse)
    payload = {"mode": "gexp_probe", "problem": {"n_steps": 10, "payoff": {"name": "square"}}}
    cfg = write_config(tmp_path, payload)
    assert cli.main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "trace.csv").read_text().startswith("payoff,value\nsquare,")


@pytest.mark.parametrize("csv, report, output_dir", [
    ("a/same.json", "b/same.json", True),
    ("same.json", "same.json", False),
    ("same.json", "./sub/../same.json", False),
], ids=["output_dir", "equal", "normalised"])
@pytest.mark.parametrize("command", ["run", "probe"])
def test_csv_and_report_on_one_path_is_config_error(tmp_path, monkeypatch, capsys,
                                                    command, csv, report, output_dir):
    payload = json.loads(json.dumps(CRITERION8))
    payload["problem"].update(n_steps=4, payoff={"name": "square"})
    payload["outputs"] = {"csv": csv, "report": report}
    cfg = write_config(tmp_path, payload)
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    args = [command, str(cfg)] + (["--output-dir", str(work / "out")] if output_dir else [])
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: outputs.report: ")
    assert "is also the outputs.csv path" in err
    assert list(work.iterdir()) == []


@pytest.mark.parametrize("csv, report, existing", [
    ("trace.csv", "trace.csv/r.json", ()),
    ("trace.csv", "trace.csv/r.json", ("trace.csv",)),
    ("out/trace.csv", "out", ()),
    ("trace.csv", "blocker/r.json", ("blocker",)),
    ("blocker/trace.csv", "report.json", ("blocker",)),
    ("trace.csv", "r\0.json", ()),
], ids=["report_under_csv", "report_under_old_csv", "csv_under_report", "report_under_file",
        "csv_under_file", "report_null_byte"])
@pytest.mark.parametrize("command", ["run", "probe"])
def test_unwritable_output_writes_nothing(tmp_path, monkeypatch, capsys, command, csv, report,
                                          existing):
    payload = {"problem": {"n_steps": 4, "payoff": {"name": "square"}},
               "outputs": {"csv": csv, "report": report}}
    cfg = write_config(tmp_path, payload)
    work = tmp_path / "work"
    work.mkdir()
    for name in existing:
        (work / name).write_text("kept\n")
    monkeypatch.chdir(work)
    assert cli.main([command, str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("config error: outputs.")
    assert sorted(p.name for p in work.iterdir()) == sorted(existing)
    assert all((work / name).read_text() == "kept\n" for name in existing)


def _linear_loss_with(fn):
    """A ``linear`` loss family whose values are ``fn(x, values)``; it agrees
    with the linear loss on its spot-check box, so only the solve sees fn."""

    linear = registry.LOSSES["linear"]

    def family(c0=0.0, c1=1.0, horizon=1.0):
        spec = linear(c0, c1, horizon)
        return dataclasses.replace(spec, fn=lambda t, x: fn(x, spec.fn(t, x)))

    return family


# at n_steps 9 on the default band, only the last leaf block (paths that
# start with a high-volatility down step) holds points below this
LAST_BLOCK_ONLY = -5.8


@pytest.mark.parametrize("fn, error", [
    (lambda x, v: np.where(x < LAST_BLOCK_ONLY, np.inf, v),
     "InvalidParameterError: functional values must be finite"),
    (lambda x, v: v[:-1] if x.min() < LAST_BLOCK_ONLY else v,
     "DepthMismatchError: loss at depth 9 returned shape"),
], ids=["non_finite", "wrong_shape"])
def test_bad_loss_values_in_last_block_are_solver_failure(tmp_path, monkeypatch, fn, error):
    monkeypatch.setitem(registry.LOSSES, "linear", _linear_loss_with(fn))
    payload = {"mode": "sp_only", "problem": {"n_steps": 9}}
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--output-dir", str(out)]) == 3
    report = json.loads((out / "report.json").read_text())
    assert report["diagnostics"]["solver_error"].startswith(error)
    assert not (out / "trace.csv").exists()


def test_verify_may_put_report_on_the_csv_path(tmp_path, monkeypatch):
    payload = json.loads(json.dumps(CRITERION8))
    payload["problem"]["n_steps"] = 4
    payload["outputs"] = {"csv": "same.json", "report": "same.json"}
    cfg = write_config(tmp_path, payload)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["verify", str(cfg)]) == 0
    assert json.loads((tmp_path / "same.json").read_text())["overall_pass"] is True


def _small_run(tmp_path):
    payload = json.loads(json.dumps(CRITERION8))
    payload["problem"]["n_steps"] = 4
    cfg = write_config(tmp_path, payload)

    def run(out):
        return cli.main(["run", str(cfg), "--output-dir", str(out)])

    fresh = tmp_path / "fresh"
    assert run(fresh) == 0
    return run, {name: (fresh / name).read_bytes() for name in ("trace.csv", "report.json")}


def _plant_stale(out, size=100_000):
    out.mkdir()
    inodes = {}
    for name in ("trace.csv", "report.json"):
        (out / name).write_bytes(b"#" * size)
        inodes[name] = (out / name).stat().st_ino
    return inodes


def test_rewrite_over_longer_stale_outputs(tmp_path):
    run, fresh = _small_run(tmp_path)
    out = tmp_path / "stale"
    inodes = _plant_stale(out)
    assert all(len(data) < 100_000 for data in fresh.values())
    assert run(out) == 0
    for name, data in fresh.items():
        assert (out / name).read_bytes() == data
        assert (out / name).stat().st_ino == inodes[name]
    # a second rewrite of equal length keeps the bytes as well
    assert run(out) == 0
    assert all((out / name).read_bytes() == data for name, data in fresh.items())


def test_short_writes_write_every_byte(tmp_path, monkeypatch):
    run, fresh = _small_run(tmp_path)
    out = tmp_path / "stale"
    _plant_stale(out, size=50)
    write, calls = runner.os.write, []

    def write_seven(fd, data):
        calls.append(fd)
        return write(fd, data[:7])

    monkeypatch.setattr(runner.os, "write", write_seven)
    assert run(out) == 0
    monkeypatch.undo()
    assert len(calls) >= sum(-(-len(data) // 7) for data in fresh.values())
    assert all((out / name).read_bytes() == data for name, data in fresh.items())


def test_missing_nested_output_dir_is_created(tmp_path):
    run, fresh = _small_run(tmp_path)
    out = tmp_path / "a" / "b" / "c"
    assert run(out) == 0
    assert all((out / name).read_bytes() == data for name, data in fresh.items())


@pytest.mark.skipif(not os.access("/dev", os.W_OK | os.X_OK), reason="/dev is not writable")
def test_output_to_a_device_is_written(tmp_path):
    # /dev/null takes writes but cannot be truncated
    cfg = write_config(tmp_path, {"problem": {"n_steps": 3},
                                  "outputs": {"csv": os.devnull,
                                              "report": str(tmp_path / "report.json")}})
    assert cli.main(["run", str(cfg)]) == 0
    assert json.loads((tmp_path / "report.json").read_text())["overall_pass"] is True


def test_outputs_sharing_a_name_prefix_are_apart(tmp_path, monkeypatch):
    # "trace" is no ancestor of "trace.d/r.json"
    cfg = write_config(tmp_path, {"problem": {"n_steps": 3},
                                  "outputs": {"csv": "trace", "report": "trace.d/r.json"}})
    monkeypatch.chdir(tmp_path)
    assert cli.main(["run", str(cfg)]) == 0
    assert (tmp_path / "trace").read_text().startswith(runner.CSV_HEADER)
    assert (tmp_path / "trace.d" / "r.json").is_file()


@pytest.mark.parametrize("command", ["run", "verify"])
def test_read_only_report_writes_nothing(tmp_path, monkeypatch, capsys, command):
    # runs as any user: os.access is what the check asks
    out = tmp_path / "out"
    out.mkdir()
    report = out / "report.json"
    report.write_text("kept\n")
    access = runner.os.access

    def read_only_report(path, mode):
        return access(path, mode) and not (path == str(report) and mode & os.W_OK)

    monkeypatch.setattr(runner.os, "access", read_only_report)
    cfg = write_config(tmp_path, {"problem": {"n_steps": 3}})
    assert cli.main([command, str(cfg), "--output-dir", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: outputs.report: cannot write {report}: {report} is not writable\n")
    assert sorted(p.name for p in out.iterdir()) == ["report.json"]
    assert report.read_text() == "kept\n"


@pytest.mark.skipif(os.geteuid() == 0, reason="file modes do not bind the superuser")
def test_chmod_read_only_report_writes_nothing(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    report = out / "report.json"
    report.write_text("kept\n")
    report.chmod(0o444)
    cfg = write_config(tmp_path, {"problem": {"n_steps": 3}})
    assert cli.main(["run", str(cfg), "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: outputs.report: ")
    assert err.endswith(f"{report} is not writable\n")
    assert sorted(p.name for p in out.iterdir()) == ["report.json"]


# the console contract past the golden configs: more leaf blocks, Picard's
# Howard roots, a barrier that goes slack over three subintervals, A at 1e5
# and a solver tol of 1e-6 in both solving modes, and the probe kernel's
# high and low branches (E[B_T^2] = 4 T, E[-B_T^2] = -0.7 T) at the cap
CONSOLE = {
    "full_sde_n9": {"mode": "full_sde", "problem": {
        "n_steps": 9, **OU, "loss": {"name": "linear", "params": {"c0": 0.0, "c1": 1.0}}}},
    "full_sde_smooth_sin_n9": {"mode": "full_sde",
                               "problem": {"n_steps": 9, **OU, "loss": {"name": "smooth_sin"}}},
    "falling_barrier_n9": {"mode": "full_sde", "problem": {
        "x0": 1.0, "n_steps": 9, "b": {"name": "ou_drift", "params": {"theta": 1.5}},
        "sigma": OU["sigma"], "loss": {"name": "linear", "params": {"c0": 1.0, "c1": -1.0}}}},
    **{f"large_compensator_{mode}": {"mode": mode, "solver": {"delta_initial_steps": 2}, "problem": {
        "n_steps": 8, "b": {"name": "constant_drift", "params": {"c": -1e5}},
        "loss": {"name": "linear", "params": {"c0": 0.0, "c1": 0.0}}}}
       for mode in ("full_sde", "sp_only")},
    **{f"tol_1e-6_{mode}": {**BINDING6, "mode": mode, "solver": {"tol": 1e-6}}
       for mode in ("full_sde", "sp_only")},
    "sp_only_smooth_sin_n10": {"mode": "sp_only",
                               "problem": {"n_steps": 10, **OU, "loss": {"name": "smooth_sin"}}},
    **{f"probe_{payoff}_n10": {"mode": "gexp_probe", "problem": {
        "n_steps": 10, "sigma_low_sq": low, "sigma_high_sq": 4.0, "horizon": 1.0,
        "payoff": {"name": payoff}}} for payoff, low in (("square", 1.0), ("neg_square", 0.7))},
}
PROBE_VALUES = {"probe_square_n10": 4.0, "probe_neg_square_n10": -0.7}
# S alone is 10.7 MiB; a whole X would add another 10.7
PEAK_BYTES = {"sp_only_smooth_sin_n10": 14 * 2**20}


@pytest.mark.parametrize("name", sorted(CONSOLE))
def test_console_runs_and_verifies_byte_for_byte(tmp_path, capsys, name):
    # a fresh interpreter that makes any RuntimeWarning an error runs the
    # config; a traced second run (a probe for a probe config) writes the
    # same bytes, and verify the same report and no CSV
    cfg = write_config(tmp_path, CONSOLE[name])
    proc = run_cli(["run", str(cfg), "--output-dir", "first"], cwd=tmp_path,
                   env_extra={"PYTHONWARNINGS": "error::RuntimeWarning"})
    assert (proc.returncode, proc.stderr) == (0, "")
    again = "probe" if name in PROBE_VALUES else "run"
    tracemalloc.start()
    try:
        assert cli.main([again, str(cfg), "--output-dir", str(tmp_path / "again")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= PEAK_BYTES.get(name, math.inf)
    assert cli.main(["verify", str(cfg), "--output-dir", str(tmp_path / "verify")]) == 0
    assert capsys.readouterr().err == ""
    first = {f: (tmp_path / "first" / f).read_bytes() for f in ("trace.csv", "report.json")}
    assert (tmp_path / "again" / "trace.csv").read_bytes() == first["trace.csv"]
    for out in ("again", "verify"):
        assert (tmp_path / out / "report.json").read_bytes() == first["report.json"]
    assert not (tmp_path / "verify" / "trace.csv").exists()
    if name in PROBE_VALUES:
        value = float(first["trace.csv"].decode().splitlines()[1].split(",")[1])
        assert math.isclose(value, PROBE_VALUES[name], rel_tol=1e-12, abs_tol=0.0)
    else:
        checks = {c["name"]: c["measured"] for c in json.loads(first["report.json"])["checks"]}
        assert checks["identity_residual"] == 0.0


PATH_TEXT = st.text(alphabet="/.ab", max_size=8)


@settings(max_examples=300, deadline=None)
@given(configured=PATH_TEXT, base=st.one_of(st.none(), PATH_TEXT.filter(bool)))
def test_resolved_paths_print_as_pathlib_prints_them(configured, base):
    name = Path(configured).name
    directory = base or os.environ.get(runner.ENV_OUTPUT_DIR)
    reference = Path(directory) / name if directory else Path(configured)
    assert runner._resolve_path(configured, base) == (str(reference), name)
    assert runner._pure_path(configured) == (str(Path(configured)), name)


# every section and field set, so each field path can be mutated
FUZZ_BASE = {
    "mode": "full_sde",
    "problem": {
        "x0": 0.0, "horizon": 1.0, "n_steps": 4, "sigma_low_sq": 1.0, "sigma_high_sq": 4.0,
        "p": 2.0,
        "b": {"name": "ou_drift", "params": {"theta": 0.5, "mu": 0.0}},
        "h": {"name": "constant_drift", "params": {"c": 0.1}},
        "sigma": {"name": "linear_sigma", "params": {"a": 1.0, "b": 0.1, "cap": 10.0}},
        "loss": {"name": "linear", "params": {"c0": 0.0, "c1": 1.0},
                 "c_l": None, "C_l": None, "kappa_growth": None},
        "payoff": {"name": "call", "params": {"strike": 0.5}},
    },
    "solver": {"tol": 1e-10, "delta_initial_steps": None, "initial_guess": None},
    "outputs": {"csv": "trace.csv", "report": "report.json"},
}


def _field_paths(node, prefix=()):
    for key, value in node.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _field_paths(value, prefix + (key,))


# a null or partial problem section would fall back to the default n_steps 8
FUZZ_PATHS = [path for path in _field_paths(FUZZ_BASE) if path != ("problem",)]

FUZZ_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([10**400, -(10**400), 2**64, float("nan"), float("inf"),
                     float("-inf"), 1e308, -1e308]),
    st.text(max_size=4),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


@pytest.mark.parametrize("command", ["run", "verify", "probe"])
@settings(max_examples=100, deadline=None)
@given(path=st.sampled_from(FUZZ_PATHS), value=FUZZ_VALUES)
def test_mutated_config_maps_to_exit_code(command, path, value):
    payload = copy.deepcopy(FUZZ_BASE)
    *parents, key = path
    section = payload
    for part in parents:
        section = section[part]
    section[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(Path(tmp), payload)
        code = cli.main([command, str(cfg), "--output-dir", str(Path(tmp) / "out")])
    assert code in {0, 1, 2, 3}
