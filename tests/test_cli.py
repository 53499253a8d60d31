import copy
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import meanreflect
from conftest import child_env
from meanreflect import cli

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


def test_exit_code_3_on_solver_failure(tmp_path):
    payload = json.loads(json.dumps(CRITERION8))
    payload["problem"]["b"] = {"name": "ou_drift", "params": {"theta": 0.5}}
    payload["solver"] = {"max_iter": 1}
    cfg = write_config(tmp_path, payload)
    proc = run_cli(["run", str(cfg)], cwd=tmp_path)
    assert proc.returncode == 3, proc.stderr
    report = json.loads((tmp_path / "report.json").read_text())
    assert "solver_error" in report["diagnostics"]


def test_list_command(tmp_path):
    proc = run_cli(["list"], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "linear" in proc.stdout
    assert "coefficients:" in proc.stdout
    losses_block = proc.stdout.split("losses:")[1].split("payoffs:")[0]
    names = [line.strip() for line in losses_block.strip().splitlines()]
    assert names == sorted(names)


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
    assert "E_absX_p" in capsys.readouterr().out


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
    "solver": {"tol": 1e-10, "max_iter": 60, "contraction_guard": 0.5,
               "delta_initial_steps": None, "delta_min_steps": 1, "initial_guess": None},
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


@settings(max_examples=100, deadline=None)
@given(path=st.sampled_from(FUZZ_PATHS), value=FUZZ_VALUES)
def test_mutated_config_maps_to_exit_code(path, value):
    payload = copy.deepcopy(FUZZ_BASE)
    *parents, key = path
    section = payload
    for part in parents:
        section = section[part]
    section[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(Path(tmp), payload)
        code = cli.main(["run", str(cfg), "--output-dir", str(Path(tmp) / "out")])
    assert code in {0, 1, 2, 3}
