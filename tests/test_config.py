import hashlib
import json

import pytest

from meanreflect import ExperimentConfig, load_config
from meanreflect.config import config_from_dict
from meanreflect.errors import ConfigError


def write(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload) if isinstance(payload, dict) else payload)
    return path


def test_minimal_config_fills_defaults(tmp_path):
    config = load_config(write(tmp_path, {}))
    assert config.mode == "full_sde"
    assert config.solver.tol == 1e-10
    assert config.solver.contraction_guard == 0.5
    assert config.problem.p == 2.0
    assert config.problem.loss.name == "linear"
    assert config.outputs.csv == "trace.csv"


def test_round_trip_is_identity():
    default = ExperimentConfig()
    assert config_from_dict(default.to_dict()) == default
    probe = config_from_dict({
        "mode": "gexp_probe",
        "problem": {"payoff": {"name": "square"}},
    })
    assert config_from_dict(probe.to_dict()) == probe


def test_parse_error_reports_position(tmp_path):
    with pytest.raises(ConfigError, match="line 1"):
        load_config(write(tmp_path, "{not json"))


def test_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.json")


def test_band_inversion_names_both_fields(tmp_path):
    payload = {"problem": {"sigma_low_sq": 4.0, "sigma_high_sq": 1.0}}
    with pytest.raises(ConfigError, match="sigma_low_sq"):
        load_config(write(tmp_path, payload))


def test_unknown_loss_lists_available(tmp_path):
    payload = {"problem": {"loss": {"name": "quadratic-x"}}}
    with pytest.raises(ConfigError, match="arctan_shift, linear, smooth_sin"):
        load_config(write(tmp_path, payload))


def test_unknown_field_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown field"):
        load_config(write(tmp_path, {"problems": {}}))
    with pytest.raises(ConfigError, match="unknown field"):
        load_config(write(tmp_path, {"problem": {"steps": 4}}))


def test_step_cap_enforced(tmp_path):
    with pytest.raises(ConfigError, match="n_steps"):
        load_config(write(tmp_path, {"problem": {"n_steps": 11}}))


def test_probe_mode_requires_payoff(tmp_path):
    with pytest.raises(ConfigError, match="payoff"):
        load_config(write(tmp_path, {"mode": "gexp_probe"}))


def test_initial_constraint_checked_eagerly(tmp_path):
    payload = {"problem": {"x0": -1.0, "loss": {"name": "linear", "params": {"c0": 0.0, "c1": 1.0}}}}
    with pytest.raises(ConfigError, match="x0"):
        load_config(write(tmp_path, payload))


def test_solver_knob_validation(tmp_path):
    with pytest.raises(ConfigError, match="tol"):
        load_config(write(tmp_path, {"solver": {"tol": -1.0}}))
    with pytest.raises(ConfigError, match="contraction_guard"):
        load_config(write(tmp_path, {"solver": {"contraction_guard": 1.5}}))


def test_loss_constant_overrides_apply():
    config = config_from_dict({
        "problem": {"loss": {"name": "linear", "c_l": 0.5, "C_l": 2.0}}
    })
    spec = config.loss_spec()
    assert spec.c_l == 0.5 and spec.C_l == 2.0


def test_horizon_propagates_to_loss_growth():
    config = config_from_dict({"problem": {"horizon": 1.0, "n_steps": 4}})
    spec = config.loss_spec()
    assert spec.kappa_growth >= 1.0


def test_mode_must_be_known():
    with pytest.raises(ConfigError, match="mode"):
        config_from_dict({"mode": "banana"})


EVERY_SECTION = {
    "mode": "sp_only",
    "problem": {
        "x0": 0.5, "horizon": 2, "n_steps": 3, "sigma_low_sq": 0.5, "sigma_high_sq": 0.5, "p": 3,
        "b": {"name": "ou_drift", "params": {"theta": 0.5}},
        "h": {"name": "constant_drift", "params": {"c": 0.1}},
        "sigma": {"name": "linear_sigma", "params": {"a": 1.0, "b": 0.1}},
        "loss": {"name": "smooth_sin", "params": {"c0": 0.0}, "c_l": 0.8, "C_l": 1.2,
                 "kappa_growth": 5},
        "payoff": {"name": "call", "params": {"strike": 1}},
    },
    "solver": {"tol": 1e-9, "max_iter": 30, "contraction_guard": 0.6,
               "delta_initial_steps": 2, "delta_min_steps": 1, "initial_guess": 0.0},
    "outputs": {"csv": "t.csv", "report": "r.json"},
}


def test_canonical_json_is_pinned():
    default = ExperimentConfig().canonical_json()
    assert hashlib.sha256(default.encode()).hexdigest() == (
        "b41c6e513b4b3e073f6b6b89572c0e23354e4c738f2e693f455945617f4be0e4"
    )
    config = config_from_dict(EVERY_SECTION)
    assert config.canonical_json() == (
        '{"mode":"sp_only","outputs":{"csv":"t.csv","report":"r.json"},'
        '"problem":{"b":{"name":"ou_drift","params":{"theta":0.5}},'
        '"h":{"name":"constant_drift","params":{"c":0.1}},"horizon":2.0,'
        '"loss":{"C_l":1.2,"c_l":0.8,"kappa_growth":5.0,"name":"smooth_sin",'
        '"params":{"c0":0.0}},"n_steps":3,"p":3.0,'
        '"payoff":{"name":"call","params":{"strike":1}},'
        '"sigma":{"name":"linear_sigma","params":{"a":1.0,"b":0.1}},'
        '"sigma_high_sq":0.5,"sigma_low_sq":0.5,"x0":0.5},'
        '"solver":{"contraction_guard":0.6,"delta_initial_steps":2,"delta_min_steps":1,'
        '"initial_guess":0.0,"max_iter":30,"tol":1e-09}}'
    )
    assert config_from_dict(config.to_dict()) == config
