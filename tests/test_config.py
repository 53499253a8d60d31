import hashlib
import json

import pytest

from meanreflect import ExperimentConfig, VolatilityBand, load_config
from meanreflect.config import ProblemConfig, config_from_dict
from meanreflect.errors import ConfigError


def write(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload) if isinstance(payload, dict) else payload)
    return path


def test_minimal_config_fills_defaults(tmp_path):
    config = load_config(write(tmp_path, {}))
    assert config.mode == "full_sde"
    assert config.solver.tol == 1e-10
    assert config.solver.delta_initial_steps is None
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


def test_built_objects_are_shared_by_validation_and_the_run(monkeypatch, tmp_path):
    from meanreflect import config as config_module, runner

    made = []
    for name in ("make_loss", "make_coefficient", "make_payoff"):
        original = getattr(config_module, name)
        monkeypatch.setattr(config_module, name,
                            lambda *a, _f=original, _n=name: made.append(_n) or _f(*a))
    for mode, payoff in (("sp_only", None), ("gexp_probe", {"name": "square"})):
        made.clear()
        config = load_config(write(tmp_path, {"mode": mode, "problem": {
            "n_steps": 3, "payoff": payoff}}))
        built = (config.band(), config.grid(), config.loss_spec(), config.coefficients())
        assert runner.run_experiment(config, output_dir=str(tmp_path / mode)).exit_code == 0
        assert all(a is b for a, b in zip(built, (config.band(), config.grid(),
                                                   config.loss_spec(), config.coefficients())))
        assert sorted(made) == ["make_coefficient"] * 3 + ["make_loss"] + (
            ["make_payoff"] if payoff else [])


def test_builder_errors_are_raised_on_every_call():
    config = ExperimentConfig(problem=ProblemConfig(sigma_low_sq=4.0, sigma_high_sq=1.0))
    for _ in range(2):
        with pytest.raises(ConfigError, match="problem.sigma_low_sq=4.0"):
            config.band()


def test_parse_error_reports_position(tmp_path):
    with pytest.raises(ConfigError, match="line 1"):
        load_config(write(tmp_path, "{not json"))


def test_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.json")


def test_non_utf8_file_is_config_error(tmp_path):
    path = tmp_path / "config.json"
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(ConfigError, match="cannot read config file .*utf-8"):
        load_config(path)


def test_path_with_null_byte_is_config_error():
    with pytest.raises(ConfigError, match="cannot read config file .*null byte"):
        load_config("a\0b.json")


def test_deep_nesting_is_parse_error(tmp_path):
    with pytest.raises(ConfigError, match="parse error .*nesting too deep"):
        load_config(write(tmp_path, "[" * 100000 + "]" * 100000))


def test_band_inversion_names_both_fields(tmp_path):
    payload = {"problem": {"sigma_low_sq": 4.0, "sigma_high_sq": 1.0}}
    with pytest.raises(ConfigError, match="sigma_low_sq"):
        load_config(write(tmp_path, payload))


def test_equal_band_ends_build_the_classical_band():
    config = config_from_dict({"problem": {"sigma_low_sq": 2.0, "sigma_high_sq": 2.0}})
    assert config.band() == VolatilityBand(2.0, 2.0)


def test_constant_coefficients_take_kappa_zero():
    assert config_from_dict({}).coefficients().kappa == 0.0


def test_kappa_sum_that_overflows_is_config_error(tmp_path):
    # two finite constants whose sum is not: no Lipschitz constant is declared
    drift = {"name": "ou_drift", "params": {"theta": 1e308}}
    with pytest.raises(ConfigError, match="problem.b/problem.h/problem.sigma: kappa"):
        load_config(write(tmp_path, {"problem": {"b": drift, "h": drift}}))


def test_unknown_loss_lists_available(tmp_path):
    payload = {"problem": {"loss": {"name": "quadratic-x"}}}
    with pytest.raises(ConfigError, match="arctan_shift, linear, smooth_sin"):
        load_config(write(tmp_path, payload))


@pytest.mark.parametrize("problem, path, detail", [
    ({"b": {"name": "ou_drift", "params": {"theta": "fast"}}},
     "problem.b", "coefficient 'ou_drift' parameter 'theta' must be"),
    ({"h": {"name": "nope"}}, "problem.h", "unknown coefficient 'nope'"),
    ({"sigma": {"name": "linear_sigma", "params": {"b": -1.0}}},
     "problem.sigma", "linear_sigma needs b >= 0"),
    ({"loss": {"name": "linear", "params": {"c9": 1.0}}},
     "problem.loss", "loss 'linear' got unknown parameter(s) ['c9']"),
    ({"payoff": {"name": "nope"}}, "problem.payoff", "unknown payoff 'nope'; available: abs"),
])
def test_registry_errors_name_the_config_field(tmp_path, problem, path, detail):
    with pytest.raises(ConfigError) as info:
        load_config(write(tmp_path, {"problem": problem}))
    assert str(info.value).startswith(f"{path}: ")
    assert detail in str(info.value)


def test_unknown_field_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown field"):
        load_config(write(tmp_path, {"problems": {}}))
    with pytest.raises(ConfigError, match="unknown field"):
        load_config(write(tmp_path, {"problem": {"steps": 4}}))


def test_step_cap_enforced(tmp_path):
    with pytest.raises(ConfigError, match="n_steps"):
        load_config(write(tmp_path, {"problem": {"n_steps": 11}}))


@pytest.mark.parametrize("field, value", [("horizon", 0.0), ("horizon", -1.0), ("p", 0.5)],
                         ids=["horizon_zero", "horizon_negative", "p_below_one"])
def test_problem_bounds_exit_2_naming_the_field(tmp_path, capsys, field, value):
    from meanreflect import cli

    cfg = write(tmp_path, {"problem": {field: value}})
    assert cli.main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: problem.{field}") and f"got {value}" in err, err
    assert not (tmp_path / "out").exists()


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
    with pytest.raises(ConfigError, match="delta_initial_steps"):
        load_config(write(tmp_path, {"solver": {"delta_initial_steps": 0}}))


@pytest.mark.parametrize("field, value", [
    ("max_iter", 60), ("contraction_guard", 0.5), ("delta_min_steps", 1),
])
def test_removed_solver_fields_are_unknown(field, value):
    # picard_solve derives its iteration bound and fixes the guard and the
    # minimum subinterval length, so a config that sets them is refused
    with pytest.raises(ConfigError) as raised:
        config_from_dict({"solver": {field: value}})
    assert str(raised.value) == f"solver: unknown field(s) ['{field}']"


@pytest.mark.parametrize("field, raw", [
    ("delta_initial_steps", "true"), ("delta_initial_steps", "1.5"),
    ("tol", "NaN"), ("tol", "Infinity"), ("initial_guess", "NaN"),
])
def test_solver_reader_refuses_what_picard_config_refuses(tmp_path, field, raw):
    # the reader's message, not PicardConfig's ("solver: ..."), reaches the user
    with pytest.raises(ConfigError) as raised:
        load_config(write(tmp_path, f'{{"solver": {{"{field}": {raw}}}}}'))
    assert str(raised.value).startswith(f"solver.{field} must be ")


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


@pytest.mark.parametrize("loss, t_box", [
    ({"name": "linear"}, 2.5),
    ({"name": "smooth_sin"}, 2.5),
    ({"name": "smooth_sin", "params": {"horizon": 1.5}}, 1.5),
    ({"name": "arctan_shift", "params": {"c": 0.0}}, 1.0),
], ids=["linear", "smooth_sin", "explicit", "arctan_shift"])
def test_problem_horizon_reaches_losses_with_a_horizon_parameter(loss, t_box):
    config = config_from_dict({"problem": {"horizon": 2.5, "loss": loss}})
    assert config.loss_spec().t_box == t_box


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
    "solver": {"tol": 1e-9, "delta_initial_steps": 2, "initial_guess": 0.0},
    "outputs": {"csv": "t.csv", "report": "r.json"},
}


def test_canonical_json_is_pinned():
    default = ExperimentConfig().canonical_json()
    assert hashlib.sha256(default.encode()).hexdigest() == (
        "6ddd0bca54382413bd00c22932f818e12688952e2bb6f4dd1be94ad0c986f68c"
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
        '"solver":{"delta_initial_steps":2,"initial_guess":0.0,"tol":1e-09}}'
    )
    assert config_from_dict(config.to_dict()) == config
