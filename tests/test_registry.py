import numpy as np
import pytest

from meanreflect import make_coefficient, make_loss, make_payoff, registry_list
from meanreflect.errors import ConfigError
from meanreflect.registry import COEFFICIENTS, LOSSES, PAYOFFS, accepted_params

# every family with its parameters spelled out at their default values
DEFAULTS = {
    "coefficient": (make_coefficient, COEFFICIENTS, {
        "zero": {},
        "constant_drift": {"c": 1.0},
        "ou_drift": {"theta": 1.0, "mu": 0.0},
        "constant_sigma": {"a": 1.0},
        "linear_sigma": {"a": 1.0, "b": 0.1, "cap": 2.0},
    }),
    "loss": (make_loss, LOSSES, {
        "linear": {"c0": 0.0, "c1": 1.0, "horizon": 1.0},
        "arctan_shift": {"c": 5.0},
        "smooth_sin": {"c0": 0.0, "c1": 1.0, "horizon": 1.0},
    }),
    "payoff": (make_payoff, PAYOFFS, {
        "identity": {},
        "square": {},
        "neg_square": {},
        "abs": {},
        "call": {"strike": 0.0},
    }),
}
FAMILIES = [(kind, name) for kind, (_, _, families) in DEFAULTS.items() for name in families]
XS = np.linspace(-6.0, 6.0, 49)
TS = np.linspace(0.0, 2.0, 5)


def _observed(kind, made):
    """What a family's object does on a grid, with its declared constants."""
    if kind == "payoff":
        return made.name, made.fn(XS).tolist()
    values = [made.fn(float(t), XS).tolist() for t in TS]
    if kind == "coefficient":
        return made.name, values, made.lipschitz
    constants = (made.c_l, made.C_l, made.kappa_growth, made.smooth, made.x_box, made.t_box)
    return made.name, values, constants, [made.time_modulus(float(d)) for d in TS]


def test_every_family_is_pinned():
    for _, table, families in DEFAULTS.values():
        assert list(table) == list(families)


@pytest.mark.parametrize("kind, name", FAMILIES)
def test_accepted_parameters_are_pinned(kind, name):
    make, table, families = DEFAULTS[kind]
    with pytest.raises(ConfigError) as info:
        make(name, {"zz_unknown": 1.0})
    assert str(info.value) == (
        f"{kind} '{name}' got unknown parameter(s) ['zz_unknown']; "
        f"accepted: {sorted(families[name])}"
    )
    assert accepted_params(table, name) == families[name]


@pytest.mark.parametrize("kind, name", FAMILIES)
def test_defaults_equal_explicit_parameters(kind, name):
    make, _, families = DEFAULTS[kind]
    assert _observed(kind, make(name)) == _observed(kind, make(name, families[name]))
    assert make(name).name == name


def test_list_contains_required_names():
    names = registry_list()
    for required in ("zero", "constant_drift", "ou_drift", "constant_sigma",
                     "linear_sigma", "linear", "arctan_shift", "smooth_sin"):
        assert required in names


def test_list_is_sorted():
    names = registry_list()
    assert names == sorted(names)


def test_every_name_loads_with_defaults():
    for name in COEFFICIENTS:
        term = make_coefficient(name)
        out = term.fn(0.0, np.linspace(-1, 1, 5))
        assert out.shape == (5,)
    for name in LOSSES:
        loss = make_loss(name)
        assert loss(0.0, np.zeros(3)).shape == (3,)
    for name in PAYOFFS:
        payoff = make_payoff(name)
        assert payoff.fn(np.zeros(3)).shape == (3,)


def test_unknown_names_list_alternatives():
    with pytest.raises(ConfigError, match="arctan_shift"):
        make_loss("quadratic-x")
    with pytest.raises(ConfigError, match="ou_drift"):
        make_coefficient("nope")
    with pytest.raises(ConfigError, match="square"):
        make_payoff("nope")


def test_unknown_parameters_rejected():
    with pytest.raises(ConfigError, match="theta"):
        make_coefficient("ou_drift", {"thета_typo": 1.0})
    with pytest.raises(ConfigError, match="accepted"):
        make_loss("linear", {"slope": 2.0})


def test_ou_drift_values():
    term = make_coefficient("ou_drift", {"theta": 2.0, "mu": 1.0})
    assert np.allclose(term.fn(0.0, np.array([0.0, 1.0, 3.0])), [2.0, 0.0, -4.0])
    assert term.lipschitz == 2.0


def test_linear_sigma_clipped():
    term = make_coefficient("linear_sigma", {"a": 1.0, "b": 0.5, "cap": 1.5})
    out = term.fn(0.0, np.array([0.0, 1.0, 10.0]))
    assert np.allclose(out, [1.0, 1.5, 1.5])


def test_call_payoff_strike():
    payoff = make_payoff("call", {"strike": 0.5})
    assert np.allclose(payoff.fn(np.array([0.0, 1.0])), [0.0, 0.5])
