import numpy as np
import pytest

from meanreflect import InvalidParameterError, LossSpec, validate_loss
from meanreflect.loss import require_valid_loss
from meanreflect.errors import ValidationError
from meanreflect.registry import make_loss


def test_constructor_rejects_bad_constants():
    with pytest.raises(InvalidParameterError):
        LossSpec(fn=lambda t, x: x, c_l=2.0, C_l=1.0,
                 time_modulus=lambda d: 0.0, kappa_growth=1.0)
    with pytest.raises(InvalidParameterError):
        LossSpec(fn=lambda t, x: x, c_l=1.0, C_l=1.0,
                 time_modulus=lambda d: 0.0, kappa_growth=0.0)


def test_builtin_losses_pass_validation():
    for name, params in (
        ("linear", {"c0": 0.0, "c1": 1.0}),
        ("arctan_shift", {"c": 0.0}),
        ("smooth_sin", {"c0": 0.0, "c1": 1.0}),
    ):
        assert validate_loss(make_loss(name, params)).ok


def test_wrong_lower_constant_is_caught():
    bad = LossSpec(fn=lambda t, x: x, c_l=5.0, C_l=5.0,
                   time_modulus=lambda d: 0.0, kappa_growth=10.0, name="bad")
    report = validate_loss(bad)
    assert not report.ok
    assert any("c_l" in v for v in report.violations)
    with pytest.raises(ValidationError):
        require_valid_loss(bad)


def test_wrong_upper_constant_is_caught():
    bad = LossSpec(fn=lambda t, x: 3.0 * x, c_l=0.5, C_l=1.0,
                   time_modulus=lambda d: 0.0, kappa_growth=20.0, name="bad")
    report = validate_loss(bad)
    assert any("C_l" in v for v in report.violations)


def test_decreasing_function_is_caught():
    bad = LossSpec(fn=lambda t, x: -x, c_l=0.5, C_l=1.5,
                   time_modulus=lambda d: 0.0, kappa_growth=5.0, name="bad")
    report = validate_loss(bad)
    assert any("increasing" in v for v in report.violations)


def test_missing_time_modulus_is_caught():
    bad = LossSpec(fn=lambda t, x: x - 2.0 * t, c_l=1.0, C_l=1.0,
                   time_modulus=lambda d: 0.5 * d, kappa_growth=5.0, name="bad")
    report = validate_loss(bad)
    assert any("modulus" in v for v in report.violations)


def test_growth_violation_is_caught():
    bad = LossSpec(fn=lambda t, x: 2.0 * x, c_l=1.9, C_l=2.1,
                   time_modulus=lambda d: 0.0, kappa_growth=0.5, name="bad")
    report = validate_loss(bad)
    assert any("growth" in v for v in report.violations)


def test_cubic_with_boxed_constants_validates():
    # x^3 + x: c_l = 1 holds globally, remaining constants only on the box
    cubic = LossSpec(
        fn=lambda t, x: x**3 + x,
        c_l=1.0,
        C_l=13.0,
        time_modulus=lambda d: 0.0,
        kappa_growth=10.0,
        name="cubic",
        x_box=(-2.0, 2.0),
    )
    assert validate_loss(cubic).ok


def test_shifted_loss_keeps_slopes():
    base = make_loss("linear", {"c0": 0.0, "c1": 1.0})
    shifted = base.shifted(0.25)
    xs = np.linspace(-2, 2, 7)
    assert np.allclose(shifted(0.3, xs), base(0.3, xs) + 0.25)
    assert shifted.c_l == base.c_l and shifted.C_l == base.C_l
    assert validate_loss(shifted).ok


@pytest.mark.parametrize("fn,c_l,C_l,modulus,growth,violations", [
    (lambda t, x: x - t, 1.0, 1.0, lambda d: d, 6.0, ()),
    (lambda t, x: x, 5.0, 5.0, lambda d: 0.0, 10.0,
     ("lower Lipschitz bound c_l=5.0 violated at t=0",)),
    (lambda t, x: -x - 2.0 * t, 0.5, 1.5, lambda d: 0.0, 5.0,
     ("l(t=0, .) is not strictly increasing on the sample",
      "time modulus F violated on the sample")),
    (lambda t, x: 2.0 * x - t, 1.9, 2.1, lambda d: 0.5 * d, 0.5,
     ("growth bound kappa=0.5 violated at t=0", "time modulus F violated on the sample")),
], ids=["ok", "lower", "decreasing_and_modulus", "growth_and_modulus"])
def test_validate_loss_evaluates_each_sample_time_once(fn, c_l, C_l, modulus, growth,
                                                       violations):
    calls = []

    def counted(t, x):
        calls.append(t)
        return fn(t, x)

    loss = LossSpec(fn=counted, c_l=c_l, C_l=C_l, time_modulus=modulus, kappa_growth=growth)
    assert validate_loss(loss).violations == violations
    assert len(calls) == 50
    assert calls == sorted(set(calls))
