import dataclasses
import itertools
import math

import numpy as np
import pytest

from meanreflect import InvalidParameterError, LossSpec, validate_loss
from meanreflect.loss import _SPOT_RTOL, _adjacent_certified, require_valid_loss
from meanreflect.errors import ValidationError
from meanreflect.registry import make_loss
from oracles import ref_loss_violations


def test_constructor_rejects_bad_constants():
    with pytest.raises(InvalidParameterError):
        LossSpec(fn=lambda t, x: x, c_l=2.0, C_l=1.0,
                 time_modulus=lambda d: 0.0, kappa_growth=1.0)
    with pytest.raises(InvalidParameterError):
        LossSpec(fn=lambda t, x: x, c_l=1.0, C_l=1.0,
                 time_modulus=lambda d: 0.0, kappa_growth=0.0)


# 100 x above 0 and x / 100 below, declared c_l = C_l = 1, and a time term
# that no modulus F = 0 allows: the default boxes show both violations
KINKED = LossSpec(fn=lambda t, x: np.where(x > 0.0, 100.0 * x, 0.01 * x) + t, c_l=1.0,
                  C_l=1.0, time_modulus=lambda d: 0.0, kappa_growth=200.0)


def test_kinked_loss_fails_on_the_default_boxes():
    assert validate_loss(KINKED).violations == (
        "lower Lipschitz bound c_l=1.0 violated at t=0", "time modulus F violated on the sample")


@pytest.mark.parametrize("field, value", [
    ("x_box", (math.nan, 1.0)), ("x_box", (-math.inf, 1.0)), ("x_box", (-1.0, math.inf)),
    ("x_box", (1.0, 1.0)), ("x_box", (-1.0, 0.0, 1.0)),
    ("t_box", math.nan), ("t_box", math.inf), ("t_box", -1.0),
    ("C_l", math.inf), ("kappa_growth", math.inf), ("kappa_growth", math.nan),
])
def test_constructor_rejects_boxes_and_constants_that_hide_violations(field, value):
    with pytest.raises(InvalidParameterError, match=field):
        dataclasses.replace(KINKED, **{field: value})


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


@pytest.mark.parametrize("modulus, violations", [
    (lambda d: d + 0.5, ("time modulus F(0)=0.5, expected 0",)),
    (lambda d: d * (1.0 - d), ("time modulus F is not nondecreasing on the sample",)),
    # F(0) = 0 and nondecreasing would make F >= 0, so a negative F breaks
    # one of those rules as well, and the pair check with it
    (lambda d: -d, ("time modulus F is not nondecreasing on the sample",
                    "time modulus F takes negative values",
                    "time modulus F violated on the sample")),
], ids=["F0_positive", "F_decreasing", "F_negative"])
def test_time_modulus_rules_name_the_broken_one(modulus, violations):
    # l = x does not move with t, so only the rules on F itself can fail
    loss = LossSpec(fn=lambda t, x: x, c_l=1.0, C_l=1.0, time_modulus=modulus,
                    kappa_growth=1.0)
    assert validate_loss(loss).violations == violations
    assert ref_loss_violations(loss, _SPOT_RTOL) == violations


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


def _certified(loss):
    """Whether the O(n) certificate holds at every sample time, so that
    ``validate_loss`` builds no pair matrix."""
    ts = np.linspace(0.0, loss.t_box, 50)
    xs = np.linspace(loss.x_box[0], loss.x_box[1], 200)
    lv_by_t = np.stack([loss(float(t), xs) for t in ts])
    return bool(_adjacent_certified(xs, lv_by_t, loss.c_l, loss.C_l).all())


REGISTRY_GRID = [
    *(("linear", {"c0": c0, "c1": c1, "horizon": h})
      for c0, c1, h in itertools.product((-1.0, 0.0, 0.3), (0.0, 0.5, 1.5), (0.5, 1.0))),
    *(("arctan_shift", {"c": c}) for c in (-5.0, 0.0, 2.5, 5.0)),
    *(("smooth_sin", {"c0": c0, "c1": c1, "horizon": h})
      for c0, c1, h in itertools.product((-1.0, 0.0, 0.3), (0.0, 0.5, 1.5), (0.5, 1.0))),
]


@pytest.mark.parametrize("name, params", REGISTRY_GRID,
                         ids=[f"{n}-{'-'.join(map(str, p.values()))}" for n, p in REGISTRY_GRID])
def test_registry_losses_take_the_certified_path(name, params):
    loss = make_loss(name, params)
    assert _certified(loss)
    assert validate_loss(loss).violations == ref_loss_violations(loss, _SPOT_RTOL) == ()


# the smallest and largest slope of each registry loss on its box [-5, 5]
TRUE_SLOPES = {
    "linear": (1.0, 1.0),
    "arctan_shift": (2.0 + 1.0 / 26.0, 3.0),
    "smooth_sin": (0.9, 1.1),
}
MOVES = (-1e-6, -1e-10, 0.0, 1e-10, 1e-6)


def _sampled_slopes(loss):
    """The smallest and largest slope between adjacent samples."""
    ts = np.linspace(0.0, loss.t_box, 50)
    xs = np.linspace(loss.x_box[0], loss.x_box[1], 200)
    slopes = np.diff(np.stack([loss(float(t), xs) for t in ts]), axis=1) / np.diff(xs)
    return float(slopes.min()), float(slopes.max())


@pytest.mark.parametrize("name", sorted(TRUE_SLOPES))
def test_band_moved_near_the_slope_bounds_gives_the_all_pairs_verdict(name):
    seen = set()
    for low, high in (TRUE_SLOPES[name], _sampled_slopes(make_loss(name))):
        for move_low, move_high in itertools.product(MOVES, MOVES):
            c_l, C_l = low * (1.0 + move_low), high * (1.0 + move_high)
            if c_l > C_l:
                continue
            loss = dataclasses.replace(make_loss(name), c_l=c_l, C_l=C_l)
            violations = validate_loss(loss).violations
            assert violations == ref_loss_violations(loss, _SPOT_RTOL)
            seen.add((violations == (), _certified(loss)))
    # a band 1e-6 inside the sampled slopes is violated; 1e-10 inside is
    # within the slack but beyond the certificate's margin
    assert seen == {(True, True), (True, False), (False, False)}


def test_golden_spotcheck_config_gives_the_all_pairs_verdict():
    loss = dataclasses.replace(make_loss("linear", {"c0": 0.0, "c1": 1.0}), c_l=5.0, C_l=5.0)
    assert not _certified(loss)
    assert validate_loss(loss).violations == ref_loss_violations(loss, _SPOT_RTOL) == (
        "lower Lipschitz bound c_l=5.0 violated at t=0",)


@pytest.mark.parametrize("scale, violations", [
    (1e6, ()),
    (-1e6, ("l(t=0, .) is not strictly increasing on the sample",)),
], ids=["band_holds", "decreasing"])
def test_large_values_fall_back_to_the_all_pairs_check(scale, violations):
    # |l| near 5e6 leaves rounding errors beyond the certificate's margin
    loss = LossSpec(fn=lambda t, x: scale * x, c_l=1e6, C_l=1e6,
                    time_modulus=lambda d: 0.0, kappa_growth=1e6)
    assert not _certified(loss)
    assert validate_loss(loss).violations == ref_loss_violations(loss, _SPOT_RTOL) == violations


def test_non_finite_loss_values_fail_the_certificate():
    loss = LossSpec(fn=lambda t, x: np.where(x > 4.9, np.nan, x), c_l=1.0, C_l=1.0,
                    time_modulus=lambda d: 0.0, kappa_growth=10.0)
    assert not _certified(loss)
    assert validate_loss(loss).violations == ref_loss_violations(loss, _SPOT_RTOL)


def test_time_modulus_is_called_once_per_unordered_pair():
    calls = []

    def modulus(d):
        calls.append(d)
        return d

    validate_loss(LossSpec(fn=lambda t, x: x - t, c_l=1.0, C_l=1.0, time_modulus=modulus,
                           kappa_growth=6.0))
    # F(0), the 25 monotonicity samples, then 50 * 51 / 2 pairs
    assert len(calls) == 1 + 25 + 50 * 51 // 2
    assert math.isclose(max(calls), 1.0)


@pytest.mark.parametrize("name, params", REGISTRY_GRID,
                         ids=[f"{n}-{'-'.join(map(str, p.values()))}" for n, p in REGISTRY_GRID])
def test_halved_time_modulus_gives_the_all_pairs_verdict(name, params):
    made = make_loss(name, params)
    loss = dataclasses.replace(made, time_modulus=lambda d: 0.5 * made.time_modulus(d))
    violations = validate_loss(loss).violations
    assert violations == ref_loss_violations(loss, _SPOT_RTOL)
    # a loss that moves with t breaks the halved modulus
    assert violations == (("time modulus F violated on the sample",)
                          if name != "arctan_shift" and params["c1"] else ())


def test_modulus_broken_only_on_the_farthest_pair():
    # the sample times are k/49 apart; F(d) = d holds every pair of l = x - t
    # up to 48/49, and F = 0.99 beyond that fails only t_0 and t_49 = 1
    loss = LossSpec(fn=lambda t, x: x - t, c_l=1.0, C_l=1.0,
                    time_modulus=lambda d: min(d, 0.99), kappa_growth=6.0)
    assert validate_loss(loss).violations == ref_loss_violations(loss, _SPOT_RTOL) == (
        "time modulus F violated on the sample",)
    near = dataclasses.replace(loss, t_box=48.0 / 49.0)
    assert validate_loss(near).violations == ref_loss_violations(near, _SPOT_RTOL) == ()
