"""Named coefficient, loss and payoff families for the experiment harness.

Each factory takes a parameter dict (missing entries fall back to documented
defaults) and returns a ready object together with the constants the solvers
need. Unknown parameter keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError
from .loss import LossSpec


@dataclass(frozen=True)
class CoefficientTerm:
    """One named coefficient: the callable plus its Lipschitz constant in x."""

    name: str
    fn: Callable[[float, np.ndarray], np.ndarray]
    lipschitz: float


def finite_float(value) -> float | None:
    """``value`` as a finite float, or None for a boolean, a non-number, or a
    number that is not finite as a float (JSON admits NaN, Infinity and
    integers beyond the float range)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        number = float(value)
    except OverflowError:
        return None
    return number if math.isfinite(number) else None


def _take(params: dict, defaults: dict, kind: str, name: str) -> dict[str, float]:
    """Defaults overridden by ``params``, every value a finite float."""
    params = dict(params or {})
    unknown = set(params) - set(defaults)
    if unknown:
        raise ConfigError(
            f"{kind} '{name}' got unknown parameter(s) {sorted(unknown)}; "
            f"accepted: {sorted(defaults)}"
        )
    merged = dict(defaults)
    merged.update(params)
    for key, value in merged.items():
        number = finite_float(value)
        if number is None:
            raise ConfigError(
                f"{kind} '{name}' parameter '{key}' must be a finite number, got {value!r}"
            )
        merged[key] = number
    return merged


def _coeff_zero(params: dict) -> CoefficientTerm:
    _take(params, {}, "coefficient", "zero")
    return CoefficientTerm("zero", lambda t, x: np.zeros_like(x), 0.0)


def _coeff_constant_drift(params: dict) -> CoefficientTerm:
    p = _take(params, {"c": 1.0}, "coefficient", "constant_drift")
    c = p["c"]
    return CoefficientTerm("constant_drift", lambda t, x: np.full_like(x, c), 0.0)


def _coeff_ou_drift(params: dict) -> CoefficientTerm:
    p = _take(params, {"theta": 1.0, "mu": 0.0}, "coefficient", "ou_drift")
    theta, mu = p["theta"], p["mu"]
    return CoefficientTerm("ou_drift", lambda t, x: theta * (mu - x), abs(theta))


def _coeff_constant_sigma(params: dict) -> CoefficientTerm:
    p = _take(params, {"a": 1.0}, "coefficient", "constant_sigma")
    a = p["a"]
    return CoefficientTerm("constant_sigma", lambda t, x: np.full_like(x, a), 0.0)


def _coeff_linear_sigma(params: dict) -> CoefficientTerm:
    p = _take(params, {"a": 1.0, "b": 0.1, "cap": 2.0}, "coefficient", "linear_sigma")
    a, b, cap = p["a"], p["b"], p["cap"]
    if b < 0.0 or cap < a:
        raise ConfigError(f"linear_sigma needs b >= 0 and cap >= a, got {p}")
    return CoefficientTerm(
        "linear_sigma",
        lambda t, x: np.minimum(a + b * np.abs(x), cap),
        b,
    )


COEFFICIENTS: dict[str, Callable[[dict], CoefficientTerm]] = {
    "zero": _coeff_zero,
    "constant_drift": _coeff_constant_drift,
    "ou_drift": _coeff_ou_drift,
    "constant_sigma": _coeff_constant_sigma,
    "linear_sigma": _coeff_linear_sigma,
}


def _loss_linear(params: dict) -> LossSpec:
    # l(t, x) = x - (c0 + c1 t)
    p = _take(params, {"c0": 0.0, "c1": 1.0, "horizon": 1.0}, "loss", "linear")
    c0, c1, horizon = p["c0"], p["c1"], p["horizon"]
    c_max = abs(c0) + abs(c1) * horizon
    return LossSpec(
        fn=lambda t, x: x - (c0 + c1 * t),
        c_l=1.0,
        C_l=1.0,
        time_modulus=lambda d: abs(c1) * d,
        kappa_growth=max(1.0, c_max),
        smooth=True,
        name="linear",
        t_box=horizon,
    )


def _loss_arctan_shift(params: dict) -> LossSpec:
    # l(t, x) = 2x + arctan(x) - c; slope in [2, 3]
    p = _take(params, {"c": 5.0}, "loss", "arctan_shift")
    c = p["c"]
    return LossSpec(
        fn=lambda t, x: 2.0 * x + np.arctan(x) - c,
        c_l=2.0,
        C_l=3.0,
        time_modulus=lambda d: 0.0,
        kappa_growth=max(3.0, math.pi / 2.0 + abs(c)),
        smooth=True,
        name="arctan_shift",
    )


def _loss_smooth_sin(params: dict) -> LossSpec:
    # l(t, x) = x + 0.1 sin(x) - (c0 + c1 t); slope in [0.9, 1.1]
    p = _take(params, {"c0": 0.0, "c1": 1.0, "horizon": 1.0}, "loss", "smooth_sin")
    c0, c1, horizon = p["c0"], p["c1"], p["horizon"]
    c_max = abs(c0) + abs(c1) * horizon
    return LossSpec(
        fn=lambda t, x: x + 0.1 * np.sin(x) - (c0 + c1 * t),
        c_l=0.9,
        C_l=1.1,
        time_modulus=lambda d: abs(c1) * d,
        kappa_growth=max(1.1, 0.1 + c_max),
        smooth=True,
        name="smooth_sin",
        t_box=horizon,
    )


LOSSES: dict[str, Callable[[dict], LossSpec]] = {
    "linear": _loss_linear,
    "arctan_shift": _loss_arctan_shift,
    "smooth_sin": _loss_smooth_sin,
}


@dataclass(frozen=True)
class Payoff:
    """Terminal payoff of the canonical path for probe mode."""

    name: str
    fn: Callable[[np.ndarray], np.ndarray]


def _payoff_identity(params: dict) -> Payoff:
    _take(params, {}, "payoff", "identity")
    return Payoff("identity", lambda x: x)


def _payoff_square(params: dict) -> Payoff:
    _take(params, {}, "payoff", "square")
    return Payoff("square", lambda x: x**2)


def _payoff_neg_square(params: dict) -> Payoff:
    _take(params, {}, "payoff", "neg_square")
    return Payoff("neg_square", lambda x: -(x**2))


def _payoff_abs(params: dict) -> Payoff:
    _take(params, {}, "payoff", "abs")
    return Payoff("abs", lambda x: np.abs(x))


def _payoff_call(params: dict) -> Payoff:
    p = _take(params, {"strike": 0.0}, "payoff", "call")
    strike = p["strike"]
    return Payoff("call", lambda x: np.maximum(x - strike, 0.0))


PAYOFFS: dict[str, Callable[[dict], Payoff]] = {
    "identity": _payoff_identity,
    "square": _payoff_square,
    "neg_square": _payoff_neg_square,
    "abs": _payoff_abs,
    "call": _payoff_call,
}


# the tables by plural kind, in the order `meanreflect list` prints them
REGISTRIES: dict[str, dict[str, Callable[[dict], object]]] = {
    "coefficients": COEFFICIENTS,
    "losses": LOSSES,
    "payoffs": PAYOFFS,
}


def _make(table: dict, kind: str, name: str, params: dict | None):
    if name not in table:
        raise ConfigError(f"unknown {kind} '{name}'; available: {', '.join(sorted(table))}")
    return table[name](params or {})


def make_coefficient(name: str, params: dict | None = None) -> CoefficientTerm:
    return _make(COEFFICIENTS, "coefficient", name, params)


def make_loss(name: str, params: dict | None = None) -> LossSpec:
    return _make(LOSSES, "loss", name, params)


def make_payoff(name: str, params: dict | None = None) -> Payoff:
    return _make(PAYOFFS, "payoff", name, params)


def registry_list() -> list[str]:
    """Sorted names of the built-in coefficients and losses."""
    return sorted(set(COEFFICIENTS) | set(LOSSES))
