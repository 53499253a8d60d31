"""Named coefficient, loss and payoff families for the experiment harness.

Each family is one factory in its table (``COEFFICIENTS``, ``LOSSES`` or
``PAYOFFS``): its keyword parameters, every one with a default, are the
parameters a config may set. ``_make`` reads them from the signature, rejects
unknown keys so typos fail loudly, passes each value as a finite float and
names the object after its table key. To add a family, write a factory that
returns a ``CoefficientTerm``, ``LossSpec`` or ``Payoff`` and list it under
its name in the table; ``meanreflect list`` and the config parser pick it up.

A coefficient family that is constant in t and x (``zero``,
``constant_drift``, ``constant_sigma``) declares its value as
``CoefficientTerm.constant``. Its ``fn`` still returns an array of x's
shape; ``ExperimentConfig.coefficients`` hands the solver a callable that
returns the declared float instead, which the Euler step keeps as a scalar.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError
from .loss import LossSpec


@dataclass(frozen=True)
class CoefficientTerm:
    """One named coefficient: the callable plus its Lipschitz constant in x,
    and its value where it is constant in t and x (see the module
    docstring)."""

    fn: Callable[[float, np.ndarray], np.ndarray]
    lipschitz: float
    name: str = ""
    constant: float | None = None


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


def _coeff_zero() -> CoefficientTerm:
    return CoefficientTerm(lambda t, x: np.zeros_like(x), 0.0, constant=0.0)


def _coeff_constant_drift(c=1.0) -> CoefficientTerm:
    return CoefficientTerm(lambda t, x: np.full_like(x, c), 0.0, constant=c)


def _coeff_ou_drift(theta=1.0, mu=0.0) -> CoefficientTerm:
    return CoefficientTerm(lambda t, x: theta * (mu - x), abs(theta))


def _coeff_constant_sigma(a=1.0) -> CoefficientTerm:
    return CoefficientTerm(lambda t, x: np.full_like(x, a), 0.0, constant=a)


def _coeff_linear_sigma(a=1.0, b=0.1, cap=2.0) -> CoefficientTerm:
    if b < 0.0 or cap < a:
        raise ConfigError(
            f"linear_sigma needs b >= 0 and cap >= a, got {dict(a=a, b=b, cap=cap)}"
        )
    return CoefficientTerm(lambda t, x: np.minimum(a + b * np.abs(x), cap), b)


COEFFICIENTS: dict[str, Callable[..., CoefficientTerm]] = {
    "zero": _coeff_zero,
    "constant_drift": _coeff_constant_drift,
    "ou_drift": _coeff_ou_drift,
    "constant_sigma": _coeff_constant_sigma,
    "linear_sigma": _coeff_linear_sigma,
}


def _loss_linear(c0=0.0, c1=1.0, horizon=1.0) -> LossSpec:
    # l(t, x) = x - (c0 + c1 t)
    c_max = abs(c0) + abs(c1) * horizon
    return LossSpec(
        fn=lambda t, x: x - (c0 + c1 * t),
        c_l=1.0,
        C_l=1.0,
        time_modulus=lambda d: abs(c1) * d,
        kappa_growth=max(1.0, c_max),
        smooth=True,
        t_box=horizon,
    )


def _loss_arctan_shift(c=5.0) -> LossSpec:
    # l(t, x) = 2x + arctan(x) - c; slope in [2, 3]
    return LossSpec(
        fn=lambda t, x: 2.0 * x + np.arctan(x) - c,
        c_l=2.0,
        C_l=3.0,
        time_modulus=lambda d: 0.0,
        kappa_growth=max(3.0, math.pi / 2.0 + abs(c)),
        smooth=True,
    )


def _loss_smooth_sin(c0=0.0, c1=1.0, horizon=1.0) -> LossSpec:
    # l(t, x) = x + 0.1 sin(x) - (c0 + c1 t); slope in [0.9, 1.1]
    c_max = abs(c0) + abs(c1) * horizon
    return LossSpec(
        fn=lambda t, x: x + 0.1 * np.sin(x) - (c0 + c1 * t),
        c_l=0.9,
        C_l=1.1,
        time_modulus=lambda d: abs(c1) * d,
        kappa_growth=max(1.1, 0.1 + c_max),
        smooth=True,
        t_box=horizon,
    )


LOSSES: dict[str, Callable[..., LossSpec]] = {
    "linear": _loss_linear,
    "arctan_shift": _loss_arctan_shift,
    "smooth_sin": _loss_smooth_sin,
}


@dataclass(frozen=True)
class Payoff:
    """Terminal payoff of the canonical path for probe mode."""

    fn: Callable[[np.ndarray], np.ndarray]
    name: str = ""


def _payoff_identity() -> Payoff:
    return Payoff(lambda x: x)


def _payoff_square() -> Payoff:
    return Payoff(lambda x: x**2)


def _payoff_neg_square() -> Payoff:
    return Payoff(lambda x: -(x**2))


def _payoff_abs() -> Payoff:
    return Payoff(lambda x: np.abs(x))


def _payoff_call(strike=0.0) -> Payoff:
    return Payoff(lambda x: np.maximum(x - strike, 0.0))


PAYOFFS: dict[str, Callable[..., Payoff]] = {
    "identity": _payoff_identity,
    "square": _payoff_square,
    "neg_square": _payoff_neg_square,
    "abs": _payoff_abs,
    "call": _payoff_call,
}


# the tables by plural kind, in the order `meanreflect list` prints them
REGISTRIES: dict[str, dict[str, Callable[..., object]]] = {
    "coefficients": COEFFICIENTS,
    "losses": LOSSES,
    "payoffs": PAYOFFS,
}


@functools.lru_cache(maxsize=None)
def _factory_params(factory: Callable) -> tuple[tuple[str, object], ...]:
    """A factory's keyword parameters and defaults, read from its signature
    once per process."""
    return tuple((p.name, p.default) for p in inspect.signature(factory).parameters.values())


def accepted_params(table: dict, name: str) -> dict[str, float]:
    """The parameters family ``name`` of ``table`` accepts, with their
    defaults; empty for a name the table does not hold."""
    if name not in table:
        return {}
    return dict(_factory_params(table[name]))


def _make(table: dict, kind: str, name: str, params: dict | None):
    """Family ``name`` of ``table`` built from its defaults overridden by
    ``params``, every value a finite float, and named ``name``."""
    if name not in table:
        raise ConfigError(f"unknown {kind} '{name}'; available: {', '.join(sorted(table))}")
    accepted = accepted_params(table, name)
    unknown = set(params or {}) - set(accepted)
    if unknown:
        raise ConfigError(
            f"{kind} '{name}' got unknown parameter(s) {sorted(unknown)}; "
            f"accepted: {sorted(accepted)}"
        )
    kwargs = {**accepted, **(params or {})}
    for key, value in kwargs.items():
        number = finite_float(value)
        if number is None:
            raise ConfigError(
                f"{kind} '{name}' parameter '{key}' must be a finite number, got {value!r}"
            )
        kwargs[key] = number
    return dataclasses.replace(table[name](**kwargs), name=name)


def make_coefficient(name: str, params: dict | None = None) -> CoefficientTerm:
    return _make(COEFFICIENTS, "coefficient", name, params)


def make_loss(name: str, params: dict | None = None) -> LossSpec:
    return _make(LOSSES, "loss", name, params)


def make_payoff(name: str, params: dict | None = None) -> Payoff:
    return _make(PAYOFFS, "payoff", name, params)


def registry_list() -> list[str]:
    """Sorted names of the built-in coefficients and losses."""
    return sorted(set(COEFFICIENTS) | set(LOSSES))
