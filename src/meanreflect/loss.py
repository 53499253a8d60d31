"""Loss functions for the mean constraint E[l(t, X_t)] >= 0.

A LossSpec bundles the function with its declared regularity data: the
bi-Lipschitz band [c_l, C_l] in x, the time modulus F, and a linear growth
constant. Declared constants are trusted by the solvers (they size the root
brackets), so ``validate_loss`` spot-checks them on a sampling grid first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InvalidParameterError, ValidationError

# relative slack when comparing sampled increments against declared constants
_SPOT_RTOL = 1e-9


@dataclass(frozen=True)
class LossSpec:
    """l(t, x) with declared constants.

    fn must accept a scalar t and an ndarray x and return an ndarray. The
    validation box bounds the region on which the declared constants are
    certified; solvers may leave it for pathological inputs, which is the
    caller's risk (the growth bound keeps brackets finite regardless).
    """

    fn: Callable[[float, np.ndarray], np.ndarray]
    c_l: float
    C_l: float
    time_modulus: Callable[[float], float]
    kappa_growth: float
    smooth: bool = False
    name: str = "custom"
    x_box: tuple[float, float] = (-5.0, 5.0)
    t_box: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.c_l <= self.C_l):
            raise InvalidParameterError(
                f"need 0 < c_l <= C_l, got c_l={self.c_l}, C_l={self.C_l}"
            )
        if not self.kappa_growth > 0.0:
            raise InvalidParameterError(
                f"kappa_growth must be positive, got {self.kappa_growth}"
            )
        if self.x_box[0] >= self.x_box[1]:
            raise InvalidParameterError(f"empty validation box {self.x_box}")

    def __call__(self, t: float, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(t, np.asarray(x, dtype=float)), dtype=float)

    def shifted(self, offset: float, name: str | None = None) -> "LossSpec":
        """l + offset: same slopes, adjusted growth constant."""
        base = self.fn
        return LossSpec(
            fn=lambda t, x, _b=base, _o=offset: _b(t, x) + _o,
            c_l=self.c_l,
            C_l=self.C_l,
            time_modulus=self.time_modulus,
            kappa_growth=self.kappa_growth + abs(offset),
            smooth=self.smooth,
            name=name or f"{self.name}+{offset}",
            x_box=self.x_box,
            t_box=self.t_box,
        )


@dataclass(frozen=True)
class LossValidationReport:
    violations: tuple[str, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_loss(loss: LossSpec) -> LossValidationReport:
    """Spot-check the declared constants on a 50 x 200 grid over the boxes.

    Checks: F(0)=0 and F nondecreasing; strict increase in x; the bi-Lipschitz
    band; the time modulus; linear growth. Returns a report rather than
    raising, so the harness can surface each violation as a named check.
    """
    bad: list[str] = []
    ts = np.linspace(0.0, loss.t_box, 50)
    xs = np.linspace(loss.x_box[0], loss.x_box[1], 200)

    f0 = loss.time_modulus(0.0)
    if abs(f0) > _SPOT_RTOL:
        bad.append(f"time modulus F(0)={f0}, expected 0")
    deltas = np.linspace(0.0, loss.t_box, 25)
    f_vals = np.array([loss.time_modulus(float(d)) for d in deltas])
    if np.any(np.diff(f_vals) < -_SPOT_RTOL):
        bad.append("time modulus F is not nondecreasing on the sample")
    if np.any(f_vals < -_SPOT_RTOL):
        bad.append("time modulus F takes negative values")

    dx = np.abs(xs[:, None] - xs[None, :])
    slack = _SPOT_RTOL * (1.0 + dx)
    for t in ts:
        lv = loss(float(t), xs)
        if np.any(np.diff(lv) <= 0.0):
            bad.append(f"l(t={t:.4g}, .) is not strictly increasing on the sample")
            break
        dl = np.abs(lv[:, None] - lv[None, :])
        if np.any(dl < loss.c_l * dx - slack):
            bad.append(f"lower Lipschitz bound c_l={loss.c_l} violated at t={t:.4g}")
            break
        if np.any(dl > loss.C_l * dx + slack):
            bad.append(f"upper Lipschitz bound C_l={loss.C_l} violated at t={t:.4g}")
            break
        growth = loss.kappa_growth * (1.0 + np.abs(xs))
        if np.any(np.abs(lv) > growth + _SPOT_RTOL * (1.0 + growth)):
            bad.append(f"growth bound kappa={loss.kappa_growth} violated at t={t:.4g}")
            break

    lv_by_t = np.stack([loss(float(t), xs) for t in ts])
    for i in range(len(ts)):
        gap = np.abs(lv_by_t - lv_by_t[i]).max(axis=1)
        allowed = np.array([loss.time_modulus(abs(float(t - ts[i]))) for t in ts])
        if np.any(gap > allowed + _SPOT_RTOL * (1.0 + allowed)):
            bad.append("time modulus F violated on the sample")
            break

    return LossValidationReport(violations=tuple(bad))


def require_valid_loss(loss: LossSpec) -> None:
    report = validate_loss(loss)
    if not report.ok:
        raise ValidationError(
            f"loss '{loss.name}' failed its spot check: " + "; ".join(report.violations)
        )
