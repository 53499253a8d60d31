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

    fn must accept a scalar t and an ndarray x and return an ndarray of x's
    shape, value by value: the expected loss evaluates it on one leaf block
    at a time (see ``reflection.expected_loss``). The validation box bounds
    the region on which the declared constants are certified; solvers may
    leave it for pathological inputs, which is the caller's risk (the growth
    bound keeps brackets finite regardless).
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
    """Violations found by ``validate_loss`` or ``sde.validate_coefficients``."""

    violations: tuple[str, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.violations


def _band_certified(loss: LossSpec, xs: np.ndarray, lv_by_t: np.ndarray,
                    d: np.ndarray) -> np.ndarray:
    """Per sample time (row of ``lv_by_t``, with adjacent differences ``d``),
    whether the adjacent-sample slopes prove that no pair of samples violates
    the declared band; the certificate and its proof are in
    ``validate_loss``."""
    n = xs.size
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.diff(xs)
        low = (d - loss.c_l * e).min(axis=1)
        high = (d - loss.C_l * e).max(axis=1)
        rounding = 16.0 * 2.0**-53 * (np.abs(lv_by_t).max(axis=1) + loss.C_l * np.abs(xs).max())
    tau = _SPOT_RTOL / (4.0 * (n - 1))
    return (np.all(e > 0.0) & (rounding <= _SPOT_RTOL / 4.0)
            & (low >= -tau) & (high <= tau))


def validate_loss(loss: LossSpec) -> LossValidationReport:
    """Spot-check the declared constants on a 50 x 200 grid over the boxes.

    Checks: F(0)=0 and F nondecreasing; strict increase in x; the bi-Lipschitz
    band; the time modulus; linear growth. Returns a report rather than
    raising, so the harness can surface each violation as a named check.

    The band is checked on every pair of samples at each time, with a slack
    of rtol (1 + |x_i - x_j|), rtol = _SPOT_RTOL. Adjacent slopes bound every
    pair's slope, so where they fit the band with the margin below, no pair
    can fail and the (200, 200) pair matrices are not built; at a time where
    this certificate fails, every pair is checked. The time modulus is
    checked once per unordered pair of sample times. The violations are the
    same either way.

    Certificate. Let u = 2^-53, n = 200 samples x_m, and at one time values
    l_m that increase strictly (checked first). The pairs are skipped when

        e_m = fl(x_{m+1} - x_m) > 0 for every m,
        fl(16u (V + C_l X)) <= rtol/4,  V = max |l_m|,  X = max |x_m|,
        fl(d_m - fl(c_l e_m)) >= -tau and fl(d_m - fl(C_l e_m)) <= tau
        for every m, with d_m = fl(l_{m+1} - l_m), tau = fl(rtol / (4 (n-1))).

    Proof that no pair then fails. Let D_m, E_m > 0 be the exact adjacent
    differences; for samples i < j, D = l_j - l_i and W = x_j - x_i are
    their sums over m in [i, j), so D <= 2V and W <= 2X. Each computed
    excess fl(d_m - fl(c e_m)), c = c_l or C_l, lies within
    4u (D_m + C_l E_m) of D_m - c E_m, and summing over [i, j) gives

        D - c_l W >= -(n-1) tau - 8u (V + C_l X),
        D - C_l W <= (n-1) tau + 8u (V + C_l X).

    The pair check flags dl < lo or dl > hi, where dl = fl(|l_i - l_j|) lies
    in [D (1 - u), D (1 + u)], dx = fl(|x_i - x_j|) = W (1 +- u), the slack
    s = fl(rtol fl(1 + dx)) >= rtol, lo = fl(fl(c_l dx) - s) and
    hi = fl(fl(C_l dx) + s). Either lo <= 0 < dl or lo <= c_l W (1 + u)^3 - s,
    and hi >= C_l W (1 - u)^3 + s (1 - u). With uD <= 2uV and W <= 2X, neither
    flags once (n-1) tau + 16u (V + C_l X) <= s (1 - u); by the certificate
    the left side is at most rtol/2 (1 + 4u), and s >= rtol. A subnormal
    result adds at most 2^-1075 per operation, far inside the unused half of
    the slack. A NaN fails the certificate, and so does any overflow, which
    needs V or C_l X above 1e307.
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

    growth = loss.kappa_growth * (1.0 + np.abs(xs))
    growth_bound = growth + _SPOT_RTOL * (1.0 + growth)
    lv_by_t = np.stack([loss(float(t), xs) for t in ts])
    # the row checks of every sample time at once; the loop reports the first
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.diff(lv_by_t, axis=1)
        decreasing = np.any(d <= 0.0, axis=1)
        beyond_growth = np.any(np.abs(lv_by_t) > growth_bound, axis=1)
    certified = _band_certified(loss, xs, lv_by_t, d)
    lower = upper = None
    for i, (t, lv) in enumerate(zip(ts, lv_by_t)):
        if decreasing[i]:
            bad.append(f"l(t={t:.4g}, .) is not strictly increasing on the sample")
            break
        if not certified[i]:
            if lower is None:
                dx = np.abs(xs[:, None] - xs[None, :])
                slack = _SPOT_RTOL * (1.0 + dx)
                lower = loss.c_l * dx - slack
                upper = loss.C_l * dx + slack
            dl = np.abs(lv[:, None] - lv[None, :])
            if np.any(dl < lower):
                bad.append(f"lower Lipschitz bound c_l={loss.c_l} violated at t={t:.4g}")
                break
            if np.any(dl > upper):
                bad.append(f"upper Lipschitz bound C_l={loss.C_l} violated at t={t:.4g}")
                break
        if beyond_growth[i]:
            bad.append(f"growth bound kappa={loss.kappa_growth} violated at t={t:.4g}")
            break

    # |l(t_i, .) - l(t_j, .)| and F(|t_i - t_j|) are symmetric in i and j
    for i in range(len(ts)):
        gap = np.abs(lv_by_t[i:] - lv_by_t[i]).max(axis=1)
        allowed = np.array([loss.time_modulus(d) for d in np.abs(ts[i:] - ts[i]).tolist()])
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
