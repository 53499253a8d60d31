"""Loss functions for the mean constraint E[l(t, X_t)] >= 0.

A LossSpec bundles the function with its declared regularity data: the
bi-Lipschitz band [c_l, C_l] in x, the time modulus F, and a linear growth
constant. Declared constants are trusted by the solvers (they size the root
brackets), so ``validate_loss`` spot-checks them on a sampling grid first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .errors import InvalidParameterError, ValidationError

# relative slack when comparing sampled increments against declared constants
_SPOT_RTOL = 1e-9


@dataclass(frozen=True)
class LossSpec:
    """l(t, x) with declared constants.

    fn must accept a scalar t and an ndarray x and return an ndarray of x's
    shape, value by value: the expected loss evaluates it on one leaf block
    at a time (see ``reflection.expected_loss``). The validation box x_box x
    [0, t_box], finite as every declared constant is, bounds
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
        if not 0.0 < self.c_l <= self.C_l < math.inf:
            raise InvalidParameterError(
                f"need 0 < c_l <= C_l < inf, got c_l={self.c_l}, C_l={self.C_l}"
            )
        if not 0.0 < self.kappa_growth < math.inf:
            raise InvalidParameterError(
                f"kappa_growth must be finite and positive, got {self.kappa_growth}"
            )
        _check_sample_box(self.x_box, self.t_box, "t_box")

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


def _check_sample_box(x_box: tuple[float, float], t_end: float, t_name: str) -> None:
    """Refuse a spot check's sampling box on which a violation could hide:
    x_box must be two finite increasing values and the time span [0, t_end]
    finite."""
    if not (len(x_box) == 2 and -math.inf < x_box[0] < x_box[1] < math.inf):
        raise InvalidParameterError(
            f"x_box must be two finite increasing values, got {x_box}")
    if not 0.0 <= t_end < math.inf:
        raise InvalidParameterError(f"{t_name} must be finite and >= 0, got {t_end}")


@dataclass(frozen=True)
class LossValidationReport:
    """Violations found by ``validate_loss`` or ``sde.validate_coefficients``."""

    violations: tuple[str, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.violations


def _adjacent_certified(xs: np.ndarray, v_by_t: np.ndarray, low: float, high: float,
                        d: np.ndarray | None = None) -> np.ndarray:
    """Per row of ``v_by_t`` (values at the samples ``xs``, with adjacent
    differences ``d``), whether the absolute adjacent differences prove that
    every pair of samples satisfies, for 0 <= low <= high,

        low |x_i - x_j| - s <= |v_i - v_j| <= high |x_i - x_j| + s,
        s = rtol (1 + |x_i - x_j|),  rtol = _SPOT_RTOL,

    the upper side for any row, the lower side for a monotone row. A row that
    passes needs no (n, n) pair matrix; ``_pair_bound_sides`` checks every
    pair of the others, so the verdicts are the same either way.

    Certificate. Let u = 2^-53, n samples x_m and, in one row, values v_m.
    The row is certified when

        e_m = fl(x_{m+1} - x_m) > 0 for every m,
        fl(16u (V + high X)) <= rtol/4,  V = max |v_m|,  X = max |x_m|,
        fl(a_m - fl(low e_m)) >= -tau and fl(a_m - fl(high e_m)) <= tau
        for every m, with a_m = |fl(v_{m+1} - v_m)|, tau = fl(rtol / (4 (n-1))).

    Proof that no pair then fails. Let D_m and E_m > 0 be the exact adjacent
    differences; for samples i < j, W = x_j - x_i is the sum of E_m over m
    in [i, j), so W <= 2X, and |v_j - v_i| <= S, the sum of |D_m|. The pair
    check flags dv < lo or dv > hi, where dv = fl(|v_i - v_j|), dx =
    fl(|x_i - x_j|) = W (1 +- u), the slack s = fl(rtol fl(1 + dx)) >= rtol,
    lo = fl(fl(low dx) - s) and hi = fl(fl(high dx) + s). Each operation
    rounds within a factor (1 +- u).

    Upper side. a_m >= |D_m| (1 - u), fl(high e_m) <= high E_m (1 + u)^2
    and, by the certificate, a_m - fl(high e_m) <= tau / (1 - u). Summing
    over [i, j),

        S <= high W (1 + u)^2 / (1 - u) + (n-1) tau / (1 - u)^2.

    With dv <= S (1 + u) and hi >= high W (1 - u)^3 + s (1 - u), dv - hi <=
    8u high W + (n-1) tau (1 + u) / (1 - u)^2 - s (1 - u); by the certificate
    8u high W <= 16u high X <= rtol/4 (1 + 2u) and (n-1) tau <= rtol/4 (1 + u),
    so dv - hi <= rtol/2 (1 + 4u) - rtol (1 - u) < 0.

    Lower side, for a monotone row. Then |v_j - v_i| = S <= 2V. Each
    fl(a_m - fl(low e_m)) lies within 4u (|D_m| + high E_m) of
    |D_m| - low E_m, so summing over [i, j) gives

        S - low W >= -(n-1) tau - 8u (V + high X).

    Either lo <= 0 <= dv, or lo <= low W (1 + u)^3 - s; with dv >= S (1 - u),
    uS <= 2uV and low W <= 2 high X, dv - lo >= s - (n-1) tau
    - 16u (V + high X) >= rtol - rtol/2 (1 + 4u) > 0. With low = 0 the lower
    side holds for every row, since lo = -s < 0.

    A subnormal result adds at most 2^-1075 per operation, far inside the
    unused half of the slack; a dx that overflows makes hi infinite. A NaN or
    an infinite difference fails the certificate, and so does any overflow,
    which needs V or high X above 1e307.
    """
    n = xs.size
    with np.errstate(over="ignore", invalid="ignore"):
        a = np.abs(np.diff(v_by_t, axis=1) if d is None else d)
        e = np.diff(xs)
        lowest = (a - low * e).min(axis=1)
        highest = (a - high * e).max(axis=1)
        rounding = 16.0 * 2.0**-53 * (np.abs(v_by_t).max(axis=1) + high * np.abs(xs).max())
    tau = _SPOT_RTOL / (4.0 * (n - 1))
    return (np.all(e > 0.0) & (rounding <= _SPOT_RTOL / 4.0)
            & (lowest >= -tau) & (highest <= tau))


def _pair_bound_sides(xs: np.ndarray, rows, low: float, high: float,
                      certified: np.ndarray) -> Iterator[str | None]:
    """Yield, row by row, the side of the pairwise bound of
    ``_adjacent_certified`` that some pair of samples violates: "lower",
    "upper" or None. A certified row yields None unchecked; the first other
    row builds the (n, n) bound matrices, which every later one reuses, and
    is checked on every pair. Rows are checked only as they are drawn, so a
    caller that stops at its first violation checks no row after it."""
    bounds = None
    for v, skip in zip(rows, certified):
        if skip:
            yield None
            continue
        if bounds is None:
            dx = np.abs(xs[:, None] - xs[None, :])
            slack = _SPOT_RTOL * (1.0 + dx)
            bounds = (low * dx - slack, high * dx + slack)
        dv = np.abs(v[:, None] - v[None, :])
        yield "lower" if np.any(dv < bounds[0]) else "upper" if np.any(dv > bounds[1]) else None


def validate_loss(loss: LossSpec) -> LossValidationReport:
    """Spot-check the declared constants on a 50 x 200 grid over the boxes.

    Checks: F(0)=0 and F nondecreasing; strict increase in x; the bi-Lipschitz
    band; the time modulus; linear growth. Returns a report rather than
    raising, so the harness can surface each violation as a named check.

    The band is checked on every pair of samples at each time, with a slack
    of rtol (1 + |x_i - x_j|), rtol = _SPOT_RTOL: where the adjacent slopes
    of a strictly increasing row certify it (``_adjacent_certified``, with
    low = c_l and high = C_l), the (200, 200) pair matrices are not built.
    The time modulus is checked once per unordered pair of sample times,
    with F called once per pair, all in one batch.
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
    sides = _pair_bound_sides(xs, lv_by_t, loss.c_l, loss.C_l,
                              _adjacent_certified(xs, lv_by_t, loss.c_l, loss.C_l, d))
    for i, t in enumerate(ts):
        if decreasing[i]:
            bad.append(f"l(t={t:.4g}, .) is not strictly increasing on the sample")
            break
        side = next(sides)
        if side == "lower":
            bad.append(f"lower Lipschitz bound c_l={loss.c_l} violated at t={t:.4g}")
            break
        if side == "upper":
            bad.append(f"upper Lipschitz bound C_l={loss.C_l} violated at t={t:.4g}")
            break
        if beyond_growth[i]:
            bad.append(f"growth bound kappa={loss.kappa_growth} violated at t={t:.4g}")
            break

    # |l(t_i, .) - l(t_j, .)| and F(|t_i - t_j|) are symmetric in i and j, so
    # each unordered pair, (i, i) included, is checked once: the gaps of the
    # pairs j = i + m for one index difference m at a time, then F in one
    # batch over their |t_j - t_i|
    n_t = len(ts)
    gap = np.empty(n_t * (n_t + 1) // 2)
    apart = np.empty_like(gap)
    diff = np.empty_like(lv_by_t)
    start = 0
    # inf - inf and overflows read as NaN and inf, as in the row checks
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(n_t):
            rows = slice(start, start + n_t - m)
            pair_gap = np.subtract(lv_by_t[m:], lv_by_t[: n_t - m], out=diff[: n_t - m])
            np.abs(pair_gap, out=pair_gap).max(axis=1, out=gap[rows])
            np.subtract(ts[m:], ts[: n_t - m], out=apart[rows])
            start = rows.stop
    allowed = np.array(list(map(loss.time_modulus, np.abs(apart).tolist())))
    if np.any(gap > allowed + _SPOT_RTOL * (1.0 + allowed)):
        bad.append("time modulus F violated on the sample")

    return LossValidationReport(violations=tuple(bad))


def require_valid_loss(loss: LossSpec) -> None:
    report = validate_loss(loss)
    if not report.ok:
        raise ValidationError(
            f"loss '{loss.name}' failed its spot check: " + "; ".join(report.violations)
        )
