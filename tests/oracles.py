"""Independent reference implementations used as test oracles.

Everything here is deliberately written in plain scalar Python (recursion,
explicit enumeration, straight loops) so it shares no code path with the
vectorized library. Oracles stay independent of what they check. The
exceptions are ``ref_loss_violations`` and ``ref_coefficient_violations``,
the all-pairs spot checks of a loss and of coefficients that
``validate_loss`` and ``sde.validate_coefficients`` certify in O(n), and the
``ref_*`` expectations of a whole-level array at the end, which map a level
first and then sweep it with the library's plain sweep, and
``ref_terminal_upper_expectation``, the masked square-grid sweep of a
terminal payoff. They are kept as written before the certificates, the
per-block leaf maps and the rotated count grid, since those must reproduce
their exact floating-point results.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from meanreflect import InvalidParameterError, PathFunctional, upper_expectation
from meanreflect.lattice import _require_finite


def ref_upper_expectation(values, depth: int) -> float:
    """Recursive scalar version of the backward DP over adapted controls.

    values: sequence of 4**depth leaf values in lattice child order.
    """

    def go(index: int, level: int) -> float:
        if level == depth:
            return float(values[index])
        base = index * 4
        low = 0.5 * (go(base + 0, level + 1) + go(base + 1, level + 1))
        high = 0.5 * (go(base + 2, level + 1) + go(base + 3, level + 1))
        return max(low, high)

    return go(0, 0)


def ref_fixed_policy_expectation(values, depth: int, vol_choice) -> float:
    """Plain binomial expectation for one adapted policy.

    vol_choice(node_index, level) -> 0 (low) or 1 (high); node_index counts
    nodes at the given level in lattice order.
    """

    def go(index: int, level: int) -> float:
        if level == depth:
            return float(values[index])
        m = vol_choice(index, level)
        base = index * 4 + 2 * m
        return 0.5 * (go(base + 0, level + 1) + go(base + 1, level + 1))

    return go(0, 0)


def enumerate_adapted_policies(depth: int):
    """All adapted volatility policies for a small tree, as dicts
    (level, node_index) -> 0/1. Internal node count is (4**depth - 1)/3."""
    slots = [(level, idx) for level in range(depth) for idx in range(4**level)]
    for bits in itertools.product((0, 1), repeat=len(slots)):
        yield dict(zip(slots, bits))


def ref_enumerated_supremum(values, depth: int) -> float:
    """Max over every adapted policy of its expectation (small depths only)."""
    best = -math.inf
    for policy in enumerate_adapted_policies(depth):
        e = ref_fixed_policy_expectation(
            values, depth, lambda idx, lvl: policy[(lvl, idx)]
        )
        best = max(best, e)
    return best


def ref_bisect(f, lo: float, hi: float, tol: float = 1e-14) -> float:
    """Scalar bisection for an increasing f with f(lo) < 0 < f(hi)."""
    f_lo, f_hi = f(lo), f(hi)
    if not (f_lo < 0.0 < f_hi):
        raise ValueError(f"not a bracket: f({lo})={f_lo}, f({hi})={f_hi}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def norm_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def norm_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def bachelier_call(std: float, strike: float) -> float:
    """E[(N(0, std^2) - strike)^+], closed form."""
    d = strike / std
    return std * norm_pdf(d) - strike * (1.0 - norm_cdf(d))


def expected_abs_normal(std: float) -> float:
    return std * math.sqrt(2.0 / math.pi)


def ref_loss_violations(loss, rtol: float = 1e-9) -> tuple[str, ...]:
    """``validate_loss(loss).violations`` by the all-pairs check: the band on
    a (200, 200) matrix per sample time and the time modulus on every
    ordered pair of the 50 sample times. ``rtol`` is the library's spot-check
    slack."""
    bad = []
    ts = np.linspace(0.0, loss.t_box, 50)
    xs = np.linspace(loss.x_box[0], loss.x_box[1], 200)

    f0 = loss.time_modulus(0.0)
    if abs(f0) > rtol:
        bad.append(f"time modulus F(0)={f0}, expected 0")
    deltas = np.linspace(0.0, loss.t_box, 25)
    f_vals = np.array([loss.time_modulus(float(d)) for d in deltas])
    if np.any(np.diff(f_vals) < -rtol):
        bad.append("time modulus F is not nondecreasing on the sample")
    if np.any(f_vals < -rtol):
        bad.append("time modulus F takes negative values")

    dx = np.abs(xs[:, None] - xs[None, :])
    slack = rtol * (1.0 + dx)
    lower = loss.c_l * dx - slack
    upper = loss.C_l * dx + slack
    growth = loss.kappa_growth * (1.0 + np.abs(xs))
    growth_bound = growth + rtol * (1.0 + growth)
    lv_by_t = np.stack([loss(float(t), xs) for t in ts])
    for t, lv in zip(ts, lv_by_t):
        if np.any(np.diff(lv) <= 0.0):
            bad.append(f"l(t={t:.4g}, .) is not strictly increasing on the sample")
            break
        dl = np.abs(lv[:, None] - lv[None, :])
        if np.any(dl < lower):
            bad.append(f"lower Lipschitz bound c_l={loss.c_l} violated at t={t:.4g}")
            break
        if np.any(dl > upper):
            bad.append(f"upper Lipschitz bound C_l={loss.C_l} violated at t={t:.4g}")
            break
        if np.any(np.abs(lv) > growth_bound):
            bad.append(f"growth bound kappa={loss.kappa_growth} violated at t={t:.4g}")
            break

    for i in range(len(ts)):
        gap = np.abs(lv_by_t - lv_by_t[i]).max(axis=1)
        allowed = np.array([loss.time_modulus(abs(float(t - ts[i]))) for t in ts])
        if np.any(gap > allowed + rtol * (1.0 + allowed)):
            bad.append("time modulus F violated on the sample")
            break
    return tuple(bad)


def ref_coefficient_violations(coeffs, t_max: float = 1.0, x_box=(-5.0, 5.0),
                               rtol: float = 1e-9) -> tuple[str, ...]:
    """``validate_coefficients(coeffs, t_max, x_box).violations`` by the
    all-pairs check: an (80, 80) pair matrix per coefficient and sample
    time, as written before the adjacent-difference certificate. ``rtol`` is
    the library's spot-check slack."""
    bad = []
    ts = np.linspace(0.0, t_max, 20)
    xs = np.linspace(x_box[0], x_box[1], 80)
    dx = np.abs(xs[:, None] - xs[None, :])
    allowed = coeffs.kappa * dx + rtol * (1.0 + dx)
    for label, fn in (("b", coeffs.b), ("h", coeffs.h), ("sigma", coeffs.sigma)):
        for t in ts:
            v = np.asarray(fn(float(t), xs), dtype=float)
            if v.ndim == 0:
                v = np.full_like(xs, float(v))
            if np.any(np.abs(v[:, None] - v[None, :]) > allowed):
                bad.append(
                    f"coefficient {label} violates the Lipschitz bound kappa={coeffs.kappa} "
                    f"at t={t:.4g}"
                )
                break
    return tuple(bad)


def ref_csv_expectations(lattice, X, p: float) -> tuple[list, list]:
    """The ``E_X`` and ``E_absX_p`` columns of the run's CSV trace for the
    process ``X`` over the whole lattice, as written before the leaf map: a
    whole-level |X_k|^p array per level, with a finiteness pass of its own,
    swept as a functional of its own."""
    e_x, e_abs_p = [], []
    for k in range(lattice.depth + 1):
        xk = X.at(k)
        e_x.append(upper_expectation(lattice, PathFunctional(k, xk)))
        abs_p = np.abs(xk) ** p
        assert np.all(np.isfinite(abs_p))
        e_abs_p.append(upper_expectation(lattice, PathFunctional(k, abs_p)))
    return e_x, e_abs_p


def ref_moment_left(lattice, sup_abs, p: float) -> float:
    """``check_moment_estimate(...).left`` from the running maximum
    ``sup_abs`` of |X|, as written before the leaf map."""
    return upper_expectation(lattice, PathFunctional(sup_abs.depth, sup_abs.values**p))


def ref_lower_expectation(lattice, xi) -> float:
    """``lower_expectation`` as written before the leaf map: -E[-xi] with -xi
    built whole."""
    return -upper_expectation(lattice, PathFunctional(xi.depth, -xi.values))


def ref_terminal_upper_expectation(band, grid, fn) -> float:
    """``terminal_upper_expectation`` as written before the rotated count
    grid: phi(B_T) on the (2n+1)^2 square of net signed counts (i, j), with
    the unreachable cells held at 0 by a reachability mask.

    ``fn`` is called once, on a 1-d array of the reachable values of B_T,
    and must return one value per value it is given; a non-finite one
    raises InvalidParameterError. Unreachable grid cells hold 0 and never
    reach a reachable one. The grid has no enumeration cap.
    """
    n = grid.n_steps
    counts = np.arange(-n, n + 1.0)
    i, j = counts[:, None], counts[None, :]
    reachable = (np.abs(i) + np.abs(j) <= n) & ((i + j + n) % 2 == 0)
    root_dt = math.sqrt(grid.dt)
    b = (i * (band.sigma_low * root_dt) + j * (band.sigma_high * root_dt))[reachable]
    payoff = np.asarray(fn(b), dtype=float)
    if payoff.shape != b.shape:
        raise InvalidParameterError(
            f"payoff must return one value per state: {b.size} states, got shape {payoff.shape}"
        )
    _require_finite(payoff)
    v = np.zeros((2 * n + 1, 2 * n + 1))
    v[reachable] = payoff
    # each step drops the outer ring: a depth-k state has |i|, |j| <= k
    for _ in range(n):
        v = np.maximum(0.5 * (v[2:, 1:-1] + v[:-2, 1:-1]), 0.5 * (v[1:-1, 2:] + v[1:-1, :-2]))
    return float(v[0, 0])


# A test-only loss for Howard's path on the dyadic config: l(t, x) = g(x - t)
# with g(y) = y + sum of jump * max(y - kink, 0) over (kink, jump). Its slopes
# are 1, 5/4, 3/2 and 1 between the dyadic kinks -1/2, 0 and 1/2, so it has
# c_l = 1 and C_l = 3/2. No kinks give the linear loss x - t.
PIECEWISE_KINKS = ((Fraction(-1, 2), Fraction(1, 4)), (Fraction(0), Fraction(1, 4)),
                   (Fraction(1, 2), Fraction(-1, 2)))


def piecewise_linear(y, kinks=PIECEWISE_KINKS, maximum=max):
    """g(y) = y + the sum of jump * maximum(y - kink, 0) over ``kinks``:
    slope 1 below the first kink, changing by jump at each. With float kinks
    and ``maximum=np.maximum`` it is the float loss of an array."""
    return y + sum(jump * maximum(y - kink, 0) for kink, jump in kinks)


def _exact_sweep(values) -> tuple:
    """The G-expectation of leaf ``values`` (lattice child order), a max of
    pair averages, and the leaves an optimal policy reaches: at each node
    the high volatility where its average is larger, else the low one."""
    level = [(v, (i,)) for i, v in enumerate(values)]
    while len(level) > 1:
        parents = []
        for i in range(0, len(level), 4):
            (v0, s0), (v1, s1), (v2, s2), (v3, s3) = level[i : i + 4]
            low, high = (v0 + v1) / 2, (v2 + v3) / 2
            parents.append((high, s2 + s3) if high > low else (low, s0 + s1))
        level = parents
    return level[0]


def _exact_policy_root(ys, kinks):
    """The x with mean(g(y + x) over ``ys``) = 0. The mean is increasing and
    piecewise linear in x, with kinks at kink - y, so the root is linear
    interpolation on the segment whose ends change sign, or beyond the
    outer kinks, where the slopes are 1 and 1 + the sum of the jumps."""

    def mean(x):
        return sum(piecewise_linear(y + x, kinks) for y in ys) / len(ys)

    points = sorted({kink - y for y in ys for kink, _ in kinks}) or [Fraction(0)]
    if mean(points[0]) >= 0:
        return points[0] - mean(points[0])
    if mean(points[-1]) < 0:
        return points[-1] - mean(points[-1]) / (1 + sum(jump for _, jump in kinks))
    lo, hi = 0, len(points) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if mean(points[mid]) < 0 else (lo, mid)
    (a, fa), (b, fb) = ((x, mean(x)) for x in (points[lo], points[hi]))
    return a - fa * (b - a) / (fb - fa)


def _exact_minimal_shift(t, u, kinks):
    """The smallest x >= 0 with E[g(U + x - t)] >= 0, by Howard's policy
    iteration in Fractions: each step takes the exact root of the policy
    the last sweep found optimal. Its root is feasible, and the next root
    is no larger; a repeated policy would repeat a root, so the iteration
    ends, at E[g(U + x - t)] = 0."""
    x = Fraction(0)
    value, support = _exact_sweep([piecewise_linear(v - t, kinks) for v in u])
    while value < 0 or x > 0 and value > 0:
        x = _exact_policy_root([u[i] - t for i in support], kinks)
        value, support = _exact_sweep([piecewise_linear(v - t + x, kinks) for v in u])
    return x


def exact_dyadic_solution(n_steps: int, full_sde: bool, kinks=()) -> tuple[list, list]:
    """The exact A of the discrete scheme on the dyadic config and the exact
    E[l(t_k, X_k)] at each step, as ``fractions.Fraction``s, by brute force
    over the leaves, for the loss l(t, x) = g(x - t) of ``kinks`` (see
    ``piecewise_linear``; none give the ``linear`` loss).

    The config: band (1, 4), dt = 1/4 (horizon n/4), x0 = 0, b = ``ou_drift``
    with theta 1/2, sigma = ``linear_sigma`` with a 1, b 1/8 and cap 2 and
    h = 0. Then sqrt(dt) = 1/2, so every dB is one of +-1/2 (low) and +-1
    (high), and every node value, every G-expectation (a max of pair
    averages) and every minimal shift is rational. Each step takes U_{k+1} =
    U_k + b(X_k) dt + sigma(X_k) dB with X = U + A in ``full_sde`` and X = U
    in ``sp_only``; A is the running max of the minimal shifts.
    """
    dt = Fraction(1, 4)
    db = (Fraction(1, 2), Fraction(-1, 2), Fraction(1), Fraction(-1))  # child order
    u, a = [Fraction(0)], [Fraction(0)]
    values = [_exact_sweep([piecewise_linear(Fraction(0), kinks)])[0]]
    for k in range(1, n_steps + 1):
        x = [v + a[-1] for v in u] if full_sde else u
        u = [v + (-xi / 2) * dt + min(1 + abs(xi) / 8, Fraction(2)) * d
             for v, xi in zip(u, x) for d in db]
        a.append(max(a[-1], _exact_minimal_shift(k * dt, u, kinks)))
        values.append(_exact_sweep([piecewise_linear(v + a[-1] - k * dt, kinks) for v in u])[0])
    return a, values
