"""Sublinear expectation on the lattice by backward dynamic programming.

The upper expectation of a depth-k payoff is the exact maximum, over all
adapted volatility policies, of the policy's (classical) expectation. One
backward sweep computes it: at every node, average the two sign-children
of each volatility branch, then take the larger branch. The reduction order
is fixed (average first, then max, children in lattice order) so identical
inputs give bitwise-identical results.

Both public sweeps run one kernel. Each node's subtree is one contiguous
slice of the leaves (child-major order), so the kernel sweeps the leaves in
blocks of one subtree of 4^8 leaves (512 KiB, which stays in L2): a block
sweeps its 8 levels through two buffers allocated once per call, the
sign-pair sums of a level added and halved in one and the volatility max
written into the other, and its last level writes its value into one
gathered array of 4^(k-8) values, which the kernel then sweeps the rest of
the way. A payoff of at most 4^8 leaves is one block. Each node still sees
the same operations on the same inputs, so every value is bitwise that of a
level-by-level sweep. ``upper_expectation`` may map each leaf block before
it is swept, so that a payoff of 4^k values is never built whole: the
expected loss applies its shift and loss there, the run's CSV trace and the
moment estimate raise |X| to the power p there, and ``lower_expectation``
negates there. The kernel's check is then the one finiteness check of
these payoffs: it checks that the mapped values are finite, with a full
check of a block only when its smallest or largest first-level pair sum is
not finite, since a non-finite value makes its pair sum non-finite. The
payoff's values are never written.

A terminal payoff phi(B_T) needs no tree. B at a depth-k node is
i sigma_low sqrt(dt) + j sigma_high sqrt(dt), where i and j are the net
signed counts of low- and high-volatility steps on its path, and the
backward value of phi(B_T) at the node depends only on (i, j): the four
children of (i, j) are (i +- 1, j) and (i, j +- 1). The depth-k states are
indexed by the rotated counts p, q in [0, k], with i = p + q - k and
j = p - q, so the low children of (p, q) are (p+1, q+1) and (p, q) and its
high children (p+1, q) and (p, q+1). ``terminal_upper_expectation``
evaluates phi once, on the (n+1)^2 terminal states, and sweeps the (k+1)^2
grid down to k = 0 in n steps of the tree's arithmetic, average first and
then max, each sum taking its two children in the tree's order: O(n^3) work
and (n+1)^2 values instead of 4^n leaves. Only B differs from the tree's
leaves, which sum it in path order, so the value moves by rounding alone
(at most 2.2e-16 relative for the registry payoffs at n <= 10).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lattice as _lattice
from .errors import DepthMismatchError, IndicatorError, InvalidParameterError
from .lattice import PathFunctional, PathLattice, TimeGrid, VolatilityBand, _require_finite


def g_function(a: float, band: VolatilityBand) -> float:
    """Generator of the nonlinear heat equation: 0.5*(sigma_high^2*a+ - sigma_low^2*a-).

    Positively homogeneous, monotone and sublinear in a. Equivalently
    0.5*max(sigma_high^2*a, sigma_low^2*a), the larger of its values at the
    band's two ends, since sigma_low^2 <= sigma_high^2.
    """
    a = float(a)
    return 0.5 * (band.sigma_high_sq * max(a, 0.0) - band.sigma_low_sq * max(-a, 0.0))


def _sweep(values: np.ndarray, levels: int, leaf_map=None, policy=None) -> np.ndarray:
    """``levels`` backward steps, each (4m,) child values -> (m,) parent values.

    Child layout per parent: [(low,+), (low,-), (high,+), (high,-)]. The
    leaves are swept in blocks of one subtree each, up to the kernel block's
    levels; a step writes the sign-pair sums into one buffer, halves them
    there and writes the volatility max into the other, and the last step
    of a block writes into a fresh gathered array, which is swept the
    remaining levels. ``leaf_map``, if given, maps each block of ``values``
    to the values swept in its place (with no level to sweep, all of them),
    whose finiteness is checked as the block is swept. ``policy``, if given,
    is a record of ``levels`` bool arrays, ``policy[d]`` holding one entry
    per node d levels below the output: each step writes there whether its
    nodes' high branch strictly wins, so ties go to the low branch.
    """
    if levels == 0:
        if leaf_map is None:
            return values
        values = leaf_map(values)
        _require_finite(values)
        return values
    inner = min(levels, _lattice._BLOCK_LEVELS)
    block = min(values.size, 4**_lattice._BLOCK_LEVELS)
    width = block >> 2 * inner
    sums = np.empty(block // 2)
    maxima = np.empty(block // 4 if inner > 1 else 0)
    gathered = np.empty(values.size >> 2 * inner)
    for start in range(0, values.size, block):
        part = values[start : start + block]
        if leaf_map is not None:
            part = leaf_map(part)
        out = gathered[start >> 2 * inner : (start >> 2 * inner) + width]
        for left in reversed(range(inner)):
            pairs = sums[: part.size // 2]
            if leaf_map is not None and left == inner - 1:
                _add_checked_pairs(part, pairs)
            else:
                np.add(part[0::2], part[1::2], out=pairs)
            np.multiply(0.5, pairs, out=pairs)
            if policy is not None:
                first = start >> 2 * (inner - left)
                np.greater(pairs[1::2], pairs[0::2],
                           out=policy[levels - inner + left][first : first + pairs.size // 2])
            part = np.maximum(pairs[0::2], pairs[1::2],
                              out=maxima[: pairs.size // 2] if left else out)
    return _sweep(gathered, levels - inner, policy=policy)


def _add_checked_pairs(part: np.ndarray, pairs: np.ndarray) -> None:
    """The sign-pair sums of one block of mapped leaf values, with the
    values' finiteness check: a non-finite value makes its pair sum, and so
    the smallest or the largest pair sum, non-finite, so the full check runs
    only then (finite values whose sum overflows pass it). ``inf - inf`` is
    the one invalid operation here, and the check then raises."""
    with np.errstate(invalid="ignore"):
        np.add(part[0::2], part[1::2], out=pairs)
        lo, hi = pairs.min(), pairs.max()
    if not (math.isfinite(lo) and math.isfinite(hi)):
        _require_finite(part)


def _check_depth(lattice: PathLattice, xi: PathFunctional) -> None:
    if xi.depth > lattice.depth:
        raise DepthMismatchError(
            f"functional depth {xi.depth} exceeds lattice depth {lattice.depth}"
        )


def upper_expectation(lattice: PathLattice, xi: PathFunctional, leaf_map=None,
                      policy=None) -> float:
    """Sup over adapted volatility policies of the policy expectation of xi.

    With ``leaf_map``, the payoff is ``leaf_map`` applied to xi's values, one
    contiguous block of them at a time; it must return one value per value
    it is given (the caller checks that), and a non-finite one raises
    InvalidParameterError from its block. With ``policy``, a list of xi.depth
    bool arrays of 4^d entries, the sweep also records there an optimal
    policy: ``policy[d][i]`` is True where node i at depth d takes its high
    branch (``_sweep``); the value is the same either way.
    """
    _check_depth(lattice, xi)
    return float(_sweep(xi.values, xi.depth, leaf_map, policy)[0])


def _policy_support(policy) -> np.ndarray:
    """The 2^k leaves of the depth-k policy record ``policy``: node i at
    depth d steps to children 4i + 2 policy[d][i] + {0, 1}. The two children
    of a node sit next to each other at every depth, so halving sums of
    adjacent pairs k times gives the policy's expectation with the sweep's
    operations."""
    leaves = np.zeros(1, dtype=np.intp)
    for high in policy:
        first = 4 * leaves + 2 * high[leaves]
        leaves = np.stack((first, first + 1), axis=1).ravel()
    return leaves


def terminal_upper_expectation(band: VolatilityBand, grid: TimeGrid, fn) -> float:
    """Upper expectation of the terminal payoff fn(B_T) on the lattice of
    ``band`` over ``grid``, by the recombining sweep (module docstring).

    ``fn`` is called once, on a 1-d array of the (n+1)^2 values of B_T, and
    must return one value per value it is given; a non-finite one raises
    InvalidParameterError. The grid has no enumeration cap.
    """
    n = grid.n_steps
    p, q = np.arange(n + 1.0)[:, None], np.arange(n + 1.0)[None, :]
    root_dt = math.sqrt(grid.dt)
    b = ((p + q - n) * (band.sigma_low * root_dt) + (p - q) * (band.sigma_high * root_dt)).ravel()
    v = np.asarray(fn(b), dtype=float)
    if v.shape != b.shape:
        raise InvalidParameterError(
            f"payoff must return one value per state: {b.size} states, got shape {v.shape}"
        )
    _require_finite(v)
    v = v.reshape(n + 1, n + 1)
    # low children (p+1, q+1), (p, q); high children (p+1, q), (p, q+1)
    for _ in range(n):
        v = np.maximum(0.5 * (v[1:, 1:] + v[:-1, :-1]), 0.5 * (v[1:, :-1] + v[:-1, 1:]))
    return float(v[0, 0])


def lower_expectation(lattice: PathLattice, xi: PathFunctional) -> float:
    """Inf over policies; equals -upper_expectation(-xi), with -xi taken one
    leaf block at a time."""
    return -upper_expectation(lattice, xi, leaf_map=np.negative)


def conditional_upper_expectation(
    lattice: PathLattice, xi: PathFunctional, step: int
) -> PathFunctional:
    """Backward DP values at depth ``step``: the conditional sublinear expectation.

    step == xi.depth returns xi itself; step == 0 collapses to the scalar
    upper expectation.
    """
    _check_depth(lattice, xi)
    if not 0 <= step <= xi.depth:
        raise InvalidParameterError(
            f"conditional step must lie in [0, {xi.depth}], got {step}"
        )
    return PathFunctional(step, _sweep(xi.values, xi.depth - step))


def _require_indicator(event: PathFunctional) -> None:
    v = event.values
    if not np.all((v == 0.0) | (v == 1.0)):
        raise IndicatorError("capacity requires an indicator ({0,1}-valued) functional")


def upper_capacity(lattice: PathLattice, event: PathFunctional) -> float:
    """V(A) = sup_P P(A) over the policy family."""
    _require_indicator(event)
    return upper_expectation(lattice, event)


def lower_capacity(lattice: PathLattice, event: PathFunctional) -> float:
    """v(A) = inf_P P(A) over the policy family."""
    _require_indicator(event)
    return lower_expectation(lattice, event)


@dataclass(frozen=True)
class ComparisonReport:
    """Both directions of the strict comparison test, on the finite lattice.

    forward:  v(xi < eta) > 0  implies  E[xi] < E[eta]
    backward: E[xi] < E[eta]   implies  V(xi < eta) > 0
    Implications with a false antecedent hold vacuously.
    """

    e_xi: float
    e_eta: float
    lower_capacity_strict: float
    upper_capacity_strict: float
    forward_antecedent: bool
    forward_holds: bool
    backward_antecedent: bool
    backward_holds: bool

    @property
    def passed(self) -> bool:
        return self.forward_holds and self.backward_holds


def strict_comparison_check(
    lattice: PathLattice, xi: PathFunctional, eta: PathFunctional
) -> ComparisonReport:
    """Evaluate the strict comparison property for the dominated pair xi <= eta."""
    if xi.depth != eta.depth:
        raise DepthMismatchError(
            f"functionals live at different depths: {xi.depth} vs {eta.depth}"
        )
    if np.any(xi.values > eta.values):
        raise InvalidParameterError("strict comparison requires xi <= eta node-wise")
    strict = PathFunctional(xi.depth, (xi.values < eta.values).astype(float))
    v = lower_capacity(lattice, strict)
    big_v = upper_capacity(lattice, strict)
    e_xi = upper_expectation(lattice, xi)
    e_eta = upper_expectation(lattice, eta)
    fwd_ant = v > 0.0
    bwd_ant = e_xi < e_eta
    return ComparisonReport(
        e_xi=e_xi,
        e_eta=e_eta,
        lower_capacity_strict=v,
        upper_capacity_strict=big_v,
        forward_antecedent=fwd_ant,
        forward_holds=(not fwd_ant) or (e_xi < e_eta),
        backward_antecedent=bwd_ant,
        backward_holds=(not bwd_ant) or (big_v > 0.0),
    )
