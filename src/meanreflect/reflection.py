"""The Skorokhod problem with mean reflection on the lattice.

Given a loss l and an adapted process S with E[l(0, S_0)] >= 0, find a
deterministic nondecreasing A with A(0) = 0 such that X = S + A satisfies
E[l(t, X_t)] >= 0 at every grid time, with A increasing only while the
constraint is tight (discrete flat-off condition).

Two constructions are provided and must agree:

* direct:  A_t = running sup of the minimal admissible shifts L_t(S_t),
* reduced: map the problem to a deterministic Skorokhod reflection of
  s_t = E[S_t] against the barrier \bar l_t solving H(t, ., S_t) = 0,
  where H(t, z, Y) = E[l(t, Y - E[Y] + z)].

Both constructions solve the same 1-D root at every grid time: the reduced
one's barrier is the direct one's minimal shift of the centred variable.
So every minimal shift, of either sign, goes through one entry,
``_minimal_shift``, which checks the tolerance, takes the warm start, tests
for a zero shift and makes every sweep; sweeps alone certify its result. A
loss declared affine (c_l = C_l) needs no search: its root has a closed form
that one sweep confirms, after the sweep for E[l(t, X)], so each root costs
two sweeps. A caller may take the candidate unconfirmed (``confirm=False``)
and sweep it later: Picard's iterates do, and ``sde.picard_solve`` confirms
only the roots of the iterate it returns. Any other loss takes Howard's
policy iteration: a sweep records an optimal volatility policy, the root
of that policy's classical expectation on its 2^k support leaves gives the
next shift, and one sweep there gives the next policy. Both solvers start each such root at the
shift extrapolated from the two grid times before it, so a root near its
start takes about two sweeps, where a start at 0 takes about three. The
1-D solve on each support, and the fallback, is one bracketed ITP search:
regula falsi kept inside the minmax envelope of bisection, so it never
takes more than two evaluations beyond bisection. The declared
bi-Lipschitz band of the loss supplies the brackets, so a bracket failure
means a wrong declaration.

Each root find also returns E[l(t, X + x)] from its last sweep at its
result x. Where the compensator equals a positive minimal shift, X at that
grid time is S plus that shift, by the same addition, so the solvers keep
that value, and ``verify_mean_reflection`` takes it in place of a sweep.
``_reflect_level`` is the one root rule of a level: ``_reflect_levels``
runs it over the levels of each Picard iterate of ``sde.picard_step``, and
``_direct_step`` takes one step of the direct construction with it, giving
a_k and the kept value. ``_reflect_direct`` takes that step at every level
of a stored S, for ``solve_mean_reflection_direct``, which forms X = S + A
as a new process (``ProcessOnLattice.shifted``) and leaves S as it is; an
``sp_only`` run takes it at each level as soon as S makes the level
(``runner._sp_only_levels``) and forms X_k in S_k's own array, by the same
addition per node. The verifier is split alike: ``_level_values`` gathers
one level's identity residual and E[l(t_k, X_k)], and ``_verdict`` judges
A and the gathered values, so the streamed run and
``verify_mean_reflection`` share every check.

A root-find evaluation E[l(t, X + x)] is one backward sweep that applies
the shift and the loss to one leaf block of X at a time (see
``gexpectation``): one pass over X's values, with the shifted block, its
loss values and the sweep's buffers kept in L2. The shift and the loss act
value by value and the sweep keeps its order, so the value is bitwise that
of shifting, evaluating and sweeping whole arrays, and each block gets the
finiteness and shape checks the whole arrays would get, with the same
errors from the same block. The finiteness checks take no pass of their
own unless they can fail: X's finiteness check takes its smallest and
largest value, and since rounding is monotone the shifted blocks need a check
only when one of those two shifts to a non-finite value; the sweep checks
a block's loss values only when its first-level pair sums are not all
finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import lattice as _lattice
from .errors import (
    BracketError,
    DepthMismatchError,
    GridMismatchError,
    InitialConstraintError,
    InvalidParameterError,
)
from .gexpectation import _policy_support, upper_expectation
from .lattice import (
    PathFunctional,
    PathLattice,
    ProcessOnLattice,
    _level_blocks,
    _require_finite,
    _shift_stays_finite,
    lift_values,
)
from .loss import LossSpec

DEFAULT_ROOT_TOL = 1e-10
# how far below zero the initial constraint may sit before we refuse to solve;
# also the verifier's constraint limit and the floor of its flat-off limit
DEFAULT_PRECONDITION_TOL = 1e-8
IDENTITY_TOL = 1e-12  # X = S + A is one addition per node: rounding only

# a few doublings absorb rounding noise at the bracket edge; anything more
# means the declared constants are wrong and must surface as BracketError
_MAX_BRACKET_DOUBLINGS = 8
# ITP's slack over bisection: at most this many extra root-find evaluations
_ITP_N0 = 2
# policy iteration steps, one sweep each, before the bracketed search takes over
_HOWARD_STEPS = 4


@dataclass(frozen=True)
class DeterministicPath:
    """Values on grid times; compensators additionally start at 0 and never decrease."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.times.shape != self.values.shape or self.times.ndim != 1:
            raise InvalidParameterError(
                f"path needs matching 1-d times/values, got {self.times.shape} "
                f"and {self.values.shape}"
            )
        if not np.all(np.isfinite(self.times)):
            raise InvalidParameterError("path times must be finite")
        if len(self.times) > 1 and np.any(np.diff(self.times) <= 0.0):
            raise InvalidParameterError("path times must be strictly increasing")


@dataclass(frozen=True)
class SkorokhodSolution:
    """The pair (X, A): reflected process plus deterministic compensator.

    A solver may add ``expected_losses``: E[l(t_k, X_k)] for each step of A,
    bitwise the sweep of X_k, where its root find made that sweep
    (``_reusable_losses``) or, in ``sde.picard_solve``, where the converged
    iterate swept X at a level with a positive shift or a subinterval's
    initial check swept its start level, and NaN elsewhere."""

    X: ProcessOnLattice
    A: DeterministicPath
    expected_losses: np.ndarray | None = field(default=None, kw_only=True, repr=False,
                                               compare=False)

    def __post_init__(self):
        if not isinstance(self.X, ProcessOnLattice):
            raise InvalidParameterError(
                f"X must be a ProcessOnLattice, got {type(self.X).__name__}")
        if not isinstance(self.A, DeterministicPath):
            raise InvalidParameterError(
                f"A must be a DeterministicPath, got {type(self.A).__name__}")


@dataclass(frozen=True)
class CheckResult:
    """One named check of a report: its measured value, threshold and verdict."""

    name: str
    measured: float
    threshold: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "measured": float(self.measured),
            "threshold": float(self.threshold),
            "pass": bool(self.passed),
        }


@dataclass(frozen=True)
class VerificationReport:
    """The residuals of ``verify_mean_reflection`` and its five ``checks``,
    in the report's order, with their limits for a solve to root tolerance
    tol: ``identity_residual`` <= ``IDENTITY_TOL``, ``constraint_min`` >=
    -``DEFAULT_PRECONDITION_TOL``, ``flatoff_residual`` <= max(1e-8, C_l
    tol) (1 + A_T - A_0), ``compensator_nondecreasing`` (A's smallest step,
    0.0 for one value, >= 0) and ``compensator_starts_at_zero`` (A_0 == 0).
    ``passed`` is their conjunction."""

    identity_residual: float
    constraint_min: float
    flatoff_residual: float
    passed: bool
    # E[l(t_k, X_k)] at each step k of the checked range
    expected_losses: np.ndarray
    checks: tuple[CheckResult, ...] = field(compare=False, repr=False)


@dataclass(frozen=True)
class StabilityReport:
    """Both sides of the two-solution stability inequality with derived constants."""

    left: float
    right: float
    loss_gap_term: float
    process_gap_term: float
    holds: bool


@dataclass(frozen=True)
class ModulusReport:
    """Worst violation of the derived-constant modulus bound over all grid pairs."""

    max_violation: float
    worst_pair: tuple[int, int]
    holds: bool


def expected_loss(t: float, xi: PathFunctional, lattice: PathLattice, loss: LossSpec,
                  shift: float | None = None, policy=None) -> float:
    """E[l(t, X)] for a depth-k functional X, or E[l(t, X + shift)]; with
    ``policy``, the sweep also records its optimal policy there (see
    ``gexpectation.upper_expectation``).

    The shift and the loss are applied inside the backward sweep, one leaf
    block at a time (see ``gexpectation``), so no shifted array and no loss
    array of 4^k values is built. Each block gets the checks a functional of
    the whole shifted array and of the whole loss array would get: finite
    shifted values, one loss value per point and finite loss values, with
    the same errors. Rounding is monotone, so every shifted value is finite
    when X's smallest and largest values (``value_range``, which the
    functional's own finiteness check takes) shift to finite values
    (``lattice._shift_stays_finite``); only otherwise is each shifted block
    checked. The sweep checks the loss values (see ``gexpectation._sweep``).
    """
    check_shifted = shift is not None and not _shift_stays_finite(xi.value_range, float(shift))

    def leaf_map(block: np.ndarray) -> np.ndarray:
        if check_shifted:
            with np.errstate(over="ignore"):  # an overflow fails the check
                block = block + shift
            _require_finite(block)
        elif shift is not None:
            block = block + shift
        values = loss(t, block)
        if values.shape != block.shape:
            raise DepthMismatchError(
                f"loss at depth {xi.depth} returned shape {values.shape} "
                f"for points of shape {block.shape}"
            )
        return values

    return upper_expectation(lattice, xi, leaf_map=leaf_map, policy=policy)


def _smallest_nonneg_point(
    phi: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float,
    context: str,
    f_zero: float,
    f_hi: float | None = None,
) -> float:
    """ITP search for the smallest x with phi(x) >= 0, phi increasing.

    Returns the feasible endpoint hi of a final bracket with phi(lo) < 0 <=
    phi(hi) and hi - lo <= tol. f_zero is the caller's known phi(0), used
    when a bracket end sits at 0, and f_hi, if given, its known phi(hi). The
    bracket [lo, hi] is widened geometrically if the sign change is not
    inside; a persistent failure raises BracketError since brackets come
    from declared constants.

    Each step takes the regula-falsi point, kept tol/2 inside the bracket,
    and projects it into ITP's minmax envelope around the midpoint
    (Oliveira & Takahashi, ACM TOMS 2021), so a bracket of width w closes
    within ceil(log2(w / tol)) + 2 interior evaluations: at most two more
    than bisection, and about two on the affine maps of linear losses.
    ITP's truncation step is left out, since it pushes every step to the
    same side of a root that sits at the bracket edge.
    """
    if tol <= 0.0:
        raise InvalidParameterError(f"tol must be positive, got {tol}")
    f_lo = f_zero if lo == 0.0 else phi(lo)
    if f_hi is None:
        f_hi = f_zero if hi == 0.0 else phi(hi)
    width = max(hi - lo, tol)
    for _ in range(_MAX_BRACKET_DOUBLINGS):
        if f_hi >= 0.0:
            break
        hi += width
        width *= 2.0
        f_hi = phi(hi)
    else:
        raise BracketError(f"{context}: no sign change up to x={hi}; declared c_l too large?")
    if f_lo >= 0.0:
        width = max(hi - lo, tol)
        for _ in range(_MAX_BRACKET_DOUBLINGS):
            lo -= width
            width *= 2.0
            f_lo = phi(lo)
            if f_lo < 0.0:
                break
        else:
            raise BracketError(f"{context}: phi stays nonnegative down to x={lo}")
    # ITP's minmax envelope: after step j the bracket is no wider than
    # target * 2^(n_half + n0 - j), n_half = ceil(log2((hi - lo) / tol)).
    # target sits a few ulps below tol, so that rounding cannot leave the
    # last bracket an ulp wider than tol.
    envelope = (tol - 8.0 * math.ulp(max(abs(lo), abs(hi)))) * 2.0**_ITP_N0
    span = tol
    while span < hi - lo:
        span *= 2.0
        envelope *= 2.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        x = lo - f_lo * (hi - lo) / (f_hi - f_lo)
        x = min(max(x, lo + 0.5 * tol), hi - 0.5 * tol)
        radius = max(0.5 * (envelope - (hi - lo)), 0.0)
        if abs(x - mid) > radius:
            x = mid + math.copysign(radius, x - mid)
        if not lo < x < hi:
            x = mid
        if not lo < x < hi:
            break
        envelope *= 0.5
        f_x = phi(x)
        if f_x >= 0.0:
            hi, f_hi = x, f_x
        else:
            lo, f_lo = x, f_x
    return hi


def _bracket(f_zero: float, c_l: float, tol: float) -> tuple[float, float]:
    """A bracket [lo, hi] of the smallest x with phi(x) >= 0, for phi
    increasing with slope at least c_l and phi(0) = f_zero.

    The root lies in [0, -f_zero/c_l] (or [-f_zero/c_l, 0]), on the end when
    phi is affine with slope c_l; the pad keeps the sign change inside the
    bracket against rounding. The search may return the padded hi itself,
    so its pad of tol/2 bounds the error of such a shift.
    """
    if f_zero < 0.0:
        return 0.0, -f_zero / c_l + 0.5 * tol
    return -f_zero / c_l - tol, 0.0


def _policy_shift(t: float, support: np.ndarray, x: float, loss: LossSpec, tol: float,
                  context: str) -> float:
    """The smallest y, to tol, with E_P[l(t, X + x + y)] >= 0, for the policy
    P whose 2^k support leaves of X hold ``support`` (``_policy_support``).

    E_P is the mean of the loss over the support, taken as halving sums of
    adjacent pairs, which are the sweep's operations along P on the same
    points X + (x + y): the sweep's maximum dominates each of them, so
    E[l(t, X + x + y)] >= E_P[l(t, X + x + y)] holds in floating point as
    well when the loss gives the same values.
    """

    def policy_loss(y: float) -> float:
        values = loss(t, support + (x + y))
        _require_finite(values)
        while values.size > 1:
            values = 0.5 * (values[0::2] + values[1::2])
        return float(values[0])

    f_zero = policy_loss(0.0)
    lo, hi = _bracket(f_zero, loss.c_l, tol)
    return _smallest_nonneg_point(policy_loss, lo, hi, tol, context, f_zero=f_zero)


def _howard(phi: Callable, t: float, xi: PathFunctional, loss: LossSpec, tol: float,
            context: str, x: float, f_x: float, policy,
            floor: float = -math.inf) -> tuple[float, float, bool]:
    """Howard's policy iteration from x, where the sweep f_x = phi(x) recorded
    ``policy`` (see ``_minimal_shift``), with support solves to
    ``_support_tol(loss, tol)``.

    Returns the last iterate whose sweep was feasible (or x itself), that
    sweep's value, and whether it passed the stopping test 0 <= phi < c_l
    tol. It stops short of the test at a step that rounds to an infeasible
    sweep or does not decrease a feasible x, at a step to a point at or
    below ``floor``, and after ``_HOWARD_STEPS`` steps.
    """
    for _ in range(_HOWARD_STEPS):
        if 0.0 <= f_x < loss.c_l * tol:
            return x, f_x, True
        step = _policy_shift(t, xi.values[_policy_support(policy)], x, loss,
                             _support_tol(loss, tol), context)
        target = x + step
        if f_x >= 0.0 and step >= 0.0 or target <= floor:
            break
        f_target = phi(target, policy)
        if f_target < 0.0:
            break
        x, f_x = target, f_target
    return x, f_x, 0.0 <= f_x < loss.c_l * tol


def _support_tol(loss: LossSpec, tol: float) -> float:
    """The tolerance c_l tol / (2 C_l) of Howard's support solves."""
    return 0.5 * loss.c_l * tol / loss.C_l


def _minimal_shift(
    name: str, t: float, xi: PathFunctional, lattice: PathLattice, loss: LossSpec,
    tol: float, *, start: float = 0.0, nonnegative: bool = False, confirm: bool = True,
) -> tuple[float, float]:
    """Minimal x with E[l(t, x + X)] >= 0, to absolute tolerance tol, among
    all x or, with ``nonnegative``, among x >= 0, and E[l(t, X + x)] from the
    last sweep at x (E[l(t, X)] itself, unshifted, when x is 0.0). It is the
    one entry of every public root: it checks tol, builds the policy record
    (``_policy_record``) and makes every sweep. For a loss with c_l < C_l it
    refuses a tol so small that Howard's support tolerance
    (``_support_tol``) underflows to 0.

    ``start`` guesses x, say by extrapolating the shifts of earlier grid
    times. For a loss with c_l < C_l and a usable start (``_usable_start``),
    Howard's iteration runs from a sweep there, keeping every step above
    tol, so a root it certifies is also minimal among x >= 0. A step at or
    below tol, an uncertified root or an error from one of its sweeps or
    policy steps runs the search from 0, reusing the policy record; so do
    other starts and affine losses. So a start adds no failure that the
    search from 0 would not meet.

    The search from 0 sweeps base = E[l(t, X)] and returns 0.0 when base is
    0, or positive with ``nonnegative``. For base < 0 it starts at 0, where
    phi(0) = base < 0, so the result is positive; for base > 0 it is
    negative.

    A loss declared with c_l = C_l = c is affine in x, and a G-expectation is
    cash-additive and positively homogeneous, so phi(x) = E[l(t, X + x)] =
    base + c x and the root is -base / c. The candidate x = -base / c + tol/2
    then costs one confirming sweep:

    * feasible: the sweep checks phi(x) >= 0;
    * minimal within tol: phi(x - tol) <= base + C_l (x - tol) = -C_l tol/2
      < 0 by the declared upper slope, which ``validate_loss`` certifies.

    With ``confirm=False`` the candidate is returned with the value NaN and
    no confirming sweep, for a caller that confirms it later by a sweep of
    X + x (``sde.picard_solve``); the other paths ignore the flag.

    Any other loss takes Howard's policy iteration (``_howard``). phi is the
    maximum over adapted policies P of the classical E_P[l(t, X + x)], each
    smooth and increasing, so phi has kinks where the optimal policy
    switches, on which regula falsi stalls. Each step takes the optimal
    policy P_j that the sweep at x_j recorded, solves E_{P_j}[l(t, X + x)] =
    0 on P_j's 2^k support leaves to c_l tol / (2 C_l) (``_policy_shift``),
    and sweeps once at the root x_{j+1} for phi(x_{j+1}) and the next
    policy. It returns x_j once 0 <= phi(x_j) < c_l tol. Nothing here needs
    x_0 = 0, so each property holds from any start x_0 with its sweep and
    policy:

    * feasible and decreasing: phi >= E_P for every P, so phi(x_{j+1}) >= 0
      whichever side of the root x_j lies on, and x_{j+1} <= x_j once x_j is
      feasible, since E_{P_j}(x_j) = phi(x_j);
    * terminates: there are finitely many policies, and a repeated one gives
      phi(x_{j+1}) = E_{P_j}(x_{j+1}) < c_l tol / 2;
    * minimal within tol: phi(x_j - tol) <= phi(x_j) - c_l tol < 0 by
      monotonicity, cash additivity and the declared lower slope.

    A step that rounds to phi(x_{j+1}) < 0 or does not decrease x, and a
    root still open after ``_HOWARD_STEPS`` steps, fall back to the bracketed
    search, as does an affine candidate that fails its sweep. Each passes
    the search the value it already knows at the bracket's feasible end.

    A loss whose slopes leave its declared band can stop either method early:
    the affine candidate can pass its sweep, and Howard's stopping test can
    hold, at a shift larger than the minimal one. In ``run`` the
    verifier's flat-off residual flags such a shift wherever A rises.
    """
    _require_tol(tol)
    policy = _policy_record(loss, xi.depth)
    if policy is not None and _support_tol(loss, tol) == 0.0:
        raise InvalidParameterError(
            f"tol={tol} is too small for a loss with c_l={loss.c_l} < C_l={loss.C_l}: "
            f"policy iteration's tolerance c_l tol / (2 C_l) underflows to 0")
    context = f"{name}(t={t:.6g})"
    swept: dict[float, float] = {}

    def phi(x: float, record=None) -> float:
        swept[x] = expected_loss(t, xi, lattice, loss, shift=x, policy=record)
        return swept[x]

    if policy is not None and _usable_start(start, xi):
        try:
            x, f_x, done = _howard(phi, t, xi, loss, tol, context, start,
                                   phi(start, policy), policy, floor=tol)
        except (InvalidParameterError, BracketError):
            # the iteration may visit points above the root that the search
            # from 0 never reaches; a loss that fails there is its to judge
            done = False
        if done and x > tol:
            return x, f_x
    base = expected_loss(t, xi, lattice, loss, policy=policy)
    if base == 0.0 or nonnegative and base > 0.0:
        return 0.0, base
    lo, hi = _bracket(base, loss.c_l, tol)
    f_hi = None
    if policy is None:
        x = -base / loss.c_l + 0.5 * tol
        if not confirm:
            return x, math.nan
        f_x = phi(x)
        if f_x >= 0.0:
            return x, f_x
        if x == hi:
            f_hi = f_x
    else:
        x, f_x, done = _howard(phi, t, xi, loss, tol, context, 0.0, base, policy)
        if done:
            return x, f_x
        if f_x >= 0.0:
            hi, f_hi = x, f_x
    x = _smallest_nonneg_point(phi, lo, hi, tol, context, f_zero=base, f_hi=f_hi)
    # only a search from base > 0 can return its bracket end 0, never swept
    return x, swept.get(x, base)


def _require_tol(tol: float) -> None:
    if not 0.0 < tol < math.inf:
        raise InvalidParameterError(f"tol must be positive and finite, got {tol}")


def _policy_record(loss: LossSpec, depth: int) -> list | None:
    """Room for a depth-k sweep's optimal policy (``upper_expectation``) when
    the loss has c_l < C_l, whose roots take Howard's iteration; None for an
    affine loss, whose root has a closed form."""
    if loss.c_l == loss.C_l:
        return None
    return [np.empty(4**d, dtype=bool) for d in range(depth)]


def _usable_start(start: float, xi: PathFunctional) -> bool:
    """Whether ``start`` is positive and shifts every value of X to a finite
    value, which an infinite start does not."""
    return start > 0.0 and _shift_stays_finite(xi.value_range, start)


def required_shift(
    t: float, xi: PathFunctional, lattice: PathLattice, loss: LossSpec,
    tol: float = DEFAULT_ROOT_TOL, *, start: float = 0.0, with_value: bool = False,
    confirm: bool = True,
) -> float | tuple[float, float]:
    """Minimal x >= 0 with E[l(t, x + X)] >= 0, to absolute tolerance tol,
    found by ``_minimal_shift`` from the guess ``start`` (its docstring says
    how a start is used). It returns 0.0 when E[l(t, X)] >= 0.

    With ``with_value`` it returns (x, E[l(t, X + x)]), the value from the
    last sweep it made at x: E[l(t, X)] itself, unshifted, when x is 0.0.

    With ``confirm=False``, a loss declared with c_l = C_l returns its
    closed-form candidate unconfirmed, with the value NaN: the same x that a
    passing confirming sweep gives, one sweep sooner. The caller must sweep
    X + x itself before it relies on x.
    """
    found = _minimal_shift("required_shift", t, xi, lattice, loss, tol, start=start,
                           nonnegative=True, confirm=confirm)
    return found if with_value else found[0]


def required_shift_signed(
    t: float, xi: PathFunctional, lattice: PathLattice, loss: LossSpec,
    tol: float = DEFAULT_ROOT_TOL,
) -> float:
    """Minimal x (any sign) with E[l(t, x + X)] >= 0.

    The positive part of this is required_shift, up to tolerance. As a risk
    measure it is the cash to add so the position is acceptable: nonincreasing
    in X and translation invariant (rho(X+m) = rho(X) - m).
    """
    return _minimal_shift("required_shift_signed", t, xi, lattice, loss, tol)[0]


risk_measure = required_shift_signed


def centered_loss(
    t: float, z: float, y: PathFunctional, lattice: PathLattice, loss: LossSpec
) -> float:
    """H(t, z, Y) = E[l(t, Y - E[Y] + z)]: strictly increasing in z with slope
    inside the declared bi-Lipschitz band."""
    ey = upper_expectation(lattice, y)
    return expected_loss(t, PathFunctional(y.depth, y.values - ey), lattice, loss, shift=z)


def centered_loss_inverse(
    t: float, z: float, y: PathFunctional, lattice: PathLattice, loss: LossSpec,
    tol: float = DEFAULT_ROOT_TOL,
) -> float:
    """The z-inverse of centered_loss: returns zbar with H(t, zbar, Y) = z
    (within C_l * tol)."""
    ey = upper_expectation(lattice, y)
    centered = PathFunctional(y.depth, y.values - ey)
    # H(t, x, Y) - z = E[(l - z)(t, x + Y - E[Y])]
    return _minimal_shift("centered_loss_inverse", t, centered, lattice, loss.shifted(-z),
                          tol)[0]


def deterministic_skorokhod(s: np.ndarray, barrier: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Classical reflection of the path s above the barrier on a shared grid.

    A_t = max_{u<=t} (s_u - barrier_u)^-  and  x = s + A. Requires
    s[0] >= barrier[0] so that A starts at zero.
    """
    s = np.asarray(s, dtype=float)
    barrier = np.asarray(barrier, dtype=float)
    if s.shape != barrier.shape or s.ndim != 1:
        raise InvalidParameterError(
            f"path and barrier must share a 1-d grid, got {s.shape} vs {barrier.shape}"
        )
    if s[0] < barrier[0]:
        raise InitialConstraintError(
            f"initial value {s[0]} is below the barrier {barrier[0]}"
        )
    compensator = np.maximum.accumulate(np.maximum(barrier - s, 0.0))
    return s + compensator, compensator


def _check_initial_constraint(loss: LossSpec, t0: float, xi: PathFunctional,
                              lattice: PathLattice) -> float:
    """E[l(t0, S_t0)], the sweep of S's first level ``xi``; raises where it
    is below -``DEFAULT_PRECONDITION_TOL``."""
    e0 = expected_loss(t0, xi, lattice, loss)
    if e0 < -DEFAULT_PRECONDITION_TOL:
        raise InitialConstraintError(
            f"E[l(t0, S_t0)] = {e0} < 0 at the initial time t0={t0}"
        )
    return e0


def _shift_guess(shifts: np.ndarray, i: int) -> float:
    """A start for the root at step i: max(2 s_{i-1} - s_{i-2}, 0), the line
    through the two minimal shifts before it (s_{-1} = 0, so step 1 starts at
    s_0 = 0, the search from 0). The paper's modulus estimate bounds how far
    one minimal shift lies from the next."""
    before = shifts[i - 2] if i >= 2 else 0.0
    return max(2.0 * float(shifts[i - 1]) - float(before), 0.0)


def _reusable_losses(losses: np.ndarray, shifts: np.ndarray,
                     compensator: np.ndarray) -> np.ndarray:
    """``losses`` (each root find's E[l(t, S + shift)]) where the compensator
    equals a positive shift, and NaN elsewhere. There X = S + compensator,
    whether formed as a new process or in S's own arrays, is the point of
    the root's last sweep, formed by the same addition, so its sweep would
    give the same bits. A zero shift's value is the sweep of S itself, which
    S + 0.0 matches only where S holds no -0.0, so it is not kept. The start
    level's value is kept as given: ``sde.picard_step`` gives its check's
    sweep of X's start level, which it keeps as the swept array. The direct
    construction keeps none there, and ``_direct_step`` makes the same
    choice one step at a time."""
    kept = (shifts > 0.0) & (compensator == shifts)
    kept[0] = True
    return np.where(kept, losses, np.nan)


def _reflect_level(loss: LossSpec, t: float, xi: PathFunctional, lattice: PathLattice,
                   tol: float, shifts: np.ndarray, i: int, *, confirm: bool = True) -> float:
    """The Skorokhod step's root at step i, on the level ``xi`` at time t:
    the minimal shift, ``required_shift`` from ``_shift_guess`` with
    ``confirm``, written into ``shifts[i]``; returns the value of that
    root's last sweep."""
    shifts[i], value = required_shift(t, xi, lattice, loss, tol, start=_shift_guess(shifts, i),
                                      with_value=True, confirm=confirm)
    return value


def _reflect_levels(loss: LossSpec, U: ProcessOnLattice | None, lattice: PathLattice,
                    tol: float, levels: range, shifts: np.ndarray, losses: np.ndarray,
                    *, confirm: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """``_reflect_level`` at ``levels`` of U, each root's value written into
    ``losses``. ``shifts`` and ``losses`` hold one value per step of A,
    whose last step is the last of ``levels``; the steps below ``levels``
    keep theirs. Returns A, the running max of the shifts, and
    ``_reusable_losses``. U may be None where ``levels`` is empty."""
    times = lattice.grid.times
    k0 = levels.stop - shifts.size
    for k in levels:
        losses[k - k0] = _reflect_level(loss, times[k], U.functional_at(k), lattice, tol, shifts,
                                        k - k0, confirm=confirm)
    # A is the classical reflection of the zero path above the shifts: their
    # running max, since every shift is >= 0
    _, compensator = deterministic_skorokhod(np.zeros(shifts.size), shifts)
    return compensator, _reusable_losses(losses, shifts, compensator)


def _direct_step(loss: LossSpec, t: float, xi: PathFunctional, lattice: PathLattice,
                 tol: float, shifts: np.ndarray, i: int) -> tuple[float, float]:
    """Step i of the direct construction, on the level ``xi`` of S at time
    t, given the minimal shifts of the steps before it in ``shifts``: a_i,
    the running max of the shifts, and E[l(t, S_i + a_i)] from the root's
    last sweep where a_i is that positive shift (``_reusable_losses``), NaN
    elsewhere. Step 0 checks the initial constraint and gives a_0 = 0.0:
    the initial shift is zero by that check, and rounding noise there would
    otherwise break A(0) = 0 exactly."""
    if i == 0:
        _check_initial_constraint(loss, t, xi, lattice)
        return 0.0, math.nan
    value = _reflect_level(loss, t, xi, lattice, tol, shifts, i)
    a = float(np.max(shifts[: i + 1]))
    return a, value if shifts[i] > 0.0 and a == shifts[i] else math.nan


def _reflect_direct(loss: LossSpec, S: ProcessOnLattice, lattice: PathLattice,
                    tol: float = DEFAULT_ROOT_TOL) -> tuple[DeterministicPath, np.ndarray]:
    """The direct construction's A and reusable losses, one ``_direct_step``
    per level of S in order, for its caller to form X = S + A."""
    times = lattice.grid.times
    steps = range(S.start_step, S.end_step + 1)
    shifts, a, losses = np.zeros(len(steps)), np.empty(len(steps)), np.empty(len(steps))
    for i, k in enumerate(steps):
        a[i], losses[i] = _direct_step(loss, times[k], S.functional_at(k), lattice, tol, shifts, i)
    return DeterministicPath(times[steps.start : steps.stop], a), losses


def solve_mean_reflection_direct(loss: LossSpec, S: ProcessOnLattice, lattice: PathLattice,
                                 tol: float = DEFAULT_ROOT_TOL) -> SkorokhodSolution:
    """Construction via the running supremum of minimal shifts; X = S + A
    is a new process, and S is not written."""
    A, losses = _reflect_direct(loss, S, lattice, tol)
    return SkorokhodSolution(X=S.shifted(A.values), A=A, expected_losses=losses)


def solve_mean_reflection_reduced(
    loss: LossSpec,
    S: ProcessOnLattice,
    lattice: PathLattice,
    tol: float = DEFAULT_ROOT_TOL,
) -> SkorokhodSolution:
    """Construction via the deterministic Skorokhod problem for E[S_t] against
    the barrier solving the centered-loss equation.

    Each level is swept once for its mean, which also centres it: the
    barrier is ``centered_loss_inverse`` at z = 0, whose loss l - 0.0 is l
    bit for bit."""
    times = lattice.grid.times
    k0, k1 = S.start_step, S.end_step
    _check_initial_constraint(loss, times[k0], S.functional_at(k0), lattice)
    n = k1 - k0 + 1
    means = np.zeros(n)
    barrier = np.zeros(n)
    for k in range(k0, k1 + 1):
        i = k - k0
        means[i] = upper_expectation(lattice, S.functional_at(k))
        centered = PathFunctional(k, S.at(k) - means[i])
        barrier[i] = _minimal_shift("centered_loss_inverse", times[k], centered, lattice, loss,
                                    tol)[0]
    del centered  # the top level's copy would stay alive while X is built
    # the initial constraint makes barrier[0] <= means[0] up to root noise
    barrier[0] = min(barrier[0], means[0])
    _, compensator = deterministic_skorokhod(means, barrier)
    return SkorokhodSolution(
        X=S.shifted(compensator),
        A=DeterministicPath(times[k0 : k1 + 1], compensator),
    )


def verify_mean_reflection(
    solution: SkorokhodSolution,
    loss: LossSpec,
    S: ProcessOnLattice | None,
    lattice: PathLattice,
    tol: float = DEFAULT_ROOT_TOL,
    *,
    expected_losses: np.ndarray | None = None,
) -> VerificationReport:
    """Check the three solution conditions of a solve to the positive, finite
    root tolerance ``tol`` by the five checks of ``VerificationReport``,
    which ``run`` writes as they are.

    flat-off uses the value at the step where the supremum increase lands
    (right endpoint of each increment), which is the one the construction
    drives to zero. Each root is minimal only within tol, so E[l] may reach
    C_l tol where A rises: hence the limit max(1e-8, C_l tol) (1 + A_T -
    A_0), 1e-8 (1 + A_T - A_0) at the default tol for any C_l up to 100.

    ``expected_losses`` may give E[l(t_k, X_k)] for the checked steps, NaN
    where unknown, as a solver's ``SkorokhodSolution.expected_losses`` does
    for the loss it solved with: the root finds' last sweeps, at every step
    where A equals a positive minimal shift, and Picard's sweeps of X at its
    other steps with a positive shift and start levels. Each known value is
    taken as it is, and only the other steps are swept: the first step of a
    direct construction, steps where the constraint is slack, and the
    steps where A carries an earlier, larger shift in a direct construction
    or in a Picard subinterval solved with every root confirmed.

    X fixes the checked steps: A needs one value per step, and an S given
    with X must share its lattice and steps.

    A run passes S as None: S = X - A by definition, so the
    ``identity_residual`` is 0, read from no level, or NaN where some level's
    kept range minus a_k is not finite; rounding is monotone, as in
    ``expected_loss``. Each level's two values come from ``_level_values``,
    which an ``sp_only`` run calls on each level as it streams, and
    ``_verdict`` judges them. Only a caller that passes S has X compared
    with it, |X_k - (S_k + a_k)| one 4^8 block at a time, with a NaN in any
    block carried through. ``expected_losses``, if given, holds one value
    per checked step.
    """
    _require_tol(tol)
    times = lattice.grid.times
    a = solution.A.values
    X = solution.X
    if S is not None:
        _require_same_range(X, S)
    steps = range(X.start_step, X.end_step + 1)
    if a.size != len(steps):
        raise GridMismatchError(
            f"A has {a.size} values for the {len(steps)} steps {steps[0]}..{steps[-1]}")
    if expected_losses is not None and np.shape(expected_losses) != (len(steps),):
        raise GridMismatchError(
            f"expected_losses has shape {np.shape(expected_losses)} for the {len(steps)} "
            f"steps {steps[0]}..{steps[-1]}")
    known = np.full(len(steps), np.nan) if expected_losses is None else expected_losses
    identity, constraint = np.empty(len(steps)), np.empty(len(steps))
    if S is None:
        for i, k in enumerate(steps):
            identity[i], constraint[i] = _level_values(times[k], X.functional_at(k), a[i], loss,
                                                       lattice, known[i])
        return _verdict(a, identity, constraint, loss, tol)
    scratch = np.empty(min(4**steps[-1], 4**_lattice._BLOCK_LEVELS))
    for i, k in enumerate(steps):
        x = X.at(k)
        # the same operations per element as |X_k - (S_k + a_i)|, with a NaN
        # carried through the max
        gaps = []
        for part in _level_blocks(x.size):
            gap = scratch[: x[part].size]
            np.add(S.at(k)[part], a[i], out=gap)
            np.subtract(x[part], gap, out=gap)
            gaps.append(np.max(np.abs(gap, out=gap)))
        identity[i] = np.max(gaps)
    for i, k in enumerate(steps):
        constraint[i] = known[i] if not math.isnan(known[i]) else expected_loss(
            times[k], X.functional_at(k), lattice, loss)
    return _verdict(a, identity, constraint, loss, tol)


def _level_values(t: float, xi: PathFunctional, a: float, loss: LossSpec, lattice: PathLattice,
                  known: float) -> tuple[float, float]:
    """The two values the verifier gathers at one level X_k = ``xi`` at time
    t, with S_k = X_k - a_k by definition: the identity residual, 0.0, or
    NaN where some X_k - a_k is not finite, read from X_k's kept range
    (rounding is monotone, as in ``expected_loss``); and E[l(t, X_k)],
    ``known`` where it is a number and one sweep of X_k elsewhere."""
    identity = 0.0 if _shift_stays_finite(xi.value_range, -float(a)) else math.nan
    if math.isnan(known):
        known = expected_loss(t, xi, lattice, loss)
    return identity, known


def _verdict(a: np.ndarray, identity: np.ndarray, constraint: np.ndarray, loss: LossSpec,
             tol: float) -> VerificationReport:
    """The verifier's report from A and the values gathered at each of its
    steps: the identity residual and E[l(t_k, X_k)]."""
    # np.max carries a NaN level residual
    identity = float(np.max(identity))
    constraint_min = float(constraint.min())
    flatoff = float(np.sum(constraint[1:] * np.diff(a)))
    flatoff_limit = max(DEFAULT_PRECONDITION_TOL, loss.C_l * tol) * (1.0 + float(a[-1] - a[0]))
    min_step = float(np.min(np.diff(a))) if a.size > 1 else 0.0
    checks = (
        CheckResult("identity_residual", identity, IDENTITY_TOL, identity <= IDENTITY_TOL),
        CheckResult("constraint_min", constraint_min, -DEFAULT_PRECONDITION_TOL,
                    constraint_min >= -DEFAULT_PRECONDITION_TOL),
        CheckResult("flatoff_residual", flatoff, flatoff_limit, flatoff <= flatoff_limit),
        CheckResult("compensator_nondecreasing", min_step, 0.0, min_step >= 0.0),
        CheckResult("compensator_starts_at_zero", float(a[0]), 0.0, bool(a[0] == 0.0)),
    )
    return VerificationReport(
        identity_residual=identity,
        constraint_min=constraint_min,
        flatoff_residual=flatoff,
        passed=all(check.passed for check in checks),
        expected_losses=constraint,
        checks=checks,
    )


def _require_same_range(s1: ProcessOnLattice, s2: ProcessOnLattice) -> None:
    if s1.lattice is not s2.lattice or s1.start_step != s2.start_step or s1.end_step != s2.end_step:
        raise GridMismatchError("both processes must live on the same lattice and step range")


def stability_gap(
    sol1: SkorokhodSolution,
    sol2: SkorokhodSolution,
    loss1: LossSpec,
    loss2: LossSpec,
    S1: ProcessOnLattice,
    S2: ProcessOnLattice,
    lattice: PathLattice,
    loss_gap: Callable[[float], float],
    slack: float = 1e-8,
) -> StabilityReport:
    """Evaluate sup|A1-A2| against the derived-constant bound.

    loss_gap(t) must supply sup_x |l1(t,x) - l2(t,x)| exactly for the
    perturbation family under test. The constants 1/c_l and 1 + 2*C_l/c_l
    come from the reduction construction; the conservative band
    (min c_l, max C_l) is used when the two losses declare different ones.
    """
    _require_same_range(S1, S2)
    times = lattice.grid.times
    k0, k1 = S1.start_step, S1.end_step
    c = min(loss1.c_l, loss2.c_l)
    big_c = max(loss1.C_l, loss2.C_l)
    left = float(np.max(np.abs(sol1.A.values - sol2.A.values)))
    worst_loss_gap = max(loss_gap(float(times[k])) for k in range(k0, k1 + 1))
    worst_s_gap = max(
        upper_expectation(lattice, PathFunctional(k, np.abs(S1.at(k) - S2.at(k))))
        for k in range(k0, k1 + 1)
    )
    loss_term = worst_loss_gap / c
    process_term = (1.0 + 2.0 * big_c / c) * worst_s_gap
    right = loss_term + process_term
    return StabilityReport(
        left=left,
        right=right,
        loss_gap_term=loss_term,
        process_gap_term=process_term,
        holds=left <= right + slack,
    )


def compensator_modulus_gap(
    solution: SkorokhodSolution,
    loss: LossSpec,
    S: ProcessOnLattice,
    lattice: PathLattice,
    slack: float = 1e-8,
) -> ModulusReport:
    """Check |A_t - A_s| <= (1 + 2C_l/c_l) sup_{r in [s,t]} E|S_r - S_s|
    + F(t-s)/c_l over every grid pair, with the constants of the stability
    bound applied to the time-frozen comparison process."""
    times = lattice.grid.times
    k0, k1 = S.start_step, S.end_step
    n = k1 - k0 + 1
    a = solution.A.values
    factor = 1.0 + 2.0 * loss.C_l / loss.c_l
    # gap[i][j]: E|S_{k0+j} - S_{k0+i}| for i <= j
    gap = np.zeros((n, n))
    for i in range(n):
        base = S.at(k0 + i)
        for j in range(i + 1, n):
            lifted = lift_values(base, k0 + i, k0 + j)
            gap[i, j] = upper_expectation(
                lattice, PathFunctional(k0 + j, np.abs(S.at(k0 + j) - lifted))
            )
    worst = -np.inf
    worst_pair = (k0, k0)
    for i in range(n):
        running = 0.0
        for j in range(i + 1, n):
            running = max(running, gap[i, j])
            lhs = abs(a[j] - a[i])
            rhs = factor * running + loss.time_modulus(float(times[k0 + j] - times[k0 + i])) / loss.c_l
            if lhs - rhs > worst:
                worst = lhs - rhs
                worst_pair = (k0 + i, k0 + j)
    return ModulusReport(max_violation=float(worst), worst_pair=worst_pair,
                         holds=worst <= slack)
