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

All root finding is plain bisection; the declared bi-Lipschitz band of the
loss supplies the brackets, so a bracket failure means a wrong declaration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    BracketError,
    GridMismatchError,
    InitialConstraintError,
    InvalidParameterError,
)
from .gexpectation import upper_expectation
from .lattice import PathFunctional, PathLattice, ProcessOnLattice, lift_values
from .loss import LossSpec

DEFAULT_ROOT_TOL = 1e-10
# how far below zero the initial constraint may sit before we refuse to solve
DEFAULT_PRECONDITION_TOL = 1e-8

# a few doublings absorb rounding noise at the bracket edge; anything more
# means the declared constants are wrong and must surface as BracketError
_MAX_BRACKET_DOUBLINGS = 8


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
        if len(self.times) > 1 and np.any(np.diff(self.times) <= 0.0):
            raise InvalidParameterError("path times must be strictly increasing")

    @property
    def is_compensator(self) -> bool:
        return self.values[0] == 0.0 and not np.any(np.diff(self.values) < 0.0)


@dataclass(frozen=True)
class SkorokhodSolution:
    """The pair (X, A): reflected process plus deterministic compensator."""

    X: ProcessOnLattice
    A: DeterministicPath

    @property
    def start_step(self) -> int:
        return self.X.start_step

    @property
    def end_step(self) -> int:
        return self.X.end_step


@dataclass(frozen=True)
class VerificationReport:
    identity_residual: float
    constraint_min: float
    flatoff_residual: float
    passed: bool


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


def expected_loss(t: float, xi: PathFunctional, lattice: PathLattice, loss: LossSpec) -> float:
    """E[l(t, X)] for a depth-k functional X."""
    return upper_expectation(lattice, PathFunctional(xi.depth, loss(t, xi.values)))


def _smallest_nonneg_point(
    phi: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float,
    context: str,
) -> float:
    """Bisection for the smallest x with phi(x) >= 0, phi increasing.

    The bracket [lo, hi] is widened geometrically if the sign change is not
    inside; a persistent failure raises BracketError since brackets come from
    declared constants.
    """
    if tol <= 0.0:
        raise InvalidParameterError(f"tol must be positive, got {tol}")
    f_lo, f_hi = phi(lo), phi(hi)
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
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if phi(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def _minimal_shift(
    name: str, t: float, xi: PathFunctional, lattice: PathLattice, loss: LossSpec,
    tol: float, base: float,
) -> float:
    """Minimal x with E[l(t, x + X)] >= 0, given base = E[l(t, X)] != 0.

    For base < 0 the search starts at 0, where phi(0) = base < 0, so the
    result is positive; for base > 0 it is negative.
    """

    def phi(x: float) -> float:
        return expected_loss(t, PathFunctional(xi.depth, xi.values + x), lattice, loss)

    if base < 0.0:
        lo, hi = 0.0, -base / loss.c_l + tol
    else:
        lo, hi = -base / loss.c_l - tol, 0.0
    return _smallest_nonneg_point(phi, lo, hi, tol, context=f"{name}(t={t:.6g})")


def required_shift(
    t: float, xi: PathFunctional, lattice: PathLattice, loss: LossSpec,
    tol: float = DEFAULT_ROOT_TOL,
) -> float:
    """Minimal x >= 0 with E[l(t, x + X)] >= 0, to absolute tolerance tol."""
    base = expected_loss(t, xi, lattice, loss)
    if base >= 0.0:
        return 0.0
    return _minimal_shift("required_shift", t, xi, lattice, loss, tol, base)


def required_shift_signed(
    t: float, xi: PathFunctional, lattice: PathLattice, loss: LossSpec,
    tol: float = DEFAULT_ROOT_TOL,
) -> float:
    """Minimal x (any sign) with E[l(t, x + X)] >= 0.

    The positive part of this is required_shift, up to tolerance. As a risk
    measure it is the cash to add so the position is acceptable: nonincreasing
    in X and translation invariant (rho(X+m) = rho(X) - m).
    """
    base = expected_loss(t, xi, lattice, loss)
    if base == 0.0:
        return 0.0
    return _minimal_shift("required_shift_signed", t, xi, lattice, loss, tol, base)


risk_measure = required_shift_signed


def centered_loss(
    t: float, z: float, y: PathFunctional, lattice: PathLattice, loss: LossSpec
) -> float:
    """H(t, z, Y) = E[l(t, Y - E[Y] + z)]: strictly increasing in z with slope
    inside the declared bi-Lipschitz band."""
    ey = upper_expectation(lattice, y)
    return expected_loss(t, PathFunctional(y.depth, y.values - ey + z), lattice, loss)


def centered_loss_inverse(
    t: float, z: float, y: PathFunctional, lattice: PathLattice, loss: LossSpec,
    tol: float = DEFAULT_ROOT_TOL,
) -> float:
    """The z-inverse of centered_loss: returns zbar with H(t, zbar, Y) = z
    (within C_l * tol)."""
    ey = upper_expectation(lattice, y)
    centered = y.values - ey

    def psi(x: float) -> float:
        return expected_loss(t, PathFunctional(y.depth, centered + x), lattice, loss) - z

    h0 = psi(0.0) + z  # H(t, 0, Y)
    a = (z - h0) / loss.C_l
    b = (z - h0) / loss.c_l
    lo, hi = min(a, b) - tol, max(a, b) + tol
    return _smallest_nonneg_point(psi, lo, hi, tol,
                                  context=f"centered_loss_inverse(t={t:.6g})")


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


def _check_initial_constraint(loss: LossSpec, S: ProcessOnLattice, lattice: PathLattice) -> None:
    t0 = lattice.grid.times[S.start_step]
    e0 = expected_loss(t0, S.functional_at(S.start_step), lattice, loss)
    if e0 < -DEFAULT_PRECONDITION_TOL:
        raise InitialConstraintError(
            f"E[l(t0, S_t0)] = {e0} < 0 at the initial time t0={t0}"
        )


def solve_mean_reflection_direct(
    loss: LossSpec,
    S: ProcessOnLattice,
    lattice: PathLattice,
    tol: float = DEFAULT_ROOT_TOL,
) -> SkorokhodSolution:
    """Construction via the running supremum of minimal shifts."""
    _check_initial_constraint(loss, S, lattice)
    times = lattice.grid.times
    k0, k1 = S.start_step, S.end_step
    shifts = np.zeros(k1 - k0 + 1)
    # the initial shift is zero by the checked constraint; rounding noise there
    # would otherwise break A(0) = 0 exactly
    for k in range(k0 + 1, k1 + 1):
        shifts[k - k0] = required_shift(times[k], S.functional_at(k), lattice, loss, tol)
    compensator = np.maximum.accumulate(shifts)
    return SkorokhodSolution(
        X=S.shifted(compensator),
        A=DeterministicPath(times[k0 : k1 + 1], compensator),
    )


def solve_mean_reflection_reduced(
    loss: LossSpec,
    S: ProcessOnLattice,
    lattice: PathLattice,
    tol: float = DEFAULT_ROOT_TOL,
) -> SkorokhodSolution:
    """Construction via the deterministic Skorokhod problem for E[S_t] against
    the barrier solving the centered-loss equation."""
    _check_initial_constraint(loss, S, lattice)
    times = lattice.grid.times
    k0, k1 = S.start_step, S.end_step
    n = k1 - k0 + 1
    means = np.zeros(n)
    barrier = np.zeros(n)
    for k in range(k0, k1 + 1):
        xi = S.functional_at(k)
        means[k - k0] = upper_expectation(lattice, xi)
        barrier[k - k0] = centered_loss_inverse(times[k], 0.0, xi, lattice, loss, tol)
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
    S: ProcessOnLattice,
    lattice: PathLattice,
    tol: float = DEFAULT_PRECONDITION_TOL,
) -> VerificationReport:
    """Check the three solution conditions and report residuals.

    flat-off uses the value at the step where the supremum increase lands
    (right endpoint of each increment), which is the one the construction
    drives to zero.
    """
    times = lattice.grid.times
    k0, k1 = S.start_step, S.end_step
    a = solution.A.values
    identity = 0.0
    constraint = np.empty(k1 - k0 + 1)
    for k in range(k0, k1 + 1):
        i = k - k0
        identity = max(identity, float(np.max(np.abs(solution.X.at(k) - (S.at(k) + a[i])))))
        constraint[i] = expected_loss(times[k], solution.X.functional_at(k), lattice, loss)
    flatoff = float(np.sum(constraint[1:] * np.diff(a)))
    passed = bool(
        identity <= 1e-12
        and constraint.min() >= -tol
        and flatoff <= tol * (a[-1] - a[0] + 1.0)
    )
    return VerificationReport(
        identity_residual=identity,
        constraint_min=float(constraint.min()),
        flatoff_residual=flatoff,
        passed=passed,
    )


def _require_same_range(s1: ProcessOnLattice, s2: ProcessOnLattice) -> None:
    if s1.lattice is not s2.lattice or s1.start_step != s2.start_step or s1.end_step != s2.end_step:
        raise GridMismatchError("both solutions must live on the same lattice and step range")


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
