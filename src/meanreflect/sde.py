"""Mean-reflected SDE solver on the lattice.

The state equation integrates drift, a quadratic-variation drift and a
diffusion term per scenario:

    X_{k+1} = X_k + b(t_k, .) dt + h(t_k, .) dQV_k + sigma(t_k, .) dB_k

with the per-child increments dB_k, dQV_k read off the lattice.
``picard_solve`` iterates the map "integrate driven by U, then reflect" to
its fixed point on subintervals short enough to contract, in one loop over
subintervals and iterations, then pastes the compensators. Its result is the
Skorokhod pair (X, A) plus the solver's diagnostics; the unreflected part
U = X - A is derived from the pair on first read.

An iteration recomputes only from the first level at which its driver
differs bit for bit from the previous driver: U at a level depends only on
the driver below it, so the unreflected values, minimal shifts and X levels
beneath are the previous iterate's. The compensator is still the running max
over all shifts, so every value equals that of a full pass. Since the
equation is causal, iterate j is exact up to step j, and a solve of n steps
from x0 typically takes n(n+1)/2 Euler steps and root finds where full passes
take n(n+1); its confirming last iteration recomputes nothing.

Only the fixed point has to carry certified minimal shifts. So the iterates
take the closed-form root of an affine loss without its confirming sweep,
and the converged iterate sweeps X once at each level with a positive shift
and no known value. A is the running max of the shifts. Where A is the
level's shift, X is U plus that shift by the same addition, so the sweep is
the skipped one bit for bit; where A carries an earlier, larger shift, a
value >= 0 shows that the level's root does not exceed A, so it moves no A.
A linear-loss solve of n steps makes n(n+1)/2 + n root sweeps where
confirming every root made n(n+1). A negative value sends the subinterval
back through the iteration with every root confirmed, so the result is that
of confirming every root whenever each candidate would pass its own sweep.

An Euler step runs over blocks of 4^7 parents, whose 4^8 children (512 KiB)
are one contiguous subtree block of the child level (see ``lattice``): it
evaluates the coefficients on the block's parents, forms the ``h dQV`` and
``sigma dB`` terms once per volatility (the two sign children of a
volatility share dQV and have opposite dB, bit for bit) and writes each of
the four child columns of the block in one pass, so the strided column
writes stay in L2 and no length-4 broadcast is made. A coefficient that
returns a scalar, as a config's coefficient does for the registry's
constant families, stays a scalar, so its terms cost no pass; a constant h
whose dQV terms have the same bits for both volatilities, as h = 0 gives,
makes one drift for all four children.
The step then takes the min and max of each child block while it is in L2,
and ``integrate_forward`` and ``integrate_sde`` hand each level they make
its range, so no reader of the level makes a min/max pass for its
functional.

A Picard step shifts each recomputed U level into X and takes its sup
distance and first changed level against the driver one such block at a
time, through one 4^8 scratch buffer, while the block is in L2: the
distance is max(max gap, -min gap), so |gap| takes no pass, and only a
block with no positive gap has its bits compared. The top U level, which
its own Euler steps produced and no step starts from, becomes X in place;
U's functionals are dropped before that write. Each X level takes its U
level's range plus its shift (adding one constant is monotone, see
``ProcessOnLattice._adopt``), so the
confirming sweeps, the verifier and the CSV pass of a run share one
functional per X level and make no min/max pass. Every value is bitwise
that of the plain expression over whole levels, and no array a caller
passed in is written.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import lattice as _lattice
from .errors import (
    GridMismatchError,
    InitialConstraintError,
    InvalidParameterError,
    NonContractionError,
    SolverError,
)
from .gexpectation import upper_expectation
from .lattice import (
    PathFunctional,
    PathLattice,
    ProcessOnLattice,
    TimeGrid,
    VolatilityBand,
    _level_blocks,
    _parent_blocks,
    build_lattice,
    constant_process,
)
from .loss import (
    LossSpec,
    LossValidationReport,
    _adjacent_certified,
    _check_sample_box,
    _pair_bound_sides,
)
from .reflection import (
    DEFAULT_ROOT_TOL,
    DeterministicPath,
    SkorokhodSolution,
    _check_initial_constraint,
    _reflect_levels,
    expected_loss,
)

# an observed Picard ratio at or above the guard halves the subinterval, and a
# subinterval of the minimum length in steps that reaches it fails
CONTRACTION_GUARD = 0.5
MIN_SUBINTERVAL_STEPS = 1


@dataclass(frozen=True)
class Coefficients:
    """Coefficient triple (b, h, sigma), each (t, x) -> value, with a shared
    Lipschitz constant kappa in x, any real in [0, inf): 0 for constant
    coefficients. Callables must accept ndarray x and act on it
    value by value (or return a scalar): the Euler step evaluates them on one
    block of nodes at a time, and keeps a scalar result as a scalar."""

    b: Callable[[float, np.ndarray], np.ndarray]
    h: Callable[[float, np.ndarray], np.ndarray]
    sigma: Callable[[float, np.ndarray], np.ndarray]
    kappa: float

    def __post_init__(self):
        if not 0.0 <= self.kappa < math.inf:
            raise InvalidParameterError(f"kappa must be finite and >= 0, got {self.kappa}")


def _coeff_block(fn: Callable, t: float, x: np.ndarray) -> np.ndarray | float:
    """A coefficient on the nodes ``x``: a float where ``fn`` returns a
    scalar, else one value per node."""
    out = np.asarray(fn(t, x), dtype=float)
    return out if out.ndim else float(out)


def _eval_coeff(fn: Callable, t: float, x: np.ndarray) -> np.ndarray:
    """A coefficient on the nodes ``x``, one value per node."""
    out = _coeff_block(fn, t, x)
    return np.full_like(x, out) if isinstance(out, float) else out


def validate_coefficients(
    coeffs: Coefficients,
    t_max: float = 1.0,
    x_box: tuple[float, float] = (-5.0, 5.0),
) -> LossValidationReport:
    """Spot-check |f(t,x) - f(t,x')| <= kappa |x - x'| for each coefficient
    on a 20 x 80 grid of (t, x), with a slack of rtol (1 + |x - x'|), rtol =
    loss._SPOT_RTOL, reporting the first violating time of each coefficient.
    Each coefficient is evaluated at every sample time before its pairs are
    checked. Where the adjacent differences certify a time
    (``loss._adjacent_certified``, with low = 0 and high = kappa), the
    (80, 80) pair matrix is not built. The boxes must be finite, as a
    ``LossSpec``'s are.
    """
    _check_sample_box(x_box, t_max, "t_max")
    bad: list[str] = []
    ts = np.linspace(0.0, t_max, 20)
    xs = np.linspace(x_box[0], x_box[1], 80)
    for label, fn in (("b", coeffs.b), ("h", coeffs.h), ("sigma", coeffs.sigma)):
        v_by_t = [_eval_coeff(fn, float(t), xs) for t in ts]
        certified = np.zeros(ts.size, dtype=bool)
        if all(v.shape == xs.shape for v in v_by_t):
            certified = _adjacent_certified(xs, np.stack(v_by_t), 0.0, coeffs.kappa)
        sides = _pair_bound_sides(xs, v_by_t, 0.0, coeffs.kappa, certified)
        for t, side in zip(ts, sides):
            if side is not None:
                bad.append(
                    f"coefficient {label} violates the Lipschitz bound kappa={coeffs.kappa} "
                    f"at t={t:.4g}"
                )
                break
    return LossValidationReport(violations=tuple(bad))


@dataclass(frozen=True)
class MRSDEProblem:
    """Problem data for the mean-reflected equation; requires a finite x0
    with l(0, x0) >= 0 and a finite moment order p >= 1."""

    x0: float
    coeffs: Coefficients
    loss: LossSpec
    band: VolatilityBand
    grid: TimeGrid
    p: float = 2.0

    def __post_init__(self):
        if not math.isfinite(self.x0):
            raise InvalidParameterError(f"x0 must be finite, got {self.x0}")
        if not 1.0 <= self.p < math.inf:
            raise InvalidParameterError(f"moment order p must be finite and >= 1, got {self.p}")
        l0 = float(self.loss(0.0, np.array([self.x0]))[0])
        if l0 < 0.0:
            raise InitialConstraintError(
                f"l(0, x0) = {l0} < 0: the mean constraint already fails at time 0"
            )


@dataclass(frozen=True)
class PicardConfig:
    """Settings of ``picard_solve``: the sup-distance tolerance, the first
    subinterval length in steps (the whole horizon when None) and the
    constant first driver (x0 when None).

    The iteration needs no configured cap. The map is causal, so each
    iteration makes at least one more level of X final: an m-step
    subinterval reaches its fixed point, at distance 0, within m + 1
    iterations when the driver's start level is X's (the default guess x0 on
    the first subinterval) and within m + 2 otherwise, unless
    ``CONTRACTION_GUARD`` restarts it. ``picard_solve`` stops each attempt
    at m + 2 iterations."""

    tol: float = DEFAULT_ROOT_TOL
    delta_initial_steps: int | None = None
    initial_guess: float | None = None

    def __post_init__(self):
        if not math.isfinite(self.tol):
            raise InvalidParameterError(f"tol must be finite, got {self.tol}")
        if self.tol <= 0.0:
            raise InvalidParameterError(f"tol must be positive, got {self.tol}")
        steps = self.delta_initial_steps
        if steps is not None:
            # picard_solve counts with it, so a bool or a float is refused
            if isinstance(steps, bool) or not isinstance(steps, numbers.Integral):
                raise InvalidParameterError(
                    f"delta_initial_steps must be an integer, got {steps!r}")
            if steps < MIN_SUBINTERVAL_STEPS:
                raise InvalidParameterError(
                    f"delta_initial_steps must be >= {MIN_SUBINTERVAL_STEPS}, got {steps}")
        if self.initial_guess is not None and not math.isfinite(self.initial_guess):
            raise InvalidParameterError(
                f"initial_guess must be finite, got {self.initial_guess}")


@dataclass(frozen=True)
class SubintervalDiagnostics:
    """One converged subinterval of ``picard_solve``: its steps, the sup
    distance of each iteration and the observed contraction ratios."""

    start_step: int
    end_step: int
    distances: tuple[float, ...]
    ratios: tuple[float, ...]

    @property
    def iterations(self) -> int:
        return len(self.distances)


@dataclass(frozen=True)
class MRSDESolution(SkorokhodSolution):
    """The fixed point (X, A) with the solver's diagnostics."""

    diagnostics: tuple[SubintervalDiagnostics, ...]
    restarts: int = 0

    @functools.cached_property
    def U(self) -> ProcessOnLattice:
        """The unreflected part U = X - A."""
        return self.X.shifted(-self.A.values)


def _euler_step(coeffs: Coefficients, lattice: PathLattice, t: float,
                cur: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, tuple[float, float]]:
    """One Euler step from the node values ``cur`` to their children, in child
    order, with the coefficients evaluated at ``u``, one parent block at a
    time, and the children's (min, max), taken per block while the block is
    in cache; a NaN child makes both NaN."""
    dt = lattice.grid.dt
    dqv, db = lattice.step_dqv, lattice.step_db
    children = np.empty((cur.size, 4))
    lows, highs = [], []
    for rows in _parent_blocks(cur.size):
        at = u[rows]
        bv, hv, sv = (_coeff_block(fn, t, at) for fn in (coeffs.b, coeffs.h, coeffs.sigma))
        base = cur[rows] + bv * dt
        # The two children of a volatility share dqv bit for bit, so they
        # share its drift term. A constant h whose terms are equal for both
        # volatilities (as h = 0 makes them) gives all four children one
        # drift: both terms carry h's sign, so equal values have equal bits
        if isinstance(hv, float) and hv * dqv[0] == hv * dqv[2]:
            drifts = (base + hv * dqv[0],) * 2
        else:
            drifts = (base + hv * dqv[0], base + hv * dqv[2])
        # one column per child: a length-4 broadcast would loop 4 wide per
        # node. db[c + 1] is -db[c], so x + sv * db[c + 1] is x - sv * db[c]
        # bit for bit
        for c, drift in zip((0, 2), drifts):
            noise = sv * db[c]
            np.add(drift, noise, out=children[rows, c])
            np.subtract(drift, noise, out=children[rows, c + 1])
        block = children[rows]
        with np.errstate(invalid="ignore"):
            lows.append(block.min())
            highs.append(block.max())
    # np.min and np.max, unlike Python's, carry a NaN through
    return children.ravel(), (float(np.min(lows)), float(np.max(highs)))


def integrate_forward(
    coeffs: Coefficients,
    lattice: PathLattice,
    driver: ProcessOnLattice,
    start_step: int,
    end_step: int,
    initial: np.ndarray,
) -> ProcessOnLattice:
    """Per-scenario Euler step from ``initial`` (one value per depth-start node),
    with coefficients evaluated along ``driver``. Exact when the coefficients
    do not depend on x."""
    if not 0 <= start_step <= end_step <= lattice.depth:
        raise InvalidParameterError(
            f"step range {start_step}..{end_step} outside lattice depth {lattice.depth}"
        )
    if not (driver.start_step <= start_step and driver.end_step >= end_step):
        raise InvalidParameterError("driver process does not cover the integration range")
    initial = np.asarray(initial, dtype=float)
    if initial.shape != (4**start_step,):
        raise InvalidParameterError(
            f"initial values need shape ({4**start_step},), got {initial.shape}"
        )
    return _integrate(coeffs, lattice, start_step, end_step, initial, driver.at)


def integrate_sde(
    coeffs: Coefficients,
    lattice: PathLattice,
    x0: float,
) -> ProcessOnLattice:
    """Unreflected SDE solved per scenario, coefficients fed its own state.

    Each path's recursion is closed-form Euler, so no iteration is needed;
    used for driver processes such as arithmetic paths.
    """
    return _integrate(coeffs, lattice, 0, lattice.depth, np.array([float(x0)]))


def _integrate(coeffs: Coefficients, lattice: PathLattice, start_step: int, end_step: int,
               initial: np.ndarray, driver_at: Callable | None = None) -> ProcessOnLattice:
    """Euler steps from ``initial`` at ``start_step`` to ``end_step``, with
    the coefficients evaluated at ``driver_at(k)`` (at the state itself
    without one). Each level a step made carries the range the step took
    (``ProcessOnLattice._keep_range``)."""
    times = lattice.grid.times
    values, ranges = [initial], []
    cur = initial
    for k in range(start_step, end_step):
        at = cur if driver_at is None else driver_at(k)
        cur, value_range = _euler_step(coeffs, lattice, float(times[k]), cur, at)
        values.append(cur)
        ranges.append(value_range)
    process = ProcessOnLattice(lattice, start_step, tuple(values))
    for k, value_range in enumerate(ranges, start_step + 1):
        process._keep_range(k, value_range)
    return process


@dataclass(frozen=True)
class PicardStepResult:
    """One application of the map and what the next application reuses.

    ``distance`` is the sup distance between ``solution.X`` and the driver;
    ``changed_from`` is the first level at which they differ bit for bit
    (``end_step + 1`` if none). ``shifts`` are the minimal shifts before the
    running max, and ``unreflected`` is U at level ``changed_from``, where the
    next step starts its Euler steps; it is None from the top level on, since
    no step starts there.
    """

    solution: SkorokhodSolution
    distance: float
    changed_from: int
    shifts: np.ndarray
    unreflected: np.ndarray | None


def picard_step(
    problem: MRSDEProblem,
    lattice: PathLattice,
    driver: ProcessOnLattice,
    start_step: int,
    end_step: int,
    initial: np.ndarray | PathFunctional | None = None,
    tol: float = DEFAULT_ROOT_TOL,
    previous: PicardStepResult | None = None,
    *,
    confirm: bool = True,
) -> PicardStepResult:
    """One application of the contraction map: integrate driven by ``driver``,
    then reflect. Its fixed points solve the subinterval problem.

    The roots are those of ``reflection._reflect_levels``, the direct
    construction's level loop: each starts from the line through the two
    minimal shifts below it (``reflection._shift_guess``), and the solution
    keeps the value of each root's last sweep where A is that root
    (``SkorokhodSolution.expected_losses``).

    ``previous`` is the step whose X is ``driver``. U at a level depends only
    on the driver below it, so up to ``previous.changed_from`` this step
    equals the previous one: it keeps U, the minimal shifts, their sweeps'
    values and the X levels there and recomputes the Euler steps and root
    finds above, each from the same start. Every value is the same
    operation on the same inputs as in a full pass. Without ``previous`` the
    step is a full pass, which keeps its start level alike: X's level
    ``start_step`` is the array it starts from (``initial``, or ``[x0 +
    0.0]``), and its ``expected_losses`` value is the initial check's sweep.
    Given as a functional, ``initial`` hands its kept range to that check, as
    ``picard_solve`` passes the last X level of the previous subinterval.

    Each root is one call of ``required_shift``, which takes ``confirm``.
    With ``confirm=False`` a closed-form candidate stays unconfirmed, with
    the value NaN, and ``picard_solve`` checks the converged iterate's
    candidates by sweeps of X (``_confirm_candidates``). Where every
    candidate would pass its sweep, the step's shifts, X and A are bitwise
    those of ``confirm=True``.

    The root finds read the functionals ``integrate_forward`` made with the
    Euler steps' ranges, and the solution's X levels carry U's range plus
    their shift, or, where kept, the kept array's functional.
    """
    k0 = start_step
    loss = problem.loss
    times = lattice.grid.times
    kept_start = None
    if isinstance(initial, PathFunctional):
        kept_start, initial = initial, initial.values
    # X keeps its levels up to base, and U from level base on gives the rest
    if previous is None:
        if initial is None:
            if start_step != 0:
                raise InvalidParameterError("initial node values required when start_step > 0")
            initial = np.array([problem.x0 + 0.0])
        base, start = k0, initial
        shifts = np.zeros(end_step - k0 + 1)
        losses = np.full(end_step - k0 + 1, np.nan)
    else:
        same_range = (driver.start_step, driver.end_step) == (k0, end_step)
        if driver is not previous.solution.X or not same_range:
            raise InvalidParameterError("previous must be the step whose X is the driver")
        base, start = min(previous.changed_from, end_step), previous.unreflected
        shifts = previous.shifts.copy()
        losses = previous.solution.expected_losses.copy()
    fresh = base + 1
    forward = None
    if start is not None:
        forward = integrate_forward(problem.coeffs, lattice, driver, base, end_step, start)
    kept = driver
    if previous is None:
        # a full pass keeps the level it starts from, which its check sweeps
        kept = forward
        if kept_start is not None:
            forward._keep_range(k0, kept_start.value_range)
        losses[0] = _check_initial_constraint(loss, forward, lattice)
    u = list(forward.values) if forward is not None else []
    root_levels = range(fresh, end_step + 1)
    # the Euler step took U's range, so the root finds make no pass for it
    compensator, losses = _reflect_levels(loss, forward, lattice, tol, root_levels, shifts,
                                          losses, confirm=confirm)
    # this step's Euler made the top U level and no step starts from it, so
    # it becomes X in place
    x = [*kept.values[: base - k0 + 1],
         *(u[k - base] if k == end_step else np.empty_like(u[k - base]) for k in root_levels)]
    X = ProcessOnLattice(lattice, k0, tuple(x))
    # X shares the kept levels' functionals and takes U's ranges plus the
    # shift above. _adopt reads no values, so X's are written below; U's
    # functionals end here, before the write that turns the top U level into X
    X._adopt(kept, range(k0, fresh))
    if forward is not None:
        X._adopt(forward, root_levels, compensator)
    forward = None
    # X at the recomputed levels, and the sup distance and first changed
    # level against the driver, one kernel block at a time. Kept levels above
    # start_step are the driver's; start_step stays in, so that a full pass
    # compares its start level and a non-finite initial value gives the
    # distance NaN
    gaps = []
    changed_from = end_step + 1
    scratch = np.empty(min(4**end_step, 4**_lattice._BLOCK_LEVELS))
    for k in (k0, *root_levels):
        old, new = driver.at(k), X.at(k)
        block_gaps = []
        for part in _level_blocks(new.size):
            block = new[part]
            if k >= fresh:
                np.add(u[k - base][part], compensator[k - k0], out=block)
            gap = np.subtract(block, old[part], out=scratch[: block.size])
            # max |gap| = max(max gap, -min gap), with no pass for |gap|
            block_gap = np.maximum(gap.max(), -gap.min())
            block_gaps.append(block_gap)
            # a positive gap shows a changed value; a block without one (its
            # gaps all zero, or NaN) may still differ in a sign or a NaN
            if changed_from > end_step and (block_gap > 0.0 or not np.array_equal(
                    block.view(np.int64), old[part].view(np.int64))):
                changed_from = k
        # abs makes a zero distance +0.0 and a NaN one positive, as max |gap| is
        gaps.append(abs(float(np.max(block_gaps))))
    solution = SkorokhodSolution(
        X=X,
        A=DeterministicPath(times[k0 : end_step + 1], compensator),
        expected_losses=losses,
    )
    return PicardStepResult(
        solution=solution,
        # np.max carries a NaN level gap, where max would keep an earlier one
        distance=float(np.max(gaps)),
        changed_from=changed_from,
        shifts=shifts,
        unreflected=u[changed_from - base] if changed_from < end_step else None,
    )


def picard_solve(
    problem: MRSDEProblem,
    config: PicardConfig | None = None,
    lattice: PathLattice | None = None,
) -> MRSDESolution:
    """Solve the mean-reflected equation by subinterval fixed-point iteration.

    Subintervals start at the full horizon (or ``delta_initial_steps``); an
    observed iteration ratio at or above ``CONTRACTION_GUARD`` halves the
    subinterval length (in steps) and restarts the current subinterval, and
    at ``MIN_SUBINTERVAL_STEPS`` raises ``NonContractionError``. An attempt
    on an m-step subinterval runs at most m + 2 iterations, the causal bound
    of ``PicardConfig``; one that ends there above ``tol``, as a NaN distance
    does, raises ``SolverError``, so a returned solution converged on every
    subinterval. Compensators are pasted by accumulating terminal
    offsets, so the global A is nondecreasing and matches at junctions. The
    converged steps' ``expected_losses`` are pasted with them. A later
    subinterval starts from the array the earlier one ends with, so a
    junction is one level of X, whose value is the later step's check; that
    check takes the range the earlier X level keeps.

    Only the fixed point has to carry certified minimal shifts, so the
    iterates take closed-form roots unconfirmed (``picard_step`` with
    ``confirm=False``), and the converged iterate sweeps X once at every
    level with a positive shift and no known value (``_confirm_candidates``).
    Where A is the level's shift, that sweep is the skipped confirming sweep
    bit for bit; where A is larger, it shows that the level's root does not
    exceed A. Each value is pasted into ``expected_losses``. If one is
    negative, the subinterval is solved again with every root confirmed, as
    ``picard_step`` does by default. So the result equals that of confirming
    every root bit for bit whenever every candidate would pass its sweep.

    Each root is minimal within ``tol`` given its own U, but the tol/2 pads
    of affine roots feed forward through the drift: A exceeds the exact
    discrete A by about (tol/2)(1 + theta (t_k - t_1)) for a drift of
    Lipschitz constant theta, 1.0625 tol at step 10 with theta = 1/2 and
    dt = 1/4.

    The solution's X keeps the steps' functionals, so the confirming sweeps,
    the verifier and the CSV pass share one per level.
    """
    config = config or PicardConfig()
    if lattice is None:
        lattice = build_lattice(problem.band, problem.grid)
    elif (lattice.band, lattice.grid) != (problem.band, problem.grid):
        raise GridMismatchError("the lattice must have the problem's band and grid")
    n = problem.grid.n_steps
    if n < 1:
        raise InvalidParameterError("picard_solve needs at least one time step")
    guess = problem.x0 if config.initial_guess is None else config.initial_guess
    delta = config.delta_initial_steps or n
    pos = 0
    offset = 0.0
    restarts = 0
    a_full = np.zeros(n + 1)
    losses = np.full(n + 1, np.nan)
    pieces: list[ProcessOnLattice] = []
    # picard_step forms the x0 start level of the first subinterval
    initial = None
    diags: list[SubintervalDiagnostics] = []
    confirm = False
    while pos < n:
        end = min(pos + delta, n)
        driver = constant_process(lattice, guess, pos, end)
        step = None
        distances: list[float] = []
        ratios: list[float] = []
        bound = end - pos + 2
        for _ in range(bound):
            step = picard_step(problem, lattice, driver, pos, end, initial, tol=config.tol,
                               previous=step, confirm=confirm)
            d = step.distance
            distances.append(d)
            if len(distances) >= 2 and distances[-2] > config.tol and d > config.tol:
                ratios.append(d / distances[-2])
                if ratios[-1] >= CONTRACTION_GUARD:
                    break
            if d <= config.tol:
                break
            driver = step.solution.X
        else:
            # the causal bound is a postcondition: the fixed point lies within it
            raise SolverError(
                f"Picard iteration did not converge within {bound} iterations on steps "
                f"{pos}..{end}; last distance {distances[-1]}"
            )
        if d > config.tol:
            # the ratio reached the guard: restart on a shorter subinterval
            if delta <= MIN_SUBINTERVAL_STEPS:
                raise NonContractionError(
                    f"no contraction at the minimum subinterval length "
                    f"{MIN_SUBINTERVAL_STEPS}: observed ratio {ratios[-1]} on steps "
                    f"{pos}..{end} after {len(distances)} iterations"
                )
            delta = max(MIN_SUBINTERVAL_STEPS, delta // 2)
            restarts += 1
            continue
        losses[pos : end + 1] = step.solution.expected_losses
        if not confirm and not _confirm_candidates(problem.loss, lattice, step,
                                                   losses[pos : end + 1]):
            # a candidate failed its sweep: solve the subinterval again
            confirm = True
            continue
        confirm = False
        diags.append(SubintervalDiagnostics(pos, end, tuple(distances), tuple(ratios)))
        local_a = step.solution.A.values
        a_full[pos : end + 1] = offset + local_a
        pieces.append(step.solution.X)
        offset += float(local_a[-1])
        initial = step.solution.X.functional_at(end)
        pos = end
    # a subinterval starts from the array its predecessor ends with. The
    # functionals that _confirm_candidates read, and the ranges the steps
    # took, serve the verifier and the CSV pass too
    X = ProcessOnLattice(lattice, 0, pieces[0].values[:1]
                         + tuple(v for piece in pieces for v in piece.values[1:]))
    for piece in pieces:
        X._adopt(piece, range(piece.start_step, piece.end_step + 1))
    return MRSDESolution(
        X=X,
        A=DeterministicPath(problem.grid.times, a_full),
        diagnostics=tuple(diags),
        restarts=restarts,
        expected_losses=losses,
    )


def _confirm_candidates(loss: LossSpec, lattice: PathLattice, step: PicardStepResult,
                        losses: np.ndarray) -> bool:
    """Sweep X at each level of ``step`` with a positive shift and no value in
    ``losses`` and write the value there; False at the first value below 0.
    Where A is the level's shift, an unconfirmed candidate (see
    ``picard_step``), X is U plus that shift by the same addition, so the
    sweep is the confirming sweep ``required_shift`` skipped, bit for bit.
    Where A carries an earlier, larger shift, A_k = max(A_{k-1}, root), so a
    value >= 0 shows that the root, confirmed or not, moves no A."""
    times = lattice.grid.times
    k0 = step.solution.X.start_step
    open_levels = (step.shifts > 0.0) & np.isnan(losses)
    for i in np.flatnonzero(open_levels).tolist():
        losses[i] = expected_loss(times[k0 + i], step.solution.X.functional_at(k0 + i),
                                  lattice, loss)
        if losses[i] < 0.0:
            return False
    return True


@dataclass(frozen=True)
class MomentReport:
    """E[sup_t |X_t|^p] against the coefficient data on the right-hand side."""

    left: float
    right: float

    @property
    def ratio(self) -> float:
        return self.left / self.right


def running_abs_max(X: ProcessOnLattice) -> PathFunctional:
    """max_{k} |X_k| along each path, as a terminal-depth functional."""
    cur = np.abs(X.at(X.start_step))
    for k in range(X.start_step + 1, X.end_step + 1):
        cur = np.maximum(np.repeat(cur, 4), np.abs(X.at(k)))
    return PathFunctional(X.end_step, cur)


def check_moment_estimate(solution: MRSDESolution, problem: MRSDEProblem) -> MomentReport:
    """Ratio of E[sup|X|^p] to 1 + |x0|^p + the zero-state coefficient integrals.

    The constant in front of the right side is not explicit, so the meaningful
    diagnostic is that the ratio stays bounded under grid refinement.
    """
    lattice = solution.X.lattice
    p = problem.p
    sup_abs = running_abs_max(solution.X)
    left = upper_expectation(lattice, sup_abs, leaf_map=lambda v: v**p)
    dt = problem.grid.dt
    times = problem.grid.times[:-1]
    zero = np.zeros(1)
    b0 = np.array([abs(float(_eval_coeff(problem.coeffs.b, float(t), zero)[0])) for t in times])
    h0 = np.array([abs(float(_eval_coeff(problem.coeffs.h, float(t), zero)[0])) for t in times])
    s0 = np.array([abs(float(_eval_coeff(problem.coeffs.sigma, float(t), zero)[0])) for t in times])
    right = (
        1.0
        + abs(problem.x0) ** p
        + float(np.sum(b0**p) * dt)
        + float(np.sum(h0**p) * dt)
        + float(np.sum(s0**2) * dt) ** (p / 2.0)
    )
    return MomentReport(left=left, right=right)


@dataclass(frozen=True)
class ModulusFitReport:
    """Smallest C with |A_t - A_s| <= C (|t-s|^1/2 + F(|t-s|)) over grid pairs."""

    fitted_c: float


def check_A_modulus(solution: MRSDESolution, problem: MRSDEProblem) -> ModulusFitReport:
    a = solution.A.values
    times = solution.A.times
    fitted = 0.0
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            gap = abs(times[j] - times[i])
            denom = math.sqrt(gap) + problem.loss.time_modulus(gap)
            fitted = max(fitted, abs(a[j] - a[i]) / denom)
    return ModulusFitReport(fitted_c=fitted)


@dataclass(frozen=True)
class LipschitzReport:
    """max_k (A_{k+1} - A_k)/dt for smooth losses."""

    max_ratio: float


def check_A_lipschitz(solution: MRSDESolution, problem: MRSDEProblem) -> LipschitzReport:
    if not problem.loss.smooth:
        raise InvalidParameterError(
            "check_A_lipschitz requires a loss declared smooth (LossSpec.smooth)"
        )
    dt = problem.grid.dt
    increments = np.diff(solution.A.values)
    return LipschitzReport(max_ratio=float(increments.max(initial=0.0) / dt))
