"""Mean-reflected SDE solver on the lattice.

The state equation integrates drift, a quadratic-variation drift and a
diffusion term per scenario:

    X_{k+1} = X_k + b(t_k, .) dt + h(t_k, .) dQV_k + sigma(t_k, .) dB_k

with the per-child increments dB_k, dQV_k read off the lattice. The solver
iterates the map "integrate driven by U, then reflect" to its fixed point on
subintervals short enough to contract, then pastes the compensators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
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
    build_lattice,
    constant_process,
)
from .loss import LossSpec
from .reflection import (
    DeterministicPath,
    SkorokhodSolution,
    solve_mean_reflection_direct,
)

_LIPSCHITZ_RTOL = 1e-9


@dataclass(frozen=True)
class Coefficients:
    """Coefficient triple (b, h, sigma), each (t, x) -> value, with a shared
    Lipschitz constant in x. Callables must accept ndarray x."""

    b: Callable[[float, np.ndarray], np.ndarray]
    h: Callable[[float, np.ndarray], np.ndarray]
    sigma: Callable[[float, np.ndarray], np.ndarray]
    kappa: float

    def __post_init__(self):
        if not self.kappa > 0.0:
            raise InvalidParameterError(f"kappa must be positive, got {self.kappa}")


def _eval_coeff(fn: Callable, t: float, x: np.ndarray) -> np.ndarray:
    out = np.asarray(fn(t, x), dtype=float)
    if out.ndim == 0:
        out = np.full_like(x, float(out))
    return out


@dataclass(frozen=True)
class CoefficientValidationReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_coefficients(
    coeffs: Coefficients,
    t_max: float = 1.0,
    x_box: tuple[float, float] = (-5.0, 5.0),
) -> CoefficientValidationReport:
    """Spot-check |f(t,x) - f(t,x')| <= kappa |x - x'| for each coefficient
    on a 20 x 80 grid of (t, x)."""
    bad: list[str] = []
    ts = np.linspace(0.0, t_max, 20)
    xs = np.linspace(x_box[0], x_box[1], 80)
    dx = np.abs(xs[:, None] - xs[None, :])
    allowed = coeffs.kappa * dx + _LIPSCHITZ_RTOL * (1.0 + dx)
    for label, fn in (("b", coeffs.b), ("h", coeffs.h), ("sigma", coeffs.sigma)):
        for t in ts:
            v = _eval_coeff(fn, float(t), xs)
            if np.any(np.abs(v[:, None] - v[None, :]) > allowed):
                bad.append(
                    f"coefficient {label} violates the Lipschitz bound kappa={coeffs.kappa} "
                    f"at t={t:.4g}"
                )
                break
    return CoefficientValidationReport(violations=tuple(bad))


@dataclass(frozen=True)
class MRSDEProblem:
    """Problem data for the mean-reflected equation; requires l(0, x0) >= 0."""

    x0: float
    coeffs: Coefficients
    loss: LossSpec
    band: VolatilityBand
    grid: TimeGrid
    p: float = 2.0

    def __post_init__(self):
        if self.p < 1.0:
            raise InvalidParameterError(f"moment order p must be >= 1, got {self.p}")
        l0 = float(self.loss(0.0, np.array([self.x0]))[0])
        if l0 < 0.0:
            raise InitialConstraintError(
                f"l(0, x0) = {l0} < 0: the mean constraint already fails at time 0"
            )


@dataclass(frozen=True)
class PicardConfig:
    tol: float = 1e-10
    max_iter: int = 60
    contraction_guard: float = 0.5
    delta_initial_steps: int | None = None
    delta_min_steps: int = 1
    initial_guess: float | None = None

    def __post_init__(self):
        if self.tol <= 0.0:
            raise InvalidParameterError(f"tol must be positive, got {self.tol}")
        if not 0.0 < self.contraction_guard < 1.0:
            raise InvalidParameterError(
                f"contraction_guard must lie in (0,1), got {self.contraction_guard}"
            )
        if self.max_iter < 1:
            raise InvalidParameterError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.delta_min_steps < 1:
            raise InvalidParameterError(
                f"delta_min_steps must be >= 1, got {self.delta_min_steps}"
            )
        if self.delta_initial_steps is not None and self.delta_initial_steps < self.delta_min_steps:
            raise InvalidParameterError("delta_initial_steps below delta_min_steps")


@dataclass(frozen=True)
class SubintervalDiagnostics:
    start_step: int
    end_step: int
    distances: tuple[float, ...]
    ratios: tuple[float, ...]
    converged: bool

    @property
    def iterations(self) -> int:
        return len(self.distances)


@dataclass(frozen=True)
class MRSDESolution:
    """Fixed point (X, A) plus the unreflected part U = X - A and diagnostics."""

    X: ProcessOnLattice
    A: DeterministicPath
    U: ProcessOnLattice
    lattice: PathLattice
    diagnostics: tuple[SubintervalDiagnostics, ...]
    restarts: int = 0


def _euler_step(coeffs: Coefficients, lattice: PathLattice, t: float,
                cur: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One Euler step from the node values ``cur`` to their children, in child
    order, with the coefficients evaluated at ``u``."""
    bv = _eval_coeff(coeffs.b, t, u)
    hv = _eval_coeff(coeffs.h, t, u)
    sv = _eval_coeff(coeffs.sigma, t, u)
    children = (
        (cur + bv * lattice.grid.dt)[:, None]
        + hv[:, None] * lattice.step_dqv[None, :]
        + sv[:, None] * lattice.step_db[None, :]
    )
    return children.ravel()


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
    times = lattice.grid.times
    values = [initial]
    cur = initial
    for k in range(start_step, end_step):
        cur = _euler_step(coeffs, lattice, float(times[k]), cur, driver.at(k))
        values.append(cur)
    return ProcessOnLattice(lattice, start_step, tuple(values))


def integrate_sde(
    coeffs: Coefficients,
    lattice: PathLattice,
    x0: float,
) -> ProcessOnLattice:
    """Unreflected SDE solved per scenario, coefficients fed its own state.

    Each path's recursion is closed-form Euler, so no iteration is needed;
    used for driver processes such as arithmetic paths.
    """
    times = lattice.grid.times
    cur = np.array([float(x0)])
    values = [cur]
    for k in range(lattice.depth):
        cur = _euler_step(coeffs, lattice, float(times[k]), cur, cur)
        values.append(cur)
    return ProcessOnLattice(lattice, 0, tuple(values))


@dataclass(frozen=True)
class PicardStepResult:
    solution: SkorokhodSolution


def picard_step(
    problem: MRSDEProblem,
    lattice: PathLattice,
    driver: ProcessOnLattice,
    start_step: int,
    end_step: int,
    initial: np.ndarray | None = None,
    tol: float = 1e-10,
) -> PicardStepResult:
    """One application of the contraction map: integrate driven by ``driver``,
    then reflect. Its fixed points solve the subinterval problem."""
    if initial is None:
        if start_step != 0:
            raise InvalidParameterError("initial node values required when start_step > 0")
        initial = np.array([problem.x0])
    unreflected = integrate_forward(problem.coeffs, lattice, driver, start_step, end_step, initial)
    solution = solve_mean_reflection_direct(problem.loss, unreflected, lattice, tol=tol)
    return PicardStepResult(solution=solution)


class _NonContraction(Exception):
    def __init__(self, ratio: float, distances: list[float]):
        self.ratio = ratio
        self.distances = distances
        super().__init__(f"observed ratio {ratio}")


def _sup_distance(a: ProcessOnLattice, b: ProcessOnLattice) -> float:
    return max(
        float(np.max(np.abs(a.at(k) - b.at(k))))
        for k in range(a.start_step, a.end_step + 1)
    )


def _iterate_subinterval(
    problem: MRSDEProblem,
    lattice: PathLattice,
    start_step: int,
    end_step: int,
    initial: np.ndarray,
    config: PicardConfig,
) -> tuple[PicardStepResult, SubintervalDiagnostics]:
    guess = problem.x0 if config.initial_guess is None else config.initial_guess
    driver = constant_process(lattice, guess, start_step, end_step)
    distances: list[float] = []
    ratios: list[float] = []
    for _ in range(config.max_iter):
        step = picard_step(
            problem, lattice, driver, start_step, end_step, initial, tol=config.tol
        )
        d = _sup_distance(step.solution.X, driver)
        distances.append(d)
        if len(distances) >= 2 and distances[-2] > config.tol and d > config.tol:
            ratio = d / distances[-2]
            ratios.append(ratio)
            if ratio >= config.contraction_guard:
                raise _NonContraction(ratio, distances)
        if d <= config.tol:
            diag = SubintervalDiagnostics(
                start_step=start_step,
                end_step=end_step,
                distances=tuple(distances),
                ratios=tuple(ratios),
                converged=True,
            )
            return step, diag
        driver = step.solution.X
    raise SolverError(
        f"Picard iteration exceeded max_iter={config.max_iter} on steps "
        f"{start_step}..{end_step}; last distance {distances[-1]}"
    )


def picard_solve(
    problem: MRSDEProblem,
    config: PicardConfig | None = None,
    lattice: PathLattice | None = None,
) -> MRSDESolution:
    """Solve the mean-reflected equation by subinterval fixed-point iteration.

    Subintervals start at the full horizon; an observed iteration ratio at or
    above the guard halves the subinterval length (in steps) and restarts the
    current subinterval. Compensators are pasted by accumulating terminal
    offsets, so the global A is nondecreasing and matches at junctions.
    """
    config = config or PicardConfig()
    if lattice is None:
        lattice = build_lattice(problem.band, problem.grid)
    n = problem.grid.n_steps
    if n < 1:
        raise InvalidParameterError("picard_solve needs at least one time step")
    times = problem.grid.times
    delta = config.delta_initial_steps or n
    pos = 0
    offset = 0.0
    restarts = 0
    a_full = np.zeros(n + 1)
    x_vals: list[np.ndarray | None] = [None] * (n + 1)
    x_vals[0] = np.array([problem.x0])
    initial = np.array([problem.x0])
    diags: list[SubintervalDiagnostics] = []
    while pos < n:
        end = min(pos + delta, n)
        try:
            step, diag = _iterate_subinterval(problem, lattice, pos, end, initial, config)
        except _NonContraction as nc:
            if delta <= config.delta_min_steps:
                raise NonContractionError(
                    f"no contraction at the minimum subinterval length "
                    f"{config.delta_min_steps}: observed ratio {nc.ratio} on steps "
                    f"{pos}..{end} after {len(nc.distances)} iterations"
                ) from None
            delta = max(config.delta_min_steps, delta // 2)
            restarts += 1
            continue
        diags.append(diag)
        local_a = step.solution.A.values
        a_full[pos : end + 1] = offset + local_a
        for k in range(pos, end + 1):
            x_vals[k] = step.solution.X.at(k)
        offset += float(local_a[-1])
        initial = step.solution.X.at(end)
        pos = end
    x_proc = ProcessOnLattice(lattice, 0, tuple(x_vals))
    u_proc = x_proc.shifted(-a_full)
    return MRSDESolution(
        X=x_proc,
        A=DeterministicPath(times, a_full),
        U=u_proc,
        lattice=lattice,
        diagnostics=tuple(diags),
        restarts=restarts,
    )


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
    lattice = solution.lattice
    p = problem.p
    sup_abs = running_abs_max(solution.X)
    left = upper_expectation(lattice, PathFunctional(sup_abs.depth, sup_abs.values**p))
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
