"""Experiment runner: solve, check, and emit CSV traces plus a JSON report.

All output is deterministic: repeated runs of one config produce
byte-identical files. Floats are serialized with their shortest round-trip
representation and the report carries the config hash for provenance.

Exit-code contract: 0 all checks pass, 1 a check failed, 2 configuration
error (raised before running, or an output path that cannot be written),
3 solver failure (recorded in the report).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._version import __version__
from .config import ExperimentConfig
from .errors import (
    BracketError,
    ConfigError,
    InvalidParameterError,
    NonContractionError,
    SolverError,
)
from .gexpectation import upper_expectation
from .lattice import PathFunctional, build_lattice
from .loss import validate_loss
from .reflection import (
    SkorokhodSolution,
    expected_loss,
    solve_mean_reflection_direct,
    verify_mean_reflection,
)
from .registry import make_payoff
from .sde import (
    MRSDEProblem,
    integrate_sde,
    picard_solve,
    validate_coefficients,
)

ENV_OUTPUT_DIR = "MEANREFLECT_OUTPUT_DIR"

CSV_HEADER = "t,A,E_l_X,E_X,E_absX_p"

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_SOLVER_FAILURE = 3

# thresholds for the post-solve residual checks
IDENTITY_TOL = 1e-12
CONSTRAINT_TOL = 1e-8
FLATOFF_TOL = 1e-8


@dataclass(frozen=True)
class CheckResult:
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
class RunResult:
    report: dict
    exit_code: int
    csv_text: str | None
    csv_path: Path | None
    report_path: Path | None

    @property
    def overall_pass(self) -> bool:
        return bool(self.report["overall_pass"])


def _resolve_path(configured: str, output_dir: str | None) -> Path:
    env_dir = os.environ.get(ENV_OUTPUT_DIR)
    base = output_dir or env_dir
    if base:
        return Path(base) / Path(configured).name
    return Path(configured)


def _write_output(text: str, key: str, configured: str, output_dir: str | None) -> Path:
    """Write one output file; a path that cannot be written is a config error
    naming the ``outputs`` field."""
    path = _resolve_path(configured, output_dir)
    try:
        if not Path(configured).name:
            raise IsADirectoryError(f"{configured!r} names no file")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"outputs.{key}: cannot write {path}: {exc}") from None
    return path


def _fmt(x: float) -> str:
    return repr(float(x))


def _csv_from_columns(header: str, columns: list[np.ndarray]) -> str:
    rows = zip(*columns)
    lines = [header]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _solution_csv(lattice, solution: SkorokhodSolution, loss, p: float) -> str:
    times = lattice.grid.times
    n = lattice.depth
    a = solution.A.values
    e_l = np.empty(n + 1)
    e_x = np.empty(n + 1)
    e_abs_p = np.empty(n + 1)
    for k in range(n + 1):
        xk = solution.X.at(k)
        e_l[k] = expected_loss(float(times[k]), solution.X.functional_at(k), lattice, loss)
        e_x[k] = upper_expectation(lattice, PathFunctional(k, xk))
        abs_p = np.abs(xk) ** p
        if not np.all(np.isfinite(abs_p)):
            raise InvalidParameterError(
                f"CSV column E_absX_p at t={_fmt(times[k])}: |X|^p overflows for p={_fmt(p)}"
            )
        e_abs_p[k] = upper_expectation(lattice, PathFunctional(k, abs_p))
    return _csv_from_columns(CSV_HEADER, [times, a, e_l, e_x, e_abs_p])


def _verification_checks(report, a_values) -> list[CheckResult]:
    total_a = float(a_values[-1] - a_values[0])
    min_step = float(np.min(np.diff(a_values))) if len(a_values) > 1 else 0.0
    return [
        CheckResult("identity_residual", report.identity_residual, IDENTITY_TOL,
                    report.identity_residual <= IDENTITY_TOL),
        CheckResult("constraint_min", report.constraint_min, -CONSTRAINT_TOL,
                    report.constraint_min >= -CONSTRAINT_TOL),
        CheckResult("flatoff_residual", report.flatoff_residual,
                    FLATOFF_TOL * (1.0 + total_a),
                    report.flatoff_residual <= FLATOFF_TOL * (1.0 + total_a)),
        CheckResult("compensator_nondecreasing", min_step, 0.0, min_step >= 0.0),
        CheckResult("compensator_starts_at_zero", float(a_values[0]), 0.0,
                    a_values[0] == 0.0),
    ]


# overflow and invalid operations surface as non-finite values, which the
# finiteness checks turn into exit 3; numpy's warnings about them are noise
@np.errstate(over="ignore", invalid="ignore")
def run_experiment(
    config: ExperimentConfig,
    output_dir: str | None = None,
    write_csv: bool = True,
) -> RunResult:
    """Execute one configured experiment and write its artifacts."""
    checks: list[CheckResult] = []
    diagnostics: dict = {}
    csv_text: str | None = None
    exit_code = EXIT_PASS

    band = config.band()
    grid = config.grid()
    lattice = build_lattice(band, grid)

    solver_error: str | None = None
    if config.mode == "gexp_probe":
        payoff = make_payoff(config.problem.payoff.name, config.problem.payoff.params)
        value = upper_expectation(lattice, lattice.functional_from_terminal(payoff.fn))
        finite = bool(np.isfinite(value))
        checks.append(CheckResult("value_finite", float(finite), 1.0, finite))
        csv_text = f"payoff,value\n{payoff.name},{_fmt(value)}\n"
        diagnostics["payoff"] = payoff.name
        diagnostics["value"] = value
    else:
        loss = config.loss_spec()
        coeffs = config.coefficients()
        loss_report = validate_loss(loss)
        coeff_report = validate_coefficients(
            coeffs, t_max=config.problem.horizon, x_box=loss.x_box
        )
        checks.append(CheckResult("loss_spotcheck_violations",
                                  float(len(loss_report.violations)), 0.0,
                                  loss_report.ok))
        checks.append(CheckResult("coefficient_lipschitz_violations",
                                  float(len(coeff_report.violations)), 0.0,
                                  coeff_report.ok))
        if loss_report.violations:
            diagnostics["loss_spotcheck"] = list(loss_report.violations)
        if coeff_report.violations:
            diagnostics["coefficient_spotcheck"] = list(coeff_report.violations)

        if loss_report.ok and coeff_report.ok:
            try:
                if config.mode == "sp_only":
                    driver = integrate_sde(coeffs, lattice, config.problem.x0)
                    solution = solve_mean_reflection_direct(
                        loss, driver, lattice, tol=config.solver.tol
                    )
                    verification = verify_mean_reflection(solution, loss, driver, lattice)
                else:
                    problem = MRSDEProblem(x0=config.problem.x0, coeffs=coeffs, loss=loss,
                                           band=band, grid=grid, p=config.problem.p)
                    mr = picard_solve(problem, config.solver, lattice=lattice)
                    solution = SkorokhodSolution(X=mr.X, A=mr.A)
                    verification = verify_mean_reflection(solution, loss, mr.U, lattice)
                    max_ratio = max(
                        (r for d in mr.diagnostics for r in d.ratios), default=0.0
                    )
                    converged = all(d.converged for d in mr.diagnostics)
                    checks.append(CheckResult("picard_converged", float(converged), 1.0, converged))
                    checks.append(CheckResult("contraction_ratio_max", max_ratio,
                                              config.solver.contraction_guard,
                                              max_ratio < config.solver.contraction_guard))
                    diagnostics["picard"] = {
                        "restarts": mr.restarts,
                        "subintervals": [
                            {
                                "start_step": d.start_step,
                                "end_step": d.end_step,
                                "delta_steps": d.end_step - d.start_step,
                                "iterations": d.iterations,
                                "distances": list(d.distances),
                                "ratios": list(d.ratios),
                            }
                            for d in mr.diagnostics
                        ],
                    }
                checks.extend(_verification_checks(verification, solution.A.values))
                csv_text = _solution_csv(lattice, solution, loss, config.problem.p)
            except (SolverError, NonContractionError, BracketError, InvalidParameterError) as exc:
                solver_error = f"{type(exc).__name__}: {exc}"
                diagnostics["solver_error"] = solver_error
                exit_code = EXIT_SOLVER_FAILURE
        else:
            diagnostics["solve_skipped"] = "validation checks failed"

    overall = bool(all(c.passed for c in checks)) and solver_error is None
    if exit_code == EXIT_PASS and not overall:
        exit_code = EXIT_CHECK_FAILED

    report = {
        "mode": config.mode,
        "checks": [c.to_dict() for c in checks],
        "diagnostics": diagnostics,
        "overall_pass": overall,
        "provenance": {
            "config_sha256": hashlib.sha256(config.canonical_json().encode()).hexdigest(),
            "package_version": __version__,
        },
    }

    csv_path = None
    if write_csv and csv_text is not None:
        csv_path = _write_output(csv_text, "csv", config.outputs.csv, output_dir)
    report_path = _write_output(
        json.dumps(report, sort_keys=True, indent=2) + "\n",
        "report", config.outputs.report, output_dir,
    )

    return RunResult(
        report=report,
        exit_code=exit_code,
        csv_text=csv_text,
        csv_path=csv_path,
        report_path=report_path,
    )

