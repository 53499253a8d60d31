"""Experiment runner: solve, check, and emit CSV traces plus a JSON report.

A ``gexp_probe`` run evaluates its terminal payoff phi(B_T) by
``gexpectation.terminal_upper_expectation``, the recombining sweep over the
(n+1)^2 reachable pairs of net signed counts of low- and high-volatility
steps, and builds no lattice; the config's n_steps cap holds for every mode.

A solving run holds the Skorokhod pair (X, A) and no other process: the
verifier takes S as X - A by definition. ``full_sde`` takes X from
``picard_solve``. ``sp_only`` takes A from ``reflection._reflect_direct``
and forms X = S + A in S's own arrays, which it reads no more, with S's
kept ranges moved by each a_k (``ProcessOnLattice._adopt``): the addition
per node of ``S.shifted(A)``, with no second process allocated.

All output is deterministic: repeated runs of one config produce
byte-identical files. Floats are serialized with their shortest round-trip
representation and the report carries the config hash for provenance.

An existing output file is rewritten in place: it keeps its inode and mode,
its old bytes are written over and any left past the new end are cut off.
It is never truncated to zero first, because on ext4 (``auto_da_alloc``)
a truncate to zero followed by a rewrite starts writeback when the file is
closed: on a 2-vCPU ext4 VM, rewriting a 1.6 KB file cost 150-180 us that
way and 7-9 us in place.

Exit-code contract: 0 all checks pass, 1 a check failed, 2 configuration
error (raised before running, including a CSV and report on one path, or an
output path that cannot be written), 3 solver failure in any mode (recorded in the report).
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import stat
from dataclasses import asdict, dataclass

import numpy as np

from ._version import __version__
from .config import ExperimentConfig
from .errors import (
    BracketError,
    ConfigError,
    InvalidParameterError,
    SolverError,
)
from .gexpectation import terminal_upper_expectation, upper_expectation
from .lattice import _BLOCK_LEVELS, ProcessOnLattice, build_lattice
from .loss import LossSpec, validate_loss
from .reflection import (
    CheckResult,
    SkorokhodSolution,
    _reflect_direct,
    verify_mean_reflection,
)
from .sde import (
    CONTRACTION_GUARD,
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


@dataclass(frozen=True)
class RunResult:
    """What ``run_experiment`` made: the report, the exit code, the CSV
    text and the paths written (None where nothing was)."""

    report: dict
    exit_code: int
    csv_text: str | None
    csv_path: str | None
    report_path: str | None

    @property
    def overall_pass(self) -> bool:
        return bool(self.report["overall_pass"])


# the errors for which pathlib's ``exists`` and ``is_dir`` read a path as absent
_ABSENT = frozenset({errno.ENOENT, errno.ENOTDIR, errno.EBADF, errno.ELOOP})

# no O_TRUNC: a rewrite goes over the old bytes, then cuts the file to length
_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT


def _pure_path(path: str) -> tuple[str, str]:
    """``str(PurePosixPath(path))`` and its ``name``, parsed as pathlib
    parses them: empty and ``.`` parts dropped, exactly two leading slashes
    kept as the root, ``"."`` for no parts, and ``""`` as the name of a path
    with no parts after its root."""
    rel = path.lstrip("/")
    root = "//" if len(path) - len(rel) == 2 else "/" if rel != path else ""
    parts = [part for part in rel.split("/") if part and part != "."]
    return root + "/".join(parts) or ".", parts[-1] if parts else ""


def _resolve_path(configured: str, output_dir: str | None) -> tuple[str, str]:
    """The output path, printed as pathlib prints it, and the name of the
    configured path; an output directory keeps only that name."""
    path, name = _pure_path(configured)
    base = output_dir or os.environ.get(ENV_OUTPUT_DIR)
    if base:
        path = _pure_path(os.path.join(base, name))[0]
    return path, name


def _inside(path: str, directory: str) -> bool:
    """Whether the normalised absolute ``path`` lies strictly under
    ``directory``."""
    return path.startswith(directory if directory.endswith("/") else directory + "/")


def _stat_mode(path: str) -> int | None:
    """``path``'s mode, or None where pathlib would find no such path."""
    try:
        return os.stat(path).st_mode
    except OSError as exc:
        if exc.errno in _ABSENT:
            return None
        raise


def _check_writable(target: str) -> None:
    """Raise the error that keeps the normalised absolute ``target`` from
    being written as a file: it is a directory or a read-only file, or its
    nearest existing ancestor is not a writable directory. Makes at most one
    ``os.stat`` per path it visits."""
    mode = _stat_mode(target)
    if mode is not None and stat.S_ISDIR(mode):
        raise IsADirectoryError(f"{target} is a directory")
    ancestor = os.path.dirname(target)
    # an existing target's parent resolved as a directory on the way to it
    if mode is None:
        while (ancestor_mode := _stat_mode(ancestor)) is None:
            ancestor = os.path.dirname(ancestor)
        if not stat.S_ISDIR(ancestor_mode):
            raise NotADirectoryError(f"{ancestor} is not a directory")
    if not os.access(ancestor, os.W_OK | os.X_OK):
        raise PermissionError(f"{ancestor} is not writable")
    if mode is not None and not os.access(target, os.W_OK):
        raise PermissionError(f"{target} is not writable")


def _output_paths(config: ExperimentConfig, output_dir: str | None,
                  write_csv: bool) -> dict[str, str]:
    """The output paths by ``outputs`` key, checked before anything is written.

    A path that names no file, holds a null byte or is a directory, that is
    an existing file this process may not write, whose nearest existing
    ancestor is not a writable directory, or that lies on or inside the
    other output's path is a config error naming its ``outputs`` field, so a
    run that cannot write its report writes no CSV either.
    """
    keys = ("csv", "report") if write_csv else ("report",)
    paths: dict[str, str] = {}
    targets: dict[str, str] = {}
    for key in keys:
        configured = getattr(config.outputs, key)
        path, name = _resolve_path(configured, output_dir)
        try:
            target = os.path.abspath(path)
            for other_key, other in targets.items():
                if target == other:
                    raise ConfigError(
                        f"outputs.{key}: {target} is also the outputs.{other_key} path")
                if _inside(target, other) or _inside(other, target):
                    raise IsADirectoryError(f"{other} is the outputs.{other_key} path")
            if not name:
                raise IsADirectoryError(f"{configured!r} names no file")
            if "\0" in target:
                raise ValueError("embedded null byte")
            _check_writable(target)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"outputs.{key}: cannot write {path}: {exc}") from None
        paths[key], targets[key] = path, target
    return paths


def _write_output(text: str, key: str, path: str) -> str:
    """Write one checked output file in place (see the module docstring); a
    write that still fails is a config error naming the ``outputs`` field.

    Missing parent directories are made only when the open finds one
    missing.
    """
    data = text.encode()
    try:
        try:
            fd = os.open(path, _WRITE_FLAGS, 0o666)
        except FileNotFoundError:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd = os.open(path, _WRITE_FLAGS, 0o666)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            # only stale bytes past the new end need cutting; a device such
            # as /dev/null reports size 0 and cannot be cut
            if os.fstat(fd).st_size > len(data):
                os.ftruncate(fd, len(data))
        finally:
            os.close(fd)
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


def _solution_csv(lattice, solution: SkorokhodSolution, e_l: np.ndarray, p: float) -> str:
    """The CSV trace; e_l is E[l(t_k, X_k)] for every step, as the verifier
    computed it. The |X|^p leaf map writes into one reused buffer of a
    block, with ``**=`` taking the same power as ``** p``."""
    times = lattice.grid.times
    n = lattice.depth
    e_x = np.empty(n + 1)
    e_abs_p = np.empty(n + 1)
    buffer = np.empty(min(4**n, 4**_BLOCK_LEVELS))

    def abs_p(v):
        out = np.abs(v, out=buffer[: v.size])
        out **= p
        return out

    for k in range(n + 1):
        xk = solution.X.functional_at(k)
        e_x[k] = upper_expectation(lattice, xk)
        try:
            e_abs_p[k] = upper_expectation(lattice, xk, leaf_map=abs_p)
        except InvalidParameterError:
            raise InvalidParameterError(
                f"CSV column E_absX_p at t={_fmt(times[k])}: |X|^p overflows for p={_fmt(p)}"
            ) from None
    return _csv_from_columns(CSV_HEADER, [times, solution.A.values, e_l, e_x, e_abs_p])


def _solve(config: ExperimentConfig, loss: LossSpec):
    """The lattice and solution that a solving run makes of ``config`` with
    the loss ``loss``; an ``sp_only`` X is formed in S's own arrays (see the
    module docstring)."""
    lattice = build_lattice(config.band(), config.grid())
    if config.mode == "sp_only":
        S = integrate_sde(config.coefficients(), lattice, config.problem.x0)
        A, losses = _reflect_direct(loss, S, lattice, tol=config.solver.tol)
        for level, a in zip(S.values, A.values):
            level += a
        X = ProcessOnLattice(lattice, S.start_step, S.values)
        X._adopt(S, range(S.start_step, S.end_step + 1), A.values)
        return lattice, SkorokhodSolution(X, A, expected_losses=losses)
    problem = MRSDEProblem(x0=config.problem.x0, coeffs=config.coefficients(), loss=loss,
                           band=lattice.band, grid=lattice.grid, p=config.problem.p)
    return lattice, picard_solve(problem, config.solver, lattice=lattice)


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

    paths = _output_paths(config, output_dir, write_csv)

    try:
        if config.mode == "gexp_probe":
            payoff = config.payoff()
            value = terminal_upper_expectation(config.band(), config.grid(), payoff.fn)
            finite = bool(np.isfinite(value))
            checks.append(CheckResult("value_finite", float(finite), 1.0, finite))
            csv_text = f"payoff,value\n{payoff.name},{_fmt(value)}\n"
            diagnostics["payoff"] = payoff.name
            diagnostics["value"] = value
        else:
            loss = config.loss_spec()
            coeffs = config.coefficients()
            spot_checks = [
                ("loss_spotcheck_violations", "loss_spotcheck", validate_loss(loss)),
                ("coefficient_lipschitz_violations", "coefficient_spotcheck",
                 validate_coefficients(coeffs, t_max=config.problem.horizon, x_box=loss.x_box)),
            ]
            for check, key, spot in spot_checks:
                checks.append(CheckResult(check, float(len(spot.violations)), 0.0, spot.ok))
                if spot.violations:
                    diagnostics[key] = list(spot.violations)

            if all(spot.ok for *_, spot in spot_checks):
                lattice, solution = _solve(config, loss)
                verification = verify_mean_reflection(
                    solution, loss, None, lattice, tol=config.solver.tol,
                    expected_losses=solution.expected_losses)
                if config.mode == "full_sde":
                    # picard_solve raises unless every subinterval converged
                    checks.append(CheckResult("picard_converged", 1.0, 1.0, True))
                    max_ratio = max(
                        (r for d in solution.diagnostics for r in d.ratios), default=0.0
                    )
                    checks.append(CheckResult("contraction_ratio_max", max_ratio,
                                              CONTRACTION_GUARD, max_ratio < CONTRACTION_GUARD))
                    diagnostics["picard"] = {
                        "restarts": solution.restarts,
                        "subintervals": [
                            {**asdict(d), "delta_steps": d.end_step - d.start_step,
                             "iterations": d.iterations}
                            for d in solution.diagnostics
                        ],
                    }
                checks.extend(verification.checks)
                csv_text = _solution_csv(lattice, solution, verification.expected_losses,
                                         config.problem.p)
            else:
                diagnostics["solve_skipped"] = "validation checks failed"
    except (SolverError, BracketError, InvalidParameterError) as exc:
        diagnostics["solver_error"] = f"{type(exc).__name__}: {exc}"
        exit_code = EXIT_SOLVER_FAILURE

    overall = bool(all(c.passed for c in checks)) and exit_code == EXIT_PASS
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
        csv_path = _write_output(csv_text, "csv", paths["csv"])
    report_path = _write_output(json.dumps(report, sort_keys=True, indent=2) + "\n",
                                "report", paths["report"])

    return RunResult(
        report=report,
        exit_code=exit_code,
        csv_text=csv_text,
        csv_path=csv_path,
        report_path=report_path,
    )

