"""Seeded workloads for the meanreflect benchmark.

A workload is a fixed list of operations built from one seed. The seed draws
every problem parameter; the program receives only the generated config files
(for the CLI operations) or plain arguments (for the PDE operations). Every
draw is a valid instance on which the mean constraint binds, so each claim
made with this benchmark can be rechecked on an unseen seed.

Each operation has a timed call (``run``) and two untimed checks:
``inspect`` runs after every execution and returns a digest of the outputs
plus the failures it found; ``oracle`` runs once per benchmark run on the
last result and compares it with an independent computation.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import meanreflect
from meanreflect import cli, pde

WORKLOADS = ("mrsde", "single_pass", "pde_crossval")

HORIZON = 1.0
BAND = (1.0, 4.0)
PROBE_PAYOFFS = ("identity", "square", "neg_square", "abs", "call")
PROBE_DEPTHS = (8, 9, 10)
# probe repeats per round: sized so the probes take about as long as the two
# sp_only solves of a single_pass round
PROBE_REPEATS = 6
MRSDE_SMALL_OPS = 6
# nested PDE: the inner span is fixed so the work (65 inner marches of
# INNER_SPAN / dt steps) does not depend on the drawn t1; each (n, k) puts t1
# on the k-th node of an n-step lattice over [0, t1 + INNER_SPAN] with n - k
# >= 4 inner steps, where the lattice-PDE gap stays inside the 8% tolerance
INNER_SPAN = 0.25
NESTED_LATTICES = ((8, 4), (9, 4), (9, 5), (10, 5), (10, 6))
NESTED_WEIGHT = 0.3

# tolerances the test suite already uses for these comparisons
PDE_CLOSED_FORM_RTOL = 1e-3
PDE_LATTICE_RTOL = 0.05
PDE_NESTED_RTOL = 0.08
# the paper's two constructions of the compensator must agree
CONSTRUCTION_ATOL = 1e-8
PROBE_ORACLE_RTOL = 1e-9


@dataclass
class Outcome:
    """What the untimed inspection of one execution found."""

    digest: str
    failures: list[str]
    bytes_written: int = 0


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    inspect: Callable[[object], Outcome]
    oracle: Callable[[object], list[str]] = lambda raw: []
    facts: dict = field(default_factory=dict)


# -- parameter draws -----------------------------------------------------------

def _coefficients(rng: random.Random) -> dict:
    # Lipschitz constants high enough that Picard at n_steps=10 is still 10x
    # above tol at its n-th iteration (so it takes n_steps + 1), low enough
    # that the observed ratio stays below 0.4 against the 0.5 guard
    theta = rng.uniform(0.5, 0.8)
    a = rng.uniform(0.8, 1.2)
    return {
        "b": {"name": "ou_drift", "params": {"theta": theta}},
        "sigma": {
            "name": "linear_sigma",
            "params": {"a": a, "b": rng.uniform(0.1, 0.15), "cap": a + rng.uniform(0.5, 1.0)},
        },
    }


def _arctan_root(c: float) -> float:
    # 2x + arctan(x) = c has slope in [2, 3], so the root lies in [c/3 - 1, c/2 + 1]
    lo, hi = c / 3.0 - 1.0, c / 2.0 + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 2.0 * mid + math.atan(mid) < c:
            lo = mid
        else:
            hi = mid
    return hi


def _config(mode: str, n_steps: int, x0: float, loss: dict | None = None,
            coefficients: dict | None = None, payoff: dict | None = None) -> dict:
    problem = {"x0": x0, "horizon": HORIZON, "n_steps": n_steps,
               "sigma_low_sq": BAND[0], "sigma_high_sq": BAND[1]}
    problem.update(coefficients or {})
    if loss is not None:
        problem["loss"] = loss
    if payoff is not None:
        problem["payoff"] = payoff
    return {"mode": mode, "problem": problem}


def mrsde_configs(rng: random.Random, depths) -> list[dict]:
    """full_sde with the linear loss x - c1 t from x0 = 0: E[X] decays under
    the OU drift while the barrier rises, so the constraint binds."""
    return [
        _config("full_sde", n, 0.0,
                loss={"name": "linear", "params": {"c0": 0.0, "c1": rng.uniform(0.5, 1.5)}},
                coefficients=_coefficients(rng))
        for n in depths
    ]


def single_pass_configs(rng: random.Random, n_steps: int) -> list[dict]:
    """sp_only with the two nonlinear losses at the lattice cap.

    arctan_shift starts just above the root of l(0, .), smooth_sin on it, and
    the OU drift pulls X below the constraint, so both bind.
    """
    c = rng.uniform(3.0, 7.0)
    arctan = _config("sp_only", n_steps, _arctan_root(c) + 0.01,
                     loss={"name": "arctan_shift", "params": {"c": c}},
                     coefficients=_coefficients(rng))
    c0 = rng.uniform(0.0, 1.0)
    sin = _config("sp_only", n_steps, c0,
                  loss={"name": "smooth_sin", "params": {"c0": c0, "c1": rng.uniform(0.5, 1.5)}},
                  coefficients=_coefficients(rng))
    return [arctan, sin]


def probe_configs(rng: random.Random, depths) -> list[dict]:
    strike = rng.uniform(-0.5, 1.0)
    out = []
    for n in depths:
        for name in PROBE_PAYOFFS:
            params = {"strike": strike} if name == "call" else {}
            out.append(_config("gexp_probe", n, 0.0, payoff={"name": name, "params": params}))
    return out


# -- CLI operations ------------------------------------------------------------

def _read_outputs(out_dir: Path):
    csv_path, report_path = out_dir / "trace.csv", out_dir / "report.json"
    csv_bytes = csv_path.read_bytes() if csv_path.exists() else b""
    report_bytes = report_path.read_bytes() if report_path.exists() else b""
    return csv_bytes, report_bytes


def _csv_rows(csv_bytes: bytes) -> list[list[str]]:
    return [line.split(",") for line in csv_bytes.decode().splitlines()[1:]]


def _cli_op(name: str, config: dict, work_dir: Path, extra_checks, oracle=None) -> Op:
    cfg_path = work_dir / "cfg" / f"{name}.json"
    out_dir = work_dir / "out" / name
    cfg_path.parent.mkdir(parents=True, exist_ok=True)
    cfg_path.write_text(json.dumps(config, indent=2))
    argv = ["run", str(cfg_path), "--output-dir", str(out_dir)]

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def inspect(raw) -> Outcome:
        code, stdout = raw
        csv_bytes, report_bytes = _read_outputs(out_dir)
        digest = hashlib.sha256(csv_bytes + b"\0" + report_bytes + b"\0" + stdout.encode()).hexdigest()
        failures = []
        if code != 0:
            failures.append(f"exit code {code}")
        try:
            report = json.loads(report_bytes)
        except ValueError:
            return Outcome(digest, failures + ["report.json missing or unreadable"])
        failed_checks = [c["name"] for c in report["checks"] if not c["pass"]]
        if failed_checks or not report["overall_pass"]:
            failures.append(f"report checks failed: {failed_checks}")
        if not csv_bytes:
            failures.append("trace.csv missing")
        else:
            failures.extend(extra_checks(report, _csv_rows(csv_bytes)))
        return Outcome(digest, failures, len(csv_bytes) + len(report_bytes))

    n = config["problem"]["n_steps"]
    facts = {"op": name, "mode": config["mode"], "n_steps": n, "leaf_bytes_computed": 8 * 4**n}
    return Op(name, run, inspect, oracle or (lambda raw: []), facts)


def _binding_check(report, rows) -> list[str]:
    a_final = float(rows[-1][1])
    return [] if a_final > 0.0 else [f"constraint never binds: A_T = {a_final}"]


def _picard_check(n_steps: int):
    def check(report, rows) -> list[str]:
        failures = _binding_check(report, rows)
        picard = report["diagnostics"].get("picard", {})
        iterations = [s["iterations"] for s in picard.get("subintervals", [])]
        if picard.get("restarts") != 0 or iterations != [n_steps + 1]:
            failures.append(f"Picard: restarts={picard.get('restarts')}, "
                            f"iterations={iterations}, expected [{n_steps + 1}] and 0")
        return failures
    return check


def _construction_oracle(cfg_path: Path, out_dir: Path):
    """The reduced construction on the rebuilt driver must give the CSV's A."""
    def oracle(raw) -> list[str]:
        config = meanreflect.load_config(cfg_path)
        lattice = meanreflect.build_lattice(config.band(), config.grid())
        driver = meanreflect.integrate_sde(config.coefficients(), lattice, config.problem.x0)
        reduced = meanreflect.solve_mean_reflection_reduced(
            config.loss_spec(), driver, lattice, tol=config.solver.tol)
        csv_bytes, _ = _read_outputs(out_dir)
        a_csv = np.array([float(r[1]) for r in _csv_rows(csv_bytes)])
        gap = float(np.max(np.abs(reduced.A.values - a_csv)))
        if not gap <= CONSTRUCTION_ATOL:
            return [f"direct and reduced constructions differ by {gap}"]
        return []
    return oracle


def _probe_exact(config: dict) -> float:
    """Binomial value of the probe payoff: under G the lattice keeps the high
    volatility at every node for convex payoffs and the low one for concave."""
    p = config["problem"]
    n = p["n_steps"]
    name = p["payoff"]["name"]
    strike = p["payoff"]["params"].get("strike", 0.0)
    payoff = {
        "identity": lambda x: x,
        "square": lambda x: x * x,
        "neg_square": lambda x: -x * x,
        "abs": abs,
        "call": lambda x: max(x - strike, 0.0),
    }[name]
    var = p["sigma_low_sq"] if name == "neg_square" else p["sigma_high_sq"]
    step = math.sqrt(var * p["horizon"] / n)
    return math.fsum(math.comb(n, k) * payoff((2 * k - n) * step) for k in range(n + 1)) / 2**n


def _probe_check(config: dict):
    exact = _probe_exact(config)

    def check(report, rows) -> list[str]:
        value = float(rows[0][1])
        if abs(value - exact) > PROBE_ORACLE_RTOL * max(1.0, abs(exact)):
            return [f"probe value {value} != binomial value {exact}"]
        return []
    return check


# -- PDE operations ------------------------------------------------------------

def _rel_gap(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


def _heat_op(name: str, terminal, band, space, expected: Callable[[], float], rtol: float,
             **facts) -> Op:
    def run():
        return pde.solve_nonlinear_heat(terminal, band, space, HORIZON)

    def inspect(sol) -> Outcome:
        return Outcome(hashlib.sha256(sol.u.tobytes()).hexdigest(), [])

    def oracle(sol) -> list[str]:
        reference = expected()
        gap = _rel_gap(sol.value_at_origin, reference)
        return [] if gap <= rtol else [f"{name}: PDE {sol.value_at_origin} vs {reference}, rel {gap}"]

    return Op(name, run, inspect, oracle,
              {"op": name, "grid_points": len(space.xs), "dx": space.dx, **facts})


def _lattice_terminal_value(band, terminal) -> float:
    lattice = meanreflect.build_lattice(band, meanreflect.TimeGrid(HORIZON, 10))
    return meanreflect.upper_expectation(lattice, lattice.functional_from_terminal(terminal))


def pde_ops(rng: random.Random, space=None) -> list[Op]:
    band = meanreflect.VolatilityBand(*BAND)
    space = space or pde.default_space_grid(band, HORIZON)
    strike = rng.uniform(0.0, 1.0)
    n, k = rng.choice(NESTED_LATTICES)
    t1 = INNER_SPAN * k / (n - k)
    horizon = t1 + INNER_SPAN

    def call(x):
        return np.maximum(x - strike, 0.0)

    def nested_payoff(x1, x):
        return np.abs(x - x1) + NESTED_WEIGHT * x1

    def nested_lattice_value() -> float:
        lattice = meanreflect.build_lattice(band, meanreflect.TimeGrid(horizon, n))
        b1 = meanreflect.lift_values(lattice.b[k], k, n)
        xi = meanreflect.PathFunctional(n, np.abs(lattice.b[n] - b1) + NESTED_WEIGHT * b1)
        return meanreflect.upper_expectation(lattice, xi)

    def run_nested():
        return pde.nested_expectation_pde(nested_payoff, band, space, t1, horizon)

    def inspect_nested(value) -> Outcome:
        return Outcome(repr(value), [])

    def oracle_nested(value) -> list[str]:
        reference = nested_lattice_value()
        gap = _rel_gap(value, reference)
        return [] if gap <= PDE_NESTED_RTOL else [f"nested: PDE {value} vs lattice {reference}, rel {gap}"]

    return [
        _heat_op("heat_abs", np.abs, band, space,
                 lambda: _lattice_terminal_value(band, np.abs), PDE_LATTICE_RTOL),
        _heat_op("heat_call", call, band, space,
                 lambda: _lattice_terminal_value(band, call), PDE_LATTICE_RTOL, strike=strike),
        _heat_op("heat_square", lambda x: x**2, band, space,
                 lambda: band.sigma_high_sq * HORIZON, PDE_CLOSED_FORM_RTOL),
        _heat_op("heat_neg_square", lambda x: -(x**2), band, space,
                 lambda: -band.sigma_low_sq * HORIZON, PDE_CLOSED_FORM_RTOL),
        Op("nested", run_nested, inspect_nested, oracle_nested,
           {"op": "nested", "grid_points": len(space.xs), "t1": t1, "horizon": horizon,
            "lattice_n_steps": n, "lattice_t1_step": k}),
    ]


# -- workloads -----------------------------------------------------------------

def build(workload: str, seed: int, work_dir: Path, depth: int | None = None) -> list[Op]:
    """The operations of one round, drawn from ``seed``.

    ``depth`` replaces every lattice depth and swaps the PDE grid for a coarse
    one, keeping the drawn parameters: the warm-up and the self-test use it to
    run the same instances cheaply.
    """
    rng = random.Random(f"{workload}:{seed}")

    def n(default: int) -> int:
        return default if depth is None else depth

    if workload == "mrsde":
        depths = (n(10),) + (n(8),) * MRSDE_SMALL_OPS
        return [
            _cli_op(f"full_sde_{i}_n{c['problem']['n_steps']}", c, work_dir,
                    _picard_check(c["problem"]["n_steps"]))
            for i, c in enumerate(mrsde_configs(rng, depths))
        ]
    if workload == "single_pass":
        ops = []
        for c in single_pass_configs(rng, n(10)):
            name = f"sp_{c['problem']['loss']['name']}"
            ops.append(_cli_op(name, c, work_dir, _binding_check,
                               _construction_oracle(work_dir / "cfg" / f"{name}.json",
                                                    work_dir / "out" / name)))
        for c in probe_configs(rng, [n(d) for d in PROBE_DEPTHS]):
            p = c["problem"]
            name = f"probe_{p['payoff']['name']}_n{p['n_steps']}"
            ops.extend([_cli_op(name, c, work_dir, _probe_check(c))] * PROBE_REPEATS)
        return ops
    if workload == "pde_crossval":
        space = None if depth is None else pde.SpaceGrid(half_width=12.0, dx=0.2)
        return pde_ops(rng, space)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
