"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines. Tolerances are the contract and are pinned here, not configurable.

The criterion-1 battery is built from dyadic-valued payoffs (indicators,
signs, rounded transforms, scaled quadratic variation), for which every
backward-induction operation is exact in IEEE-754 arithmetic, so the "exact"
assertions are provable rather than lucky.
"""

import json
import subprocess
import sys

import numpy as np

from meanreflect import (
    Coefficients,
    MRSDEProblem,
    PathFunctional,
    PicardConfig,
    TimeGrid,
    VolatilityBand,
    brownian_process,
    build_lattice,
    check_A_lipschitz,
    compensator_modulus_gap,
    conditional_upper_expectation,
    default_space_grid,
    integrate_sde,
    lift_values,
    picard_solve,
    required_shift_signed,
    solve_mean_reflection_direct,
    solve_mean_reflection_reduced,
    solve_nonlinear_heat,
    stability_gap,
    strict_comparison_check,
    upper_expectation,
    verify_mean_reflection,
)
from meanreflect.reflection import SkorokhodSolution
from meanreflect.registry import make_loss

from conftest import child_env

BAND = VolatilityBand(1.0, 4.0)
GRID8 = TimeGrid(1.0, 8)
LAT8 = build_lattice(BAND, GRID8)
GRID6 = TimeGrid(1.0, 6)
LAT6 = build_lattice(BAND, GRID6)
ROOT_TOL = 1e-10


def report(number: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number:2d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def const_coeffs(b=0.0, h=0.0, sigma=0.0):
    return Coefficients(
        b=lambda t, x: np.full_like(x, b),
        h=lambda t, x: np.full_like(x, h),
        sigma=lambda t, x: np.full_like(x, sigma),
        kappa=0.0,
    )


def dyadic_battery():
    """20 payoff pairs (xi, eta = xi + gap) with exactly-representable values."""
    b8 = LAT8.b[8]
    qv8 = LAT8.qv[8] * 8.0  # integers: dt = 1/8, sigma^2 dt in {1/8, 1/2}
    b4 = lift_values(LAT8.b[4], 4, 8)
    running = np.abs(LAT8.b[0])
    for k in range(1, 9):
        running = np.maximum(np.repeat(running, 4), np.abs(LAT8.b[k]))
    bases = [
        np.rint(2.0 * b8),
        np.sign(b8),
        qv8,
        (b8 > 0.5).astype(float),
        np.rint(b8**2),
        np.rint(2.0 * running),
        np.rint(2.0 * b4),
        np.sign(b8) * np.rint(b4),
        np.rint(b8 + b4) / 2.0,
        np.minimum(np.rint(2.0 * b8), 3.0),
    ]
    gaps = [
        np.zeros_like(b8),
        np.ones_like(b8),
        (b8 > 0.5).astype(float),
        np.abs(np.rint(b8)),
        qv8 / 8.0,
        np.rint(running) / 4.0,
        2.0 * (b8 < 0.0).astype(float),
        np.abs(np.sign(b8)) / 2.0,
        np.rint(np.abs(b4)),
        np.full_like(b8, 2.75),
    ]
    pairs = []
    for i in range(20):
        xi = bases[i % 10] if i < 10 else bases[i % 10] - gaps[(i + 3) % 10]
        pairs.append((xi, xi + gaps[i % 10]))
    return pairs


def test_criterion_1_sublinear_axioms():
    pairs = dyadic_battery()
    assert len(pairs) == 20
    constants = [1.0, -2.0, 0.5, 2.75, -0.25]
    lambdas = [0.0, 0.5, 2.0, 1.7, 0.3]
    ok = True
    for i, (xi_vals, eta_vals) in enumerate(pairs):
        xi = PathFunctional(8, xi_vals)
        eta = PathFunctional(8, eta_vals)
        e_xi = upper_expectation(LAT8, xi)
        e_eta = upper_expectation(LAT8, eta)
        ok &= e_xi <= e_eta  # monotone, exact
        c = constants[i % 5]
        ok &= upper_expectation(LAT8, PathFunctional(8, xi_vals + c)) == e_xi + c
        e_sum = upper_expectation(LAT8, PathFunctional(8, xi_vals + eta_vals))
        ok &= e_sum <= e_xi + e_eta + 1e-12
        lam = lambdas[i % 5]
        ok &= abs(upper_expectation(LAT8, PathFunctional(8, lam * xi_vals)) - lam * e_xi) <= 1e-12
    report(1, "sublinear-expectation axioms", ok)


def test_criterion_2_g_heat_oracles():
    square = LAT8.functional_from_terminal(lambda x: x**2)
    lattice_high = upper_expectation(LAT8, square)
    lattice_low = -upper_expectation(LAT8, PathFunctional(8, -square.values))
    ok = abs(lattice_high - BAND.sigma_high_sq) <= 1e-12
    ok &= abs(lattice_low - BAND.sigma_low_sq) <= 1e-12

    space = default_space_grid(BAND, 1.0, dx=0.02)
    bound = space.dx**2 / BAND.sigma_high_sq
    pde_high = solve_nonlinear_heat(lambda x: x**2, BAND, space, 1.0, dt=bound).value_at_origin
    pde_low = solve_nonlinear_heat(lambda x: -(x**2), BAND, space, 1.0, dt=bound).value_at_origin
    ok &= abs(pde_high - BAND.sigma_high_sq) / BAND.sigma_high_sq <= 1e-3
    ok &= abs(-pde_low - BAND.sigma_low_sq) / BAND.sigma_low_sq <= 1e-3
    report(2, "g-heat closed forms (lattice exact, PDE 1e-3)", ok)


def test_criterion_3_tree_pde_cross_validation():
    lat10 = build_lattice(BAND, TimeGrid(1.0, 10))
    space = default_space_grid(BAND, 1.0, dx=0.02)
    ok = True
    for payoff in (lambda x: np.abs(x), lambda x: np.maximum(x - 0.5, 0.0)):
        lattice_value = upper_expectation(lat10, lat10.functional_from_terminal(payoff))
        pde_value = solve_nonlinear_heat(payoff, BAND, space, 1.0).value_at_origin
        ok &= abs(lattice_value - pde_value) / abs(pde_value) <= 0.05
    report(3, "tree-PDE cross-validation at 5%", ok)


def test_criterion_4_tower_property():
    b8 = LAT8.b[8]
    qv8 = LAT8.qv[8]
    payoffs = [
        b8, b8**2, np.abs(b8), np.sin(b8), np.maximum(b8 - 0.5, 0.0),
        qv8, b8 * qv8, np.cos(b8) + 0.1 * b8**2, np.sign(b8), np.abs(b8 - 1.0),
    ]
    ok = True
    for values in payoffs:
        xi = PathFunctional(8, values)
        e = upper_expectation(LAT8, xi)
        for k in (1, 4, 8):
            cond = conditional_upper_expectation(LAT8, xi, k)
            ok &= abs(upper_expectation(LAT8, cond) - e) <= 1e-12
    report(4, "tower property", ok)


def test_criterion_5_strict_comparison():
    xi = LAT8.functional_from_terminal(lambda x: x)
    r1 = strict_comparison_check(LAT8, xi, xi)
    ok = r1.passed and not r1.forward_antecedent and not r1.backward_antecedent

    eta = PathFunctional(8, xi.values + 1.0)
    r2 = strict_comparison_check(LAT8, xi, eta)
    ok &= r2.passed and r2.lower_capacity_strict == 1.0
    ok &= abs(r2.e_eta - (r2.e_xi + 1.0)) <= 1e-12

    zero = PathFunctional(1, np.zeros(4))
    first_sign = PathFunctional(1, np.array([1.0, 0.0, 1.0, 0.0]))
    r3 = strict_comparison_check(LAT8, zero, first_sign)
    ok &= r3.passed and r3.lower_capacity_strict == 0.5
    ok &= r3.e_xi == 0.0 and r3.e_eta == 0.5
    report(5, "strict comparison", ok)


def _equivalence_instances():
    drift_down = Coefficients(
        b=lambda t, x: np.full_like(x, -1.0),
        h=lambda t, x: np.zeros_like(x),
        sigma=lambda t, x: np.ones_like(x),
        kappa=0.0,
    )
    qv_drain = Coefficients(
        b=lambda t, x: np.zeros_like(x),
        h=lambda t, x: np.full_like(x, -0.5),
        sigma=lambda t, x: np.ones_like(x),
        kappa=0.0,
    )
    arith_half = integrate_sde(drift_down, LAT6, 0.5)
    arith_zero = integrate_sde(drift_down, LAT6, 0.0)
    qv_path = integrate_sde(qv_drain, LAT6, 0.0)
    b_path = brownian_process(LAT6)
    return [
        (make_loss("linear", {"c0": 0.0, "c1": 1.0}), b_path),
        (make_loss("linear", {"c0": 0.0, "c1": 0.5}), arith_half),
        (make_loss("arctan_shift", {"c": 0.0}), arith_zero),
        (make_loss("arctan_shift", {"c": -0.5}), arith_half),
        (make_loss("smooth_sin", {"c0": 0.0, "c1": 1.0}), b_path),
        (make_loss("smooth_sin", {"c0": 0.0, "c1": 1.0}), qv_path),
    ]


def _solve_equivalence_instances():
    solved = []
    for loss, s in _equivalence_instances():
        direct = solve_mean_reflection_direct(loss, s, LAT6, ROOT_TOL)
        reduced = solve_mean_reflection_reduced(loss, s, LAT6, ROOT_TOL)
        solved.append((loss, s, direct, reduced))
    return solved


def test_criterion_6_construction_equivalence():
    ok = True
    binding = 0
    for _loss, _s, direct, reduced in _solve_equivalence_instances():
        gap = float(np.max(np.abs(direct.A.values - reduced.A.values)))
        ok &= gap <= 1e-8
        binding += direct.A.values[-1] > 0.0
    ok &= binding >= 4  # the instance set must actually exercise reflection
    report(6, "construction equivalence (6 instances)", ok)


def test_criterion_7_skorokhod_conditions():
    ok = True
    for loss, s, direct, reduced in _solve_equivalence_instances():
        for sol in (direct, reduced):
            ver = verify_mean_reflection(sol, loss, s, LAT6, tol=1e-8)
            total = sol.A.values[-1] - sol.A.values[0]
            ok &= ver.identity_residual <= 1e-12
            ok &= ver.constraint_min >= -1e-8
            ok &= ver.flatoff_residual <= 1e-8 * (1.0 + total)
            ok &= ver.passed
    # the full-SDE solution passes against its own unreflected part
    loss, solution = _criterion8_solution()
    ver = verify_mean_reflection(
        SkorokhodSolution(solution.X, solution.A), loss, solution.U, LAT8, tol=1e-8
    )
    ok &= ver.passed
    report(7, "Skorokhod conditions on every produced solution", ok)


def _criterion8_solution():
    loss = make_loss("linear", {"c0": 0.0, "c1": 1.0})
    problem = MRSDEProblem(
        x0=0.0, coeffs=const_coeffs(sigma=1.0), loss=loss, band=BAND, grid=GRID8
    )
    return loss, picard_solve(problem, PicardConfig(tol=ROOT_TOL), lattice=LAT8)


def test_criterion_8_linear_loss_closed_form():
    from meanreflect.reflection import expected_loss

    loss, solution = _criterion8_solution()
    ok = bool(np.max(np.abs(solution.A.values - GRID8.times)) <= 1e-9)
    for k in range(9):
        e_l = expected_loss(float(GRID8.times[k]), solution.X.functional_at(k), LAT8, loss)
        ok &= abs(e_l) <= 1e-9
    report(8, "linear-loss closed form A(t)=t", ok)


def test_criterion_9_stability_inequality():
    ok = True
    pairs = 0
    for loss_name, loss_params in (("linear", {"c0": 0.0, "c1": 1.0}),
                                   ("arctan_shift", {"c": 0.0})):
        base_loss = make_loss(loss_name, loss_params)
        s1 = integrate_sde(
            Coefficients(b=lambda t, x: np.full_like(x, -1.0),
                         h=lambda t, x: np.zeros_like(x),
                         sigma=lambda t, x: np.ones_like(x), kappa=0.0),
            LAT6, 0.0,
        )
        sol1 = solve_mean_reflection_direct(base_loss, s1, LAT6, ROOT_TOL)
        for eps in (0.1, 1.0):
            s2 = s1.shifted(np.full(7, eps))
            sol2 = solve_mean_reflection_direct(base_loss, s2, LAT6, ROOT_TOL)
            r = stability_gap(sol1, sol2, base_loss, base_loss, s1, s2, LAT6,
                              lambda t: 0.0, slack=1e-8)
            ok &= r.holds
            pairs += 1
        for eps in (0.05, 0.5):
            shifted_loss = base_loss.shifted(eps)
            sol2 = solve_mean_reflection_direct(shifted_loss, s1, LAT6, ROOT_TOL)
            r = stability_gap(sol1, sol2, base_loss, shifted_loss, s1, s1, LAT6,
                              lambda t, _e=eps: _e, slack=1e-8)
            ok &= r.holds
            pairs += 1
    ok &= pairs == 8
    report(9, "stability inequality with derived constants", ok)


def test_criterion_10_modulus_of_A():
    loss, solution = _criterion8_solution()
    r1 = compensator_modulus_gap(
        SkorokhodSolution(solution.X, solution.A), loss, solution.U, LAT8, slack=1e-8
    )
    nonlinear = make_loss("smooth_sin", {"c0": 0.0, "c1": 1.0})
    s = integrate_sde(
        Coefficients(b=lambda t, x: np.full_like(x, -0.5),
                     h=lambda t, x: np.zeros_like(x),
                     sigma=lambda t, x: np.ones_like(x), kappa=0.0),
        LAT6, 0.0,
    )
    sol = solve_mean_reflection_direct(nonlinear, s, LAT6, ROOT_TOL)
    r2 = compensator_modulus_gap(sol, nonlinear, s, LAT6, slack=1e-8)
    report(10, "modulus of the compensator", r1.holds and r2.holds)


def test_criterion_11_picard_behavior():
    loss = make_loss("linear", {"c0": 0.0, "c1": 1.0})
    feedback = Coefficients(
        b=lambda t, x: 0.5 * (0.0 - x),
        h=lambda t, x: np.zeros_like(x),
        sigma=lambda t, x: np.ones_like(x),
        kappa=0.5,
    )
    problem = MRSDEProblem(x0=0.0, coeffs=feedback, loss=loss, band=BAND, grid=GRID6)
    sol = picard_solve(problem, PicardConfig(tol=ROOT_TOL), lattice=LAT6)
    ok = all(r < 0.5 for d in sol.diagnostics for r in d.ratios)
    ok &= any(len(d.ratios) > 0 for d in sol.diagnostics)  # decay actually observed

    other = picard_solve(problem, PicardConfig(tol=ROOT_TOL, initial_guess=5.0), lattice=LAT6)
    ok &= float(np.max(np.abs(sol.A.values - other.A.values))) <= 1e-8
    ok &= max(
        float(np.max(np.abs(sol.X.at(k) - other.X.at(k)))) for k in range(7)
    ) <= 1e-8

    flat_problem = MRSDEProblem(
        x0=0.0, coeffs=const_coeffs(sigma=1.0), loss=loss, band=BAND, grid=GRID6
    )
    flat = picard_solve(flat_problem, PicardConfig(tol=ROOT_TOL), lattice=LAT6)
    ok &= len(flat.diagnostics) == 1
    ok &= flat.diagnostics[0].iterations == 2  # one productive pass + confirmation
    ok &= flat.diagnostics[0].distances[-1] <= ROOT_TOL
    report(11, "Picard contraction behavior", ok)


def test_criterion_12_lipschitz_compensator():
    ratios = []
    for n in (4, 6, 8, 10):
        grid = TimeGrid(1.0, n)
        lattice = build_lattice(BAND, grid)
        loss = make_loss("smooth_sin", {"c0": 0.0, "c1": 1.0})
        problem = MRSDEProblem(
            x0=0.0, coeffs=const_coeffs(sigma=1.0), loss=loss, band=BAND, grid=grid
        )
        sol = picard_solve(problem, PicardConfig(tol=ROOT_TOL), lattice=lattice)
        ratios.append(check_A_lipschitz(sol, problem).max_ratio)
    ok = max(ratios) <= 1.5 * min(ratios)
    report(12, "Lipschitz compensator across refinements", ok)


def test_criterion_13_risk_measure():
    loss = make_loss("arctan_shift", {"c": 0.0})
    base_values = np.abs(LAT6.b[6]) - 1.0
    base = required_shift_signed(1.0, PathFunctional(6, base_values), LAT6, loss, ROOT_TOL)
    ok = True
    for m in (-1.0, 0.5, 2.0):
        shifted = required_shift_signed(
            1.0, PathFunctional(6, base_values + m), LAT6, loss, ROOT_TOL
        )
        ok &= abs(shifted - base + m) <= 1e-9
    dominated_gaps = [
        np.full_like(base_values, 0.25),
        np.abs(LAT6.b[6]) + 0.25,
        (LAT6.b[6] > 0).astype(float) + 0.25,
        LAT6.qv[6] / 4.0 + 0.25,
        np.maximum(LAT6.b[6], 0.0) + 0.25,
    ]
    for gap in dominated_gaps:
        lower = required_shift_signed(
            1.0, PathFunctional(6, base_values + gap), LAT6, loss, ROOT_TOL
        )
        ok &= base >= lower
    report(13, "risk-measure algebra", ok)


CRITERION8_CONFIG = {
    "mode": "full_sde",
    "problem": {
        "x0": 0.0,
        "horizon": 1.0,
        "n_steps": 8,
        "sigma_low_sq": 1.0,
        "sigma_high_sq": 4.0,
        "loss": {"name": "linear", "params": {"c0": 0.0, "c1": 1.0}},
        "sigma": {"name": "constant_sigma", "params": {"a": 1.0}},
    },
    "outputs": {"csv": "trace.csv", "report": "report.json"},
}


def _cli(args, cwd, out_dir=None):
    extra = None if out_dir is None else {"MEANREFLECT_OUTPUT_DIR": str(out_dir)}
    return subprocess.run(
        [sys.executable, "-m", "meanreflect", *args],
        cwd=cwd, env=child_env(extra), capture_output=True, text=True,
    )


def test_criterion_14_cli_end_to_end(tmp_path):
    cfg = tmp_path / "criterion8.json"
    cfg.write_text(json.dumps(CRITERION8_CONFIG))
    first = _cli(["run", str(cfg)], tmp_path, out_dir=tmp_path / "a")
    second = _cli(["run", str(cfg)], tmp_path, out_dir=tmp_path / "b")
    ok = first.returncode == 0 and second.returncode == 0
    ok &= "overall: PASS" in first.stdout
    if ok:
        ok &= (tmp_path / "a/trace.csv").read_bytes() == (tmp_path / "b/trace.csv").read_bytes()
        report_payload = json.loads((tmp_path / "a/report.json").read_text())
        ok &= report_payload["overall_pass"] is True

    bad_band = json.loads(json.dumps(CRITERION8_CONFIG))
    bad_band["problem"]["sigma_high_sq"] = 0.5
    cfg2 = tmp_path / "bad_band.json"
    cfg2.write_text(json.dumps(bad_band))
    proc = _cli(["run", str(cfg2)], tmp_path)
    ok &= proc.returncode == 2 and "config error" in proc.stderr

    bad_loss = json.loads(json.dumps(CRITERION8_CONFIG))
    bad_loss["problem"]["loss"]["c_l"] = 5.0
    bad_loss["problem"]["loss"]["C_l"] = 5.0
    cfg3 = tmp_path / "bad_loss.json"
    cfg3.write_text(json.dumps(bad_loss))
    proc = _cli(["run", str(cfg3)], tmp_path, out_dir=tmp_path / "c")
    ok &= proc.returncode == 1 and "FAIL loss_spotcheck_violations" in proc.stdout

    # the golden picard_no_contraction problem: no contraction at one step
    stuck = json.loads(json.dumps(CRITERION8_CONFIG))
    stuck["problem"]["n_steps"] = 4
    stuck["problem"]["b"] = {"name": "ou_drift", "params": {"theta": 60.0}}
    cfg4 = tmp_path / "stuck.json"
    cfg4.write_text(json.dumps(stuck))
    proc = _cli(["run", str(cfg4)], tmp_path, out_dir=tmp_path / "d")
    ok &= proc.returncode == 3 and "solver_error" in json.loads(
        (tmp_path / "d/report.json").read_text())["diagnostics"]
    report(14, "CLI end-to-end with all exit codes", ok)
