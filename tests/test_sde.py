import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from meanreflect import (
    Coefficients,
    GridMismatchError,
    InitialConstraintError,
    InvalidParameterError,
    LossSpec,
    MRSDEProblem,
    NonContractionError,
    PathFunctional,
    PicardConfig,
    ProcessOnLattice,
    SolverError,
    TimeGrid,
    VolatilityBand,
    build_lattice,
    check_A_lipschitz,
    check_A_modulus,
    check_moment_estimate,
    constant_process,
    expected_loss,
    integrate_forward,
    integrate_sde,
    picard_solve,
    picard_step,
    required_shift,
    required_shift_signed,
    solve_mean_reflection_direct,
    solve_mean_reflection_reduced,
    validate_coefficients,
    validate_loss,
    verify_mean_reflection,
)
from meanreflect import reflection, runner, sde
from meanreflect.config import config_from_dict
from meanreflect.reflection import SkorokhodSolution
from meanreflect.registry import make_coefficient, make_loss
from meanreflect.sde import running_abs_max
# runner._solve, the one solve that ``run`` makes of a config
from conftest import solve_as_run
from oracles import (
    PIECEWISE_KINKS,
    exact_dyadic_solution,
    piecewise_linear,
    ref_coefficient_violations,
)


def const_coeffs(b=0.0, h=0.0, sigma=0.0, kappa=0.0):
    return Coefficients(
        b=lambda t, x: np.full_like(x, b),
        h=lambda t, x: np.full_like(x, h),
        sigma=lambda t, x: np.full_like(x, sigma),
        kappa=kappa,
    )


def never_binding_loss():
    return make_loss("linear", {"c0": -10.0, "c1": 0.0})


class TestIntegrateForward:
    def test_zero_coefficients_stay_constant(self, lattice4):
        driver = constant_process(lattice4, 0.0)
        out = integrate_forward(const_coeffs(), lattice4, driver, 0, 4, np.array([1.5]))
        for k in range(5):
            assert np.all(out.at(k) == 1.5)

    def test_pure_drift_is_exact(self, lattice4):
        driver = constant_process(lattice4, 0.0)
        out = integrate_forward(const_coeffs(b=1.0), lattice4, driver, 0, 4, np.array([0.5]))
        for k in range(5):
            assert np.allclose(out.at(k), 0.5 + lattice4.grid.times[k], atol=1e-15)

    def test_qv_drift_telescopes_exactly(self, lattice4):
        # h = 1: the increments are the lattice's own QV increments, bitwise
        driver = constant_process(lattice4, 0.0)
        out = integrate_forward(const_coeffs(h=1.0), lattice4, driver, 0, 4, np.array([0.0]))
        for k in range(5):
            assert np.array_equal(out.at(k), lattice4.qv[k])

    def test_unit_diffusion_reproduces_path(self, lattice4):
        driver = constant_process(lattice4, 0.0)
        out = integrate_forward(const_coeffs(sigma=1.0), lattice4, driver, 0, 4, np.array([0.0]))
        for k in range(5):
            assert np.array_equal(out.at(k), lattice4.b[k])

    def test_subrange_and_shape_checks(self, lattice4):
        driver = constant_process(lattice4, 0.0)
        out = integrate_forward(const_coeffs(b=2.0), lattice4, driver, 2, 4, np.zeros(16))
        assert out.start_step == 2 and out.end_step == 4
        with pytest.raises(InvalidParameterError):
            integrate_forward(const_coeffs(), lattice4, driver, 0, 5, np.array([0.0]))
        with pytest.raises(InvalidParameterError):
            integrate_forward(const_coeffs(), lattice4, driver, 0, 4, np.zeros(2))


def test_solves_leave_canonical_path_unbuilt(band, grid6):
    # the solvers read only the per-step increments, never the per-node B and QV
    coeffs = Coefficients(b=make_coefficient("ou_drift", {"theta": 0.5}).fn,
                          h=make_coefficient("constant_drift", {"c": 0.1}).fn,
                          sigma=make_coefficient("constant_sigma").fn, kappa=0.5)
    loss = make_loss("linear", {"c0": 0.0, "c1": 1.0})
    lattice = build_lattice(band, grid6)
    solve_mean_reflection_direct(loss, integrate_sde(coeffs, lattice, 0.0), lattice)
    picard_solve(MRSDEProblem(x0=0.0, coeffs=coeffs, loss=loss, band=band, grid=grid6),
                 lattice=lattice)
    assert "b" not in vars(lattice) and "qv" not in vars(lattice)


class TestValidateCoefficients:
    def test_builtins_pass(self):
        b = make_coefficient("ou_drift", {"theta": 0.5})
        coeffs = Coefficients(b=b.fn, h=make_coefficient("zero").fn,
                              sigma=make_coefficient("constant_sigma").fn,
                              kappa=b.lipschitz)
        assert validate_coefficients(coeffs).ok

    def test_constant_coefficients_take_kappa_zero(self):
        coeffs = const_coeffs(b=-0.5, h=0.25, sigma=1.0)
        assert coeffs.kappa == 0.0
        assert validate_coefficients(coeffs).violations == ()

    @pytest.mark.parametrize("kappa", [math.inf, math.nan, -1.0])
    def test_kappa_outside_zero_to_infinity_refused(self, kappa):
        with pytest.raises(InvalidParameterError, match="kappa"):
            const_coeffs(kappa=kappa)

    @pytest.mark.parametrize("t_max, x_box", [
        (1.0, (math.nan, 1.0)), (1.0, (-math.inf, 1.0)), (1.0, (-1.0, math.inf)),
        (1.0, (1.0, -1.0)), (math.nan, (-5.0, 5.0)), (math.inf, (-5.0, 5.0)),
        (-1.0, (-5.0, 5.0)),
    ])
    def test_boxes_that_hide_violations_refused(self, t_max, x_box):
        # a drift of 50 t x declared kappa = 1 fails on the default boxes
        coeffs = Coefficients(b=lambda t, x: 50.0 * t * x, h=lambda t, x: 0.0,
                              sigma=lambda t, x: 1.0, kappa=1.0)
        assert validate_coefficients(coeffs).violations == (
            "coefficient b violates the Lipschitz bound kappa=1.0 at t=0.05263",)
        with pytest.raises(InvalidParameterError, match="x_box|t_max"):
            validate_coefficients(coeffs, t_max=t_max, x_box=x_box)

    def test_wrong_kappa_caught(self):
        coeffs = Coefficients(b=lambda t, x: 3.0 * x, h=lambda t, x: np.zeros_like(x),
                              sigma=lambda t, x: np.zeros_like(x), kappa=1.0)
        report = validate_coefficients(coeffs)
        assert not report.ok
        assert any("b" in v for v in report.violations)


# the index expressions of a pair matrix: v[:, None] - v[None, :]
PAIR_KEYS = ((slice(None), None), (None, slice(None)))


class _Watched(np.ndarray):
    """Coefficient values that count the pair matrices built from them."""

    pair_builds = 0

    def __getitem__(self, key):
        if isinstance(key, tuple) and key in PAIR_KEYS:
            _Watched.pair_builds += 1
        return super().__getitem__(key)


@pytest.fixture
def watched(monkeypatch):
    """Count the pair matrices validate_coefficients builds."""
    evaluate = sde._eval_coeff
    monkeypatch.setattr(sde, "_eval_coeff", lambda fn, t, x: evaluate(fn, t, x).view(_Watched))
    _Watched.pair_builds = 0
    return _Watched


def _registry_family(seed):
    """Seeded ou_drift / linear_sigma coefficients, with the config's kappa
    (the sum of the terms' constants) and the tight one (their largest)."""
    rng = np.random.default_rng(seed)
    b = make_coefficient("ou_drift", {"theta": rng.uniform(-3.0, 3.0), "mu": rng.uniform(-1, 1)})
    a = rng.uniform(0.2, 1.5)
    sigma = make_coefficient("linear_sigma", {"a": a, "b": rng.uniform(0.0, 1.0),
                                              "cap": a + rng.uniform(0.1, 3.0)})
    h = make_coefficient("zero")
    terms = (b.lipschitz, h.lipschitz, sigma.lipschitz)
    return b.fn, h.fn, sigma.fn, sum(terms), max(terms)


# factors on the tight kappa: a clear pass, a pass that only the pairs can
# show (the excess is inside the slack but above the certificate's margin),
# and violations
KAPPA_MOVES = (1.0 + 1e-6, 1.0, 1.0 - 1e-10, 1.0 - 1e-6, 0.5)


class TestCoefficientCertificate:
    """validate_coefficients reports exactly the all-pairs check's violations."""

    @pytest.mark.parametrize("seed", range(8))
    def test_registry_families_take_the_certified_path(self, seed, watched):
        b, h, sigma, kappa, _ = _registry_family(seed)
        coeffs = Coefficients(b=b, h=h, sigma=sigma, kappa=kappa)
        assert validate_coefficients(coeffs).violations == ()
        assert watched.pair_builds == 0
        assert ref_coefficient_violations(coeffs) == ()

    @pytest.mark.parametrize("move", KAPPA_MOVES)
    @pytest.mark.parametrize("seed", range(8))
    def test_moved_kappa_gives_the_all_pairs_verdict(self, seed, move):
        b, h, sigma, _, tight = _registry_family(seed)
        for t_max, x_box in ((1.0, (-5.0, 5.0)), (2.5, (-0.5, 3.0))):
            coeffs = Coefficients(b=b, h=h, sigma=sigma, kappa=tight * move)
            got = validate_coefficients(coeffs, t_max=t_max, x_box=x_box).violations
            assert got == ref_coefficient_violations(coeffs, t_max=t_max, x_box=x_box)

    @pytest.mark.parametrize("kappa", [0.9 * 2.6, 2.6, 2.6 * (1 + 1e-10), 10.0])
    def test_non_monotone_coefficients(self, kappa):
        # slope 2.6 cos(1.3 x + t): the adjacent differences change sign
        wave = lambda t, x: 2.0 * np.sin(1.3 * x + t)
        coeffs = Coefficients(b=wave, h=lambda t, x: np.abs(x - t),
                              sigma=lambda t, x: np.minimum(np.abs(x), 1.0), kappa=kappa)
        got = validate_coefficients(coeffs).violations
        assert got == ref_coefficient_violations(coeffs)
        assert bool(got) == (kappa < 2.6 * (1 - 1e-3))

    def test_slope_just_past_kappa_falls_back_and_passes(self, watched):
        # an adjacent excess above the certificate's margin, inside the slack
        coeffs = Coefficients(b=lambda t, x: 2.0 * (1 + 1e-10) * x,
                              h=lambda t, x: np.zeros_like(x),
                              sigma=lambda t, x: np.zeros_like(x), kappa=2.0)
        assert validate_coefficients(coeffs).violations == ()
        # b's 20 sample times, each with two index expressions
        assert watched.pair_builds == 40
        assert ref_coefficient_violations(coeffs) == ()

    @pytest.mark.parametrize("kappa, x_box", [(1e12, (-5.0, 5.0)), (1.0, (-1e12, 1e12))])
    def test_rounding_beyond_the_margin_falls_back(self, watched, kappa, x_box):
        # 16u kappa X > rtol/4: flat coefficients pass the adjacent bound, but
        # the certificate's proof does not cover the rounding, so every pair
        # of the 60 rows is checked
        flat = lambda t, x: np.zeros_like(x)
        coeffs = Coefficients(b=flat, h=flat, sigma=flat, kappa=kappa)
        assert validate_coefficients(coeffs, x_box=x_box).violations == ()
        assert watched.pair_builds == 2 * 60
        assert ref_coefficient_violations(coeffs, x_box=x_box) == ()

    @pytest.mark.parametrize("values", [
        lambda t, x: np.where(x > 0.0, np.nan, x),
        lambda t, x: np.where(x > 4.0, np.inf, x),
        lambda t, x: 1e300 * x,
        lambda t, x: np.array([t]),
    ], ids=["nan", "inf", "huge", "wrong_shape"])
    def test_values_the_certificate_refuses(self, values):
        coeffs = Coefficients(b=values, h=lambda t, x: 0.0, sigma=lambda t, x: x, kappa=1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            got = validate_coefficients(coeffs).violations
            assert got == ref_coefficient_violations(coeffs)


class TestProblem:
    def test_initial_constraint_enforced(self, band, grid8):
        loss = make_loss("linear", {"c0": 1.0, "c1": 0.0})
        with pytest.raises(InitialConstraintError):
            MRSDEProblem(x0=0.0, coeffs=const_coeffs(), loss=loss, band=band, grid=grid8)

    @pytest.mark.parametrize("field, value, message", [
        ("p", 0.5, "moment order p must be finite and >= 1, got 0.5"),
        ("p", math.nan, "moment order p must be finite and >= 1, got nan"),
        ("p", math.inf, "moment order p must be finite and >= 1, got inf"),
        ("x0", math.nan, "x0 must be finite, got nan"),
        ("x0", math.inf, "x0 must be finite, got inf"),
        ("x0", -math.inf, "x0 must be finite, got -inf"),
    ])
    def test_moment_order_checked(self, band, grid8, field, value, message):
        # NaN compares false, so a NaN p or x0 would pass p < 1 and l0 < 0
        data = {"x0": 0.0, "p": 2.0, field: value}
        with pytest.raises(InvalidParameterError, match=f"^{message}$"):
            MRSDEProblem(coeffs=const_coeffs(), loss=never_binding_loss(), band=band,
                         grid=grid8, **data)


class TestPicardStep:
    def test_constant_coefficients_make_step_constant_in_driver(self, band, lattice6, grid6):
        loss = make_loss("linear", {"c0": 0.0, "c1": 1.0})
        prob = MRSDEProblem(x0=0.0, coeffs=const_coeffs(sigma=1.0), loss=loss,
                            band=band, grid=grid6)
        u1 = constant_process(lattice6, 0.0)
        u2 = constant_process(lattice6, 5.0)
        r1 = picard_step(prob, lattice6, u1, 0, 6)
        r2 = picard_step(prob, lattice6, u2, 0, 6)
        assert np.array_equal(r1.solution.A.values, r2.solution.A.values)
        assert np.array_equal(r1.solution.X.at(6), r2.solution.X.at(6))

    def test_contraction_observed_for_lipschitz_feedback(self, band, lattice6, grid6):
        # two drivers a constant apart: outputs shrink the gap when delta is small
        b = make_coefficient("ou_drift", {"theta": 0.8})
        coeffs = Coefficients(b=b.fn, h=make_coefficient("zero").fn,
                              sigma=make_coefficient("constant_sigma").fn, kappa=0.8)
        loss = make_loss("linear", {"c0": 0.0, "c1": 1.0})
        prob = MRSDEProblem(x0=0.0, coeffs=coeffs, loss=loss, band=band, grid=grid6)
        eps = 1.0
        u1 = constant_process(lattice6, 0.0)
        u2 = constant_process(lattice6, eps)
        r1 = picard_step(prob, lattice6, u1, 0, 6)
        r2 = picard_step(prob, lattice6, u2, 0, 6)
        gap = max(
            float(np.max(np.abs(r1.solution.X.at(k) - r2.solution.X.at(k))))
            for k in range(7)
        )
        assert gap < eps  # observed contraction factor C*delta below one

    def test_distance_carries_a_nan_level_gap(self, lattice4):
        # max() would keep an earlier level's gap over level 4's NaN one
        prob = _binding_problem(lattice4.grid)
        driver = constant_process(lattice4, 0.0)
        driver.values[4][:] = np.nan
        assert math.isnan(picard_step(prob, lattice4, driver, 0, 4).distance)


class TestPicardSolve:
    def test_x_independent_converges_in_one_iteration(self, band, grid8):
        loss = make_loss("linear", {"c0": 0.0, "c1": 1.0})
        prob = MRSDEProblem(x0=0.0, coeffs=const_coeffs(sigma=1.0), loss=loss,
                            band=band, grid=grid8)
        sol = picard_solve(prob)
        assert len(sol.diagnostics) == 1
        d = sol.diagnostics[0]
        # one productive application plus one confirmation pass
        assert d.iterations == 2
        assert d.distances[1] <= 1e-10

    def test_linear_closed_form(self, band, grid8, lattice8):
        loss = make_loss("linear", {"c0": 0.0, "c1": 1.0})
        prob = MRSDEProblem(x0=0.0, coeffs=const_coeffs(sigma=1.0), loss=loss,
                            band=band, grid=grid8)
        sol = picard_solve(prob, lattice=lattice8)
        assert np.allclose(sol.A.values, grid8.times, atol=1e-9)
        report = verify_mean_reflection(
            SkorokhodSolution(sol.X, sol.A), loss, sol.U, lattice8
        )
        assert report.passed

    def test_identity_x_equals_u_plus_a(self, band, grid6, lattice6):
        b = make_coefficient("ou_drift", {"theta": 0.5})
        coeffs = Coefficients(b=b.fn, h=make_coefficient("zero").fn,
                              sigma=make_coefficient("constant_sigma").fn, kappa=0.5)
        loss = make_loss("smooth_sin", {"c0": 0.0, "c1": 1.0})
        prob = MRSDEProblem(x0=0.0, coeffs=coeffs, loss=loss, band=band, grid=grid6)
        sol = picard_solve(prob, lattice=lattice6)
        # the solution is the Skorokhod pair; U is derived from it once and kept
        assert isinstance(sol, SkorokhodSolution)
        assert sol.U is sol.U
        for k in range(7):
            assert np.allclose(sol.X.at(k), sol.U.at(k) + sol.A.values[k], atol=1e-14)

    @pytest.mark.parametrize("band_sq, horizon", [((1.0, 4.0), 2.0), ((1.0, 2.0), 1.0)],
                             ids=["grid", "band"])
    def test_lattice_must_match_problem(self, band, band_sq, horizon):
        # a lattice on TimeGrid(2, 4) would step with dt 0.5 while A takes
        # its times from the problem's TimeGrid(1, 4)
        prob = MRSDEProblem(x0=0.0, coeffs=const_coeffs(sigma=1.0),
                            loss=make_loss("linear", {"c0": 0.0, "c1": 1.0}),
                            band=band, grid=TimeGrid(1.0, 4))
        lattice = build_lattice(VolatilityBand(*band_sq), TimeGrid(horizon, 4))
        with pytest.raises(GridMismatchError, match="band and grid"):
            picard_solve(prob, lattice=lattice)

    def test_two_initial_guesses_agree(self, band, grid6, lattice6):
        b = make_coefficient("ou_drift", {"theta": 0.5})
        coeffs = Coefficients(b=b.fn, h=make_coefficient("zero").fn,
                              sigma=make_coefficient("constant_sigma").fn, kappa=0.5)
        loss = make_loss("linear", {"c0": 0.0, "c1": 1.0})
        prob = MRSDEProblem(x0=0.0, coeffs=coeffs, loss=loss, band=band, grid=grid6)
        sol_a = picard_solve(prob, PicardConfig(initial_guess=None), lattice=lattice6)
        sol_b = picard_solve(prob, PicardConfig(initial_guess=5.0), lattice=lattice6)
        assert np.max(np.abs(sol_a.A.values - sol_b.A.values)) <= 1e-8
        gap = max(
            float(np.max(np.abs(sol_a.X.at(k) - sol_b.X.at(k)))) for k in range(7)
        )
        assert gap <= 1e-8

    def test_geometric_decay_of_distances(self, band, grid6, lattice6):
        b = make_coefficient("ou_drift", {"theta": 0.8})
        coeffs = Coefficients(b=b.fn, h=make_coefficient("zero").fn,
                              sigma=make_coefficient("constant_sigma").fn, kappa=0.8)
        loss = make_loss("smooth_sin", {"c0": 0.0, "c1": 1.0})
        prob = MRSDEProblem(x0=0.0, coeffs=coeffs, loss=loss, band=band, grid=grid6)
        sol = picard_solve(prob, lattice=lattice6)
        for d in sol.diagnostics:
            assert all(r < sde.CONTRACTION_GUARD for r in d.ratios)

    def test_compensator_pasting_is_monotone_and_matched(self, band, grid8, lattice8):
        loss = make_loss("linear", {"c0": 0.0, "c1": 1.0})
        prob = MRSDEProblem(x0=0.0, coeffs=const_coeffs(sigma=1.0), loss=loss,
                            band=band, grid=grid8)
        sol = picard_solve(prob, PicardConfig(delta_initial_steps=3), lattice=lattice8)
        assert len(sol.diagnostics) == 3
        assert sol.A.values[0] == 0.0
        assert np.all(np.diff(sol.A.values) >= 0.0)
        assert np.allclose(sol.A.values, grid8.times, atol=1e-9)

    def test_causal_bound_is_a_postcondition(self, grid6, lattice6, monkeypatch, tmp_path):
        # distances 1, 0.4, 0.16, ...: each ratio is below the guard, and
        # none reaches tol within the bound of 6 + 2 iterations
        calls = []
        real_step = sde.picard_step

        def slow(*args, **kwargs):
            calls.append(None)
            step = real_step(*args, **kwargs)
            return dataclasses.replace(step, distance=0.4 ** (len(calls) - 1))

        monkeypatch.setattr(sde, "picard_step", slow)
        with pytest.raises(SolverError, match=r"within 8 iterations on steps 0\.\.6;"):
            picard_solve(_binding_problem(grid6), lattice=lattice6)
        assert len(calls) == 8
        config = config_from_dict({"mode": "full_sde", "problem": {"n_steps": 6}})
        result = runner.run_experiment(config, output_dir=str(tmp_path))
        assert result.exit_code == runner.EXIT_SOLVER_FAILURE
        assert result.report["diagnostics"]["solver_error"].startswith(
            "SolverError: Picard iteration did not converge within 8 iterations on steps 0..6;")

    @pytest.mark.parametrize("theta, solver", [
        (0.5, {}), (3.0, {}), (3.0, {"initial_guess": 2.0}), (0.5, {"delta_initial_steps": 4}),
    ])
    def test_fixed_point_lies_within_the_causal_bound(self, band, grid6, lattice6, theta,
                                                      solver):
        # with a tol far below any gap only the exact fixed point stops an
        # attempt: an m-step subinterval reaches it within m + 1 iterations
        # from X's start level (x0 on the first), within m + 2 otherwise
        coeffs = Coefficients(b=make_coefficient("ou_drift", {"theta": theta}).fn,
                              h=make_coefficient("zero").fn,
                              sigma=make_coefficient("constant_sigma").fn, kappa=0.5)
        prob = MRSDEProblem(x0=0.0, coeffs=coeffs,
                            loss=make_loss("smooth_sin", {"c0": 0.0, "c1": 1.0}),
                            band=band, grid=grid6)
        sol = picard_solve(prob, PicardConfig(tol=1e-300, **solver), lattice=lattice6)
        for d in sol.diagnostics:
            from_x = d.start_step == 0 and "initial_guess" not in solver
            assert d.distances[-1] == 0.0
            assert d.iterations <= d.end_step - d.start_step + (1 if from_x else 2)

    @pytest.mark.parametrize("field, value, message", [
        ("delta_initial_steps", 1.5, "delta_initial_steps must be an integer"),
        ("delta_initial_steps", True, "delta_initial_steps must be an integer"),
        ("tol", float("nan"), "tol must be finite"),
        ("tol", float("inf"), "tol must be finite"),
        ("tol", 0.0, "tol must be positive"),
        ("initial_guess", float("nan"), "initial_guess must be finite"),
        ("initial_guess", float("-inf"), "initial_guess must be finite"),
        ("delta_initial_steps", 0, "^delta_initial_steps must be >= 1, got 0$"),
    ])
    def test_config_rejects_values_the_solver_cannot_use(self, field, value, message):
        with pytest.raises(InvalidParameterError, match=message):
            PicardConfig(**{field: value})

    def test_solver_entries_refuse_ranges_they_cannot_solve(self, grid6, lattice6):
        prob = _binding_problem(grid6)
        short = constant_process(lattice6, 0.0, 0, 3)
        with pytest.raises(InvalidParameterError,
                           match="^driver process does not cover the integration range$"):
            integrate_forward(prob.coeffs, lattice6, short, 0, 6, np.zeros(1))
        late = constant_process(lattice6, 0.0, 2, 6)
        with pytest.raises(InvalidParameterError,
                           match=r"^initial node values required when start_step > 0$"):
            picard_step(prob, lattice6, late, 2, 6)
        point = TimeGrid(0.0, 0)
        degenerate = dataclasses.replace(prob, grid=point)
        with pytest.raises(InvalidParameterError,
                           match="^picard_solve needs at least one time step$"):
            picard_solve(degenerate)
        with pytest.raises(InvalidParameterError,
                           match="^picard_solve needs at least one time step$"):
            picard_solve(degenerate, lattice=build_lattice(prob.band, point))

    def test_config_takes_numpy_integers(self):
        assert PicardConfig(delta_initial_steps=np.int32(2)).delta_initial_steps == 2

    def test_non_contraction_aborts_at_minimum_delta(self, band, grid6, lattice6):
        # kappa far beyond any contraction radius at one-step subintervals
        wild = Coefficients(b=lambda t, x: -80.0 * x, h=lambda t, x: np.zeros_like(x),
                            sigma=lambda t, x: np.ones_like(x), kappa=80.0)
        loss = make_loss("linear", {"c0": 0.0, "c1": 1.0})
        prob = MRSDEProblem(x0=0.0, coeffs=wild, loss=loss, band=band, grid=grid6)
        with pytest.raises(NonContractionError):
            picard_solve(prob, lattice=lattice6)

    def test_delta_halving_settles_then_converges(self, band, grid8, lattice8):
        # feedback strong enough to defeat the full horizon but not short ones
        strong = Coefficients(b=lambda t, x: -3.0 * x, h=lambda t, x: np.zeros_like(x),
                              sigma=lambda t, x: np.ones_like(x), kappa=3.0)
        loss = make_loss("linear", {"c0": 0.0, "c1": 1.0})
        prob = MRSDEProblem(x0=0.0, coeffs=strong, loss=loss, band=band, grid=grid8)
        sol = picard_solve(prob, lattice=lattice8)
        assert sol.restarts >= 1
        assert len(sol.diagnostics) >= 2
        assert all(r < 0.5 for d in sol.diagnostics for r in d.ratios)
        assert sol.A.values[0] == 0.0
        assert np.all(np.diff(sol.A.values) >= 0.0)
        ver = verify_mean_reflection(
            SkorokhodSolution(sol.X, sol.A), loss, sol.U, lattice8
        )
        assert ver.passed


def _reference_solve(problem, config, lattice):
    """picard_solve written out with a full pass of picard_step on every
    iteration, every root confirmed, and its own sup distance. Returns the
    pasted solution or how the guard failed it; asserts the causal bound."""
    n = lattice.depth
    delta = config.delta_initial_steps or n
    pos, offset, restarts = 0, 0.0, 0
    a = np.zeros(n + 1)
    losses = np.full(n + 1, np.nan)
    x = [np.array([problem.x0])] + [None] * n
    initial = np.array([problem.x0])
    diags = []
    while pos < n:
        end = min(pos + delta, n)
        guess = problem.x0 if config.initial_guess is None else config.initial_guess
        driver = constant_process(lattice, guess, pos, end)
        distances, ratios = [], []
        for _ in range(end - pos + 2):
            step = picard_step(problem, lattice, driver, pos, end, initial, tol=config.tol,
                               confirm=True)
            d = max(float(np.max(np.abs(step.solution.X.at(k) - driver.at(k))))
                    for k in range(pos, end + 1))
            distances.append(d)
            if len(distances) >= 2 and distances[-2] > config.tol and d > config.tol:
                ratios.append(d / distances[-2])
                if ratios[-1] >= sde.CONTRACTION_GUARD:
                    break
            if d <= config.tol:
                break
            driver = step.solution.X
        else:
            raise AssertionError(f"no fixed point within the bound on steps {pos}..{end}")
        if d > config.tol:
            if delta <= sde.MIN_SUBINTERVAL_STEPS:
                return {"failed": "contraction", "distances": distances, "ratio": ratios[-1]}
            delta = max(sde.MIN_SUBINTERVAL_STEPS, delta // 2)
            restarts += 1
            continue
        diags.append((pos, end, distances, ratios))
        local_a = step.solution.A.values
        a[pos : end + 1] = offset + local_a
        losses[pos : end + 1] = step.solution.expected_losses
        for k in range(pos, end + 1):
            x[k] = step.solution.X.at(k)
        offset += float(local_a[-1])
        initial = step.solution.X.at(end)
        pos = end
    return {"x": x, "a": a, "losses": losses, "diags": diags, "restarts": restarts,
            "loss": problem.loss}


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def _assert_equals_reference(sol, ref):
    """picard_solve's result equals ``_reference_solve``'s bit for bit. Its
    ``expected_losses`` may also know a level where A carries an earlier,
    larger shift, which the converged iterate's sweep of X checked; each such
    value is the sweep of that X level."""
    assert sol.restarts == ref["restarts"]
    assert _bits(sol.A.values) == _bits(ref["a"])
    known = ~np.isnan(ref["losses"])
    assert _bits(sol.expected_losses[known]) == _bits(ref["losses"][known])
    for k in np.flatnonzero(~known & ~np.isnan(sol.expected_losses)).tolist():
        assert sol.A.values[k] > 0.0
        fresh = expected_loss(float(sol.A.times[k]), PathFunctional(k, ref["x"][k]),
                              sol.X.lattice, ref["loss"])
        assert _bits([sol.expected_losses[k]]) == _bits([fresh])
    for k in range(len(ref["x"])):
        assert _bits(sol.X.at(k)) == _bits(ref["x"][k])
    assert len(sol.diagnostics) == len(ref["diags"])
    for diag, (start, end, distances, ratios) in zip(sol.diagnostics, ref["diags"]):
        assert (diag.start_step, diag.end_step) == (start, end)
        assert _bits(diag.distances) == _bits(distances)
        assert _bits(diag.ratios) == _bits(ratios)


def _binding_problem(grid, loss=None):
    """A full_sde problem whose constraint binds at every step."""
    coeffs = Coefficients(b=make_coefficient("ou_drift", {"theta": 0.5}).fn,
                          h=make_coefficient("zero").fn,
                          sigma=make_coefficient("linear_sigma", {"a": 1.0, "b": 0.1}).fn,
                          kappa=0.5)
    return MRSDEProblem(x0=0.0, coeffs=coeffs,
                        loss=loss or make_loss("linear", {"c0": 0.0, "c1": 1.0}),
                        band=VolatilityBand(1.0, 4.0), grid=grid)


def _record_sweeps(monkeypatch):
    """The shift of every expected_loss call from now on, through the
    root finders' and the solver's bindings (None for no shift)."""
    shifts = []
    real = reflection.expected_loss

    def recorded(*args, **kwargs):
        shifts.append(kwargs.get("shift"))
        return real(*args, **kwargs)

    monkeypatch.setattr(reflection, "expected_loss", recorded)
    monkeypatch.setattr(sde, "expected_loss", recorded)
    return shifts


class TestLevelReuse:
    """picard_solve reuses the levels below the first one at which its driver
    changed; the result must equal full passes bit for bit."""

    CASES = {
        "ou_linear_sigma": ({"b": ("ou_drift", {"theta": 0.5}),
                             "sigma": ("linear_sigma", {"a": 1.0, "b": 0.1})}, {}, {}),
        "delta_initial_steps": ({"b": ("ou_drift", {"theta": 0.7})}, {},
                                {"delta_initial_steps": 2}),
        "initial_guess": ({"b": ("ou_drift", {"theta": 0.5}),
                           "sigma": ("linear_sigma", {"a": 1.0, "b": 0.15})}, {},
                          {"initial_guess": 2.0, "tol": 1e-12}),
        "h_drift_smooth_sin": ({"b": ("ou_drift", {"theta": 0.5}),
                                "h": ("ou_drift", {"theta": 0.4})},
                               {"loss": ("smooth_sin", {"c0": 0.0, "c1": 1.0})}, {}),
        "arctan_shift": ({"b": ("ou_drift", {"theta": 1.0})},
                         {"loss": ("arctan_shift", {"c": 5.0}), "x0": 2.5}, {}),
        "constant": ({}, {}, {}),
        "restart": ({"b": ("ou_drift", {"theta": 3.0})}, {}, {}),
        "no_contraction": ({"b": ("ou_drift", {"theta": 60.0})}, {}, {}),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_picard_solve_equals_full_passes_bitwise(self, case, band, grid6, lattice6):
        terms, problem_args, solver = self.CASES[case]
        parts = {"b": ("zero", {}), "h": ("zero", {}), "sigma": ("constant_sigma", {})}
        parts.update(terms)
        made = {key: make_coefficient(name, params) for key, (name, params) in parts.items()}
        coeffs = Coefficients(b=made["b"].fn, h=made["h"].fn, sigma=made["sigma"].fn,
                              kappa=max(m.lipschitz for m in made.values()))
        loss_name, loss_params = problem_args.get("loss", ("linear", {"c0": 0.0, "c1": 1.0}))
        prob = MRSDEProblem(x0=problem_args.get("x0", 0.0), coeffs=coeffs,
                            loss=make_loss(loss_name, loss_params), band=band, grid=grid6)
        config = PicardConfig(**solver)
        ref = _reference_solve(prob, config, lattice6)
        if "failed" in ref:
            with pytest.raises(NonContractionError) as info:
                picard_solve(prob, config, lattice=lattice6)
            assert f"observed ratio {ref['ratio']} " in str(info.value)
            assert f"after {len(ref['distances'])} iterations" in str(info.value)
            return
        sol = picard_solve(prob, config, lattice=lattice6)
        _assert_equals_reference(sol, ref)
        if case == "restart":
            assert sol.restarts >= 1

    def test_binding_solve_counts_root_finds_and_euler_steps(self, grid6, lattice6,
                                                             monkeypatch):
        # iteration j recomputes levels j..6 only: 6 + 5 + ... + 1 root finds,
        # and the confirming seventh iteration recomputes nothing
        prob = _binding_problem(grid6)
        per_step = []  # [root finds, Euler steps] per picard_step call

        def counted(fn, index):
            def wrapped(*args, **kwargs):
                per_step[-1][index] += 1
                return fn(*args, **kwargs)
            return wrapped

        def step(*args, **kwargs):
            per_step.append([0, 0])
            return real_step(*args, **kwargs)

        real_step = sde.picard_step
        monkeypatch.setattr(sde, "picard_step", step)
        # every root of picard_step is one required_shift call of reflection's level loop
        monkeypatch.setattr(reflection, "required_shift", counted(reflection.required_shift, 0))
        monkeypatch.setattr(sde, "_euler_step", counted(sde._euler_step, 1))
        sol = picard_solve(prob, lattice=lattice6)
        assert sol.A.values[-1] > 0.0
        assert sol.diagnostics[0].iterations == 7
        assert [c[0] for c in per_step] == [6, 5, 4, 3, 2, 1, 0]
        assert sum(c[0] for c in per_step) == 21
        assert per_step[-1] == [0, 0]

    @staticmethod
    def sweeps_of(prob, lattice, monkeypatch):
        """(solution, sweeps) of picard_solve with every root confirmed, then
        as it runs."""
        out = []
        real_step = sde.picard_step
        for confirm_all in (True, False):
            sweeps = _record_sweeps(monkeypatch)
            if confirm_all:
                monkeypatch.setattr(sde, "picard_step",
                                    lambda *a, **k: real_step(*a, **{**k, "confirm": True}))
            out.append((picard_solve(prob, lattice=lattice), sweeps))
            monkeypatch.undo()
        return out

    def test_linear_solve_confirms_each_kept_root_once(self, grid6, lattice6, monkeypatch):
        # the initial constraint's sweep, one sweep of E[l(t, U)] per root find
        # (21) and one sweep of X per level of the converged iterate (6), none
        # of them shifted; confirming every root took 21 shifted sweeps more
        (confirmed, every), (sol, once) = self.sweeps_of(_binding_problem(grid6), lattice6,
                                                         monkeypatch)
        assert (len(every), len(once)) == (43, 28)
        assert once == [None] * 28
        assert np.all(np.diff(sol.A.values) > 0.0)
        assert _bits(sol.expected_losses) == _bits(confirmed.expected_losses)
        assert _bits(sol.A.values) == _bits(confirmed.A.values)

    def test_policy_solve_makes_the_same_sweeps(self, grid6, lattice6, monkeypatch):
        prob = _binding_problem(grid6, make_loss("smooth_sin", {"c0": 0.0, "c1": 1.0}))
        (confirmed, every), (sol, sweeps) = self.sweeps_of(prob, lattice6, monkeypatch)
        assert sweeps == every
        assert _bits(sol.expected_losses) == _bits(confirmed.expected_losses)
        assert _bits(sol.A.values) == _bits(confirmed.A.values)

    # losses declared with slope 1 whose true slope is 1/2 somewhere
    LYING = {
        # every binding candidate -base + tol/2 fails its sweep, so the
        # converged unconfirmed iterate is thrown away
        "every_step": lambda t, x: 0.5 * (x - t),
        # from t = 3/4 on the candidates fall below the running max, so A
        # carries an earlier shift there; their roots lie above it, so the
        # sweep of X at those levels fails, and the subinterval is solved
        # again with every root confirmed
        "late_steps": lambda t, x: (1.0 if t < 0.75 else 0.5) * (x - t),
    }

    @pytest.mark.parametrize("case", sorted(LYING))
    def test_failed_candidate_takes_the_confirmed_path(self, grid6, lattice6, monkeypatch,
                                                        case):
        lying = LossSpec(fn=self.LYING[case], c_l=1.0, C_l=1.0,
                         time_modulus=lambda d: 0.5 * d, kappa_growth=1.0, name=case)
        prob = _binding_problem(grid6, lying)
        steps = []  # (confirm, result) per picard_step call
        real_step = sde.picard_step

        def step(*args, **kwargs):
            steps.append((kwargs["confirm"], real_step(*args, **kwargs)))
            return steps[-1][1]

        monkeypatch.setattr(sde, "picard_step", step)
        sol = picard_solve(prob, lattice=lattice6)
        monkeypatch.undo()
        confirms = [confirm for confirm, _ in steps]
        first = confirms.index(True)
        assert first > 0 and confirms == [False] * first + [True] * (len(steps) - first)
        assert len(steps) - first == sol.diagnostics[0].iterations
        # the thrown-away iterate: below the running max from t = 3/4 on
        # (levels 5 and 6) in the late case, nowhere in the other
        thrown = steps[first - 1][1]
        below = (thrown.shifts < thrown.solution.A.values).tolist()
        assert below == [False] * 5 + [case == "late_steps"] * 2
        assert np.all(np.diff(sol.A.values) > 0.0)
        _assert_equals_reference(sol, _reference_solve(prob, PicardConfig(), lattice6))

    def test_falling_barrier_confirms_every_open_level(self, grid6, lattice6, monkeypatch):
        # l = x - 2 min(t, 1 - t): the barrier rises to t = 1/2, then falls,
        # so from level 4 on the minimal shifts lie below the running max and
        # A carries the shift of level 3. The converged iterate sweeps X at
        # every level with a positive shift, and the verifier reuses each
        # value and the initial check's sweep of X_0: solve and verify make 28
        # sweeps where a sweep of U + x in every iterate and the verifier's
        # own sweeps of levels 0 and 4-6 made 43
        tent = LossSpec(fn=lambda t, x: x - 2.0 * min(t, 1.0 - t), c_l=1.0, C_l=1.0,
                        time_modulus=lambda d: 2.0 * d, kappa_growth=1.0, name="tent")
        prob = _binding_problem(grid6, tent)
        sweeps = _record_sweeps(monkeypatch)
        sol = picard_solve(prob, lattice=lattice6)
        ver = verify_mean_reflection(sol, tent, None, lattice6,
                                     expected_losses=sol.expected_losses)
        monkeypatch.undo()
        assert len(sweeps) == 28 and ver.passed
        a = sol.A.values
        assert np.all(np.diff(a)[:3] > 0.0) and np.all(np.diff(a)[3:] == 0.0)
        known = TestReusedLosses.assert_reuse_is_bitwise(sol, tent, sol.U, lattice6)
        assert known.tolist() == [True] * 7
        _assert_equals_reference(sol, _reference_solve(prob, PicardConfig(), lattice6))

    def test_previous_must_be_the_step_of_the_driver(self, band, grid6, lattice6):
        prob = MRSDEProblem(x0=0.0, coeffs=const_coeffs(sigma=1.0),
                            loss=make_loss("linear", {"c0": 0.0, "c1": 1.0}),
                            band=band, grid=grid6)
        first = picard_step(prob, lattice6, constant_process(lattice6, 0.0), 0, 6)
        picard_step(prob, lattice6, first.solution.X, 0, 6, previous=first)
        with pytest.raises(InvalidParameterError):
            picard_step(prob, lattice6, constant_process(lattice6, 0.0), 0, 6, previous=first)


REUSE_LOSSES = {
    "linear": (("linear", {"c0": 0.0, "c1": 1.0}), 0.0),
    "arctan_shift": (("arctan_shift", {"c": 5.0}), 2.0),
    "smooth_sin": (("smooth_sin", {"c0": 0.0, "c1": 1.0}), 0.0),
}
# (drift, sigma, Picard settings; None solves sp_only)
REUSE_SOLVES = {
    "sp_only": (("ou_drift", {"theta": 1.0}), ("linear_sigma", {"a": 1.0, "b": 0.1}), None),
    "full_sde": (("ou_drift", {"theta": 0.5}), ("linear_sigma", {"a": 1.0, "b": 0.1}), {}),
    "restart": (("ou_drift", {"theta": 3.0}), ("constant_sigma", {}), {}),
    "delta_initial_steps": (("ou_drift", {"theta": 0.7}), ("constant_sigma", {}),
                            {"delta_initial_steps": 3}),
}


def _reuse_problem(solve, loss_name, lattice, b=None):
    """The coefficients, loss, x0 and Picard settings of one REUSE_SOLVES
    case; ``b`` replaces the drift's callable."""
    (drift, sigma, picard), ((name, params), x0) = REUSE_SOLVES[solve], REUSE_LOSSES[loss_name]
    made_b, made_sigma = make_coefficient(*drift), make_coefficient(*sigma)
    coeffs = Coefficients(b=b or made_b.fn, h=make_coefficient("zero").fn, sigma=made_sigma.fn,
                          kappa=max(made_b.lipschitz, made_sigma.lipschitz))
    return coeffs, make_loss(name, params), x0, picard


def _reuse_solve(solve, loss_name, lattice, b=None):
    """The solution, loss and S of one REUSE_SOLVES case; ``b`` replaces
    the drift's callable."""
    coeffs, loss, x0, picard = _reuse_problem(solve, loss_name, lattice, b)
    if picard is None:
        s = integrate_sde(coeffs, lattice, x0)
        return solve_mean_reflection_direct(loss, s, lattice), loss, s
    prob = MRSDEProblem(x0=x0, coeffs=coeffs, loss=loss, band=lattice.band, grid=lattice.grid)
    sol = picard_solve(prob, PicardConfig(**picard), lattice=lattice)
    return sol, loss, sol.U


@pytest.mark.parametrize("loss_name", sorted(REUSE_LOSSES))
@pytest.mark.parametrize("solve", sorted(k for k, v in REUSE_SOLVES.items() if v[2] is not None))
def test_picard_solve_equals_confirming_every_root(solve, loss_name, lattice8):
    coeffs, loss, x0, picard = _reuse_problem(solve, loss_name, lattice8)
    prob = MRSDEProblem(x0=x0, coeffs=coeffs, loss=loss, band=lattice8.band,
                        grid=lattice8.grid)
    config = PicardConfig(**picard)
    _assert_equals_reference(picard_solve(prob, config, lattice=lattice8),
                             _reference_solve(prob, config, lattice8))


@pytest.mark.parametrize("loss_name", sorted(REUSE_LOSSES))
def test_picard_step_reflects_its_forward_pass_as_the_direct_loop_does(loss_name, lattice6,
                                                                      monkeypatch):
    # picard_step and _reflect_direct share one root loop
    # (reflection._reflect_levels): a full and a previous= confirming step
    # give the shifts, A and kept losses of _reflect_direct on
    # integrate_forward's U from the same driver and initial level, bit for
    # bit. picard_step's X_0 is the initial array, and it keeps its check's
    # sweep there, where _reflect_direct's X_0 = S_0 + 0.0 keeps none
    coeffs, loss, x0, _ = _reuse_problem("full_sde", loss_name, lattice6)
    prob = MRSDEProblem(x0=x0, coeffs=coeffs, loss=loss, band=lattice6.band, grid=lattice6.grid)
    direct_shifts, required = [0.0], reflection.required_shift

    def recorded(*args, **kwargs):
        shift, value = required(*args, **kwargs)
        direct_shifts.append(shift)
        return shift, value

    monkeypatch.setattr(reflection, "required_shift", recorded)
    initial = np.array([x0])
    driver, step, reused = constant_process(lattice6, x0), None, []
    for _ in range(3):
        full = picard_step(prob, lattice6, driver, 0, 6, initial, confirm=True)
        step = picard_step(prob, lattice6, driver, 0, 6, initial, previous=step, confirm=True)
        del direct_shifts[1:]
        direct_a, direct_losses = reflection._reflect_direct(
            loss, integrate_forward(coeffs, lattice6, driver, 0, 6, initial), lattice6)
        fresh_x0 = expected_loss(0.0, PathFunctional(0, initial), lattice6, loss)
        assert np.isnan(direct_losses[0])
        for got in (full, step):
            assert _bits(got.shifts) == _bits(direct_shifts)
            assert _bits(got.solution.A.values) == _bits(direct_a.values)
            assert got.solution.X.at(0) is initial
            assert _bits(got.solution.expected_losses) == _bits(
                [fresh_x0, *direct_losses[1:]])
        reused.append(step.changed_from)
        driver = step.solution.X
    # the previous= steps kept levels below the first changed one
    assert reused[-2] > 1


class TestReusedLosses:
    """Each solver keeps its root finds' last sweeps as E[l(t_k, X_k)] where
    A_k is the minimal shift; each kept value must be the sweep of X_k bit
    for bit, and the verifier must report the same with and without them."""

    @staticmethod
    def assert_reuse_is_bitwise(sol, loss, s, lattice):
        times = lattice.grid.times
        kept = sol.expected_losses
        fresh = [expected_loss(float(times[k]), sol.X.functional_at(k), lattice, loss)
                 for k in range(lattice.depth + 1)]
        known = ~np.isnan(kept)
        assert _bits(kept[known]) == _bits(np.array(fresh)[known])
        reused = verify_mean_reflection(sol, loss, s, lattice, expected_losses=kept)
        swept = verify_mean_reflection(sol, loss, s, lattice)
        assert _bits(reused.expected_losses) == _bits(fresh)
        assert reused == dataclasses.replace(swept, expected_losses=reused.expected_losses)
        return known

    @pytest.mark.parametrize("loss_name", sorted(REUSE_LOSSES))
    @pytest.mark.parametrize("solve", sorted(REUSE_SOLVES))
    def test_kept_values_equal_fresh_sweeps(self, solve, loss_name, lattice8, monkeypatch):
        built, check = [], PathFunctional.__post_init__
        monkeypatch.setattr(PathFunctional, "__post_init__",
                            lambda xi: built.append(xi.depth) or check(xi))
        sol, loss, s = _reuse_solve(solve, loss_name, lattice8)
        monkeypatch.undo()
        known = self.assert_reuse_is_bitwise(sol, loss, s, lattice8)
        # every level binds on these draws; only sp_only's level 0 is swept,
        # since Picard keeps each subinterval's check of its start level
        assert known.tolist() == [k > 0 or solve != "sp_only" for k in range(9)]
        if solve == "restart":
            assert sol.restarts >= 1
        if solve == "delta_initial_steps":
            assert len(sol.diagnostics) == 3
            # only step 0's check takes a range with its own pass: the checks
            # at steps 3 and 6 take the range of the X level before them
            assert built == [0]

    def test_compensator_above_the_shift_is_swept(self, lattice8):
        # the drift pulls S down, then up: after the turn the minimal shifts
        # fall below the running max, and those steps keep no value
        def turning(t, x):
            return np.full_like(x, -2.0 if t < 0.5 else 4.0)

        sol, loss, s = _reuse_solve("sp_only", "smooth_sin", lattice8, b=turning)
        known = self.assert_reuse_is_bitwise(sol, loss, s, lattice8)
        a = sol.A.values
        carried = (a > 0.0) & ~known
        assert carried.any() and known.any()
        assert np.all(np.diff(a)[carried[1:]] == 0.0)


class TestEstimateChecks:
    def make_solution(self, band, grid, lattice, sigma=1.0, loss=None):
        loss = loss or make_loss("linear", {"c0": 0.0, "c1": 1.0})
        prob = MRSDEProblem(x0=0.0, coeffs=const_coeffs(sigma=sigma), loss=loss,
                            band=band, grid=grid)
        return prob, picard_solve(prob, lattice=lattice)

    def test_constant_solution_moment(self, band, grid6, lattice6):
        loss = make_loss("linear", {"c0": -5.0, "c1": 0.0})
        prob = MRSDEProblem(x0=2.0, coeffs=const_coeffs(), loss=loss, band=band, grid=grid6)
        sol = picard_solve(prob, lattice=lattice6)
        report = check_moment_estimate(sol, prob)
        assert report.left == pytest.approx(abs(2.0) ** 2, abs=1e-12)

    def test_pure_drift_supremum(self, band, grid6, lattice6):
        loss = make_loss("linear", {"c0": -20.0, "c1": 0.0})
        prob = MRSDEProblem(x0=1.0, coeffs=const_coeffs(b=1.0), loss=loss,
                            band=band, grid=grid6)
        sol = picard_solve(prob, lattice=lattice6)
        sup_abs = running_abs_max(sol.X)
        assert np.allclose(sup_abs.values, 1.0 + grid6.horizon, atol=1e-12)

    def test_moment_ratio_stable_under_refinement(self, band):
        ratios = []
        for n in (4, 6, 8):
            grid = TimeGrid(1.0, n)
            lattice = build_lattice(band, grid)
            prob, sol = self.make_solution(band, grid, lattice)
            ratios.append(check_moment_estimate(sol, prob).ratio)
        assert max(ratios) <= 2.0 * min(ratios)

    def test_modulus_zero_for_flat_compensator(self, band, grid6, lattice6):
        loss = make_loss("linear", {"c0": -10.0, "c1": 0.0})
        prob = MRSDEProblem(x0=0.0, coeffs=const_coeffs(sigma=1.0), loss=loss,
                            band=band, grid=grid6)
        sol = picard_solve(prob, lattice=lattice6)
        assert check_A_modulus(sol, prob).fitted_c == 0.0

    def test_modulus_linear_compensator(self, band, grid6, lattice6):
        prob, sol = self.make_solution(band, grid6, lattice6)
        # A(t) = t against sqrt(gap) + gap: the fit stays at or below one
        report = check_A_modulus(sol, prob)
        assert report.fitted_c <= 1.0 + 1e-6

    def test_lipschitz_ratio_for_linear_compensator(self, band, grid6, lattice6):
        prob, sol = self.make_solution(band, grid6, lattice6)
        report = check_A_lipschitz(sol, prob)
        assert report.max_ratio == pytest.approx(1.0, abs=1e-6)

    def test_lipschitz_requires_smooth_flag(self, band, grid6, lattice6):
        import dataclasses

        rough = dataclasses.replace(
            make_loss("linear", {"c0": 0.0, "c1": 1.0}), smooth=False
        )
        prob = MRSDEProblem(x0=0.0, coeffs=const_coeffs(sigma=1.0), loss=rough,
                            band=band, grid=grid6)
        sol = picard_solve(prob, lattice=lattice6)
        with pytest.raises(InvalidParameterError):
            check_A_lipschitz(sol, prob)

    def test_lipschitz_stable_across_refinement(self, band):
        ratios = []
        for n in (4, 6, 8):
            grid = TimeGrid(1.0, n)
            lattice = build_lattice(band, grid)
            loss = make_loss("smooth_sin", {"c0": 0.0, "c1": 1.0})
            prob = MRSDEProblem(x0=0.0, coeffs=const_coeffs(sigma=1.0), loss=loss,
                                band=band, grid=grid)
            sol = picard_solve(prob, lattice=lattice)
            ratios.append(check_A_lipschitz(sol, prob).max_ratio)
        assert max(ratios) <= 1.5 * min(ratios)

    def test_flat_compensator_has_zero_lipschitz_ratio(self, band, grid6, lattice6):
        loss = make_loss("linear", {"c0": -10.0, "c1": 0.0})
        prob = MRSDEProblem(x0=0.0, coeffs=const_coeffs(sigma=1.0), loss=loss,
                            band=band, grid=grid6)
        sol = picard_solve(prob, lattice=lattice6)
        assert check_A_lipschitz(sol, prob).max_ratio == 0.0

    def test_modulus_fit_stable_across_refinement(self, band):
        fits = []
        for n in (4, 8):
            grid = TimeGrid(1.0, n)
            lattice = build_lattice(band, grid)
            prob, sol = self.make_solution(band, grid, lattice)
            fits.append(check_A_modulus(sol, prob).fitted_c)
        assert max(fits) <= 1.5 * min(fits)


class TestSolutionInvariants:
    def test_fixed_point_residual_below_tolerance(self, band, grid6, lattice6):
        b = make_coefficient("ou_drift", {"theta": 0.5})
        coeffs = Coefficients(b=b.fn, h=make_coefficient("zero").fn,
                              sigma=make_coefficient("constant_sigma").fn, kappa=0.5)
        loss = make_loss("linear", {"c0": 0.0, "c1": 1.0})
        prob = MRSDEProblem(x0=0.0, coeffs=coeffs, loss=loss, band=band, grid=grid6)
        tol = 1e-10
        sol = picard_solve(prob, PicardConfig(tol=tol), lattice=lattice6)
        again = picard_step(prob, lattice6, sol.X, 0, 6)
        residual = max(
            float(np.max(np.abs(again.solution.X.at(k) - sol.X.at(k))))
            for k in range(7)
        )
        assert residual <= tol

    def test_classical_limit_matches_binomial_formula(self):
        # equal band endpoints with a linear loss: A equals the classical
        # running supremum of (c(u) - E[S_u])^+ on the same binomial tree
        band = VolatilityBand(1.0, 1.0)
        grid = TimeGrid(1.0, 6)
        lattice = build_lattice(band, grid)
        loss = make_loss("linear", {"c0": 0.0, "c1": 1.0})
        prob = MRSDEProblem(x0=0.0, coeffs=const_coeffs(b=-0.5, sigma=1.0),
                            loss=loss, band=band, grid=grid)
        sol = picard_solve(prob, lattice=lattice)
        # classical mean of the unreflected part, averaged over all nodes
        means = np.array([float(np.mean(sol.U.at(k))) for k in range(7)])
        # binomial mean uses equal sign weights; lattice duplicates vols, so a
        # plain average over the 4^k nodes is that same expectation
        expected = np.maximum.accumulate(np.maximum(grid.times - means, 0.0))
        assert np.max(np.abs(sol.A.values - expected)) <= 1e-9


def _config_coefficients(**terms):
    """The Coefficients a full_sde config builds from registry ``terms``
    (name, params) by key, the others at the config defaults."""
    problem = {key: {"name": name, "params": params} for key, (name, params) in terms.items()}
    return config_from_dict({"mode": "full_sde", "problem": problem}).coefficients()


def _broadcast_euler_step(coeffs, lattice, t, cur, u):
    """The Euler step written out as the (m, 4) broadcast that per-column writes
    replaced."""
    bv = sde._eval_coeff(coeffs.b, t, u)
    hv = sde._eval_coeff(coeffs.h, t, u)
    sv = sde._eval_coeff(coeffs.sigma, t, u)
    children = (
        (cur + bv * lattice.grid.dt)[:, None]
        + hv[:, None] * lattice.step_dqv[None, :]
        + sv[:, None] * lattice.step_db[None, :]
    )
    return children.ravel()


EDGE_VALUES = np.array([0.0, -0.0, 1.0, -2.5, 5e-324, -5e-324, np.inf, -np.inf, np.nan])


class TestEulerKernel:
    """The per-column Euler step equals the broadcast step byte for byte."""

    CASES = {
        "random": Coefficients(b=lambda t, x: 0.7 * (t - x), h=lambda t, x: np.sin(x),
                               sigma=lambda t, x: np.minimum(1.0 + 0.1 * np.abs(x), 2.0),
                               kappa=1.0),
        # the coefficients pass the edge values of u through to the products
        "edges": Coefficients(b=lambda t, x: x, h=lambda t, x: -x, sigma=lambda t, x: x[::-1],
                              kappa=1.0),
        # scalar results take the fill path of _eval_coeff
        "scalar": Coefficients(b=lambda t, x: -0.0, h=lambda t, x: np.float64(np.inf),
                               sigma=lambda t, x: 1.5, kappa=1.0),
        # a config hands the step a scalar for each constant registry term
        "config_zero_h": _config_coefficients(b=("ou_drift", {"theta": 0.5}),
                                              sigma=("linear_sigma", {"a": 1.0, "b": 0.1})),
        "config_constant_drift_h": _config_coefficients(b=("constant_drift", {"c": -0.5}),
                                                        h=("constant_drift", {"c": 0.25})),
        "config_constant_sigma": _config_coefficients(sigma=("constant_sigma", {"a": 1.5})),
        # a scalar h = -0.0 makes one drift for all four children
        "scalar_zero_h": Coefficients(b=lambda t, x: np.nan, h=lambda t, x: -0.0,
                                      sigma=lambda t, x: -2.5, kappa=1.0),
    }
    CONSTANT_TERMS = {"config_zero_h": ("h",), "config_constant_drift_h": ("b", "h", "sigma"),
                      "config_constant_sigma": ("b", "h", "sigma")}

    @pytest.mark.parametrize("case", sorted(CONSTANT_TERMS))
    def test_config_hands_constant_terms_as_scalars(self, case):
        coeffs = self.CASES[case]
        x = np.linspace(-1.0, 1.0, 5)
        for key in ("b", "h", "sigma"):
            block = sde._coeff_block(getattr(coeffs, key), 0.5, x)
            if key in self.CONSTANT_TERMS[case]:
                assert type(block) is float
            else:
                assert block.shape == x.shape

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("depth", range(5))
    def test_euler_step_matches_broadcast(self, case, depth, lattice6):
        rng = np.random.default_rng(depth)
        if case == "random":
            cur, u = rng.normal(size=(2, 4**depth))
        else:
            cur, u = rng.choice(EDGE_VALUES, size=(2, 4**depth))
        coeffs = self.CASES[case]
        with np.errstate(invalid="ignore"):  # inf - inf, inf * 0
            got, value_range = sde._euler_step(coeffs, lattice6, 0.25, cur, u)
            expected = _broadcast_euler_step(coeffs, lattice6, 0.25, cur, u)
        assert _bits(got) == _bits(expected)
        if np.isnan(expected).any():
            assert all(map(np.isnan, value_range))
        else:
            assert value_range == (expected.min(), expected.max())

    def test_integrate_sde_matches_broadcast(self, lattice6):
        coeffs = self.CASES["random"]
        cur = np.array([0.3])
        expected = [cur]
        for k in range(6):
            t = float(lattice6.grid.times[k])
            cur = _broadcast_euler_step(coeffs, lattice6, t, cur, cur)
            expected.append(cur)
        got = integrate_sde(coeffs, lattice6, 0.3)
        assert [_bits(v) for v in got.values] == [_bits(v) for v in expected]


class TestLevelRanges:
    """Each Euler step takes its level's (min, max) per block, and Picard's
    X levels carry that range plus their shift: every functional a caller
    reads has the constructor's value_range, and a non-finite level raises
    the constructor's error."""

    @pytest.fixture(scope="class")
    def lattice9(self, band):
        # the Euler step's top level spans four parent blocks
        return build_lattice(band, TimeGrid(1.0, 9))

    def test_euler_step_range_over_blocks(self, lattice9):
        coeffs = TestEulerKernel.CASES["random"]
        cur = np.random.default_rng(9).normal(size=4**8)
        plain = _broadcast_euler_step(coeffs, lattice9, 0.5, cur, cur)
        children, value_range = sde._euler_step(coeffs, lattice9, 0.5, cur, cur)
        assert _bits(children) == _bits(plain)
        assert value_range == (plain.min(), plain.max())
        for bad in (np.nan, np.inf, -np.inf):
            # one bad parent in the last of four blocks
            poisoned = cur.copy()
            poisoned[-5] = bad
            with np.errstate(invalid="ignore"):
                _, value_range = sde._euler_step(coeffs, lattice9, 0.5, poisoned, cur)
            assert not all(map(np.isfinite, value_range))
            if np.isnan(bad):
                assert all(map(np.isnan, value_range))

    def test_functionals_carry_the_constructor_range(self, lattice9):
        problem = _binding_problem(lattice9.grid)
        sol = picard_solve(problem, lattice=lattice9)
        # three subintervals, whose start levels the next one recomputes
        pieces = picard_solve(problem, PicardConfig(delta_initial_steps=3), lattice=lattice9)
        sp = integrate_sde(problem.coeffs, lattice9, 0.0)
        direct = solve_mean_reflection_direct(problem.loss, sp, lattice9)
        for process in (sol.X, pieces.X, sp, direct.X):
            for k in range(10):
                xi = process.functional_at(k)
                assert xi.values is process.at(k)
                assert xi.value_range == PathFunctional(k, process.at(k)).value_range

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_level_raises_the_constructor_error(self, bad, band, grid6, lattice6):
        def b(t, x):
            return np.where((t >= 0.5) & (np.arange(x.size) % 7 == 3), bad, 0.0)

        coeffs = Coefficients(b=b, h=lambda t, x: 0.0, sigma=lambda t, x: 1.0, kappa=1.0)
        prob = MRSDEProblem(x0=0.0, coeffs=coeffs, loss=make_loss("linear"), band=band,
                            grid=grid6)
        level = integrate_sde(coeffs, lattice6, 0.0).at(4)
        with pytest.raises(InvalidParameterError) as expected:
            PathFunctional(4, level)
        with np.errstate(invalid="ignore"), pytest.raises(InvalidParameterError) as info:
            picard_solve(prob, lattice=lattice6)
        assert str(info.value) == str(expected.value)

    @pytest.mark.parametrize("signed_level", [0, 3, 6])
    def test_a_zero_of_the_other_sign_changes_the_level_not_the_distance(
            self, signed_level, band, grid6, lattice6):
        # zero coefficients and a slack constraint make every X level +0.0
        def zero(t, x):
            return 0.0

        prob = MRSDEProblem(x0=0.0, coeffs=Coefficients(b=zero, h=zero, sigma=zero, kappa=1.0),
                            loss=never_binding_loss(), band=band, grid=grid6)
        levels = [np.zeros(4**k) for k in range(7)]
        levels[signed_level][-1] = -0.0
        driver = ProcessOnLattice(lattice6, 0, tuple(levels))
        step = picard_step(prob, lattice6, driver, 0, 6)
        assert _bits([step.distance]) == _bits([0.0])
        assert step.changed_from == signed_level
        again = picard_step(prob, lattice6, step.solution.X, 0, 6, previous=step)
        assert _bits([again.distance]) == _bits([0.0])
        assert again.changed_from == 7


def _guarded(fn, arrays_of, seen):
    """Wrap fn so that every call checks the arrays ``arrays_of(*args, **kwargs)``
    names are bit for bit the same after the call as before it."""

    def wrapped(*args, **kwargs):
        arrays = [a for a in arrays_of(*args, **kwargs) if a is not None]
        before = [a.copy() for a in arrays]
        result = fn(*args, **kwargs)
        for a, b in zip(arrays, before):
            assert _bits(a) == _bits(b), f"{fn.__name__} wrote to one of its inputs"
        seen.append(len(arrays))
        return result

    return wrapped


def _step_inputs(problem, lattice, driver, start_step, end_step, initial=None, tol=1e-10,
                 previous=None, *, confirm=True):
    # picard_solve gives a later subinterval its start level as a functional
    arrays = [getattr(initial, "values", initial), *driver.values]
    if previous is not None:
        arrays += [*previous.solution.X.values, previous.unreflected]
    return arrays


def _forward_inputs(coeffs, lattice, driver, start_step, end_step, initial):
    return [initial, *driver.values]


class TestInputsUnchanged:
    """The top level is reflected in place and the distance and root finds go
    through scratch buffers; none of them may write to an array a caller
    passed in. Signed zeros make even an added 0.0 show."""

    @staticmethod
    def _problem(band, grid6):
        coeffs = Coefficients(b=make_coefficient("ou_drift", {"theta": 0.5}).fn,
                              h=make_coefficient("zero").fn,
                              sigma=make_coefficient("linear_sigma", {"a": 1.0, "b": 0.1}).fn,
                              kappa=0.5)
        return MRSDEProblem(x0=-0.0, coeffs=coeffs, loss=make_loss("linear", {"c0": 0.0, "c1": 1.0}),
                            band=band, grid=grid6)

    @staticmethod
    def _initial(start_step):
        # E[l(t, initial)] stays above the binding barrier t at start_step <= 3
        return np.resize(np.array([-0.0, 2.0, 3.0, -0.0]), 4**start_step)

    @staticmethod
    def _driver(lattice, start_step, end_step):
        rng = np.random.default_rng(start_step)
        levels = tuple(rng.choice(np.array([-0.0, 0.5, 1.0]), size=4**k)
                       for k in range(start_step, end_step + 1))
        return ProcessOnLattice(lattice, start_step, levels)

    def test_integrate_forward(self, band, grid6, lattice6):
        seen = []
        guarded = _guarded(integrate_forward, _forward_inputs, seen)
        prob = self._problem(band, grid6)
        guarded(prob.coeffs, lattice6, self._driver(lattice6, 2, 5), 2, 5, self._initial(2))
        guarded(prob.coeffs, lattice6, self._driver(lattice6, 3, 3), 3, 3, self._initial(3))
        assert seen == [5, 2]

    @pytest.mark.parametrize("start_step,end_step", [(0, 6), (2, 5), (3, 3)])
    def test_picard_step_full_and_previous_passes(self, band, grid6, lattice6,
                                                  start_step, end_step):
        seen = []
        guarded = _guarded(picard_step, _step_inputs, seen)
        prob = self._problem(band, grid6)
        initial = self._initial(start_step)
        driver = self._driver(lattice6, start_step, end_step)
        step = None
        for _ in range(4):
            step = guarded(prob, lattice6, driver, start_step, end_step, initial, previous=step)
            # every pass keeps the array it started from as X's start level
            assert step.solution.X.at(start_step) is initial
            driver = step.solution.X
        assert len(seen) == 4
        if start_step < end_step:
            # some pass started from an unreflected level of the one before
            assert max(seen) == 1 + 2 * (end_step - start_step + 1) + 1

    def test_picard_solve(self, band, grid6, lattice6, monkeypatch):
        seen_steps, seen_forward = [], []
        monkeypatch.setattr(sde, "picard_step",
                            _guarded(sde.picard_step, _step_inputs, seen_steps))
        monkeypatch.setattr(sde, "integrate_forward",
                            _guarded(sde.integrate_forward, _forward_inputs, seen_forward))
        prob = self._problem(band, grid6)
        for config in (PicardConfig(), PicardConfig(delta_initial_steps=2)):
            seen_steps.clear()
            sol = picard_solve(prob, config, lattice=lattice6)
            assert sol.A.values[-1] > 0.0
            assert len(seen_steps) == sum(d.iterations for d in sol.diagnostics)
        assert seen_forward

    def test_root_finds_leave_the_functional_unchanged(self, band, grid6, lattice6):
        loss = make_loss("linear", {"c0": 0.0, "c1": 1.0})
        values = np.resize(np.array([-0.0, 0.25, -1.0, 0.0]), 4**4)
        before = values.copy()
        xi = PathFunctional(4, values)
        assert required_shift(0.5, xi, lattice6, loss) > 0.0
        assert required_shift_signed(0.5, xi, lattice6, loss) > 0.0
        assert required_shift_signed(0.0, xi, lattice6, loss) < 0.0
        assert xi.values is values
        assert _bits(values) == _bits(before)


def _dyadic_config(mode, n_steps):
    """The dyadic config of ``oracles.exact_dyadic_solution``, with the
    ``linear`` loss."""
    return config_from_dict({"mode": mode, "problem": {
        "x0": 0.0, "horizon": n_steps / 4, "n_steps": n_steps,
        "sigma_low_sq": 1.0, "sigma_high_sq": 4.0,
        "b": {"name": "ou_drift", "params": {"theta": 0.5}},
        "sigma": {"name": "linear_sigma", "params": {"a": 1.0, "b": 0.125, "cap": 2.0}},
        "loss": {"name": "linear", "params": {"c0": 0.0, "c1": 1.0}}}})


@pytest.mark.parametrize("n_steps", [3, 4, 5, 6])
@pytest.mark.parametrize("mode", ["sp_only", "full_sde"])
def test_compensator_against_the_exact_discrete_one(mode, n_steps):
    """A - A* against the exact rational A* of the dyadic config. Each
    affine root is -base/c + tol/2, minimal within tol given its own U, so
    in ``sp_only`` 0 <= A - A* <= tol. In ``full_sde`` the tol/2 pads feed
    forward through the drift, whose Lipschitz constant is theta = 1/2, so
    the excess follows (tol/2)(1 + theta (t_k - t_1)). The slack, 2e-5 tol
    (nine ulps of 1.0), covers the rounding of the float scheme's node
    values and sweeps, which are of order 1; it measured 1.2e-6 tol."""
    config = _dyadic_config(mode, n_steps)
    solution = solve_as_run(config)[2]
    tol = Fraction(config.solver.tol)
    exact = exact_dyadic_solution(n_steps, full_sde=mode == "full_sde")[0]
    for k, (a, a_star) in enumerate(zip(solution.A.values.tolist(), exact)):
        if mode == "sp_only":
            bound = tol
        else:
            bound = tol / 2 * (1 + Fraction(1, 2) * Fraction(k - 1, 4)) + Fraction(2, 10**5) * tol
        excess = Fraction(a) - a_star
        assert 0 <= excess <= bound, (k, float(excess / tol))


FLOAT_KINKS = tuple((float(kink), float(jump)) for kink, jump in PIECEWISE_KINKS)
# oracles.piecewise_linear in floats: slopes 1 to 3/2, so its roots take
# Howard's policy iteration
PIECEWISE_LOSS = LossSpec(fn=lambda t, x: piecewise_linear(x - t, FLOAT_KINKS, np.maximum),
                          c_l=1.0, C_l=1.5, time_modulus=lambda d: 1.5 * d, kappa_growth=1.5,
                          name="piecewise_linear")


@pytest.mark.parametrize("n_steps", [3, 4, 5, 6])
@pytest.mark.parametrize("mode", ["sp_only", "full_sde"])
def test_howard_compensator_against_the_exact_discrete_one(mode, n_steps):
    """A, the reduced construction's A and the verifier's E[l(t_k, X_k)]
    against the exact rationals A* and c* of the dyadic config with the
    piecewise-linear loss, whose roots Howard's iteration finds.

    Howard stops at 0 <= phi < c_l tol, so each root lies less than tol
    above the exact one for its own U. In ``sp_only`` U = S is exact, so
    0 <= A - A* < tol. X = S + A, and l's slopes lie in [c_l, C_l] = [1,
    3/2], so c* + (A - A*) <= c <= c* + 3/2 (A - A*).

    In ``full_sde`` an excess E_k of A_k moves X_k, and the Euler step
    U_{k+1} = U_k - X_k/8 + sigma(X_k) dB, with sigma of slope 1/8 and |dB|
    <= 1, passes at most E_k/4 of it on to every node of U_{k+1}; a shift D
    of U moves its root by at most D. So D_{k+1} <= D_k + E_k/4 and E_k <=
    D_k + tol, which gives E_k <= tol (5/4)^(k-1), D_k <= E_k - tol and
    |c - c*| <= 3/2 (D_k + E_k). The lower side 0 <= A - A* is measured, as
    for the affine loss.

    Each side takes the affine test's slack, 2e-5 tol: Howard certifies phi
    >= 0 by a float sweep, so a root can sit an ulp below the exact one
    (-2.2e-6 tol at sp_only step 6)."""
    config = _dyadic_config(mode, n_steps)
    lattice, loss, solution = solve_as_run(config, PIECEWISE_LOSS)
    assert validate_loss(loss).ok
    verified = verify_mean_reflection(solution, loss, None, lattice,
                                      expected_losses=solution.expected_losses)
    assert verified.passed
    tol = Fraction(reflection.DEFAULT_ROOT_TOL)
    slack = Fraction(2, 10**5) * tol
    a_star, c_star = exact_dyadic_solution(n_steps, mode == "full_sde", PIECEWISE_KINKS)
    if mode == "sp_only":
        S = integrate_sde(config.coefficients(), lattice, config.problem.x0)
        reduced = solve_mean_reflection_reduced(loss, S, lattice)
    for k, (a, c) in enumerate(zip(solution.A.values.tolist(),
                                   verified.expected_losses.tolist())):
        excess, gap = Fraction(a) - a_star[k], Fraction(c) - c_star[k]
        if mode == "sp_only":
            assert -slack <= excess < tol, (k, float(excess / tol))
            assert excess - slack <= gap <= Fraction(3, 2) * excess + slack, (k, float(gap / tol))
            assert -slack <= Fraction(reduced.A.values[k]) - a_star[k] < tol, k
        else:
            bound = tol * Fraction(5, 4) ** (k - 1) if k else Fraction(0)
            assert -slack <= excess <= bound + slack, (k, float(excess / tol))
            shift = 2 * bound - tol if k else Fraction(0)
            assert abs(gap) <= Fraction(3, 2) * shift + slack, (k, float(gap / tol))
