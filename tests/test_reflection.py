import dataclasses
import json
import math
import re
import warnings

import numpy as np
import pytest

from meanreflect import (
    BracketError,
    Coefficients,
    GridMismatchError,
    InitialConstraintError,
    InvalidParameterError,
    LossSpec,
    PathFunctional,
    ProcessOnLattice,
    TimeGrid,
    brownian_process,
    build_lattice,
    centered_loss,
    centered_loss_inverse,
    compensator_modulus_gap,
    deterministic_skorokhod,
    expected_loss,
    integrate_sde,
    required_shift,
    required_shift_signed,
    risk_measure,
    solve_mean_reflection_direct,
    solve_mean_reflection_reduced,
    stability_gap,
    upper_expectation,
    verify_mean_reflection,
)
from meanreflect import cli, reflection, registry
from meanreflect.reflection import DeterministicPath, SkorokhodSolution, _smallest_nonneg_point
from meanreflect.registry import make_loss
from conftest import zero_s_with
from oracles import ref_bisect, ref_upper_expectation

TOL = 1e-10


def drifted_process(lattice, x0=0.0, drift=-1.0, vol=1.0):
    coeffs = Coefficients(
        b=lambda t, x: np.full_like(x, drift),
        h=lambda t, x: np.zeros_like(x),
        sigma=lambda t, x: np.full_like(x, vol),
        kappa=1e-9,
    )
    return integrate_sde(coeffs, lattice, x0)


def piecewise_linear(rng, slope_max, root):
    """An increasing piecewise-linear map with up to five random kinks on each
    side of root and slopes drawn from [1, slope_max]. Each piece is evaluated
    from its own kink, so phi(x) >= 0 exactly when x >= root."""
    sides = []
    for sign in (1.0, -1.0):
        kinks = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 5.0, rng.integers(0, 6)))])
        slopes = rng.uniform(1.0, slope_max, len(kinks))
        offsets = np.concatenate([[0.0], np.cumsum(slopes[:-1] * np.diff(kinks))])
        sides.append((sign, kinks, slopes, offsets))

    def phi(x):
        d = x - root
        sign, kinks, slopes, offsets = sides[0] if d >= 0.0 else sides[1]
        i = int(np.searchsorted(kinks, sign * d, side="right")) - 1
        return sign * (offsets[i] + slopes[i] * (sign * d - kinks[i]))

    return phi


def interior_evaluations(phi, lo, hi):
    """Run the root finder on [lo, hi]; return its result and the number of
    evaluations away from the two bracket ends."""
    calls = []

    def counted(x):
        calls.append(x)
        return phi(x)

    got = _smallest_nonneg_point(counted, lo, hi, TOL, "test", f_zero=phi(0.0))
    return got, sum(x not in (lo, hi) for x in calls)


class TestRootFinder:
    @pytest.mark.parametrize("slope_max", [1.0, 3.0, 10.0, 100.0])
    def test_piecewise_linear_within_bisection_plus_two(self, slope_max):
        rng = np.random.default_rng(int(slope_max))
        for _ in range(200):
            root = rng.uniform(-3.0, 3.0)
            lo, hi = root - rng.uniform(1e-9, 4.0), root + rng.uniform(1e-9, 4.0)
            phi = piecewise_linear(rng, slope_max, root)
            got, interior = interior_evaluations(phi, lo, hi)
            assert phi(got) >= 0.0
            assert got - root <= TOL
            assert interior <= math.ceil(math.log2((hi - lo) / TOL)) + 2

    def test_affine_map_closes_in_two_interior_evaluations(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            root, slope = rng.uniform(-3.0, 3.0), rng.uniform(0.1, 10.0)
            lo, hi = root - rng.uniform(1e-9, 4.0), root + rng.uniform(1e-9, 4.0)
            got, interior = interior_evaluations(lambda x: slope * (x - root), lo, hi)
            assert root <= got <= root + TOL
            assert interior <= 2

    def test_linear_loss_root_takes_at_most_four_loss_calls(self, lattice6):
        # one call at x = 0 and one confirming the closed-form shift, since
        # the linear loss declares c_l = C_l; the bound leaves the search's room
        xi = lattice6.functional_from_terminal(lambda x: x)
        for c in (0.4, 2.0, 7.5):
            linear = make_loss("linear", {"c0": c, "c1": 0.0})
            calls = []

            def counted(t, x, fn=linear.fn):
                calls.append(t)
                return fn(t, x)

            loss = dataclasses.replace(linear, fn=counted)
            got = required_shift(1.0, xi, lattice6, loss, TOL)
            assert got == pytest.approx(c - upper_expectation(lattice6, xi), abs=2 * TOL)
            assert len(calls) <= 4


class TestBracketExpansion:
    """The search widens a bracket whose feasible end is not feasible
    upwards, and one whose infeasible end is feasible downwards; the
    brackets come from the declared lower slope c_l (``_bracket``), so a
    loss flatter than its declaration takes the downward expansion."""

    def test_flatter_than_declared_expands_downwards(self):
        # phi = 1 + x/2 declared with c_l = 1: the bracket [-1 - tol, 0]
        # holds no sign change, and one doubling finds phi(-2 - 2 tol) < 0
        calls = []

        def phi(x):
            calls.append(x)
            return 1.0 + 0.5 * x

        lo, hi = reflection._bracket(1.0, 1.0, TOL)
        assert (lo, hi) == (-1.0 - TOL, 0.0)
        got = _smallest_nonneg_point(phi, lo, hi, TOL, "flat", f_zero=1.0)
        assert calls[:2] == [lo, lo - (1.0 + TOL)]
        assert -2.0 <= got <= -2.0 + TOL and phi(got) >= 0.0

    def test_phi_that_stays_nonnegative_is_a_bracket_error(self):
        # slope 1e-3 against a declared c_l = 1: eight doublings of the
        # bracket [-1.5, 0] reach -1.5 * 256 = -384 with phi still positive
        lo, hi = reflection._bracket(1.0, 1.0, 0.5)
        with pytest.raises(BracketError) as raised:
            _smallest_nonneg_point(lambda x: 1.0 + 1e-3 * x, lo, hi, 0.5, "flat(t=1)",
                                   f_zero=1.0)
        assert str(raised.value) == "flat(t=1): phi stays nonnegative down to x=-384.0"

    @pytest.mark.parametrize("tol", [0.0, -1e-10])
    def test_tol_must_be_positive(self, tol):
        with pytest.raises(InvalidParameterError) as raised:
            _smallest_nonneg_point(lambda x: x, -1.0, 1.0, tol, "ctx", f_zero=0.0)
        assert str(raised.value) == f"tol must be positive, got {tol}"


class TestRequiredShift:
    def test_linear_loss_closed_form(self, lattice6):
        # l(t,x) = x - c: the shift is (c - E[X])^+
        for c in (0.4, -1.0, 2.0):
            loss = make_loss("linear", {"c0": c, "c1": 0.0})
            xi = lattice6.functional_from_terminal(lambda x: x)
            m = upper_expectation(lattice6, xi)
            got = required_shift(1.0, xi, lattice6, loss, TOL)
            assert got == pytest.approx(max(0.0, c - m), abs=2 * TOL)

    def test_already_acceptable_returns_zero(self, lattice6):
        loss = make_loss("linear", {"c0": -1.0, "c1": 0.0})
        xi = lattice6.functional_from_terminal(lambda x: x)
        assert required_shift(1.0, xi, lattice6, loss, TOL) == 0.0

    def test_arctan_root_matches_scalar_oracle(self, lattice6):
        # X = 0, l = 2x + arctan(x) - 5: frozen from the independent bisection
        frozen = 1.9513835418123042
        oracle = ref_bisect(lambda x: 2.0 * x + np.arctan(x) - 5.0, 0.0, 3.0)
        assert oracle == pytest.approx(frozen, abs=1e-12)
        loss = make_loss("arctan_shift", {"c": 5.0})
        xi = PathFunctional(0, np.zeros(1))
        got = required_shift(0.0, xi, lattice6, loss, TOL)
        assert got == pytest.approx(frozen, abs=2 * TOL)

    def test_achieved_root_is_near_zero(self, lattice6):
        loss = make_loss("arctan_shift", {"c": 1.0})
        xi = lattice6.functional_from_terminal(lambda x: x)
        shift = required_shift(0.75, xi, lattice6, loss, TOL)
        if shift > 0.0:
            resid = expected_loss(0.75, PathFunctional(6, xi.values + shift), lattice6, loss)
            assert abs(resid) <= loss.C_l * TOL

    def test_wrong_c_l_declaration_fails_bracket(self, lattice6):
        # declared slope far above the true one starves the bracket
        lying = LossSpec(fn=lambda t, x: 0.01 * x - 1.0, c_l=1e6, C_l=1e6,
                         time_modulus=lambda d: 0.0, kappa_growth=2.0, name="lying")
        xi = PathFunctional(0, np.zeros(1))
        with pytest.raises(BracketError):
            required_shift(0.0, xi, lattice6, lying, TOL)


AFFINE_SLOPES = (0.4, 1.0, 2.5, 7.5)


def affine_loss(c, k, declared=None):
    """l(t, x) = c (x - k), declared with c_l = C_l = declared (default c)."""
    slope = c if declared is None else declared
    return LossSpec(fn=lambda t, x: c * (x - k), c_l=slope, C_l=slope,
                    time_modulus=lambda d: 0.0, kappa_growth=c * (1.0 + abs(k)),
                    name="affine")


def counted_loss(loss):
    calls = []

    def counted(t, x, fn=loss.fn):
        calls.append(t)
        return fn(t, x)

    return dataclasses.replace(loss, fn=counted), calls


def oracle_root(fn, values, depth, z=0.0):
    """Root of x -> E[fn(1, values + x)] - z by the recursive expectation and
    scalar bisection to 1e-14."""
    return ref_bisect(lambda x: ref_upper_expectation(fn(1.0, values + x), depth) - z,
                      -10.0, 10.0)


class TestAffineShortcut:
    """A loss declared with c_l = C_l takes the closed-form shift, confirmed
    by one sweep: two loss calls per root, one for E[l(t, X)] and one at the
    shift."""

    @pytest.mark.parametrize("c", AFFINE_SLOPES)
    @pytest.mark.parametrize("offset", [0.7, -0.7])  # base < 0 and base > 0
    @pytest.mark.parametrize("shift", [required_shift, required_shift_signed])
    def test_shift_takes_one_confirming_sweep(self, lattice4, c, offset, shift):
        xi = lattice4.functional_from_terminal(lambda x: x)
        exact = affine_loss(c, ref_upper_expectation(xi.values, 4) + offset)
        loss, calls = counted_loss(exact)
        got = shift(1.0, xi, lattice4, loss, TOL)
        if shift is required_shift and offset < 0.0:  # base >= 0: no search
            assert got == 0.0 and len(calls) == 1
            return
        assert len(calls) == 2
        root = oracle_root(exact.fn, xi.values, 4)
        assert root <= got <= root + TOL
        assert expected_loss(1.0, xi, lattice4, exact, shift=got) >= 0.0

    @pytest.mark.parametrize("c", AFFINE_SLOPES)
    @pytest.mark.parametrize("z", [0.9, -0.9])  # base = -z of both signs
    def test_inverse_takes_one_confirming_sweep(self, lattice4, c, z):
        y = lattice4.functional_from_terminal(lambda x: x)
        exact = affine_loss(c, 0.0)
        loss, calls = counted_loss(exact)
        got = centered_loss_inverse(1.0, z, y, lattice4, loss, TOL)
        assert len(calls) == 2
        centered = y.values - ref_upper_expectation(y.values, 4)
        root = oracle_root(exact.fn, centered, 4, z)
        assert root <= got <= root + TOL
        centered_xi = PathFunctional(4, y.values - upper_expectation(lattice4, y))
        assert expected_loss(1.0, centered_xi, lattice4, exact.shifted(-z), shift=got) >= 0.0

    def test_wrong_affine_declaration_falls_through_to_the_search(self, lattice4):
        # true slope 0.5, declared 1: the closed-form shift is infeasible
        xi = lattice4.functional_from_terminal(lambda x: x)
        k = ref_upper_expectation(xi.values, 4) + 0.7
        loss, calls = counted_loss(affine_loss(0.5, k, declared=1.0))
        got = required_shift(1.0, xi, lattice4, loss, TOL)
        assert len(calls) > 2

        def phi(x):
            return expected_loss(1.0, xi, lattice4, loss, shift=x)

        base = phi(0.0)
        searched = _smallest_nonneg_point(phi, 0.0, -base + 0.5 * TOL, TOL, "search",
                                          f_zero=base)
        assert got == searched
        root = oracle_root(affine_loss(0.5, k).fn, xi.values, 4)
        assert root <= got <= root + TOL

    def test_failed_candidate_is_not_swept_again(self, lattice4, monkeypatch):
        # true slope 0.5, declared 1: the failed candidate is the search's
        # padded hi, whose value the search takes from the candidate's sweep
        xi = lattice4.functional_from_terminal(lambda x: x)
        k = ref_upper_expectation(xi.values, 4) + 0.7
        loss = affine_loss(0.5, k, declared=1.0)
        shifts = record_sweeps(monkeypatch)
        got = required_shift(1.0, xi, lattice4, loss, TOL)
        assert len(shifts) > 2 and len(set(shifts)) == len(shifts)
        base = expected_loss(1.0, xi, lattice4, loss)
        searched = _smallest_nonneg_point(
            lambda x: expected_loss(1.0, xi, lattice4, loss, shift=x),
            0.0, -base + 0.5 * TOL, TOL, "search", f_zero=base)
        assert got == searched


def record_sweeps(monkeypatch):
    """The shift of every sweep that the root finders make from now on
    (None for E[l(t, X)] itself)."""
    shifts = []
    real = reflection.expected_loss

    def recorded(*args, **kwargs):
        shifts.append(kwargs.get("shift"))
        return real(*args, **kwargs)

    monkeypatch.setattr(reflection, "expected_loss", recorded)
    return shifts


POLICY_DEPTHS = (0, 4, 6, 9)
ROOT_FUNCTIONS = (required_shift, required_shift_signed, centered_loss_inverse)


@pytest.fixture(scope="module")
def lattice9(band):
    return build_lattice(band, TimeGrid(1.0, 9))


def kinked(lat, depth):
    """X = B + 0.5 sin(3 B) + 0.3 at ``depth``: not monotone in B, so the
    optimal policy of x -> E[l(t, X + x)] switches with x."""
    b = lat.b[depth]
    return PathFunctional(depth, b + 0.5 * np.sin(3.0 * b) + 0.3)


def level_expectation(values):
    """The upper expectation by whole-level averages and maxima."""
    while values.size > 1:
        values = values.reshape(-1, 2, 2).mean(axis=2).max(axis=1)
    return values[0]


def assert_minimal_within_tol(fn, values, depth, got):
    """got lies within TOL above the root of x -> E[fn(1, values + x)]: by
    the recursive oracle up to depth 4, beyond by the sign of the
    whole-level expectation at got and at got - TOL."""
    if depth <= 4:
        root = oracle_root(fn, values, depth)
        assert root - 1e-14 <= got <= root + TOL
    else:
        assert level_expectation(fn(1.0, values + got)) >= 0.0
        assert level_expectation(fn(1.0, values + (got - TOL))) < 0.0


def policy_problem(lat, name, depth, offset, inverse):
    """The points X (centered for the inverse), a loss of ``name`` shifted
    so that E[l(1, X)] is about -offset, and the level z the inverse
    solves for."""
    xi = kinked(lat, depth)
    values = xi.values - upper_expectation(lat, xi) if inverse else xi.values
    plain = make_loss(name, {"c": 0.0} if name == "arctan_shift" else {"c0": 0.0, "c1": 0.0})
    level = expected_loss(1.0, PathFunctional(depth, values), lat, plain) + offset
    return values, (plain, level) if inverse else (plain.shifted(-level), 0.0)


class TestPolicyIteration:
    """Losses with c_l < C_l take Howard's policy iteration: each root is
    minimal within tol, after at most four sweeps beyond E[l(t, X)]."""

    @pytest.mark.parametrize("depth", POLICY_DEPTHS)
    @pytest.mark.parametrize("offset", [0.7, -0.7])  # base < 0 and base > 0
    @pytest.mark.parametrize("name", ["arctan_shift", "smooth_sin"])
    @pytest.mark.parametrize("root_fn", ROOT_FUNCTIONS, ids=lambda f: f.__name__)
    def test_root_is_minimal_within_five_sweeps(self, lattice9, monkeypatch, root_fn, name,
                                                offset, depth):
        inverse = root_fn is centered_loss_inverse
        values, (loss, z) = policy_problem(lattice9, name, depth, offset, inverse)
        target = loss.shifted(-z) if inverse else loss
        sizes = []
        counted = dataclasses.replace(
            loss, fn=lambda t, x, fn=loss.fn: sizes.append(x.size) or fn(t, x))
        shifts = record_sweeps(monkeypatch)
        if inverse:
            got = root_fn(1.0, z, kinked(lattice9, depth), lattice9, counted, TOL)
        else:
            got = root_fn(1.0, kinked(lattice9, depth), lattice9, counted, TOL)
        monkeypatch.undo()
        assert len(shifts) <= 5 and len(set(shifts)) == len(shifts)
        if depth:  # a depth-0 support is the whole array
            assert sum(n for n in sizes if n > 2**depth) <= 5 * 4**depth
        if root_fn is required_shift and offset < 0.0:  # base > 0: no search
            assert got == 0.0 and shifts == [None]
            return
        assert_minimal_within_tol(target.fn, values, depth, got)
        assert expected_loss(1.0, PathFunctional(depth, values), lattice9, target,
                             shift=got) >= 0.0

    @pytest.mark.parametrize("name", ["arctan_shift", "smooth_sin"])
    def test_capped_iteration_falls_back_to_the_search(self, lattice9, monkeypatch, name):
        # no policy step: the search from the declared bracket, as before
        values, (loss, _) = policy_problem(lattice9, name, 6, 0.7, inverse=False)
        xi = PathFunctional(6, values)
        monkeypatch.setattr(reflection, "_HOWARD_STEPS", 0)
        got = required_shift(1.0, xi, lattice9, loss, TOL)
        base = expected_loss(1.0, xi, lattice9, loss)
        searched = _smallest_nonneg_point(
            lambda x: expected_loss(1.0, xi, lattice9, loss, shift=x),
            0.0, -base / loss.c_l + 0.5 * TOL, TOL, "search", f_zero=base)
        assert got == searched

    @pytest.mark.parametrize("name", ["arctan_shift", "smooth_sin"])
    @pytest.mark.parametrize("fault", ["below_the_root", "not_decreasing"])
    def test_faulty_step_falls_back_to_the_search(self, lattice9, monkeypatch, name, fault):
        # a step that lands below the root, as rounding could make it, or
        # one that does not decrease x: the search takes over from the
        # known feasible end, and sweeps no shift twice
        values, (loss, _) = policy_problem(lattice9, name, 6, 0.7, inverse=False)
        real = reflection._policy_shift

        def faulty(*args):
            step = real(*args)
            return step - 1.0 if fault == "below_the_root" else abs(step) + 1e-3

        monkeypatch.setattr(reflection, "_policy_shift", faulty)
        shifts = record_sweeps(monkeypatch)
        got = required_shift(1.0, PathFunctional(6, values), lattice9, loss, TOL)
        monkeypatch.undo()
        assert len(shifts) > 3 and len(set(shifts)) == len(shifts)
        assert_minimal_within_tol(loss.fn, values, 6, got)

    @pytest.mark.parametrize("root_fn", ROOT_FUNCTIONS, ids=lambda f: f.__name__)
    def test_loss_flatter_than_declared_fails_the_bracket(self, lattice6, root_fn):
        # true slope 0.01 against a declared band [1e5, 1e6]
        flat = LossSpec(fn=lambda t, x: 0.01 * x - 1.0, c_l=1e5, C_l=1e6,
                        time_modulus=lambda d: 0.0, kappa_growth=2.0, name="flat")
        xi = lattice6.functional_from_terminal(lambda x: x)
        args = (0.0, xi) if root_fn is centered_loss_inverse else (xi,)
        with pytest.raises(BracketError, match=rf"^{root_fn.__name__}\(t=1\): no sign change"):
            root_fn(1.0, *args, lattice6, flat, TOL)

    def test_loss_flatter_than_declared_outside_the_box_exits_3(self, tmp_path, monkeypatch):
        # slope 1.5 on the validation box, which passes the spot check, and
        # 1e-6 beyond it, so the shift for l >= 20 t lies far past the
        # bracket that the declared c_l = 1 gives
        def flat_tail(c1=20.0) -> LossSpec:
            def fn(t, x):
                return np.where(x <= 5.0, 1.5 * x, 7.5 + 1e-6 * (x - 5.0)) - c1 * t

            return LossSpec(fn=fn, c_l=1.0, C_l=2.0, time_modulus=lambda d: c1 * d,
                            kappa_growth=c1 + 5.0)

        monkeypatch.setitem(registry.LOSSES, "flat_tail", flat_tail)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"mode": "sp_only",
                                   "problem": {"n_steps": 4, "loss": {"name": "flat_tail"}}}))
        out = tmp_path / "out"
        assert cli.main(["run", str(cfg), "--output-dir", str(out)]) == 3
        report = json.loads((out / "report.json").read_text())
        assert report["diagnostics"]["solver_error"].startswith(
            "BracketError: required_shift(t=")
        assert all(check["pass"] for check in report["checks"])


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


WARM_STARTS = {
    "below": lambda root: 0.5 * root,
    "at": lambda root: root,
    "just_above": lambda root: root + 1e-6,
    "far_above": lambda root: root + 5.0,
    "zero": lambda root: 0.0,
}


class TestWarmStart:
    """``required_shift(..., start=x0)`` runs Howard's iteration from x0:
    the same certificate as from 0, and the value of its last sweep."""

    @pytest.mark.parametrize("where", sorted(WARM_STARTS))
    @pytest.mark.parametrize("depth", [4, 5, 6])
    @pytest.mark.parametrize("name", ["arctan_shift", "smooth_sin"])
    def test_warm_root_is_certified_and_near_the_cold_root(self, lattice9, name, depth,
                                                           where):
        values, (loss, _) = policy_problem(lattice9, name, depth, 0.7, inverse=False)
        xi = PathFunctional(depth, values)
        cold = required_shift(1.0, xi, lattice9, loss, TOL)
        got, value = required_shift(1.0, xi, lattice9, loss, TOL,
                                    start=WARM_STARTS[where](cold), with_value=True)
        assert got >= 0.0
        swept = expected_loss(1.0, xi, lattice9, loss, shift=got)
        assert _bits([value]) == _bits([swept]) and swept >= 0.0
        assert expected_loss(1.0, xi, lattice9, loss, shift=got - TOL) < 0.0
        assert abs(got - cold) <= TOL
        if where == "zero":
            assert _bits([got]) == _bits([cold])

    @pytest.mark.parametrize("start", [1e-3, 0.5, 3.0])
    @pytest.mark.parametrize("name", ["arctan_shift", "smooth_sin"])
    def test_feasible_start_above_a_zero_shift_returns_zero(self, lattice9, name, start):
        values, (loss, _) = policy_problem(lattice9, name, 6, -0.7, inverse=False)
        xi = PathFunctional(6, values)
        got, value = required_shift(1.0, xi, lattice9, loss, TOL, start=start,
                                    with_value=True)
        assert _bits([got]) == _bits([0.0])
        assert _bits([value]) == _bits([expected_loss(1.0, xi, lattice9, loss)])

    @pytest.mark.parametrize("start", [math.nan, math.inf, -math.inf, -1.0, 1.7e308])
    def test_unusable_start_takes_the_cold_path(self, lattice9, monkeypatch, start):
        values, (loss, _) = policy_problem(lattice9, "smooth_sin", 6, 0.7, inverse=False)
        if start == 1.7e308:
            # a finite start that shifts the level's largest value past the
            # largest double; a sweep there would fail its finiteness check
            values = values.copy()
            values[0] = 1e307
        xi = PathFunctional(6, values)
        cold_sweeps = record_sweeps(monkeypatch)
        cold = required_shift(1.0, xi, lattice9, loss, TOL)
        monkeypatch.undo()
        warm_sweeps = record_sweeps(monkeypatch)
        got = required_shift(1.0, xi, lattice9, loss, TOL, start=start)
        monkeypatch.undo()
        assert _bits([got]) == _bits([cold]) and warm_sweeps == cold_sweeps
        assert cold_sweeps[0] is None

    def test_loss_failing_above_the_root_defers_to_the_cold_path(self, lattice9):
        # finite from below the root up to 1.5 above it, infinite beyond:
        # the start's sweep fails, and the search from 0 never looks there
        values, (loss, _) = policy_problem(lattice9, "smooth_sin", 6, 0.7, inverse=False)
        xi = PathFunctional(6, values)
        cold = required_shift(1.0, xi, lattice9, loss, TOL)
        edge = float(values.max()) + cold + 1.5
        capped = dataclasses.replace(
            loss, fn=lambda t, x, fn=loss.fn: np.where(x > edge, np.inf, fn(t, x)))
        assert _bits([required_shift(1.0, xi, lattice9, capped, TOL)]) == _bits([cold])
        got = required_shift(1.0, xi, lattice9, capped, TOL, start=cold + 5.0)
        assert _bits([got]) == _bits([cold])

    def test_affine_loss_keeps_its_closed_form(self, lattice9, monkeypatch):
        loss = make_loss("linear", {"c0": 2.0, "c1": 0.0})
        xi = kinked(lattice9, 6)
        cold = required_shift(1.0, xi, lattice9, loss, TOL)
        sweeps = record_sweeps(monkeypatch)
        got = required_shift(1.0, xi, lattice9, loss, TOL, start=cold + 1.0)
        monkeypatch.undo()
        assert _bits([got]) == _bits([cold]) and sweeps == [None, cold]

    def test_sweeps_per_root_at_binding_levels(self, lattice6, monkeypatch):
        # one depth-6 smooth_sin solve that binds at every step: the first
        # root starts at 0 (E[l(t, X)], two policy steps), each later one at
        # the line through the two shifts before it (one policy step)
        loss = make_loss("smooth_sin", {"c0": 0.0, "c1": 1.0})
        s = drifted_process(lattice6, drift=-1.0)
        per_root = []
        real_shift, real_loss = reflection.required_shift, reflection.expected_loss

        def shift(*args, **kwargs):
            per_root.append(0)
            return real_shift(*args, **kwargs)

        def counted(*args, **kwargs):
            if per_root:
                per_root[-1] += 1
            return real_loss(*args, **kwargs)

        monkeypatch.setattr(reflection, "required_shift", shift)
        monkeypatch.setattr(reflection, "expected_loss", counted)
        sol = solve_mean_reflection_direct(loss, s, lattice6, TOL)
        monkeypatch.undo()
        assert np.all(np.diff(sol.A.values) > 0.0)
        assert per_root == [3, 2, 2, 2, 2, 2]


class TestRequiredShiftSigned:
    def test_linear_any_sign(self, lattice6):
        for c in (0.4, -1.0, 2.0):
            loss = make_loss("linear", {"c0": c, "c1": 0.0})
            xi = lattice6.functional_from_terminal(lambda x: x)
            m = upper_expectation(lattice6, xi)
            got = required_shift_signed(1.0, xi, lattice6, loss, TOL)
            assert got == pytest.approx(c - m, abs=2 * TOL)

    def test_zero_at_exact_root(self, lattice6):
        cubic = LossSpec(fn=lambda t, x: x**3 + x, c_l=1.0, C_l=13.0,
                         time_modulus=lambda d: 0.0, kappa_growth=10.0,
                         name="cubic", x_box=(-2.0, 2.0))
        xi = PathFunctional(0, np.zeros(1))
        assert required_shift_signed(0.0, xi, lattice6, cubic, TOL) == 0.0

    def test_positive_part_relation(self, lattice6):
        loss = make_loss("arctan_shift", {"c": 0.0})
        for payoff in (lambda x: x - 1.0, lambda x: x + 1.0, lambda x: np.abs(x)):
            xi = lattice6.functional_from_terminal(payoff)
            signed = required_shift_signed(0.5, xi, lattice6, loss, TOL)
            plus = required_shift(0.5, xi, lattice6, loss, TOL)
            assert plus == pytest.approx(max(0.0, signed), abs=2 * TOL)


class TestRiskMeasure:
    def test_linear_loss_is_negative_expectation(self, lattice6):
        loss = make_loss("linear", {"c0": 0.0, "c1": 0.0})
        xi = lattice6.functional_from_terminal(lambda x: x)
        assert risk_measure(1.0, xi, lattice6, loss, TOL) == pytest.approx(0.0, abs=2 * TOL)

    def test_translation_invariance(self, lattice6):
        loss = make_loss("arctan_shift", {"c": 0.0})
        xi = lattice6.functional_from_terminal(lambda x: np.abs(x) - 1.0)
        base = risk_measure(1.0, xi, lattice6, loss, TOL)
        for m in (-1.0, 0.5, 2.0):
            shifted = PathFunctional(6, xi.values + m)
            got = risk_measure(1.0, shifted, lattice6, loss, TOL)
            assert got == pytest.approx(base - m, abs=1e-9)

    def test_antitone_under_domination(self, lattice6):
        loss = make_loss("arctan_shift", {"c": 0.0})
        xi = lattice6.functional_from_terminal(lambda x: x)
        eta = PathFunctional(6, xi.values + 0.5)
        assert risk_measure(1.0, xi, lattice6, loss, TOL) >= risk_measure(
            1.0, eta, lattice6, loss, TOL
        )


class TestCenteredLoss:
    def test_linear_loss_collapses_to_shift(self, lattice6):
        # l = x - c: H(t, z, Y) = z - c for every Y
        loss = make_loss("linear", {"c0": 0.7, "c1": 0.0})
        for payoff in (lambda x: x, lambda x: x**2):
            y = lattice6.functional_from_terminal(payoff)
            for z in (-1.0, 0.0, 2.0):
                assert centered_loss(1.0, z, y, lattice6, loss) == pytest.approx(
                    z - 0.7, abs=1e-12
                )

    def test_strictly_increasing_in_z(self, lattice4):
        loss = make_loss("smooth_sin", {"c0": 0.0, "c1": 1.0})
        y = lattice4.functional_from_terminal(lambda x: x)
        values = [centered_loss(0.5, z, y, lattice4, loss) for z in (-1.0, -0.2, 0.0, 0.4, 2.0)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_matches_independent_recursion(self, band):
        # Y = B_T on n=4, l = x + |x|/2, z in {-1, 0, 1}
        lat = build_lattice(band, TimeGrid(1.0, 4))
        halfabs = LossSpec(fn=lambda t, x: x + 0.5 * np.abs(x), c_l=0.5, C_l=1.5,
                           time_modulus=lambda d: 0.0, kappa_growth=1.5, name="halfabs")
        y = lat.functional_from_terminal(lambda x: x)
        ey = ref_upper_expectation(lat.b[4], 4)
        for z in (-1.0, 0.0, 1.0):
            shifted = lat.b[4] - ey + z
            expected = ref_upper_expectation(shifted + 0.5 * np.abs(shifted), 4)
            assert centered_loss(1.0, z, y, lat, halfabs) == pytest.approx(expected, abs=1e-12)

    def test_inverse_of_linear_loss(self, lattice6):
        loss = make_loss("linear", {"c0": 0.7, "c1": 0.0})
        y = lattice6.functional_from_terminal(lambda x: x)
        assert centered_loss_inverse(1.0, 0.0, y, lattice6, loss, TOL) == pytest.approx(
            0.7, abs=2 * TOL
        )

    def test_inverse_round_trip(self, lattice4):
        loss = make_loss("arctan_shift", {"c": 1.0})
        y = lattice4.functional_from_terminal(lambda x: np.abs(x))
        for z in (-1.0, 0.0, 1.0):
            zbar = centered_loss_inverse(1.0, z, y, lattice4, loss, TOL)
            assert centered_loss(1.0, zbar, y, lattice4, loss) == pytest.approx(
                z, abs=loss.C_l * TOL
            )

    def test_inverse_bracket_error_names_the_inverse(self, lattice4):
        # l stays below 1, so H(t, ., Y) never reaches z = 2
        bounded = LossSpec(fn=lambda t, x: np.tanh(x), c_l=1.0, C_l=1.0,
                           time_modulus=lambda d: 0.0, kappa_growth=1.0, name="bounded")
        y = lattice4.functional_from_terminal(lambda x: x)
        with pytest.raises(BracketError, match=r"^centered_loss_inverse\(t=1\): no sign change"):
            centered_loss_inverse(1.0, 2.0, y, lattice4, bounded, TOL)

    def test_inverse_of_odd_monotone_map_is_zero(self, lattice4):
        loss = make_loss("arctan_shift", {"c": 0.0})
        y = PathFunctional(0, np.zeros(1))
        got = centered_loss_inverse(0.0, 0.0, y, lattice4, loss, TOL)
        assert got == pytest.approx(0.0, abs=2 * TOL)

    def test_slope_stays_in_declared_band(self, lattice4):
        loss = make_loss("arctan_shift", {"c": 1.0})
        y = lattice4.functional_from_terminal(lambda x: x)
        zs = np.linspace(-2.0, 2.0, 9)
        hs = [centered_loss(0.5, float(z), y, lattice4, loss) for z in zs]
        slopes = np.diff(hs) / np.diff(zs)
        assert np.all(slopes >= loss.c_l - 1e-9)
        assert np.all(slopes <= loss.C_l + 1e-9)


REGISTRY_LOSSES = ("linear", "arctan_shift", "smooth_sin")


def registry_functionals(lat, depth):
    """Kinked functionals at ``depth`` whose E[l(0.5, X)] under the registry
    losses' defaults takes both signs."""
    b = lat.b[depth]
    return [PathFunctional(depth, b + 0.5 * np.sin(3.0 * b) + offset)
            for offset in (-1.0, 0.4, 2.5)]


class TestOneEntry:
    """Every public root is one call of ``reflection._minimal_shift``: the
    same sweeps give the same bits whichever function asks, and each checks
    tol before its first sweep."""

    @pytest.mark.parametrize("depth", range(1, 7))
    @pytest.mark.parametrize("name", REGISTRY_LOSSES)
    def test_nonnegative_and_signed_shifts_agree_where_the_constraint_fails(
            self, lattice6, name, depth):
        loss = make_loss(name)
        failing = [xi for xi in registry_functionals(lattice6, depth)
                   if expected_loss(0.5, xi, lattice6, loss) < 0.0]
        assert failing
        for xi in failing:
            got = required_shift(0.5, xi, lattice6, loss, TOL)
            assert got > 0.0
            assert _bits([got]) == _bits([required_shift_signed(0.5, xi, lattice6, loss, TOL)])

    @pytest.mark.parametrize("depth", range(1, 7))
    @pytest.mark.parametrize("name", REGISTRY_LOSSES)
    def test_inverse_is_the_signed_shift_of_the_centred_variable(self, lattice6, name, depth):
        loss = make_loss(name)
        for y in registry_functionals(lattice6, depth):
            centered = PathFunctional(depth, y.values - upper_expectation(lattice6, y))
            for z in (-0.5, 0.0, 0.7):
                got = centered_loss_inverse(0.5, z, y, lattice6, loss, TOL)
                signed = required_shift_signed(0.5, centered, lattice6, loss.shifted(-z), TOL)
                assert _bits([got]) == _bits([signed])

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf], ids=str)
    @pytest.mark.parametrize("name", ["linear", "smooth_sin"])
    @pytest.mark.parametrize("root", [
        lambda xi, lat, loss, tol: required_shift(1.0, xi, lat, loss, tol),
        lambda xi, lat, loss, tol: required_shift(1.0, xi, lat, loss, tol, start=0.5),
        lambda xi, lat, loss, tol: required_shift_signed(1.0, xi, lat, loss, tol),
        lambda xi, lat, loss, tol: centered_loss_inverse(1.0, 0.3, xi, lat, loss, tol),
    ], ids=["required_shift", "warm_required_shift", "required_shift_signed",
            "centered_loss_inverse"])
    def test_tol_is_checked_before_the_first_sweep(self, lattice4, monkeypatch, root, name,
                                                   tol):
        xi = lattice4.functional_from_terminal(lambda x: x)  # E[l(1, X)] < 0
        sweeps = record_sweeps(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError) as raised:
                root(xi, lattice4, make_loss(name), tol)
        assert str(raised.value) == f"tol must be positive and finite, got {tol}"
        assert sweeps == []


    @pytest.mark.parametrize("root", [
        lambda xi, lat, loss, tol: required_shift(1.0, xi, lat, loss, tol),
        lambda xi, lat, loss, tol: required_shift(1.0, xi, lat, loss, tol, start=0.5),
        lambda xi, lat, loss, tol: required_shift_signed(1.0, xi, lat, loss, tol),
        lambda xi, lat, loss, tol: centered_loss_inverse(1.0, 0.3, xi, lat, loss, tol),
    ], ids=["required_shift", "warm_required_shift", "required_shift_signed",
            "centered_loss_inverse"])
    def test_subnormal_tol_is_refused_before_howard(self, lattice4, monkeypatch, root):
        # c_l tol / (2 C_l) underflows to 0 for the smallest subnormal tol:
        # the error names the caller's tol, and no sweep is made
        xi = lattice4.functional_from_terminal(lambda x: x)
        sweeps = record_sweeps(monkeypatch)
        with pytest.raises(InvalidParameterError) as raised:
            root(xi, lattice4, make_loss("smooth_sin"), 5e-324)
        assert str(raised.value).startswith("tol=5e-324 is too small ")
        assert sweeps == []

    def test_subnormal_tol_still_serves_an_affine_loss(self, lattice4):
        xi = lattice4.functional_from_terminal(lambda x: x)
        loss = make_loss("linear")
        base = expected_loss(1.0, xi, lattice4, loss)
        assert base < 0.0
        got = required_shift(1.0, xi, lattice4, loss, 5e-324)
        assert _bits([got]) == _bits([-base / loss.c_l + 0.5 * 5e-324])
        # a subnormal tol that leaves the support tolerance positive is taken
        assert required_shift(1.0, xi, lattice4, make_loss("smooth_sin"), 1e-320) > 0.0


class TestUnconfirmedCandidate:
    """``required_shift(..., confirm=False)`` skips only the confirming sweep
    of a closed-form candidate; every other path ignores the flag."""

    @staticmethod
    def both(monkeypatch, xi, lat, loss, **kwargs):
        """(result, sweeps) with confirm=True, then with confirm=False."""
        out = []
        for confirm in (True, False):
            sweeps = record_sweeps(monkeypatch)
            got = required_shift(0.5, xi, lat, loss, TOL, with_value=True, confirm=confirm,
                                 **kwargs)
            monkeypatch.undo()
            out.append((got, sweeps))
        return out

    @pytest.mark.parametrize("depth", range(1, 7))
    def test_affine_candidate_takes_one_sweep(self, lattice6, monkeypatch, depth):
        loss = make_loss("linear")
        failing = [xi for xi in registry_functionals(lattice6, depth)
                   if expected_loss(0.5, xi, lattice6, loss) < 0.0]
        assert failing
        for xi in failing:
            for start in (0.0, 1.0):
                ((x, value), sweeps), ((got, nan), one) = self.both(
                    monkeypatch, xi, lattice6, loss, start=start)
                assert sweeps == [None, x] and value >= 0.0
                assert _bits([got]) == _bits([x])
                assert math.isnan(nan) and one == [None]

    @pytest.mark.parametrize("start", [0.0, 0.3, 2.0])
    @pytest.mark.parametrize("depth", range(1, 7))
    @pytest.mark.parametrize("name", ["arctan_shift", "smooth_sin"])
    def test_policy_roots_ignore_the_flag(self, lattice6, monkeypatch, name, depth, start):
        loss = make_loss(name)
        for xi in registry_functionals(lattice6, depth):
            (confirmed, sweeps), (unconfirmed, same) = self.both(
                monkeypatch, xi, lattice6, loss, start=start)
            assert _bits(confirmed) == _bits(unconfirmed)
            assert sweeps == same

    @pytest.mark.parametrize("depth", range(1, 7))
    def test_zero_shift_is_unchanged(self, lattice6, monkeypatch, depth):
        loss = make_loss("linear")
        slack = [xi for xi in registry_functionals(lattice6, depth)
                 if expected_loss(0.5, xi, lattice6, loss) >= 0.0]
        assert slack
        for xi in slack:
            (confirmed, sweeps), (unconfirmed, same) = self.both(monkeypatch, xi, lattice6, loss)
            assert confirmed[0] == 0.0 and sweeps == same == [None]
            assert _bits(confirmed) == _bits(unconfirmed)


class TestDeterministicSkorokhod:
    def test_no_reflection_needed(self):
        s = np.array([1.0, 0.8, 1.2])
        barrier = np.zeros(3)
        x, a = deterministic_skorokhod(s, barrier)
        assert np.array_equal(a, np.zeros(3))
        assert np.array_equal(x, s)

    def test_linear_barrier(self):
        ts = np.linspace(0.0, 1.0, 11)
        x, a = deterministic_skorokhod(np.zeros(11), ts)
        assert np.allclose(a, ts)
        assert np.allclose(x, ts)

    def test_sine_path_matches_direct_evaluation(self):
        # A(t) = running max of (-sin(2 pi u))^+ -- direct loop oracle
        ts = np.linspace(0.0, 1.0, 101)
        s = np.sin(2 * np.pi * ts)
        x, a = deterministic_skorokhod(s, np.zeros(101))
        expected = []
        running = 0.0
        for v in s:
            running = max(running, max(-v, 0.0))
            expected.append(running)
        assert np.allclose(a, expected, atol=1e-15)
        assert np.all(x >= -1e-15)

    def test_initial_violation_rejected(self):
        with pytest.raises(InitialConstraintError):
            deterministic_skorokhod(np.array([0.0, 1.0]), np.array([0.5, 0.5]))

    def test_path_and_barrier_must_share_a_1d_grid(self):
        with pytest.raises(InvalidParameterError, match=re.escape(
                "path and barrier must share a 1-d grid, got (3,) vs (2,)")):
            deterministic_skorokhod(np.zeros(3), np.zeros(2))
        with pytest.raises(InvalidParameterError, match=re.escape(
                "path and barrier must share a 1-d grid, got (2, 2) vs (2, 2)")):
            deterministic_skorokhod(np.zeros((2, 2)), np.zeros((2, 2)))

    def test_complementarity_on_grid(self):
        rng = np.random.default_rng(2)
        s = np.cumsum(rng.normal(scale=0.3, size=50))
        s[0] = 0.0
        barrier = np.linspace(-0.5, 1.0, 50) - 0.6
        barrier[0] = min(barrier[0], 0.0)
        x, a = deterministic_skorokhod(s, barrier)
        gaps = x - barrier
        increases = np.diff(a) > 0
        # where A increases, the reflected path sits on the barrier
        assert np.all(np.abs(gaps[1:][increases]) < 1e-12)


class TestSolvers:
    def test_never_binding_gives_zero_compensator(self, lattice6):
        loss = make_loss("linear", {"c0": -1.0, "c1": 0.0})
        s = brownian_process(lattice6)
        sol = solve_mean_reflection_direct(loss, s, lattice6, TOL)
        assert np.array_equal(sol.A.values, np.zeros(7))
        assert np.array_equal(sol.X.at(6), s.at(6))

    def test_linear_loss_closed_form_compensator(self, lattice6):
        # driftless S from x0: A(t) = sup_{u<=t} (c(u) - x0)^+
        loss = make_loss("linear", {"c0": 0.0, "c1": 0.5})
        x0 = 0.25
        s = drifted_process(lattice6, x0=x0, drift=0.0, vol=1.0)
        sol = solve_mean_reflection_direct(loss, s, lattice6, TOL)
        times = lattice6.grid.times
        expected = np.maximum.accumulate(np.maximum(0.5 * times - x0, 0.0))
        assert np.allclose(sol.A.values, expected, atol=1e-9)

    def test_constructions_agree(self, lattice6):
        loss = make_loss("arctan_shift", {"c": 0.0})
        s = drifted_process(lattice6, drift=-1.0)
        a1 = solve_mean_reflection_direct(loss, s, lattice6, TOL)
        a2 = solve_mean_reflection_reduced(loss, s, lattice6, TOL)
        assert np.max(np.abs(a1.A.values - a2.A.values)) <= 10 * TOL

    def test_reduced_initial_ordering(self, lattice6):
        # E[l(0,S_0)] >= 0 forces the barrier below the mean at time zero
        loss = make_loss("smooth_sin", {"c0": 0.0, "c1": 1.0})
        s = drifted_process(lattice6, drift=-0.5)
        sol = solve_mean_reflection_reduced(loss, s, lattice6, TOL)
        assert sol.A.values[0] == 0.0

    def test_reduced_mean_recovers_from_inverse(self, lattice6):
        # x_t = s_t + A_t inverts the centered loss at the achieved level
        loss = make_loss("arctan_shift", {"c": 0.0})
        s = drifted_process(lattice6, drift=-1.0)
        sol = solve_mean_reflection_reduced(loss, s, lattice6, TOL)
        times = lattice6.grid.times
        for k in range(7):
            xi = s.functional_at(k)
            x_t = upper_expectation(lattice6, xi) + sol.A.values[k]
            level = expected_loss(float(times[k]), sol.X.functional_at(k), lattice6, loss)
            recovered = centered_loss_inverse(float(times[k]), level, xi, lattice6, loss, TOL)
            assert recovered == pytest.approx(x_t, abs=10 * TOL)

    @pytest.mark.parametrize("name", REGISTRY_LOSSES)
    def test_reduced_sweeps_each_level_once_for_its_barrier(self, lattice6, monkeypatch,
                                                            name):
        # one leaf-map-free sweep per level, E[S_k], which also centres S_k;
        # each barrier is bitwise the inverse at z = 0
        loss = make_loss(name, {"c": 0.0} if name == "arctan_shift" else {"c0": 0.0})
        s = drifted_process(lattice6, drift=-1.0)
        plain_sweeps, barriers = [], []
        sweep, reflect = reflection.upper_expectation, reflection.deterministic_skorokhod

        def counted(lat, xi, **kwargs):
            if kwargs.get("leaf_map") is None:
                plain_sweeps.append(xi.depth)
            return sweep(lat, xi, **kwargs)

        def recorded(means, barrier):
            barriers.append(barrier.copy())
            return reflect(means, barrier)

        monkeypatch.setattr(reflection, "upper_expectation", counted)
        monkeypatch.setattr(reflection, "deterministic_skorokhod", recorded)
        sol = solve_mean_reflection_reduced(loss, s, lattice6, TOL)
        monkeypatch.undo()
        assert plain_sweeps == list(range(7))
        times = lattice6.grid.times
        inverses = [centered_loss_inverse(float(times[k]), 0.0, s.functional_at(k), lattice6,
                                          loss, TOL) for k in range(7)]
        means = [upper_expectation(lattice6, s.functional_at(k)) for k in range(7)]
        inverses[0] = min(inverses[0], means[0])
        assert _bits(barriers[0]) == _bits(inverses)
        assert np.all(np.diff(sol.A.values) > 0.0)

    def test_initial_constraint_violation_raises(self, lattice6):
        loss = make_loss("linear", {"c0": 1.0, "c1": 0.0})
        s = brownian_process(lattice6)  # E[l(0, 0)] = -1
        with pytest.raises(InitialConstraintError):
            solve_mean_reflection_direct(loss, s, lattice6, TOL)

    def test_compensator_invariants(self, lattice6):
        loss = make_loss("smooth_sin", {"c0": 0.0, "c1": 1.0})
        s = drifted_process(lattice6, drift=-1.0)
        sol = solve_mean_reflection_direct(loss, s, lattice6, TOL)
        report = verify_mean_reflection(sol, loss, s, lattice6, TOL,
                                        expected_losses=sol.expected_losses)
        checks = {c.name: c.passed for c in report.checks}
        assert checks["compensator_starts_at_zero"] and checks["compensator_nondecreasing"]

    def test_flat_off_complementarity_at_increase_steps(self, lattice6):
        # wherever the supremum increases, the newly attained constraint value
        # is a root up to C_l * tol
        loss = make_loss("smooth_sin", {"c0": 0.0, "c1": 1.0})
        s = drifted_process(lattice6, drift=-1.0)
        sol = solve_mean_reflection_direct(loss, s, lattice6, TOL)
        times = lattice6.grid.times
        a = sol.A.values
        increases = np.flatnonzero(np.diff(a) > 0.0) + 1
        assert increases.size > 0
        for k in increases:
            e_l = expected_loss(float(times[k]), sol.X.functional_at(int(k)), lattice6, loss)
            assert abs(e_l) <= loss.C_l * TOL


class TestVerifier:
    @pytest.fixture()
    def solved(self, lattice6):
        loss = make_loss("linear", {"c0": 0.0, "c1": 1.0})
        s = drifted_process(lattice6, drift=0.0)
        sol = solve_mean_reflection_direct(loss, s, lattice6, TOL)
        return loss, s, sol

    def test_closed_form_solution_passes(self, lattice6, solved):
        loss, s, sol = solved
        report = verify_mean_reflection(sol, loss, s, lattice6, tol=1e-8)
        assert report.passed
        assert report.identity_residual <= 1e-12
        assert abs(report.flatoff_residual) <= 1e-8

    def test_reports_expected_loss_at_every_step(self, lattice6, solved):
        # the runner writes these values as the CSV column E_l_X
        loss, s, sol = solved
        report = verify_mean_reflection(sol, loss, s, lattice6, tol=1e-8)
        times = lattice6.grid.times
        recomputed = [expected_loss(float(times[k]), sol.X.functional_at(k), lattice6, loss)
                      for k in range(7)]
        assert report.expected_losses.tolist() == recomputed
        assert report.constraint_min == min(recomputed)

    def test_inflated_compensator_fails_flatoff(self, lattice6, solved):
        loss, s, sol = solved
        bumped = sol.A.values.copy()
        bumped[-1] += 1.0
        bad = SkorokhodSolution(
            X=s.shifted(bumped), A=DeterministicPath(sol.A.times, bumped)
        )
        report = verify_mean_reflection(bad, loss, s, lattice6, tol=1e-8)
        assert not report.passed
        assert report.flatoff_residual > 1e-8

    def test_deflated_compensator_fails_constraint(self, lattice6, solved):
        loss, s, sol = solved
        cut = sol.A.values.copy()
        cut[-1] -= 1.0
        bad = SkorokhodSolution(
            X=s.shifted(cut), A=DeterministicPath(sol.A.times, cut)
        )
        report = verify_mean_reflection(bad, loss, s, lattice6, tol=1e-8)
        assert not report.passed
        assert report.constraint_min < -1e-8

    @pytest.mark.parametrize("differs", ["steps", "lattice"])
    def test_x_and_s_share_lattice_and_steps(self, band, grid6, lattice6, solved, differs):
        # S and A on steps 0..2; an X on steps 0..4 would leave its levels
        # 3 and 4 unread, and an X on another lattice is not S + A
        loss, s, sol = solved
        short_s = ProcessOnLattice(lattice6, 0, s.values[:3])
        a = DeterministicPath(sol.A.times[:3], sol.A.values[:3])
        if differs == "steps":
            x = ProcessOnLattice(lattice6, 0, sol.X.values[:5])
        else:
            x = ProcessOnLattice(build_lattice(band, grid6), 0, sol.X.values[:3])
        with pytest.raises(GridMismatchError):
            verify_mean_reflection(SkorokhodSolution(x, a), loss, short_s, lattice6)

    @pytest.mark.parametrize("with_s", [False, True])
    def test_a_has_one_value_per_step_of_x(self, lattice6, solved, with_s):
        loss, s, sol = solved
        a = DeterministicPath(sol.A.times[:4], sol.A.values[:4])
        with pytest.raises(GridMismatchError, match="A has 4 values for the 7 steps 0..6"):
            verify_mean_reflection(SkorokhodSolution(sol.X, a), loss, s if with_s else None,
                                   lattice6)

    @pytest.mark.parametrize("length", [2, 9])
    def test_expected_losses_have_one_value_per_checked_step(self, band, length):
        # a depth-4 direct solution checks five steps; a longer array would
        # have its extra values ignored and a shorter one would be overrun
        lattice = build_lattice(band, TimeGrid(1.0, 4))
        loss = make_loss("linear", {"c0": 0.0, "c1": 1.0})
        s = drifted_process(lattice)
        sol = solve_mean_reflection_direct(loss, s, lattice, TOL)
        with pytest.raises(GridMismatchError, match=f"shape \\({length},\\) for the 5 steps"):
            verify_mean_reflection(sol, loss, s, lattice, expected_losses=np.zeros(length))

    def test_reports_the_five_checks_in_order(self, lattice6, solved):
        loss, s, sol = solved
        report = verify_mean_reflection(sol, loss, s, lattice6)
        a = sol.A.values
        assert [(c.name, c.measured, c.threshold, c.passed) for c in report.checks] == [
            ("identity_residual", report.identity_residual, 1e-12, True),
            ("constraint_min", report.constraint_min, -1e-8, True),
            ("flatoff_residual", report.flatoff_residual, 1e-8 * (1.0 + (a[-1] - a[0])), True),
            ("compensator_nondecreasing", float(np.diff(a).min()), 0.0, True),
            ("compensator_starts_at_zero", 0.0, 0.0, True),
        ]

    @pytest.mark.parametrize("tol", [math.inf, math.nan, -1e-8, 0.0])
    def test_tol_must_be_positive_and_finite(self, band, tol):
        # an infinite tol would pass this inflated A, whose flat-off is 3.0,
        # and a NaN or negative one would fail every solution
        lattice, s, inflated = zero_s_with(band, [0.0, 1.0, 2.0])
        loss = make_loss("linear", {"c0": 0.0, "c1": 0.0})
        assert verify_mean_reflection(inflated, loss, s, lattice).flatoff_residual == 3.0
        with pytest.raises(InvalidParameterError, match="tol must be positive and finite"):
            verify_mean_reflection(inflated, loss, s, lattice, tol=tol)

    @pytest.mark.parametrize("a_values, c0, failed, measured", [
        ([0.1, 0.1, 0.1], 0.1, "compensator_starts_at_zero", 0.1),
        ([0.0, 0.0, -0.25], -0.25, "compensator_nondecreasing", -0.25),
    ])
    def test_non_compensator_fails(self, band, a_values, c0, failed, measured):
        # X = S + A meets E[l] >= 0 for l = x - c0 with no flat-off residual,
        # but A does not start at 0 or falls
        lattice, s, sol = zero_s_with(band, a_values)
        report = verify_mean_reflection(sol, make_loss("linear", {"c0": c0, "c1": 0.0}), s,
                                        lattice)
        assert (report.constraint_min, report.flatoff_residual) == (0.0, 0.0)
        assert [(c.name, c.measured) for c in report.checks if not c.passed] == [
            (failed, measured)]
        assert not report.passed


class TestDeterministicPath:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_times_must_be_finite(self, bad):
        # NaN compares false, so the increasing-times check alone lets it in
        with pytest.raises(InvalidParameterError, match="path times must be finite"):
            DeterministicPath([0.0, bad], [0.0, 1.0])
        with pytest.raises(InvalidParameterError, match="path times must be finite"):
            DeterministicPath([bad], [0.0])

    def test_times_must_increase(self):
        with pytest.raises(InvalidParameterError, match="strictly increasing"):
            DeterministicPath([0.0, 0.0], [0.0, 1.0])

    def test_times_and_values_must_match_in_one_dimension(self):
        with pytest.raises(InvalidParameterError, match=re.escape(
                "path needs matching 1-d times/values, got (3,) and (2,)")):
            DeterministicPath([0.0, 0.5, 1.0], [0.0, 1.0])
        with pytest.raises(InvalidParameterError, match=re.escape(
                "path needs matching 1-d times/values, got (1, 2) and (1, 2)")):
            DeterministicPath([[0.0, 1.0]], [[0.0, 1.0]])


class TestSkorokhodSolution:
    @pytest.mark.parametrize("x", [None, np.zeros(4)])
    def test_x_must_be_a_process_on_the_lattice(self, band, x):
        lattice, S, solution = zero_s_with(band, [0.0, 0.5, 1.0])
        with pytest.raises(InvalidParameterError) as raised:
            SkorokhodSolution(x, solution.A)
        assert str(raised.value) == f"X must be a ProcessOnLattice, got {type(x).__name__}"

    def test_a_must_be_a_deterministic_path(self, band):
        lattice, S, solution = zero_s_with(band, [0.0, 0.5, 1.0])
        with pytest.raises(InvalidParameterError) as raised:
            SkorokhodSolution(solution.X, solution.A.values)
        assert str(raised.value) == "A must be a DeterministicPath, got ndarray"


class TestStability:
    def test_identical_inputs_give_zero_gap(self, lattice6):
        loss = make_loss("linear", {"c0": 0.0, "c1": 1.0})
        s = drifted_process(lattice6, drift=0.0)
        sol = solve_mean_reflection_direct(loss, s, lattice6, TOL)
        report = stability_gap(sol, sol, loss, loss, s, s, lattice6, lambda t: 0.0)
        assert report.left == 0.0
        assert report.holds

    def test_process_shift_bound(self, lattice6):
        loss = make_loss("linear", {"c0": 0.0, "c1": 1.0})
        eps = 0.3
        s1 = drifted_process(lattice6, drift=0.0)
        s2 = ProcessShift(s1, eps)
        sol1 = solve_mean_reflection_direct(loss, s1, lattice6, TOL)
        sol2 = solve_mean_reflection_direct(loss, s2, lattice6, TOL)
        report = stability_gap(sol1, sol2, loss, loss, s1, s2, lattice6, lambda t: 0.0)
        assert report.holds
        assert report.process_gap_term == pytest.approx((1 + 2) * eps, abs=1e-9)

    def test_loss_shift_bound(self, lattice6):
        # shift upward so the initial constraint still holds for both losses
        base = make_loss("arctan_shift", {"c": 0.0})
        eps = 0.2
        shifted = base.shifted(eps)
        s = drifted_process(lattice6, drift=-1.0)
        sol1 = solve_mean_reflection_direct(base, s, lattice6, TOL)
        sol2 = solve_mean_reflection_direct(shifted, s, lattice6, TOL)
        report = stability_gap(sol1, sol2, base, shifted, s, s, lattice6, lambda t: eps)
        assert report.holds
        assert report.left <= eps / base.c_l + 1e-8

    def test_mismatched_grids_rejected(self, lattice6, band):
        from meanreflect import GridMismatchError, TimeGrid, build_lattice

        loss = make_loss("linear", {"c0": 0.0, "c1": 1.0})
        s6 = drifted_process(lattice6, drift=0.0)
        other = build_lattice(band, TimeGrid(1.0, 4))
        s4 = drifted_process(other, drift=0.0)
        sol6 = solve_mean_reflection_direct(loss, s6, lattice6, TOL)
        sol4 = solve_mean_reflection_direct(loss, s4, other, TOL)
        with pytest.raises(GridMismatchError):
            stability_gap(sol6, sol4, loss, loss, s6, s4, lattice6, lambda t: 0.0)


def ProcessShift(proc, eps):
    return proc.shifted(np.full(proc.end_step - proc.start_step + 1, eps))


class TestModulus:
    def test_derived_constant_bound_linear(self, lattice6):
        loss = make_loss("linear", {"c0": 0.0, "c1": 1.0})
        s = drifted_process(lattice6, drift=0.0)
        sol = solve_mean_reflection_direct(loss, s, lattice6, TOL)
        report = compensator_modulus_gap(sol, loss, s, lattice6)
        assert report.holds

    def test_derived_constant_bound_nonlinear(self, lattice6):
        loss = make_loss("smooth_sin", {"c0": 0.0, "c1": 1.0})
        s = drifted_process(lattice6, drift=-0.5)
        sol = solve_mean_reflection_direct(loss, s, lattice6, TOL)
        report = compensator_modulus_gap(sol, loss, s, lattice6)
        assert report.holds
