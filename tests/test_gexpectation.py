import math

import numpy as np
import pytest

from meanreflect import (
    DepthMismatchError,
    IndicatorError,
    InvalidParameterError,
    PathFunctional,
    TimeGrid,
    VolatilityBand,
    build_lattice,
    conditional_upper_expectation,
    g_function,
    lower_capacity,
    lower_expectation,
    strict_comparison_check,
    terminal_upper_expectation,
    upper_capacity,
    upper_expectation,
)
from meanreflect.config import ProblemConfig
from meanreflect.gexpectation import _policy_support, _sweep
from meanreflect.registry import LOSSES, PAYOFFS, make_loss, make_payoff
from meanreflect.reflection import expected_loss
from oracles import (
    ref_enumerated_supremum,
    ref_fixed_policy_expectation,
    ref_terminal_upper_expectation,
    ref_upper_expectation,
)


class TestGFunction:
    def test_zero(self, band):
        assert g_function(0.0, band) == 0.0

    def test_positive_branch(self):
        band = VolatilityBand(1.0, 2.0)
        assert g_function(1.0, band) == 1.0

    def test_negative_branch(self):
        band = VolatilityBand(1.0, 2.0)
        assert g_function(-1.0, band) == -0.5

    def test_positive_homogeneity_and_monotonicity(self, band):
        for a in (-2.0, -0.3, 0.7, 3.0):
            assert g_function(2.5 * a, band) == pytest.approx(2.5 * g_function(a, band), abs=1e-14)
        assert g_function(-1.0, band) <= g_function(0.5, band) <= g_function(2.0, band)

    def test_subadditive(self, band):
        for a, b in ((-1.0, 2.0), (0.5, 0.25), (-3.0, -1.0)):
            assert g_function(a + b, band) <= g_function(a, band) + g_function(b, band) + 1e-14


class TestUpperExpectation:
    def test_terminal_path_value_is_centered(self, lattice8):
        xi = lattice8.functional_from_terminal(lambda x: x)
        assert abs(upper_expectation(lattice8, xi)) < 1e-14

    def test_square_attains_high_variance(self, lattice8, band):
        xi = lattice8.functional_from_terminal(lambda x: x**2)
        assert upper_expectation(lattice8, xi) == pytest.approx(band.sigma_high_sq, abs=1e-12)

    def test_negative_square_attains_low_variance(self, lattice8, band):
        xi = lattice8.functional_from_terminal(lambda x: -(x**2))
        assert -upper_expectation(lattice8, xi) == pytest.approx(band.sigma_low_sq, abs=1e-12)

    def test_matches_recursive_reference(self, band):
        lat = build_lattice(band, TimeGrid(1.0, 3))
        rng = np.random.default_rng(7)
        values = rng.normal(size=64)
        xi = PathFunctional(3, values)
        assert upper_expectation(lat, xi) == pytest.approx(
            ref_upper_expectation(values, 3), abs=1e-12
        )

    def test_matches_full_policy_enumeration(self, band):
        # depth 2: 32 adapted policies, enumerated outright
        lat = build_lattice(band, TimeGrid(1.0, 2))
        rng = np.random.default_rng(11)
        values = rng.normal(size=16)
        xi = PathFunctional(2, values)
        assert upper_expectation(lat, xi) == pytest.approx(
            ref_enumerated_supremum(values, 2), abs=1e-12
        )

    def test_depth_mismatch_rejected(self, band):
        lat = build_lattice(band, TimeGrid(1.0, 2))
        with pytest.raises(DepthMismatchError):
            upper_expectation(lat, PathFunctional(3, np.zeros(64)))


class TestLowerExpectation:
    def test_constant(self, lattice8):
        xi = PathFunctional(8, np.full(4**8, 2.5))
        assert lower_expectation(lattice8, xi) == 2.5

    def test_square(self, lattice8, band):
        xi = lattice8.functional_from_terminal(lambda x: x**2)
        assert lower_expectation(lattice8, xi) == pytest.approx(band.sigma_low_sq, abs=1e-12)

    def test_path_value(self, lattice8):
        xi = lattice8.functional_from_terminal(lambda x: x)
        assert abs(lower_expectation(lattice8, xi)) < 1e-14


class TestConditional:
    def test_terminal_is_identity(self, lattice4):
        xi = lattice4.functional_from_terminal(lambda x: np.abs(x))
        cond = conditional_upper_expectation(lattice4, xi, 4)
        assert np.array_equal(cond.values, xi.values)

    def test_step_zero_is_scalar(self, lattice4):
        xi = lattice4.functional_from_terminal(lambda x: np.abs(x))
        cond = conditional_upper_expectation(lattice4, xi, 0)
        assert cond.values.shape == (1,)
        assert cond.values[0] == upper_expectation(lattice4, xi)

    def test_tower_is_exact(self, lattice8):
        xi = lattice8.functional_from_terminal(lambda x: np.sin(x) + 0.2 * x**2)
        for k in (1, 4, 8):
            cond = conditional_upper_expectation(lattice8, xi, k)
            assert upper_expectation(lattice8, cond) == upper_expectation(lattice8, xi)

    def test_invalid_step(self, lattice4):
        xi = lattice4.functional_from_terminal(lambda x: x)
        with pytest.raises(InvalidParameterError):
            conditional_upper_expectation(lattice4, xi, 5)
        with pytest.raises(InvalidParameterError):
            conditional_upper_expectation(lattice4, xi, -1)


class TestCapacities:
    def test_whole_space(self, lattice4):
        event = PathFunctional(4, np.ones(256))
        assert upper_capacity(lattice4, event) == 1.0
        assert lower_capacity(lattice4, event) == 1.0

    def test_first_sign_positive_has_both_capacities_half(self, lattice4):
        # sign choice carries probability 1/2 under every policy
        event_depth1 = PathFunctional(1, np.array([1.0, 0.0, 1.0, 0.0]))
        assert upper_capacity(lattice4, event_depth1) == 0.5
        assert lower_capacity(lattice4, event_depth1) == 0.5

    def test_quadratic_variation_event_separates(self, band):
        # one step: QV_T above the band midpoint happens exactly under high vol
        lat = build_lattice(band, TimeGrid(1.0, 1))
        mid = 0.5 * (band.sigma_low_sq + band.sigma_high_sq)
        event = PathFunctional(1, (lat.qv[1] > mid).astype(float))
        assert upper_capacity(lat, event) == 1.0
        assert lower_capacity(lat, event) == 0.0

    def test_rejects_non_indicator(self, lattice4):
        with pytest.raises(IndicatorError):
            upper_capacity(lattice4, PathFunctional(4, np.full(256, 0.5)))

    def test_sandwich(self, lattice4):
        rng = np.random.default_rng(3)
        event = PathFunctional(4, (rng.uniform(size=256) < 0.4).astype(float))
        v = lower_capacity(lattice4, event)
        big_v = upper_capacity(lattice4, event)
        assert 0.0 <= v <= big_v <= 1.0


class TestStrictComparison:
    def test_equal_pair_vacuous(self, lattice4):
        xi = lattice4.functional_from_terminal(lambda x: x)
        report = strict_comparison_check(lattice4, xi, xi)
        assert not report.forward_antecedent
        assert not report.backward_antecedent
        assert report.passed

    def test_constant_shift(self, lattice4):
        xi = lattice4.functional_from_terminal(lambda x: np.abs(x))
        eta = PathFunctional(4, xi.values + 1.0)
        report = strict_comparison_check(lattice4, xi, eta)
        assert report.lower_capacity_strict == 1.0
        assert report.e_eta == pytest.approx(report.e_xi + 1.0, abs=1e-12)
        assert report.passed

    def test_indicator_of_first_sign(self, lattice4):
        xi = PathFunctional(1, np.zeros(4))
        eta = PathFunctional(1, np.array([1.0, 0.0, 1.0, 0.0]))
        report = strict_comparison_check(lattice4, xi, eta)
        assert report.lower_capacity_strict == 0.5
        assert report.e_xi == 0.0
        assert report.e_eta == 0.5
        assert report.passed

    def test_rejects_a_pair_at_two_depths(self, lattice4):
        with pytest.raises(DepthMismatchError) as raised:
            strict_comparison_check(lattice4, PathFunctional(2, np.zeros(16)),
                                    PathFunctional(3, np.ones(64)))
        assert str(raised.value) == "functionals live at different depths: 2 vs 3"

    def test_rejects_undominated_pair(self, lattice4):
        xi = lattice4.functional_from_terminal(lambda x: x)
        eta = lattice4.functional_from_terminal(lambda x: -x)
        with pytest.raises(InvalidParameterError):
            strict_comparison_check(lattice4, xi, eta)


def test_classical_reduction_matches_binomial_exactly():
    # equal band endpoints and a payoff of the path: both vol branches carry
    # identical values, so sup = inf = plain binomial average, bitwise
    band = VolatilityBand(2.25, 2.25)
    lat = build_lattice(band, TimeGrid(1.0, 5))
    values = np.sin(lat.b[5]) + 0.25 * lat.b[5] ** 2
    xi = PathFunctional(5, values)

    # oracle: average the low-vol sign pair all the way down
    avg = values.copy()
    for _ in range(5):
        v = avg.reshape(-1, 2, 2)
        avg = 0.5 * (v[:, 0, 0] + v[:, 0, 1])
    assert upper_expectation(lat, xi) == avg[0]
    assert lower_expectation(lat, xi) == avg[0]


def test_determinism_bitwise(lattice8):
    rng = np.random.default_rng(13)
    values = rng.normal(size=4**8)
    xi = PathFunctional(8, values)
    assert upper_expectation(lattice8, xi) == upper_expectation(lattice8, xi)


def _broadcast_sweep(values, levels):
    """The backward sweep written out as the (m, 2, 2) broadcast it replaced."""
    for _ in range(levels):
        v = values.reshape(-1, 2, 2)
        sign_avg = 0.5 * (v[:, :, 0] + v[:, :, 1])
        values = np.maximum(sign_avg[:, 0], sign_avg[:, 1])
    return values


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


# signed zeros and ties make every max pick a side; 5e-324 halves to zero
FINITE_EDGES = np.array([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e300, -1e300])
NON_FINITE = np.array([np.inf, -np.inf, np.nan, -np.nan])


def _leaves(kind, depth, seed):
    rng = np.random.default_rng(seed)
    if kind == "random":
        return rng.normal(size=4**depth)
    if kind == "edges":
        return rng.choice(FINITE_EDGES, size=4**depth)
    return rng.choice(np.concatenate([FINITE_EDGES, NON_FINITE]), size=4**depth)


class TestSweepKernel:
    """The two-buffer sweep equals the broadcast sweep byte for byte."""

    @pytest.mark.parametrize("kind", ["random", "edges"])
    @pytest.mark.parametrize("depth", range(7))
    def test_public_sweeps_match_broadcast(self, kind, depth, lattice6):
        values = _leaves(kind, depth, seed=depth)
        xi = PathFunctional(depth, values)
        assert _same_bits(upper_expectation(lattice6, xi), _broadcast_sweep(values, depth)[0])
        for step in range(depth + 1):
            cond = conditional_upper_expectation(lattice6, xi, step)
            assert _same_bits(cond.values, _broadcast_sweep(values, depth - step))
            if step < depth:
                # the result owns its values, not a view into a scratch buffer
                assert cond.values.base is None

    @pytest.mark.parametrize("depth", range(7))
    def test_non_finite_leaves_match_broadcast(self, depth):
        # PathFunctional refuses these, so the kernel is called directly
        values = _leaves("non_finite", depth, seed=100 + depth)
        with np.errstate(invalid="ignore", over="ignore"):
            for levels in range(depth + 1):
                assert _same_bits(_sweep(values, levels), _broadcast_sweep(values, levels))

    @pytest.mark.parametrize("depth", [0, 3, 6])
    def test_sweeps_leave_the_leaves_unchanged(self, depth, lattice6):
        values = _leaves("edges", depth, seed=depth)
        xi = PathFunctional(depth, values)
        before = values.copy()
        upper_expectation(lattice6, xi)
        for step in range(depth + 1):
            conditional_upper_expectation(lattice6, xi, step)
        assert xi.values is values
        assert _same_bits(values, before)


# (1, 4) is also the config default; a set keeps each band once
KERNEL_BANDS = sorted({(1.0, 4.0), (ProblemConfig.sigma_low_sq, ProblemConfig.sigma_high_sq),
                       (0.7, 2.3)})
KERNEL_PAYOFFS = [(name, {}) for name in sorted(PAYOFFS)] + [
    ("call", {"strike": strike}) for strike in (-0.3, 0.5, 1.7)]


class TestTerminalKernel:
    """The recombining sweep of a terminal payoff against the tree."""

    @pytest.mark.parametrize("low_sq, high_sq", KERNEL_BANDS)
    def test_matches_the_tree_for_every_registry_payoff(self, low_sq, high_sq):
        band = VolatilityBand(low_sq, high_sq)
        for n in range(11):
            grid = TimeGrid(1.0 if n else 0.0, n)
            lattice = build_lattice(band, grid)
            for name, params in KERNEL_PAYOFFS:
                fn = make_payoff(name, params).fn
                tree = upper_expectation(lattice, lattice.functional_from_terminal(fn))
                value = terminal_upper_expectation(band, grid, fn)
                assert abs(value - tree) <= 1e-14 * max(1.0, abs(tree)), (n, name, params)

    def test_evaluates_the_payoff_once_on_the_reachable_states(self, band):
        grid = TimeGrid(1.0, 7)
        calls = []

        def fn(x):
            calls.append(x.copy())
            return x**2

        terminal_upper_expectation(band, grid, fn)
        assert len(calls) == 1 and calls[0].shape == (8 * 8,)
        lattice = build_lattice(band, grid)
        leaves = np.unique(lattice.b[7])
        # every reachable value of B_T is a leaf value, up to path-order rounding
        gaps = np.abs(calls[0][:, None] - leaves[None, :]).min(axis=1)
        assert gaps.max() <= 1e-14

    def test_non_finite_only_off_the_diamond_passes(self, band):
        n = 6
        grid = TimeGrid(1.0, n)
        reach = n * band.sigma_high * np.sqrt(grid.dt) * (1 + 1e-9)
        fn = lambda x: np.where(np.abs(x) > reach, np.inf, np.abs(x))
        # (i, j) = (n, n) lies off the diamond, beyond every reachable B
        assert n * (band.sigma_low + band.sigma_high) * np.sqrt(grid.dt) > reach
        value = terminal_upper_expectation(band, grid, fn)
        lattice = build_lattice(band, grid)
        tree = upper_expectation(lattice, lattice.functional_from_terminal(fn))
        assert abs(value - tree) <= 1e-14 * max(1.0, abs(tree))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_at_one_reachable_state_raises(self, band, bad):
        grid = TimeGrid(1.0, 6)
        fn = lambda x: np.where(x == 0.0, bad, x)
        with pytest.raises(InvalidParameterError, match="functional values must be finite"):
            terminal_upper_expectation(band, grid, fn)
        lattice = build_lattice(band, grid)
        with pytest.raises(InvalidParameterError, match="functional values must be finite"):
            lattice.functional_from_terminal(fn)

    def test_one_value_per_state_is_required(self, band):
        with pytest.raises(InvalidParameterError, match="one value per state"):
            terminal_upper_expectation(band, TimeGrid(1.0, 3), lambda x: 1.0)

    def test_runs_past_the_enumeration_cap(self):
        band = VolatilityBand(1.0, 1.0)
        # classical band: the binomial second moment, exactly horizon
        assert terminal_upper_expectation(band, TimeGrid(1.0, 64), lambda x: x**2) == (
            pytest.approx(1.0, rel=1e-12))

    @pytest.mark.parametrize("low_sq, high_sq", [*KERNEL_BANDS, (1.0, 1.0)])
    def test_bitwise_equal_to_the_square_grid(self, low_sq, high_sq):
        band = VolatilityBand(low_sq, high_sq)
        for n in [*range(11), 17, 64]:
            grid = TimeGrid(1.0 if n else 0.0, n)
            for name, params in KERNEL_PAYOFFS:
                fn = make_payoff(name, params).fn
                value = terminal_upper_expectation(band, grid, fn)
                assert _same_bits(value, ref_terminal_upper_expectation(band, grid, fn)), (
                    n, name, params)

    @pytest.mark.parametrize("name, params", [("abs", {}), ("neg_square", {}),
                                              ("call", {"strike": 0.5})])
    def test_bitwise_equal_to_the_square_grid_at_n_200(self, name, params):
        grid = TimeGrid(1.0, 200)
        fn = make_payoff(name, params).fn
        for low_sq, high_sq in KERNEL_BANDS:
            band = VolatilityBand(low_sq, high_sq)
            value = terminal_upper_expectation(band, grid, fn)
            assert _same_bits(value, ref_terminal_upper_expectation(band, grid, fn)), band

    @pytest.mark.parametrize("low_sq, high_sq", KERNEL_BANDS)
    @pytest.mark.parametrize("name, params, branch", [
        ("square", {}, "high"), ("abs", {}, "high"), ("call", {}, "high"),
        ("call", {"strike": 0.5}, "high"), ("neg_square", {}, "low")])
    def test_binomial_sum_of_the_winning_branch_at_n_200(self, low_sq, high_sq, name,
                                                          params, branch):
        # a convex payoff takes the high branch at every node, a concave one
        # the low branch: the value is a binomial sum of B_T = sigma sqrt(dt) S_n
        n = 200
        band = VolatilityBand(low_sq, high_sq)
        grid = TimeGrid(1.0, n)
        sigma = band.sigma_high if branch == "high" else band.sigma_low
        fn = make_payoff(name, params).fn
        b = (2.0 * np.arange(n + 1) - n) * (sigma * np.sqrt(grid.dt))
        binomial = math.fsum(math.comb(n, m) / 2**n * v for m, v in enumerate(fn(b)))
        value = terminal_upper_expectation(band, grid, fn)
        assert value == pytest.approx(binomial, rel=1e-12, abs=0.0)


def _empty_policy(depth):
    return [np.empty(4**d, dtype=bool) for d in range(depth)]


def _whole_level_policy(values, depth):
    """Where the high branch strictly wins, level by level over whole levels."""
    record = []
    for _ in range(depth):
        sums = 0.5 * (values[0::2] + values[1::2])
        record.append(sums[1::2] > sums[0::2])
        values = np.maximum(sums[0::2], sums[1::2])
    return record[::-1]


@pytest.fixture(scope="module")
def lattice9(band):
    return build_lattice(band, TimeGrid(1.0, 9))


class TestPolicyRecord:
    """The sweep's optional record of an optimal policy: one bool per node,
    True where the high branch strictly wins."""

    @pytest.mark.parametrize("depth", range(10))
    @pytest.mark.parametrize("name", sorted(LOSSES))
    def test_value_is_bitwise_the_same_with_the_record(self, lattice9, name, depth):
        loss = make_loss(name)
        xi = PathFunctional(depth, lattice9.b[depth] + 0.1 * lattice9.qv[depth])
        for shift in (None, -0.75, 2.5):
            policy = _empty_policy(depth)
            recorded = expected_loss(0.5, xi, lattice9, loss, shift=shift, policy=policy)
            assert _same_bits(recorded, expected_loss(0.5, xi, lattice9, loss, shift=shift))

    @pytest.mark.parametrize("kind", ["random", "edges"])
    @pytest.mark.parametrize("depth", range(5))
    def test_record_reproduces_the_value_as_a_fixed_policy(self, lattice6, kind, depth):
        values = _leaves(kind, depth, seed=depth)
        policy = _empty_policy(depth)
        value = upper_expectation(lattice6, PathFunctional(depth, values), policy=policy)
        fixed = ref_fixed_policy_expectation(values, depth, lambda i, level: int(policy[level][i]))
        assert _same_bits(fixed, value)
        # the support's halving sums are the same operations
        support = values[_policy_support(policy)]
        assert support.size == 2**depth
        while support.size > 1:
            support = 0.5 * (support[0::2] + support[1::2])
        assert _same_bits(support[0], value)

    def test_square_of_b_takes_the_high_branch_everywhere(self, lattice8):
        policy = _empty_policy(8)
        upper_expectation(lattice8, lattice8.functional_from_terminal(lambda x: x**2),
                          policy=policy)
        assert all(level.all() for level in policy)

    def test_blocked_record_equals_the_whole_level_argmax(self, lattice9):
        values = _leaves("random", 9, seed=9)
        policy = _empty_policy(9)
        upper_expectation(lattice9, PathFunctional(9, values), policy=policy)
        for got, want in zip(policy, _whole_level_policy(values, 9), strict=True):
            assert np.array_equal(got, want)
