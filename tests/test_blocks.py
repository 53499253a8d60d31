"""Block-size independence and error parity of the blocked lattice kernels.

The sweep, the expected loss, the Euler step and the Picard step's shift
into X and sup distance run over blocks of one subtree each,
``lattice._BLOCK_LEVELS`` levels deep (4^8 leaves by default, so a depth-6 or
depth-7 lattice is one block). Every element sees the same
operations in either layout, so shrinking the block to 1, 2 or 3 levels must
give the same bits, and a bad value in the first or the last block must raise
the error that a pass over the whole level raises, from that block.
"""

import tracemalloc
import warnings

import numpy as np
import pytest

from meanreflect import (
    Coefficients,
    DepthMismatchError,
    DeterministicPath,
    InvalidParameterError,
    LossSpec,
    MRSDEProblem,
    MRSDESolution,
    PathFunctional,
    ProcessOnLattice,
    SkorokhodSolution,
    TimeGrid,
    build_lattice,
    check_moment_estimate,
    conditional_upper_expectation,
    constant_process,
    expected_loss,
    lattice,
    lower_expectation,
    picard_step,
    required_shift,
    runner,
    sde,
    upper_expectation,
    verify_mean_reflection,
)
from meanreflect.gexpectation import _sweep
from meanreflect.registry import make_coefficient, make_loss
from oracles import ref_csv_expectations, ref_lower_expectation, ref_moment_left

SMALL_BLOCKS = (1, 2, 3)

# signed zeros and ties make every max pick a side; 5e-324 halves to zero
EDGES = np.array([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e300, -1e300])
# the moment orders of the |X|^p sweeps, and EDGES with 1e100 in place of
# 1e300, so that |x|^p stays finite for each of them
POWERS = (1.0, 2.0, 2.5)
POWER_EDGES = np.array([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e100, -1e100])

LOSSES = [make_loss("linear", {"c0": 0.2, "c1": 1.0}), make_loss("smooth_sin"),
          make_loss("arctan_shift")]
SHIFTS = (-0.75, -0.0, 0.0, 1e-3, 2.5)

COEFFS = [
    Coefficients(b=make_coefficient("ou_drift", {"theta": 0.5}).fn,
                 h=make_coefficient("zero").fn,
                 sigma=make_coefficient("linear_sigma", {"a": 1.0, "b": 0.1}).fn, kappa=1.0),
    Coefficients(b=lambda t, x: 0.7 * (t - x), h=lambda t, x: np.sin(x),
                 sigma=lambda t, x: 1.5, kappa=1.0),
]


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


def _leaves(depth: int, seed: int, edges=EDGES) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if seed % 2:
        return rng.choice(edges, size=4**depth)
    return rng.normal(size=4**depth)


def _sweeps(lat):
    return [_sweep(_leaves(lat.depth, seed), levels)
            for seed in (0, 1) for levels in range(lat.depth + 1)]


def _conditionals(lat):
    return [conditional_upper_expectation(lat, PathFunctional(lat.depth, _leaves(lat.depth, seed)),
                                          step).values
            for seed in (0, 1) for step in range(lat.depth + 1)]


def _leaf_mapped_sweeps(lat, leaf_map, edges=EDGES):
    return [upper_expectation(lat, PathFunctional(k, _leaves(k, seed, edges)), leaf_map=leaf_map)
            for seed in (0, 1) for k in range(lat.depth + 1)]


def _abs_power_sweeps(lat):
    """E[|X|^p] as the CSV trace and the moment estimate take it."""
    return [value for p in POWERS
            for value in _leaf_mapped_sweeps(lat, lambda v: np.abs(v) ** p, POWER_EDGES)]


def _negative_sweeps(lat):
    """E[-X], as the lower expectation takes it."""
    return _leaf_mapped_sweeps(lat, np.negative)


def _expected_losses(lat):
    return [expected_loss(float(t), PathFunctional(k, lat.b[k] + 0.1 * lat.qv[k]), lat, loss)
            for loss in LOSSES for k, t in enumerate(lat.grid.times)]


def _shifted_expected_losses(lat):
    xi = PathFunctional(lat.depth, lat.b[lat.depth])
    return [expected_loss(0.5, xi, lat, loss, shift=shift) for loss in LOSSES for shift in SHIFTS]


def _policy_records(lat):
    """The value and the policy record of loss sweeps at every depth."""
    out = []
    for loss in LOSSES:
        for k, t in enumerate(lat.grid.times):
            policy = [np.empty(4**d, dtype=bool) for d in range(k)]
            xi = PathFunctional(k, lat.b[k] + 0.1 * lat.qv[k])
            out.append(expected_loss(float(t), xi, lat, loss, shift=0.25, policy=policy))
            out.extend(policy)
    return out


def _euler_steps(lat):
    rng = np.random.default_rng(7)
    out = []
    for coeffs in COEFFS:
        for k in (lat.depth - 2, lat.depth - 1):
            cur, u = rng.normal(size=(2, 4**k))
            children, value_range = sde._euler_step(coeffs, lat, 0.25, cur, u)
            out += [children, np.array(value_range)]
    return out


def _levels(lat):
    return [*lattice._levels(lat.step_db, lat.depth), *lattice._levels(lat.step_dqv, lat.depth)]


def _picard_steps(lat):
    """Two full passes and two passes that reuse the levels below the first
    changed one: X, A, the distance and the first changed level of each."""
    problem = MRSDEProblem(x0=-0.0, coeffs=COEFFS[0],
                           loss=make_loss("linear", {"c0": 0.0, "c1": 1.0}),
                           band=lat.band, grid=lat.grid)
    out = []
    for guess in (0.0, -0.0):
        driver = constant_process(lat, guess)
        step = None
        for _ in range(2):
            step = picard_step(problem, lat, driver, 0, lat.depth, previous=step)
            out.extend([*step.solution.X.values, step.solution.A.values,
                        [step.distance, step.changed_from]])
            driver = step.solution.X
    return out


KERNELS = {
    "sweep": _sweeps,
    "abs_power_sweep": _abs_power_sweeps,
    "negative_sweep": _negative_sweeps,
    "conditional_upper_expectation": _conditionals,
    "expected_loss": _expected_losses,
    "expected_loss_shifted": _shifted_expected_losses,
    "policy_record": _policy_records,
    "euler_step": _euler_steps,
    "levels": _levels,
    "picard_step": _picard_steps,
}


@pytest.mark.parametrize("block_levels", SMALL_BLOCKS)
@pytest.mark.parametrize("depth", [6, 7])
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_outputs_do_not_depend_on_the_block_size(kernel, depth, block_levels, band, monkeypatch):
    lat = build_lattice(band, TimeGrid(1.0, depth))
    whole = KERNELS[kernel](lat)
    monkeypatch.setattr(lattice, "_BLOCK_LEVELS", block_levels)
    blocked = KERNELS[kernel](lat)
    assert len(blocked) == len(whole)
    for got, want in zip(blocked, whole):
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(_bits(got), _bits(want))


def test_default_block_is_one_depth_8_subtree():
    assert lattice._BLOCK_LEVELS == 8


# (depth, block levels): small blocks on a small lattice, and the default
# block on a depth-9 lattice, which holds four of them
BLOCKED = [(6, 1), (6, 2), (6, 3), (9, None)]


@pytest.fixture(params=BLOCKED, ids=[f"depth{d}-block{b or 'default'}" for d, b in BLOCKED])
def blocked_lattice(request, band, monkeypatch):
    depth, block_levels = request.param
    if block_levels is not None:
        monkeypatch.setattr(lattice, "_BLOCK_LEVELS", block_levels)
    return build_lattice(band, TimeGrid(1.0, depth))


def _last_leaf(lat, value):
    """A terminal functional that is zero but for ``value`` at its last leaf,
    which lies in the last block."""
    values = np.zeros(4**lat.depth)
    values[-1] = value
    return PathFunctional(lat.depth, values)


def _loss(fn):
    return LossSpec(fn=fn, c_l=1.0, C_l=1.0, time_modulus=lambda d: 0.0, kappa_growth=1.0)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_loss_in_last_block_raises(blocked_lattice, bad):
    loss = _loss(lambda t, x: np.where(x > 0.5, bad, x))
    xi = _last_leaf(blocked_lattice, 1.0)
    for shift in (None, 0.25):
        with pytest.raises(InvalidParameterError) as info:
            expected_loss(0.5, xi, blocked_lattice, loss, shift=shift)
        assert str(info.value) == "functional values must be finite"


def test_overflowing_shift_in_last_block_raises(blocked_lattice):
    # arctan(inf) is finite, so only the check of the shifted values can fail
    loss = _loss(lambda t, x: np.arctan(x))
    xi = _last_leaf(blocked_lattice, 1.5e308)
    with np.errstate(over="ignore"), pytest.raises(InvalidParameterError) as info:
        expected_loss(0.5, xi, blocked_lattice, loss, shift=1e308)
    assert str(info.value) == "functional values must be finite"
    # the same shift of the other blocks is finite
    assert np.isfinite(expected_loss(0.5, _last_leaf(blocked_lattice, 0.0), blocked_lattice,
                                     loss, shift=1e308))


@pytest.mark.parametrize("wrong", [lambda x: x[:-1], lambda x: np.append(x, 0.0),
                                   lambda x: x.reshape(-1, 1), lambda x: x.sum()],
                         ids=["short", "long", "column", "scalar"])
def test_loss_of_wrong_shape_in_last_block_raises(blocked_lattice, wrong):
    loss = _loss(lambda t, x: wrong(x) if x[-1] > 0.5 else x)
    xi = _last_leaf(blocked_lattice, 1.0)
    for shift in (None, 0.25):
        with pytest.raises(DepthMismatchError, match="loss at depth"):
            expected_loss(0.5, xi, blocked_lattice, loss, shift=shift)


# the first leaf of the first block and the last leaf of the last block of a
# depth-9 lattice, whose 4^9 leaves fill four blocks of 4^8
FIRST_AND_LAST = [(0, 0), (-1, 3)]
FIRST_AND_LAST_IDS = ["first_block", "last_block"]


@pytest.fixture(scope="module")
def lattice9(band):
    return build_lattice(band, TimeGrid(1.0, 9))


def _one_leaf(lat, leaf, value):
    values = np.zeros(4**lat.depth)
    values[leaf] = value
    return PathFunctional(lat.depth, values)


def _counted(fn):
    """LossSpec of ``fn`` that records the size of each block it is given."""
    calls = []

    def counted(t, x):
        calls.append(x.size)
        return fn(t, x)

    return _loss(counted), calls


@pytest.mark.parametrize("leaf, block", FIRST_AND_LAST, ids=FIRST_AND_LAST_IDS)
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("shift", [None, 0.25])
def test_non_finite_loss_raises_from_its_block(lattice9, leaf, block, bad, shift):
    loss, calls = _counted(lambda t, x: np.where(x > 0.5, bad, x))
    with pytest.raises(InvalidParameterError) as info:
        expected_loss(0.5, _one_leaf(lattice9, leaf, 1.0), lattice9, loss, shift=shift)
    assert str(info.value) == "functional values must be finite"
    assert calls == [4**8] * (block + 1)


@pytest.mark.parametrize("leaf, block", FIRST_AND_LAST, ids=FIRST_AND_LAST_IDS)
def test_opposite_infinities_in_one_pair_raise_without_a_warning(lattice9, leaf, block):
    # inf + (-inf) is the one invalid operation of the checked pair sums
    def fn(t, x):
        out = x.copy()
        out[x > 0.5] = np.inf
        out[np.flatnonzero(x > 0.5) ^ 1] = -np.inf
        return out

    loss, calls = _counted(fn)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameterError, match="functional values must be finite"):
            expected_loss(0.5, _one_leaf(lattice9, leaf, 1.0), lattice9, loss)
    assert calls == [4**8] * (block + 1)


@pytest.mark.parametrize("leaf, block", FIRST_AND_LAST, ids=FIRST_AND_LAST_IDS)
@pytest.mark.parametrize("fn", [lambda t, x: np.arctan(x), make_loss("arctan_shift").fn],
                         ids=["arctan", "arctan_shift"])
def test_overflowing_shift_raises_from_its_block_without_a_warning(lattice9, leaf, block, fn):
    # arctan(inf) is finite, so for it only the check of the shifted values
    # can fail; no overflow warning escapes that check. The other leaves
    # shift to 0.2e308, which arctan_shift doubles without overflow
    loss, calls = _counted(fn)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameterError) as info:
            expected_loss(0.5, _one_leaf(lattice9, leaf, 1.7e308), lattice9, loss, shift=0.2e308)
    assert str(info.value) == "functional values must be finite"
    assert calls == [4**8] * block


@pytest.mark.parametrize("leaf, block", FIRST_AND_LAST, ids=FIRST_AND_LAST_IDS)
@pytest.mark.parametrize("shift", [None, 0.25])
def test_loss_of_wrong_shape_raises_from_its_block(lattice9, leaf, block, shift):
    loss, calls = _counted(lambda t, x: x[:-1] if np.any(x > 0.5) else x)
    with pytest.raises(DepthMismatchError) as info:
        expected_loss(0.5, _one_leaf(lattice9, leaf, 1.0), lattice9, loss, shift=shift)
    assert str(info.value) == ("loss at depth 9 returned shape (65535,) "
                               "for points of shape (65536,)")
    assert calls == [4**8] * (block + 1)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_levels_near_the_float_limit_warn_nothing(lattice9, band, sign):
    # the first-level pair sums reach 1.55e308, finite though any two of them
    # overflow, and a root search from 0.8e308 away shifts the smallest and
    # largest values close to the float limit and back
    loss = make_loss("linear", {"c0": 0.0, "c1": 1.0})
    values = sign * np.resize(np.array([0.8e308, 0.7e308, 0.75e308, 0.8e308]), 4**9)
    xi = PathFunctional(9, values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = expected_loss(1.0, xi, lattice9, loss)
        shifted = expected_loss(1.0, xi, lattice9, loss, shift=-sign * 0.7e308)
        small = build_lattice(band, TimeGrid(1.0, 4))
        shift = required_shift(1.0, PathFunctional(4, values[: 4**4]), small, loss)
    assert value == upper_expectation(lattice9, PathFunctional(9, loss(1.0, values)))
    assert shifted == upper_expectation(
        lattice9, PathFunctional(9, loss(1.0, values - sign * 0.7e308)))
    assert (shift == 0.0) if sign > 0 else (0.7e308 < shift < 0.8e308)


def _edge_process(lat, edges):
    rng = np.random.default_rng(9)
    return ProcessOnLattice(lat, 0, tuple(rng.choice(edges, size=4**k)
                                          for k in range(lat.depth + 1)))


def _flat(lat):
    return DeterministicPath(lat.grid.times, np.zeros(lat.depth + 1))


@pytest.mark.parametrize("p", POWERS)
def test_csv_columns_match_whole_level_arrays_bitwise(lattice9, p):
    X = _edge_process(lattice9, EDGES if p == 1.0 else POWER_EDGES)
    csv = runner._solution_csv(lattice9, SkorokhodSolution(X, _flat(lattice9)),
                               np.zeros(lattice9.depth + 1), p)
    rows = [[float(v) for v in line.split(",")] for line in csv.splitlines()[1:]]
    e_x, e_abs_p = ref_csv_expectations(lattice9, X, p)
    assert np.array_equal(_bits([row[3] for row in rows]), _bits(e_x))
    assert np.array_equal(_bits([row[4] for row in rows]), _bits(e_abs_p))


@pytest.mark.parametrize("p", POWERS)
def test_moment_estimate_matches_the_whole_level_array_bitwise(lattice9, p):
    X = _edge_process(lattice9, EDGES if p == 1.0 else POWER_EDGES)
    problem = MRSDEProblem(x0=0.0, coeffs=COEFFS[0],
                           loss=make_loss("linear", {"c0": 0.0, "c1": 1.0}),
                           band=lattice9.band, grid=lattice9.grid, p=p)
    left = check_moment_estimate(MRSDESolution(X, _flat(lattice9), diagnostics=()), problem).left
    assert _bits(left) == _bits(ref_moment_left(lattice9, sde.running_abs_max(X), p))


def test_lower_expectation_matches_the_whole_level_array_bitwise(lattice9):
    for seed in (0, 1):
        for k in range(lattice9.depth + 1):
            xi = PathFunctional(k, _leaves(k, seed))
            want = ref_lower_expectation(lattice9, xi)
            assert _bits(lower_expectation(lattice9, xi)) == _bits(want)


def test_overflowing_abs_power_in_last_block_raises_the_csv_error(blocked_lattice):
    lat = blocked_lattice
    levels = [np.zeros(4**k) for k in range(lat.depth)] + [_last_leaf(lat, 1e300).values]
    solution = SkorokhodSolution(ProcessOnLattice(lat, 0, tuple(levels)), _flat(lat))
    with np.errstate(over="ignore"), pytest.raises(InvalidParameterError) as info:
        runner._solution_csv(lat, solution, np.zeros(lat.depth + 1), 2.0)
    t = repr(float(lat.grid.times[-1]))
    assert str(info.value) == f"CSV column E_absX_p at t={t}: |X|^p overflows for p=2.0"


# bytes of the top level of a depth-10 lattice: 8 MiB
TOP_LEVEL_BYTES = 8 * 4**10


@pytest.fixture(scope="module")
def solution10(band):
    """A depth-10 solution X = S + a, with S stored, so that reading S or X
    allocates nothing."""
    lat = build_lattice(band, TimeGrid(1.0, 10))
    rng = np.random.default_rng(10)
    S = ProcessOnLattice(lat, 0, tuple(rng.normal(size=4**k) for k in range(11)))
    a = np.linspace(0.0, 0.5, 11)
    return lat, S, SkorokhodSolution(S.shifted(a), DeterministicPath(lat.grid.times, a))


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_csv_trace_builds_no_whole_level_array(solution10):
    lat, _, solution = solution10
    peak = _traced_peak(lambda: runner._solution_csv(lat, solution, np.zeros(11), 2.0))
    assert peak < TOP_LEVEL_BYTES


def test_identity_residual_takes_one_level_sized_buffer(solution10):
    lat, S, solution = solution10
    loss = make_loss("linear", {"c0": 0.0, "c1": 1.0})
    peak = _traced_peak(lambda: verify_mean_reflection(solution, loss, S, lat))
    assert peak < 1.5 * TOP_LEVEL_BYTES


def test_identity_residual_takes_one_block_buffer(solution10):
    # one 4^8 scratch block (512 KiB) in place of a level-sized buffer
    lat, S, solution = solution10
    loss = make_loss("linear", {"c0": 0.0, "c1": 1.0})
    peak = _traced_peak(lambda: verify_mean_reflection(solution, loss, S, lat))
    assert peak < 2 * 2**20
