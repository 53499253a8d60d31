"""Block-size independence and error parity of the blocked lattice kernels.

The sweep, the expected loss, the Euler step and the ``b``/``qv`` levels run
over blocks of one subtree each, ``lattice._BLOCK_LEVELS`` levels deep (4^8
leaves by default, so a depth-6 or depth-7 lattice is one block). Every
element sees the same operations in either layout, so shrinking the block to
1, 2 or 3 levels must give the same bits, and a bad value in the last block
must raise the error that a pass over the whole level raises.
"""

import numpy as np
import pytest

from meanreflect import (
    Coefficients,
    DepthMismatchError,
    InvalidParameterError,
    LossSpec,
    PathFunctional,
    TimeGrid,
    build_lattice,
    conditional_upper_expectation,
    expected_loss,
    lattice,
    sde,
)
from meanreflect.gexpectation import _sweep
from meanreflect.registry import make_coefficient, make_loss

SMALL_BLOCKS = (1, 2, 3)

# signed zeros and ties make every max pick a side; 5e-324 halves to zero
EDGES = np.array([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e300, -1e300])

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


def _leaves(depth: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if seed % 2:
        return rng.choice(EDGES, size=4**depth)
    return rng.normal(size=4**depth)


def _sweeps(lat):
    return [_sweep(_leaves(lat.depth, seed), levels)
            for seed in (0, 1) for levels in range(lat.depth + 1)]


def _conditionals(lat):
    return [conditional_upper_expectation(lat, PathFunctional(lat.depth, _leaves(lat.depth, seed)),
                                          step).values
            for seed in (0, 1) for step in range(lat.depth + 1)]


def _expected_losses(lat):
    return [expected_loss(float(t), PathFunctional(k, lat.b[k] + 0.1 * lat.qv[k]), lat, loss)
            for loss in LOSSES for k, t in enumerate(lat.grid.times)]


def _shifted_expected_losses(lat):
    xi = PathFunctional(lat.depth, lat.b[lat.depth])
    return [expected_loss(0.5, xi, lat, loss, shift=shift) for loss in LOSSES for shift in SHIFTS]


def _euler_steps(lat):
    rng = np.random.default_rng(7)
    out = []
    for coeffs in COEFFS:
        for k in (lat.depth - 2, lat.depth - 1):
            cur, u = rng.normal(size=(2, 4**k))
            out.append(sde._euler_step(coeffs, lat, 0.25, cur, u))
    return out


def _levels(lat):
    return [*lattice._levels(lat.step_db, lat.depth), *lattice._levels(lat.step_dqv, lat.depth)]


KERNELS = {
    "sweep": _sweeps,
    "conditional_upper_expectation": _conditionals,
    "expected_loss": _expected_losses,
    "expected_loss_shifted": _shifted_expected_losses,
    "euler_step": _euler_steps,
    "levels": _levels,
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
