import dataclasses
import hashlib
import json

import numpy as np
import pytest

from meanreflect import (
    DepthMismatchError,
    InvalidParameterError,
    LatticeSizeError,
    PathFunctional,
    PathLattice,
    ProcessOnLattice,
    TimeGrid,
    VolatilityBand,
    brownian_process,
    build_lattice,
    constant_process,
    lift_values,
)
from meanreflect.lattice import _levels


def test_band_requires_strict_inequality():
    with pytest.raises(InvalidParameterError):
        VolatilityBand(2.0, 1.0)
    with pytest.raises(InvalidParameterError):
        VolatilityBand(0.0, 1.0)


def test_band_with_equal_ends_is_the_classical_case():
    band = VolatilityBand(2.0, 2.0)
    assert band.sigma_low == band.sigma_high
    assert [f.name for f in dataclasses.fields(VolatilityBand)] == ["sigma_low_sq",
                                                                    "sigma_high_sq"]


def test_time_grid_invariants():
    g = TimeGrid(2.0, 4)
    assert g.dt == 0.5
    assert g.times[0] == 0.0
    assert g.times[-1] == 2.0
    assert np.all(np.diff(g.times) > 0)
    with pytest.raises(InvalidParameterError):
        TimeGrid(-1.0, 4)
    with pytest.raises(InvalidParameterError):
        TimeGrid(1.0, -2)


@pytest.mark.parametrize("n_steps", [2.0, 2.5, True, np.float64(4.0), np.bool_(True), "4"],
                         ids=["float", "fraction", "bool", "numpy_float", "numpy_bool", "str"])
def test_time_grid_refuses_a_step_count_that_is_not_an_integer(n_steps):
    with pytest.raises(InvalidParameterError, match="n_steps must be an integer"):
        TimeGrid(1.0, n_steps)


def test_time_grid_stores_a_numpy_step_count_as_int():
    g = TimeGrid(1.0, np.int64(4))
    assert type(g.n_steps) is int and g == TimeGrid(1.0, 4)
    assert type(build_lattice(VolatilityBand(1.0, 4.0), g).depth) is int


def test_degenerate_grid_needs_zero_horizon():
    g = TimeGrid(0.0, 0)
    assert list(g.times) == [0.0]
    with pytest.raises(InvalidParameterError):
        TimeGrid(1.0, 0)


def test_single_step_lattice_values():
    # one step, T=1: B in {+-2, +-1}, QV in {4, 4, 1, 1} resp. low first
    lat = build_lattice(VolatilityBand(1.0, 4.0), TimeGrid(1.0, 1))
    assert sorted(lat.b[1].tolist()) == [-2.0, -1.0, 1.0, 2.0]
    # child order: (low,+), (low,-), (high,+), (high,-)
    assert lat.b[1].tolist() == [1.0, -1.0, 2.0, -2.0]
    assert lat.qv[1].tolist() == [1.0, 1.0, 4.0, 4.0]


def test_root_only_lattice():
    lat = build_lattice(VolatilityBand(1.0, 4.0), TimeGrid(0.0, 0))
    assert lat.depth == 0
    assert lat.b[0].tolist() == [0.0]
    assert lat.qv[0].tolist() == [0.0]


def test_two_step_classical_collapses_to_binomial():
    # sigma_low = sigma_high = 1, T=1: 16 leaves carry the +-sqrt(0.5) walk
    lat = build_lattice(VolatilityBand(1.0, 1.0), TimeGrid(1.0, 2))
    step = np.sqrt(0.5)
    unique = sorted(set(np.round(lat.b[2], 12).tolist()))
    expected = sorted({round(v, 12) for v in (-2 * step, 0.0, 2 * step)})
    assert unique == expected
    # binomial multiplicities out of 16 leaves: 4 / 8 / 4
    values, counts = np.unique(np.round(lat.b[2], 12), return_counts=True)
    assert counts.tolist() == [4, 8, 4]


def test_node_counts_and_invariants(lattice8, band, grid8):
    for k in range(lattice8.depth + 1):
        assert lattice8.b[k].shape == (4**k,)
        t_k = grid8.times[k]
        assert np.all(lattice8.qv[k] >= band.sigma_low_sq * t_k - 1e-12)
        assert np.all(lattice8.qv[k] <= band.sigma_high_sq * t_k + 1e-12)
    # QV nondecreasing along every path: child minus lifted parent
    for k in range(lattice8.depth):
        parent = np.repeat(lattice8.qv[k], 4)
        assert np.all(lattice8.qv[k + 1] - parent > 0)


def test_enumeration_cap_names_node_count():
    with pytest.raises(LatticeSizeError, match=r"4\^11"):
        build_lattice(VolatilityBand(1.0, 4.0), TimeGrid(1.0, 11))
    # built directly, too: the first read of .b would otherwise enumerate 4^11 leaves
    with pytest.raises(LatticeSizeError, match=r"4\^11"):
        PathLattice(VolatilityBand(1.0, 4.0), TimeGrid(1.0, 11))


# sha256 of b[k].tobytes() and qv[k].tobytes() on the band (1, 4) and 8-step
# unit grid, k = 0..8, as the eager tree builder produced them
B8_SHA256 = (
    "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
    "17428253a56c3cf632155eba8d94b13714325b937111a688a8ac985481b77438",
    "e94b284f94e0812f6e92b4e7b7851faafbef9a8fe50fdf5c3ff7a2fceab9297d",
    "436eed3fb1bea63c4f63a47a7b5d43e6f9d3df0e162e34066107ec486066314d",
    "c23594cf3de1b876bda4d25be0910a23c849ceee782b7352672bdaf2717a1560",
    "c053cc584a4d099788ba93853938c97c7332465fc9b0e524a54b5dc2fbb4c7a0",
    "a9d04e4ac59d09b5df428405a6f7eca01331c368d43971808c7b94a543488d00",
    "479cf272c8f437ea5a2b508e8fcdff0406b56350837932760c503ed03464d039",
    "d22e63025da1e1b084d8115b9edf5cb9c8cc866fd672840316d12c5b008cd615",
)
QV8_SHA256 = (
    "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
    "5e2e3469dcfa8dc4cc2fd60269e7b327dd73d86a357e6d6d5458e0ee5b1bcff7",
    "bfcd355f3736b1fc65709295e7f9f1912cd23cbed399badcbe3ee9a9bd6690d2",
    "421cca164576c5d0cc6078b279c855f1fe3dfdc4f4ec7352224e91445386fab0",
    "d23242fa6e74bc49c544cc06f75a39e09fe80d05644b23767a60b475d3b52b4a",
    "8f86513ef9fe9cd28fa6c69dbc2f7ca2362182396a2aeec01851dbf6f89283fa",
    "4cff52a906ec6213b19564a519e017f29b914e79a249861bde4ce4da5ece9f60",
    "4e730fe593259f781f8866327f557bc9e4f212039d06b320ea53014d60bcef35",
    "3d9cbaef13294708606d56582d1ff1cdaef373655d203ed2a9aa1b13bc429ab2",
)


def test_lattice_build_is_deterministic(band, grid8, lattice8):
    a = build_lattice(band, grid8)
    b = build_lattice(band, grid8)
    for k in range(a.depth + 1):
        assert np.array_equal(a.b[k], b.b[k])
        assert np.array_equal(a.qv[k], b.qv[k])
    for k in range(lattice8.depth + 1):
        assert hashlib.sha256(lattice8.b[k].tobytes()).hexdigest() == B8_SHA256[k]
        assert hashlib.sha256(lattice8.qv[k].tobytes()).hexdigest() == QV8_SHA256[k]


def test_path_functional_validation():
    with pytest.raises(DepthMismatchError):
        PathFunctional(2, np.zeros(5))
    with pytest.raises(InvalidParameterError):
        PathFunctional(0, np.array([np.nan]))
    with pytest.raises(InvalidParameterError, match="^depth must be nonnegative, got -1$"):
        PathFunctional(-1, np.zeros(1))


def test_process_must_lie_inside_the_lattice(lattice4):
    with pytest.raises(InvalidParameterError, match="^start_step must be nonnegative$"):
        ProcessOnLattice(lattice4, -1, (np.zeros(1),))
    with pytest.raises(DepthMismatchError,
                       match=r"^process spans steps 2\.\.5, lattice depth is 4$"):
        ProcessOnLattice(lattice4, 2, tuple(np.zeros(4**k) for k in range(2, 6)))


def test_numpy_integer_depths_become_python_ints(lattice4):
    # a traced run writes work figures such as 4 ** depth as JSON
    from meanreflect import make_coefficient
    from meanreflect.sde import Coefficients, integrate_sde

    made = [PathFunctional(np.int64(2), np.zeros(16)),
            PathFunctional._with_range(np.int64(2), np.zeros(16), (0.0, 0.0))]
    zero = make_coefficient("zero").fn
    euler = integrate_sde(Coefficients(b=zero, h=zero, sigma=lambda t, x: 1.0, kappa=1.0),
                          lattice4, 0.0)
    for proc in (brownian_process(lattice4), euler):
        # the constructor's functional and the one an Euler step's range made
        made += [proc.functional_at(np.int64(k)) for k in range(proc.lattice.depth + 1)]
    for xi in made:
        assert type(xi.depth) is int
        assert json.dumps({"depth": xi.depth, "work": 4**xi.depth}) == (
            f'{{"depth": {xi.depth}, "work": {4**xi.depth}}}')
    with pytest.raises(InvalidParameterError, match="depth must be an integer"):
        PathFunctional(2.0, np.zeros(16))


def test_functionals_are_kept_per_level(lattice4):
    proc = brownian_process(lattice4)
    assert proc.functional_at(3) is proc.functional_at(np.int64(3))
    shifted = proc.shifted(np.full(5, 0.25))
    xi = shifted.functional_at(3)
    assert xi.value_range == PathFunctional(3, shifted.at(3)).value_range


def test_adopt_shares_one_array_and_shifts_a_range(lattice4):
    proc = brownian_process(lattice4)
    kept = proc.functional_at(2)
    same = ProcessOnLattice(lattice4, 0, proc.values)
    copied = ProcessOnLattice(lattice4, 0, tuple(v.copy() for v in proc.values))
    for target in (same, copied):
        target._adopt(proc, range(5))
    assert same.functional_at(2) is kept
    # a level held as another array is not taken over, and a level that was
    # never read has no functional to take
    assert copied._functionals == {} and 3 not in same._functionals
    shifts = np.linspace(-1.0, 1.0, 5)
    moved = ProcessOnLattice(lattice4, 0, tuple(v + c for v, c in zip(proc.values, shifts)))
    moved._adopt(proc, range(5), shifts)
    assert list(moved._functionals) == [2]
    assert moved.functional_at(2).values is moved.at(2)
    assert moved.functional_at(2).value_range == PathFunctional(2, moved.at(2)).value_range


def test_process_on_lattice_accessors(lattice4):
    proc = brownian_process(lattice4)
    assert proc.start_step == 0
    assert proc.end_step == 4
    assert np.array_equal(proc.at(2), lattice4.b[2])
    with pytest.raises(DepthMismatchError):
        proc.at(5)


def test_quadratic_variation_process_mirrors_lattice(lattice4):
    from meanreflect import quadratic_variation_process

    proc = quadratic_variation_process(lattice4)
    for k in range(5):
        assert np.array_equal(proc.at(k), lattice4.qv[k])


def test_process_shifted_adds_per_step_scalar(lattice4):
    proc = constant_process(lattice4, 1.0)
    shifted = proc.shifted(np.arange(5.0))
    for k in range(5):
        assert np.all(shifted.at(k) == 1.0 + k)
    with pytest.raises(InvalidParameterError):
        proc.shifted(np.zeros(3))


def test_lift_values_repeats_onto_descendants():
    out = lift_values(np.array([1.0, 2.0, 3.0, 4.0]), 1, 2)
    assert out.shape == (16,)
    assert np.all(out[:4] == 1.0) and np.all(out[-4:] == 4.0)
    with pytest.raises(DepthMismatchError):
        lift_values(np.zeros(4), 1, 0)


def test_subrange_process(lattice4):
    proc = ProcessOnLattice(lattice4, 2, (np.zeros(16), np.ones(64)))
    assert proc.start_step == 2 and proc.end_step == 3
    with pytest.raises(DepthMismatchError):
        ProcessOnLattice(lattice4, 2, (np.zeros(4),))


def _broadcast_levels(step, depth):
    """Path sums written out as the (m, 4) broadcast that per-column writes replaced."""
    levels = [np.zeros(1)]
    for k in range(depth):
        levels.append((levels[k][:, None] + step[None, :]).ravel())
    return levels


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("step", [
    np.random.default_rng(3).normal(size=4),
    np.array([-0.0, 0.0, 5e-324, -5e-324]),
    np.array([np.inf, -np.inf, np.nan, -0.0]),
], ids=["random", "signed_zeros", "non_finite"])
def test_levels_match_broadcast_bitwise(step):
    with np.errstate(invalid="ignore"):  # inf - inf
        got = _levels(step, 6)
        expected = _broadcast_levels(step, 6)
    for g, e in zip(got, expected, strict=True):
        assert _same_bits(g, e)


def test_lattice_levels_match_broadcast_bitwise(lattice8):
    for lazy, step in ((lattice8.b, lattice8.step_db), (lattice8.qv, lattice8.step_dqv)):
        for g, e in zip(lazy, _broadcast_levels(step, 8), strict=True):
            assert _same_bits(g, e)
