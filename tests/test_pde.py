import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanreflect import (
    InvalidParameterError,
    PathFunctional,
    SpaceGrid,
    StabilityError,
    TimeGrid,
    VolatilityBand,
    build_lattice,
    default_space_grid,
    nested_expectation_pde,
    pde,
    solve_nonlinear_heat,
    upper_expectation,
)
from meanreflect.lattice import lift_values


@pytest.fixture(scope="module")
def space(band):
    return default_space_grid(band, 1.0, dx=0.02)


def test_space_grid_contains_origin(space):
    assert space.xs[space.origin_index] == 0.0
    assert len(space.xs) % 2 == 1


def test_linear_terminal_is_exact(band, space):
    sol = solve_nonlinear_heat(lambda x: x, band, space, 1.0)
    assert sol.value_at_origin == pytest.approx(0.0, abs=1e-12)


def test_square_terminal_reproduces_high_variance(band, space):
    sol = solve_nonlinear_heat(lambda x: x**2, band, space, 1.0)
    assert sol.value_at_origin == pytest.approx(band.sigma_high_sq, rel=1e-3)


def test_negative_square_reproduces_low_variance(band, space):
    sol = solve_nonlinear_heat(lambda x: -(x**2), band, space, 1.0)
    assert sol.value_at_origin == pytest.approx(-band.sigma_low_sq, rel=1e-3)


def test_dt_defaults_to_stability_bound(band, space):
    sol = solve_nonlinear_heat(lambda x: x, band, space, 1.0)
    bound = space.dx**2 / band.sigma_high_sq
    assert sol.dt <= bound * (1 + 1e-12)
    assert sol.n_time_steps * sol.dt == pytest.approx(1.0, abs=1e-12)


def test_stability_violation_raises(band, space):
    bound = space.dx**2 / band.sigma_high_sq
    with pytest.raises(StabilityError):
        solve_nonlinear_heat(lambda x: x, band, space, 1.0, dt=2 * bound)


def test_small_domain_warns(band):
    small = SpaceGrid(half_width=2.0, dx=0.05)
    with pytest.warns(UserWarning, match="boundary"):
        solve_nonlinear_heat(lambda x: x, band, small, 1.0)


def test_monotone_scheme_preserves_ordering(band):
    # monotonicity of the update: ordered terminal data stays ordered
    grid = SpaceGrid(half_width=9.0, dx=0.1)
    lo = solve_nonlinear_heat(lambda x: np.abs(x), band, grid, 0.5)
    hi = solve_nonlinear_heat(lambda x: np.abs(x) + 0.1, band, grid, 0.5)
    assert np.all(hi.u >= lo.u - 1e-14)


def test_lattice_pde_consistency_for_lipschitz_payoffs(band):
    lat = build_lattice(band, TimeGrid(1.0, 10))
    space = default_space_grid(band, 1.0, dx=0.02)
    for payoff in (lambda x: np.abs(x), lambda x: np.maximum(x - 0.5, 0.0)):
        lattice_value = upper_expectation(lat, lat.functional_from_terminal(payoff))
        pde_value = solve_nonlinear_heat(payoff, band, space, 1.0).value_at_origin
        assert abs(lattice_value - pde_value) / abs(pde_value) <= 0.05


def _reference_march(u, band, dx, dt, n_steps):
    """The one-row explicit step written out plainly, in the kernel's order."""
    inv_dx2 = 1.0 / (dx * dx)
    c = np.zeros_like(u)
    for _ in range(n_steps):
        c[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) * inv_dx2
        g = 0.5 * (band.sigma_high_sq * np.maximum(c, 0.0) - band.sigma_low_sq * np.maximum(-c, 0.0))
        u = u + dt * g
    return u


def _assert_rows_march_alone(rows, band, dx, dt, n_steps):
    """The batched march leaves ``rows`` unwritten and equals, row by row and
    byte for byte, the one-row march and the reference."""
    before = rows.copy()
    batched = pde._march_backward(rows, band, dx, dt, n_steps)
    assert rows.tobytes() == before.tobytes()
    assert batched.shape == rows.shape
    for row, got in zip(rows.reshape(-1, rows.shape[-1]), batched.reshape(-1, rows.shape[-1])):
        one_row = pde._march_backward(row, band, dx, dt, n_steps)
        assert got.tobytes() == one_row.tobytes()
        assert got.tobytes() == _reference_march(row, band, dx, dt, n_steps).tobytes()


@pytest.mark.parametrize("march_band", [VolatilityBand(1.0, 4.0), VolatilityBand(0.25, 0.5)])
def test_batched_march_equals_one_row_marches_bitwise(march_band):
    # a zero row and signed zeros (also in the boundary columns) next to random
    # rows: any coupling across row ends or reordered arithmetic shows in the bytes
    rows = np.random.default_rng(7).standard_normal((5, 31))
    rows[1] = 0.0
    rows[2, ::2] = -0.0
    dx = 0.1
    _assert_rows_march_alone(rows, march_band, dx, dx * dx / march_band.sigma_high_sq, 40)


@pytest.mark.parametrize("march_band", [VolatilityBand(1.0, 4.0), VolatilityBand(0.5, 0.5)])
@pytest.mark.parametrize("order", ["C", "F"])
def test_rows_of_far_apart_scales_do_not_leak_across_row_ends(march_band, order):
    # rows from 1e-300 to 1e300 laid end to end, with signed zeros and
    # opposite signs at the row ends: the curvature across a row end is up to
    # 1e300 times a row's own, so any leak through it shows in the bytes
    rng = np.random.default_rng(11)
    scales = 10.0 ** np.array([-300, 300, -150, 0, 150, -300, 300])
    rows = rng.standard_normal((scales.size, 25)) * scales[:, None]
    rows[::2, 0], rows[::2, -1] = -0.0, 0.0
    rows[1::2, 0], rows[1::2, -1] = -rows[1::2, 1], -rows[1::2, -2]
    rows = np.asarray(rows, order=order)
    dx = 0.2
    for dt in (dx * dx / march_band.sigma_high_sq, 0.3 * dx * dx / march_band.sigma_high_sq):
        _assert_rows_march_alone(rows, march_band, dx, dt, 30)
        # a 3-D batch marches each row of its last axis alone too
        _assert_rows_march_alone(rows[:6].reshape(2, 3, 25), march_band, dx, dt, 30)


def test_data_up_to_1e300_march_without_runtime_warning():
    # the max form makes products the plain step does not (sl*c for c > 0,
    # sh*c for c < 0, 2u at a row end); none of them overflows below 1e300
    band = VolatilityBand(1.0, 4.0)
    rows = np.array([[1e300, -1e300, 1e300, -1e300, 1e300],
                     [-1e300, 1e300, -1e300, 1e300, -1e300],
                     [1e300, 1e300, 0.0, 1e300, 1e300]])
    dx = 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = pde._march_backward(rows, band, dx, dx * dx / band.sigma_high_sq, 3)
    assert np.isfinite(out).all()
    _assert_rows_march_alone(rows, band, dx, dx * dx / band.sigma_high_sq, 3)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1),
       shape=st.sampled_from([(3,), (17,), (64,), (1, 9), (4, 12), (2, 3, 7)]),
       equal_ends=st.booleans(),
       dt_share=st.sampled_from([1.0, 0.999, 0.5, 0.1]),
       n_steps=st.integers(1, 25))
def test_march_equals_reference_bitwise(seed, shape, equal_ends, dt_share, n_steps):
    # data and products stay clear of the subnormal range, where the max
    # form may differ by one subnormal ulp (see the _march_backward docstring)
    rng = np.random.default_rng(seed)
    sl = float(rng.uniform(0.05, 3.0))
    band = VolatilityBand(sl, sl if equal_ends else sl * float(rng.uniform(1.01, 20.0)))
    dx = float(rng.uniform(0.01, 1.0))
    dt = dt_share * dx * dx / band.sigma_high_sq
    scale = 10.0 ** rng.uniform(-150.0, 150.0, size=shape[:-1] + (1,))
    data = rng.standard_normal(shape) * scale
    data[rng.random(shape) < 0.15] = 0.0
    data[rng.random(shape) < 0.15] = -0.0
    _assert_rows_march_alone(data, band, dx, dt, n_steps)


def test_terminal_arrays_are_not_written(band):
    grid = SpaceGrid(half_width=9.0, dx=0.1)
    held = np.abs(grid.xs)
    before = held.copy()
    solve_nonlinear_heat(lambda x: held, band, grid, 0.5)
    assert held.tobytes() == before.tobytes()
    nested_expectation_pde(lambda x1, x: held, band, grid, 0.25, 0.5, n_inner=5)
    assert held.tobytes() == before.tobytes()


class TestNested:
    SPACE = SpaceGrid(half_width=10.0, dx=0.05)

    def test_linear_payoff_vanishes(self, band):
        v = nested_expectation_pde(lambda x1, x: x, band, self.SPACE, 0.5, 1.0)
        assert v == pytest.approx(0.0, abs=1e-10)

    def test_first_time_square(self, band):
        # inner equation is trivial; outer sees x^2 up to interpolation
        v = nested_expectation_pde(
            lambda x1, x: np.full_like(x, x1**2), band, self.SPACE, 0.5, 1.0
        )
        assert v == pytest.approx(band.sigma_high_sq * 0.5, rel=1e-2)

    def test_increment_square(self, band):
        v = nested_expectation_pde(lambda x1, x: (x - x1) ** 2, band, self.SPACE, 0.5, 1.0)
        assert v == pytest.approx(band.sigma_high_sq * 0.5, rel=1e-3)

    def test_agrees_with_lattice_functional(self, band, lattice8):
        b_half = lift_values(lattice8.b[4], 4, 8)
        xi = PathFunctional(8, np.abs(lattice8.b[8] - b_half) + 0.3 * b_half)
        lattice_value = upper_expectation(lattice8, xi)
        pde_value = nested_expectation_pde(
            lambda x1, x: np.abs(x - x1) + 0.3 * x1, band, self.SPACE, 0.5, 1.0
        )
        assert abs(lattice_value - pde_value) / abs(pde_value) <= 0.08

    def test_payoff_must_give_one_value_per_node(self, band):
        for payoff in (lambda x1, x: 1.0, lambda x1, x: x[:-1]):
            with pytest.raises(InvalidParameterError, match="one value per node"):
                nested_expectation_pde(payoff, band, self.SPACE, 0.5, 1.0, n_inner=3)

    def test_monitoring_time_must_be_interior(self, band):
        with pytest.raises(InvalidParameterError):
            nested_expectation_pde(lambda x1, x: x, band, self.SPACE, 1.5, 1.0)
        with pytest.raises(InvalidParameterError):
            nested_expectation_pde(lambda x1, x: x, band, self.SPACE, 0.0, 1.0)

    def test_small_domain_warns(self, band):
        tiny = SpaceGrid(half_width=2.0, dx=0.1)
        with pytest.warns(UserWarning, match="boundary"):
            nested_expectation_pde(lambda x1, x: x, band, tiny, 0.5, 1.0, n_inner=5)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_horizon_or_dt_is_a_parameter_error(band, bad):
    grid = SpaceGrid(half_width=9.0, dx=0.1)
    with pytest.raises(InvalidParameterError, match="horizon"):
        solve_nonlinear_heat(lambda x: x, band, grid, bad)
    with pytest.raises(InvalidParameterError, match="dt"):
        solve_nonlinear_heat(lambda x: x, band, grid, 0.5, dt=bad)
    with pytest.raises(InvalidParameterError, match="dt"):
        nested_expectation_pde(lambda x1, x: x, band, grid, 0.25, 0.5, dt=bad, n_inner=3)
    with pytest.raises(InvalidParameterError, match="horizon"):
        nested_expectation_pde(lambda x1, x: x, band, grid, 0.25, bad, n_inner=3)


@pytest.mark.parametrize("half_width, dx", [(1.0, 0.0), (1.0, -0.1), (0.05, 0.1),
                                            (1.0, float("nan"))])
def test_dx_outside_zero_to_half_width_is_a_parameter_error(half_width, dx):
    with pytest.raises(InvalidParameterError) as raised:
        SpaceGrid(half_width=half_width, dx=dx)
    assert str(raised.value) == f"need 0 < dx <= half_width, got dx={dx}, half_width={half_width}"


def test_nested_needs_three_inner_points(band):
    grid = SpaceGrid(half_width=9.0, dx=0.1)
    with pytest.raises(InvalidParameterError, match="^n_inner must be at least 3$"):
        nested_expectation_pde(lambda x1, x: x, band, grid, 0.25, 0.5, n_inner=2)


def test_infinite_half_width_is_a_parameter_error():
    with pytest.raises(InvalidParameterError, match="half_width"):
        SpaceGrid(half_width=float("inf"), dx=0.1)


@pytest.mark.parametrize("n_inner", [3.5, 5.0, True, "5", None])
def test_non_integer_n_inner_is_a_parameter_error(band, n_inner):
    grid = SpaceGrid(half_width=9.0, dx=0.1)
    with pytest.raises(InvalidParameterError, match="n_inner"):
        nested_expectation_pde(lambda x1, x: x, band, grid, 0.25, 0.5, n_inner=n_inner)


def test_numpy_integer_n_inner_is_accepted(band):
    grid = SpaceGrid(half_width=9.0, dx=0.1)
    assert nested_expectation_pde(lambda x1, x: x, band, grid, 0.25, 0.5,
                                  n_inner=np.int64(5)) == pytest.approx(0.0, abs=1e-10)
