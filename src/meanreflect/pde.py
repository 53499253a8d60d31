"""Explicit monotone finite-difference backend for the nonlinear heat equation.

Solves u_t + G(u_xx) = 0 backward from terminal data, where G is the
band generator. Under dt <= dx^2 / sigma_high^2 every update is a convex
combination of neighbors, so the scheme is monotone and stable. Linear tails
are exact (G(0) = 0), which justifies the zero-curvature boundary columns.

One kernel marches every solve: it updates a copy of the terminal data in
place over its last axis, so the nested expectation marches all its inner
problems as one (n_inner, n_points) array. Every element sees the same
floating-point operations in the same order as a one-row march, so batched
and one-row results are bitwise equal.

Used to cross-validate the lattice engine, not to feed it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidParameterError, StabilityError
from .lattice import VolatilityBand

# half-widths below this many terminal standard deviations trigger a warning
_DOMAIN_STDS = 4.0
# the default grid's half-width, in terminal standard deviations
_DEFAULT_GRID_STDS = 6.0
# the nested expectation's first-argument grid spans this many standard
# deviations of B_{t1}
_INNER_STDS = 4.0


@dataclass(frozen=True)
class SpaceGrid:
    """Symmetric grid on [-half_width, half_width] with spacing dx; 0 is a node."""

    half_width: float
    dx: float

    def __post_init__(self):
        if not (self.dx > 0.0 and self.half_width >= self.dx):
            raise InvalidParameterError(
                f"need 0 < dx <= half_width, got dx={self.dx}, half_width={self.half_width}"
            )

    @property
    def n_half(self) -> int:
        return int(round(self.half_width / self.dx))

    @property
    def xs(self) -> np.ndarray:
        n = self.n_half
        return np.arange(-n, n + 1) * self.dx

    @property
    def origin_index(self) -> int:
        return self.n_half


@dataclass(frozen=True)
class HeatSolution:
    xs: np.ndarray
    u: np.ndarray
    value_at_origin: float
    dt: float
    n_time_steps: int


def default_space_grid(band: VolatilityBand, horizon: float, dx: float = 0.02) -> SpaceGrid:
    """Domain wide enough that boundary influence at the origin is negligible."""
    half = _DEFAULT_GRID_STDS * band.sigma_high * math.sqrt(horizon)
    return SpaceGrid(half_width=max(half, dx), dx=dx)


def _warn_if_narrow(space: SpaceGrid, band: VolatilityBand, horizon: float) -> None:
    """Warn the caller of a public solver when the domain is narrower than
    ``_DOMAIN_STDS`` terminal standard deviations."""
    if space.half_width < _DOMAIN_STDS * band.sigma_high * math.sqrt(horizon):
        warnings.warn(
            f"space grid half_width={space.half_width} is below "
            f"{_DOMAIN_STDS} terminal standard deviations; terminal influence "
            "may reach the boundary",
            stacklevel=3,
        )


def _resolve_dt(space: SpaceGrid, band: VolatilityBand, horizon: float,
                dt: float | None) -> tuple[float, int]:
    bound = space.dx**2 / band.sigma_high_sq
    if dt is None:
        n = max(1, math.ceil(horizon / bound - 1e-12))
        return horizon / n, n
    if dt <= 0.0:
        raise InvalidParameterError(f"dt must be positive, got {dt}")
    if dt > bound * (1.0 + 1e-12):
        raise StabilityError(
            f"explicit step dt={dt} violates the stability bound "
            f"dx^2/sigma_high_sq={bound}"
        )
    n = max(1, math.ceil(horizon / dt - 1e-12))
    return horizon / n, n


def _march_backward(terminal: np.ndarray, band: VolatilityBand, dx: float, dt: float,
                    n_steps: int) -> np.ndarray:
    """March each row (the last axis) of ``terminal`` n_steps explicit steps back.

    Updates a copy in place with two preallocated buffers. Per element the
    step is u + dt*(0.5*(sh*max(c, 0) - sl*max(-c, 0))), the generator
    ``g_function`` of c = ((u[i+1] - 2u[i]) + u[i-1])/dx^2, rounded in that
    order, so rows never mix and a batched march equals one-row marches.
    """
    u = np.array(terminal, dtype=float)
    inv_dx2 = 1.0 / (dx * dx)
    left, mid, right = u[..., :-2], u[..., 1:-1], u[..., 2:]
    curvature = np.zeros_like(u)
    inner = curvature[..., 1:-1]
    g = np.empty_like(u)
    for _ in range(n_steps):
        np.multiply(2.0, mid, out=inner)
        np.subtract(right, inner, out=inner)
        np.add(inner, left, out=inner)
        np.multiply(inner, inv_dx2, out=inner)
        np.negative(curvature, out=g)
        np.maximum(g, 0.0, out=g)
        np.multiply(band.sigma_low_sq, g, out=g)
        # boundary columns keep zero curvature (max(0, 0) and sh*0 leave +0.0
        # there): linear tails are exact solutions
        np.maximum(curvature, 0.0, out=curvature)
        np.multiply(band.sigma_high_sq, curvature, out=curvature)
        np.subtract(curvature, g, out=g)
        np.multiply(0.5, g, out=g)
        np.multiply(dt, g, out=g)
        np.add(u, g, out=u)
    return u


def _on_grid(values, xs: np.ndarray) -> np.ndarray:
    u = np.asarray(values, dtype=float)
    if u.shape != xs.shape:
        raise InvalidParameterError("terminal payoff must map the grid to one value per node")
    return u


def solve_nonlinear_heat(
    terminal: Callable[[np.ndarray], np.ndarray],
    band: VolatilityBand,
    space: SpaceGrid,
    horizon: float,
    dt: float | None = None,
) -> HeatSolution:
    """March u_t + G(u_xx) = 0 from terminal data at ``horizon`` back to 0.

    ``terminal`` must map an array of grid points to payoff values. dt=None
    picks the largest stable step that divides the horizon evenly.
    """
    if horizon <= 0.0:
        raise InvalidParameterError(f"horizon must be positive, got {horizon}")
    _warn_if_narrow(space, band, horizon)
    dt, n = _resolve_dt(space, band, horizon, dt)
    xs = space.xs
    u = _march_backward(_on_grid(terminal(xs), xs), band, space.dx, dt, n)
    return HeatSolution(xs=xs, u=u, value_at_origin=float(u[space.origin_index]),
                        dt=dt, n_time_steps=n)


def _interp_with_linear_tails(x: np.ndarray, xp: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """np.interp plus straight-line extrapolation from the end segments."""
    out = np.interp(x, xp, fp)
    left = x < xp[0]
    if left.any():
        slope = (fp[1] - fp[0]) / (xp[1] - xp[0])
        out[left] = fp[0] + slope * (x[left] - xp[0])
    right = x > xp[-1]
    if right.any():
        slope = (fp[-1] - fp[-2]) / (xp[-1] - xp[-2])
        out[right] = fp[-1] + slope * (x[right] - xp[-1])
    return out


def nested_expectation_pde(
    payoff: Callable[[float, np.ndarray], np.ndarray],
    band: VolatilityBand,
    space: SpaceGrid,
    t1: float,
    horizon: float,
    dt: float | None = None,
    n_inner: int = 65,
) -> float:
    """Two-monitoring-time expectation of payoff(B_{t1}, B_T) via the PDE recursion.

    The inner equations on [t1, horizon], one per first-argument value on a
    coarse grid of ``n_inner`` points spanning ``_INNER_STDS`` standard
    deviations of B_{t1}, are marched as one batch; their diagonal becomes the
    outer terminal condition.
    """
    if not 0.0 < t1 < horizon:
        raise InvalidParameterError(
            f"monitoring time must satisfy 0 < t1 < horizon, got t1={t1}, horizon={horizon}"
        )
    if n_inner < 3:
        raise InvalidParameterError("n_inner must be at least 3")
    _warn_if_narrow(space, band, horizon)
    xs = space.xs
    x1_half = _INNER_STDS * band.sigma_high * math.sqrt(t1)
    x1_grid = np.linspace(-x1_half, x1_half, n_inner)
    dt_inner, n_steps_inner = _resolve_dt(space, band, horizon - t1, dt)
    inner = np.empty((n_inner, xs.size))
    for i, x1 in enumerate(x1_grid):
        inner[i] = _on_grid(payoff(float(x1), xs), xs)
    inner = _march_backward(inner, band, space.dx, dt_inner, n_steps_inner)
    diag = np.array([np.interp(x1, xs, row) for x1, row in zip(x1_grid, inner)])
    outer_terminal = _interp_with_linear_tails(xs, x1_grid, diag)
    dt_outer, n_steps_outer = _resolve_dt(space, band, t1, dt)
    u = _march_backward(outer_terminal, band, space.dx, dt_outer, n_steps_outer)
    return float(u[space.origin_index])
