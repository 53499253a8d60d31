"""Explicit monotone finite-difference backend for the nonlinear heat equation.

Solves u_t + G(u_xx) = 0 backward from terminal data, where G is the
band generator G(a) = 0.5 * max(sigma_high^2 a, sigma_low^2 a), the larger
of the generator's values at the band's two ends. Under
dt <= dx^2 / sigma_high^2 every update is a convex combination of
neighbors, so the scheme is monotone and stable. Linear tails are exact
(G(0) = 0), which justifies the zero-curvature boundary columns.

One kernel marches every solve: it updates a copy of the terminal data in
place, so the nested expectation marches all its inner problems as one
(n_inner, n_points) array. It takes the rows in blocks of about
``_BLOCK_VALUES`` values, laid end to end, and marches each block through
every step while its buffers stay in cache. A step is u += max(kh*d, kl*d),
six passes over the block: the first differences of u, their differences
d = (u[i+1] - u[i]) - (u[i] - u[i-1]), kl*d, kh*d, the max and the add, with
kh and kl the band's two variances times 0.5*dt/dx^2. The second differences
where two rows meet are reset to zero before the generator reads them. A
batched row is therefore bitwise equal to the same row marched alone, and
every march is bitwise equal to the plainly written step
u + (kh*max(d, 0) - kl*max(-d, 0)) except for data in the subnormal range
(see ``_march_backward``).

Terminal data must be finite, as a lattice functional must be.

Used to cross-validate the lattice engine, not to feed it.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidParameterError, StabilityError
from .lattice import VolatilityBand, _refuse_bool, _require_finite

# half-widths below this many terminal standard deviations trigger a warning
_DOMAIN_STDS = 4.0
# the default grid's half-width, in terminal standard deviations
_DEFAULT_GRID_STDS = 6.0
# the nested expectation's first-argument grid spans this many standard
# deviations of B_{t1}
_INNER_STDS = 4.0
# values per row block of a march, 256 KiB of doubles: a block's three
# buffers stay in L2
_BLOCK_VALUES = 2**15


@dataclass(frozen=True)
class SpaceGrid:
    """Symmetric grid on [-half_width, half_width] with spacing dx; 0 is a node."""

    half_width: float
    dx: float

    def __post_init__(self):
        _refuse_bool("half_width", self.half_width)
        _refuse_bool("dx", self.dx)
        if not (self.dx > 0.0 and self.half_width >= self.dx):
            raise InvalidParameterError(
                f"need 0 < dx <= half_width, got dx={self.dx}, half_width={self.half_width}"
            )
        if not math.isfinite(self.half_width):
            raise InvalidParameterError(f"half_width must be finite, got {self.half_width}")

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
    """The G-heat solution at time 0 on the grid ``xs``, its value at the
    origin, and the time step and number of steps of the march."""

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
    _refuse_bool("dt", dt)
    if not (dt > 0.0 and math.isfinite(dt)):
        raise InvalidParameterError(f"dt must be positive and finite, got {dt}")
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

    Updates a C-ordered copy in place. The rows go in blocks of
    max(1, _BLOCK_VALUES // n_points) rows, laid end to end in one
    contiguous flat buffer, and each block is marched through all n_steps
    steps before the next starts. A block's two work buffers, made once per
    call and sliced for a shorter last block, hold the second differences d
    and, in turn, the first differences and the generator. Per element the
    step is u + max(kh*d, kl*d) with d = (u[i+1] - u[i]) - (u[i] - u[i-1]),
    rounded in that order, and kh, kl = sigma_high_sq, sigma_low_sq times
    0.5*dt/(dx*dx), folded once per call. Six passes make a step. The
    differences run across row ends; where a block holds two or more rows,
    the entries of d where one row meets the next are reset to +0.0 before
    the generator reads them, so every row's boundary columns keep zero
    curvature and rows never mix: a batched march equals one-row marches bit
    for bit, whatever the blocks.

    This is the plainly written step u + (kh*max(d, 0) - kl*max(-d, 0)),
    which is u + dt*``g_function``(d/dx^2) with the factors folded into kh
    and kl, bit for bit. ``VolatilityBand``
    makes kl > 0 and kh >= kl, and rounding is monotone and odd, so:

    * d > 0: kh*d >= kl*d, and the plain form's kh*d - kl*0 is kh*d;
    * d < 0: kl*d >= kh*d, and the plain form's 0 - kl*|d| is kl*d;
    * d = +0 gives +0 in both. For d = -0 the max form gives -0 where the
      plain one can give +0, but d is -0 only where u[i] = +0 and
      u[i+1] = -0 (a difference is zero only for equal operands), and
      there u[i] + 0 is +0 for either zero.

    Two caveats, for data outside any grid the solvers build. Where kl*d
    underflows to zero for d < 0 (data near 1e-310), the max form adds -0
    where the plain one adds +0, so a zero result can differ in its sign.
    The products the plain form does not make (kl*d for d > 0, kh*d for
    d < 0) and the differences across a row end can overflow for data near
    1e308: the bits stay the same, but numpy emits an overflow or invalid
    value RuntimeWarning.
    """
    u = np.array(terminal, dtype=float, order="C")
    n = u.shape[-1]
    rows = u.reshape(-1, n)
    scale = 0.5 * dt / (dx * dx)
    kl, kh = band.sigma_low_sq * scale, band.sigma_high_sq * scale
    per_block = max(1, _BLOCK_VALUES // n)
    size = min(per_block, len(rows)) * n
    second = np.zeros(size)
    work = np.empty(size)
    for start in range(0, len(rows), per_block):
        flat = rows[start:start + per_block].reshape(-1)
        m = flat.size
        right, left = flat[1:], flat[:-1]
        # the ends of a block's d are never written: a shorter last block's
        # last entry was a seam of the block before, so it holds +0.0 too
        d = second[:m]
        inner = d[1:-1]
        gen = work[:m]
        # the first differences live in the generator's buffer until d is formed
        first = work[:m - 1]
        up, down = first[1:], first[:-1]
        # the last column of each row but the last and the first column of
        # the next: zero curvature at the boundary columns, where linear
        # tails are exact solutions
        seams = d[n - 1:-1].reshape(-1, n)[:, :2] if m > n else None
        for _ in range(n_steps):
            np.subtract(right, left, out=first)
            np.subtract(up, down, out=inner)
            if seams is not None:
                seams.fill(0.0)
            np.multiply(kl, d, out=gen)
            np.multiply(kh, d, out=d)
            np.maximum(d, gen, out=gen)
            np.add(flat, gen, out=flat)
    return u


def _on_grid(values, xs: np.ndarray) -> np.ndarray:
    u = np.asarray(values, dtype=float)
    if u.shape != xs.shape:
        raise InvalidParameterError("terminal payoff must map the grid to one value per node")
    _require_finite(u)
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
    _refuse_bool("horizon", horizon)
    if not (horizon > 0.0 and math.isfinite(horizon)):
        raise InvalidParameterError(f"horizon must be positive and finite, got {horizon}")
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
    _refuse_bool("t1", t1)
    _refuse_bool("horizon", horizon)
    if not math.isfinite(horizon):
        raise InvalidParameterError(f"horizon must be finite, got {horizon}")
    if not 0.0 < t1 < horizon:
        raise InvalidParameterError(
            f"monitoring time must satisfy 0 < t1 < horizon, got t1={t1}, horizon={horizon}"
        )
    if isinstance(n_inner, bool) or not isinstance(n_inner, numbers.Integral):
        raise InvalidParameterError(f"n_inner must be an integer, got {n_inner!r}")
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
