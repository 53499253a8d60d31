"""Finite volatility-uncertainty lattice: the discrete sample space.

Every node of the (non-recombining) tree records one step of the canonical
path: a volatility choice from the two-point band and a sign. A node at depth
k is one of 4^k paths; its path value B and quadratic variation QV are
derived from band and grid on first read, then kept:

    B  = sum_j sign_j * sigma_j * sqrt(dt),     sigma_j in {sigma_low, sigma_high}
    QV = sum_j sigma_j^2 * dt

Child ordering is fixed once and for all (index c = 2*vol + sign):

    c=0 (low, +)   c=1 (low, -)   c=2 (high, +)   c=3 (high, -)

so node i at depth k has children 4*i + c at depth k+1. All reductions in
the expectation engine rely on this ordering, which is what makes results
bitwise deterministic.

The order is child-major, so the subtree of every node is one contiguous
slice of each deeper level. The kernels that pass over a level of more than
4^8 nodes (the backward sweep, the loss evaluation, the Euler step and the
Picard step's shift into X) run over blocks of one subtree of 4^8 leaves
(512 KiB of doubles, which stays in a 2 MiB L2 cache) at a time. Each
element still sees the same operations in the same order, so every output
is bitwise the one of a pass over the whole level, whatever the block size.

A ``PathFunctional`` carries its values' (min, max), which the root finds
read to skip finiteness passes. The constructor takes it in one min and
one max pass; a kernel that made a level takes it per block while each
block is in cache and hands it over (``PathFunctional._with_range``,
``ProcessOnLattice._keep_range``). A process keeps each level's functional,
so its readers share one, and a process made from another takes over its
kept ranges (``ProcessOnLattice._adopt``).
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DepthMismatchError, InvalidParameterError, LatticeSizeError

DEFAULT_ENUMERATION_CAP = 10

# levels of the subtree a kernel block covers: 4^8 leaves, 512 KiB of doubles
_BLOCK_LEVELS = 8

# per-step child layout: (vol index, sign) for c = 0..3
CHILD_VOL = np.array([0, 0, 1, 1])
CHILD_SIGN = np.array([1.0, -1.0, 1.0, -1.0])


@dataclass(frozen=True)
class VolatilityBand:
    """The admissible variance band [sigma_low_sq, sigma_high_sq], with
    0 < sigma_low_sq <= sigma_high_sq < inf; equal ends are the classical
    (single-measure) case, Brownian motion of variance sigma_low_sq."""

    sigma_low_sq: float
    sigma_high_sq: float

    def __post_init__(self):
        if not (self.sigma_low_sq > 0.0 and math.isfinite(self.sigma_low_sq)):
            raise InvalidParameterError(
                f"sigma_low_sq must be a finite positive real, got {self.sigma_low_sq}"
            )
        if not (self.sigma_high_sq >= self.sigma_low_sq and math.isfinite(self.sigma_high_sq)):
            raise InvalidParameterError(
                f"need 0 < sigma_low_sq <= sigma_high_sq, got "
                f"sigma_low_sq={self.sigma_low_sq}, sigma_high_sq={self.sigma_high_sq}"
            )

    @property
    def sigma_low(self) -> float:
        return math.sqrt(self.sigma_low_sq)

    @property
    def sigma_high(self) -> float:
        return math.sqrt(self.sigma_high_sq)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_n = horizon.

    n_steps=0 is the degenerate single-point grid and requires horizon=0.
    """

    horizon: float
    n_steps: int

    def __post_init__(self):
        # the lattice counts with n_steps, so a bool or a float is refused; a
        # numpy integer is kept as an int, as _depth does
        if isinstance(self.n_steps, bool) or not isinstance(self.n_steps, numbers.Integral):
            raise InvalidParameterError(f"n_steps must be an integer, got {self.n_steps!r}")
        object.__setattr__(self, "n_steps", int(self.n_steps))
        if self.n_steps < 0:
            raise InvalidParameterError(f"n_steps must be a nonnegative integer, got {self.n_steps}")
        if self.n_steps == 0:
            if self.horizon != 0.0:
                raise InvalidParameterError(
                    "n_steps=0 is only valid for the degenerate horizon=0 grid"
                )
        elif not (self.horizon > 0.0 and math.isfinite(self.horizon)):
            raise InvalidParameterError(f"horizon must be positive, got {self.horizon}")

    @property
    def dt(self) -> float:
        if self.n_steps == 0:
            return 0.0
        return self.horizon / self.n_steps

    @property
    def times(self) -> np.ndarray:
        if self.n_steps == 0:
            return np.zeros(1)
        # k*dt rather than linspace so t_k is reproducible from dt alone
        return np.arange(self.n_steps + 1) * self.dt


@dataclass(frozen=True)
class PathFunctional:
    """A value per depth-k node: the discrete stand-in for a path payoff.

    Adaptedness is structural: the value can only depend on the first k steps
    because a node *is* its first k steps.

    The constructor takes the values' range in one min and one max pass.
    A kernel that has already taken the range of a level it made, block by
    block while each block was in cache, hands it over through
    ``_with_range`` instead, which makes no pass over the values unless the
    range is not finite.
    """

    depth: int
    values: np.ndarray
    # (min, max) of the values, taken by the finiteness check; the values are
    # not written once the functional is made
    value_range: tuple[float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "depth", _depth(self.depth))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.shape != (4**self.depth,):
            raise DepthMismatchError(
                f"functional at depth {self.depth} needs {4**self.depth} values, "
                f"got shape {self.values.shape}"
            )
        # a NaN or an infinity makes the smallest or the largest value non-finite
        with np.errstate(invalid="ignore"):
            _set_range(self, (float(self.values.min()), float(self.values.max())))

    @classmethod
    def _with_range(cls, depth: int, values: np.ndarray,
                    value_range: tuple[float, float]) -> "PathFunctional":
        """The functional of the float array ``values`` (4^depth of them),
        whose smallest and largest values are ``value_range``, with a NaN in
        the range wherever ``values`` holds one. It raises what the
        constructor raises for non-finite values."""
        xi = object.__new__(cls)
        object.__setattr__(xi, "depth", _depth(depth))
        object.__setattr__(xi, "values", values)
        _set_range(xi, value_range)
        return xi


def _depth(depth) -> int:
    """``depth`` as a Python int: a numpy integer would leak into work
    figures such as ``4 ** depth`` that must be JSON numbers."""
    try:
        depth = operator.index(depth)
    except TypeError:
        raise InvalidParameterError(f"depth must be an integer, got {depth!r}") from None
    if depth < 0:
        raise InvalidParameterError(f"depth must be nonnegative, got {depth}")
    return depth


def _set_range(xi: PathFunctional, value_range: tuple[float, float]) -> None:
    if not (math.isfinite(value_range[0]) and math.isfinite(value_range[1])):
        _require_finite(xi.values)
    object.__setattr__(xi, "value_range", value_range)


def _require_finite(values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        raise InvalidParameterError("functional values must be finite")


@dataclass(frozen=True)
class PathLattice:
    """The full tree up to depth n_steps, given by its band and grid.

    ``step_db``, ``step_dqv``, ``b[k]`` and ``qv[k]`` (shape (4**k,), child-major
    order) are derived from band and grid on first read, then kept.
    """

    band: VolatilityBand
    grid: TimeGrid

    def __post_init__(self):
        if self.depth > DEFAULT_ENUMERATION_CAP:
            raise LatticeSizeError(
                f"n_steps={self.depth} exceeds the enumeration cap {DEFAULT_ENUMERATION_CAP}: "
                f"the leaf level alone would hold 4^{self.depth} = {4**self.depth} nodes"
            )

    @property
    def depth(self) -> int:
        return self.grid.n_steps

    @cached_property
    def step_db(self) -> np.ndarray:
        """Per-child increment of B for one step, in child order."""
        sigmas = np.array([self.band.sigma_low, self.band.sigma_high])
        return CHILD_SIGN * sigmas[CHILD_VOL] * math.sqrt(self.grid.dt)

    @cached_property
    def step_dqv(self) -> np.ndarray:
        """Per-child increment of QV for one step, in child order."""
        return np.array([self.band.sigma_low_sq, self.band.sigma_high_sq])[CHILD_VOL] * self.grid.dt

    @cached_property
    def b(self) -> tuple:
        """B at every node, one array per depth."""
        return _levels(self.step_db, self.depth)

    @cached_property
    def qv(self) -> tuple:
        """QV at every node, one array per depth."""
        return _levels(self.step_dqv, self.depth)

    def functional_from_terminal(self, fn) -> PathFunctional:
        """Payoff fn(B_T) as a terminal-depth functional."""
        return PathFunctional(self.depth, fn(self.b[self.depth]))


def _parent_blocks(parents: int):
    """Slices of a level of ``parents`` nodes, each of 4^7 nodes (the last may
    be shorter), whose children fill one kernel block of 4^8 nodes."""
    block = 4 ** max(_BLOCK_LEVELS - 1, 0)
    return (slice(start, start + block) for start in range(0, parents, block))


def _level_blocks(size: int):
    """Slices of a level of ``size`` nodes, each one kernel block of 4^8 nodes
    (the last may be shorter)."""
    block = 4**_BLOCK_LEVELS
    return (slice(start, start + block) for start in range(0, size, block))


def _levels(step: np.ndarray, depth: int) -> tuple:
    """Sums of per-child increments ``step`` along every path, depths 0..depth."""
    levels = [np.zeros(1)]
    for _ in range(depth):
        levels.append((levels[-1][:, None] + step[None, :]).ravel())
    return tuple(levels)


def lift_values(values: np.ndarray, from_depth: int, to_depth: int) -> np.ndarray:
    """Broadcast depth-j node values to all their depth-k descendants (j <= k)."""
    if to_depth < from_depth:
        raise DepthMismatchError(f"cannot lift from depth {from_depth} down to {to_depth}")
    return np.repeat(np.asarray(values, dtype=float), 4 ** (to_depth - from_depth))


def build_lattice(band: VolatilityBand, grid: TimeGrid) -> PathLattice:
    """The lattice of ``band`` over ``grid``; refuses n_steps past the enumeration cap."""
    return PathLattice(band, grid)


@dataclass(frozen=True)
class ProcessOnLattice:
    """An adapted process: one value per node for each depth in a contiguous range.

    ``functional_at`` keeps the functional of each level it reads, so every
    reader of a level shares one range check. A kernel that took the range
    of a level it made keeps that level's functional itself
    (``_keep_range``), and a process made from another takes over its kept
    functionals (``_adopt``), so no reader makes a pass for them; only a
    finite range is kept, so a non-finite level raises where it is first
    read. A level written in place would leave its kept functional stale, so
    the levels are not written while the process is in use; a run that forms
    X = S + A in S's arrays reads S no more and hands X the moved ranges.
    """

    lattice: PathLattice
    start_step: int
    values: tuple
    _functionals: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.start_step < 0:
            raise InvalidParameterError("start_step must be nonnegative")
        vals = tuple(np.asarray(v, dtype=float) for v in self.values)
        object.__setattr__(self, "values", vals)
        if self.end_step > self.lattice.depth:
            raise DepthMismatchError(
                f"process spans steps {self.start_step}..{self.end_step}, "
                f"lattice depth is {self.lattice.depth}"
            )
        for i, v in enumerate(vals):
            k = self.start_step + i
            if v.shape != (4**k,):
                raise DepthMismatchError(
                    f"process values at step {k} need shape ({4**k},), got {v.shape}"
                )

    @property
    def end_step(self) -> int:
        return self.start_step + len(self.values) - 1

    def at(self, step: int) -> np.ndarray:
        if not self.start_step <= step <= self.end_step:
            raise DepthMismatchError(
                f"step {step} outside process range {self.start_step}..{self.end_step}"
            )
        return self.values[step - self.start_step]

    def functional_at(self, step: int) -> PathFunctional:
        xi = self._functionals.get(step)
        if xi is None:
            xi = self._functionals[step] = PathFunctional(step, self.at(step))
        return xi

    def _keep_range(self, step: int, value_range: tuple[float, float]) -> None:
        """Make the functional of level ``step``, whose smallest and largest
        values its maker took, from that range; a non-finite range is left
        for ``functional_at`` to check."""
        if math.isfinite(value_range[0]) and math.isfinite(value_range[1]):
            self._functionals[step] = PathFunctional._with_range(step, self.at(step),
                                                                 value_range)

    def shifted(self, path_values: np.ndarray) -> "ProcessOnLattice":
        """Add a deterministic per-step scalar to every node (X = S + A)."""
        path_values = np.asarray(path_values, dtype=float)
        if path_values.shape != (len(self.values),):
            raise InvalidParameterError(
                f"deterministic path has shape {path_values.shape}, "
                f"expected ({len(self.values)},)"
            )
        shifted = tuple(v + a for v, a in zip(self.values, path_values))
        process = ProcessOnLattice(self.lattice, self.start_step, shifted)
        process._adopt(self, range(self.start_step, self.end_step + 1), path_values)
        return process

    def _adopt(self, source: "ProcessOnLattice", steps, shifts=None) -> None:
        """Take over the functionals ``source`` keeps at ``steps``. Without
        ``shifts``, a level this process holds as the same array shares
        source's functional. With ``shifts`` (one per level of this process,
        as ``shifted`` takes), each level is source's plus its shift and takes
        source's range moved by it. Only the kept ranges are read, not the
        values of either process."""
        for step in steps:
            xi = source._functionals.get(step)
            if xi is None:
                continue
            if shifts is None:
                if xi.values is self.at(step):
                    self._functionals[step] = xi
            else:
                self._keep_range(step, _shift_range(xi.value_range,
                                                    shifts[step - self.start_step]))


def _shift_range(value_range: tuple[float, float], c: float) -> tuple[float, float]:
    """The (min, max) of values + c, from the (min, max) of the values:
    rounding to nearest is monotone, so adding one c moves each extreme by
    it."""
    return float(value_range[0] + c), float(value_range[1] + c)


def _shift_stays_finite(value_range: tuple[float, float], c: float) -> bool:
    """Whether values + c are all finite, from the (min, max) of the values:
    by monotone rounding, exactly when both extremes shift to finite
    values."""
    return all(math.isfinite(v) for v in _shift_range(value_range, c))


def brownian_process(lattice: PathLattice) -> ProcessOnLattice:
    """The canonical path itself, as a process (S = B)."""
    return ProcessOnLattice(lattice, 0, lattice.b)


def quadratic_variation_process(lattice: PathLattice) -> ProcessOnLattice:
    return ProcessOnLattice(lattice, 0, lattice.qv)


def constant_process(lattice: PathLattice, value: float,
                     start_step: int = 0, end_step: int | None = None) -> ProcessOnLattice:
    if end_step is None:
        end_step = lattice.depth
    vals = tuple(np.full(4**k, float(value)) for k in range(start_step, end_step + 1))
    return ProcessOnLattice(lattice, start_step, vals)
