"""Span recorder for the traced benchmark run.

The recorder replaces each traced public function at every module attribute
of the ``meanreflect`` package that binds it (``from .x import f`` makes one
binding per importing module) and wraps class attributes in place. A span
keeps its name, start, end, parent span, operation id and a work figure
computed from the call's arguments or result. Spans stay in memory; the
caller writes them out when the run ends. ``uninstall`` restores every
original binding.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from pathlib import Path
from time import perf_counter

from meanreflect import config, gexpectation, lattice, loss, pde, reflection, runner, sde


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _nested_cell_updates(args, kwargs, result) -> int:
    """Grid points x time steps of nested_expectation_pde, computed from its
    arguments with the scheme's own stable-step rule."""
    band, space = _arg(args, kwargs, 1, "band"), _arg(args, kwargs, 2, "space")
    t1, horizon = _arg(args, kwargs, 3, "t1"), _arg(args, kwargs, 4, "horizon")
    n_inner = kwargs.get("n_inner", args[6] if len(args) > 6 else 65)
    bound = space.dx**2 / band.sigma_high_sq

    def steps(span: float) -> int:
        return max(1, math.ceil(span / bound - 1e-12))

    return len(space.xs) * (n_inner * steps(horizon - t1) + steps(t1))


# (span name, owner, attribute, work figure from (args, kwargs, result))
TRACED = (
    ("config.load_config", config, "load_config", None),
    ("lattice.build_lattice", lattice, "build_lattice", lambda a, k, r: 8 * 4**r.depth),
    ("lattice.PathFunctional", lattice.PathFunctional, "__post_init__", None),
    ("gexpectation.upper_expectation", gexpectation, "upper_expectation",
     lambda a, k, r: 4 ** _arg(a, k, 1, "xi").depth),
    ("loss.LossSpec.__call__", loss.LossSpec, "__call__",
     lambda a, k, r: int(r.size)),
    ("loss.validate_loss", loss, "validate_loss", None),
    ("reflection.expected_loss", reflection, "expected_loss", None),
    ("reflection.required_shift", reflection, "required_shift", None),
    ("reflection.solve_mean_reflection_direct", reflection, "solve_mean_reflection_direct", None),
    ("reflection.verify_mean_reflection", reflection, "verify_mean_reflection", None),
    ("sde.picard_solve", sde, "picard_solve", None),
    ("sde.picard_step", sde, "picard_step", None),
    ("sde.integrate_forward", sde, "integrate_forward", None),
    ("sde.integrate_sde", sde, "integrate_sde", None),
    ("sde.validate_coefficients", sde, "validate_coefficients", None),
    ("runner.run_experiment", runner, "run_experiment", None),
    ("pde.solve_nonlinear_heat", pde, "solve_nonlinear_heat",
     lambda a, k, r: len(r.xs) * r.n_time_steps),
    ("pde.nested_expectation_pde", pde, "nested_expectation_pde", _nested_cell_updates),
)


class SpanRecorder:
    """Records spans of the traced functions while installed."""

    def __init__(self):
        # each span: [name, start, end, parent index, op id, work]
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, work):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if work is not None:
                span[5] = work(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "meanreflect" or n.startswith("meanreflect."))]
        for name, owner, attr, work in TRACED:
            original = vars(owner)[attr]
            wrapped = self._wrap(name, original, work)
            owners = [owner] if isinstance(owner, type) else [
                m for m in modules if vars(m).get(attr) is original]
            for target in owners:
                self._restore.append((target, attr, original))
                setattr(target, attr, wrapped)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    def write(self, path: Path, ops: list[dict]) -> None:
        """One JSON line per operation, then one per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for op in ops:
                out.write(json.dumps(op) + "\n")
            for i, (name, start, end, parent, op, work) in enumerate(self.spans):
                out.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                      "parent": parent, "op": op, "work": work}) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the time its direct children cover (one thread, so
    children never overlap)."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out
