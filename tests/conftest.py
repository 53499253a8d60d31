import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import meanreflect
from meanreflect import (
    DeterministicPath,
    ProcessOnLattice,
    SkorokhodSolution,
    TimeGrid,
    VolatilityBand,
    build_lattice,
    runner,
    verify_mean_reflection,
)

PACKAGE_PARENT = str(Path(meanreflect.__file__).resolve().parents[1])


def child_env(extra=None):
    """Environment for a subprocess that must import the package under test.

    Prepends the absolute directory holding the imported ``meanreflect`` to
    ``PYTHONPATH``, so a child started in another working directory imports
    the same package as this process, from a checkout run with a relative
    ``PYTHONPATH=src`` as well as from an installed copy.
    """
    env = dict(os.environ)
    if extra:
        env.update(extra)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_PARENT, os.environ.get("PYTHONPATH")) if p
    )
    return env


def solve_as_run(config, loss=None):
    """The lattice, loss and solution that ``run`` makes of a solving
    ``config``, with ``loss`` in place of its loss if given: the runner's
    own solve."""
    loss = loss or config.loss_spec()
    lattice, solution = runner._solve(config, loss)
    return lattice, loss, solution


def verify_as_run(config):
    """The library verifier's report on the solution that ``run`` makes of
    a solving ``config``, at the solve's tol, with S = X - A as in a run."""
    lattice, loss, solution = solve_as_run(config)
    return verify_mean_reflection(solution, loss, None, lattice, tol=config.solver.tol,
                                  expected_losses=solution.expected_losses)


def zero_s_with(band, a_values):
    """A depth-2 lattice, S = 0 on it and the solution (S + A, A) with A
    taking ``a_values``."""
    lattice = build_lattice(band, TimeGrid(1.0, 2))
    S = ProcessOnLattice(lattice, 0, tuple(np.zeros(4**k) for k in range(3)))
    A = DeterministicPath(lattice.grid.times, a_values)
    return lattice, S, SkorokhodSolution(S.shifted(A.values), A)


def check_bits(checks) -> list:
    """Report checks, as dicts or ``CheckResult``s, as (name, bits of the
    measured value, bits of the threshold, verdict): equal only where every
    float is the same bit for bit."""
    rows = [c if isinstance(c, dict) else c.to_dict() for c in checks]
    return [(c["name"], *np.array([c["measured"], c["threshold"]]).view(np.int64).tolist(),
             c["pass"]) for c in rows]


@pytest.fixture(scope="session")
def band():
    return VolatilityBand(1.0, 4.0)


@pytest.fixture(scope="session")
def grid8():
    return TimeGrid(1.0, 8)


@pytest.fixture(scope="session")
def lattice8(band, grid8):
    return build_lattice(band, grid8)


@pytest.fixture(scope="session")
def grid6():
    return TimeGrid(1.0, 6)


@pytest.fixture(scope="session")
def lattice6(band, grid6):
    return build_lattice(band, grid6)


@pytest.fixture(scope="session")
def lattice4(band):
    return build_lattice(band, TimeGrid(1.0, 4))
