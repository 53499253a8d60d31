"""Byte-identity gate: exit code, ``trace.csv`` and ``report.json`` of fixed
CLI configs, pinned in ``golden/golden.json``.

Configs whose arithmetic is ``+ - * /``, ``sqrt``, ``min``, ``max`` and
``abs`` are pinned by the sha256 of each file. ``np.sin`` and ``np.arctan``
can differ by an ulp across numpy builds and CPUs, so the ``smooth_sin`` and
``arctan_shift`` configs keep the file text instead and are compared value by
value at 1e-12 relative (to ``max(1, |value|)``, so root-finder residuals
near zero compare at 1e-12 absolute).

The ``pde`` entry pins the PDE backend on a coarse grid: the sha256 of
``solve_nonlinear_heat(...).u`` for four terminals (the explicit march is
only ``+ - *`` and ``max``, so its bytes are portable), and the value of one
``nested_expectation_pde``, compared at 1e-12 relative because its
``np.interp`` may be compiled with fused multiply-add on some CPUs.

Every config with ``n_steps`` at most 8 fits in one leaf block of the
blocked kernels; ``full_sde_ou_linear_sigma_n10`` and
``sp_only_smooth_sin_n9`` run the multi-block paths of the sweep, the loss
evaluation and the Euler step; ``gexp_probe_call_n10`` pins the probe
kernel at the enumeration cap. The ``picard_*`` configs pin Picard reports
over several subintervals: after restarts, from a set initial length, and a
non-contraction failure. ``full_sde_ou_smooth_sin`` pins Picard with a
nonlinear loss, whose roots take policy iteration from extrapolated starts.
``full_sde_constant_h`` is the one entry that sets ``h``: constant ``b`` and
``h`` and the default constant ``sigma``, so every term of its Euler steps
is a scalar.
``full_sde_falling_barrier`` is the one ``full_sde`` entry whose constraint
goes slack after binding: its minimal shifts fall below the running max of
those before them, so A carries an earlier, larger shift there.
``full_sde_large_compensator`` pins a run whose A reaches 1e5 over four
subintervals: its identity residual is 0.0 by definition, where the round
trip (X - A) + A would leave X by 7.3e-12, above the 1e-12 threshold.
``full_sde_x0_negative_zero`` starts from x0 = -0.0, whose X_0 is +0.0.
``full_sde_classical_band`` has equal band ends, the classical case.

A change that moves outputs on purpose regenerates the entries it moves with

    PYTHONPATH=src python tests/test_golden.py NAME...

which rewrites only the named entries (``pde`` names the PDE entry) and
keeps the others as pinned; with no name it rewrites every entry. Every
changed entry is named in CHANGES.md.
"""

import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import check_bits, solve_as_run, verify_as_run
from meanreflect import PathFunctional, VolatilityBand, cli, expected_loss, pde, reflection, sde
from meanreflect.config import config_from_dict
from meanreflect.runner import run_experiment

GOLDEN = Path(__file__).parent / "golden" / "golden.json"
FILES = ("trace.csv", "report.json")

CONFIGS = {
    "default": {},
    "full_sde_ou_linear_sigma": {
        "mode": "full_sde",
        "problem": {
            "n_steps": 8,
            "b": {"name": "ou_drift", "params": {"theta": 0.5}},
            "sigma": {"name": "linear_sigma", "params": {"a": 1.0, "b": 0.1}},
            "loss": {"name": "linear", "params": {"c0": 0.0, "c1": 1.0}},
        },
    },
    "full_sde_ou_linear_sigma_n10": {
        "mode": "full_sde",
        "problem": {
            "n_steps": 10,
            "b": {"name": "ou_drift", "params": {"theta": 0.5}},
            "sigma": {"name": "linear_sigma", "params": {"a": 1.0, "b": 0.1}},
            "loss": {"name": "linear", "params": {"c0": 0.0, "c1": 1.0}},
        },
    },
    "full_sde_ou_smooth_sin": {
        "mode": "full_sde",
        "problem": {
            "n_steps": 8,
            "b": {"name": "ou_drift", "params": {"theta": 0.5}},
            "sigma": {"name": "linear_sigma", "params": {"a": 1.0, "b": 0.1}},
            "loss": {"name": "smooth_sin", "params": {"c0": 0.0, "c1": 1.0}},
        },
    },
    # constant b and nonzero constant h: the Euler step's scalar terms
    "full_sde_constant_h": {
        "mode": "full_sde",
        "problem": {
            "n_steps": 8,
            "b": {"name": "constant_drift", "params": {"c": -0.5}},
            "h": {"name": "constant_drift", "params": {"c": 0.25}},
            "loss": {"name": "linear", "params": {"c0": 0.0, "c1": 1.0}},
        },
    },
    "sp_only_smooth_sin": {
        "mode": "sp_only",
        "problem": {"n_steps": 6, "loss": {"name": "smooth_sin", "params": {"c0": 0.0, "c1": 1.0}}},
    },
    "sp_only_smooth_sin_n9": {
        "mode": "sp_only",
        "problem": {"n_steps": 9, "loss": {"name": "smooth_sin", "params": {"c0": 0.0, "c1": 1.0}}},
    },
    "sp_only_arctan_shift": {
        "mode": "sp_only",
        "problem": {
            "x0": 2.5, "n_steps": 6,
            "b": {"name": "ou_drift", "params": {"theta": 1.0}},
            "loss": {"name": "arctan_shift", "params": {"c": 5.0}},
        },
    },
    **{
        f"gexp_probe_{name}": {
            "mode": "gexp_probe",
            "problem": {"n_steps": 8, "payoff": {"name": name, "params": params}},
        }
        for name, params in (("identity", {}), ("square", {}), ("neg_square", {}),
                             ("abs", {}), ("call", {"strike": 0.5}))
    },
    # the recombining probe kernel at the enumeration cap
    "gexp_probe_call_n10": {
        "mode": "gexp_probe",
        "problem": {"n_steps": 10, "payoff": {"name": "call", "params": {"strike": 0.5}}},
    },
    "spotcheck_failed": {
        "problem": {"n_steps": 4,
                    "loss": {"name": "linear", "params": {"c0": 0.0, "c1": 1.0},
                             "c_l": 5.0, "C_l": 5.0}},
    },
    # two restarts, then subintervals 0-3, 3-4, 4-5 and 5-6
    "picard_restart": {
        "mode": "full_sde",
        "problem": {"n_steps": 6, "b": {"name": "ou_drift", "params": {"theta": 3.0}}},
    },
    # subintervals 0-3, 3-6 and 6-8 from the first length
    "picard_delta_initial_steps": {
        "mode": "full_sde",
        "problem": {"n_steps": 8, "b": {"name": "ou_drift", "params": {"theta": 0.7}}},
        "solver": {"delta_initial_steps": 3},
    },
    # a falling barrier: the constraint binds for three steps, then goes
    # slack, so the later minimal shifts fall below the running max
    "full_sde_falling_barrier": {
        "mode": "full_sde",
        "problem": {
            "x0": 1.0, "n_steps": 8,
            "b": {"name": "ou_drift", "params": {"theta": 1.5}},
            "sigma": {"name": "linear_sigma", "params": {"a": 1.0, "b": 0.1}},
            "loss": {"name": "linear", "params": {"c0": 1.0, "c1": -1.0}},
        },
    },
    # a drift of -1e5 against E[X] >= 0 over subintervals 0-2, 2-4, 4-6 and
    # 6-8: A reaches 1e5
    "full_sde_large_compensator": {
        "mode": "full_sde",
        "problem": {
            "n_steps": 8,
            "b": {"name": "constant_drift", "params": {"c": -1e5}},
            "loss": {"name": "linear", "params": {"c0": 0.0, "c1": 0.0}},
        },
        "solver": {"delta_initial_steps": 2},
    },
    # x0 = -0.0: X_0 is +0.0, as x0 + A_0 is
    "full_sde_x0_negative_zero": {
        "mode": "full_sde",
        "problem": {
            "x0": -0.0, "n_steps": 6,
            "b": {"name": "ou_drift", "params": {"theta": 0.5}},
            "sigma": {"name": "linear_sigma", "params": {"a": 1.0, "b": 0.1}},
            "loss": {"name": "linear", "params": {"c0": 0.0, "c1": 1.0}},
        },
    },
    # equal band ends: classical Brownian motion, one volatility at every step
    "full_sde_classical_band": {
        "mode": "full_sde",
        "problem": {
            "n_steps": 6, "sigma_low_sq": 2.0, "sigma_high_sq": 2.0,
            "b": {"name": "ou_drift", "params": {"theta": 0.5}},
            "sigma": {"name": "linear_sigma", "params": {"a": 1.0, "b": 0.1}},
            "loss": {"name": "linear", "params": {"c0": 0.0, "c1": 1.0}},
        },
    },
    # no contraction at the minimum length: exit 3
    "picard_no_contraction": {
        "mode": "full_sde",
        "problem": {"n_steps": 4, "b": {"name": "ou_drift", "params": {"theta": 60.0}}},
    },
}

# the solving configs whose run stops before the verifier: a failed spot
# check, or a solver error (exit 3)
UNVERIFIED = {"spotcheck_failed", "picard_no_contraction"}
VERIFIED = sorted(name for name, c in CONFIGS.items()
                  if c.get("mode") != "gexp_probe" and name not in UNVERIFIED)

# compared value by value: np.sin and np.arctan are not bitwise portable
BY_VALUE = {"full_sde_ou_smooth_sin", "sp_only_smooth_sin", "sp_only_smooth_sin_n9",
            "sp_only_arctan_shift"}
REL_TOL = 1e-12


PDE_BAND = VolatilityBand(1.0, 4.0)
PDE_SPACE = pde.SpaceGrid(half_width=12.0, dx=0.1)
PDE_TERMINALS = {
    "abs": np.abs,
    "call": lambda x: np.maximum(x - 0.5, 0.0),
    "square": lambda x: x**2,
    "neg_square": lambda x: -(x**2),
}


def run_pde() -> dict:
    """sha256 of each heat solution's ``u`` and the nested value."""
    entry = {}
    for name, terminal in PDE_TERMINALS.items():
        sol = pde.solve_nonlinear_heat(terminal, PDE_BAND, PDE_SPACE, 1.0)
        entry[f"heat_{name}"] = hashlib.sha256(sol.u.tobytes()).hexdigest()
    entry["nested"] = pde.nested_expectation_pde(
        lambda x1, x: np.abs(x - x1) + 0.3 * x1, PDE_BAND, PDE_SPACE, 0.5, 1.0
    )
    return entry


def run_config(name: str, tmp: Path) -> dict:
    """Run one config through ``cli.main``; exit code plus each file's sha256
    (or its text, for the configs compared by value), None when not written."""
    cfg = tmp / f"{name}.json"
    cfg.write_text(json.dumps(CONFIGS[name]))
    out = tmp / name
    entry = {"exit_code": cli.main(["run", str(cfg), "--output-dir", str(out)])}
    for fname in FILES:
        path = out / fname
        if not path.exists():
            entry[fname] = None
        elif name in BY_VALUE:
            entry[fname] = path.read_text()
        else:
            entry[fname] = hashlib.sha256(path.read_bytes()).hexdigest()
    return entry


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def _assert_values_close(got, want, where: str) -> None:
    if isinstance(want, float) and isinstance(got, float):
        assert _close(got, want), f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict) and isinstance(got, dict):
        assert got.keys() == want.keys(), where
        for key in want:
            _assert_values_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list) and isinstance(got, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_values_close(g, w, f"{where}[{i}]")
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


def _csv_cells(text: str) -> list:
    def cell(s):
        try:
            return float(s)
        except ValueError:
            return s

    return [[cell(s) for s in line.split(",")] for line in text.splitlines()]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_outputs_match_golden(name, tmp_path):
    want = json.loads(GOLDEN.read_text())[name]
    got = run_config(name, tmp_path)
    assert got["exit_code"] == want["exit_code"]
    if name not in BY_VALUE:
        assert got == want
        return
    for fname in FILES:
        assert (got[fname] is None) == (want[fname] is None), fname
    if want["trace.csv"] is not None:
        _assert_values_close(_csv_cells(got["trace.csv"]), _csv_cells(want["trace.csv"]),
                             "trace.csv")
    _assert_values_close(json.loads(got["report.json"]), json.loads(want["report.json"]),
                         "report.json")


@pytest.mark.parametrize("name", VERIFIED)
def test_library_verifier_writes_the_runs_checks(name, tmp_path):
    """The library verifier at the solve's tol returns the report's last five
    checks bit for bit, and its verdict is their conjunction."""
    config = config_from_dict(CONFIGS[name])
    report = run_experiment(config, output_dir=str(tmp_path), write_csv=False).report
    verification = verify_as_run(config)
    assert check_bits(verification.checks) == check_bits(report["checks"][-5:])
    assert verification.passed == all(c.passed for c in verification.checks)


# the verified full_sde runs pasted from several subintervals
PASTED = ("full_sde_large_compensator", "picard_delta_initial_steps", "picard_restart")


@pytest.mark.parametrize("name", PASTED)
def test_each_junction_is_one_swept_array(name, monkeypatch):
    """A later subinterval starts from the array the earlier one ends with,
    so the pasted X holds one array per level. Every start level and
    junction keeps a value in ``expected_losses``, each known value is a
    fresh sweep bit for bit, and the verifier sweeps none of those levels."""
    steps, swept = [], []
    real_step, real_loss = sde.picard_step, reflection.expected_loss

    def recorded_step(*args, **kwargs):
        result = real_step(*args, **kwargs)
        steps.append(result.solution.X)
        return result

    def recorded_loss(t, *args, **kwargs):
        swept.append(t)
        return real_loss(t, *args, **kwargs)

    monkeypatch.setattr(sde, "picard_step", recorded_step)
    config = config_from_dict(CONFIGS[name])
    lattice, loss, solution = solve_as_run(config)
    monkeypatch.setattr(reflection, "expected_loss", recorded_loss)
    assert reflection.verify_mean_reflection(solution, loss, None, lattice, tol=config.solver.tol,
                                             expected_losses=solution.expected_losses).passed
    monkeypatch.undo()
    # the last step over a subinterval's steps is the one picard_solve kept
    ranges = [(d.start_step, d.end_step) for d in solution.diagnostics]
    pieces = [next(x for x in reversed(steps) if (x.start_step, x.end_step) == r)
              for r in ranges]
    assert len(pieces) > 1
    for piece in pieces:
        for k in range(piece.start_step, piece.end_step + 1):
            assert solution.X.at(k) is piece.at(k)
    times = lattice.grid.times
    starts = [start for start, _ in ranges]
    assert not set(swept) & set(times[starts].tolist())
    for k, value in enumerate(solution.expected_losses.tolist()):
        assert k not in starts or not math.isnan(value)
        if not math.isnan(value):
            fresh = expected_loss(float(times[k]), PathFunctional(k, solution.X.at(k)), lattice,
                                  loss)
            assert value.hex() == fresh.hex(), k


def test_pde_matches_golden():
    want = json.loads(GOLDEN.read_text())["pde"]
    got = run_pde()
    assert got.keys() == want.keys()
    for key in want:
        if key == "nested":
            assert _close(got[key], want[key]), f"{key}: {got[key]!r} != {want[key]!r}"
        else:
            assert got[key] == want[key], key


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    names = sys.argv[1:] or [*CONFIGS, "pde"]
    unknown = sorted(set(names) - {*CONFIGS, "pde"})
    if unknown:
        sys.exit(f"unknown golden entries {unknown}; choose from {sorted(CONFIGS)} or pde")
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        for name in names:
            golden[name] = run_pde() if name == "pde" else run_config(name, Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {sorted(set(names))} to {GOLDEN}", file=sys.stderr)
