"""A solving run holds the Skorokhod pair (X, A) and no other process.
``full_sde`` takes X from Picard's iterates, and ``sp_only`` forms X = S + A
in S's own arrays, the addition per node that ``solve_mean_reflection_direct``
makes in a new process, so the run's X must be the library's bit for bit,
-0.0 + 0.0 = +0.0 included, and the library must leave its caller's S as it
was. The verifier takes S as X - A by definition, so every value a run
reports must be bitwise the one that a materialised S gives, and no
whole-level copy of a process may be built during a run.
"""

import tracemalloc

import numpy as np
import pytest

from meanreflect import (
    DeterministicPath,
    InvalidParameterError,
    MRSDESolution,
    PathFunctional,
    ProcessOnLattice,
    SkorokhodSolution,
    TimeGrid,
    VolatilityBand,
    build_lattice,
    integrate_sde,
    make_loss,
    reflection,
    runner,
    solve_mean_reflection_direct,
    solve_mean_reflection_reduced,
    verify_mean_reflection,
)
from meanreflect.config import config_from_dict

# bytes of one kernel block of 4^8 doubles
BLOCK_BYTES = 8 * 4**8

# registry problems whose initial constraint holds. In "slack" the
# constraint never binds, so every shift is 0.0, and S_0 is x0 = -0.0, which
# X_0 = S_0 + 0.0 turns into +0.0
PROBLEMS = {
    "ou_linear": ({"name": "ou_drift", "params": {"theta": 0.5}},
                  {"name": "linear_sigma", "params": {"a": 1.0, "b": 0.1}},
                  {"name": "linear", "params": {"c0": 0.0, "c1": 1.0}}, 0.0),
    "constant_sin": ({"name": "constant_drift", "params": {"c": -1.0}},
                     {"name": "constant_sigma", "params": {"a": 1.0}},
                     {"name": "smooth_sin"}, 0.0),
    "zero_arctan": ({"name": "zero"}, {"name": "constant_sigma", "params": {"a": 0.5}},
                    {"name": "arctan_shift", "params": {"c": 5.0}}, 2.0),
    "slack": ({"name": "ou_drift", "params": {"theta": 0.5}},
              {"name": "constant_sigma", "params": {"a": 1.0}},
              {"name": "linear", "params": {"c0": -10.0, "c1": 0.0}}, -0.0),
}


def _bits(values) -> list:
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def _config(problem: str, mode: str, n_steps: int):
    b, sigma, loss, x0 = PROBLEMS[problem]
    return config_from_dict({"mode": mode, "problem": {"n_steps": n_steps, "b": b,
                                                       "sigma": sigma, "loss": loss, "x0": x0}})


def _solve(config):
    """The lattice, the loss and the solution of the runner's own solve, and
    the same pair with S materialised beside it: for ``sp_only`` the
    library's direct construction on a fresh S, for ``full_sde`` U."""
    loss = config.loss_spec()
    lat, solution = runner._solve(config, loss)
    if config.mode == "sp_only":
        S = integrate_sde(config.coefficients(), lat, config.problem.x0)
        return lat, loss, solution, (solve_mean_reflection_direct(loss, S, lat,
                                                                  config.solver.tol), S)
    return lat, loss, solution, (solution, solution.U)


def _assert_same_reports(read, whole):
    for name in ("identity_residual", "constraint_min", "flatoff_residual"):
        assert _bits(getattr(read, name)) == _bits(getattr(whole, name)), name
    assert _bits(read.expected_losses) == _bits(whole.expected_losses)
    assert read.passed == whole.passed


def _assert_readers_match(lat, loss, solution, whole):
    """The verifier's residuals, with and without the kept losses, and the
    CSV text, read as a run reads them, with S = X - A, and with the whole
    S given."""
    whole_solution, whole_S = whole
    kept = whole_solution.expected_losses
    read = verify_mean_reflection(solution, loss, None, lat, expected_losses=kept)
    _assert_same_reports(read, verify_mean_reflection(whole_solution, loss, whole_S, lat,
                                                      expected_losses=kept))
    _assert_same_reports(verify_mean_reflection(solution, loss, None, lat),
                         verify_mean_reflection(whole_solution, loss, whole_S, lat))
    assert (runner._solution_csv(lat, solution, read.expected_losses, 2.0)
            == runner._solution_csv(lat, whole_solution, read.expected_losses, 2.0))


@pytest.mark.parametrize("n_steps", range(1, 7))
@pytest.mark.parametrize("mode", ["sp_only", "full_sde"])
@pytest.mark.parametrize("problem", sorted(PROBLEMS))
def test_readers_match_materialised_processes_bitwise(problem, mode, n_steps):
    lat, loss, solution, whole = _solve(_config(problem, mode, n_steps))
    whole_solution = whole[0]
    assert _bits(solution.A.values) == _bits(whole_solution.A.values)
    assert _bits(solution.expected_losses) == _bits(whole_solution.expected_losses)
    for k in range(n_steps + 1):
        x = solution.X.at(k)
        assert _bits(x) == _bits(whole_solution.X.at(k))
        # a kept range is that of the level's values
        assert solution.X.functional_at(k).value_range == (x.min(), x.max())
    _assert_readers_match(lat, loss, solution, whole)


def test_slack_problem_takes_zero_shifts_onto_a_negative_zero():
    lat, _, solution, (_, S) = _solve(_config("slack", "sp_only", 3))
    assert not solution.A.values.any()
    assert _bits(S.at(0)) == _bits([-0.0])
    assert _bits(solution.X.at(0)) == _bits([0.0])
    csv = runner._solution_csv(lat, solution, np.zeros(4), 2.0)
    assert csv.splitlines()[1].split(",")[3] == "0.0"


@pytest.mark.parametrize("problem", sorted(PROBLEMS))
def test_direct_construction_leaves_the_callers_s_unchanged(problem):
    config = _config(problem, "sp_only", 5)
    lat = build_lattice(config.band(), config.grid())
    S = integrate_sde(config.coefficients(), lat, config.problem.x0)
    before = [_bits(level) for level in S.values]
    solution = solve_mean_reflection_direct(config.loss_spec(), S, lat, config.solver.tol)
    assert [_bits(level) for level in S.values] == before
    assert not any(x is s for x, s in zip(solution.X.values, S.values))


@pytest.fixture(scope="module")
def lattice5():
    return build_lattice(VolatilityBand(1.0, 4.0), TimeGrid(1.0, 5))


def _signed_zeros(lat) -> ProcessOnLattice:
    """Levels of signed zeros and ones, with -0.0 at the root."""
    rng = np.random.default_rng(5)
    levels = [np.array([-0.0])]
    levels += [rng.choice([0.0, -0.0, 1.0, -1.0], size=4**k) for k in range(1, lat.depth + 1)]
    return ProcessOnLattice(lat, 0, tuple(levels))


@pytest.mark.parametrize("rise", [0.0, 0.25])
def test_readers_form_signed_zeros_as_the_whole_addition_does(lattice5, rise):
    # l(t, x) = x - 0.0 keeps the sign of a zero, so E[l] and E[X] both see
    # whether a reader subtracted the zero shift: S = X + (-A)
    lat, loss = lattice5, make_loss("linear", {"c0": 0.0, "c1": 0.0})
    A = DeterministicPath(lat.grid.times, rise * np.arange(lat.depth + 1.0))
    stored = _signed_zeros(lat)
    _assert_readers_match(lat, loss, SkorokhodSolution(stored, A),
                          (SkorokhodSolution(stored, A), stored.shifted(-A.values)))


def test_overflowing_x_raises_where_its_range_is_first_read(tmp_path, monkeypatch):
    """X_3 = S_3 + a_3 overflows. A run forms X in S's arrays, where level 3
    then keeps no range, so its verifier raises the finiteness error where
    it first reads that range, before any loss evaluation, and the run exits
    3. A caller that passes S has X compared with S + A first, and raises
    after the loss evaluations of steps 0-2."""
    config = config_from_dict({"mode": "sp_only", "problem": {
        "n_steps": 5, "x0": 1.5e308, "sigma": {"name": "constant_sigma", "params": {"a": 0.0}},
        "loss": {"name": "linear", "params": {"c0": 0.0, "c1": 0.0}}}})
    lat = build_lattice(config.band(), config.grid())
    A = DeterministicPath(lat.grid.times, np.array([0.0, 0.0, 0.0, 1e308, 1e308, 1e308]))
    seen, real = [], reflection.expected_loss
    monkeypatch.setattr(reflection, "expected_loss",
                        lambda t, *args, **kwargs: seen.append(t) or real(t, *args, **kwargs))
    monkeypatch.setattr(runner, "_reflect_direct",
                        lambda *args, **kwargs: (A, np.full(lat.depth + 1, np.nan)))
    result = runner.run_experiment(config, output_dir=str(tmp_path))
    assert result.exit_code == runner.EXIT_SOLVER_FAILURE
    assert (result.report["diagnostics"]["solver_error"]
            == "InvalidParameterError: functional values must be finite")
    assert seen == []
    S = integrate_sde(config.coefficients(), lat, config.problem.x0)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(InvalidParameterError) as info:
        verify_mean_reflection(SkorokhodSolution(S.shifted(A.values), A), config.loss_spec(),
                               S, lat)
    assert str(info.value) == "functional values must be finite"
    assert seen == list(lat.grid.times[:3])


def _assert_verifier_reads_no_level(monkeypatch, lat, loss, solution, whole, names):
    """The verifier on ``solution`` with S = X - A takes no block pass and
    builds no functional: every level it reads keeps the range its maker
    took. Its identity residual is 0.0, and its residuals ``names`` are those
    of ``whole``, the solution with S materialised."""
    whole_solution, whole_S = whole
    kept = solution.expected_losses
    want = [verify_mean_reflection(whole_solution, loss, whole_S, lat, expected_losses=losses)
            for losses in (kept, None)]

    def refuse(*args):
        raise AssertionError("the verifier passed over a level's blocks")

    built = []
    check = PathFunctional.__post_init__
    monkeypatch.setattr(reflection, "_level_blocks", refuse)
    monkeypatch.setattr(PathFunctional, "__post_init__",
                        lambda xi: built.append(xi.depth) or check(xi))
    for losses, whole in zip((kept, None), want):
        read = verify_mean_reflection(solution, loss, None, lat, expected_losses=losses)
        assert read.identity_residual == 0.0
        for name in names:
            assert _bits(getattr(read, name)) == _bits(getattr(whole, name)), name
        assert _bits(read.expected_losses) == _bits(whole.expected_losses)
        assert read.passed == whole.passed
    assert built == []


@pytest.mark.parametrize("n_steps", range(1, 7))
@pytest.mark.parametrize("problem", sorted(PROBLEMS))
def test_verifier_reads_no_level_of_an_sp_only_solution(monkeypatch, problem, n_steps):
    """The run's X takes each S level's range moved by a_k, so the report is
    the one that the direct construction and S give, identity included."""
    lat, loss, solution, whole = _solve(_config(problem, "sp_only", n_steps))
    _assert_verifier_reads_no_level(monkeypatch, lat, loss, solution, whole,
                                    ("identity_residual", "constraint_min", "flatoff_residual"))


def test_overflowing_s_plus_a_gives_a_nan_identity_residual():
    """S + A overflows to inf, so X - (S + A) is inf - inf: the residual is
    NaN, and the verdict fails."""
    lat = build_lattice(VolatilityBand(1.0, 4.0), TimeGrid(1.0, 2))
    S = ProcessOnLattice(lat, 0, tuple(np.full(4**k, 1.7e308) for k in range(3)))
    A = DeterministicPath(lat.grid.times, np.array([0.0, 5e307, 1e308]))
    loss = make_loss("linear", {"c0": 0.0, "c1": 1.0})
    with np.errstate(over="ignore", invalid="ignore"):
        report = verify_mean_reflection(SkorokhodSolution(S.shifted(A.values), A), loss, S, lat,
                                        expected_losses=np.zeros(3))
    assert np.isnan(report.identity_residual)
    assert not report.passed


@pytest.mark.parametrize("stored_s", [True, False])
def test_nan_block_survives_an_earlier_positive_block(stored_s):
    """Level 9 has four blocks: the first is off by 2^-10 and the last
    holds a NaN. With S given, X is compared with S + A block by block, the
    NaN must carry through the running max, and, the losses being given, no
    functional of the NaN level is built. With S None, S is X - A by
    definition and the verifier reads X's ranges, so the NaN level raises
    the functional's finiteness error."""
    lat = build_lattice(VolatilityBand(1.0, 4.0), TimeGrid(1.0, 9))
    rng = np.random.default_rng(9)
    S = ProcessOnLattice(lat, 0, tuple(rng.normal(size=4**k) for k in range(10)))
    A = DeterministicPath(lat.grid.times, np.linspace(0.0, 0.5, 10))
    levels = list(S.shifted(A.values).values)
    levels[9] = levels[9].copy()
    levels[9][0] += 2.0**-10
    levels[9][-1] = np.nan
    X = ProcessOnLattice(lat, 0, tuple(levels))
    loss = make_loss("linear", {"c0": 0.0, "c1": 1.0})
    if not stored_s:
        with pytest.raises(InvalidParameterError, match="functional values must be finite"):
            verify_mean_reflection(SkorokhodSolution(X, A), loss, None, lat,
                                   expected_losses=np.zeros(10))
        return
    report = verify_mean_reflection(SkorokhodSolution(X, A), loss, S, lat,
                                    expected_losses=np.zeros(10))
    assert np.isnan(report.identity_residual)
    assert not report.passed


def _subinterval_config(n_steps: int, subintervals: int, b: dict | None = None,
                        loss: dict | None = None, mode: str = "full_sde"):
    """An "ou_linear" config, or one with the given b and loss, whose Picard
    solve starts from ``subintervals`` subintervals of equal length."""
    b_default, sigma, loss_default, x0 = PROBLEMS["ou_linear"]
    problem = {"n_steps": n_steps, "b": b or b_default, "sigma": sigma,
               "loss": loss or loss_default, "x0": x0}
    solver = {} if subintervals == 1 else {"delta_initial_steps": n_steps // subintervals}
    return config_from_dict({"mode": mode, "problem": problem, "solver": solver})


@pytest.mark.parametrize("n_steps, subintervals", [(1, 1), (5, 1), (6, 2), (6, 3), (8, 4)])
def test_verifier_reads_no_level_of_a_full_sde_solution(monkeypatch, n_steps, subintervals):
    """Its residuals other than the identity are those of the materialised
    U, whose X - A and + A may round."""
    config = _subinterval_config(n_steps, subintervals)
    lat, loss, solution, whole = _solve(config)
    assert len(solution.diagnostics) == subintervals
    _assert_verifier_reads_no_level(monkeypatch, lat, loss, solution, whole,
                                    ("constraint_min", "flatoff_residual"))


@pytest.mark.parametrize("subintervals", [1, 2, 4, "sp_only"])
@pytest.mark.parametrize("c", [-1.0, -1e5, -1e7])
def test_constant_drift_runs_pass_with_a_zero_identity_residual(tmp_path, c, subintervals):
    """A drift c against E[X] >= 0 makes A_T about -c. Half an ulp of A_T
    passes the 1e-12 identity threshold once -c passes about 3e4, so a
    recomputed (X - A) + A could fail such a run over several
    subintervals. A run verifies S as X - A by definition, so every run
    gives 0.0 and passes."""
    mode = "sp_only" if subintervals == "sp_only" else "full_sde"
    config = _subinterval_config(8, 1 if mode == "sp_only" else subintervals,
                                 b={"name": "constant_drift", "params": {"c": c}},
                                 loss={"name": "linear", "params": {"c0": 0.0, "c1": 0.0}},
                                 mode=mode)
    result = runner.run_experiment(config, output_dir=str(tmp_path))
    checks = {check["name"]: check for check in result.report["checks"]}
    assert result.exit_code == runner.EXIT_PASS, checks
    assert checks["identity_residual"]["measured"] == 0.0
    assert checks["compensator_nondecreasing"]["measured"] > 0.0
    if mode == "full_sde":
        assert len(result.report["diagnostics"]["picard"]["subintervals"]) == subintervals


@pytest.mark.parametrize("mode, n_steps", [("sp_only", 5), ("sp_only", 9), ("full_sde", 5)])
def test_run_builds_no_whole_shifted_process(tmp_path, monkeypatch, mode, n_steps):
    config = _config("ou_linear", mode, n_steps)
    lat, loss, _, (whole_solution, whole_S) = _solve(config)
    whole = verify_mean_reflection(whole_solution, loss, whole_S, lat,
                                   expected_losses=whole_solution.expected_losses)
    want = runner._solution_csv(lat, whole_solution, whole.expected_losses, config.problem.p)

    def refuse(*args):
        raise AssertionError("a run built a whole shifted process")

    monkeypatch.setattr(ProcessOnLattice, "shifted", refuse)
    monkeypatch.setattr(MRSDESolution, "U", property(refuse))
    result = runner.run_experiment(config, output_dir=str(tmp_path))
    assert result.exit_code == runner.EXIT_PASS
    assert result.csv_text == want


@pytest.mark.parametrize("mode", ["sp_only", "full_sde"])
def test_abs_power_overflow_still_names_the_csv_column(tmp_path, mode):
    config = config_from_dict({"mode": mode, "problem": {"n_steps": 4, "x0": 1e300}})
    result = runner.run_experiment(config, output_dir=str(tmp_path))
    assert result.exit_code == runner.EXIT_SOLVER_FAILURE
    assert "CSV column E_absX_p at t=0.0" in result.report["diagnostics"]["solver_error"]


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _process_bytes(depth: int) -> int:
    return sum(8 * 4**k for k in range(depth + 1))


def test_sp_only_run_peak_is_s_plus_a_few_blocks(tmp_path):
    """An n=8 run holds one process, X formed in S's arrays, and a few
    blocks of temporaries: a root find's shifted block and loss values, or
    the CSV's |X|^p temporaries, plus the sweep's buffers, about 2.75
    blocks. A second whole process would add 1.33 blocks."""
    config = _config("constant_sin", "sp_only", 8)
    runner.run_experiment(config, output_dir=str(tmp_path))
    peak = _traced_peak(lambda: runner.run_experiment(config, output_dir=str(tmp_path)))
    assert peak < _process_bytes(8) + 3.5 * BLOCK_BYTES


def test_reduced_construction_drops_its_last_centred_level():
    """At depth 10 the peak is S and X plus under a block: the top level's
    centred copy (16 blocks) is gone before X is built."""
    config = _config("ou_linear", "sp_only", 10)
    lat = build_lattice(config.band(), config.grid())

    def solve():
        S = integrate_sde(config.coefficients(), lat, config.problem.x0)
        solve_mean_reflection_reduced(config.loss_spec(), S, lat, config.solver.tol)

    assert _traced_peak(solve) < 2 * _process_bytes(10) + BLOCK_BYTES
