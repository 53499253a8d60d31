"""Benchmark for meanreflect: end-to-end and per-layer metrics on seeded workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload mrsde --seed 1 --seconds 36 --trace 0

The load is a closed loop: one client, one thread, one operation at a time.
A round is one pass through the workload's fixed list of operations; rounds
repeat until ``--seconds`` is used up. Every execution is checked outside the
timed region. Round and import times are scaled to a reference host speed
by a probe kernel timed between operations (see ``hostspeed.py``); the
uncorrected times are printed as well. With ``--trace 0`` the run reports
the end-to-end metrics; with ``--trace 1`` it times half the budget
untraced and half traced and reports the per-layer metrics. The metric names and units come from
BENCHMARK.json; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only when every check passed.

The program is imported from ``src/`` of the checkout this file sits in, and
all files are written under ``.perfbench_out/`` there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 9
# op seconds between host-speed probes (one probe is about 30 ms)
PROBE_EVERY = 0.25
# lattice depth of the untimed warm-up round, which pays first-call costs
WARMUP_DEPTH = 4
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import meanreflect.cli; "
    "print(time.perf_counter() - t); print(meanreflect.cli.__file__)"
)

# which end-to-end metric each layer should move, and on which workload
LAYER_MAP = {
    "config/cli": {"metrics": ["config.load_s"],
                   "moves": "round_s on single_pass (many short ops)"},
    "lattice": {"metrics": ["lattice.build_calls", "lattice.build_s", "lattice.functional_checks",
                            "lattice.functional_check_s", "lattice.leaf_bytes"],
                "moves": "round_s on single_pass for build; round_s on mrsde for re-validation"},
    "gexpectation": {"metrics": ["gexpectation.sweeps", "gexpectation.sweep_s", "gexpectation.nodes",
                                 "gexpectation.ns_per_node", "gexpectation.bytes_moved"],
                     "moves": "round_s on mrsde and single_pass; none on pde_crossval"},
    "loss": {"metrics": ["loss.evals", "loss.points", "loss.eval_s", "loss.validate_s"],
             "moves": "round_s mostly on single_pass (nonlinear losses), less on mrsde"},
    "reflection": {"metrics": ["reflection.root_finds", "reflection.root_find_s",
                               "reflection.evals_per_root", "reflection.zero_shift_share",
                               "reflection.solve_s", "reflection.verify_s"],
                   "moves": "round_s on mrsde (affine loss) and single_pass (nonlinear loss)"},
    "sde": {"metrics": ["sde.picard_iterations", "sde.picard_step_s", "sde.integrate_calls",
                        "sde.integrate_s", "sde.solve_s", "sde.coeff_check_s"],
            "moves": "round_s on mrsde only"},
    "runner": {"metrics": ["runner.self_s", "runner.report_sweeps", "runner.report_s",
                           "runner.bytes_written"],
               "moves": "round_s on single_pass"},
    "pde": {"metrics": ["pde.solves", "pde.march_s", "pde.cell_updates", "pde.ns_per_cell_update"],
            "moves": "round_s on pde_crossval only"},
    "trace": {"metrics": ["trace.overhead"], "moves": "none"},
}

# span name -> (metric, what to add): "count" 1, "self" self time, "dur"
# inclusive time, "work" the span's work figure, "max_work" its maximum,
# "sweep_bytes" the computed minimal traffic of a backward sweep
SPAN_METRICS = {
    "config.load_config": [("config.load_s", "self")],
    "lattice.build_lattice": [("lattice.build_calls", "count"), ("lattice.build_s", "self"),
                              ("lattice.leaf_bytes", "max_work")],
    "lattice.PathFunctional": [("lattice.functional_checks", "count"),
                               ("lattice.functional_check_s", "self")],
    "gexpectation.upper_expectation": [("gexpectation.sweeps", "count"),
                                       ("gexpectation.sweep_s", "self"),
                                       ("gexpectation.nodes", "work"),
                                       ("gexpectation.bytes_moved", "sweep_bytes")],
    "loss.LossSpec.__call__": [("loss.evals", "count"), ("loss.points", "work"),
                               ("loss.eval_s", "self")],
    "loss.validate_loss": [("loss.validate_s", "self")],
    "reflection.required_shift": [("reflection.root_finds", "count"),
                                  ("reflection.root_find_s", "dur")],
    "reflection.solve_mean_reflection_direct": [("reflection.solve_s", "dur")],
    "reflection.verify_mean_reflection": [("reflection.verify_s", "dur")],
    "sde.picard_solve": [("sde.solve_s", "dur")],
    "sde.picard_step": [("sde.picard_iterations", "count"), ("sde.picard_step_s", "dur")],
    "sde.integrate_forward": [("sde.integrate_calls", "count"), ("sde.integrate_s", "self")],
    "sde.integrate_sde": [("sde.integrate_calls", "count"), ("sde.integrate_s", "self")],
    "sde.validate_coefficients": [("sde.coeff_check_s", "self")],
    "runner.run_experiment": [("runner.self_s", "self")],
    "pde.solve_nonlinear_heat": [("pde.solves", "count"), ("pde.march_s", "dur"),
                                 ("pde.cell_updates", "work")],
    "pde.nested_expectation_pde": [("pde.solves", "count"), ("pde.march_s", "dur"),
                                   ("pde.cell_updates", "work")],
}

# per-layer metrics that count work: they must repeat exactly round to round
COUNTS = {
    "lattice.build_calls", "lattice.functional_checks", "lattice.leaf_bytes",
    "gexpectation.sweeps", "gexpectation.nodes", "gexpectation.bytes_moved",
    "loss.evals", "loss.points", "reflection.root_finds", "reflection.evals_per_root",
    "reflection.zero_shift_share", "sde.picard_iterations", "sde.integrate_calls",
    "runner.report_sweeps", "runner.bytes_written", "pde.solves", "pde.cell_updates",
}


def import_program():
    """Import meanreflect from this checkout's src/, or exit 2 without a result."""
    if not (SRC / "meanreflect" / "__init__.py").is_file():
        print(f"error: meanreflect sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import meanreflect

    if not Path(meanreflect.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported meanreflect from {meanreflect.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return meanreflect


def load_metric_spec() -> dict:
    """BENCHMARK.json, whose per-layer metrics must be those of LAYER_MAP."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        print(f"error: {path} not found", file=sys.stderr)
        sys.exit(2)
    spec = json.loads(path.read_text())
    listed = {m["name"] for m in spec["per_layer"]}
    mapped = {m for layer in LAYER_MAP.values() for m in layer["metrics"]}
    if listed != mapped:
        print(f"error: per-layer metrics of BENCHMARK.json and LAYER_MAP differ: "
              f"{sorted(listed ^ mapped)}", file=sys.stderr)
        sys.exit(2)
    return spec


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return "unknown"


def machine_facts(seed: int) -> dict:
    import numpy

    model = "unknown"
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        kind = _read(index / "type")
        if kind in ("Unified", "Data"):
            caches[f"L{_read(index / 'level')}"] = _read(index / "size")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
    }


def measure_setup(probe) -> tuple[list[float], list[float]]:
    """Seconds to import meanreflect.cli in fresh interpreters, as measured
    and corrected for host speed by probes before and after each; the first
    import, which may compile bytecode, is not kept."""
    pythonpath = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=pythonpath)
    times, spans = [], []
    for i in range(SETUP_REPEATS + 1):
        probe.sample()
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        end = perf_counter()
        probe.sample()
        seconds, module_file = done.stdout.split()
        if not Path(module_file).resolve().is_relative_to(SRC):
            raise RuntimeError(f"fresh interpreter imported {module_file}, not {SRC}")
        if i:
            times.append(float(seconds))
            # the import's own time, placed at the end of the child's run
            spans.append((end - float(seconds), end))
    return times, [probe.correct(start, end) for start, end in spans]


class Tally:
    """Per-execution checks: every execution must pass its inspection and
    give the same outputs as the first execution of its operation."""

    def __init__(self):
        self.attempted = Counter()
        self.failed = Counter()
        self.first_digest: dict[str, str] = {}
        self.last: dict[str, tuple] = {}
        self.messages: list[str] = []
        self.bytes_written = 0

    def record(self, op, raw, error: Exception | None) -> None:
        self.attempted[op.name] += 1
        if error is None:
            try:
                outcome = op.inspect(raw)
            except Exception as exc:  # malformed outputs fail the check
                error = exc
        if error is not None:
            failures = [f"raised {type(error).__name__}: {error}"]
        else:
            failures = list(outcome.failures)
            self.bytes_written += outcome.bytes_written
            first = self.first_digest.setdefault(op.name, outcome.digest)
            if outcome.digest != first:
                failures.append("outputs differ from the first execution")
            self.last[op.name] = (op, raw)
        if failures:
            self.failed[op.name] += 1
            self.messages.extend(f"{op.name}: {f}" for f in failures)

    def run_oracles(self) -> None:
        """Independent checks, once per operation; a failure fails every
        execution of that operation."""
        for name, (op, raw) in self.last.items():
            try:
                failures = op.oracle(raw)
            except Exception as exc:  # a crashing oracle is a failed check, not a crash
                failures = [f"oracle raised {type(exc).__name__}: {exc}"]
            if failures:
                self.failed[name] = self.attempted[name]
                self.messages.extend(f"{name}: {f}" for f in failures)
        for name in self.attempted:
            if name not in self.last:
                self.failed[name] = self.attempted[name]


def timed_rounds(ops, budget: float, tally: Tally, probe, recorder=None,
                 op_log=None) -> list[dict]:
    """Run rounds until the next one would end past ``budget`` seconds (at
    least one). Only the operation calls are timed. The host-speed probe
    runs before each round and after every ``PROBE_EVERY`` seconds of
    operations; a round's corrected time is the sum of its operations'
    corrected times."""
    rounds = []
    started = perf_counter()
    while True:
        round_started = perf_counter()
        probe.sample()
        busy = since_probe = 0.0
        spans = []
        bytes_before = tally.bytes_written
        for op in ops:
            if recorder is not None:
                recorder.op = len(op_log)
                op_log.append({"op_id": len(op_log), "round": len(rounds), "name": op.name,
                               "mode": op.facts.get("mode")})
            error = raw = None
            t = perf_counter()
            try:
                raw = op.run()
            except Exception as exc:  # counted as a failed operation
                error = exc
            end = perf_counter()
            spans.append((t, end))
            elapsed = end - t
            busy += elapsed
            since_probe += elapsed
            if recorder is not None:
                recorder.op = -1
            tally.record(op, raw, error)
            if since_probe >= PROBE_EVERY and op is not ops[-1]:
                probe.sample()
                since_probe = 0.0
        rounds.append({"seconds": busy, "spans": spans,
                       "bytes_written": tally.bytes_written - bytes_before})
        now = perf_counter()
        if now - started + (now - round_started) > budget:
            probe.sample()
            for r in rounds:
                r["corrected_s"] = sum(probe.correct(*span) for span in r.pop("spans"))
            return rounds


def layer_metrics(names: list[str], spans: list[list], op_log: list[dict],
                  rounds: list[dict]) -> tuple[dict, list[str]]:
    """The per-layer metrics ``names`` of each traced round; counts must
    agree across rounds, times are medians over rounds."""
    from spans import self_times

    selfs = self_times(spans)
    per_round = [defaultdict(float) for _ in rounds]
    evals_in_root = Counter()
    for i, (name, start, end, parent, op, work) in enumerate(spans):
        if op < 0:
            continue
        m = per_round[op_log[op]["round"]]
        for metric, kind in SPAN_METRICS.get(name, ()):
            if kind == "count":
                m[metric] += 1
            elif kind == "self":
                m[metric] += selfs[i]
            elif kind == "dur":
                m[metric] += end - start
            elif kind == "work":
                m[metric] += work
            elif kind == "max_work":
                m[metric] = max(m[metric], work)
            elif kind == "sweep_bytes":
                # each level reads 4m doubles and writes m: 40 (4^d - 1) / 3 bytes
                m[metric] += 40 * (work - 1) // 3
        parent_name = spans[parent][0] if parent >= 0 else None
        if parent_name == "reflection.required_shift" and name == "reflection.expected_loss":
            evals_in_root[parent] += 1
        # the CSV pass; in gexp_probe mode run_experiment's one sweep is the
        # probe itself, which counts under gexpectation only
        if parent_name == "runner.run_experiment" and op_log[op]["mode"] != "gexp_probe":
            if name == "gexpectation.upper_expectation":
                m["runner.report_sweeps"] += 1
            if name in ("gexpectation.upper_expectation", "reflection.expected_loss"):
                m["runner.report_s"] += end - start
    for i, span in enumerate(spans):
        if span[0] == "reflection.required_shift" and span[4] >= 0:
            m = per_round[op_log[span[4]]["round"]]
            m["reflection.evals_per_root"] += evals_in_root[i]
            # one evaluation means it returned 0 before bisecting
            m["reflection.zero_shift_share"] += evals_in_root[i] == 1
    for m, r in zip(per_round, rounds):
        roots = m["reflection.root_finds"]
        m["reflection.evals_per_root"] = m["reflection.evals_per_root"] / roots if roots else 0.0
        m["reflection.zero_shift_share"] = m["reflection.zero_shift_share"] / roots if roots else 0.0
        m["runner.bytes_written"] = r["bytes_written"]
        nodes, cells = m["gexpectation.nodes"], m["pde.cell_updates"]
        m["gexpectation.ns_per_node"] = m["gexpectation.sweep_s"] * 1e9 / nodes if nodes else 0.0
        m["pde.ns_per_cell_update"] = m["pde.march_s"] * 1e9 / cells if cells else 0.0
    problems = []
    out = {}
    for metric in names:
        if metric == "trace.overhead":
            continue
        values = [m[metric] for m in per_round]
        if metric in COUNTS:
            if len(set(values)) > 1:
                problems.append(f"trace: {metric} differs between rounds: {values}")
            value = values[0]
            out[metric] = int(value) if float(value).is_integer() else value
        else:
            out[metric] = statistics.median(values)
    return out, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = load_metric_spec()
    import_program()
    import workloads
    from spans import SpanRecorder

    # one core for the run and its import probes, so that the host-speed
    # probe measures the core the program runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    work_dir = OUT / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    facts = machine_facts(args.seed)
    try:
        ops = workloads.build(args.workload, args.seed, work_dir)
        warm = workloads.build(args.workload, args.seed, work_dir / "warmup", depth=WARMUP_DEPTH)
        setup_probe = hostspeed.Probe()
        setup, setup_corrected = ([], []) if args.trace else measure_setup(setup_probe)
        for op in {op.name: op for op in warm}.values():
            if op.inspect(op.run()).failures:
                raise RuntimeError(f"warm-up operation {op.name} failed")

        tally = Tally()
        metrics = {}
        if args.trace:
            probes = {"untraced": hostspeed.Probe(), "traced": hostspeed.Probe()}
            plain = timed_rounds(ops, args.seconds / 2, tally, probes["untraced"])
            recorder, op_log = SpanRecorder(), []
            recorder.install()
            try:
                traced = timed_rounds(ops, args.seconds / 2, tally, probes["traced"], recorder,
                                      op_log)
            finally:
                recorder.uninstall()
            metrics, problems = layer_metrics([m["name"] for m in spec["per_layer"]],
                                              recorder.spans, op_log, traced)
            tally.messages.extend(problems)
            plain_s = statistics.median(r["corrected_s"] for r in plain)
            traced_s = statistics.median(r["corrected_s"] for r in traced)
            metrics["trace.overhead"] = traced_s / plain_s - 1.0
            rounds = {"untraced": plain, "traced": traced}
        else:
            probes = {"timed": hostspeed.Probe()}
            rounds = {"timed": timed_rounds(ops, args.seconds, tally, probes["timed"])}
            metrics["round_s"] = statistics.median(r["corrected_s"] for r in rounds["timed"])
            metrics["setup_s"] = statistics.median(setup_corrected)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        tally.run_oracles()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(tally.attempted.values())
    failed = sum(tally.failed.values())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        tally.messages.append(f"metrics not computed: {missing}")
    correct = failed == 0 and not tally.messages

    facts["workload"] = args.workload
    facts["why"] = why.get(args.workload)
    facts["ops"] = _distinct_facts(ops)
    facts["layer_map"] = LAYER_MAP
    print("facts: " + json.dumps(facts))
    for label, timed in rounds.items():
        times = ", ".join("%.3f" % r["seconds"] for r in timed)
        print(f"{label} rounds: {len(timed)}; wall {times} s; "
              f"median wall {statistics.median(r['seconds'] for r in timed):.4f} s; "
              f"host-speed probe level {probes[label].level():.5f} s over "
              f"{len(probes[label].samples)} samples (reference {hostspeed.REFERENCE_S} s)")
    if setup:
        print(f"setup imports: wall {', '.join('%.4f' % s for s in setup)} s; "
              f"median wall {statistics.median(setup):.4f} s; host-speed probe level "
              f"{setup_probe.level():.5f} s")
    if args.trace:
        path = OUT / "spans" / f"{args.workload}-s{args.seed}.jsonl"
        recorder.write(path, op_log)
        print(f"spans: {len(recorder.spans)} written to {path}")
    for m in wanted:
        if m["name"] in metrics:
            print(f"{m['name']}: {metrics[m['name']]:.6g} {m['unit']}")
    print(f"error_rate: {failed / attempted if attempted else 1.0:.6g} ratio "
          f"({failed} of {attempted} operations failed)")
    for message in tally.messages[:20]:
        print(f"FAIL {message}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def _distinct_facts(ops) -> list[dict]:
    seen, out = set(), []
    for op in ops:
        if op.name not in seen:
            seen.add(op.name)
            out.append(op.facts)
    return out


if __name__ == "__main__":
    sys.exit(main())
