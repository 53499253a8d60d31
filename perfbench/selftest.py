"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. Generator sweep: for each seed in SEEDS, one round of mrsde, single_pass
   and pde_crossval is drawn as the benchmark draws it, run once as timed
   and once as the warm-up runs it, and checked with the benchmark's own
   inspections and oracles. For mrsde this checks that Picard needs
   n_steps + 1 iterations with no restart and that the constraint binds, at
   every draw.
2. Repeatability: two traced runs of each workload at REPEAT_SEED, each
   with a TRACED_SECONDS budget, must both be correct (which includes
   traced and untraced rounds giving identical output digests) and must
   report identical work counts.
3. Expected counts: on mrsde, sde.picard_iterations equals the sum of
   n_steps + 1 over the round and reflection.evals_per_root lies in [30, 40];
   on pde_crossval, gexpectation.sweeps is 0.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from run import COUNTS, OUT, ROOT, WARMUP_DEPTH, Tally, import_program

# seeds of the generator sweep
SEEDS = range(20)
# seed and budget (seconds) of the repeated traced runs
REPEAT_SEED = 1
TRACED_SECONDS = 4.0


def sweep_draws(seeds: range) -> list[str]:
    import workloads

    problems = []
    work_dir = OUT / "selftest-sweep"
    try:
        for seed in seeds:
            for workload in workloads.WORKLOADS:
                for depth in (WARMUP_DEPTH, None):
                    tally = Tally()
                    for op in workloads.build(workload, seed, work_dir, depth=depth):
                        error = raw = None
                        try:
                            raw = op.run()
                        except Exception as exc:  # reported as a failed draw
                            error = exc
                        tally.record(op, raw, error)
                    tally.run_oracles()
                    problems.extend(f"{workload} seed {seed} depth {depth or 'as timed'}: {m}"
                                    for m in tally.messages)
            shutil.rmtree(work_dir, ignore_errors=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return problems


def traced_run(workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    return json.loads(done.stdout.splitlines()[-1]) if done.stdout else {"correct": False}


def check_repeatability(seed: int, seconds: float) -> list[str]:
    import workloads

    problems = []
    for workload in workloads.WORKLOADS:
        first, second = (traced_run(workload, seed, seconds) for _ in range(2))
        incorrect = [f"{workload}: {label} traced run not correct"
                     for label, result in (("first", first), ("second", second))
                     if not result.get("correct")]
        problems.extend(incorrect)
        if incorrect:
            continue
        counts = [{k: v["value"] for k, v in r["metrics"].items() if k in COUNTS}
                  for r in (first, second)]
        for name in sorted(counts[0]):
            if counts[0][name] != counts[1][name]:
                problems.append(f"{workload}: {name} {counts[0][name]} != {counts[1][name]}")
        metrics = counts[0]
        if workload == "mrsde":
            ops = workloads.build(workload, seed, OUT / "selftest-ops")
            shutil.rmtree(OUT / "selftest-ops", ignore_errors=True)
            expected = sum(op.facts["n_steps"] + 1 for op in ops)
            if metrics["sde.picard_iterations"] != expected:
                problems.append(f"mrsde: {metrics['sde.picard_iterations']} Picard "
                                f"iterations, expected {expected}")
            if not 30 <= metrics["reflection.evals_per_root"] <= 40:
                problems.append(f"mrsde: {metrics['reflection.evals_per_root']} evaluations "
                                "per root")
        if workload == "pde_crossval" and metrics["gexpectation.sweeps"] != 0:
            problems.append(f"pde_crossval: {metrics['gexpectation.sweeps']} sweeps")
    return problems


def main() -> int:
    import_program()
    problems = sweep_draws(SEEDS)
    print(f"generator sweep over {len(SEEDS)} seeds: {len(problems)} problems", flush=True)
    repeat = check_repeatability(REPEAT_SEED, TRACED_SECONDS)
    print(f"repeated traced runs at seed {REPEAT_SEED}: {len(repeat)} problems")
    for problem in problems + repeat:
        print(f"FAIL {problem}")
    return 0 if not problems and not repeat else 1


if __name__ == "__main__":
    sys.exit(main())
