"""Tracer self-test at tiny size (a few ops per workload, about a minute).

    python3 perfbench/selftest.py

For every workload, with two seeds, checks that
- each boundary the map in tracer.EXERCISED names records calls where it
  says ("op": in the timed ops; "setup": in the set-up process only) and
  none on a workload the map says bypasses it;
- every op's traced output is byte-identical to its untraced output;
- the two seeds draw different inputs but do the same work per op: equal op
  sizes, and equal per-op counts at the boundaries whose count does not
  depend on parameter values.
Exit code 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import os
import sys
import tempfile

import run
import tracer
import workloads

SEEDS = (1, 2)
# Per-op counts that depend on the op size only, never on parameter values.
FIXED_WORK = {
    "verify": ("symexpr.mul", "identity.neg_nH_S3", "cli.main"),
    "scan": ("exprlang.jet_values", "geometry.constancy_scan", "geometry.to_csv"),
    "crosscheck": ("exprlang.value", "geometry.mean_curvature_fd",
                   "geometry.mean_curvature_at"),
    "closed_loop": ("profiles.cmc_rhs", "profiles.hermite_jet", "symexpr.eval_numeric"),
}


def traced_counts(workload: str, seed: int, tmp: str, problems: list[str]) -> dict:
    bench = run.Run()
    run.child(workload, tmp, False)
    setup = run.setup_process(bench, workload, tmp, traced=True)
    run.warm_up(bench, workload, seed, tmp)
    loop = run.OpLoop(bench, workload, seed, tmp, paired=True)
    loop.run_for(0.0, workloads.DIGEST_OPS)
    problems += [f"{workload}/{seed}: {f}" for f in bench.failures]
    if setup is None:
        return {}
    ops = len(loop.times[True])
    stats, setup_stats = loop.trace()["stats"], setup["trace"]["stats"]
    for name in tracer.BOUNDARIES:
        where = tracer.EXERCISED[name].get(workload)
        op_calls, setup_calls = stats[name][0], setup_stats[name][0]
        if where == "op" and not op_calls:
            problems.append(f"{workload}: {name} made no calls in the ops")
        if where == "setup" and (op_calls or not setup_calls):
            problems.append(f"{workload}: {name} made {setup_calls} set-up and "
                            f"{op_calls} op calls, expected set-up only")
        if where is None and (op_calls or setup_calls):
            problems.append(f"{workload}: {name} is bypassed but made {setup_calls} "
                            f"set-up and {op_calls} op calls")
    return {name: stats[name][0] / ops for name in tracer.BOUNDARIES}


def main() -> int:
    sys.path.insert(0, run.SRC)
    problems: list[str] = []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp:
        for workload in run.WORKLOADS:
            sizes = [[workloads.inputs(workload, seed, i)["size"]
                      for i in range(workloads.DIGEST_OPS)] for seed in SEEDS]
            if sizes[0] != sizes[1]:
                problems.append(f"{workload}: op sizes differ between seeds")
            digests = {workloads.inputs_digest(workload, seed) for seed in SEEDS}
            if workload != "verify" and len(digests) != len(SEEDS):
                problems.append(f"{workload}: seeds {SEEDS} draw the same inputs")
            counts = [traced_counts(workload, seed, tmp, problems) for seed in SEEDS]
            for name in FIXED_WORK[workload]:
                pair = [c.get(name) for c in counts]
                print(f"{workload}: {name} calls/op, seeds {SEEDS}: {pair[0]} {pair[1]}")
                if pair[0] != pair[1]:
                    problems.append(f"{workload}: {name} calls/op differ between seeds")
    for problem in problems:
        print(f"FAILED {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
