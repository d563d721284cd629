"""Record the input and output digests that run.py checks outputs against.

    python3 perfbench/record_digests.py

Runs ops 0..DIGEST_OPS-1 of every workload for each seed in
0..RECORDED_SEEDS-1, through the same loop as run.py, and rewrites
perfbench/digests.json.  Run it only at a commit whose outputs are the
reference: a later change that alters any CSV or JSON output byte then fails
the benchmark's digest check.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    record = {"ops": workloads.DIGEST_OPS, "inputs": {}, "outputs": {}}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        for workload in run.WORKLOADS:
            bench = run.Run()
            run.warm_up(bench, workload, 0, tmp)
            for seed in range(workloads.RECORDED_SEEDS):
                loop = run.OpLoop(bench, workload, seed, tmp)
                loop.run_for(0.0, workloads.DIGEST_OPS)
                record["inputs"].setdefault(workload, {})[str(seed)] = \
                    workloads.inputs_digest(workload, seed)
                record["outputs"].setdefault(workload, {})[str(seed)] = loop.digest()
            if bench.failures:
                print("\n".join(bench.failures), file=sys.stderr)
                return 1
            print(f"{workload}: seeds 0..{workloads.RECORDED_SEEDS - 1} recorded")
    with open(os.path.join(HERE, "digests.json"), "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
