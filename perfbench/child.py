"""Set-up time, measured in a fresh interpreter.

    python3 perfbench/child.py <workload> <tmp> <trace 0|1>

Prints one JSON line.  Interpreter start-up is not timed.  The clock runs
from just before `import folicurve.cli` to the end of the op, except while
the benchmark's own modules load: they import standard modules that the
package uses too, and loading those belongs to the package's import time.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]


def main(argv: list[str]) -> int:
    workload, tmp, traced = argv[0], argv[1], argv[2] == "1"
    start = time.perf_counter()
    import folicurve.cli  # noqa: F401  (the package alone does not load the CLI)
    import_s = time.perf_counter() - start

    import json
    import resource

    import tracer
    import workloads

    result: dict = {}
    spans = tracer.Tracer()
    if traced:
        spans.install()
    start = time.perf_counter()
    result["failures"] = workloads.run_smallest(workload, tmp)
    result["setup_s"] = import_s + time.perf_counter() - start
    spans.remove()
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if traced:
        result["trace"] = spans.snapshot()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
