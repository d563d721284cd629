"""folicurve benchmark: one seeded workload per run, closed loop, one client.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/`.  `--trace 0` measures the end-to-end metrics; `--trace 1` runs each
op twice, untraced and traced, and reports the per-layer metrics.
Earlier stdout lines give the environment, the digests and each metric under
its workload-specific name; the last line is the JSON result.  Exit code 0
when every check passed, 1 when any failed, 2 when the checkout has no
package.  See README.md for the workloads, the layer map and the baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("verify", "scan", "crosscheck", "closed_loop")
OP_METRIC = {"verify": "verify_s", "scan": "scan_s", "crosscheck": "crosscheck_s",
             "closed_loop": "closed_loop_s"}
SETUP_PROCESSES = 15
TRACED_SETUP_PROCESSES = 3
CHILD_TIMEOUT_S = 60
MIN_TIMED_OPS = 100  # so that at least ten samples lie beyond p90
WARM_UP_OPS = len(workloads.SCAN_KINDS)  # covers both signatures on every workload
REFERENCE_NEIGHBOURS = 2  # an op's reference time: the median over ops i-2..i+2


class Run:
    """Counts and failures of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, what: str, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failures.append(f"{what}: {'; '.join(failures)}")


def child(workload: str, tmp: str, traced: bool) -> dict:
    """Set-up time and counters from one fresh interpreter (child.py)."""
    proc = subprocess.run([sys.executable, CHILD, workload, tmp, "1" if traced else "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"child exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_process(run: Run, workload: str, tmp: str, traced: bool) -> dict | None:
    """One fresh process that imports the package and runs the smallest op."""
    try:
        result = child(workload, tmp, traced)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
        run.record(f"{workload} setup", [str(err)])
        return None
    run.record(f"{workload} setup", result["failures"])
    return result


def forked(fn) -> dict:
    """fn() in a forked child, which starts from this process's state; what
    the op changes there (lazy builds, caches, installed tracer) ends with
    the child.  Returns fn's JSON-able result; raises if the child failed."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 1
        try:
            with os.fdopen(write_fd, "w") as out:
                json.dump(fn(), out)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as handle:
        data = handle.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"forked op ended with wait status {status}")
    return json.loads(data)


def cold_verify(tmp: str, traced: bool) -> dict:
    """One verify op in a forked child of a process that has imported the
    package and run nothing of it."""
    spans = tracer.Tracer()
    if traced:
        spans.install()
    reference_s = workloads.reference()
    elapsed, output, failures = workloads.run_op("verify", workloads.inputs("verify", 0, 0), tmp)
    spans.remove()
    return {"op_s": elapsed, "reference_s": reference_s, "output": output.decode(),
            "failures": failures, "trace": spans.snapshot() if traced else None,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def warm_up(run: Run, workload: str, seed: int, tmp: str) -> None:
    """Untimed ops 0..WARM_UP_OPS-1, so that the timed ops find the lazy
    builds of both signatures done.  verify is cold by design."""
    if workload == "verify":
        return
    for index in range(WARM_UP_OPS):
        op = workloads.inputs(workload, seed, index)
        run.record(f"{workload} warm-up op {index}", workloads.run_op(workload, op, tmp)[2])


class OpLoop:
    """Closed loop with one client: op i+1 starts when op i has finished and
    been checked.  The reference task is timed before every op (for verify,
    in the op's own forked process).  With `paired`, each op runs twice, untraced
    and traced, in alternating order, and the two outputs must be equal."""

    def __init__(self, run: Run, workload: str, seed: int, tmp: str, paired: bool = False):
        self.run, self.workload, self.seed, self.tmp = run, workload, seed, tmp
        self.paired = paired
        self.spans = tracer.Tracer()
        self.index = 0
        self.times: dict[bool, dict[int, float]] = {False: {}, True: {}}  # traced -> op -> s
        self.refs: dict[int, float] = {}  # op -> reference seconds
        self.chunks: list[bytes] = []
        self.snapshots: list[dict] = []
        self.child_maxrss_kb = 0
        if workload == "verify":
            import folicurve.cli  # noqa: F401  (loads the package, builds nothing; ops fork from here)

    def run_for(self, seconds: float, min_ops: int = 0) -> None:
        """Run ops for `seconds`, and on until `min_ops` ops have run."""
        deadline = time.perf_counter() + seconds
        while self.index < min_ops or time.perf_counter() < deadline:
            self.step()

    def step(self) -> None:
        index = self.index
        op = workloads.inputs(self.workload, self.seed, index)
        if self.workload != "verify":
            self.refs[index] = workloads.reference()
        order = (index % 2 == 1, index % 2 == 0) if self.paired else (False,)
        outputs = {}
        for traced in order:
            try:
                elapsed, outputs[traced], failures = self._one(op, traced)
                self.times[traced][index] = elapsed
            except Exception:  # a crashed op is counted as failed, and the loop goes on
                outputs[traced] = b""
                failures = [traceback.format_exc(limit=2).strip().splitlines()[-1]]
            self.run.record(f"{self.workload} op {index}{' traced' if traced else ''}", failures)
        if self.paired:
            self.run.record(f"{self.workload} op {index} traced output", [] if (
                outputs[True] == outputs[False]) else ["differs from the untraced output"])
        if index < workloads.DIGEST_OPS:
            self.chunks.append(outputs[False])
        self.index += 1

    def _one(self, op: dict, traced: bool) -> tuple[float, bytes, list[str]]:
        if self.workload == "verify":
            result = forked(lambda: cold_verify(self.tmp, traced))
            self.child_maxrss_kb = max(self.child_maxrss_kb, result["maxrss_kb"])
            if traced:
                self.snapshots.append(result["trace"])
            else:
                self.refs[self.index] = result["reference_s"]
            return result["op_s"], result["output"].encode(), result["failures"]
        if traced:
            self.spans.install()  # outside the timed span, which run_op takes
        try:
            return workloads.run_op(self.workload, op, self.tmp)
        finally:
            self.spans.remove()

    def in_reference_units(self) -> list[float]:
        """Each untraced op's time over the median reference time of the ops
        around it, which ran in the same phase of machine speed."""
        refs, k = self.refs, REFERENCE_NEIGHBOURS
        return [elapsed / statistics.median(refs[j] for j in range(i - k, i + k + 1) if j in refs)
                for i, elapsed in self.times[False].items()]

    def maxrss_kb(self) -> int:
        if self.workload == "verify":
            return self.child_maxrss_kb
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def digest(self) -> str:
        return workloads.digest(self.chunks)

    def trace(self) -> dict:
        return tracer.merge(self.snapshots + [self.spans.snapshot()])


def quantiles(times: list[float]) -> tuple[float, float, int]:
    """(p50, p90, samples beyond p90)."""
    p50 = statistics.median(times)
    p90 = statistics.quantiles(times, n=10)[8] if len(times) > 1 else times[0]
    return p50, p90, sum(1 for t in times if t > p90)


def fingerprint() -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    package = os.path.join(SRC, "folicurve")
    chunks = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                chunks.append(name.encode() + b"\0" + handle.read())
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu_model": cpu,
            "git_commit": commit, "src_sha256": workloads.digest(chunks),
            "loadavg_before": os.getloadavg()}


def check_digest(run: Run, what: str, workload: str, seed: int, actual: str) -> None:
    """Compare the digest of ops 0..DIGEST_OPS-1 with the one recorded for the
    seed they draw with (see workloads.inputs)."""
    with open(os.path.join(HERE, "digests.json")) as handle:
        recorded = json.load(handle)[what].get(workload, {})
    expected = recorded.get(str(seed % workloads.RECORDED_SEEDS))
    status = "matches the record" if actual == expected else "DIFFERS from the record"
    print(f"{what} sha256 (ops 0..{workloads.DIGEST_OPS - 1}): {actual} [{status}]")
    run.record(f"{workload} {what} digest", [] if actual == expected else [
        f"{what} digest {actual} != recorded {expected}"])


def end_to_end(run: Run, workload: str, seed: int, seconds: float, tmp: str) -> dict:
    child(workload, tmp, False)  # untimed: compiles bytecode, warms the file cache
    warm_up(run, workload, seed, tmp)
    # The set-up processes are spread over the run, so that their median,
    # like the ops, samples every phase of machine speed in it.
    loop = OpLoop(run, workload, seed, tmp)
    setups = []
    for _ in range(SETUP_PROCESSES):
        setups.append(setup_process(run, workload, tmp, traced=False))
        loop.run_for(seconds / SETUP_PROCESSES)
    loop.run_for(0.0, MIN_TIMED_OPS)
    check_digest(run, "outputs", workload, seed, loop.digest())

    name = OP_METRIC[workload]
    times = list(loop.times[False].values())
    p50, p90, beyond = quantiles(times)
    r50, r90, _ = quantiles(loop.in_reference_units())
    setup_times = [s["setup_s"] for s in setups if s]
    setup_s = statistics.median(setup_times)
    rss_mb = loop.maxrss_kb() / 1024.0
    print(f"{workload}: setup_s = {setup_s:.6f} s (median of {len(setup_times)} processes)")
    print(f"{workload}: peak_rss_mb = {rss_mb:.3f} MB")
    print(f"{workload}: error_rate = {len(run.failures) / run.attempted:.6f} "
          f"({len(run.failures)} of {run.attempted} ops failed)")
    print(f"{workload}: {name}.p50 = {p50:.6f} s")
    print(f"{workload}: {name}.p90 = {p90:.6f} s ({len(times)} ops, {beyond} beyond p90)")
    print(f"{workload}: reference_s.p50 = {statistics.median(loop.refs.values()):.6f} s")
    print(f"{workload}: op_ref.p50 = {r50:.4f} ref")
    print(f"{workload}: op_ref.p90 = {r90:.4f} ref")
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        "op_ref.p50": {"value": r50, "unit": "ref"},
        "op_ref.p90": {"value": r90, "unit": "ref"},
    }


def per_layer(run: Run, workload: str, seed: int, seconds: float, tmp: str) -> dict:
    child(workload, tmp, False)  # untimed: compiles bytecode, warms the file cache
    setups = [setup_process(run, workload, tmp, traced=True)
              for _ in range(TRACED_SETUP_PROCESSES)]
    warm_up(run, workload, seed, tmp)
    loop = OpLoop(run, workload, seed, tmp, paired=True)
    loop.run_for(seconds, workloads.DIGEST_OPS)
    check_digest(run, "outputs", workload, seed, loop.digest())

    ops = len(loop.times[True])
    snap = loop.trace()
    metrics = {}
    for name, (_, _, _, can_raise) in tracer.BOUNDARIES.items():
        calls, errors, self_s = snap["stats"][name]
        metrics[f"{name}.calls"] = {"value": calls / ops, "unit": "1/op"}
        metrics[f"{name}.self_s"] = {"value": self_s / ops, "unit": "s/op"}
        if can_raise:
            metrics[f"{name}.errors"] = {"value": errors / ops, "unit": "1/op"}
    setup_snaps = [s["trace"] for s in setups if s]
    for name in tracer.SETUP_BOUNDARIES:
        rows = [s["stats"][name] for s in setup_snaps]
        metrics[f"setup.{name}.calls"] = {
            "value": statistics.median(r[0] for r in rows), "unit": "count"}
        metrics[f"setup.{name}.self_s"] = {
            "value": statistics.median(r[2] for r in rows), "unit": "s"}
    terms = max([snap["neg_nH_S3_terms"]] + [s["neg_nH_S3_terms"] for s in setup_snaps])
    metrics["identity.neg_nH_S3.terms"] = {"value": terms, "unit": "count"}
    points = snap["lorentzian_points"]
    metrics["geometry.admissible_ratio"] = {
        "value": snap["admissible_points"] / points if points else 0.0, "unit": "ratio"}
    steps = snap["integrated_steps"]
    metrics["profiles.cmc_rhs.per_step"] = {
        "value": snap["stats"]["profiles.cmc_rhs"][0] / steps if steps else 0.0,
        "unit": "1/step"}
    # Both runs of an op share a phase of machine speed, so their ratio does not
    # see the machine's drift.
    plain, traced = loop.times[False], loop.times[True]
    overhead = statistics.median(traced[i] / plain[i] for i in traced if i in plain)
    metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
    print(f"{workload}: trace.overhead = {overhead:.4f} (median over {ops} pairs of "
          f"traced and untraced runs of one op)")
    for key, metric in metrics.items():
        print(f"{workload}: {key} = {metric['value']:.9g} {metric['unit']}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "folicurve", "__init__.py")):
        print(f"no folicurve package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    env = fingerprint()
    run = Run()
    check_digest(run, "inputs", args.workload, args.seed,
                 workloads.inputs_digest(args.workload, args.seed))
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        measure = per_layer if args.trace else end_to_end
        metrics = measure(run, args.workload, args.seed, args.seconds, tmp)
    env["loadavg_after"] = os.getloadavg()
    print(f"env: {json.dumps(env)}")
    for failure in run.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"correct": not run.failures, "attempted": run.attempted,
                      "failed": len(run.failures), "metrics": metrics}))
    return 1 if run.failures else 0


if __name__ == "__main__":
    sys.exit(main())
