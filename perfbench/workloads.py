"""Seeded inputs, the op each workload times, and the checks on its outputs.

The seed picks parameter values only.  Which kind of input op i gets, and how
much work it does (dimension n, grid size, point count, step count), depends
on i alone, so two seeds give the same work per op.  Op i's inputs come from its own
generator, seeded by (workload, seed, i).  The digested ops 0..DIGEST_OPS-1
draw with seed % RECORDED_SEEDS, so that every seed's outputs have a
recorded digest to be checked against.

Parameter ranges are chosen so that every op succeeds with exit code 0:
- scan: Lorentzian profiles keep r' in [3.2, 3.6] on t in [0, 0.25], so the
  spacelike gate admits about 55-70 % of the points; a flatter radius drops
  nearly all of them (exit 3, "no admissible points") and a steeper one none.
  Every profile keeps k > r > 0 on its range.
- crosscheck: Lorentzian leaves sit at t <= 0.02 with r' in [10, 12], where
  every sampled point is spacelike; flatter radii put points near the null
  cone, where the finite-difference oracle loses its 1e-6 agreement.
- closed_loop: Riemannian H in [-0.6, 0.1] and r1 in [-0.5, 0.5]; Lorentzian
  H in [-0.4, 0.1] and r1 in [1.2, 1.5] x k(0).  Larger positive H (and, in
  the Lorentzian metric, larger r1) makes step 1e-3 raise StepUnstable or the
  quintic interpolant miss the 1e-5 closed-loop tolerance near the end node.
Bad inputs (exit codes 2 and 3) are not exercised here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import time

DIGEST_OPS = 8  # outputs of ops 0..DIGEST_OPS-1 enter the per-seed digest
RECORDED_SEEDS = 64  # digests.json holds seeds 0..RECORDED_SEEDS-1

SCAN_KINDS = ("lorentzian_drift", "lorentzian_nested", "cylinder", "drift", "nested")
SCAN_DIMENSIONS = (2, 3, 4, 5, 6)  # each kind meets each n once in 25 ops
SCAN_LEAVES = 50
POINTS = 8
CROSSCHECK_N = 3
CROSSCHECK_SIGS = ("riemannian", "lorentzian")
FD_STEP = {"riemannian": 1e-4, "lorentzian": 2e-5}  # as in the test suite
FD_RICHARDSON_TOL = 1e-5
FD_AGREEMENT = 1e-6  # acceptance criterion 5
CLOSED_LOOP_SIGS = ("riemannian", "lorentzian")
CLOSED_LOOP_DIMENSIONS = (2, 3, 4)
CLOSED_LOOP_STEPS = 60
CLOSED_LOOP_STEP = 1e-3
VERIFY_SIGNS = {"riemannian": 1, "lorentzian": 1}  # global signs at the seed commit


def _num(x: float) -> str:
    return f"{x:.4f}"


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


def _nested(rng: random.Random, slope: float = 0.0) -> tuple[str, str]:
    a, b, c, d = (_num(rng.uniform(lo, hi)) for lo, hi in
                  ((2.5, 3.5), (0.1, 0.3), (0.5, 2.0), (-0.3, 0.3)))
    e, f, g = (_num(rng.uniform(lo, hi)) for lo, hi in ((0.8, 1.2), (0.05, 0.2), (0.5, 2.0)))
    drift = f" + {_num(slope)}*t" if slope else ""
    return f"{a} + {b}*sin({c}*t)*exp({d}*t)", f"{e}{drift} + {f}*cos(sqrt(1 + {g}*t^2))"


# -- inputs ----------------------------------------------------------------------

def inputs(workload: str, seed: int, index: int) -> dict:
    """The generated inputs of one op; `size` is the work it does."""
    if index < DIGEST_OPS:
        seed %= RECORDED_SEEDS
    rng = _rng(workload, seed, index)
    u = rng.uniform
    if workload == "verify":
        return {"argv": ["verify"], "size": ["both signatures"]}
    if workload == "scan":
        kind = SCAN_KINDS[index % len(SCAN_KINDS)]
        n = SCAN_DIMENSIONS[index // len(SCAN_KINDS) % len(SCAN_DIMENSIONS)]
        sig, t_range, expect = "riemannian", "0:1", {}
        if kind == "cylinder":
            K, R = u(0.5, 2.0), u(0.3, 2.0)
            k, r = f"{_num(K)}*cosh({_num(R)})", f"{_num(K)}*sinh({_num(R)})"
            expect["mean_H"] = -(n - 1) / (n * math.tanh(float(_num(R))))
        elif kind == "drift":
            k = f"{_num(u(2.5, 3.5))} + {_num(u(0.2, 0.5))}*t + {_num(u(-0.2, 0.2))}*t^2"
            r = f"{_num(u(0.8, 1.2))} + {_num(u(-0.2, 0.2))}*t^2"
        elif kind == "nested":
            k, r = _nested(rng)
        else:
            sig, t_range = "lorentzian", "0:0.25"
            slope = u(3.2, 3.6)
            if kind == "lorentzian_drift":
                k = f"{_num(u(2.8, 3.2))} + {_num(u(0.0, 0.5))}*t"
                r = f"{_num(u(0.8, 1.2))} + {_num(slope)}*t"
            else:
                k, r = _nested(rng, slope)
        argv = ["scan", "--signature", sig, "--k", k, "--r", r, "--n", str(n),
                "--t", t_range, "--samples", str(SCAN_LEAVES),
                "--points-per-leaf", str(POINTS)]
        return {"kind": kind, "argv": argv, "expect": expect, "size": [SCAN_LEAVES, POINTS, n]}
    if workload == "crosscheck":
        sig = CROSSCHECK_SIGS[index % len(CROSSCHECK_SIGS)]
        if sig == "riemannian":
            k, r = _nested(rng)
            t = u(0.0, 1.0)
        else:
            k, r = _nested(rng, u(10.0, 12.0))
            t = u(0.0, 0.02)
        return {"sig": sig, "k": k, "r": r, "t": float(_num(t)),
                "size": [CROSSCHECK_N, POINTS]}
    if workload == "closed_loop":
        sig = CLOSED_LOOP_SIGS[index % len(CLOSED_LOOP_SIGS)]
        n = CLOSED_LOOP_DIMENSIONS[index // len(CLOSED_LOOP_SIGS) % len(CLOSED_LOOP_DIMENSIONS)]
        if sig == "riemannian":
            K, r0 = u(0.5, 2.0), u(0.7, 1.5)
            r1, H = u(-0.5, 0.5), u(-0.6, 0.1)
        else:
            K, r0 = u(0.7, 1.5), u(0.8, 1.3)
            r1, H = u(1.2, 1.5) * math.hypot(K, r0), u(-0.4, 0.1)
        argv = ["generate", "--signature", sig, "--n", str(n), "--K", _num(K),
                "--r0", _num(r0), "--r1", _num(r1), "--H", _num(H),
                "--t", f"0:{CLOSED_LOOP_STEPS * CLOSED_LOOP_STEP:g}:{CLOSED_LOOP_STEP:g}",
                "--validate"]
        return {"argv": argv, "size": [CLOSED_LOOP_STEPS, n]}
    raise ValueError(f"unknown workload {workload!r}")


def smallest_inputs(workload: str) -> dict | None:
    """The op whose end bounds set-up time; None for verify (import alone)."""
    if workload == "scan":
        argv = ["scan", "--k", "2", "--r", "1", "--n", "3", "--t", "0:0",
                "--samples", "1", "--points-per-leaf", "1"]
        return {"argv": argv, "kind": "smallest", "size": [1, 1, 3]}
    if workload == "crosscheck":
        return {"sig": "riemannian", "k": "2", "r": "1", "t": 0.0, "size": [CROSSCHECK_N, 1]}
    if workload == "closed_loop":
        return {"argv": ["generate", "--n", "3", "--K", "1", "--t", "0:0.005:1e-3",
                         "--validate", "--samples", "2"], "size": [5, 3]}
    return None


# -- one op ----------------------------------------------------------------------

def reference() -> float:
    """Seconds for one run of a fixed pure-Python task (float math, dict
    stores).  It is the benchmark's own code, so no change to the package
    moves it; only the machine's speed does."""
    start = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(4000):
        x = i * 0.00025
        acc += math.sin(x) * math.exp(-x) + math.sqrt(1.0 + x * x)
        table[i & 255] = (acc, x)
    return time.perf_counter() - start


def _cli(argv: list[str]) -> tuple[int, str, float]:
    from folicurve import cli

    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue(), time.perf_counter() - start


def _read(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def run_op(workload: str, op: dict, tmp: str) -> tuple[float, bytes, list[str]]:
    """Run one op: (elapsed seconds, output bytes for the digest, failed checks)."""
    if workload == "crosscheck":
        return _crosscheck(op)
    csv_path = os.path.join(tmp, f"{workload}.csv")
    argv = list(op["argv"])
    if workload != "verify":
        argv += ["--out-csv", csv_path]
    code, stdout, elapsed = _cli(argv)
    failures = [f"exit code {code}"] if code != 0 else []
    try:
        summary = json.loads(stdout)
    except json.JSONDecodeError:
        return elapsed, stdout.encode(), failures + ["stdout is not JSON"]
    if workload == "verify":
        failures += _check_verify(summary)
        for report in summary:
            report.pop("elapsed_ms", None)  # a timing, not an output
        return elapsed, json.dumps(summary, sort_keys=True).encode(), failures
    csv_bytes = _read(csv_path)
    rows = csv_bytes.count(b"\n") - 1
    if workload == "scan":
        failures += _check_scan(op, summary, rows)
    else:
        failures += _check_closed_loop(op, summary, rows)
    return elapsed, stdout.encode() + csv_bytes, failures


def _check_verify(reports) -> list[str]:
    failures = []
    if [r.get("signature") for r in reports] != list(VERIFY_SIGNS):
        return [f"signatures {[r.get('signature') for r in reports]}"]
    for report in reports:
        label = report["signature"]
        if report.get("pass") is not True:
            failures.append(f"{label}: pass is {report.get('pass')}")
        if report.get("residual_text") != "0":
            failures.append(f"{label}: residual {report.get('residual_text')!r}")
        if report.get("sign") != VERIFY_SIGNS[label]:
            failures.append(f"{label}: sign {report.get('sign')}")
    return failures


def _check_scan(op: dict, summary: dict, rows: int) -> list[str]:
    failures = []
    leaves, points, _ = op["size"]
    if rows != leaves * points:
        failures.append(f"csv rows {rows} != {leaves * points}")
    kind = op["kind"]
    if kind == "cylinder":
        if summary.get("cmc") is not True:
            failures.append("cylinder not reported CMC")
        if abs(summary["mean_H"] - op["expect"]["mean_H"]) > 1e-9:
            failures.append(f"cylinder mean_H {summary['mean_H']} != {op['expect']['mean_H']}")
    elif kind == "drift" and summary.get("cmc") is not False:
        failures.append("drifting center reported CMC")
    elif kind.startswith("lorentzian") and not 0.0 < (summary.get("spacelike_fraction") or 0.0) < 1.0:
        failures.append(f"spacelike fraction {summary.get('spacelike_fraction')} not in (0, 1)")
    return failures


def _check_closed_loop(op: dict, summary: dict, rows: int) -> list[str]:
    failures = []
    expected = op["size"][0] + 1
    if summary.get("validated") is not True:
        failures.append("not validated")
    if summary.get("halted") is not None:
        failures.append(f"halted: {summary['halted']}")
    if summary.get("rows") != expected or rows != expected:
        failures.append(f"rows {summary.get('rows')} / csv {rows} != {expected}")
    return failures


def _crosscheck(op: dict) -> tuple[float, bytes, list[str]]:
    from folicurve import exprlang, geometry
    from folicurve.identity import GeometrySignature

    sig = GeometrySignature.from_label(op["sig"])
    count = op["size"][1]
    h = FD_STEP[op["sig"]]
    start = time.perf_counter()
    profile = exprlang.ProfileFunctions.from_strings(op["k"], op["r"])
    jet = geometry.FoliationJet.from_profile(profile, op["t"])
    values = []
    for point in geometry.leaf_points(jet, CROSSCHECK_N, count):
        if op["sig"] == "lorentzian" and not geometry.is_spacelike(point, jet):
            continue
        fd = geometry.mean_curvature_fd(point, profile, CROSSCHECK_N, sig, h=h,
                                        tol=FD_RICHARDSON_TOL)
        values.append((fd, geometry.mean_curvature_at(point, jet, CROSSCHECK_N, sig)))
    elapsed = time.perf_counter() - start
    failures = []
    if len(values) != count:
        failures.append(f"{len(values)} of {count} points spacelike")
    worst = max((abs(fd - exact) for fd, exact in values), default=0.0)
    if worst > FD_AGREEMENT:
        failures.append(f"FD gap {worst:.3e} > {FD_AGREEMENT}")
    return elapsed, repr(values).encode(), failures


def run_smallest(workload: str, tmp: str) -> list[str]:
    """The set-up op; returns its failed checks."""
    op = smallest_inputs(workload)
    if op is None:
        return []
    return run_op(workload, op, tmp)[2]


def digest(chunks: list[bytes]) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(hashlib.sha256(chunk).digest())
    return h.hexdigest()


def inputs_digest(workload: str, seed: int) -> str:
    return digest([json.dumps(inputs(workload, seed, i), sort_keys=True).encode()
                   for i in range(DIGEST_OPS)])
