"""Command-line front door: identity verification, curvature scans, CMC profile
generation, and center conversions.

Exit codes: 0 success, 1 identity violation, 2 input/validation error,
3 geometric inadmissibility.  Flags override --config values.  FOLICURVE_LOG
sets the log level; data files never contain timestamps.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys

from . import exprlang, geometry, identity, profiles
from .identity import GeometrySignature, IdentityViolation
from .symexpr import KAP, RHO

EXIT_OK = 0
EXIT_IDENTITY = 1
EXIT_INPUT = 2
EXIT_INADMISSIBLE = 3

log = logging.getLogger("folicurve")


def _setup_logging() -> None:
    level = os.environ.get("FOLICURVE_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))


def _parse_t_range(text: str) -> tuple[float, float, float | None]:
    """'a:b' or 'a:b:step'."""
    if not isinstance(text, str):
        raise ValueError(f"t-range must be a string 'a:b' or 'a:b:step', got {text!r}")
    pieces = text.split(":")
    if len(pieces) not in (2, 3):
        raise ValueError(f"t-range must be 'a:b' or 'a:b:step', got {text!r}")
    t0, t1 = float(pieces[0]), float(pieces[1])
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError(f"t-range bounds must be finite, got {text!r}")
    step = float(pieces[2]) if len(pieces) == 3 else None
    if step is not None and not (math.isfinite(step) and step > 0):
        raise ValueError(f"t-range step must be finite and positive, got {text!r}")
    return t0, t1, step


def _leaf_count(t0: float, t1: float, step: float) -> int:
    """Leaves of a scan from t0 to t1 at the given step, both ends included."""
    count = abs(t1 - t0) / step
    if not math.isfinite(count):
        raise ValueError(f"t-range step {step!r} is too small to count the leaves of {t0!r}:{t1!r}")
    return int(round(count)) + 1


def _check_int(args: argparse.Namespace, name: str, minimum: int) -> None:
    """Reject a given option that is not an integer >= minimum."""
    value = getattr(args, name)
    if value is not None and (isinstance(value, bool) or not isinstance(value, int) or value < minimum):
        flag = name.replace("_", "-")
        raise ValueError(f"--{flag} must be an integer >= {minimum}, got {value!r}")


def _check_finite(args: argparse.Namespace, *names: str) -> None:
    """Reject a given option that is not a finite number."""
    for name in names:
        value = getattr(args, name)
        if value is None:
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            flag = name.replace("_", "-")
            raise ValueError(f"--{flag} must be a finite number, got {value!r}")


def _merge_config(args: argparse.Namespace) -> argparse.Namespace:
    """Fill still-unset options from the --config JSON file (flags win)."""
    path = getattr(args, "config", None)
    if not path:
        return args
    with open(path) as handle:
        payload = json.load(handle)
    for key, value in payload.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            raise ValueError(f"unknown config key {key!r}")
        if getattr(args, attr) is None:
            setattr(args, attr, value)
    return args


def _signature(label: str) -> GeometrySignature:
    return GeometrySignature.from_label(label)


def _mutated_bracket(sig: GeometrySignature, which: str) -> identity.CubicCoefficients:
    """Fault-injection hook: perturb one bracket coefficient by KAP*RHO^2."""
    cubic = identity.bracket_cubic(sig)
    delta = KAP * RHO ** 2
    parts = {"c3": cubic.c3, "c2": cubic.c2, "c1": cubic.c1}
    parts[which] = parts[which] - delta
    return identity.CubicCoefficients(**parts)


def cmd_verify(args: argparse.Namespace) -> int:
    labels = (
        ["riemannian", "lorentzian"] if args.signature in (None, "both") else [args.signature]
    )
    reports = []
    status = EXIT_OK
    for label in labels:
        sig = _signature(label)
        bracket = _mutated_bracket(sig, args.mutate) if args.mutate else None
        try:
            report = identity.verify_squared_identity(sig, bracket=bracket)
        except IdentityViolation as violation:
            report = violation.report
            status = EXIT_IDENTITY
            if report is None:
                print(str(violation), file=sys.stderr)
                continue
        reports.append(json.loads(report.to_json()))
    print(json.dumps(reports, indent=2))
    return status


def cmd_scan(args: argparse.Namespace) -> int:
    sig = _signature(args.signature or "riemannian")
    try:
        profile = exprlang.ProfileFunctions.from_strings(args.k, args.r)
    except exprlang.ParseError as err:
        print(f"expression error: {err}", file=sys.stderr)
        return EXIT_INPUT
    try:
        t0, t1, step = _parse_t_range(args.t)
        _check_int(args, "n", 2)
        _check_int(args, "samples", 1)
        _check_int(args, "points_per_leaf", 1)
        _check_finite(args, "cmc_tol")
        samples = args.samples or (_leaf_count(t0, t1, step) if step else 50)
    except ValueError as err:
        print(str(err), file=sys.stderr)
        return EXIT_INPUT
    try:
        report = geometry.constancy_scan(
            profile, (t0, t1), args.n, sig, samples, points_per_leaf=args.points_per_leaf
        )
    except (exprlang.DomainError, geometry.InvalidSphere, geometry.NotOnLeaf,
            geometry.DegenerateNormal, ArithmeticError, ValueError) as err:
        print(f"invalid profile on range: {err}", file=sys.stderr)
        return EXIT_INPUT
    if args.out_csv:
        report.to_csv(args.out_csv)
    if args.out_json:
        with open(args.out_json, "w") as handle:
            handle.write(report.to_json())
    summary = report.summary()
    tol = args.cmc_tol if args.cmc_tol is not None else 1e-6
    summary["cmc"] = report.max_dev is not None and report.max_dev < tol
    print(json.dumps(summary, indent=2))
    if report.mean_H is None:
        log.warning("no admissible points in scan")
        return EXIT_INADMISSIBLE
    return EXIT_OK


def _write_off(path: str, profile: profiles.RotationalProfile, segments: int) -> None:
    """Surface mesh for n = 2: sweep each leaf circle in (x1, x2) at height t."""
    rows = profile.rows
    vertices = []
    for row in rows:
        for j in range(segments):
            theta = 2.0 * math.pi * j / segments
            vertices.append((row.r * math.sin(theta), row.k + row.r * math.cos(theta), row.t))
    faces = []
    for i in range(len(rows) - 1):
        base, nxt = i * segments, (i + 1) * segments
        for j in range(segments):
            jn = (j + 1) % segments
            faces.append((base + j, base + jn, nxt + jn, nxt + j))
    with open(path, "w") as handle:
        handle.write("OFF\n")
        handle.write(f"{len(vertices)} {len(faces)} 0\n")
        for x1, x2, t in vertices:
            handle.write(f"{x1!r} {x2!r} {t!r}\n")
        for face in faces:
            handle.write("4 " + " ".join(str(v) for v in face) + "\n")


def cmd_generate(args: argparse.Namespace) -> int:
    sig = _signature(args.signature or "riemannian")
    try:
        t0, t1, step = _parse_t_range(args.t)
        _check_int(args, "n", 2)
        _check_int(args, "samples", 1)
        _check_int(args, "off_segments", 3)
        _check_finite(args, "K", "H", "r0", "r1")
    except ValueError as err:
        print(str(err), file=sys.stderr)
        return EXIT_INPUT
    step = step or 1e-3
    if args.off and args.n != 2:
        print("OFF export is defined for n = 2 only", file=sys.stderr)
        return EXIT_INPUT
    try:
        profile = profiles.integrate_profile(
            r0=args.r0,
            r1_0=args.r1,
            t_range=(t0, t1),
            step=step,
            K=args.K,
            H=args.H,
            n=args.n,
            sig=sig,
            sign_branch=args.sign_branch,
        )
    except (ValueError, profiles.StepUnstable, profiles.NonSpacelike,
            profiles.VanishingLeadCoefficient) as err:
        print(f"integration rejected: {err}", file=sys.stderr)
        return EXIT_INPUT
    if args.out_csv:
        profile.to_csv(args.out_csv)
    if args.out_json:
        with open(args.out_json, "w") as handle:
            handle.write(profile.to_json())
    if args.off:
        _write_off(args.off, profile, args.off_segments)

    summary = {
        "signature": sig.label,
        "n": args.n,
        "K": args.K,
        "H_target": args.H,
        "rows": len(profile.rows),
        "t_end": profile.rows[-1].t,
        "r_end": profile.rows[-1].r,
        "halted": profile.halted,
    }
    if args.validate:
        try:
            report = profiles.validate_profile(profile, samples=args.samples or 50)
        except profiles.ValidationFailed as err:
            summary["validated"] = False
            print(json.dumps(summary, indent=2))
            print(f"validation failed: {err}", file=sys.stderr)
            return EXIT_INPUT
        summary["validated"] = True
        summary["max_dKdt"] = report.max_dKdt
    print(json.dumps(summary, indent=2))
    if profile.halted:
        return EXIT_INADMISSIBLE
    return EXIT_OK


def cmd_convert(args: argparse.Namespace) -> int:
    try:
        _check_finite(args, "k", "r", "K", "R")
    except ValueError as err:
        print(str(err), file=sys.stderr)
        return EXIT_INPUT
    euclidean = args.k is not None or args.r is not None
    hyperbolic = args.K is not None or args.R is not None
    if euclidean == hyperbolic:
        print("supply exactly one pair: --k/--r or --K/--R", file=sys.stderr)
        return EXIT_INPUT
    try:
        if euclidean:
            if args.k is None or args.r is None:
                print("both --k and --r are required", file=sys.stderr)
                return EXIT_INPUT
            center = geometry.euclidean_to_hyperbolic(args.k, args.r)
            k, r = args.k, args.r
        else:
            if args.K is None or args.R is None:
                print("both --K and --R are required", file=sys.stderr)
                return EXIT_INPUT
            center = geometry.HyperbolicCenter(K=args.K, R=args.R)
            k, r = geometry.hyperbolic_to_euclidean(center)
    except geometry.InvalidSphere as err:
        print(f"invalid sphere: {err}", file=sys.stderr)
        return EXIT_INPUT
    print(json.dumps({"k": k, "r": r, "K": center.K, "R": center.R}, indent=2))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="folicurve",
        description="Curvature identities and rotational CMC profiles for "
        "sphere-foliated hypersurfaces in hyperbolic product spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="verify the squared curvature identities")
    p_verify.add_argument("--signature", choices=["riemannian", "lorentzian", "both"])
    p_verify.add_argument("--mutate", choices=["c1", "c2", "c3"],
                          help="fault-injection hook: perturb a bracket coefficient")
    p_verify.add_argument("--config")
    p_verify.set_defaults(func=cmd_verify)

    p_scan = sub.add_parser("scan", help="scan mean curvature over a foliated profile")
    p_scan.add_argument("--k", help="center expression k(t)")
    p_scan.add_argument("--r", help="radius expression r(t)")
    p_scan.add_argument("--n", type=int)
    p_scan.add_argument("--signature", choices=["riemannian", "lorentzian"])
    p_scan.add_argument("--t", help="t-range a:b or a:b:step")
    p_scan.add_argument("--samples", type=int)
    p_scan.add_argument("--points-per-leaf", type=int, default=8)
    p_scan.add_argument("--cmc-tol", type=float)
    p_scan.add_argument("--out-csv")
    p_scan.add_argument("--out-json")
    p_scan.add_argument("--config")
    p_scan.set_defaults(func=cmd_scan)

    p_gen = sub.add_parser("generate", help="integrate a rotational CMC profile")
    p_gen.add_argument("--n", type=int)
    p_gen.add_argument("--H", type=float, default=None)
    p_gen.add_argument("--K", type=float)
    p_gen.add_argument("--r0", type=float, default=None)
    p_gen.add_argument("--r1", type=float, default=None)
    p_gen.add_argument("--t", help="t-range a:b or a:b:step")
    p_gen.add_argument("--signature", choices=["riemannian", "lorentzian"])
    p_gen.add_argument("--sign-branch", type=int, choices=[-1, 1], default=None)
    p_gen.add_argument("--validate", action="store_true")
    p_gen.add_argument("--samples", type=int)
    p_gen.add_argument("--out-csv")
    p_gen.add_argument("--out-json")
    p_gen.add_argument("--off", help="OFF mesh path (n = 2 only)")
    p_gen.add_argument("--off-segments", type=int, default=48)
    p_gen.add_argument("--config")
    p_gen.set_defaults(func=cmd_generate)

    p_conv = sub.add_parser("convert", help="Euclidean <-> hyperbolic center/radius")
    p_conv.add_argument("--k", type=float)
    p_conv.add_argument("--r", type=float)
    p_conv.add_argument("--K", type=float)
    p_conv.add_argument("--R", type=float)
    p_conv.set_defaults(func=cmd_convert)
    return parser


def _apply_defaults(args: argparse.Namespace) -> None:
    defaults = {"H": 0.0, "r0": 1.0, "r1": 0.0, "sign_branch": -1}
    for key, value in defaults.items():
        if hasattr(args, key) and getattr(args, key) is None:
            setattr(args, key, value)


def _check_required(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    required = {
        "scan": ("k", "r", "n", "t"),
        "generate": ("n", "K", "t"),
    }
    for name in required.get(args.command, ()):
        if getattr(args, name, None) is None:
            parser.error(f"--{name} is required for {args.command} (flag or config)")


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _merge_config(args)
    except (OSError, ValueError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_INPUT
    try:
        _check_required(args, parser)
    except SystemExit:
        return EXIT_INPUT
    _apply_defaults(args)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
