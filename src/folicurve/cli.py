"""Command-line front door: identity verification, curvature scans, CMC profile
generation, and center conversions.

Exit codes: 0 success, 1 identity violation, 2 input/validation error,
3 geometric inadmissibility.  Flags override --config values; data files never
contain timestamps.

Every library failure is a ValueError (bad input or data) or an
ArithmeticError (a numeric breakdown), so each stage below catches that pair
and prints one stderr line with exit 2; an output file that cannot be written
does the same, with stdout left empty.  Only IdentityViolation exits 1: `main`
catches it from any subcommand and prints its one-line message (`verify`
prints a failing sign check as its JSON report instead).  A closed stdout
leaves the exit code as it was.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import sys
import time
import types
from typing import Any, Callable

from . import exprlang, geometry, identity, profiles
from .identity import GeometrySignature, IdentityViolation

EXIT_OK = 0
EXIT_IDENTITY = 1
EXIT_INPUT = 2
EXIT_INADMISSIBLE = 3

MAX_ROWS = 10**6  # rows a run may request

REQUIRED = object()  # the default of an option that has to be given

def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _checked(kind: type, accept: Callable[[Any], bool] | None,
             what: str) -> Callable[[str, Any], Any]:
    """A converter to `kind`: an integer flag's text is parsed, any other value
    must already be a `kind` (a bool is never an int), and `accept`, if given,
    must hold."""

    def convert(flag: str, value):
        if kind is int and isinstance(value, str):
            with contextlib.suppress(ValueError):
                value = int(value)
        if type(value) is not kind or accept and not accept(value):
            raise ValueError(f"{flag} must be {what}, got {value!r}")
        return value

    return convert


_text = _checked(str, None, "a string")
_path = _checked(str, bool, "a non-empty path")
_switch = _checked(bool, None, "true or false")


def _integer(minimum: int) -> Callable[[str, Any], int]:
    return _checked(int, minimum.__le__, f"an integer >= {minimum}")


def _choice(*allowed) -> Callable[[str, Any], Any]:
    return _checked(type(allowed[0]), allowed.__contains__, "one of " + ", ".join(map(str, allowed)))


def _real(flag: str, value) -> float:
    """A finite float from a flag's text or a JSON number (not a bool)."""
    number = math.nan
    with contextlib.suppress(OverflowError, ValueError):
        number = float(value) if type(value) in (str, int, float) else math.nan
    if not math.isfinite(number):
        raise ValueError(f"{flag} must be a finite number, got {value!r}")
    return number


def _positive(flag: str, value) -> float:
    """A finite float > 0, read as `_real` reads it."""
    number = _real(flag, value)
    if number <= 0:
        raise ValueError(f"{flag} must be a finite number > 0, got {value!r}")
    return number


def _t_range(flag: str, text, default_step: float | None = None) -> tuple:
    """'a:b' -> (t0, t1, default_step); given a default_step, also 'a:b:step' -> (t0, t1, step)."""
    forms = "'a:b' or 'a:b:step'" if default_step else "'a:b' (--samples sets the leaf count)"
    if not isinstance(text, str):
        raise ValueError(f"t-range must be a string {forms}, got {text!r}")
    pieces = text.split(":")
    if len(pieces) not in ((2, 3) if default_step else (2,)):
        raise ValueError(f"t-range must be {forms}, got {text!r}")
    try:
        numbers = [float(piece) for piece in pieces]
    except ValueError:
        raise ValueError(f"{flag} bounds and step must be numbers, got {text!r}") from None
    t0, t1 = numbers[:2]
    if not math.isfinite(t1 - t0):
        raise ValueError(f"t-range bounds and their difference must be finite, got {text!r}")
    step = numbers[2] if len(numbers) == 3 else default_step
    if step is not None and not (math.isfinite(step) and step > 0):
        raise ValueError(f"t-range step must be finite and positive, got {text!r}")
    return t0, t1, step


def _too_many(what: str, **factors: int | float) -> bool:
    """Report a request for more than MAX_ROWS rows, before anything is allocated."""
    if math.prod(factors.values()) <= MAX_ROWS:
        return False
    sizes = " x ".join(f"{value} {name}" for name, value in factors.items())
    print(f"{what} asks for {sizes}: over the cap of {MAX_ROWS} rows", file=sys.stderr)
    return True


def _print(text: str) -> None:
    """Print a summary or help text to stdout.  A closed stdout (a reader that
    quit early) is no failure of the run: stdout is pointed at os.devnull, so
    nothing is reported at exit, and the command's own exit code stands."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def cmd_verify(args: types.SimpleNamespace) -> int:
    sigs = (list(GeometrySignature) if args.signature == "both"
            else [GeometrySignature.from_label(args.signature)])
    reports = []
    status = EXIT_OK
    for sig in sigs:
        bracket = identity.mutated_bracket(sig, args.mutate) if args.mutate else None
        start = time.perf_counter()
        try:
            sign, residual = identity.verify_squared_identity(sig, bracket=bracket), "0"
        except IdentityViolation as violation:
            status = EXIT_IDENTITY
            if violation.residual is None:
                print(violation, file=sys.stderr)
                continue
            sign, residual = None, violation.residual
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        reports.append({"signature": sig.label, "pass": sign is not None, "sign": sign,
                        "residual_text": residual, "elapsed_ms": elapsed_ms})
    _print(json.dumps(reports, indent=2))
    return status


def cmd_scan(args: types.SimpleNamespace) -> int:
    if _too_many("scan", leaves=args.samples, points=args.points_per_leaf):
        return EXIT_INPUT
    try:
        profile = exprlang.ProfileFunctions.from_strings(args.k, args.r)
        report = geometry.constancy_scan(
            profile, args.t[:2], args.n, GeometrySignature.from_label(args.signature),
            args.samples, points_per_leaf=args.points_per_leaf,
        )
    except (exprlang.ParseError, RecursionError) as err:
        print(f"expression error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, ArithmeticError) as err:
        print(f"invalid profile on range: {err}", file=sys.stderr)
        return EXIT_INPUT
    if args.out_csv:
        report.to_csv(args.out_csv)
    if args.out_json:
        with open(args.out_json, "w") as handle:
            handle.write(report.to_json())
    summary = report.summary()
    summary["cmc"] = report.max_dev is not None and report.max_dev < args.cmc_tol
    _print(json.dumps(summary, indent=2))
    if report.mean_H is None:
        print("no admissible points in scan", file=sys.stderr)
        return EXIT_INADMISSIBLE
    return EXIT_OK


def _write_off(path: str, profile: profiles.RotationalProfile, segments: int) -> None:
    """Surface mesh for n = 2: sweep each leaf circle in (x1, x2) at height t."""
    rows = profile.rows
    with open(path, "w") as handle:
        handle.write("OFF\n")
        handle.write(f"{len(rows) * segments} {(len(rows) - 1) * segments} 0\n")
        for row in rows:
            for j in range(segments):
                theta = 2.0 * math.pi * j / segments
                x1, x2 = row.r * math.sin(theta), row.k + row.r * math.cos(theta)
                handle.write(f"{x1!r} {x2!r} {row.t!r}\n")
        for base in range(0, (len(rows) - 1) * segments, segments):
            for j in range(segments):
                jn = (j + 1) % segments
                handle.write(f"4 {base + j} {base + jn} {base + segments + jn} {base + segments + j}\n")


def cmd_generate(args: types.SimpleNamespace) -> int:
    t0, t1, step = args.t
    if args.off and args.n != 2:
        print("OFF export is defined for n = 2 only", file=sys.stderr)
        return EXIT_INPUT
    steps = abs(t1 - t0) / step
    rows = math.ceil(steps) + 1 if math.isfinite(steps) else steps
    if _too_many("generate", rows=rows):
        return EXIT_INPUT
    if (args.validate and _too_many("generate --validate", leaves=max(args.samples, rows),
                                    points=geometry.POINTS_PER_LEAF)
            or args.off and _too_many("generate --off", rows=rows, segments=args.off_segments)):
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
            sig=GeometrySignature.from_label(args.signature),
        )
    except (ValueError, ArithmeticError) as err:
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
        "signature": args.signature,
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
            report = profiles.validate_profile(profile, samples=args.samples)
        except (ValueError, ArithmeticError) as err:
            summary["validated"] = False
            _print(json.dumps(summary, indent=2))
            print(f"validation failed: {err}", file=sys.stderr)
            return EXIT_INPUT
        summary["validated"] = True
        summary["max_dKdt"] = report.max_dKdt
    _print(json.dumps(summary, indent=2))
    if profile.halted:
        return EXIT_INADMISSIBLE
    return EXIT_OK


def cmd_convert(args: types.SimpleNamespace) -> int:
    half_pair = (args.k is None) != (args.r is None) or (args.K is None) != (args.R is None)
    if half_pair or (args.k is None) == (args.K is None):
        print("supply exactly one pair: --k and --r, or --K and --R", file=sys.stderr)
        return EXIT_INPUT
    try:
        if args.k is not None:
            k, r = args.k, args.r
            K, R = geometry.euclidean_to_hyperbolic(k, r)
        else:
            K, R = args.K, args.R
            k, r = geometry.hyperbolic_to_euclidean(K, R)
    except (ValueError, ArithmeticError) as err:
        print(f"invalid sphere: {err}", file=sys.stderr)
        return EXIT_INPUT
    _print(json.dumps({"k": k, "r": r, "K": K, "R": R}, indent=2))
    return EXIT_OK


def _commands() -> dict[str, tuple]:
    """Each subcommand's (help, handler, options).  An option is (name,
    converter, default, help): `converter(flag, value)` checks a flag's text
    or a config value; the default is REQUIRED or a value."""
    return {
        "verify": ("verify the squared curvature identities", cmd_verify, (
            ("signature", _choice("riemannian", "lorentzian", "both"), "both",
             "riemannian, lorentzian or both (default)"),
            ("mutate", _choice("c1", "c2", "c3"), None,
             "fault-injection hook: perturb a bracket coefficient (c1, c2 or c3)"),
        )),
        "scan": ("scan mean curvature over a foliated profile", cmd_scan, (
            ("k", _text, REQUIRED, "center expression k(t)"),
            ("r", _text, REQUIRED, "radius expression r(t)"),
            ("n", _integer(2), REQUIRED, None),
            ("signature", _choice("riemannian", "lorentzian"), "riemannian", None),
            ("t", _t_range, REQUIRED, "t-range a:b"),
            ("samples", _integer(1), 50, "leaves (default 50)"),
            ("points_per_leaf", _integer(1), geometry.POINTS_PER_LEAF, None),
            ("cmc_tol", _positive, 1e-6, None),
            ("out_csv", _path, None, None),
            ("out_json", _path, None, None),
        )),
        "generate": ("integrate a rotational CMC profile", cmd_generate, (
            ("n", _integer(2), REQUIRED, None),
            ("H", _real, 0.0, None),
            ("K", _real, REQUIRED, None),
            ("r0", _real, 1.0, None),
            ("r1", _real, 0.0, None),
            ("t", functools.partial(_t_range, default_step=1e-3), REQUIRED,
             "t-range a:b or a:b:step (default step 1e-3)"),
            ("signature", _choice("riemannian", "lorentzian"), "riemannian", None),
            ("validate", _switch, False, None),
            ("samples", _integer(1), 50, "validation leaves"),
            ("out_csv", _path, None, None),
            ("out_json", _path, None, None),
            ("off", _path, None, "OFF mesh path (n = 2 only)"),
            ("off_segments", _integer(3), 48, None),
        )),
        "convert": ("Euclidean <-> hyperbolic center/radius", cmd_convert,
                    tuple((name, _real, None, None) for name in ("k", "r", "K", "R"))),
    }


_HELP = ("-h", "--help")
_CONFIG = ("config", _path, None, "JSON object of option values; flags win")


def _read_argv(commands: dict, argv: list[str]) -> tuple[str | None, dict | None]:
    """The command and its raw {name: value}, read against the option table:
    `--name value` (the value taken verbatim, even when it starts with "-") or
    `--name=value`, a bare `--name` for a switch; the last occurrence wins.
    -h/--help gives no values, and no command either before one is named."""
    if argv[:1] and argv[0] in _HELP:
        return None, None
    if not argv or argv[0] not in commands:
        got = repr(argv[0]) if argv else "nothing"
        raise ValueError(f"expected a command ({', '.join(commands)}) or --help, got {got}")
    command, tokens = argv[0], iter(argv[1:])
    options = {_flag(name): (name, convert) for name, convert, *_ in commands[command][2] + (_CONFIG,)}
    given = {}
    for token in tokens:
        if token in _HELP:
            return command, None
        flag, equals, value = token.partition("=")
        if flag not in options:
            raise ValueError(f"unknown option {flag!r} for {command}")
        name, convert = options[flag]
        if convert is _switch:
            if equals:
                raise ValueError(f"{flag} takes no value, got {token!r}")
            value = True
        elif not equals:
            value = next(tokens, None)
            if value is None:
                raise ValueError(f"{flag} needs a value")
        given[name] = value
    return command, given


def _help(commands: dict, command: str | None) -> str:
    """The command list, or one command's options, from the option table."""
    usage = f"usage: folicurve {command or 'COMMAND'} [--name value | --name=value ...]"
    if command is None:
        lines = [usage, ""] + [f"  {name:<10}{text}" for name, (text, *_) in commands.items()]
        return "\n".join(lines + ["", "folicurve COMMAND --help lists the command's options."])
    text, _, options = commands[command]
    lines = [usage, text, ""]
    for name, convert, default, option_help in options + (_CONFIG,):
        flag = _flag(name) if convert is _switch else _flag(name) + " VALUE"
        note = ("(required) " if default is REQUIRED else "") + (option_help or "")
        lines.append(f"  {flag:<24}{note}".rstrip())
    return "\n".join(lines)


def _read_config(path: str | None, names) -> dict:
    """The values of a --config JSON object, whose keys must be in `names`."""
    if path is None:
        return {}
    with open(_path("--config", path)) as handle:
        config = json.load(handle)
    if not isinstance(config, dict):
        raise ValueError(f"{path} must hold a JSON object, got {type(config).__name__}")
    for key in config:
        if key not in names:
            raise ValueError(f"unknown config key {key!r}")
    return config


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand: the config file fills the options no flag set, every
    given value passes its converter, and the table's defaults fill the rest."""
    commands = _commands()
    try:
        command, flags = _read_argv(commands, sys.argv[1:] if argv is None else argv)
    except ValueError as err:
        print(err, file=sys.stderr)
        return EXIT_INPUT
    if flags is None:
        _print(_help(commands, command))
        return EXIT_OK
    _, run, options = commands[command]
    try:
        given = _read_config(flags.pop("config", None), {name for name, *_ in options})
    except (OSError, ValueError, RecursionError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_INPUT
    given.update(flags)
    try:
        settings = {name: convert(_flag(name), given[name])
                    for name, convert, *_ in options if name in given}
        for name, _, default, _ in options:
            if name not in settings:
                if default is REQUIRED:
                    raise ValueError(f"{_flag(name)} is required for {command} (flag or config)")
                settings[name] = default
    except ValueError as err:
        print(err, file=sys.stderr)
        return EXIT_INPUT
    try:
        return run(types.SimpleNamespace(**settings))
    except IdentityViolation as violation:
        print(violation, file=sys.stderr)
        return EXIT_IDENTITY
    except OSError as err:  # data files are written before the summary is printed
        print(f"cannot write {err.filename or 'output'}: {err.strerror or err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
