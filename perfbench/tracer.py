"""Per-layer tracing from outside the package.

Each boundary is a public function of one folicurve module.  `Tracer.install`
replaces every reference to it that the loaded folicurve modules and their
classes hold (module globals, names imported from a sibling module, class
attributes such as `SymExpr.__rmul__`) with a wrapper that counts calls,
errors and self time; `Tracer.remove` puts the originals back.  A boundary
that a later refactor removes is skipped and reads as zero calls.

Only aggregates are kept: the number of spans per op (tens of thousands of
`symexpr.mul` calls in one cold verify) makes storing each span costlier than
the work it describes.
"""

from __future__ import annotations

import sys
import time

# name -> (module, owner class or None, attributes, can raise).  Attributes
# listed together share one set of counters.
BOUNDARIES = {
    "symexpr.mul": ("symexpr", "SymExpr", ("__mul__",), False),
    "symexpr.reduce_level_set": ("symexpr", "SymExpr", ("reduce_level_set",), False),
    "symexpr.eval_numeric": ("symexpr", "SymExpr", ("eval_numeric",), True),
    "identity.verify_squared_identity": ("identity", None, ("verify_squared_identity",), True),
    "identity.neg_nH_S3": ("identity", None, ("neg_nH_S3",), False),
    "exprlang.from_strings": ("exprlang", "ProfileFunctions", ("from_strings",), True),
    "exprlang.jet_values": ("exprlang", "ProfileFunctions", ("jet_values",), True),
    "exprlang.value": ("exprlang", "ProfileFunctions", ("k_value", "r_value"), True),
    "geometry.constancy_scan": ("geometry", None, ("constancy_scan",), True),
    "geometry.mean_curvature_at": ("geometry", None, ("mean_curvature_at",), True),
    "geometry.is_spacelike": ("geometry", None, ("is_spacelike",), True),
    "geometry.mean_curvature_fd": ("geometry", None, ("mean_curvature_fd",), True),
    "geometry.to_csv": ("geometry", "ScanReport", ("to_csv",), False),
    "profiles.integrate_profile": ("profiles", None, ("integrate_profile",), True),
    "profiles.cmc_rhs": ("profiles", None, ("cmc_rhs",), True),
    "profiles.hermite_jet": ("profiles", "HermiteProfile", ("jet_values",), False),
    "profiles.validate_profile": ("profiles", None, ("validate_profile",), True),
    "profiles.to_csv": ("profiles", "RotationalProfile", ("to_csv",), False),
    "cli.main": ("cli", None, ("main",), False),
}

# Boundaries whose counters are also reported for the set-up process.
SETUP_BOUNDARIES = (
    "symexpr.mul",
    "symexpr.reduce_level_set",
    "identity.verify_squared_identity",
    "identity.neg_nH_S3",
    "exprlang.from_strings",
    "cli.main",
)

# Which workloads exercise each boundary in their timed ops ("op") or only in
# set-up ("setup"); a workload not named bypasses the boundary and records no
# calls at all.  The metric each boundary should move is in README.md.
EXERCISED = {
    "symexpr.mul": {"verify": "op", "scan": "setup", "crosscheck": "setup", "closed_loop": "setup"},
    "symexpr.reduce_level_set": {"verify": "op", "scan": "setup", "crosscheck": "setup",
                                 "closed_loop": "setup"},
    "symexpr.eval_numeric": {"scan": "op", "crosscheck": "op", "closed_loop": "op"},
    "identity.verify_squared_identity": {"verify": "op", "closed_loop": "setup"},
    "identity.neg_nH_S3": {"verify": "op", "scan": "op", "crosscheck": "op", "closed_loop": "op"},
    "exprlang.from_strings": {"scan": "op", "crosscheck": "op"},
    "exprlang.jet_values": {"scan": "op", "crosscheck": "op"},
    "exprlang.value": {"crosscheck": "op"},
    "geometry.constancy_scan": {"scan": "op", "closed_loop": "op"},
    "geometry.mean_curvature_at": {"scan": "op", "crosscheck": "op", "closed_loop": "op"},
    "geometry.is_spacelike": {"scan": "op", "crosscheck": "op", "closed_loop": "op"},
    "geometry.mean_curvature_fd": {"crosscheck": "op"},
    "geometry.to_csv": {"scan": "op"},
    "profiles.integrate_profile": {"closed_loop": "op"},
    "profiles.cmc_rhs": {"closed_loop": "op"},
    "profiles.hermite_jet": {"closed_loop": "op"},
    "profiles.validate_profile": {"closed_loop": "op"},
    "profiles.to_csv": {"closed_loop": "op"},
    "cli.main": {"verify": "op", "scan": "op", "closed_loop": "op"},
}


class Stat:
    __slots__ = ("calls", "errors", "self_s")

    def __init__(self):
        self.calls = 0
        self.errors = 0
        self.self_s = 0.0


class Tracer:
    """Counters for every boundary, plus the observations that need results."""

    def __init__(self):
        self.stats = {name: Stat() for name in BOUNDARIES}
        self.neg_nH_S3_terms = 0
        self.integrated_steps = 0
        self.lorentzian_points = 0
        self.admissible_points = 0
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- results the counters alone cannot give --------------------------------

    def _observe(self, name: str, result) -> None:
        if name == "identity.neg_nH_S3":
            self.neg_nH_S3_terms = max(self.neg_nH_S3_terms, sum(1 for _ in result.terms()))
        elif name == "profiles.integrate_profile":
            self.integrated_steps += len(result.rows) - 1
        elif name == "geometry.constancy_scan" and result.signature == "lorentzian":
            self.lorentzian_points += len(result.rows)
            self.admissible_points += sum(1 for row in result.rows if row.spacelike)

    # -- wrapping ----------------------------------------------------------------

    def _wrap(self, name: str, fn):
        stat = self.stats[name]
        stack = self._stack
        observe = self._observe
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                elapsed = clock() - start
                stat.calls += 1
                stat.self_s += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            observe(name, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        containers = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "folicurve" and not mod_name.startswith("folicurve."):
                continue
            containers.append(module)
            for value in vars(module).values():
                if isinstance(value, type) and value.__module__.startswith("folicurve"):
                    containers.append(value)
        for name, (mod, owner, attrs, _) in BOUNDARIES.items():
            module = sys.modules.get(f"folicurve.{mod}")
            home = getattr(module, owner, None) if owner else module
            for attr in attrs:
                raw = vars(home).get(attr) if home is not None else None
                if raw is None:
                    continue
                target = raw.__func__ if isinstance(raw, classmethod) else raw
                wrapped = self._wrap(name, target)
                for container in containers:
                    for key, value in list(vars(container).items()):
                        if value is target:
                            replacement = wrapped
                        elif isinstance(value, classmethod) and value.__func__ is target:
                            replacement = classmethod(wrapped)
                        else:
                            continue
                        self._undo.append((container, key, value))
                        setattr(container, key, replacement)

    def remove(self) -> None:
        while self._undo:
            container, key, value = self._undo.pop()
            setattr(container, key, value)

    # -- reporting ---------------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-data counters, for a child process to hand to its parent."""
        return {
            "stats": {name: [s.calls, s.errors, s.self_s] for name, s in self.stats.items()},
            "neg_nH_S3_terms": self.neg_nH_S3_terms,
            "integrated_steps": self.integrated_steps,
            "lorentzian_points": self.lorentzian_points,
            "admissible_points": self.admissible_points,
        }


def merge(snapshots: list[dict]) -> dict:
    """Sum the counters of several snapshots (one per op or per process)."""
    total = Tracer().snapshot()
    for snap in snapshots:
        for name, (calls, errors, self_s) in snap["stats"].items():
            row = total["stats"].setdefault(name, [0, 0, 0.0])
            row[0] += calls
            row[1] += errors
            row[2] += self_s
        total["neg_nH_S3_terms"] = max(total["neg_nH_S3_terms"], snap["neg_nH_S3_terms"])
        for key in ("integrated_steps", "lorentzian_points", "admissible_points"):
            total[key] += snap[key]
    return total
