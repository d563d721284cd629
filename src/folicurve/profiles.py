"""Rotationally symmetric CMC profile generation and closed-loop validation.

A rotational profile keeps the hyperbolic center fixed at height K, so
k = sqrt(K^2 + r^2) and k k' = r r' identically.  Under that constraint the
quadratic and linear bracket coefficients vanish and the cubic coefficient
alone carries the curvature:  sign_branch * n H * F^{3/2} = c3,  with
F = r^2 + k'^2 (Riemannian) or k'^2 - r^2 (Lorentzian, positive exactly on
spacelike leaves).  c3 is linear in k'', which is how r'' is recovered.

The ODE right-hand side is never transcribed by hand: it is obtained by
splitting the verified symbolic c3 into its k''-linear part at first use.
"""

from __future__ import annotations

import csv
import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache

from .geometry import DegenerateNormal, ScanReport, StepUnstable, constancy_scan
from .identity import (GeometrySignature, InvalidSphere, RIEMANNIAN, bracket_cubic,
                       verify_squared_identity)
from .symexpr import KAP1, RHO, RHO1, RHO2, Indeterminate, SymExpr

R_MIN = 1e-6
STEP_ERROR_LIMIT = 1e-8
DKDT_LIMIT = 1e-8


class ValidationFailed(ValueError):
    """Closed-loop validation found a leaf off the target curvature."""


def apply_rotational_constraint(p: SymExpr) -> SymExpr:
    """Rewrite modulo k k' = r r' and its t-derivative k k'' = r'^2 + r r'' - k'^2.

    Each pass replaces one KAP*KAP2 or KAP*KAP1 pair per monomial; reaching a
    fixed point of 0 certifies membership in the constraint ideal.
    """
    second = RHO1 ** 2 + RHO * RHO2 - KAP1 ** 2
    first = RHO * RHO1
    current = p
    while True:
        out = SymExpr()
        changed = False
        for exps, coeff in current.terms():
            e_k = exps[Indeterminate.KAP]
            e_k1 = exps[Indeterminate.KAP1]
            e_k2 = exps[Indeterminate.KAP2]
            if e_k >= 1 and e_k2 >= 1:
                rule, i_other = second, Indeterminate.KAP2
            elif e_k >= 1 and e_k1 >= 1:
                rule, i_other = first, Indeterminate.KAP1
            else:
                out = out + SymExpr.monomial(coeff, dict(zip(Indeterminate, exps)))
                continue
            reduced = list(exps)
            reduced[Indeterminate.KAP] -= 1
            reduced[i_other] -= 1
            out = out + SymExpr.monomial(coeff, dict(zip(Indeterminate, reduced))) * rule
            changed = True
        current = out
        if not changed:
            return current


@lru_cache(maxsize=None)
def _ode_form(sig: GeometrySignature) -> tuple[SymExpr, SymExpr]:
    """(k''-coefficient, remainder) of the verified cubic c3; gates on the
    squared identity and on the rotational c2-vanishing lemma."""
    verify_squared_identity(sig)
    cubic = bracket_cubic(sig)
    if not apply_rotational_constraint(cubic.c2).is_zero:
        raise AssertionError(f"c2 does not vanish under the rotational constraint ({sig.label})")
    lead = cubic.c3.coeff_of(Indeterminate.KAP2, 1)
    rest = cubic.c3.coeff_of(Indeterminate.KAP2, 0)
    return lead, rest


def admissibility_factor(r: float, k1: float, sig: GeometrySignature) -> float:
    return r * r + k1 * k1 if sig is RIEMANNIAN else k1 * k1 - r * r


def cmc_rhs(
    r: float,
    r1: float,
    K: float,
    H: float,
    n: int,
    sig: GeometrySignature,
    sign_branch: int = -1,
) -> float:
    """r'' from sign_branch * n H * F^{3/2} = c3 with the k-jet eliminated.

    sign_branch = -1 matches the orientation N = -grad f/|grad f| (a generated
    profile then measures H equal to the target); +1 generates the mirror.
    """
    if K <= 0:
        raise ValueError(f"K must be positive, got {K}")
    if sign_branch not in (-1, 1):
        raise ValueError("sign_branch must be +1 or -1")
    if r <= 1e-12:
        raise InvalidSphere(f"r = {r}")
    k = math.hypot(K, r)
    k1 = r * r1 / k
    factor = admissibility_factor(r, k1, sig)
    if sig is not RIEMANNIAN and factor <= 0:
        raise DegenerateNormal(f"k'^2 - r^2 = {factor} at r={r}, r'={r1}")
    lead_expr, rest_expr = _ode_form(sig)
    # dense bindings in Indeterminate order: X, KAP, KAP1, KAP2, RHO, RHO1, RHO2, SIG, NU
    bindings = [None, k, k1, None, r, r1, None, None, float(n)]
    lead = lead_expr.eval_numeric(bindings)  # = -r^2
    if abs(lead) < 1e-24:
        raise InvalidSphere(f"lead coefficient {lead} at r={r}")
    rest = rest_expr.eval_numeric(bindings)
    target = sign_branch * n * H * factor * math.sqrt(factor)
    k2 = (target - rest) / lead
    return (k * k2 + k1 * k1 - r1 * r1) / r


@dataclass(frozen=True)
class ProfileRow:
    t: float
    r: float
    r1: float
    k: float
    k1: float


@dataclass(frozen=True)
class RotationalProfile:
    """Sampled rotational profile with constant hyperbolic center K."""

    K: float
    H_target: float
    n: int
    sig: GeometrySignature
    rows: list[ProfileRow] = field(repr=False)
    halted: str | None = None

    def to_csv(self, path: str) -> None:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["t", "r", "r1", "k", "k1", "K_check"])
            for row in self.rows:
                k_check = math.sqrt(row.k ** 2 - row.r ** 2)
                writer.writerow([repr(row.t), repr(row.r), repr(row.r1),
                                 repr(row.k), repr(row.k1), repr(k_check)])

    def to_json(self) -> str:
        return json.dumps(
            {
                "K": self.K,
                "H_target": self.H_target,
                "n": self.n,
                "signature": self.sig.label,
                "halted": self.halted,
                "rows": [
                    {"t": row.t, "r": row.r, "r1": row.r1, "k": row.k, "k1": row.k1}
                    for row in self.rows
                ],
            }
        )


def _row(t: float, r: float, r1: float, K: float) -> ProfileRow:
    k = math.hypot(K, r)
    return ProfileRow(t=t, r=r, r1=r1, k=k, k1=r * r1 / k)


def integrate_profile(
    r0: float,
    r1_0: float,
    t_range: tuple[float, float],
    step: float,
    K: float,
    H: float,
    n: int,
    sig: GeometrySignature,
    sign_branch: int = -1,
) -> RotationalProfile:
    """Classical fixed-step RK4 on (r, r') with a step-doubling error monitor.

    Halts early (partial table, `halted` set) when r reaches R_MIN or the
    admissibility factor fails; raises StepUnstable if the local error
    estimate exceeds STEP_ERROR_LIMIT.
    """
    if r0 <= 0:
        raise ValueError(f"r0 must be positive, got {r0}")
    if not 0 < step <= 1e-2:
        raise ValueError(f"step must lie in (0, 1e-2], got {step}")
    t0, t1 = t_range
    if t0 == t1:
        raise ValueError("empty integration range")

    def rhs(y: tuple[float, float]) -> tuple[float, float]:
        return y[1], cmc_rhs(y[0], y[1], K, H, n, sig, sign_branch)

    def rk4(y: tuple[float, float], h: float, k1: tuple[float, float]) -> tuple[float, float]:
        k2 = rhs((y[0] + 0.5 * h * k1[0], y[1] + 0.5 * h * k1[1]))
        k3 = rhs((y[0] + 0.5 * h * k2[0], y[1] + 0.5 * h * k2[1]))
        k4 = rhs((y[0] + h * k3[0], y[1] + h * k3[1]))
        return (
            y[0] + h / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]),
            y[1] + h / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]),
        )

    span = abs(t1 - t0)
    direction = 1.0 if t1 > t0 else -1.0
    count = int(span / step + 1e-9)
    remainder = span - count * step
    steps = [step] * count
    if remainder > 1e-12 * max(1.0, span):
        steps.append(remainder)

    t = t0
    y = (r0, r1_0)
    rows = [_row(t, y[0], y[1], K)]
    halted: str | None = None

    if y[0] <= R_MIN:
        halted = "r_min"
        steps = []

    for h_mag in steps:
        h = direction * h_mag
        try:
            # the full step and the first half step share their first stage
            k1 = rhs(y)
            full = rk4(y, h, k1)
            mid = rk4(y, h / 2, k1)
            half = rk4(mid, h / 2, rhs(mid))
        except (DegenerateNormal, InvalidSphere) as stop:
            halted = f"admissibility: {stop}"
            break
        except OverflowError as err:
            raise OverflowError(f"float overflow in the profile ODE at t={t}") from err
        estimate = max(abs(full[0] - half[0]), abs(full[1] - half[1])) / 15.0
        if estimate > STEP_ERROR_LIMIT:
            raise StepUnstable(f"local error estimate {estimate} at t={t}")
        y = full
        t += h
        if not (math.isfinite(y[0]) and math.isfinite(y[1])):
            halted = "diverged"
            break
        rows.append(_row(t, y[0], y[1], K))
        if y[0] <= R_MIN:
            halted = "r_min"
            break

    return RotationalProfile(K=K, H_target=H, n=n, sig=sig, rows=rows, halted=halted)


@lru_cache(maxsize=None)
def _lagrange_plan(width: int) -> tuple:
    """Index tuples of the Lagrange-derivative sums for `width` nodes: per node j,
    (j, the factor indices m of each product over p != j, the indices m != j)."""
    plan = []
    for j in range(width):
        others = tuple(m for m in range(width) if m != j)
        products = tuple(tuple(m for m in others if m != p) for p in others)
        plan.append((j, products, others))
    return tuple(plan)


def _lagrange_derivative(ts: list[float], ys: list[float], x: float) -> float:
    """Derivative at x of the interpolating polynomial through (ts, ys):
    sum_j y_j sum_{p != j} prod_{m != j, p} (x - t_m) / prod_{m != j} (t_j - t_m)."""
    offsets = [x - tm for tm in ts]
    total = 0.0
    for j, products, others in _lagrange_plan(len(ts)):
        num = 0.0
        for factors in products:
            prod = 1.0
            for m in factors:
                prod *= offsets[m]
            num += prod
        tj = ts[j]
        denom = 1.0
        for m in others:
            denom *= tj - ts[m]
        total += ys[j] * num / denom
    return total


class HermiteProfile:
    """Quintic-Hermite interpolant of a stored profile; exact at the nodes.

    Uses only the stored (r, r') samples: node second derivatives are
    estimated by five-point stencils on the r' sequence (so the closed loop
    never consults the generating equation), and the k-jet is recomputed from
    K so the rotational constraint holds exactly everywhere.
    """

    def __init__(self, profile: RotationalProfile):
        if len(profile.rows) < 2:
            raise ValueError("need at least two rows to interpolate")
        rows = sorted(profile.rows, key=lambda row: row.t)
        self.K = profile.K
        self.ts = [row.t for row in rows]
        self.rs = [row.r for row in rows]
        self.r1s = [row.r1 for row in rows]
        width = 5 if len(rows) >= 5 else len(rows)
        last = len(rows) - width
        self.r2s = []
        for i in range(len(rows)):
            lo = max(0, min(i - width // 2, last))
            window = slice(lo, lo + width)
            self.r2s.append(
                _lagrange_derivative(self.ts[window], self.r1s[window], self.ts[i])
            )

    def _segment(self, t: float) -> tuple[int, float, float]:
        i = bisect_right(self.ts, t) - 1
        i = max(0, min(i, len(self.ts) - 2))
        width = self.ts[i + 1] - self.ts[i]
        return i, (t - self.ts[i]) / width, width

    def _r_jet(self, t: float) -> tuple[float, float, float]:
        i, s, w = self._segment(t)
        r0, r1 = self.rs[i], self.rs[i + 1]
        d0, d1 = self.r1s[i] * w, self.r1s[i + 1] * w
        c0, c1 = self.r2s[i] * w * w, self.r2s[i + 1] * w * w
        s2 = s * s
        s3, s4, s5 = s2 * s, s2 * s2, s2 * s2 * s
        value = (
            (1 - 10 * s3 + 15 * s4 - 6 * s5) * r0
            + (s - 6 * s3 + 8 * s4 - 3 * s5) * d0
            + 0.5 * (s2 - 3 * s3 + 3 * s4 - s5) * c0
            + (10 * s3 - 15 * s4 + 6 * s5) * r1
            + (-4 * s3 + 7 * s4 - 3 * s5) * d1
            + 0.5 * (s3 - 2 * s4 + s5) * c1
        )
        slope = (
            (-30 * s2 + 60 * s3 - 30 * s4) * r0
            + (1 - 18 * s2 + 32 * s3 - 15 * s4) * d0
            + 0.5 * (2 * s - 9 * s2 + 12 * s3 - 5 * s4) * c0
            + (30 * s2 - 60 * s3 + 30 * s4) * r1
            + (-12 * s2 + 28 * s3 - 15 * s4) * d1
            + 0.5 * (3 * s2 - 8 * s3 + 5 * s4) * c1
        ) / w
        curve = (
            (-60 * s + 180 * s2 - 120 * s3) * r0
            + (-36 * s + 96 * s2 - 60 * s3) * d0
            + 0.5 * (2 - 18 * s + 36 * s2 - 20 * s3) * c0
            + (60 * s - 180 * s2 + 120 * s3) * r1
            + (-24 * s + 84 * s2 - 60 * s3) * d1
            + 0.5 * (6 * s - 24 * s2 + 20 * s3) * c1
        ) / (w * w)
        return value, slope, curve

    def jet_values(self, t: float) -> tuple[float, float, float, float, float, float]:
        r, r1, r2 = self._r_jet(t)
        k = math.hypot(self.K, r)
        k1 = r * r1 / k
        k2 = (r1 * r1 + r * r2 - k1 * k1) / k
        return k, k1, k2, r, r1, r2


def validate_profile(
    profile: RotationalProfile, samples: int = 50, tol: float = 1e-5
) -> ScanReport:
    """Closed loop: rescan the interpolated profile and check H against the target.

    Scans at least one leaf per stored row so a fault at any single node is
    always sampled; `samples` only raises the density beyond that.
    """
    if len(profile.rows) < 2:
        raise ValidationFailed("profile has fewer than two rows")
    interpolant = HermiteProfile(profile)
    t_lo, t_hi = interpolant.ts[0], interpolant.ts[-1]
    leaves = max(samples, len(profile.rows))
    report = constancy_scan(interpolant, (t_lo, t_hi), profile.n, profile.sig, leaves)
    worst_t, worst_dev = None, 0.0
    for row in report.rows:
        if row.H is None:
            raise ValidationFailed(f"non-spacelike leaf at t={row.t}")
        dev = abs(row.H - profile.H_target)
        if dev > worst_dev:
            worst_t, worst_dev = row.t, dev
    if worst_dev > tol:
        raise ValidationFailed(
            f"|H - H_target| = {worst_dev} at t={worst_t} exceeds {tol}"
        )
    if report.max_dKdt > DKDT_LIMIT:
        raise ValidationFailed(f"max |dK/dt| = {report.max_dKdt} exceeds {DKDT_LIMIT}")
    return report
