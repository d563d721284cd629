"""Rotationally symmetric CMC profile generation and closed-loop validation.

A rotational profile keeps the hyperbolic center fixed at height K, so
k = sqrt(K^2 + r^2) and k k' = r r' identically.  Under that constraint the
quadratic and linear bracket coefficients vanish, S^2 = X^2 F, and the cubic
coefficient alone carries the curvature:  -s n H * F^{3/2} = c3,  with s the
verified global sign of P = s Q and F = eps r^2 + k'^2: r^2 + k'^2
(Riemannian) or k'^2 - r^2 (Lorentzian, positive exactly on spacelike
leaves).  c3 is linear in k'', which is how r'' is recovered.

Nothing here is transcribed by hand: the ODE right-hand side is the k''-linear
split of the verified c3, which `identity.rotational_ode_form` proves and
returns, and every formula on the k- and r-jets (F, k k', k k'', r r'') is an
`identity` function that the same lemmas prove.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from functools import lru_cache
from typing import NamedTuple

from .geometry import (
    T_ROUNDING,
    DegenerateNormal,
    InvalidSphere,
    ScanReport,
    StepUnstable,
    constancy_scan,
    require_sphere,
)
from .identity import (GeometrySignature, admissibility_factor, k_times_k1, k_times_k2,
                       r_times_r2, rotational_ode_form)

R_MIN = 1e-6
STEP_ERROR_LIMIT = 1e-8
DKDT_LIMIT = 1e-8
H_TOL = 1e-5  # largest |H - H_target| the closed loop accepts


class ValidationFailed(ValueError):
    """Closed-loop validation found a leaf off the target curvature."""


def cmc_rhs(
    r: float,
    r1: float,
    K: float,
    H: float,
    n: int,
    sig: GeometrySignature,
) -> float:
    """r'' from -s n H * F^{3/2} = c3 with the k-jet eliminated.

    The branch -s comes from the verified identity P = s Q, so a generated
    profile measures H equal to the target under the orientation
    N = -grad f/|grad f|; the mirror orientation is the target -H.  F, k' and
    r'' are `identity`'s proved formulas; F can fail to be positive only in
    the Lorentzian metric (k'^2 - r^2), since r > 1e-12.
    """
    if K <= 0:
        raise ValueError(f"K must be positive, got {K}")
    if n < 2:
        raise ValueError(f"dimension must be at least 2, got {n}")
    if r <= 1e-12:
        raise InvalidSphere(f"r = {r}")
    k = math.hypot(K, r)
    k1 = k_times_k1(r, r1) / k
    factor = admissibility_factor(sig.epsilon, r, k1)
    if factor <= 0:
        raise DegenerateNormal(f"k'^2 - r^2 = {factor} at r={r}, r'={r1}")
    lead_expr, rest_expr, branch = rotational_ode_form(sig)
    # dense bindings in Indeterminate order: X, KAP, KAP1, KAP2, RHO, RHO1, RHO2, SIG, NU
    bindings = [None, k, k1, None, r, r1, None, None, float(n)]
    lead = lead_expr.eval_numeric(bindings)  # = -r^2, nonzero since r > 1e-12
    rest = rest_expr.eval_numeric(bindings)
    target = branch * n * H * factor * math.sqrt(factor)
    k2 = (target - rest) / lead
    return r_times_r2(k, k1, k2, r1) / r


class ProfileRow(NamedTuple):
    t: float
    r: float
    r1: float
    k: float
    k1: float


class RotationalProfile(NamedTuple):
    """Sampled rotational profile with constant hyperbolic center K."""

    K: float
    H_target: float
    n: int
    sig: GeometrySignature
    rows: list[ProfileRow]
    halted: str | None = None

    def to_csv(self, path: str) -> None:
        """Write the rows as CSV, streamed as `ScanReport.to_csv` writes its own.

        `K_check` = sqrt(k^2 - r^2) is recomputed from the stored k and r, so it
        shows K only as far as k = hypot(K, r) keeps K's digits: once K/r nears
        1e-8, k lies one ulp from r and the column shows that rounding."""

        def lines():
            yield "t,r,r1,k,k1,K_check\r\n"
            for row in self.rows:
                k_check = math.sqrt(row.k ** 2 - row.r ** 2)
                yield f"{row.t!r},{row.r!r},{row.r1!r},{row.k!r},{row.k1!r},{k_check!r}\r\n"

        with open(path, "w", newline="") as handle:
            handle.writelines(lines())

    def to_json(self) -> str:
        return json.dumps(
            {
                "K": self.K,
                "H_target": self.H_target,
                "n": self.n,
                "signature": self.sig.label,
                "halted": self.halted,
                "rows": [row._asdict() for row in self.rows],
            }
        )


def _row(t: float, r: float, r1: float, K: float) -> ProfileRow:
    k = math.hypot(K, r)
    require_sphere(t, k, r)
    return ProfileRow(t=t, r=r, r1=r1, k=k, k1=k_times_k1(r, r1) / k)


def integrate_profile(
    r0: float,
    r1_0: float,
    t_range: tuple[float, float],
    step: float,
    K: float,
    H: float,
    n: int,
    sig: GeometrySignature,
) -> RotationalProfile:
    """Classical fixed-step RK4 on (r, r') with a step-doubling error monitor.

    Halts early (partial table, `halted` set) when r reaches R_MIN, at a row
    or at a stage inside a step, or when the admissibility factor fails; raises
    InvalidSphere for a row whose k = hypot(K, r) rounds to r, StepUnstable if
    the local error estimate exceeds STEP_ERROR_LIMIT, and OverflowError if a
    step's result is not finite or a stage overflows.  A row's t is the running
    sum t += h, so a range whose t the step cannot advance to within T_ROUNDING
    of the step (a step near the float spacing of t) is rejected with a
    ValueError, and a last remainder step that t cannot take by the same rule is
    dropped.
    """
    if r0 <= 0:
        raise ValueError(f"r0 must be positive, got {r0}")
    if not 0 < step <= 1e-2:
        raise ValueError(f"step must lie in (0, 1e-2], got {step}")
    t0, t1 = t_range
    if t0 == t1:
        raise ValueError("empty integration range")
    far = max(abs(t0), abs(t1))
    if math.ulp(far) / 2 > T_ROUNDING * step:
        raise ValueError(
            f"step {step} is below the float resolution of t near {far}: t += step rounds"
            f" by up to {math.ulp(far) / 2}, more than {T_ROUNDING} of the step"
        )
    if K <= 0:  # cmc_rhs's own checks, made before a halt at R_MIN could skip them
        raise ValueError(f"K must be positive, got {K}")
    if n < 2:
        raise ValueError(f"dimension must be at least 2, got {n}")

    def rhs(y: tuple[float, float]) -> tuple[float, float]:
        return y[1], cmc_rhs(y[0], y[1], K, H, n, sig)

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
    if remainder > 1e-12 * max(1.0, span) and math.ulp(far) / 2 <= T_ROUNDING * remainder:
        steps.append(remainder)

    t, y, rows = t0, (r0, r1_0), []
    for h_mag in [*steps, None]:  # each pass records the row at t, then steps from it
        rows.append(_row(t, y[0], y[1], K))
        halted = "r_min" if y[0] <= R_MIN else None
        if halted or h_mag is None:
            break
        h = direction * h_mag
        try:
            # the full step and the first half step share their first stage
            k1 = rhs(y)
            full = rk4(y, h, k1)
            mid = rk4(y, h / 2, k1)
            half = rk4(mid, h / 2, rhs(mid))
            # products overflow to inf silently, and a NaN estimate would pass every limit
            if not all(map(math.isfinite, full + half)):
                raise OverflowError
        except InvalidSphere:  # a stage's radius fell to the axis, below R_MIN
            halted = "r_min"
            break
        except DegenerateNormal as stop:
            halted = f"admissibility: {stop}"
            break
        except OverflowError as err:
            raise OverflowError(f"float overflow in the profile ODE at t={t}") from err
        estimate = max(abs(full[0] - half[0]), abs(full[1] - half[1])) / 15.0
        if estimate > STEP_ERROR_LIMIT:
            raise StepUnstable(f"local error estimate {estimate} at t={t}")
        y = full
        t += h

    return RotationalProfile(K=K, H_target=H, n=n, sig=sig, rows=rows, halted=halted)


@lru_cache(maxsize=None)
def _lagrange_stencil(width: int):
    """`stencil(ts, ys, x)`: the derivative at x of the polynomial through the
    `width` nodes (ts, ys), compiled as straight-line code on first use.

    It performs the float operations of the plain loop
        total = 0.0
        for each node j:
            num = 0.0 + sum over p != j of (1.0 * prod_{m != j, p} (x - t_m))
            denom = 1.0 * prod_{m != j} (t_j - t_m)
            total += y_j * num / denom
    in that order, so its result is the same bits.  Each x - t_m is taken
    once, and so is each product: two nodes share it (m runs over all but
    j and p), and the first names it with `:=`.
    """
    nodes = range(width)
    lines = [f"    {', '.join(f't{m}' for m in nodes)}, = ts"]
    lines += [f"    o{m} = x - t{m}" for m in nodes]
    lines.append("    total = 0.0")
    named: dict[tuple, str] = {}
    for j in nodes:
        others = [m for m in nodes if m != j]
        num = ["0.0"]
        for p in others:
            factors = tuple(m for m in others if m != p)
            if factors not in named:
                named[factors] = f"q{len(named)}"
                product = " * ".join(["1.0"] + [f"o{m}" for m in factors])
                num.append(f"({named[factors]} := {product})")
            else:
                num.append(named[factors])
        denom = " * ".join(["1.0"] + [f"(t{j} - t{m})" for m in others])
        lines += [f"    num = {' + '.join(num)}", f"    denom = {denom}",
                  f"    total += ys[{j}] * num / denom"]
    source = "def stencil(ts, ys, x):\n" + "\n".join(lines + ["    return total"])
    namespace = {}
    exec(source, namespace)
    return namespace["stencil"]


class HermiteProfile:
    """Quintic-Hermite interpolant of a stored profile; exact at the nodes.

    Uses only the stored (r, r') samples: node second derivatives are
    estimated by five-point stencils on the r' sequence (so the closed loop
    never consults the generating equation), and the k-jet is recomputed from
    K so the rotational constraint holds exactly everywhere.  r and r' are the
    quintic's value and slope; r'' is the slope of the cubic Hermite
    interpolant of r' with those node second derivatives as its node slopes.
    The quintic's own second derivative would add terms of size |r| / w^2
    that cancel, so the rounding of the stored r would reach r'' as about
    60 eps |r| / w^2; from r' it is about eps |r'| / w.
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
        stencil = _lagrange_stencil(width)
        self.r2s = []
        for i in range(len(rows)):
            lo = max(0, min(i - width // 2, last))
            window = slice(lo, lo + width)
            self.r2s.append(stencil(self.ts[window], self.r1s[window], self.ts[i]))

    def _segment(self, t: float) -> tuple[int, float, float]:
        i = bisect_right(self.ts, t) - 1
        i = max(0, min(i, len(self.ts) - 2))
        width = self.ts[i + 1] - self.ts[i]
        return i, (t - self.ts[i]) / width, width

    def _r_jet(self, t: float) -> tuple[float, float, float]:
        i, s, w = self._segment(t)
        y0, y1 = self.rs[i], self.rs[i + 1]
        d0, d1 = self.r1s[i] * w, self.r1s[i + 1] * w
        c0, c1 = self.r2s[i] * w * w, self.r2s[i + 1] * w * w
        s2 = s * s
        s3, s4, s5 = s2 * s, s2 * s2, s2 * s2 * s
        value = (
            (1 - 10 * s3 + 15 * s4 - 6 * s5) * y0
            + (s - 6 * s3 + 8 * s4 - 3 * s5) * d0
            + 0.5 * (s2 - 3 * s3 + 3 * s4 - s5) * c0
            + (10 * s3 - 15 * s4 + 6 * s5) * y1
            + (-4 * s3 + 7 * s4 - 3 * s5) * d1
            + 0.5 * (s3 - 2 * s4 + s5) * c1
        )
        slope = (
            (-30 * s2 + 60 * s3 - 30 * s4) * y0
            + (1 - 18 * s2 + 32 * s3 - 15 * s4) * d0
            + 0.5 * (2 * s - 9 * s2 + 12 * s3 - 5 * s4) * c0
            + (30 * s2 - 60 * s3 + 30 * s4) * y1
            + (-12 * s2 + 28 * s3 - 15 * s4) * d1
            + 0.5 * (3 * s2 - 8 * s3 + 5 * s4) * c1
        ) / w
        curve = ((6 * s - 6 * s2) * (self.r1s[i + 1] - self.r1s[i])
                 + (1 - 4 * s + 3 * s2) * self.r2s[i] * w
                 + (-2 * s + 3 * s2) * self.r2s[i + 1] * w) / w
        return value, slope, curve

    def jet_values(self, t: float) -> tuple[float, float, float, float, float, float]:
        r, r1, r2 = self._r_jet(t)
        k = math.hypot(self.K, r)
        k1 = k_times_k1(r, r1) / k
        k2 = k_times_k2(r, r1, r2, k1) / k
        return k, k1, k2, r, r1, r2


def validate_profile(profile: RotationalProfile, samples: int = 50) -> ScanReport:
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
    if worst_dev > H_TOL:
        raise ValidationFailed(
            f"|H - H_target| = {worst_dev} at t={worst_t} exceeds {H_TOL}"
        )
    if report.max_dKdt > DKDT_LIMIT:
        raise ValidationFailed(f"max |dK/dt| = {report.max_dKdt} exceeds {DKDT_LIMIT}")
    return report
