"""Numeric layer: center conversions, pointwise mean curvature, spacelike tests,
and constancy scans over a foliated hypersurface.

Profiles are duck-typed.  A scan needs only jet_values(t) -> (k, k', k'', r,
r', r'') (see exprlang.ProfileFunctions and profiles.HermiteProfile); only the
finite-difference oracle also needs k_value(t) and r_value(t).

Orientation convention: H is reported for the unit normal N = -grad f/|grad f|
with f increasing outward from the leaf center.  Under this convention a
vertical cylinder over a geodesic sphere of hyperbolic radius R has
H = -(n-1) coth(R) / n.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

from .identity import (
    GeometrySignature,
    InvalidSphere,
    RIEMANNIAN,
    neg_nH_S3,
    s_squared_reduced,
)

LEAF_TOL = 1e-9          # membership in the leaf sphere, widened by LEAF_ROUNDING * |k r|
LEAF_ROUNDING = 16 * sys.float_info.epsilon  # rounding of a point built on a leaf, per unit k r
DEGENERACY_TOL = 1e-14   # |S^2| below this is a degenerate normal
POINTS_PER_LEAF = 8      # sample points per leaf of a scan, unless asked otherwise

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class DegenerateNormal(ArithmeticError):
    """S^2 is not positive: the normal direction is degenerate or non-spacelike
    (a null gradient is the Lorentzian case S^2 = 0)."""


class NotOnLeaf(ValueError):
    """Point fails the leaf equation beyond tolerance."""


class StepUnstable(ArithmeticError):
    """A step's error estimate (finite-difference truncation, or RK4 step
    doubling) exceeds its limit."""


@dataclass(frozen=True)
class FoliationJet:
    """2-jet of the Euclidean center/radius profile at height t."""

    t: float
    k: float
    k1: float
    k2: float
    r: float
    r1: float
    r2: float

    @classmethod
    def from_profile(cls, profile, t: float) -> "FoliationJet":
        k, k1, k2, r, r1, r2 = profile.jet_values(t)
        return cls(t=t, k=k, k1=k1, k2=k2, r=r, r1=r1, r2=r2)

    def require_valid(self) -> None:
        if not (self.k > self.r > 0):
            raise InvalidSphere(f"need k > r > 0 at t={self.t}, got k={self.k}, r={self.r}")
        jet = (self.k, self.k1, self.k2, self.r, self.r1, self.r2)
        if not all(map(math.isfinite, jet)):
            raise InvalidSphere(f"need a finite (k, k', k'', r, r', r'') at t={self.t}, got {jet}")

    def bindings(self, n: int, x: float) -> list:
        """Dense `eval_numeric` bindings of the jet in dimension n at X = x: one
        slot per `Indeterminate`, in its order, with SIG unbound (None)."""
        return [x, self.k, self.k1, self.k2, self.r, self.r1, self.r2, None, float(n)]


class SurfacePoint(NamedTuple):
    """A point at height t as x1 = |(x_1, ..., x_{n-1})| and x_n: every quantity
    computed here is invariant under rotations of the tangential coordinates.

    A named tuple, so that the scan builds one per point cheaply; it compares
    equal to any tuple with the same (x1, xn, t)."""

    x1: float
    xn: float
    t: float


def euclidean_to_hyperbolic(k: float, r: float) -> tuple[float, float]:
    """(K, R) with K = sqrt(k^2 - r^2), R = ln((k+r)/(k-r)) / 2.

    Evaluated as K = sqrt((k-r)(k+r)) and R = log1p(2r/(k-r)) / 2, so that both
    stay within a few ulp for every r/k in (0, 1); the quotient (k+r)/(k-r)
    would round a tiny r/k away.
    """
    if r <= 0 or k <= r:
        raise InvalidSphere(f"need k > r > 0, got k={k}, r={r}")
    K, R = math.sqrt((k - r) * (k + r)), 0.5 * math.log1p(2 * r / (k - r))
    if not (0 < K < math.inf and 0 < R < math.inf):
        raise InvalidSphere(f"k={k}, r={r} give K={K}, R={R}: not finite positive floats")
    return K, R


def hyperbolic_to_euclidean(K: float, R: float) -> tuple[float, float]:
    """Inverse conversion: (k, r) with k = K cosh R, r = K sinh R."""
    if K <= 0 or R <= 0:
        raise InvalidSphere(f"need K > 0 and R > 0, got K={K}, R={R}")
    try:
        k, r = K * math.cosh(R), K * math.sinh(R)
    except OverflowError:
        raise InvalidSphere(f"K={K}, R={R}: cosh(R) overflows a float") from None
    if not (0 < k < math.inf and 0 < r < math.inf):
        raise InvalidSphere(f"K={K}, R={R} give k={k}, r={r}: not finite positive floats")
    return k, r


def leaf_residual(p: SurfacePoint, jet: FoliationJet) -> float:
    return p.x1 * p.x1 + (p.xn - jet.k) ** 2 - jet.r ** 2


def _require_on_leaf(p: SurfacePoint, jet: FoliationJet) -> None:
    """Reject a point off the leaf by more than the rounding of a constructed point.

    Rounding x_n = k + r cos(theta) shifts x_n - k by about eps * k, so the
    residual of a point built on the leaf grows like eps * k * r.
    """
    res = leaf_residual(p, jet)
    tol = LEAF_TOL + LEAF_ROUNDING * abs(jet.k * jet.r)
    if abs(res) > tol:
        raise NotOnLeaf(f"leaf equation residual {res} at x_n={p.xn}, t={p.t}")


def vertical_slot(p: SurfacePoint, jet: FoliationJet) -> float:
    """A = (x_n - k) k' + r r' evaluated at the point."""
    return (p.xn - jet.k) * jet.k1 + jet.r * jet.r1


def mean_curvature_at(
    p: SurfacePoint, jet: FoliationJet, n: int, sig: GeometrySignature
) -> float:
    """H = -(-nH*S^3 value)/(n S^3) via the verified symbolic polynomial."""
    _require_on_leaf(p, jet)
    bindings = jet.bindings(n, p.xn)
    s2 = s_squared_reduced(sig).eval_numeric(bindings)
    if s2 <= DEGENERACY_TOL:
        raise DegenerateNormal(f"S^2 = {s2} at x_n={p.xn} ({sig.label})")
    value = neg_nH_S3(sig).eval_numeric(bindings)
    return -value / (n * s2 * math.sqrt(s2))


def is_spacelike(p: SurfacePoint, jet: FoliationJet) -> bool:
    """Lorentzian test: grad f timelike on the leaf, i.e. A^2 > x_n^2 r^2."""
    _require_on_leaf(p, jet)
    a = vertical_slot(p, jet)
    q = a * a - (p.xn * jet.r) ** 2
    if abs(q) <= DEGENERACY_TOL:
        raise DegenerateNormal(f"null gradient at x_n={p.xn}, t={p.t}")
    return q > 0


def mean_curvature_fd(
    p: SurfacePoint,
    profile,
    n: int,
    sig: GeometrySignature,
    h: float = 1e-4,
    tol: float | None = None,
) -> float:
    """Independent oracle: central differences of the divergence, from pointwise
    f evaluations only.  Second-order accurate in h."""
    if not 1e-6 <= h <= 1e-2:
        raise ValueError(f"h must lie in [1e-6, 1e-2], got {h}")
    if p.xn - h <= 0:
        raise ValueError(f"point too close to the half-space boundary for h={h}")

    eps = sig.epsilon

    def f(y: list[float]) -> float:
        k = profile.k_value(y[n])
        r = profile.r_value(y[n])
        tangential = sum(c * c for c in y[: n - 1])
        return tangential + (y[n - 1] - k) ** 2 - r * r

    def divergence(step: float) -> float:
        def flux(y: list[float]) -> list[float]:
            grad = []
            for m in range(n + 1):
                yp = list(y); yp[m] += step
                ym = list(y); ym[m] -= step
                grad.append((f(yp) - f(ym)) / (2 * step))
            xn = y[n - 1]
            up = [xn * xn * g for g in grad[:n]] + [eps * grad[n]]
            inner = sum(g * u for g, u in zip(grad, up))
            squared = inner if eps > 0 else -inner
            if squared <= 0:
                raise DegenerateNormal(f"gradient not admissible at t={y[n]} ({sig.label})")
            norm = math.sqrt(squared)
            weight = xn ** (-n)
            return [weight * u / norm for u in up]

        base = [p.x1] + [0.0] * (n - 2) + [p.xn, p.t]
        total = 0.0
        for m in range(n + 1):
            yp = list(base); yp[m] += step
            ym = list(base); ym[m] -= step
            total += (flux(yp)[m] - flux(ym)[m]) / (2 * step)
        return p.xn ** n * total

    div = divergence(h)
    if tol is not None:
        fine = divergence(h / 2)
        estimate = abs(div - fine) / 3.0  # Richardson estimate for order 2
        if estimate > tol:
            raise StepUnstable(f"truncation estimate {estimate} exceeds {tol} at h={h}")
    return -div / n


@lru_cache(maxsize=1)
def _leaf_angles(count: int) -> tuple[tuple[float, float], ...]:
    """(cos theta, sin theta) of the golden-ratio angles of `count` leaf points.

    Every leaf of a scan samples the same angles, so the scan computes them
    once; only the last table is kept.
    """
    table = []
    for j in range(count):
        theta = math.pi * math.fmod((j + 0.5) * _GOLDEN, 1.0)
        table.append((math.cos(theta), math.sin(theta)))
    return tuple(table)


def leaf_points(jet: FoliationJet, n: int, count: int) -> list[SurfacePoint]:
    """Deterministic low-discrepancy sample of the leaf sphere: golden-ratio
    angles set x_n = k + r cos(theta) and x1 = r sin(theta), the same for any n."""
    if n < 2:
        raise ValueError(f"dimension must be at least 2, got {n}")
    k, r, t = jet.k, jet.r, jet.t
    points = []
    for cos, sin in _leaf_angles(count):
        points.append(SurfacePoint(r * sin, k + r * cos, t))
    return points


def dKdt_of_jet(jet: FoliationJet) -> float:
    """d/dt sqrt(k^2 - r^2) = (k k' - r r') / sqrt(k^2 - r^2)."""
    return (jet.k * jet.k1 - jet.r * jet.r1) / math.sqrt(jet.k ** 2 - jet.r ** 2)


class ScanRow(NamedTuple):
    """One scanned point: its leaf height t, its x_n, H (None where the point
    is not admissible), the leaf's dK/dt, and the Lorentzian spacelike flag
    (None in the Riemannian metric).  A named tuple, built once per point."""

    t: float
    x_n: float
    H: float | None
    dKdt: float
    spacelike: bool | None


@dataclass(frozen=True)
class ScanReport:
    signature: str
    n: int
    t_start: float
    t_end: float
    leaves: int
    points_per_leaf: int
    mean_H: float | None
    max_dev: float | None
    max_dKdt: float
    spacelike_fraction: float | None
    rows: list[ScanRow] = field(repr=False)

    def summary(self) -> dict:
        return {
            "signature": self.signature,
            "n": self.n,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "leaves": self.leaves,
            "points_per_leaf": self.points_per_leaf,
            "mean_H": self.mean_H,
            "max_dev": self.max_dev,
            "max_dKdt": self.max_dKdt,
            "spacelike_fraction": self.spacelike_fraction,
        }

    def to_json(self) -> str:
        payload = self.summary()
        payload["rows"] = [
            {"t": row.t, "x_n": row.x_n, "H": row.H, "dKdt": row.dKdt, "spacelike": row.spacelike}
            for row in self.rows
        ]
        return json.dumps(payload)

    def to_csv(self, path: str) -> None:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["t", "x_n", "H", "dKdt", "spacelike"])
            for row in self.rows:
                writer.writerow([
                    repr(row.t),
                    repr(row.x_n),
                    "" if row.H is None else repr(row.H),
                    repr(row.dKdt),
                    "" if row.spacelike is None else str(row.spacelike).lower(),
                ])


def constancy_scan(
    profile,
    t_range: tuple[float, float],
    n: int,
    sig: GeometrySignature,
    samples: int,
    points_per_leaf: int = POINTS_PER_LEAF,
) -> ScanReport:
    """Evaluate H on a leaves x points grid; report the constancy diagnostics."""
    if samples < 1:
        raise ValueError("samples must be positive")
    if points_per_leaf < 1:
        raise ValueError("points_per_leaf must be positive")
    t0, t1 = t_range
    ts = [t0 + (t1 - t0) * i / (samples - 1) for i in range(samples)] if samples > 1 else [t0]

    rows: list[ScanRow] = []
    values: list[float] = []
    max_dkdt = 0.0
    lorentzian = sig is not RIEMANNIAN

    try:
        for t in ts:
            jet = FoliationJet.from_profile(profile, t)
            jet.require_valid()
            dkdt = dKdt_of_jet(jet)
            max_dkdt = max(max_dkdt, abs(dkdt))
            for point in leaf_points(jet, n, points_per_leaf):
                spacelike = h_val = None
                if lorentzian:
                    try:
                        spacelike = is_spacelike(point, jet)
                    except DegenerateNormal:
                        spacelike = False
                if spacelike is not False:
                    h_val = mean_curvature_at(point, jet, n, sig)
                    values.append(h_val)
                rows.append(ScanRow(t, point.xn, h_val, dkdt, spacelike))
    except OverflowError as err:
        raise OverflowError(f"float overflow on the leaf at t={t}") from err

    mean_h = sum(values) / len(values) if values else None
    max_dev = max(abs(v - mean_h) for v in values) if values else None
    fraction = sum(1 for row in rows if row.spacelike) / len(rows) if lorentzian else None
    return ScanReport(
        signature=sig.label,
        n=n,
        t_start=t0,
        t_end=t1,
        leaves=len(ts),
        points_per_leaf=points_per_leaf,
        mean_H=mean_h,
        max_dev=max_dev,
        max_dKdt=max_dkdt,
        spacelike_fraction=fraction,
        rows=rows,
    )
