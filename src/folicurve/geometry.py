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

import json
import math
import sys
from dataclasses import dataclass, field, fields
from functools import lru_cache
from operator import mul
from typing import NamedTuple

from .identity import (GeometrySignature, LORENTZIAN, RIEMANNIAN, half_dt_K_squared, neg_nH_S3,
                       s_squared_factored, s_squared_reduced)

LEAF_TOL = 1e-9          # membership in the leaf sphere, widened by LEAF_ROUNDING * |k r|
LEAF_ROUNDING = 16 * sys.float_info.epsilon  # rounding of a point built on a leaf, per unit k r
DEGENERACY_TOL = 1e-14   # |S^2| below this is a degenerate normal
POINTS_PER_LEAF = 8      # sample points per leaf of a scan, unless asked otherwise
T_ROUNDING = 1e-6        # largest rounding of t +- step, relative to the step, that t may need

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class DegenerateNormal(ArithmeticError):
    """S^2 is not positive: the normal direction is degenerate or non-spacelike
    (a null gradient is the Lorentzian case S^2 = 0)."""


class InvalidSphere(ValueError):
    """Sphere data off the open half-space or not finite: a leaf's 2-jet or a
    profile row that fails k > r > 0 (require_sphere), a 2-jet with a
    non-finite entry (FoliationJet.require_valid); a center conversion whose
    input fails k > r > 0 or K, R > 0, or whose result is not a finite positive
    float (euclidean_to_hyperbolic, hyperbolic_to_euclidean); a leaf radius
    r <= 1e-12 in the profile ODE, whose lead term is -r^2 (profiles.cmc_rhs)."""


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
        require_sphere(self.t, self.k, self.r)
        jet = (self.k, self.k1, self.k2, self.r, self.r1, self.r2)
        if not all(map(math.isfinite, jet)):
            raise InvalidSphere(f"need a finite (k, k', k'', r, r', r'') at t={self.t}, got {jet}")


def require_sphere(t: float, k: float, r: float) -> None:
    """The leaf at t is a sphere in the open half-space: k > r > 0."""
    if not (k > r > 0):
        raise InvalidSphere(f"need k > r > 0 at t={t}, got k={k}, r={r}")


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


def _sum(values) -> float:
    """Left-to-right float sum.  Python 3.12 made the built-in sum() of floats
    compensated, which changes the last bits of a sum between versions; this
    adds in the order of the older sum(), so output bytes match on 3.10-3.13."""
    total = 0.0
    for value in values:
        total += value
    return total


def _require_on_leaf(p: SurfacePoint, k: float, r: float) -> None:
    """Reject a point off the leaf of center k and radius r by more than the
    rounding of a constructed point.

    Rounding x_n = k + r cos(theta) shifts x_n - k by about eps * k, so the
    residual of a point built on the leaf grows like eps * k * r.
    """
    res = p.x1 * p.x1 + (p.xn - k) ** 2 - r ** 2
    tol = LEAF_TOL + LEAF_ROUNDING * abs(k * r)
    if not abs(res) <= tol:  # a NaN residual fails too
        raise NotOnLeaf(f"leaf equation residual {res} at x_n={p.xn}, t={p.t}")


def mean_curvature_at(
    p: SurfacePoint, jet: FoliationJet, n: int, sig: GeometrySignature
) -> float:
    """H = -(-nH*S^3 value)/(n S^3) via the verified symbolic polynomial.

    The kernels overflow by multiplication, which raises nothing, so a
    non-finite S^2 or H raises OverflowError here."""
    k, r = jet.k, jet.r
    _require_on_leaf(p, k, r)
    # dense bindings in Indeterminate order: X, KAP, KAP1, KAP2, RHO, RHO1, RHO2, SIG, NU
    bindings = [p.xn, k, jet.k1, jet.k2, r, jet.r1, jet.r2, None, float(n)]
    s2 = s_squared_reduced(sig).eval_numeric(bindings)
    if s2 <= DEGENERACY_TOL:
        raise DegenerateNormal(f"S^2 = {s2} at x_n={p.xn} ({sig.label})")
    value = neg_nH_S3(sig).eval_numeric(bindings)
    h = -value / (n * s2 * math.sqrt(s2))
    if not (math.isfinite(s2) and math.isfinite(h)):
        raise OverflowError(f"S^2 = {s2}, H = {h} at x_n={p.xn} ({sig.label})")
    return h


def is_spacelike(p: SurfacePoint, jet: FoliationJet) -> bool:
    """Lorentzian test: grad f timelike on the leaf, i.e. the Lorentzian
    S^2 = A^2 - x_n^2 r^2 (`identity.s_squared_factored`, which
    `identity.s_squared_reduced` proves) is positive."""
    k, r = jet.k, jet.r
    _require_on_leaf(p, k, r)
    q = s_squared_factored(LORENTZIAN.epsilon, p.xn, k, jet.k1, r, jet.r1)
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
    f evaluations only.  Second-order accurate in h.

    It stays independent of the symbolic path: it reads the profile only
    through `k_value`/`r_value`, never through a jet or a `SymExpr`.  A
    divergence at step s reads the profile at seven heights, t, t +- s and
    (t +- s) +- s, each the float expression the plain stencil computes
    ((t + s) - s is its own height, not t).  Each height is evaluated once,
    when the stencil first reaches it, and every f value there reuses it:
    7 (k, r) pairs for one divergence, 13 with the Richardson check at h/2,
    which shares t.  Each flux takes f's (x_n - k)^2 and r^2 once, and the
    tangential |(x_1, ..., x_{n-1})|^2 of each neighbour from one list that
    it shifts in place.  The float operations and their order are those of
    the stencil that calls f at every neighbour, so the result is the same
    bits.

    The point must lie on the leaf at t (`NotOnLeaf` otherwise); an overflow
    is re-raised as an OverflowError that names t, x_n and h.  A t so large
    that t +- s rounds by more than T_ROUNDING of the finest step s (h, or
    h/2 with `tol`) is a ValueError: the divergence would see t differences
    of the wrong width.  With h = 1e-4 that rejects |t| from about 1e6 up,
    by design."""
    if not 1e-6 <= h <= 1e-2:
        raise ValueError(f"h must lie in [1e-6, 1e-2], got {h}")
    if tol is not None and not 0 < tol < math.inf:
        raise ValueError(f"tol must be a finite number > 0, got {tol}")
    if n < 2:
        raise ValueError(f"dimension must be at least 2, got {n}")
    if p.xn - h <= 0:
        raise ValueError(f"point too close to the half-space boundary for h={h}")
    finest = h if tol is None else h / 2
    rounding = math.ulp(abs(p.t) + 2 * h) / 2
    if rounding > T_ROUNDING * finest:
        raise ValueError(
            f"step {finest} is below the float resolution of t near {p.t}: t +- step rounds"
            f" by up to {rounding}, more than {T_ROUNDING} of the step"
        )

    eps = sig.epsilon

    def divergence(step: float) -> float:
        # (k, r) by height; a height is keyed by its path of +-step moves from t
        levels = {(): center}
        width = 2 * step

        def level(path: tuple) -> tuple[float, float]:
            if path not in levels:
                height = p.t
                for sign in path:
                    height = height + step if sign > 0 else height - step
                levels[path] = (profile.k_value(height), profile.r_value(height))
            return levels[path]

        def flux(y: list[float], m: int, path: tuple) -> float:
            """Component m of the weighted unit normal at y, whose height y[n]
            is the one `path` names.  Only the neighbours along x_1..x_{n-1}
            change the tangential part of f; the others reuse y's."""
            k, r = level(path)
            xn = y[n - 1]
            normal, radius = (xn - k) ** 2, r * r  # f = |tangential|^2 + normal - radius
            tangential = y[: n - 1]
            grad = []
            for j in range(n - 1):
                c = tangential[j]
                tangential[j] = c + step
                above = sum(map(mul, tangential, tangential)) + normal - radius
                tangential[j] = c - step
                below = sum(map(mul, tangential, tangential)) + normal - radius
                tangential[j] = c
                grad.append((above - below) / width)
            squares = sum(map(mul, tangential, tangential))
            grad.append((squares + (xn + step - k) ** 2 - radius
                         - (squares + (xn - step - k) ** 2 - radius)) / width)
            k_up, r_up = level(path + (1,))
            above = squares + (xn - k_up) ** 2 - r_up * r_up
            k_down, r_down = level(path + (-1,))
            grad.append((above - (squares + (xn - k_down) ** 2 - r_down * r_down)) / width)
            xx = xn * xn
            inner = 0.0
            for g in grad[:n]:
                inner += g * (xx * g)
            g = grad[n]
            inner += g * (eps * g)
            squared = inner if eps > 0 else -inner
            if squared <= 0:
                raise DegenerateNormal(f"gradient not admissible at t={y[n]} ({sig.label})")
            up = xx * grad[m] if m < n else eps * g
            return xn ** (-n) * up / math.sqrt(squared)

        base = [p.x1] + [0.0] * (n - 2) + [p.xn, p.t]
        total = 0.0
        for m in range(n + 1):
            yp = list(base); yp[m] += step
            ym = list(base); ym[m] -= step
            above, below = ((1,), (-1,)) if m == n else ((), ())
            total += (flux(yp, m, above) - flux(ym, m, below)) / width
        return p.xn ** n * total

    try:
        center = (profile.k_value(p.t), profile.r_value(p.t))
        _require_on_leaf(p, *center)
        div = divergence(h)
        fine = None if tol is None else divergence(h / 2)
    except OverflowError as err:
        raise OverflowError(f"float overflow in the stencil at t={p.t}, x_n={p.xn}, h={h}") from err
    if tol is not None:
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
    """d/dt sqrt(k^2 - r^2) = (k k' - r r') / sqrt(k^2 - r^2), the numerator
    `identity.half_dt_K_squared`."""
    return half_dt_K_squared(jet.k, jet.k1, jet.r, jet.r1) / math.sqrt(jet.k ** 2 - jet.r ** 2)


_CSV_FLAG = {None: "", True: "true", False: "false"}  # a row's spacelike field


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
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "rows"}

    def to_json(self) -> str:
        payload = self.summary()
        payload["rows"] = [row._asdict() for row in self.rows]
        return json.dumps(payload)

    def to_csv(self, path: str) -> None:
        """Write the rows as CSV, streamed one line at a time.

        The bytes are those of `csv.writer` (CRLF line ends, no field ever
        quoted): each field is a float repr, an empty string for None, or
        "true"/"false".  A leaf's rows share its `t` and `dKdt` float objects,
        so their reprs are formatted once and reused while a row holds those
        same objects.  The test is identity, never ==: -0.0 == 0.0 but their
        reprs differ."""

        def lines():
            yield ",".join(ScanRow._fields) + "\r\n"
            t = dkdt = lead = tail = None
            for row_t, x_n, h, row_dkdt, spacelike in self.rows:
                if row_t is not t or row_dkdt is not dkdt:
                    t, dkdt = row_t, row_dkdt
                    lead, tail = f"{t!r},", f",{dkdt!r},"
                yield (f"{lead}{x_n!r},{'' if h is None else repr(h)}"
                       f"{tail}{_CSV_FLAG[spacelike]}\r\n")

        with open(path, "w", newline="") as handle:
            handle.writelines(lines())


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
    s_squared_reduced(sig)  # proves the formulas of is_spacelike and dKdt_of_jet

    try:
        for t in ts:
            jet = FoliationJet.from_profile(profile, t)
            jet.require_valid()
            dkdt = dKdt_of_jet(jet)
            if not math.isfinite(dkdt):
                raise OverflowError(f"dK/dt = {dkdt}")
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

    mean_h = _sum(values) / len(values) if values else None
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
