"""Mean-curvature expansion for sphere-foliated level sets in the two product metrics.

The hypersurface is the zero set of
    f(x_1..x_n, t) = sum_{i<n} x_i^2 + (x_n - k(t))^2 - r(t)^2
inside (upper half-space hyperbolic n-space) x R carrying ds^2 + eps dt^2.
With the orientation N = -grad f/|grad f| one has  n H = -div(grad f/|grad f|).

This module rebuilds -nH*S^3 (S = |grad f|/2, reduced to the level set) from
first principles as an exact polynomial, and checks it against the closed-form
cubic bracket c3*X^3 + c2*X^2 + c1*X whose square drives the rigidity
conclusions: the degree-0 coefficient forces  n^2 H^2 (r r' - k k')^6 = 0  and
the degree-2 coefficient forces  k (n-2) (r r' - k k')^2 = 0.
"""

from __future__ import annotations

import enum
import json
import time
from dataclasses import dataclass
from functools import lru_cache

from .symexpr import (
    KAP,
    KAP1,
    KAP2,
    NU,
    RHO,
    RHO1,
    RHO2,
    SIG,
    X,
    Indeterminate,
    SymExpr,
    rational,
    x_pow,
)

HALF = rational(1, 2)


class IdentityViolation(Exception):
    """The divergence expansion and the transcribed cubic disagree."""

    def __init__(self, message: str, report: "VerificationReport | None" = None):
        super().__init__(message)
        self.report = report


class InvalidSphere(ValueError):
    """Sphere data violates k > r > 0 (leaf leaves the open half-space)."""


class GeometrySignature(enum.Enum):
    RIEMANNIAN = 1
    LORENTZIAN = -1

    @property
    def epsilon(self) -> int:
        return self.value

    @property
    def label(self) -> str:
        return self.name.lower()

    @classmethod
    def from_label(cls, text: str) -> "GeometrySignature":
        try:
            return cls[text.upper()]
        except KeyError:
            raise ValueError(f"unknown signature {text!r}") from None


RIEMANNIAN = GeometrySignature.RIEMANNIAN
LORENTZIAN = GeometrySignature.LORENTZIAN


def jet_A() -> SymExpr:
    """A = (X - k) k' + r r', the t-slot of the half-gradient (up to sign)."""
    return (X - KAP) * KAP1 + RHO * RHO1


def jet_B() -> SymExpr:
    """B = k'^2 - (X - k) k'' - r'^2 - r r''; satisfies d_dt(A) = -B."""
    return KAP1 ** 2 - (X - KAP) * KAP2 - RHO1 ** 2 - RHO * RHO2


@dataclass(frozen=True)
class CubicCoefficients:
    """X^3, X^2, X coefficients of the bracket cubic equal to -nH*S^3."""

    c3: SymExpr
    c2: SymExpr
    c1: SymExpr

    def assemble(self) -> SymExpr:
        return self.c3 * X ** 3 + self.c2 * X ** 2 + self.c1 * X


@dataclass(frozen=True)
class VerificationReport:
    signature: str
    passed: bool
    sign: int | None
    residual_text: str
    elapsed_ms: float

    def to_json(self) -> str:
        return json.dumps(
            {
                "signature": self.signature,
                "pass": self.passed,
                "sign": self.sign,
                "residual_text": self.residual_text,
                "elapsed_ms": self.elapsed_ms,
            }
        )


def gradient_norm_sq(sig: GeometrySignature) -> SymExpr:
    """|grad f|^2 before level-set reduction (Lorentzian: -<grad f, grad f>)."""
    eps = sig.epsilon
    spatial = X ** 2 * SIG + X ** 2 * (X - KAP) ** 2
    return rational(4) * (rational(eps) * spatial + jet_A() ** 2)


def s_squared_unreduced(sig: GeometrySignature) -> SymExpr:
    return HALF * HALF * gradient_norm_sq(sig)


@lru_cache(maxsize=None)
def s_squared_reduced(sig: GeometrySignature) -> SymExpr:
    """S^2 on the leaf: eps * X^2 r^2 + A^2."""
    return s_squared_unreduced(sig).reduce_level_set()


@lru_cache(maxsize=None)
def neg_nH_S3(sig: GeometrySignature) -> SymExpr:
    """The exact polynomial -nH*S^3 from the divergence of grad f/|grad f|.

    Each summand d_j(w_j/S) is written over S^3 via d_j S = d_j(S^2)/(2S),
    with w = (grad f)/2.  The tangential sum collapses through SIG with
    multiplicity nu-1; the volume-density term det(g) = x_n^{-2n} contributes
    -nu * X^{-1} * w_n * S^2; the result reduces modulo the level set.
    """
    eps = sig.epsilon
    s2 = s_squared_unreduced(sig)
    w_normal = X ** 2 * (X - KAP)
    w_vertical = rational(-eps) * jet_A()

    tangential = (NU - 1) * X ** 2 * s2 - rational(eps) * x_pow(4) * SIG
    normal = w_normal.d_dX() * s2 - HALF * w_normal * s2.d_dX()
    vertical = w_vertical.d_dt() * s2 - HALF * w_vertical * s2.d_dt()
    density = rational(-1) * NU * x_pow(-1) * w_normal * s2

    total = (tangential + normal + vertical + density).reduce_level_set()
    assert Indeterminate.SIG not in total.indeterminates()
    return total


@lru_cache(maxsize=None)
def bracket_cubic(sig: GeometrySignature) -> CubicCoefficients:
    """Closed-form coefficients of the cubic, hand-expanded independently of
    the divergence pipeline.

    The signature enters only through the sign of the (nu-1) k r^2 term: the
    quadratic and linear coefficients coincide in both metrics.
    """
    eps = rational(sig.epsilon)
    c3 = (
        rational(2) * RHO * RHO1 * KAP1
        + (NU - 2) * KAP * KAP1 ** 2
        + eps * (NU - 1) * KAP * RHO ** 2
        - RHO ** 2 * KAP2
    )
    c2 = (
        (KAP1 ** 2 + RHO1 ** 2 - RHO * RHO2 + KAP * KAP2) * RHO ** 2
        + rational(2) * (NU - 3) * KAP * KAP1 * RHO * RHO1
        - rational(2) * (NU - 2) * KAP1 ** 2 * KAP ** 2
    )
    c1 = KAP * (NU - 2) * (RHO * RHO1 - KAP * KAP1) ** 2
    return CubicCoefficients(c3=c3, c2=c2, c1=c1)


def verify_squared_identity(
    sig: GeometrySignature, bracket: CubicCoefficients | None = None
) -> VerificationReport:
    """Check P^2 = Q^2 exactly, P the divergence expansion, Q the cubic.

    Also resolves the global sign s with P = s*Q (orientation N = -grad f/|grad f|
    only fixes it implicitly).  Raises IdentityViolation with the residual on
    any mismatch, e.g. for a mutated or mistranscribed bracket.
    """
    start = time.perf_counter()
    lemma = jet_A().d_dt() + jet_B()
    if not lemma.is_zero:
        raise IdentityViolation(f"d_dt(A) != -B, residual {lemma}")

    p = neg_nH_S3(sig)
    q = (bracket or bracket_cubic(sig)).assemble()
    residual = p * p - q * q
    elapsed = (time.perf_counter() - start) * 1000.0
    if not residual.is_zero:
        report = VerificationReport(sig.label, False, None, residual.to_text(), elapsed)
        raise IdentityViolation(f"{sig.label} identity violated", report)
    if (p - q).is_zero:
        sign = 1
    elif (p + q).is_zero:
        sign = -1
    else:  # impossible over an integral domain once P^2 = Q^2
        report = VerificationReport(sig.label, False, None, (p - q).to_text(), elapsed)
        raise IdentityViolation(f"{sig.label} has no global sign", report)
    return VerificationReport(sig.label, True, sign, "0", elapsed)


@lru_cache(maxsize=None)
def _residual_forms_verified(sig: GeometrySignature) -> bool:
    """Prove once that the factored residual formulas are the symbolic
    coefficients: the degree-0 coefficient of S^6 is (r r' - k k')^6 and the
    linear bracket coefficient is k (nu-2) (r r' - k k')^2."""
    gap = RHO * RHO1 - KAP * KAP1
    if (s_squared_reduced(sig) ** 3).coeff_of_X(0) != gap ** 6:
        raise IdentityViolation(f"degree-0 coefficient of S^6 is not gap^6 ({sig.label})")
    if bracket_cubic(sig).c1 != KAP * (NU - 2) * gap ** 2:
        raise IdentityViolation(f"linear bracket coefficient mismatch ({sig.label})")
    return True


def theorem_residuals(jet, H: float, n: int, sig: GeometrySignature) -> tuple[float, float]:
    """Numeric values of the two quantities the squared identity forces to zero:
    (n^2 H^2 (r r' - k k')^6,  k (n-2) (r r' - k k')^2).

    Evaluated in factored form (cancellation-free); the factored formulas are
    checked against the symbolic coefficients once per signature.
    """
    if n < 2:
        raise ValueError("dimension must be at least 2")
    if not (jet.k > jet.r > 0):
        raise InvalidSphere(f"need k > r > 0, got k={jet.k}, r={jet.r}")
    _residual_forms_verified(sig)
    gap = jet.r * jet.r1 - jet.k * jet.k1
    deg0 = (n * H) ** 2 * gap ** 6
    c1_val = jet.k * (n - 2) * gap ** 2
    return deg0, c1_val
