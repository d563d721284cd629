"""Mean-curvature expansion for sphere-foliated level sets in the two product metrics.

The hypersurface is the zero set of
    f(x_1..x_n, t) = sum_{i<n} x_i^2 + (x_n - k(t))^2 - r(t)^2
inside (upper half-space hyperbolic n-space) x R carrying ds^2 + eps dt^2.
With the orientation N = -grad f/|grad f| one has  n H = -div(grad f/|grad f|).

This module rebuilds P = -nH*S^3 (S = |grad f|/2, reduced to the level set)
from first principles as an exact polynomial, and proves P = s*Q for one global
sign s = +-1, Q the closed-form cubic bracket c3*X^3 + c2*X^2 + c1*X.  That
gives the squared identity P^2 = Q^2 that drives the rigidity conclusions: the
degree-0 coefficient forces  n^2 H^2 (r r' - k k')^6 = 0  and the degree-2
coefficient forces  k (n-2) (r r' - k k')^2 = 0.  When neither sign holds, the
IdentityViolation carries the residual P^2 - Q^2.

It holds every exact lemma and the `verify --mutate` hook; no other module
raises IdentityViolation.  The lemmas of the rotational ODE form are membership
claims in the ideal of the constraint g = k k' - r r' and its t-derivative g':
each is proved by explicit cofactors of g and g', checked by ring equality.
It also holds every float formula on a profile's jet that `geometry` and
`profiles` evaluate: each is a plain function of its inputs, proved here on
the ring's generators.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
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
    x_pow,
)

class IdentityViolation(Exception):
    """An exact lemma of this module fails.  When P equals neither Q nor -Q,
    `residual` is the text of P^2 - Q^2; every other lemma leaves it None."""

    def __init__(self, message: str, residual: str | None = None):
        super().__init__(message)
        self.residual = residual


class GeometrySignature(enum.Enum):
    RIEMANNIAN = 1
    LORENTZIAN = -1

    # Members are singletons compared by identity, so hashing by identity agrees
    # with equality, and the per-point cache lookups keyed by a signature skip
    # the Python-level Enum.__hash__.
    __hash__ = object.__hash__

    def __init__(self, epsilon: int):
        self.epsilon = epsilon  # a plain attribute: cmc_rhs reads it on every call

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


# -- the jet formulas: each proved below on the generators, and evaluated on floats

def jet_A(x, k, k1, r, r1):
    """A = (x_n - k) k' + r r' = -f_t / 2, the t-slot of the half-gradient (up to sign)."""
    return (x - k) * k1 + r * r1


def s_squared_factored(eps, x, k, k1, r, r1):
    """S^2 on the leaf as A^2 + eps x_n^2 r^2 (`s_squared_reduced` proves it)."""
    a = jet_A(x, k, k1, r, r1)
    return a * a + eps * (x * r) ** 2


def admissibility_factor(eps, r, k1):
    """F = eps r^2 + k'^2, with S^2 = X^2 F under k k' = r r' (`rotational_ode_form`)."""
    return eps * (r * r) + k1 * k1


def k_times_k1(r, r1):
    """k k' = r r', the rotational constraint: g = k k' - r r' generates its ideal."""
    return r * r1


def k_times_k2(r, r1, r2, k1):
    """k k'' = r'^2 + r r'' - k'^2, its t-derivative: the ideal's second generator g'."""
    return r1 * r1 + r * r2 - k1 * k1


def r_times_r2(k, k1, k2, r1):
    """r r'' = k k'' + k'^2 - r'^2 under the constraint (`rotational_ode_form`)."""
    return k * k2 + k1 * k1 - r1 * r1


def half_dt_K_squared(k, k1, r, r1):
    """d/dt (k^2 - r^2) / 2 = k k' - r r', the numerator of dK/dt (`s_squared_reduced`)."""
    return k * k1 - r * r1


@lru_cache(maxsize=None)
def half_dt_f() -> SymExpr:
    """f_t / 2 of f = SIG + (X - k)^2 - r^2, the model's leaf function: -A."""
    return (SIG + (X - KAP) ** 2 - RHO ** 2).d_dt() / 2


@dataclass(frozen=True)
class CubicCoefficients:
    """X^3, X^2, X coefficients of the bracket cubic equal to -nH*S^3."""

    c3: SymExpr
    c2: SymExpr
    c1: SymExpr

    def assemble(self) -> SymExpr:
        return self.c3 * X ** 3 + self.c2 * X ** 2 + self.c1 * X


def s_squared_unreduced(sig: GeometrySignature) -> SymExpr:
    """S^2 = |grad f|^2 / 4 before level-set reduction: eps * spatial + (f_t / 2)^2."""
    spatial = X ** 2 * SIG + X ** 2 * (X - KAP) ** 2
    return sig.epsilon * spatial + half_dt_f() ** 2


def _prove(sig: GeometrySignature, *lemmas) -> None:
    """Raise the claim of the first lemma (claim, residual) whose residual, a
    thunk called in turn, is not the zero polynomial, as an IdentityViolation."""
    for claim, residual in lemmas:
        if not residual().is_zero:
            raise IdentityViolation(f"{claim} ({sig.label})")


@lru_cache(maxsize=None)
def s_squared_reduced(sig: GeometrySignature) -> SymExpr:
    """S^2 on the leaf, proved once equal to `s_squared_factored`, the form that
    `geometry.is_spacelike` evaluates; also proves `half_dt_K_squared`, the
    numerator of `geometry.dKdt_of_jet`."""
    s2 = s_squared_unreduced(sig).reduce_level_set()
    _prove(sig, ("S^2 on the leaf is not A^2 + eps x_n^2 r^2",
                 lambda: s2 - s_squared_factored(sig.epsilon, X, KAP, KAP1, RHO, RHO1)),
           ("d/dt (k^2 - r^2) is not 2 (k k' - r r')",
            lambda: (KAP ** 2 - RHO ** 2).d_dt() - 2 * half_dt_K_squared(KAP, KAP1, RHO, RHO1)))
    return s2


@lru_cache(maxsize=None)
def neg_nH_S3(sig: GeometrySignature) -> SymExpr:
    """The exact polynomial -nH*S^3 from the divergence of grad f/|grad f|.

    Each summand d_j(w_j/S) is written over S^3 via d_j S = d_j(S^2)/(2S),
    with w = (grad f)/2.  The tangential sum collapses through SIG with
    multiplicity nu-1; the volume-density term det(g) = x_n^{-2n} contributes
    -nu * X^{-1} * w_n * S^2; the result reduces modulo the level set.  Every
    coefficient of d_j(S^2) must be even, so that its half stays in the integer
    ring: an odd one is an IdentityViolation.
    """
    eps = sig.epsilon
    s2 = s_squared_unreduced(sig)
    w_normal = X ** 2 * (X - KAP)
    w_vertical = eps * half_dt_f()
    try:
        half_dX, half_dt = s2.d_dX() / 2, s2.d_dt() / 2
    except ArithmeticError:
        raise IdentityViolation(f"a derivative of S^2 has an odd coefficient ({sig.label})") from None

    tangential = (NU - 1) * X ** 2 * s2 - eps * x_pow(4) * SIG
    normal = w_normal.d_dX() * s2 - w_normal * half_dX
    vertical = w_vertical.d_dt() * s2 - w_vertical * half_dt
    density = -NU * x_pow(-1) * w_normal * s2

    total = (tangential + normal + vertical + density).reduce_level_set()
    _prove(sig, ("SIG survives the level-set reduction",
                 lambda: total - total.coeff_of(Indeterminate.SIG, 0)))
    return total


@lru_cache(maxsize=None)
def bracket_cubic(sig: GeometrySignature) -> CubicCoefficients:
    """Closed-form coefficients of the cubic, hand-expanded independently of
    the divergence pipeline.

    The signature enters only through the sign of the (nu-1) k r^2 term: the
    quadratic and linear coefficients coincide in both metrics.
    """
    eps = sig.epsilon
    c3 = (
        2 * RHO * RHO1 * KAP1
        + (NU - 2) * KAP * KAP1 ** 2
        + eps * (NU - 1) * KAP * RHO ** 2
        - RHO ** 2 * KAP2
    )
    c2 = (
        (KAP1 ** 2 + RHO1 ** 2 - RHO * RHO2 + KAP * KAP2) * RHO ** 2
        + 2 * (NU - 3) * KAP * KAP1 * RHO * RHO1
        - 2 * (NU - 2) * KAP1 ** 2 * KAP ** 2
    )
    c1 = KAP * (NU - 2) * (RHO * RHO1 - KAP * KAP1) ** 2
    return CubicCoefficients(c3=c3, c2=c2, c1=c1)


def mutated_bracket(sig: GeometrySignature, which: str) -> CubicCoefficients:
    """`verify --mutate`'s fault injection: bracket coefficient `which` minus KAP*RHO^2."""
    cubic = bracket_cubic(sig)
    return replace(cubic, **{which: getattr(cubic, which) - KAP * RHO ** 2})


def verify_squared_identity(
    sig: GeometrySignature, bracket: CubicCoefficients | None = None
) -> int:
    """Prove P = s*Q exactly for one global sign s = +-1, P the divergence
    expansion, Q the cubic; this gives P^2 = Q^2.

    Returns s (orientation N = -grad f/|grad f| only fixes it implicitly).  If
    neither sign matches, e.g. for a mutated or mistranscribed bracket, raises
    IdentityViolation with the residual P^2 - Q^2.
    """
    p = neg_nH_S3(sig)
    q = (bracket or bracket_cubic(sig)).assemble()
    if p == q:
        return 1
    if p == -q:
        return -1
    raise IdentityViolation(f"{sig.label} identity violated", (p * p - q * q).to_text())


@lru_cache(maxsize=None)
def rotational_ode_form(sig: GeometrySignature) -> tuple[SymExpr, SymExpr, int]:
    """(lead, rest, -s): c3 = lead k'' + rest and the branch of -s n H F^{3/2} = c3
    for a rotational profile.  First proves that c2, S^2 - X^2 F (F the
    `admissibility_factor`) and r r'' - `r_times_r2` lie in the ideal of g and g':
    each equals its stated combination of g and g' in the ring.  Then P = s Q."""
    cubic = bracket_cubic(sig)
    g = KAP * KAP1 - k_times_k1(RHO, RHO1)
    dg = KAP * KAP2 - k_times_k2(RHO, RHO1, RHO2, KAP1)
    _prove(sig, ("c2 does not vanish under the rotational constraint",
                 lambda: cubic.c2 - (RHO ** 2 * dg - 2 * (RHO * RHO1 + (NU - 2) * KAP * KAP1) * g)),
           ("S^2 is not X^2 F under the rotational constraint",
            lambda: s_squared_reduced(sig) - X ** 2 * admissibility_factor(sig.epsilon, RHO, KAP1)
            - g * (g - 2 * X * KAP1)),
           ("r r'' is not k k'' + k'^2 - r'^2 under the rotational constraint",
            lambda: RHO * RHO2 - r_times_r2(KAP, KAP1, KAP2, RHO1) + dg))
    branch = -verify_squared_identity(sig)
    return cubic.c3.coeff_of(Indeterminate.KAP2, 1), cubic.c3.coeff_of(Indeterminate.KAP2, 0), branch
