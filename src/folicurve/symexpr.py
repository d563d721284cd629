"""Exact multivariate Laurent-polynomial arithmetic over arbitrary-precision rationals.

Polynomials live in Q[nu][X^{-1}, X, KAP, KAP1, KAP2, RHO, RHO1, RHO2, SIG]:
the vertical coordinate X may carry negative exponents, every other
indeterminate is an ordinary polynomial variable.  KAP/RHO and their primed
companions model the 2-jet of a center/radius profile, SIG is the tangential
radius-squared, NU the (symbolic) ambient dimension.  Identities verified over
this ring hold for every integer dimension at once.

Each coefficient is stored in canonical form: a Python `int` when it is
integral, a `fractions.Fraction` only when its denominator exceeds 1.  The
verified polynomials have integer coefficients, so their arithmetic runs on
plain ints while staying exact; `hash(3) == hash(Fraction(3))` keeps equality
and hashing independent of the storage type.

All values are immutable; operations are pure and safe to share.
"""

from __future__ import annotations

import enum
import operator
from fractions import Fraction
from typing import Iterator, Mapping, Sequence


class JetOrderExceeded(Exception):
    """A formal t-derivative would require a third-order jet symbol."""


class MissingBinding(Exception):
    """eval_numeric was called without a value for a present indeterminate."""


class Indeterminate(enum.IntEnum):
    X = 0      # vertical half-space coordinate x_n; Laurent exponents allowed
    KAP = 1    # center height k(t)
    KAP1 = 2   # k'(t)
    KAP2 = 3   # k''(t)
    RHO = 4    # radius r(t)
    RHO1 = 5   # r'(t)
    RHO2 = 6   # r''(t)
    SIG = 7    # sum of the squared tangential coordinates
    NU = 8     # ambient dimension, kept symbolic


_N = len(Indeterminate)
_ZERO_EXPS = (0,) * _N

# t-derivative chain; KAP2/RHO2 have no successor (JetOrderExceeded).
_T_CHAIN = {
    Indeterminate.KAP: Indeterminate.KAP1,
    Indeterminate.KAP1: Indeterminate.KAP2,
    Indeterminate.RHO: Indeterminate.RHO1,
    Indeterminate.RHO1: Indeterminate.RHO2,
}
_T_BLOCKED = (Indeterminate.KAP2, Indeterminate.RHO2)


def _exact(value) -> int | Fraction:
    """The canonical coefficient: an int if `value` is integral, else a Fraction."""
    if type(value) is int:
        return value
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _coerce(value) -> "SymExpr":
    if isinstance(value, SymExpr):
        return value
    if isinstance(value, (int, Fraction)):
        return SymExpr._make({_ZERO_EXPS: _exact(value)} if value else {})
    return NotImplemented


def _canonical(raw: dict) -> dict:
    """Drop the zero coefficients of an accumulated term map and canonicalise the rest."""
    return {exps: _exact(c) for exps, c in raw.items() if c}


class SymExpr:
    """A finite map from exponent vectors to nonzero rational coefficients.

    Structural equality of the canonical term map is mathematical equality;
    zero is the empty map.
    """

    # _kernel: the compiled float evaluator, filled by the first eval_numeric.
    __slots__ = ("_terms", "_kernel")

    def __init__(self, terms: Mapping[tuple, int | Fraction] | None = None):
        pruned = {}
        if terms:
            for exps, coeff in terms.items():
                coeff = _exact(coeff)
                if coeff:
                    pruned[tuple(exps)] = coeff
        self._terms = pruned

    @classmethod
    def _make(cls, terms: dict) -> "SymExpr":
        # internal: terms already pruned and canonical
        obj = object.__new__(cls)
        obj._terms = terms
        return obj

    @classmethod
    def monomial(cls, coeff, exps: Mapping[Indeterminate, int]) -> "SymExpr":
        coeff = _exact(coeff)
        if not coeff:
            return ZERO
        vec = [0] * _N
        for ind, e in exps.items():
            if e < 0 and ind is not Indeterminate.X:
                raise ValueError(f"negative exponent only allowed for X, got {ind.name}^{e}")
            vec[ind] = e
        return cls._make({tuple(vec): coeff})

    # -- ring structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        # a constant equals its number (see __eq__), so it hashes like it
        if not self._terms.keys() - {_ZERO_EXPS}:
            return hash(self._terms.get(_ZERO_EXPS, 0))
        return hash(frozenset(self._terms.items()))

    def __add__(self, other) -> "SymExpr":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for exps, coeff in other._terms.items():
            acc = out.get(exps, 0) + coeff
            if acc:
                out[exps] = _exact(acc)
            else:
                out.pop(exps, None)
        return SymExpr._make(out)

    __radd__ = __add__

    def __neg__(self) -> "SymExpr":
        return SymExpr._make({exps: -c for exps, c in self._terms.items()})

    def __sub__(self, other) -> "SymExpr":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "SymExpr":
        return (-self) + other

    def __mul__(self, other) -> "SymExpr":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict = {}
        get = out.get
        add = operator.add
        for ea, ca in self._terms.items():
            for eb, cb in other._terms.items():
                exps = tuple(map(add, ea, eb))
                out[exps] = get(exps, 0) + ca * cb
        return SymExpr._make(_canonical(out))

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "SymExpr":
        if not isinstance(power, int) or power < 0:
            raise ValueError("SymExpr powers must be nonnegative integers")
        result = ONE
        base = self
        while power:
            if power & 1:
                result = result * base
            base = base * base
            power >>= 1
        return result

    # -- calculus ----------------------------------------------------------

    def d_dX(self) -> "SymExpr":
        """Formal partial derivative in X; every other indeterminate is constant."""
        out: dict = {}
        for exps, coeff in self._terms.items():
            e = exps[Indeterminate.X]
            if e == 0:
                continue
            new = list(exps)
            new[Indeterminate.X] = e - 1
            key = tuple(new)
            out[key] = out.get(key, 0) + coeff * e
        return SymExpr._make(_canonical(out))

    def d_dt(self) -> "SymExpr":
        """Formal t-derivative with the jet chain KAP->KAP1->KAP2, RHO->RHO1->RHO2.

        X and SIG are t-independent.  Raises JetOrderExceeded if the input
        contains KAP2 or RHO2 (their derivatives are third-order jets).
        """
        out: dict = {}
        for exps, coeff in self._terms.items():
            for blocked in _T_BLOCKED:
                if exps[blocked]:
                    raise JetOrderExceeded(
                        f"d_dt would need the derivative of {blocked.name}"
                    )
            for ind, succ in _T_CHAIN.items():
                e = exps[ind]
                if not e:
                    continue
                new = list(exps)
                new[ind] = e - 1
                new[succ] += 1
                key = tuple(new)
                out[key] = out.get(key, 0) + coeff * e
        return SymExpr._make(_canonical(out))

    # -- substitution and extraction ----------------------------------------

    def substitute(self, ind: Indeterminate, replacement: "SymExpr") -> "SymExpr":
        """Replace every power of `ind` by the corresponding power of `replacement`."""
        replacement = _coerce(replacement)
        powers: dict[int, SymExpr] = {0: ONE}
        out: dict = {}
        get = out.get
        add = operator.add
        for exps, coeff in self._terms.items():
            e = exps[ind]
            if e < 0:
                raise ValueError(f"cannot substitute into negative power of {ind.name}")
            if e not in powers:
                powers[e] = replacement ** e
            rest = list(exps)
            rest[ind] = 0
            for ep, cp in powers[e]._terms.items():
                key = tuple(map(add, rest, ep))
                out[key] = get(key, 0) + coeff * cp
        return SymExpr._make(_canonical(out))

    def reduce_level_set(self) -> "SymExpr":
        """Eliminate SIG via the leaf relation SIG = RHO^2 - (X - KAP)^2; idempotent."""
        return self.substitute(Indeterminate.SIG, _SIG_RULE)

    def coeff_of(self, ind: Indeterminate, degree: int) -> "SymExpr":
        out: dict = {}
        for exps, coeff in self._terms.items():
            if exps[ind] != degree:
                continue
            new = list(exps)
            new[ind] = 0
            out[tuple(new)] = coeff
        return SymExpr._make(out)

    def coeff_of_X(self, degree: int) -> "SymExpr":
        """The coefficient of X^degree, free of X."""
        return self.coeff_of(Indeterminate.X, degree)

    def indeterminates(self) -> set[Indeterminate]:
        used = set()
        for exps in self._terms:
            for ind in Indeterminate:
                if exps[ind]:
                    used.add(ind)
        return used

    def terms(self) -> Iterator[tuple[tuple, int | Fraction]]:
        """(exponent vector, coefficient) pairs; coefficients in canonical form."""
        return iter(self._terms.items())


    # -- numeric evaluation --------------------------------------------------

    def eval_numeric(
        self, bindings: Mapping[Indeterminate, float] | Sequence[float | None]
    ) -> float:
        """IEEE-double evaluation; rational coefficients convert at the last step.

        `bindings` is either a mapping keyed by `Indeterminate` or a dense
        sequence of `len(Indeterminate)` values indexed by it, with None in
        the slots left unbound; both give the same float.  The first call
        compiles the polynomial into a straight-line kernel
        (`_compile_kernel`) that every later call reuses.
        """
        try:
            kernel = self._kernel
        except AttributeError:
            kernel = self._kernel = self._compile_kernel()
        try:
            return kernel(bindings)
        except (KeyError, IndexError, TypeError):
            used = self.indeterminates()
            if isinstance(bindings, Mapping):
                missing = [ind.name for ind in used if ind not in bindings]
            else:
                missing = [ind.name for ind in used
                           if ind >= len(bindings) or bindings[ind] is None]
            if missing:
                raise MissingBinding(f"no value for {', '.join(sorted(missing))}") from None
            raise

    def _compile_kernel(self):
        """Generate `kernel(bindings) -> float` from the term map.

        It performs the operations of the plain term loop in the same order,
        so its result is bit-identical: per term, start from 1.0 and multiply
        the powers `b ** e` in `indeterminates()` iteration order, scale by
        float(coeff), and add the terms left to right to 0.0.  Each distinct
        power is computed once (`b ** 1` is `b`), and so is each `1.0 * power`
        that starts a product (a no-op for float bindings, a conversion for
        integer ones).  A binding is read as `b[int(ind)]`, which an
        `Indeterminate`-keyed mapping and a dense sequence both answer.
        """
        used = list(self.indeterminates())
        names = {ind: ind.name.lower() for ind in used}
        lines = [f"    {names[ind]} = b[{int(ind)}]" for ind in used]
        if any(exps[Indeterminate.X] < 0 for exps in self._terms):
            lines.append('    if x <= 0: raise ValueError("X binding must be positive for Laurent terms")')
        hoisted: set[str] = set()

        def local(name: str, expr: str) -> str:
            if name not in hoisted:
                hoisted.add(name)
                lines.append(f"    {name} = {expr}")
            return name

        summands = ["0.0"]
        for exps, coeff in self._terms.items():
            factors = []
            for ind in used:
                e = exps[ind]
                if e == 1:
                    factors.append(names[ind])
                elif e:
                    suffix = f"m{-e}" if e < 0 else str(e)
                    factors.append(local(f"{names[ind]}_{suffix}", f"{names[ind]} ** {e}"))
            if factors:
                factors[0] = local(f"f_{factors[0]}", f"1.0 * {factors[0]}")
                summands.append(f"{float(coeff)!r} * ({' * '.join(factors)})")
            else:
                summands.append(repr(float(coeff)))
        source = "def kernel(b):\n" + "\n".join(lines + ["    return " + " + ".join(summands)])
        namespace = {}
        exec(source, namespace)
        return namespace["kernel"]

    # -- text form -----------------------------------------------------------

    def to_text(self) -> str:
        """Deterministic, sorted plain-text polynomial (graded-lex, descending)."""
        if not self._terms:
            return "0"
        def key(exps):
            return (sum(exps), exps)
        parts = []
        for exps in sorted(self._terms, key=key, reverse=True):
            coeff = self._terms[exps]
            factors = []
            for ind in Indeterminate:
                e = exps[ind]
                if e == 1:
                    factors.append(ind.name)
                elif e:
                    factors.append(f"{ind.name}^{e}")
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = str(mag) + "*" + "*".join(factors)
            parts.append(("-" if coeff < 0 else "+", body))
        sign, body = parts[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"SymExpr({self.to_text()})"


def rational(numerator: int, denominator: int = 1) -> SymExpr:
    return SymExpr({_ZERO_EXPS: Fraction(numerator, denominator)})


def x_pow(exponent: int) -> SymExpr:
    """X^exponent for any integer exponent (the one Laurent direction)."""
    vec = [0] * _N
    vec[Indeterminate.X] = exponent
    return SymExpr._make({tuple(vec): 1})


def _gen(ind: Indeterminate) -> SymExpr:
    vec = [0] * _N
    vec[ind] = 1
    return SymExpr._make({tuple(vec): 1})


ZERO = SymExpr._make({})
ONE = SymExpr._make({_ZERO_EXPS: 1})

X = _gen(Indeterminate.X)
KAP = _gen(Indeterminate.KAP)
KAP1 = _gen(Indeterminate.KAP1)
KAP2 = _gen(Indeterminate.KAP2)
RHO = _gen(Indeterminate.RHO)
RHO1 = _gen(Indeterminate.RHO1)
RHO2 = _gen(Indeterminate.RHO2)
SIG = _gen(Indeterminate.SIG)
NU = _gen(Indeterminate.NU)

# level-set relation: SIG -> RHO^2 - (X - KAP)^2
_SIG_RULE = RHO * RHO - (X - KAP) * (X - KAP)
