"""Exact multivariate Laurent-polynomial arithmetic over arbitrary-precision integers.

Polynomials live in Z[nu][X^{-1}, X, KAP, KAP1, KAP2, RHO, RHO1, RHO2, SIG]:
the vertical coordinate X may carry negative exponents, every other
indeterminate is an ordinary polynomial variable.  KAP/RHO and their primed
companions model the 2-jet of a center/radius profile, SIG is the tangential
radius-squared, NU the (symbolic) ambient dimension.  Identities verified over
this ring hold for every integer dimension at once.

Every coefficient is a nonzero Python `int`; a float or a `Fraction` is a
TypeError, so the ring never rounds.  Division by an integer is exact or raises
ArithmeticError.

A monomial is stored as one packed `int` key, sum(e_i * 2**(16 * i)) over the
`Indeterminate` indices i: one 16-bit slot per indeterminate, each holding a
balanced (signed) digit, so that multiplying monomials adds their keys and a
derivative shifts one slot.  An exponent vector has one entry per
`Indeterminate` (else ValueError), and an exponent must lie in [-2**14, 2**14);
one that leaves it raises OverflowError and never carries into the next slot.
Keys are decoded to exponent tuples only at the boundary: `terms()`, `to_text`,
`indeterminates`, `__hash__` and the compiled kernel.

All values are immutable; operations are pure and safe to share.
"""

from __future__ import annotations

import enum
import operator
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

# The packed key.  In key + _OFFSET, an exponent e is the slot digit e + _BIAS,
# in [0, 2 * _BIAS), so the slot's top bit is clear.  The sum of two valid keys
# (a product) or a valid key moved by one in a slot (a derivative) has digits
# in [-_BIAS, 3 * _BIAS): a digit outside [0, 2 * _BIAS) sets its slot's top
# bit, by itself or by borrowing from the slot above, so (key + _OFFSET) &
# _GUARD is nonzero exactly when some exponent is out of range.
_SLOT = 16
_MASK = (1 << _SLOT) - 1
_BIAS = 1 << (_SLOT - 2)
_SHIFTS = tuple(range(0, _SLOT * _N, _SLOT))
_OFFSET = sum(_BIAS << shift for shift in _SHIFTS)
_GUARD = _OFFSET << 1
_UNIT = tuple(1 << shift for shift in _SHIFTS)
_OUT_OF_RANGE = f"exponent outside [{-_BIAS}, {_BIAS - 1}]"

# t-derivative chain; KAP2/RHO2 have no successor (JetOrderExceeded).
_T_CHAIN = {
    Indeterminate.KAP: Indeterminate.KAP1,
    Indeterminate.KAP1: Indeterminate.KAP2,
    Indeterminate.RHO: Indeterminate.RHO1,
    Indeterminate.RHO1: Indeterminate.RHO2,
}
_T_BLOCKED = (Indeterminate.KAP2, Indeterminate.RHO2)


def _encode(exps) -> int:
    """The key of an exponent vector; ValueError for a wrong length, OverflowError
    for an exponent out of range."""
    exps = tuple(exps)
    if len(exps) != _N:
        raise ValueError(f"exponent vector has {len(exps)} entries, not {_N}")
    if any(not -_BIAS <= e < _BIAS for e in exps):
        raise OverflowError(_OUT_OF_RANGE)
    return sum(e << shift for e, shift in zip(exps, _SHIFTS))


def _decode(key: int) -> tuple:
    biased = key + _OFFSET
    return tuple(((biased >> shift) & _MASK) - _BIAS for shift in _SHIFTS)


def _digit(key: int, ind: Indeterminate) -> int:
    """The exponent of `ind` in the monomial `key`."""
    return (((key + _OFFSET) >> _SHIFTS[ind]) & _MASK) - _BIAS


def _coerce(value) -> "SymExpr":
    if isinstance(value, SymExpr):
        return value
    if isinstance(value, int):
        return SymExpr._make({0: operator.index(value)} if value else {})
    return NotImplemented


def _canonical(raw: dict) -> dict:
    """Drop the zero coefficients of an accumulated term map, and raise
    OverflowError if a kept key has an exponent out of range."""
    terms = {}
    for key, c in raw.items():
        if c:
            if (key + _OFFSET) & _GUARD:
                raise OverflowError(_OUT_OF_RANGE)
            terms[key] = c
    return terms


class SymExpr:
    """A finite map from exponent vectors to nonzero integer coefficients.

    Structural equality of the canonical term map is mathematical equality;
    zero is the empty map.  `_terms` maps each monomial's packed key (see the
    module docstring) to its coefficient; the constructor and `terms()` speak
    exponent tuples of length `len(Indeterminate)`, in the same insertion order.
    """

    # _kernel: the compiled float evaluator, filled by the first eval_numeric.
    __slots__ = ("_terms", "_kernel")

    def __init__(self, terms: Mapping[tuple, int] | None = None):
        pruned = {}
        if terms:
            for exps, coeff in terms.items():
                key = _encode(exps)
                coeff = operator.index(coeff)  # a float or a Fraction is a TypeError
                if coeff:
                    pruned[key] = coeff
        self._terms = pruned

    @classmethod
    def _make(cls, terms: dict) -> "SymExpr":
        # internal: terms already pruned and canonical
        obj = object.__new__(cls)
        obj._terms = terms
        return obj

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
        if not self._terms.keys() - {0}:
            return hash(self._terms.get(0, 0))
        return hash(frozenset(self.terms()))

    def __add__(self, other) -> "SymExpr":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for key, coeff in other._terms.items():
            acc = out.get(key, 0) + coeff
            if acc:
                out[key] = acc
            else:
                out.pop(key, None)
        return SymExpr._make(out)

    __radd__ = __add__

    def __neg__(self) -> "SymExpr":
        return SymExpr._make({key: -c for key, c in self._terms.items()})

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
        right = other._terms.items()
        for ka, ca in self._terms.items():
            for kb, cb in right:
                key = ka + kb
                out[key] = get(key, 0) + ca * cb
        return SymExpr._make(_canonical(out))

    __rmul__ = __mul__

    def __truediv__(self, divisor: int) -> "SymExpr":
        """Exact division by a nonzero integer; ArithmeticError unless the
        divisor divides every coefficient."""
        if not isinstance(divisor, int):
            return NotImplemented
        if not divisor:
            raise ZeroDivisionError("SymExpr division by zero")
        if any(c % divisor for c in self._terms.values()):
            raise ArithmeticError(f"{divisor} does not divide every coefficient")
        return SymExpr._make({key: c // divisor for key, c in self._terms.items()})

    def __pow__(self, power: int) -> "SymExpr":
        if not isinstance(power, int) or power < 0:
            raise ValueError("SymExpr powers must be nonnegative integers")
        result = ONE
        base = self
        while power:
            if power & 1:
                result = result * base
            power >>= 1
            if power:
                base = base * base
        return result

    # -- calculus ----------------------------------------------------------

    def d_dX(self) -> "SymExpr":
        """Formal partial derivative in X; every other indeterminate is constant."""
        out: dict = {}
        unit = _UNIT[Indeterminate.X]
        for key, coeff in self._terms.items():
            e = _digit(key, Indeterminate.X)
            if e == 0:
                continue
            key -= unit
            out[key] = out.get(key, 0) + coeff * e
        return SymExpr._make(_canonical(out))

    def d_dt(self) -> "SymExpr":
        """Formal t-derivative with the jet chain KAP->KAP1->KAP2, RHO->RHO1->RHO2.

        X and SIG are t-independent.  Raises JetOrderExceeded if the input
        contains KAP2 or RHO2 (their derivatives are third-order jets).
        """
        out: dict = {}
        for key, coeff in self._terms.items():
            for blocked in _T_BLOCKED:
                if _digit(key, blocked):
                    raise JetOrderExceeded(
                        f"d_dt would need the derivative of {blocked.name}"
                    )
            for ind, succ in _T_CHAIN.items():
                e = _digit(key, ind)
                if not e:
                    continue
                new = key - _UNIT[ind] + _UNIT[succ]
                out[new] = out.get(new, 0) + coeff * e
        return SymExpr._make(_canonical(out))

    # -- substitution and extraction ----------------------------------------

    def substitute(self, ind: Indeterminate, replacement: "SymExpr") -> "SymExpr":
        """Replace every power of `ind` by the corresponding power of `replacement`."""
        replacement = _coerce(replacement)
        powers: dict[int, SymExpr] = {0: ONE}
        out: dict = {}
        get = out.get
        for key, coeff in self._terms.items():
            e = _digit(key, ind)
            if e < 0:
                raise ValueError(f"cannot substitute into negative power of {ind.name}")
            if e not in powers:
                powers[e] = replacement ** e
            rest = key - e * _UNIT[ind]
            for kp, cp in powers[e]._terms.items():
                new = rest + kp
                out[new] = get(new, 0) + coeff * cp
        return SymExpr._make(_canonical(out))

    def reduce_level_set(self) -> "SymExpr":
        """Eliminate SIG via the leaf relation SIG = RHO^2 - (X - KAP)^2; idempotent."""
        return self.substitute(Indeterminate.SIG, _SIG_RULE)

    def coeff_of(self, ind: Indeterminate, degree: int) -> "SymExpr":
        out: dict = {}
        shift = degree * _UNIT[ind]
        for key, coeff in self._terms.items():
            if _digit(key, ind) == degree:
                out[key - shift] = coeff
        return SymExpr._make(out)

    def indeterminates(self) -> set[Indeterminate]:
        # one exponent column per indeterminate, in index order
        columns = zip(*map(_decode, self._terms))
        return {ind for ind, column in zip(Indeterminate, columns) if any(column)}

    def terms(self) -> Iterator[tuple[tuple, int]]:
        """(exponent vector, coefficient) pairs, in insertion order."""
        return ((_decode(key), coeff) for key, coeff in self._terms.items())


    # -- numeric evaluation --------------------------------------------------

    def eval_numeric(self, bindings: Sequence[float | None]) -> float:
        """IEEE-double evaluation; each coefficient enters as float(coeff).

        `bindings` is a dense sequence of `len(Indeterminate)` values indexed
        by it, with None in the slots left unbound.  The first call compiles
        the polynomial into a straight-line kernel (`_compile_kernel`) that
        every later call reuses.
        """
        try:
            kernel = self._kernel
        except AttributeError:
            kernel = self._kernel = self._compile_kernel()
        try:
            return kernel(bindings)
        except (IndexError, TypeError):
            missing = [ind.name for ind in self.indeterminates()
                       if ind >= len(bindings) or bindings[ind] is None]
            if missing:
                raise MissingBinding(f"no value for {', '.join(sorted(missing))}") from None
            raise

    def _compile_kernel(self):
        """Generate `kernel(bindings) -> float` from the term map.

        It performs the operations of the plain term loop in the same order,
        so its result is bit-identical: per term, start from 1.0 and multiply
        the powers `b ** e` in `Indeterminate` index order, scale by
        float(coeff), and add the terms left to right to 0.0.  Each distinct
        power is computed once (`b ** 1` is `b`), and so is each `1.0 * power`
        that starts a product (a no-op for float bindings, a conversion for
        integer ones).  A binding is read as `b[int(ind)]` from the dense
        sequence.

        Two rewrites drop work without changing a bit.  A product prefix that
        several terms share (`(1.0 * x) * kap`, say) is computed once, by the
        first term that reaches it, and named with `:=` there, so every
        operation still happens in the term loop's order.  A coefficient whose
        float is 1.0 or -1.0 folds into the sum as `+ p` or `- p`: p starts
        from `1.0 * first factor`, so it is a float, and `1.0 * p` is p while
        `s + -1.0 * p` is `s - p` in IEEE arithmetic.
        """
        used = sorted(self.indeterminates())
        names = {ind: ind.name.lower() for ind in used}
        lines = [f"    {names[ind]} = b[{int(ind)}]" for ind in used]
        if any(_digit(key, Indeterminate.X) < 0 for key in self._terms):
            lines.append('    if x <= 0: raise ValueError("X binding must be positive for Laurent terms")')
        hoisted: set[str] = set()

        def local(name: str, expr: str) -> str:
            if name not in hoisted:
                hoisted.add(name)
                lines.append(f"    {name} = {expr}")
            return name

        products = []
        for exps, coeff in self.terms():
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
            products.append((tuple(factors), float(coeff)))

        def longest(factors: tuple, prefixes) -> int:
            """Length of the longest prefix of two or more factors in `prefixes`, else 1."""
            end = len(factors)
            while end > 1 and factors[:end] not in prefixes:
                end -= 1
            return end

        # a term reuses the longest product prefix an earlier term computed
        seen: set[tuple] = set()
        reused: set[tuple] = set()
        for factors, _ in products:
            reused.add(factors[:longest(factors, seen)])
            seen.update(factors[:end] for end in range(2, len(factors) + 1))
        named: dict[tuple, str] = {}
        summands = ["0.0"]
        for factors, coeff in products:
            if not factors:
                summands.append(f"+ {coeff!r}")
                continue
            start = longest(factors, named)
            expr = named.get(factors[:start], factors[0])
            for end in range(start + 1, len(factors) + 1):
                expr = f"{expr} * {factors[end - 1]}"
                if factors[:end] in reused:
                    named[factors[:end]] = f"p{len(named)}"
                    expr = f"({named[factors[:end]]} := {expr})"
            if coeff == 1.0:
                summands.append(f"+ {expr}")
            elif coeff == -1.0:
                summands.append(f"- {expr}")
            else:
                summands.append(f"+ {coeff!r} * ({expr})")
        source = "def kernel(b):\n" + "\n".join(lines + ["    return " + " ".join(summands)])
        namespace = {}
        exec(source, namespace)
        return namespace["kernel"]

    # -- text form -----------------------------------------------------------

    def to_text(self) -> str:
        """Deterministic, sorted plain-text polynomial (graded-lex, descending)."""
        if not self._terms:
            return "0"
        def key(term):
            return (sum(term[0]), term[0])
        parts = []
        for exps, coeff in sorted(self.terms(), key=key, reverse=True):
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


def x_pow(exponent: int) -> SymExpr:
    """X^exponent for any integer exponent in range (the one Laurent direction)."""
    vec = [0] * _N
    vec[Indeterminate.X] = exponent
    return SymExpr._make({_encode(vec): 1})


def _gen(ind: Indeterminate) -> SymExpr:
    return SymExpr._make({_UNIT[ind]: 1})


ONE = SymExpr._make({0: 1})

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
