"""Closed-form expression language for user-supplied profiles k(t), r(t).

Grammar (recursive descent, standard precedence, left associative):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | base ('^' exponent)?
    base   := number | 't' | ident '(' expr ')' | ident | '(' expr ')'
    exponent := '-'? number | '(' '-'? number ('/' number)? ')'

Tokens are ASCII: a number is digits 0-9 with an optional '.' and more digits
(`2`, `0.25`, `3.`; exact), a name is `[A-Za-z_][A-Za-z0-9_]*`, an operator
is one of `- + * / ^ ( )`, and whitespace (`str.isspace`) only separates
tokens.  Any other character is a ParseError "unexpected character C" at its
offset.

Exponents are rational literals only, so differentiation stays total.  Bare
identifiers are the named constants pi and e; function identifiers are
exp, ln, sin, cos, sinh, cosh, tanh, sqrt.  `_FUNCTION_TABLE` is the one
place that spells a function (float function, derivative rule, kernel domain
check), and `_OPERATOR_TABLE` a `BinOp`'s operator (derivative rule, kernel
domain check), so adding either takes one row.

Float evaluation compiles trees once (`compile_exprs`) into a straight-line
kernel that performs a recursive walk's operations and domain checks in the
walk's order, computing each repeated subtree once, so values and the first
error are those of the walk.  `ProfileFunctions` holds k and r, and keeps one
kernel for their 2-jet (it differentiates them) and one each for k and r.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction


class ParseError(ValueError):
    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        detail = f"{message} at offset {offset}"
        if expected:
            detail += f" (expected {', '.join(expected)})"
        super().__init__(detail)
        self.offset = offset
        self.expected = expected


class DomainError(ArithmeticError):
    """Evaluation left the expression's domain (log/sqrt/division)."""


CONSTANTS = {"pi": math.pi, "e": math.e}


class Expr:
    __slots__ = ()


@dataclass(frozen=True)
class Num(Expr):
    value: Fraction


@dataclass(frozen=True)
class TVar(Expr):
    pass


@dataclass(frozen=True)
class Const(Expr):
    name: str


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # a key of _OPERATOR_TABLE
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: Fraction


@dataclass(frozen=True)
class Call(Expr):
    fn: str
    arg: Expr


# -- tokenizer and parser ------------------------------------------------------

_TOKEN = re.compile(
    r"(?P<NUM>[0-9]+(?:\.[0-9]*)?)|(?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)|(?P<OP>[-+*/^()])|(?P<BAD>\S)"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for match in _TOKEN.finditer(text):  # whitespace matches no group and is skipped
        token = (match.lastgroup, match.group(), match.start())
        if token[0] == "BAD":
            raise ParseError(f"unexpected character {token[1]!r}", token[2])
        tokens.append(token)
    tokens.append(("END", "", len(text)))
    return tokens


def _unexpected(token: tuple[str, str, int], expected: tuple[str, ...]) -> ParseError:
    _, value, offset = token
    return ParseError(f"unexpected {value or 'end of input'!r}", offset, expected)


class _Parser:
    def __init__(self, text: str):
        if not text or not text.strip():
            raise ParseError("empty expression", 0)
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept(self, ops: str):
        """Consume and return the next token if it is one of the operators `ops`."""
        token = self.tokens[self.pos]
        if token[0] == "OP" and token[1] in ops:
            self.pos += 1
            return token
        return None

    def expect_op(self, op: str) -> None:
        if not self.accept(op):
            raise _unexpected(self.peek(), (repr(op),))

    def parse(self) -> Expr:
        e = self.expr()
        kind, value, offset = self.peek()
        if kind != "END":
            raise ParseError(f"trailing input {value!r}", offset)
        return e

    def expr(self) -> Expr:
        node = self.term()
        while op := self.accept("+-"):
            node = BinOp(op[1], node, self.term())
        return node

    def term(self) -> Expr:
        node = self.factor()
        while op := self.accept("*/"):
            node = BinOp(op[1], node, self.factor())
        return node

    def factor(self) -> Expr:
        if self.accept("-"):
            return Neg(self.factor())
        node = self.base()
        return Pow(node, self.exponent()) if self.accept("^") else node

    def group(self) -> Expr:
        """The rest of '(' expr ')' once its '(' is consumed."""
        node = self.expr()
        self.expect_op(")")
        return node

    def base(self) -> Expr:
        if self.accept("("):
            return self.group()
        token = kind, value, offset = self.advance()
        if kind == "NUM":
            return Num(Fraction(value))
        if kind != "IDENT":
            raise _unexpected(token, ("number", "'t'", "function", "'('", "'-'"))
        if value == "t":
            return TVar()
        if self.accept("("):
            if value not in FUNCTIONS:
                raise ParseError(f"unknown function {value!r}", offset, FUNCTIONS)
            return Call(value, self.group())
        if value in CONSTANTS:
            return Const(value)
        raise ParseError(f"unknown name {value!r}", offset, ("t",) + tuple(CONSTANTS))

    def _number(self) -> Fraction:
        token = self.advance()
        if token[0] != "NUM":
            raise _unexpected(token, ("number",))
        return Fraction(token[1])

    def _signed(self) -> Fraction:
        return -self._number() if self.accept("-") else self._number()

    def exponent(self) -> Fraction:
        offset = self.peek()[2]
        if not self.accept("("):
            return self._signed()
        result = self._signed()
        if self.accept("/"):
            denom = self._number()
            if denom == 0:
                raise ParseError("zero denominator in exponent", offset)
            result /= denom
        self.expect_op(")")
        return result


def parse(text: str) -> Expr:
    return _Parser(text).parse()


# -- folding constructors (constant folding only, no deeper simplification) ----

_ZERO = Num(Fraction(0))
_ONE = Num(Fraction(1))


def _add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value + b.value)
    if a == _ZERO:
        return b
    if b == _ZERO:
        return a
    return BinOp("+", a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value - b.value)
    if b == _ZERO:
        return a
    if a == _ZERO:
        return _neg(b)
    return BinOp("-", a, b)


def _neg(a: Expr) -> Expr:
    if isinstance(a, Num):
        return Num(-a.value)
    return Neg(a)


def _mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value * b.value)
    if a == _ZERO or b == _ZERO:
        return _ZERO
    if a == _ONE:
        return b
    if b == _ONE:
        return a
    return BinOp("*", a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if a == _ZERO:
        return _ZERO
    if b == _ONE:
        return a
    if isinstance(a, Num) and isinstance(b, Num) and b.value != 0:
        return Num(a.value / b.value)
    return BinOp("/", a, b)


def _pow(base: Expr, q: Fraction) -> Expr:
    if q == 0:
        return _ONE
    if q == 1:
        return base
    return Pow(base, q)


# name -> (float function, d/dt f(u) from u and du, the kernel's domain check
# on u as (condition, message) or None).  The order is the parser's list.
_FUNCTION_TABLE = {
    "exp": (math.exp, lambda u, du: _mul(Call("exp", u), du), None),
    "ln": (math.log, lambda u, du: _div(du, u), ("{} <= 0", "ln of nonpositive value")),
    "sin": (math.sin, lambda u, du: _mul(Call("cos", u), du), None),
    "cos": (math.cos, lambda u, du: _mul(_neg(Call("sin", u)), du), None),
    "sinh": (math.sinh, lambda u, du: _mul(Call("cosh", u), du), None),
    "cosh": (math.cosh, lambda u, du: _mul(Call("sinh", u), du), None),
    "tanh": (math.tanh,
             lambda u, du: _mul(_sub(_ONE, _pow(Call("tanh", u), Fraction(2))), du), None),
    "sqrt": (math.sqrt, lambda u, du: _div(du, _mul(Num(Fraction(2)), Call("sqrt", u))),
             ("{} < 0", "sqrt of negative value")),
}
FUNCTIONS = tuple(_FUNCTION_TABLE)
_KERNEL_GLOBALS = {"DomainError": DomainError,
                   **{name: value for name, (value, _, _) in _FUNCTION_TABLE.items()}}

# Python operator -> (d/dt (a op b) from a, b, da, db, the kernel's domain
# check on b as (condition, message) or None).  A checked operator evaluates
# and checks its right operand before its left, as the walk does.
_OPERATOR_TABLE = {
    "+": (lambda a, b, da, db: _add(da, db), None),
    "-": (lambda a, b, da, db: _sub(da, db), None),
    "*": (lambda a, b, da, db: _add(_mul(da, b), _mul(a, db)), None),
    "/": (lambda a, b, da, db: _div(_sub(_mul(da, b), _mul(a, db)), _pow(b, Fraction(2))),
          ("{} == 0", "division by zero")),
}


def _row(table: dict, kind: str, name: str) -> tuple:
    """The table row of a function or operator; a hand-built tree may name any."""
    try:
        return table[name]
    except KeyError:
        raise ValueError(f"unknown {kind} {name}") from None


def differentiate(e: Expr) -> Expr:
    """Exact d/dt with chain and quotient rules; constant folding only."""
    if isinstance(e, (Num, Const)):
        return _ZERO
    if isinstance(e, TVar):
        return _ONE
    if isinstance(e, Neg):
        return _neg(differentiate(e.arg))
    if isinstance(e, BinOp):
        rule, _ = _row(_OPERATOR_TABLE, "operator", e.op)
        return rule(e.left, e.right, differentiate(e.left), differentiate(e.right))
    if isinstance(e, Pow):
        if e.exponent == 0:
            return _ZERO
        outer = _mul(Num(e.exponent), _pow(e.base, e.exponent - 1))
        return _mul(outer, differentiate(e.base))
    if isinstance(e, Call):
        _, rule, _ = _row(_FUNCTION_TABLE, "function", e.fn)
        return rule(e.arg, differentiate(e.arg))
    raise TypeError(f"not an Expr: {e!r}")


def compile_exprs(*exprs: Expr):
    """Generate one straight-line `kernel(t) -> tuple` of float values of `exprs`.

    The kernel does what a recursive walk of the trees in argument order
    would do, step by step, so values are bit-identical and the first error
    is the same: one assignment per node in visit order (an operator with a
    check, such as `/`, evaluates and checks its right operand before its
    left), the `DomainError` checks of `^` and of an operator's or function's
    table row at the node they guard, `float(t)` for `t`, `** int(q)` for
    integer and `** float(q)` for fractional exponents.  Constants are float
    literals computed here, once.
    A subtree that repeats, inside one tree or across trees, is computed at
    its first occurrence only: nodes are numbered by the text of their code
    (plus an `id()` memo for shared node objects), never by the recursive
    dataclass hash.
    """
    lines = ["def kernel(t):"]
    namespace = dict(_KERNEL_GLOBALS)
    numbered: dict[str, str] = {}  # code text -> local holding its value
    checked: set[str] = set()
    memo: dict[int, str] = {}  # id(node) -> operand text of its value

    def bind(text: str) -> str:
        name = numbered.get(text)
        if name is None:
            name = numbered[text] = f"v{len(numbered)}"
            lines.append(f" {name} = {text}")
        return name

    def check(condition: str, message: str) -> None:
        line = f" if {condition}: raise DomainError({message})"
        if line not in checked:  # an earlier identical check already passed
            checked.add(line)
            lines.append(line)

    def number(q: Fraction) -> str:
        try:
            return f"({float(q)!r})"
        except OverflowError:  # raise where the walk would convert it
            name = f"q{len(namespace)}"
            namespace[name] = q
            return bind(f"float({name})")

    def visit(e: Expr) -> str:
        text = memo.get(id(e))
        if text is None:
            text = memo[id(e)] = emit(e)
        return text

    def emit(e: Expr) -> str:
        if isinstance(e, Num):
            return number(e.value)
        if isinstance(e, TVar):
            return bind("float(t)")
        if isinstance(e, Const):
            return f"({CONSTANTS[e.name]!r})"
        if isinstance(e, Neg):
            return bind(f"-{visit(e.arg)}")
        if isinstance(e, BinOp):
            _, guard = _row(_OPERATOR_TABLE, "operator", e.op)
            if guard:
                right = visit(e.right)
                check(guard[0].format(right), f'"{guard[1]}"')
                return bind(f"{visit(e.left)} {e.op} {right}")
            left = visit(e.left)
            return bind(f"{left} {e.op} {visit(e.right)}")
        if isinstance(e, Pow):
            base = visit(e.base)
            q = e.exponent
            if q.denominator != 1:
                check(f"{base} < 0", '"negative base with fractional exponent"')
            if q < 0:
                check(f"{base} == 0", '"zero base with negative exponent"')
            exponent = f"({int(q)})" if q.denominator == 1 else number(q)
            return bind(f"{base} ** {exponent}")
        if isinstance(e, Call):
            _, _, guard = _row(_FUNCTION_TABLE, "function", e.fn)
            x = visit(e.arg)
            if guard:
                check(guard[0].format(x), f'f"{guard[1]} {{{x}}}"')
            return bind(f"{e.fn}({x})")
        raise TypeError(f"not an Expr: {e!r}")

    roots = [visit(e) for e in exprs]
    lines.append(f" return ({', '.join(roots)},)")
    exec("\n".join(lines), namespace)
    return namespace["kernel"]


def _read(kernel, t: float) -> tuple:
    """The kernel's values at t; a DomainError names t, which may be a stencil
    height, and its term may be a derivative the user never wrote."""
    try:
        return kernel(t)
    except DomainError as err:
        raise DomainError(f"{err} at t={t!r}") from err


@dataclass(frozen=True)
class ProfileFunctions:
    """k(t) and r(t); the 2-jet kernel differentiates them exactly."""

    k: Expr
    r: Expr

    @classmethod
    def from_strings(cls, k_text: str, r_text: str) -> "ProfileFunctions":
        return cls(parse(k_text), parse(r_text))

    @cached_property
    def _jet_kernel(self):
        k1, r1 = differentiate(self.k), differentiate(self.r)
        return compile_exprs(self.k, k1, differentiate(k1), self.r, r1, differentiate(r1))

    @cached_property
    def _k_kernel(self):
        return compile_exprs(self.k)

    @cached_property
    def _r_kernel(self):
        return compile_exprs(self.r)

    def k_value(self, t: float) -> float:
        return _read(self._k_kernel, t)[0]

    def r_value(self, t: float) -> float:
        return _read(self._r_kernel, t)[0]

    def jet_values(self, t: float) -> tuple[float, float, float, float, float, float]:
        return _read(self._jet_kernel, t)
