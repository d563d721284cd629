"""Closed-form expression language for user-supplied profiles k(t), r(t).

Grammar (recursive descent, standard precedence, left associative):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | base ('^' exponent)?
    base   := number | 't' | ident '(' expr ')' | ident | '(' expr ')'
    exponent := '-'? number | '(' '-'? number ('/' number)? ')'

Exponents are rational literals only, so differentiation stays total.  Bare
identifiers are the named constants pi and e; function identifiers are
exp, ln, sin, cos, sinh, cosh, tanh, sqrt.

Float evaluation compiles trees once (`compile_exprs`) into a straight-line
kernel that performs a recursive walk's operations and domain checks in the
walk's order, computing each repeated subtree once, so values and the first
error are those of the walk.  `ProfileFunctions` keeps one kernel for its
2-jet and one each for k and r.
"""

from __future__ import annotations

import math
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


FUNCTIONS = ("exp", "ln", "sin", "cos", "sinh", "cosh", "tanh", "sqrt")
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
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Div(Expr):
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


# -- tokenizer ----------------------------------------------------------------

_OPS = "+-*/^()"


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append(("OP", ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == ".":
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            tokens.append(("NUM", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("IDENT", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("END", "", n))
    return tokens


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

    def expect_op(self, op: str):
        kind, value, offset = self.peek()
        if kind == "OP" and value == op:
            return self.advance()
        raise ParseError(f"unexpected {value or 'end of input'!r}", offset, (repr(op),))

    def parse(self) -> Expr:
        e = self.expr()
        kind, value, offset = self.peek()
        if kind != "END":
            raise ParseError(f"trailing input {value!r}", offset)
        return e

    def expr(self) -> Expr:
        node = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "OP" and value in "+-":
                self.advance()
                rhs = self.term()
                node = Add(node, rhs) if value == "+" else Sub(node, rhs)
            else:
                return node

    def term(self) -> Expr:
        node = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "OP" and value in "*/":
                self.advance()
                rhs = self.factor()
                node = Mul(node, rhs) if value == "*" else Div(node, rhs)
            else:
                return node

    def factor(self) -> Expr:
        kind, value, _ = self.peek()
        if kind == "OP" and value == "-":
            self.advance()
            return Neg(self.factor())
        node = self.base()
        kind, value, _ = self.peek()
        if kind == "OP" and value == "^":
            self.advance()
            node = Pow(node, self.exponent())
        return node

    def base(self) -> Expr:
        kind, value, offset = self.peek()
        if kind == "NUM":
            self.advance()
            return Num(Fraction(value))
        if kind == "IDENT":
            self.advance()
            if value == "t":
                return TVar()
            nkind, nvalue, _ = self.peek()
            if nkind == "OP" and nvalue == "(":
                if value not in FUNCTIONS:
                    raise ParseError(f"unknown function {value!r}", offset, FUNCTIONS)
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return Call(value, arg)
            if value in CONSTANTS:
                return Const(value)
            raise ParseError(f"unknown name {value!r}", offset, ("t",) + tuple(CONSTANTS))
        if kind == "OP" and value == "(":
            self.advance()
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(
            f"unexpected {value or 'end of input'!r}", offset,
            ("number", "'t'", "function", "'('", "'-'"),
        )

    def _number(self) -> Fraction:
        kind, value, offset = self.peek()
        if kind != "NUM":
            raise ParseError(f"unexpected {value or 'end of input'!r}", offset, ("number",))
        self.advance()
        return Fraction(value)

    def exponent(self) -> Fraction:
        kind, value, offset = self.peek()
        if kind == "OP" and value == "(":
            self.advance()
            negative = False
            kind, value, _ = self.peek()
            if kind == "OP" and value == "-":
                self.advance()
                negative = True
            result = self._number()
            kind, value, _ = self.peek()
            if kind == "OP" and value == "/":
                self.advance()
                denom = self._number()
                if denom == 0:
                    raise ParseError("zero denominator in exponent", offset)
                result /= denom
            self.expect_op(")")
            return -result if negative else result
        negative = False
        if kind == "OP" and value == "-":
            self.advance()
            negative = True
        result = self._number()
        return -result if negative else result


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
    return Add(a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value - b.value)
    if b == _ZERO:
        return a
    if a == _ZERO:
        return _neg(b)
    return Sub(a, b)


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
    return Mul(a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if a == _ZERO:
        return _ZERO
    if b == _ONE:
        return a
    if isinstance(a, Num) and isinstance(b, Num) and b.value != 0:
        return Num(a.value / b.value)
    return Div(a, b)


def _pow(base: Expr, q: Fraction) -> Expr:
    if q == 0:
        return _ONE
    if q == 1:
        return base
    return Pow(base, q)


def differentiate(e: Expr) -> Expr:
    """Exact d/dt with chain and quotient rules; constant folding only."""
    if isinstance(e, (Num, Const)):
        return _ZERO
    if isinstance(e, TVar):
        return _ONE
    if isinstance(e, Neg):
        return _neg(differentiate(e.arg))
    if isinstance(e, Add):
        return _add(differentiate(e.left), differentiate(e.right))
    if isinstance(e, Sub):
        return _sub(differentiate(e.left), differentiate(e.right))
    if isinstance(e, Mul):
        return _add(
            _mul(differentiate(e.left), e.right),
            _mul(e.left, differentiate(e.right)),
        )
    if isinstance(e, Div):
        num = _sub(
            _mul(differentiate(e.left), e.right),
            _mul(e.left, differentiate(e.right)),
        )
        return _div(num, _pow(e.right, Fraction(2)))
    if isinstance(e, Pow):
        if e.exponent == 0:
            return _ZERO
        outer = _mul(Num(e.exponent), _pow(e.base, e.exponent - 1))
        return _mul(outer, differentiate(e.base))
    if isinstance(e, Call):
        du = differentiate(e.arg)
        u = e.arg
        if e.fn == "exp":
            outer: Expr = Call("exp", u)
        elif e.fn == "ln":
            return _div(du, u)
        elif e.fn == "sin":
            outer = Call("cos", u)
        elif e.fn == "cos":
            outer = _neg(Call("sin", u))
        elif e.fn == "sinh":
            outer = Call("cosh", u)
        elif e.fn == "cosh":
            outer = Call("sinh", u)
        elif e.fn == "tanh":
            outer = _sub(_ONE, _pow(Call("tanh", u), Fraction(2)))
        elif e.fn == "sqrt":
            return _div(du, _mul(Num(Fraction(2)), Call("sqrt", u)))
        else:  # pragma: no cover - parser rejects unknown functions
            raise ValueError(f"unknown function {e.fn}")
        return _mul(outer, du)
    raise TypeError(f"not an Expr: {e!r}")


_KERNEL_GLOBALS = {
    "DomainError": DomainError,
    "exp": math.exp,
    "ln": math.log,
    "sin": math.sin,
    "cos": math.cos,
    "sinh": math.sinh,
    "cosh": math.cosh,
    "tanh": math.tanh,
    "sqrt": math.sqrt,
}


def compile_exprs(*exprs: Expr):
    """Generate one straight-line `kernel(t) -> tuple` of float values of `exprs`.

    The kernel does what a recursive walk of the trees in argument order
    would do, step by step, so values are bit-identical and the first error
    is the same: one assignment per node in visit order (a `Div` evaluates
    and checks its denominator before its numerator), the `DomainError`
    checks of `/`, `^`, `ln` and `sqrt` at the node they guard, `float(t)`
    for `t`, `** int(q)` for integer and `** float(q)` for fractional
    exponents.  Constants are float literals computed here, once.  A subtree
    that repeats, inside one tree or across trees, is computed at its first
    occurrence only: nodes are numbered by the text of their code (plus an
    `id()` memo for shared node objects), never by the recursive
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
        if isinstance(e, (Add, Sub, Mul)):
            op = "+" if isinstance(e, Add) else "-" if isinstance(e, Sub) else "*"
            left = visit(e.left)
            return bind(f"{left} {op} {visit(e.right)}")
        if isinstance(e, Div):
            denom = visit(e.right)
            check(f"{denom} == 0", '"division by zero"')
            return bind(f"{visit(e.left)} / {denom}")
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
            if e.fn not in FUNCTIONS:
                raise ValueError(f"unknown function {e.fn}")
            x = visit(e.arg)
            if e.fn == "ln":
                check(f"{x} <= 0", f'f"ln of nonpositive value {{{x}}}"')
            elif e.fn == "sqrt":
                check(f"{x} < 0", f'f"sqrt of negative value {{{x}}}"')
            return bind(f"{e.fn}({x})")
        raise TypeError(f"not an Expr: {e!r}")

    roots = [visit(e) for e in exprs]
    lines.append(f" return ({', '.join(roots)},)")
    exec("\n".join(lines), namespace)
    return namespace["kernel"]


def evaluate(e: Expr, t: float) -> float:
    """One-off float value of `e` at `t`; keep `compile_exprs(e)` to repeat it."""
    return compile_exprs(e)(t)[0]


@dataclass(frozen=True)
class ProfileFunctions:
    """k(t), r(t) with symbolic first and second derivatives."""

    k: Expr
    k1: Expr
    k2: Expr
    r: Expr
    r1: Expr
    r2: Expr

    @classmethod
    def from_exprs(cls, k: Expr, r: Expr) -> "ProfileFunctions":
        k1 = differentiate(k)
        r1 = differentiate(r)
        return cls(k=k, k1=k1, k2=differentiate(k1), r=r, r1=r1, r2=differentiate(r1))

    @classmethod
    def from_strings(cls, k_text: str, r_text: str) -> "ProfileFunctions":
        return cls.from_exprs(parse(k_text), parse(r_text))

    @cached_property
    def _jet_kernel(self):
        return compile_exprs(self.k, self.k1, self.k2, self.r, self.r1, self.r2)

    @cached_property
    def _k_kernel(self):
        return compile_exprs(self.k)

    @cached_property
    def _r_kernel(self):
        return compile_exprs(self.r)

    def k_value(self, t: float) -> float:
        return self._k_kernel(t)[0]

    def r_value(self, t: float) -> float:
        return self._r_kernel(t)[0]

    def jet_values(self, t: float) -> tuple[float, float, float, float, float, float]:
        return self._jet_kernel(t)
