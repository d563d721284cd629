"""Profile expression language: parsing, exact derivatives, evaluation."""

import math
import struct
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from folicurve import exprlang
from folicurve.exprlang import (
    BinOp,
    Call,
    Const,
    DomainError,
    FUNCTIONS,
    Neg,
    Num,
    ParseError,
    Pow,
    ProfileFunctions,
    TVar,
    compile_exprs,
    differentiate,
    parse,
)


class TestParse:
    def test_function_call(self):
        assert parse("cosh(t)") == Call("cosh", TVar())

    def test_precedence(self):
        assert parse("2 + 3*t^2") == BinOp(
            "+", Num(Fraction(2)), BinOp("*", Num(Fraction(3)), Pow(TVar(), Fraction(2)))
        )

    def test_left_associativity(self):
        one, two, three, eight = (Num(Fraction(v)) for v in (1, 2, 3, 8))
        assert parse("1 - 2 - 3") == BinOp("-", BinOp("-", one, two), three)
        assert parse("8 / 2 / 2") == BinOp("/", BinOp("/", eight, two), two)

    def test_unary_minus_binds_below_power(self):
        assert parse("-t^2") == Neg(Pow(TVar(), Fraction(2)))

    def test_parenthesized_rational_exponent(self):
        assert parse("t^(1/2)") == Pow(TVar(), Fraction(1, 2))
        assert parse("t^-2") == Pow(TVar(), Fraction(-2))

    def test_decimal_literals_are_exact(self):
        assert parse("0.3") == Num(Fraction(3, 10))

    def test_named_constants(self):
        assert parse("pi") == Const("pi")
        assert compile_exprs(parse("e"))(0.0)[0] == math.e

    def test_unterminated_call(self):
        with pytest.raises(ParseError) as info:
            parse("cosh(")
        assert info.value.offset == 5

    def test_unknown_name(self):
        with pytest.raises(ParseError) as info:
            parse("2 + bogus")
        assert info.value.offset == 4

    def test_trailing_input(self):
        with pytest.raises(ParseError):
            parse("1 + 2 )")

    def test_empty(self):
        with pytest.raises(ParseError):
            parse("   ")

    @pytest.mark.parametrize("char", ["²", "①", "٣", "π", "é"])
    @pytest.mark.parametrize("prefix", ["", "4", "2*t + ", "cosh(t"])
    def test_non_ascii_character(self, prefix, char):
        with pytest.raises(ParseError) as info:
            parse(prefix + char + " + 1")
        assert info.value.offset == len(prefix)
        assert str(info.value) == f"unexpected character {char!r} at offset {len(prefix)}"


class TestDifferentiate:
    def test_cosh(self):
        assert differentiate(parse("cosh(t)")) == Call("sinh", TVar())

    def test_sqrt_chain_rule(self):
        d = differentiate(parse("sqrt(1 + t^2)"))
        assert compile_exprs(d)(1.0)[0] == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-14)

    def test_constant(self):
        assert differentiate(parse("cosh(1)")) == Num(Fraction(0))

    def test_rational_power(self):
        d = differentiate(parse("t^(3/2)"))
        assert compile_exprs(d)(4.0)[0] == pytest.approx(1.5 * 2.0, rel=1e-14)

    def test_second_derivative_is_stable(self):
        e = parse("sinh(2*t) / (1 + t^2)")
        assert differentiate(differentiate(e)) == differentiate(differentiate(e))

    def test_unknown_operator(self):
        # a hand-built tree may name an operator that has no table row
        e = BinOp("%", TVar(), Num(Fraction(2)))
        for consume in (differentiate, compile_exprs):
            with pytest.raises(ValueError, match=r"^unknown operator %$"):
                consume(e)


class TestEvaluate:
    def test_cosh_value(self):
        value = compile_exprs(parse("cosh(t)"))(1.0)[0]
        assert value == pytest.approx(1.5430806348152437, rel=1e-15)

    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            compile_exprs(parse("1/t"))(0.0)[0]

    def test_ln_domain(self):
        with pytest.raises(DomainError):
            compile_exprs(parse("ln(t)"))(-1.0)[0]

    def test_sqrt_domain(self):
        with pytest.raises(DomainError):
            compile_exprs(parse("sqrt(t)"))(-4.0)[0]

    def test_fractional_power_of_negative(self):
        with pytest.raises(DomainError):
            compile_exprs(parse("t^(1/2)"))(-1.0)[0]


# -- randomized properties ------------------------------------------------------

numbers = st.fractions(min_value=0, max_value=4, max_denominator=10).map(Num)
leaves = st.one_of(numbers, st.just(TVar()), st.sampled_from([Const("pi"), Const("e")]))
exponents_st = st.fractions(min_value=-2, max_value=3, max_denominator=2)


def _extend(children):
    # one branch per operator row, so the properties below cover rows added later
    return st.one_of(
        *(st.builds(BinOp, st.just(op), children, children) for op in exprlang._OPERATOR_TABLE),
        st.builds(Neg, children),
        st.builds(Pow, children, exponents_st),
        st.builds(Call, st.sampled_from(FUNCTIONS), children),
    )


expressions = st.recursive(leaves, _extend, max_leaves=8)


def _safe_eval(e, t):
    try:
        value = compile_exprs(e)(t)[0]
    except (DomainError, OverflowError):
        return None
    if not math.isfinite(value):
        return None
    return value


def _source(e):
    """Fully parenthesised text of a tree the parser can produce."""
    if isinstance(e, Num):
        places = next(k for k in range(64) if 10 ** k % e.value.denominator == 0)
        digits = e.value.numerator * 10 ** places // e.value.denominator
        return f"{digits // 10 ** places}.{digits % 10 ** places:0{places}d}" if places else str(digits)
    if isinstance(e, TVar):
        return "t"
    if isinstance(e, Const):
        return e.name
    if isinstance(e, Neg):
        return f"(-{_source(e.arg)})"
    if isinstance(e, BinOp):
        return f"({_source(e.left)} {e.op} {_source(e.right)})"
    if isinstance(e, Pow):
        q = e.exponent
        exponent = str(q.numerator) if q.denominator == 1 else f"({q.numerator}/{q.denominator})"
        return f"({_source(e.base)}^{exponent})"
    return f"{e.fn}({_source(e.arg)})"


decimals = st.builds(lambda digits, places: Num(Fraction(digits, 10 ** places)),
                     st.integers(0, 10 ** 6), st.integers(0, 4))
parsed_trees = st.recursive(
    st.one_of(decimals, st.just(TVar()), st.sampled_from([Const("pi"), Const("e")])),
    _extend, max_leaves=10,
)


class TestProperties:
    @given(parsed_trees)
    @settings(max_examples=300, deadline=None)
    def test_printed_tree_parses_back(self, e):
        assert parse(_source(e)) == e

    @given(expressions, st.floats(min_value=0.1, max_value=0.9))
    @settings(max_examples=150, deadline=None)
    def test_finite_difference_matches_symbolic(self, e, t):
        h = 1e-5
        samples = [_safe_eval(e, t + dt) for dt in (-h, 0.0, h)]
        assume(all(s is not None and abs(s) < 1e3 for s in samples))
        d_sym = _safe_eval(differentiate(e), t)
        assume(d_sym is not None and abs(d_sym) < 1e3)
        d_fd = (samples[2] - samples[0]) / (2 * h)
        assert abs(d_fd - d_sym) <= 1e-3 * (1.0 + abs(d_sym))


class TestProfileFunctions:
    def test_derivatives_by_construction(self):
        prof = ProfileFunctions.from_strings("cosh(t)", "sinh(t)")
        k, k1, k2, r, r1, r2 = prof.jet_values(0.7)
        assert k == pytest.approx(math.cosh(0.7), rel=1e-15)
        assert k1 == pytest.approx(math.sinh(0.7), rel=1e-15)
        assert k2 == pytest.approx(math.cosh(0.7), rel=1e-15)
        assert r2 == pytest.approx(math.sinh(0.7), rel=1e-15)
        assert prof.k_value(0.7) == k and prof.r_value(0.7) == r

    def test_constant_profile(self):
        prof = ProfileFunctions.from_strings("cosh(1)", "sinh(1)")
        assert prof.jet_values(3.0)[1:3] == (0.0, 0.0)

    def test_copy_builds_its_own_kernels(self):
        # the documented copy is a new ProfileFunctions: no kernel of the old one carries over
        prof = ProfileFunctions.from_strings("2*t", "1")
        assert prof.jet_values(1.0) == (2.0, 2.0, 0.0, 1.0, 0.0, 0.0)
        copy = ProfileFunctions(k=parse("3*t"), r=prof.r)
        assert copy.jet_values(1.0) == (3.0, 3.0, 0.0, 1.0, 0.0, 0.0)
        assert (copy.k_value(2.0), copy.r is prof.r) == (6.0, True)
        assert prof.jet_values(1.0)[0] == 2.0

    def test_jet_domain_error_names_its_t(self):
        # k is defined at t = 0, but k' = (1/3) t^(-2/3) is not
        prof = ProfileFunctions.from_strings("2+t^(1/3)", "1")
        with pytest.raises(DomainError) as info:
            prof.jet_values(0.0)
        assert str(info.value) == "zero base with negative exponent at t=0.0"
        assert prof.k_value(0.0) == 2.0
        with pytest.raises(DomainError) as info:
            ProfileFunctions.from_strings("ln(t)", "1").k_value(-0.5)
        assert str(info.value) == "ln of nonpositive value -0.5 at t=-0.5"


# -- compiled kernels against the recursive walker ------------------------------

_WALK_FN = {
    "exp": math.exp,
    "sin": math.sin,
    "cos": math.cos,
    "sinh": math.sinh,
    "cosh": math.cosh,
    "tanh": math.tanh,
}


def _walk(e, t):
    """The recursive tree walker the compiled kernels replace (the reference)."""
    if isinstance(e, Num):
        return float(e.value)
    if isinstance(e, TVar):
        return float(t)
    if isinstance(e, Const):
        return {"pi": math.pi, "e": math.e}[e.name]
    if isinstance(e, Neg):
        return -_walk(e.arg, t)
    if isinstance(e, BinOp) and e.op == "+":
        return _walk(e.left, t) + _walk(e.right, t)
    if isinstance(e, BinOp) and e.op == "-":
        return _walk(e.left, t) - _walk(e.right, t)
    if isinstance(e, BinOp) and e.op == "*":
        return _walk(e.left, t) * _walk(e.right, t)
    if isinstance(e, BinOp) and e.op == "/":
        denom = _walk(e.right, t)
        if denom == 0:
            raise DomainError("division by zero")
        return _walk(e.left, t) / denom
    if isinstance(e, Pow):
        base = _walk(e.base, t)
        q = e.exponent
        if q.denominator == 1:
            if base == 0 and q < 0:
                raise DomainError("zero base with negative exponent")
            return base ** int(q)
        if base < 0:
            raise DomainError("negative base with fractional exponent")
        if base == 0 and q < 0:
            raise DomainError("zero base with negative exponent")
        return base ** float(q)
    if isinstance(e, Call):
        x = _walk(e.arg, t)
        if e.fn == "ln":
            if x <= 0:
                raise DomainError(f"ln of nonpositive value {x}")
            return math.log(x)
        if e.fn == "sqrt":
            if x < 0:
                raise DomainError(f"sqrt of negative value {x}")
            return math.sqrt(x)
        return _WALK_FN[e.fn](x)
    raise TypeError(f"not an Expr: {e!r}")


def _outcome(thunk):
    """Exact bits of every value (so -0.0 != 0.0), any NaN as 'nan', or the error.

    NaN signs are not compared: CPython itself picks the sign of a NaN
    product differently once an instruction is specialized.
    """
    try:
        values = thunk()
    except Exception as err:  # noqa: BLE001 - the exception is the outcome
        return type(err), str(err)
    return tuple("nan" if v != v else struct.pack("<d", v) for v in values)


signed_numbers = st.fractions(min_value=-4, max_value=4, max_denominator=10).map(Num)
signed_expressions = st.recursive(st.one_of(leaves, signed_numbers), _extend, max_leaves=8)
times = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0]),
    st.floats(allow_nan=True, allow_infinity=True),
)


def _jet(e):
    d1 = differentiate(e)
    return (e, d1, differentiate(d1))


class TestCompiledExprKernel:
    @given(signed_expressions, times)
    @settings(max_examples=300, deadline=None)
    def test_single_tree_matches_walker(self, e, t):
        kernel = compile_exprs(e)
        assert _outcome(lambda: kernel(t)) == _outcome(lambda: (_walk(e, t),))

    @given(st.lists(signed_expressions, min_size=1, max_size=2), times)
    @settings(max_examples=200, deadline=None)
    def test_jet_trees_match_sequential_walk(self, exprs, t):
        # derivative trees share subtree objects with their source, and the
        # second expression may repeat subtrees of the first by value
        trees = [tree for e in exprs for tree in _jet(e)]
        kernel = compile_exprs(*trees)
        assert _outcome(lambda: kernel(t)) == _outcome(lambda: [_walk(e, t) for e in trees])

    def test_negative_literal_precedence(self):
        minus_two = Num(Fraction(-2))
        kernel = compile_exprs(Pow(minus_two, Fraction(2)), Neg(minus_two), Pow(minus_two, Fraction(-1)))
        assert kernel(0.0) == (4.0, 2.0, -0.5)

    def test_sign_of_zero(self):
        kernel = compile_exprs(Neg(Num(Fraction(0))), BinOp("*", TVar(), Num(Fraction(-1))))
        assert [math.copysign(1.0, v) for v in kernel(0.0)] == [-1.0, -1.0]

    @pytest.mark.parametrize(
        "texts, t, message",
        [
            (("1 + 1/(t + 1)", "ln(t)", "1/(t + 1)"), -1.0, "division by zero"),
            (("ln(t)", "1 + 1/(t + 1)", "1/(t + 1)"), -1.0, "ln of nonpositive value -1.0"),
            (("ln(t)/sqrt(t)",), -1.0, "sqrt of negative value -1.0"),
            (("(t + 1)^(1/2) + t^(-1)",), 0.0, "zero base with negative exponent"),
            (("t^(-1/2)", "(t - 1)^(1/2)"), -1.0, "negative base with fractional exponent"),
        ],
    )
    def test_first_error_of_shared_subtrees(self, texts, t, message):
        trees = [parse(text) for text in texts]
        with pytest.raises(DomainError) as info:
            compile_exprs(*trees)(t)
        assert str(info.value) == message
        assert _outcome(lambda: [_walk(e, t) for e in trees]) == (DomainError, message)

    @pytest.mark.parametrize("t", [0.0, 1.0])
    def test_overflow_where_the_walker_overflows(self, t):
        huge = Num(Fraction(10 ** 400))  # no float: converting it overflows
        trees = (BinOp("+", BinOp("/", Num(Fraction(1)), TVar()), huge), parse("exp(1000*t)"))
        kernel = compile_exprs(*trees)
        expected = _outcome(lambda: [_walk(e, t) for e in trees])
        assert expected[0] in (DomainError, OverflowError)
        assert _outcome(lambda: kernel(t)) == expected

    def test_repeated_subtrees_compiled_once(self):
        text = "sinh(2*t)/(1 + t^2) + ln(2 + t)"
        alone = compile_exprs(parse(text))
        twice = compile_exprs(parse(text), parse(text))  # equal, not identical
        assert twice.__code__.co_varnames == alone.__code__.co_varnames
        assert twice(0.3) == alone(0.3) * 2

    def test_profile_kernels_compiled_once(self, monkeypatch):
        compiled = []

        def counting(*exprs):
            compiled.append(exprs)
            return compile_exprs(*exprs)

        monkeypatch.setattr(exprlang, "compile_exprs", counting)
        prof = ProfileFunctions.from_strings("2 + 0.3*t*sin(t)", "1 + 0.2*cosh(t/2)")
        trees = (*_jet(prof.k), *_jet(prof.r))  # (k, D k, D D k, r, D r, D D r), D = differentiate
        for t in (0.1, 0.2, 0.3):
            jet = prof.jet_values(t)
            assert _outcome(lambda: jet) == _outcome(lambda: [_walk(e, t) for e in trees])
            assert (prof.k_value(t), prof.r_value(t)) == (jet[0], jet[3])
        assert compiled == [trees, (prof.k,), (prof.r,)]
