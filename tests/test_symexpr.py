"""Exact-arithmetic kernel: ring axioms, calculus rules, level-set reduction."""

import math
import operator
import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from folicurve.identity import (LORENTZIAN, RIEMANNIAN, neg_nH_S3, rotational_ode_form,
                                s_squared_reduced)
from folicurve.symexpr import (
    KAP,
    KAP1,
    KAP2,
    NU,
    RHO,
    RHO1,
    RHO2,
    SIG,
    X,
    ONE,
    Indeterminate,
    JetOrderExceeded,
    MissingBinding,
    SymExpr,
    x_pow,
)

# small ones, and ones beyond 2^64 that no machine word holds
coeffs = st.integers(min_value=-4, max_value=4) | st.integers(min_value=-2 ** 70, max_value=2 ** 70)


def exponents(with_second_jets: bool = True) -> st.SearchStrategy:
    """One exponent per `Indeterminate`: X Laurent in [-2, 3], the others in [0, 2]
    unless listed in `highest`."""
    jet_max = 2 if with_second_jets else 0
    highest = {Indeterminate.X: 3, Indeterminate.KAP2: jet_max, Indeterminate.RHO2: jet_max,
               Indeterminate.SIG: 1, Indeterminate.NU: 1}
    return st.tuples(*(st.integers(min_value=-2 if ind is Indeterminate.X else 0,
                                   max_value=highest.get(ind, 2))
                       for ind in Indeterminate))


def sym_exprs(with_second_jets: bool = True, coefficients=coeffs) -> st.SearchStrategy:
    return st.dictionaries(exponents(with_second_jets), coefficients, max_size=4).map(SymExpr)


bindings_st = st.fixed_dictionaries(
    {ind: st.floats(min_value=0.5, max_value=2.0) for ind in Indeterminate}
)


class TestRingOperations:
    def test_additive_inverse(self):
        assert (X + (-X)).is_zero

    def test_like_term_merge(self):
        assert 2 * KAP * X ** 2 + 3 * KAP * X ** 2 == 5 * KAP * X ** 2

    def test_add_identity(self):
        p = 3 * RHO - X ** 2
        assert p + SymExpr() == p

    def test_laurent_cancellation(self):
        assert x_pow(-1) * X == ONE

    def test_binomial_expansion(self):
        lhs = (RHO * RHO1 - KAP * KAP1) ** 2
        rhs = RHO ** 2 * RHO1 ** 2 - 2 * KAP * KAP1 * RHO * RHO1 + KAP ** 2 * KAP1 ** 2
        assert lhs == rhs

    def test_sixth_power_constant_term(self):
        # constant X-coefficient of the cubed quarter-norm
        a = (X - KAP) * KAP1 + RHO * RHO1
        expansion = (X ** 2 * RHO ** 2 + a ** 2) ** 3
        assert expansion.coeff_of(Indeterminate.X, 0) == (RHO * RHO1 - KAP * KAP1) ** 6

    def test_pow_rejects_negative(self):
        with pytest.raises(ValueError):
            X ** -1

    @given(sym_exprs())
    @settings(max_examples=10, deadline=None)
    def test_pow_matches_square_and_multiply(self, p):
        def reference(base, power):
            # square-and-multiply that squares once per bit, the last one included
            result = ONE
            while power:
                if power & 1:
                    result = result * base
                base = base * base
                power >>= 1
            return result

        multiply = SymExpr.__mul__
        calls = []

        def counting(a, b):
            calls.append(None)
            return multiply(a, b)

        for e in range(13):
            expected = list(reference(p, e).terms())
            calls.clear()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(SymExpr, "__mul__", counting)
                power = p ** e
            assert list(power.terms()) == expected
            assert len(calls) == max(e.bit_length() - 1, 0) + bin(e).count("1")

    @given(sym_exprs(), sym_exprs(), sym_exprs())
    @settings(max_examples=60)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c

    @given(sym_exprs())
    def test_structural_equality_of_roundtrip(self, a):
        rebuilt = SymExpr(dict(a.terms()))
        assert rebuilt == a
        assert hash(rebuilt) == hash(a)
        assert list(rebuilt.terms()) == list(a.terms())


class TestDerivatives:
    def test_d_dX_power(self):
        assert (X ** 3).d_dX() == 3 * X ** 2

    def test_d_dX_sigma_constant(self):
        assert SIG.d_dX().is_zero

    def test_d_dX_shifted_square(self):
        assert ((X - KAP) ** 2).d_dX() == 2 * (X - KAP)

    def test_d_dt_chain(self):
        assert KAP.d_dt() == KAP1
        assert (X ** 2).d_dt().is_zero

    def test_d_dt_of_vertical_slot(self):
        a = (X - KAP) * KAP1 + RHO * RHO1
        expected = -(KAP1 ** 2) + (X - KAP) * KAP2 + RHO1 ** 2 + RHO * RHO2
        assert a.d_dt() == expected

    def test_d_dt_guards_third_jets(self):
        with pytest.raises(JetOrderExceeded):
            (KAP * KAP2).d_dt()
        with pytest.raises(JetOrderExceeded):
            RHO2.d_dt()

    @given(sym_exprs(with_second_jets=False), sym_exprs(with_second_jets=False))
    @settings(max_examples=60)
    def test_linearity_and_leibniz(self, a, b):
        assert (a + b).d_dX() == a.d_dX() + b.d_dX()
        assert (a * b).d_dX() == a.d_dX() * b + a * b.d_dX()
        assert (a + b).d_dt() == a.d_dt() + b.d_dt()
        assert (a * b).d_dt() == a.d_dt() * b + a * b.d_dt()


class TestLevelSetReduction:
    def test_rule_itself(self):
        assert SIG.reduce_level_set() == RHO ** 2 - (X - KAP) ** 2

    def test_leaf_relation_vanishes(self):
        assert (SIG + (X - KAP) ** 2 - RHO ** 2).reduce_level_set().is_zero

    def test_norm_reduction(self):
        lhs = X ** 2 * SIG + X ** 2 * (X - KAP) ** 2
        assert lhs.reduce_level_set() == X ** 2 * RHO ** 2

    @given(sym_exprs())
    @settings(max_examples=60)
    def test_idempotent(self, a):
        reduced = a.reduce_level_set()
        assert reduced.reduce_level_set() == reduced

    @given(sym_exprs(), sym_exprs())
    @settings(max_examples=60)
    def test_ring_homomorphism_mod_relation(self, a, b):
        lhs = (a * b).reduce_level_set()
        rhs = (a.reduce_level_set() * b.reduce_level_set()).reduce_level_set()
        assert lhs == rhs


class TestCoefficients:
    def test_simple_extraction(self):
        p = 3 * X ** 2 + KAP * X
        assert p.coeff_of(Indeterminate.X, 1) == KAP
        assert p.coeff_of(Indeterminate.X, 2) == 3
        assert p.coeff_of(Indeterminate.X, 5).is_zero

    def test_square_of_pure_cubic_has_no_constant(self):
        p = KAP * X ** 3 + RHO * X ** 2 + NU * X
        assert (p * p).coeff_of(Indeterminate.X, 0).is_zero
        assert (p * p).coeff_of(Indeterminate.X, 1).is_zero

    @given(sym_exprs())
    @settings(max_examples=60)
    def test_reassembly(self, a):
        total = SymExpr()
        for d in {exps[Indeterminate.X] for exps, _ in a.terms()}:
            total = total + a.coeff_of(Indeterminate.X, d) * x_pow(d)
        assert total == a


def dense(bindings) -> list:
    """The dense binding vector of a mapping: one slot per Indeterminate, None if unbound."""
    return [bindings.get(ind) for ind in Indeterminate]


class TestNumericEvaluation:
    def test_square(self):
        assert (X ** 2).eval_numeric(dense({Indeterminate.X: 2.0})) == 4.0

    def test_forced_zero(self):
        p = (RHO * RHO1 - KAP * KAP1) ** 6
        value = p.eval_numeric(dense(
            {
                Indeterminate.RHO: 2.0,
                Indeterminate.RHO1: 3.0,
                Indeterminate.KAP: 6.0,
                Indeterminate.KAP1: 1.0,
            }
        ))
        assert value == 0.0

    def test_cylinder_reduced_norm(self):
        import math

        s2 = (X ** 2 * SIG + X ** 2 * (X - KAP) ** 2 + ((X - KAP) * KAP1 + RHO * RHO1) ** 2)
        reduced = s2.reduce_level_set()
        xn = 1.8
        value = reduced.eval_numeric(dense(
            {
                Indeterminate.X: xn,
                Indeterminate.KAP: math.cosh(1),
                Indeterminate.KAP1: 0.0,
                Indeterminate.RHO: math.sinh(1),
                Indeterminate.RHO1: 0.0,
            }
        ))
        assert value == pytest.approx(xn ** 2 * math.sinh(1) ** 2, rel=1e-14)

    def test_missing_binding(self):
        with pytest.raises(MissingBinding):
            (X * KAP).eval_numeric(dense({Indeterminate.X: 1.0}))

    def test_laurent_requires_positive_x(self):
        with pytest.raises(ValueError):
            x_pow(-2).eval_numeric(dense({Indeterminate.X: 0.0}))

    # coefficients in [-4, 4]: beyond 2^53, float(c) rounds, and a sum that
    # cancels would compare its rounding errors, not the additivity
    @given(sym_exprs(coefficients=st.integers(-4, 4)), sym_exprs(coefficients=st.integers(-4, 4)),
           bindings_st)
    @settings(max_examples=60)
    def test_additivity(self, a, b, bindings):
        lhs = (a + b).eval_numeric(dense(bindings))
        rhs = a.eval_numeric(dense(bindings)) + b.eval_numeric(dense(bindings))
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs) + abs(rhs))


def term_loop_eval(p: SymExpr, bindings) -> float:
    """The plain term loop that eval_numeric compiles; the bit-identity reference."""
    used = sorted(p.indeterminates())
    total = 0.0
    for exps, coeff in p.terms():
        value = 1.0
        for ind in used:
            e = exps[ind]
            if e:
                value *= bindings[ind] ** e
        total += float(coeff) * value
    return total


def assert_same_double(a: float, b: float) -> None:
    if math.isnan(a) and math.isnan(b):
        return
    assert struct.pack("<d", a) == struct.pack("<d", b)


# 2-jets with either sign of k', r', k'', r'' and every dimension n in 2..6
jets_st = st.fixed_dictionaries(
    {
        Indeterminate.X: st.floats(min_value=1e-3, max_value=10.0),
        Indeterminate.KAP: st.floats(min_value=1e-3, max_value=10.0),
        Indeterminate.KAP1: st.floats(min_value=-10.0, max_value=10.0),
        Indeterminate.KAP2: st.floats(min_value=-10.0, max_value=10.0),
        Indeterminate.RHO: st.floats(min_value=1e-3, max_value=10.0),
        Indeterminate.RHO1: st.floats(min_value=-10.0, max_value=10.0),
        Indeterminate.RHO2: st.floats(min_value=-10.0, max_value=10.0),
        Indeterminate.NU: st.integers(min_value=2, max_value=6).map(float),
    }
)

VERIFIED = {
    f"{name}-{sig.label}": build(sig)
    for sig in (RIEMANNIAN, LORENTZIAN)
    for name, build in [
        ("neg_nH_S3", neg_nH_S3),
        ("s_squared_reduced", s_squared_reduced),
        ("ode_lead", lambda sig: rotational_ode_form(sig)[0]),
        ("ode_rest", lambda sig: rotational_ode_form(sig)[1]),
    ]
}


class TestCompiledKernel:
    @given(sym_exprs(), bindings_st)
    @settings(max_examples=200)
    def test_matches_term_loop(self, p, bindings):
        assert_same_double(p.eval_numeric(dense(bindings)), term_loop_eval(p, bindings))

    @given(
        sym_exprs(),
        st.fixed_dictionaries(
            {ind: st.integers(min_value=1, max_value=2 ** 60) for ind in Indeterminate}
        ),
    )
    @settings(max_examples=60)
    def test_integer_bindings_match_term_loop(self, p, bindings):
        assert_same_double(p.eval_numeric(dense(bindings)), term_loop_eval(p, bindings))

    @pytest.mark.parametrize("name", sorted(VERIFIED))
    @given(bindings=jets_st)
    @settings(max_examples=100)
    def test_verified_polynomials_match_term_loop(self, name, bindings):
        p = VERIFIED[name]
        assert_same_double(p.eval_numeric(dense(bindings)), term_loop_eval(p, bindings))

    def test_factors_multiply_in_index_order(self):
        # a set of {KAP, RHO, NU} iterates NU first, and at these values
        # (nu * kap) * rho != (kap * rho) * nu
        bindings = {Indeterminate.KAP: 0.1, Indeterminate.RHO: 0.7, Indeterminate.NU: 3.0}
        assert (3.0 * 0.1) * 0.7 != (0.1 * 0.7) * 3.0
        for p in (KAP * RHO * NU, NU * RHO * KAP):
            assert_same_double(p.eval_numeric(dense(bindings)), 0.0 + 1.0 * (1.0 * 0.1 * 0.7 * 3.0))
            assert_same_double(p.eval_numeric(dense(bindings)), term_loop_eval(p, bindings))

    def test_compiled_once(self, monkeypatch):
        compiled = []
        original = SymExpr._compile_kernel

        def counting(self):
            compiled.append(self)
            return original(self)

        monkeypatch.setattr(SymExpr, "_compile_kernel", counting)
        p = 3 * X * KAP - RHO ** 2
        bindings = {Indeterminate.X: 1.5, Indeterminate.KAP: 2.0, Indeterminate.RHO: 0.5}
        assert p.eval_numeric(dense(bindings)) == p.eval_numeric(dense(bindings)) == 8.75
        assert compiled == [p]

    def test_value_semantics_ignore_kernel(self):
        p = X * KAP + ONE
        q = SymExpr(dict(p.terms()))
        p.eval_numeric(dense({Indeterminate.X: 1.0, Indeterminate.KAP: 2.0}))
        assert p == q and hash(p) == hash(q)

    def test_missing_binding_message_after_compile(self):
        p = X * KAP * RHO
        p.eval_numeric(dense({Indeterminate.X: 1.0, Indeterminate.KAP: 1.0, Indeterminate.RHO: 1.0}))
        with pytest.raises(MissingBinding, match=r"^no value for KAP, RHO$"):
            p.eval_numeric(dense({Indeterminate.X: 1.0}))

    def test_laurent_check_after_compile(self):
        p = x_pow(-1) + KAP
        assert p.eval_numeric(dense({Indeterminate.X: 2.0, Indeterminate.KAP: 1.0})) == 1.5
        with pytest.raises(ValueError, match="X binding must be positive"):
            p.eval_numeric(dense({Indeterminate.X: -2.0, Indeterminate.KAP: 1.0}))


class TestDenseBindings:
    @given(sym_exprs(), bindings_st)
    @settings(max_examples=200)
    def test_matches_mapping(self, p, bindings):
        # the term loop reads the mapping itself
        assert_same_double(p.eval_numeric(dense(bindings)), term_loop_eval(p, bindings))

    @pytest.mark.parametrize("name", sorted(VERIFIED))
    @given(bindings=jets_st)
    @settings(max_examples=100)
    def test_verified_polynomials_match_mapping(self, name, bindings):
        p = VERIFIED[name]
        value = p.eval_numeric(dense(bindings))  # SIG unbound: none of them uses it
        assert_same_double(value, term_loop_eval(p, bindings))

    def test_unbound_slot_is_missing_binding(self):
        p = X * KAP * RHO
        values = dense({Indeterminate.X: 1.0, Indeterminate.KAP: 1.0, Indeterminate.RHO: 1.0})
        assert p.eval_numeric(values) == 1.0
        values[Indeterminate.KAP] = values[Indeterminate.RHO] = None
        with pytest.raises(MissingBinding, match=r"^no value for KAP, RHO$"):
            p.eval_numeric(values)
        with pytest.raises(MissingBinding, match=r"^no value for KAP, RHO$"):
            p.eval_numeric([1.0])

    def test_other_errors_pass_through(self):
        with pytest.raises(TypeError):
            (X * KAP).eval_numeric(["1.0", 2.0])


def term_loop_add(a: SymExpr, b: SymExpr) -> dict:
    """The plain term loop of addition: a sum that cancels drops its term."""
    out = dict(a.terms())
    for exps, coeff in b.terms():
        acc = out.get(exps, 0) + coeff
        if acc:
            out[exps] = acc
        else:
            out.pop(exps, None)
    return out


def term_loop_mul(a: SymExpr, b: SymExpr) -> dict:
    """The plain term loop of multiplication."""
    out: dict = {}
    for ea, ca in a.terms():
        for eb, cb in b.terms():
            exps = tuple(x + y for x, y in zip(ea, eb))
            acc = out.get(exps, 0) + ca * cb
            if acc:
                out[exps] = acc
            else:
                out.pop(exps, None)
    return out


def assert_canonical(p: SymExpr) -> None:
    """Every coefficient is a nonzero int."""
    for _, coeff in p.terms():
        assert type(coeff) is int and coeff


CONSTANT = (0,) * len(Indeterminate)


class TestCanonicalCoefficients:
    @pytest.mark.parametrize("op, reference", [
        (lambda a, b: a + b, term_loop_add),
        (lambda a, b: a * b, term_loop_mul),
    ], ids=["add", "mul"])
    @given(a=sym_exprs(), b=sym_exprs())
    @settings(max_examples=150)
    def test_matches_the_term_loop(self, op, reference, a, b):
        result = op(a, b)
        expected = SymExpr(reference(a, b))
        assert result == expected and hash(result) == hash(expected)
        assert result.to_text() == expected.to_text()
        assert_canonical(result)

    @given(sym_exprs())
    @settings(max_examples=100)
    def test_constructors_and_calculus_are_canonical(self, a):
        assert_canonical(a)
        assert_canonical(-a)
        assert_canonical(a.d_dX())
        assert_canonical(a.reduce_level_set())
        assert_canonical(a.coeff_of(Indeterminate.X, 0))
        if not ({Indeterminate.KAP2, Indeterminate.RHO2} & a.indeterminates()):
            assert_canonical(a.d_dt())

    @given(coeffs, coeffs)
    def test_constant_equals_its_number(self, p, q):
        constant = SymExpr({CONSTANT: p})
        cases = [(constant, p), (p * ONE, p), (constant * q, p * q),
                 (constant + q, p + q), (constant - p, 0)]
        for const, expected in cases:
            assert const == expected
            assert_canonical(const)

    def test_integer_scalars_coerce_like_polynomials(self):
        assert SymExpr() == 0 and X - X == 0
        assert ONE == 1 == SymExpr({CONSTANT: 1})
        assert (X + 0) == X and (X * 1) == X and (X * 0).is_zero
        assert 2 * X - X == X and 3 - X == -(X - 3)

    @pytest.mark.parametrize("name", sorted(VERIFIED))
    def test_verified_polynomials_have_int_coefficients(self, name):
        assert all(type(c) is int for _, c in VERIFIED[name].terms())

    def test_constants_hash_like_their_numbers(self):
        assert len({ONE, 1}) == 1
        assert hash(-3 * ONE) == hash(-3) and hash(2 ** 70 * ONE) == hash(2 ** 70)
        assert hash(SymExpr()) == hash(0) == hash(X - X)

    @given(coeffs, sym_exprs())
    def test_hash_agrees_with_equality(self, c, p):
        constant = SymExpr({CONSTANT: c})
        assert constant == c and hash(constant) == hash(c)
        if set(dict(p.terms())) - {CONSTANT}:
            assert hash(p) == hash(frozenset(p.terms()))


class TestIntegerRing:
    @pytest.mark.parametrize("coeff", [0.1, 2.0, Fraction(1, 2), Fraction(4, 2)],
                             ids=["float", "integral-float", "fraction", "integral-fraction"])
    def test_a_non_int_coefficient_is_a_type_error(self, coeff):
        with pytest.raises(TypeError):
            SymExpr({CONSTANT: coeff})
        with pytest.raises(TypeError):
            SymExpr({(1,) + CONSTANT[1:]: coeff})

    def test_non_int_scalars_are_type_errors(self):
        for scalar in (0.5, Fraction(1, 2)):
            for op in (lambda: X * scalar, lambda: scalar * X, lambda: X + scalar,
                       lambda: scalar + X, lambda: X - scalar):
                with pytest.raises(TypeError):
                    op()


class TestExactHalving:
    @given(sym_exprs())
    @settings(max_examples=150)
    def test_halving_is_exact_and_canonical(self, p):
        # exact, or it raises
        if all(c % 2 == 0 for _, c in p.terms()):
            half = p / 2
            assert [(exps, 2 * c) for exps, c in half.terms()] == list(p.terms())
            assert_canonical(half)
        else:
            with pytest.raises(ArithmeticError, match=r"^2 does not divide every coefficient$"):
                p / 2
        assert list((2 * p / 2).terms()) == list(p.terms())

    def test_inexact_division_raises_arithmetic_error(self):
        with pytest.raises(ArithmeticError, match=r"^2 does not divide every coefficient$") as info:
            (3 * X) / 2
        assert info.type is ArithmeticError
        with pytest.raises(ArithmeticError, match=r"^-3 does not divide every coefficient$"):
            (3 * X + 2 * KAP) / -3

    def test_exact_division_keeps_ints(self):
        quotient = (4 * X - 6 * KAP) / 2
        assert quotient == 2 * X - 3 * KAP
        assert [type(c) for _, c in quotient.terms()] == [int, int]
        assert (2 ** 70 * RHO) / -(2 ** 69) == -2 * RHO

    def test_divisor_must_be_a_nonzero_int(self):
        with pytest.raises(ZeroDivisionError):
            X / 0
        with pytest.raises(ZeroDivisionError):
            SymExpr() / 0
        with pytest.raises(TypeError):
            X / 0.5
        with pytest.raises(TypeError):
            X / Fraction(1, 2)


class TestTextForm:
    def test_golden_square(self):
        assert str((X + KAP) ** 2) == "X^2 + 2*X*KAP + KAP^2"

    def test_golden_signs(self):
        p = -3 * X + RHO - x_pow(-1)
        assert str(p) == "-3*X + RHO - X^-1"
        assert str(2 ** 70 * KAP - 1) == "1180591620717411303424*KAP - 1"

    def test_zero(self):
        assert str(SymExpr()) == "0"

    @given(sym_exprs())
    @settings(max_examples=40)
    def test_deterministic(self, a):
        assert a.to_text() == SymExpr(dict(a.terms())).to_text()


def reference_mul(self, other) -> dict:
    """The product over tuple keys that packed keys replaced, kept verbatim as
    the reference, except that it reads `terms()` and inlines the `_canonical`
    it called."""
    out: dict = {}
    get = out.get
    add = operator.add
    for ea, ca in self.terms():
        for eb, cb in other.terms():
            exps = tuple(map(add, ea, eb))
            out[exps] = get(exps, 0) + ca * cb
    return {exps: c for exps, c in out.items() if c}


# the exponent range of the module docstring: [-2**14, 2**14)
LIMIT = 2 ** 14


def monomial(**exps: int) -> tuple:
    """An exponent vector, zero except where named."""
    return tuple(exps.get(ind.name, 0) for ind in Indeterminate)


class TestPackedKeys:
    @pytest.mark.parametrize("exps", [(1, 2), CONSTANT + (0,), ()], ids=["short", "long", "empty"])
    def test_wrong_width_is_a_value_error(self, exps):
        message = rf"^exponent vector has {len(exps)} entries, not {len(Indeterminate)}$"
        with pytest.raises(ValueError, match=message):
            SymExpr({exps: 3})
        with pytest.raises(ValueError, match=message):
            SymExpr({exps: 0})

    @given(sym_exprs(), sym_exprs())
    @settings(max_examples=150)
    def test_product_keeps_the_tuple_order(self, a, b):
        assert list((a * b).terms()) == list(reference_mul(a, b).items())

    @pytest.mark.parametrize("name", sorted(VERIFIED))
    def test_verified_squares_keep_the_tuple_order(self, name):
        p = VERIFIED[name]
        assert list((p * p).terms()) == list(reference_mul(p, p).items())

    def test_edges_of_the_range_round_trip(self):
        for ind in Indeterminate:
            for e in (-LIMIT, LIMIT - 1):
                exps = monomial(**{ind.name: e})
                assert list(SymExpr({exps: -5}).terms()) == [(exps, -5)]
        assert list((x_pow(-LIMIT) * KAP).terms()) == [(monomial(X=-LIMIT, KAP=1), 1)]
        assert list((x_pow(LIMIT - 2) * X).terms()) == [(monomial(X=LIMIT - 1), 1)]
        assert list((NU ** (LIMIT - 1)).terms()) == [(monomial(NU=LIMIT - 1), 1)]

    @pytest.mark.parametrize("ind", list(Indeterminate), ids=lambda ind: ind.name)
    @pytest.mark.parametrize("e", [LIMIT, -LIMIT - 1, 2 ** 70], ids=["above", "below", "huge"])
    def test_constructor_rejects_an_exponent_out_of_range(self, ind, e):
        with pytest.raises(OverflowError, match=rf"^exponent outside \[{-LIMIT}, {LIMIT - 1}\]$"):
            SymExpr({monomial(**{ind.name: e}): 1})

    @pytest.mark.parametrize("build", [
        lambda: x_pow(LIMIT),
        lambda: x_pow(-LIMIT - 1),
        lambda: x_pow(LIMIT - 1) * X,
        lambda: x_pow(-LIMIT) * x_pow(-1),
        lambda: (x_pow(-LIMIT) * KAP) * x_pow(-1),
        lambda: (x_pow(-LIMIT) * KAP * NU ** 3) * (x_pow(-1) * RHO),
        lambda: KAP ** (LIMIT - 1) * KAP,
        lambda: NU ** (LIMIT - 1) * NU,
        lambda: (X * NU ** 2) ** (LIMIT // 2),
        lambda: x_pow(-2) ** (LIMIT // 2 + 1),
        lambda: (KAP * KAP1 ** (LIMIT - 1)).d_dt(),
        lambda: (RHO * RHO1 ** (LIMIT - 1)).d_dt(),
        lambda: x_pow(-LIMIT).d_dX(),
        lambda: (x_pow(-LIMIT) * KAP).d_dX(),
        lambda: (SIG ** (LIMIT // 2)).substitute(Indeterminate.SIG, X * X),
        lambda: (x_pow(-LIMIT) * SIG).substitute(Indeterminate.SIG, x_pow(-1)),
        lambda: (KAP * SIG).substitute(Indeterminate.SIG, x_pow(-LIMIT) * KAP ** (LIMIT - 1)),
    ], ids=["x_pow-above", "x_pow-below", "mul-above", "mul-below", "mul-below-under-KAP",
            "mul-below-under-NU", "mul-KAP", "mul-NU", "pow-above", "pow-below",
            "d_dt-KAP1", "d_dt-RHO1", "d_dX", "d_dX-under-KAP", "substitute-above",
            "substitute-below", "substitute-KAP"])
    def test_an_exponent_leaving_the_range_overflows(self, build):
        with pytest.raises(OverflowError, match=rf"^exponent outside \[{-LIMIT}, {LIMIT - 1}\]$"):
            build()
