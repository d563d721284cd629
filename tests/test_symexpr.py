"""Exact-arithmetic kernel: ring axioms, calculus rules, level-set reduction."""

import math
import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from folicurve.identity import LORENTZIAN, RIEMANNIAN, neg_nH_S3, s_squared_reduced
from folicurve.profiles import _ode_form
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
    ZERO,
    Indeterminate,
    JetOrderExceeded,
    MissingBinding,
    SymExpr,
    rational,
    x_pow,
)

coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def exponents(with_second_jets: bool = True) -> st.SearchStrategy:
    jet_max = 2 if with_second_jets else 0
    return st.tuples(
        st.integers(min_value=-2, max_value=3),   # X, Laurent
        st.integers(min_value=0, max_value=2),    # KAP
        st.integers(min_value=0, max_value=2),    # KAP1
        st.integers(min_value=0, max_value=jet_max),  # KAP2
        st.integers(min_value=0, max_value=2),    # RHO
        st.integers(min_value=0, max_value=2),    # RHO1
        st.integers(min_value=0, max_value=jet_max),  # RHO2
        st.integers(min_value=0, max_value=1),    # SIG
        st.integers(min_value=0, max_value=1),    # NU
    )


def sym_exprs(with_second_jets: bool = True) -> st.SearchStrategy:
    return st.dictionaries(exponents(with_second_jets), coeffs, max_size=4).map(SymExpr)


bindings_st = st.fixed_dictionaries(
    {ind: st.floats(min_value=0.5, max_value=2.0) for ind in Indeterminate}
)


class TestRingOperations:
    def test_additive_inverse(self):
        assert (X + (-X)).is_zero

    def test_like_term_merge(self):
        assert rational(2) * KAP * X ** 2 + rational(3) * KAP * X ** 2 == rational(5) * KAP * X ** 2

    def test_add_identity(self):
        p = rational(3) * RHO - X ** 2
        assert p + ZERO == p

    def test_laurent_cancellation(self):
        assert x_pow(-1) * X == ONE

    def test_binomial_expansion(self):
        lhs = (RHO * RHO1 - KAP * KAP1) ** 2
        rhs = RHO ** 2 * RHO1 ** 2 - rational(2) * KAP * KAP1 * RHO * RHO1 + KAP ** 2 * KAP1 ** 2
        assert lhs == rhs

    def test_sixth_power_constant_term(self):
        # constant X-coefficient of the cubed quarter-norm
        a = (X - KAP) * KAP1 + RHO * RHO1
        expansion = (X ** 2 * RHO ** 2 + a ** 2) ** 3
        assert expansion.coeff_of_X(0) == (RHO * RHO1 - KAP * KAP1) ** 6

    def test_pow_rejects_negative(self):
        with pytest.raises(ValueError):
            X ** -1

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


class TestDerivatives:
    def test_d_dX_power(self):
        assert (X ** 3).d_dX() == rational(3) * X ** 2

    def test_d_dX_sigma_constant(self):
        assert SIG.d_dX().is_zero

    def test_d_dX_shifted_square(self):
        assert ((X - KAP) ** 2).d_dX() == rational(2) * (X - KAP)

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
        p = rational(3) * X ** 2 + KAP * X
        assert p.coeff_of_X(1) == KAP
        assert p.coeff_of_X(2) == rational(3)
        assert p.coeff_of_X(5).is_zero

    def test_square_of_pure_cubic_has_no_constant(self):
        p = KAP * X ** 3 + RHO * X ** 2 + NU * X
        assert (p * p).coeff_of_X(0).is_zero
        assert (p * p).coeff_of_X(1).is_zero

    @given(sym_exprs())
    @settings(max_examples=60)
    def test_reassembly(self, a):
        total = ZERO
        for d in {exps[Indeterminate.X] for exps, _ in a.terms()}:
            total = total + a.coeff_of_X(d) * x_pow(d)
        assert total == a


class TestNumericEvaluation:
    def test_square(self):
        assert (X ** 2).eval_numeric({Indeterminate.X: 2.0}) == 4.0

    def test_forced_zero(self):
        p = (RHO * RHO1 - KAP * KAP1) ** 6
        value = p.eval_numeric(
            {
                Indeterminate.RHO: 2.0,
                Indeterminate.RHO1: 3.0,
                Indeterminate.KAP: 6.0,
                Indeterminate.KAP1: 1.0,
            }
        )
        assert value == 0.0

    def test_cylinder_reduced_norm(self):
        import math

        s2 = (X ** 2 * SIG + X ** 2 * (X - KAP) ** 2 + ((X - KAP) * KAP1 + RHO * RHO1) ** 2)
        reduced = s2.reduce_level_set()
        xn = 1.8
        value = reduced.eval_numeric(
            {
                Indeterminate.X: xn,
                Indeterminate.KAP: math.cosh(1),
                Indeterminate.KAP1: 0.0,
                Indeterminate.RHO: math.sinh(1),
                Indeterminate.RHO1: 0.0,
            }
        )
        assert value == pytest.approx(xn ** 2 * math.sinh(1) ** 2, rel=1e-14)

    def test_missing_binding(self):
        with pytest.raises(MissingBinding):
            (X * KAP).eval_numeric({Indeterminate.X: 1.0})

    def test_laurent_requires_positive_x(self):
        with pytest.raises(ValueError):
            x_pow(-2).eval_numeric({Indeterminate.X: 0.0})

    @given(sym_exprs(), sym_exprs(), bindings_st)
    @settings(max_examples=60)
    def test_additivity(self, a, b, bindings):
        lhs = (a + b).eval_numeric(bindings)
        rhs = a.eval_numeric(bindings) + b.eval_numeric(bindings)
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs) + abs(rhs))


def term_loop_eval(p: SymExpr, bindings) -> float:
    """The plain term loop that eval_numeric compiles; the bit-identity reference."""
    used = p.indeterminates()
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
        ("ode_lead", lambda sig: _ode_form(sig)[0]),
        ("ode_rest", lambda sig: _ode_form(sig)[1]),
    ]
}


class TestCompiledKernel:
    @given(sym_exprs(), bindings_st)
    @settings(max_examples=200)
    def test_matches_term_loop(self, p, bindings):
        assert_same_double(p.eval_numeric(bindings), term_loop_eval(p, bindings))

    @given(
        sym_exprs(),
        st.fixed_dictionaries(
            {ind: st.integers(min_value=1, max_value=2 ** 60) for ind in Indeterminate}
        ),
    )
    @settings(max_examples=60)
    def test_integer_bindings_match_term_loop(self, p, bindings):
        assert_same_double(p.eval_numeric(bindings), term_loop_eval(p, bindings))

    @pytest.mark.parametrize("name", sorted(VERIFIED))
    @given(bindings=jets_st)
    @settings(max_examples=100)
    def test_verified_polynomials_match_term_loop(self, name, bindings):
        p = VERIFIED[name]
        assert_same_double(p.eval_numeric(bindings), term_loop_eval(p, bindings))

    def test_compiled_once(self, monkeypatch):
        compiled = []
        original = SymExpr._compile_kernel

        def counting(self):
            compiled.append(self)
            return original(self)

        monkeypatch.setattr(SymExpr, "_compile_kernel", counting)
        p = rational(3) * X * KAP - RHO ** 2
        bindings = {Indeterminate.X: 1.5, Indeterminate.KAP: 2.0, Indeterminate.RHO: 0.5}
        assert p.eval_numeric(bindings) == p.eval_numeric(bindings) == 8.75
        assert compiled == [p]

    def test_value_semantics_ignore_kernel(self):
        p = X * KAP + ONE
        q = SymExpr(dict(p.terms()))
        p.eval_numeric({Indeterminate.X: 1.0, Indeterminate.KAP: 2.0})
        assert p == q and hash(p) == hash(q)

    def test_missing_binding_message_after_compile(self):
        p = X * KAP * RHO
        p.eval_numeric({Indeterminate.X: 1.0, Indeterminate.KAP: 1.0, Indeterminate.RHO: 1.0})
        with pytest.raises(MissingBinding, match=r"^no value for KAP, RHO$"):
            p.eval_numeric({Indeterminate.X: 1.0})

    def test_laurent_check_after_compile(self):
        p = x_pow(-1) + KAP
        assert p.eval_numeric({Indeterminate.X: 2.0, Indeterminate.KAP: 1.0}) == 1.5
        with pytest.raises(ValueError, match="X binding must be positive"):
            p.eval_numeric({Indeterminate.X: -2.0, Indeterminate.KAP: 1.0})


def dense(bindings) -> list:
    """The dense binding vector of a mapping: one slot per Indeterminate, None if unbound."""
    return [bindings.get(ind) for ind in Indeterminate]


class TestDenseBindings:
    @given(sym_exprs(), bindings_st)
    @settings(max_examples=200)
    def test_matches_mapping(self, p, bindings):
        value = p.eval_numeric(dense(bindings))
        assert_same_double(value, p.eval_numeric(bindings))
        assert_same_double(value, term_loop_eval(p, bindings))

    @pytest.mark.parametrize("name", sorted(VERIFIED))
    @given(bindings=jets_st)
    @settings(max_examples=100)
    def test_verified_polynomials_match_mapping(self, name, bindings):
        p = VERIFIED[name]
        value = p.eval_numeric(dense(bindings))  # SIG unbound: none of them uses it
        assert_same_double(value, p.eval_numeric(bindings))
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


def fraction_add(a: SymExpr, b: SymExpr) -> dict:
    """The Fraction-only term loop of addition; the reference for the coefficient storage."""
    out = {exps: Fraction(c) for exps, c in a.terms()}
    for exps, coeff in b.terms():
        acc = out.get(exps, 0) + Fraction(coeff)
        if acc:
            out[exps] = acc
        else:
            out.pop(exps, None)
    return out


def fraction_mul(a: SymExpr, b: SymExpr) -> dict:
    """The Fraction-only term loop of multiplication."""
    out: dict = {}
    for ea, ca in a.terms():
        for eb, cb in b.terms():
            exps = tuple(x + y for x, y in zip(ea, eb))
            acc = out.get(exps, 0) + Fraction(ca) * Fraction(cb)
            if acc:
                out[exps] = acc
            else:
                out.pop(exps, None)
    return out


def fraction_stored(terms: dict) -> SymExpr:
    """A SymExpr that stores every coefficient, integral ones included, as a Fraction."""
    return SymExpr._make(terms)


def assert_canonical(p: SymExpr) -> None:
    for _, coeff in p.terms():
        assert coeff
        assert type(coeff) in (int, Fraction)
        assert (type(coeff) is int) == (Fraction(coeff).denominator == 1)


integer_coeffs = st.integers(min_value=-4, max_value=4)
proper_fractions = coeffs.filter(lambda q: q.denominator > 1)
coefficient_kinds = [coeffs, integer_coeffs, proper_fractions]


def typed_exprs(kind) -> st.SearchStrategy:
    return st.dictionaries(exponents(), kind, max_size=4).map(SymExpr)


any_exprs = st.one_of(*(typed_exprs(kind) for kind in coefficient_kinds))


class TestCanonicalCoefficients:
    @pytest.mark.parametrize("op, reference", [
        (lambda a, b: a + b, fraction_add),
        (lambda a, b: a * b, fraction_mul),
    ], ids=["add", "mul"])
    @given(a=any_exprs, b=any_exprs)
    @settings(max_examples=150)
    def test_matches_fraction_term_loop(self, op, reference, a, b):
        result = op(a, b)
        expected = fraction_stored(reference(a, b))
        assert result == expected and hash(result) == hash(expected)
        assert result.to_text() == expected.to_text()
        assert_canonical(result)

    @given(any_exprs)
    @settings(max_examples=100)
    def test_constructors_and_calculus_are_canonical(self, a):
        assert_canonical(a)
        assert_canonical(-a)
        assert_canonical(a.d_dX())
        assert_canonical(a.reduce_level_set())
        assert_canonical(a.coeff_of_X(0))
        if not ({Indeterminate.KAP2, Indeterminate.RHO2} & a.indeterminates()):
            assert_canonical(a.d_dt())

    @given(any_exprs)
    @settings(max_examples=100)
    def test_text_matches_fraction_storage(self, a):
        stored = fraction_stored({exps: Fraction(c) for exps, c in a.terms()})
        assert a == stored and hash(a) == hash(stored)
        assert a.to_text() == stored.to_text()

    @given(coeffs, coeffs)
    def test_constant_equals_its_number(self, p, q):
        constant = SymExpr.monomial(p, {})
        cases = [(rational(p.numerator, p.denominator), p), (constant * q, p * q),
                 (constant + q, p + q), (constant - p, 0)]
        for const, expected in cases:
            assert const == expected
            assert_canonical(const)

    def test_integral_products_of_fractions_become_ints(self):
        p = rational(1, 2) * X * rational(2) * KAP + rational(3, 4) * (rational(4, 3) * RHO)
        assert dict(p.terms()) == {((1, 1) + (0,) * 7): 1, ((0,) * 4 + (1,) + (0,) * 4): 1}
        assert all(type(c) is int for _, c in p.terms())
        assert all(type(c) is int for _, c in (rational(1, 2) * X ** 2).d_dX().terms())

    def test_integer_scalars_coerce_like_polynomials(self):
        assert ZERO == 0 and X - X == 0
        assert ONE == 1 == rational(2, 2)
        assert (X + 0) == X and (X * 1) == X and (X * 0).is_zero
        assert rational(3, 6) == Fraction(1, 2)

    @pytest.mark.parametrize("name", sorted(VERIFIED))
    def test_verified_polynomials_have_int_coefficients(self, name):
        assert all(type(c) is int for _, c in VERIFIED[name].terms())

    def test_constants_hash_like_their_numbers(self):
        assert len({ONE, 1}) == 1
        assert hash(rational(1, 2)) == hash(Fraction(1, 2))
        assert hash(ZERO) == hash(0) == hash(X - X)

    @given(coeffs, sym_exprs())
    def test_hash_agrees_with_equality(self, c, p):
        constant = SymExpr({(0,) * len(Indeterminate): c})
        assert constant == c and hash(constant) == hash(c)
        if set(dict(p.terms())) - {(0,) * len(Indeterminate)}:
            assert hash(p) == hash(frozenset(p.terms()))


class TestTextForm:
    def test_golden_square(self):
        assert str((X + KAP) ** 2) == "X^2 + 2*X*KAP + KAP^2"

    def test_golden_signs_and_fractions(self):
        p = rational(-3, 2) * X + RHO - x_pow(-1)
        assert str(p) == "-3/2*X + RHO - X^-1"

    def test_zero(self):
        assert str(ZERO) == "0"

    @given(sym_exprs())
    @settings(max_examples=40)
    def test_deterministic(self, a):
        assert a.to_text() == SymExpr(dict(a.terms())).to_text()
