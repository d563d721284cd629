"""The hot-path rewrites keep every bit: each rewritten function against the
plain code it replaced, kept here verbatim as the reference.

An outcome is the float's bits, or the exception's type and message, so a
rewrite must also fail where and how the reference fails.
"""

import math
import struct
from types import SimpleNamespace
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from folicurve import geometry, profiles
from folicurve.geometry import (DEGENERACY_TOL, DegenerateNormal, FoliationJet, InvalidSphere,
                                SurfacePoint, _require_on_leaf)
from folicurve.identity import (LORENTZIAN, RIEMANNIAN, neg_nH_S3, rotational_ode_form,
                                s_squared_reduced)
from folicurve.symexpr import Indeterminate, SymExpr


# -- the references, verbatim ---------------------------------------------------

def reference_compile_kernel(self):
    """Generate `kernel(bindings) -> float` from the term map.

    It performs the operations of the plain term loop in the same order,
    so its result is bit-identical: per term, start from 1.0 and multiply
    the powers `b ** e` in `Indeterminate` index order, scale by
    float(coeff), and add the terms left to right to 0.0.  Each distinct
    power is computed once (`b ** 1` is `b`), and so is each `1.0 * power`
    that starts a product (a no-op for float bindings, a conversion for
    integer ones).  A binding is read as `b[int(ind)]`, which an
    `Indeterminate`-keyed mapping and a dense sequence both answer.
    """
    used = sorted(self.indeterminates())
    names = {ind: ind.name.lower() for ind in used}
    lines = [f"    {names[ind]} = b[{int(ind)}]" for ind in used]
    if any(exps[Indeterminate.X] < 0 for exps, _ in self.terms()):
        lines.append('    if x <= 0: raise ValueError("X binding must be positive for Laurent terms")')
    hoisted: set[str] = set()

    def local(name: str, expr: str) -> str:
        if name not in hoisted:
            hoisted.add(name)
            lines.append(f"    {name} = {expr}")
        return name

    summands = ["0.0"]
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
            summands.append(f"{float(coeff)!r} * ({' * '.join(factors)})")
        else:
            summands.append(repr(float(coeff)))
    source = "def kernel(b):\n" + "\n".join(lines + ["    return " + " + ".join(summands)])
    namespace = {}
    exec(source, namespace)
    return namespace["kernel"]


@lru_cache(maxsize=None)
def _lagrange_plan(width: int) -> tuple:
    """Index tuples of the Lagrange-derivative sums for `width` nodes: per node j,
    (j, the factor indices m of each product over p != j, the indices m != j)."""
    plan = []
    for j in range(width):
        others = tuple(m for m in range(width) if m != j)
        products = tuple(tuple(m for m in others if m != p) for p in others)
        plan.append((j, products, others))
    return tuple(plan)


def reference_lagrange_derivative(ts: list[float], ys: list[float], x: float) -> float:
    """Derivative at x of the interpolating polynomial through (ts, ys):
    sum_j y_j sum_{p != j} prod_{m != j, p} (x - t_m) / prod_{m != j} (t_j - t_m)."""
    offsets = [x - tm for tm in ts]
    total = 0.0
    for j, products, others in _lagrange_plan(len(ts)):
        num = 0.0
        for factors in products:
            prod = 1.0
            for m in factors:
                prod *= offsets[m]
            num += prod
        tj = ts[j]
        denom = 1.0
        for m in others:
            denom *= tj - ts[m]
        total += ys[j] * num / denom
    return total


def reference_cmc_rhs(r, r1, K, H, n, sig):
    if K <= 0:
        raise ValueError(f"K must be positive, got {K}")
    if r <= 1e-12:
        raise InvalidSphere(f"r = {r}")
    k = math.hypot(K, r)
    k1 = r * r1 / k
    factor = r * r + k1 * k1 if sig is RIEMANNIAN else k1 * k1 - r * r
    if sig is not RIEMANNIAN and factor <= 0:
        raise DegenerateNormal(f"k'^2 - r^2 = {factor} at r={r}, r'={r1}")
    lead_expr, rest_expr, branch = rotational_ode_form(sig)
    # dense bindings in Indeterminate order: X, KAP, KAP1, KAP2, RHO, RHO1, RHO2, SIG, NU
    bindings = [None, k, k1, None, r, r1, None, None, float(n)]
    lead = lead_expr.eval_numeric(bindings)  # = -r^2, nonzero since r > 1e-12
    rest = rest_expr.eval_numeric(bindings)
    target = branch * n * H * factor * math.sqrt(factor)
    k2 = (target - rest) / lead
    return (k * k2 + k1 * k1 - r1 * r1) / r


def reference_is_spacelike(p: SurfacePoint, jet: FoliationJet) -> bool:
    k, r = jet.k, jet.r
    _require_on_leaf(p, k, r)
    xn = p.xn
    a = (xn - k) * jet.k1 + r * jet.r1  # A = (x_n - k) k' + r r'
    q = a * a - (xn * r) ** 2
    if abs(q) <= DEGENERACY_TOL:
        raise DegenerateNormal(f"null gradient at x_n={p.xn}, t={p.t}")
    return q > 0


def reference_jet_values(self, t: float) -> tuple[float, float, float, float, float, float]:
    r, r1, r2 = self._r_jet(t)
    k = math.hypot(self.K, r)
    k1 = r * r1 / k
    k2 = (r1 * r1 + r * r2 - k1 * k1) / k
    return k, k1, k2, r, r1, r2


def reference_dKdt_of_jet(jet: FoliationJet) -> float:
    return (jet.k * jet.k1 - jet.r * jet.r1) / math.sqrt(jet.k ** 2 - jet.r ** 2)


# -- outcomes ---------------------------------------------------------------------

def outcome(fn, *args):
    """The float's bits, or the exception's type and message.

    Every nan is one outcome: where two nans meet, which one an operation
    returns depends on the C code path CPython takes (its specialised float
    instructions and `float_add` differ), not on the Python source, and no
    output shows a nan's sign or payload."""
    try:
        value = fn(*args)
    except Exception as err:  # the type and text are what is compared
        return type(err), str(err)
    return float, "nan" if math.isnan(value) else struct.pack("<d", value)


def outcomes(fn, *args):
    """The `outcome` of each entry of the tuple fn returns, or of its exception."""
    try:
        values = fn(*args)
    except Exception as err:  # the type and text are what is compared
        return type(err), str(err)
    return tuple(outcome(lambda value=value: value) for value in values)


# -- the compiled polynomial kernels ------------------------------------------------

EXPONENT_RANGE = {Indeterminate.X: (-2, 3)}  # X is the Laurent direction

# float(coeff) is exact for the small ones, rounds for 10**20 + 1 and -(2**53 + 1),
# and overflows for 10**400, so that polynomial fails to compile on both sides
COEFFICIENTS = st.sampled_from([1, -1, 2, -2, 3, -7, 10**20 + 1, -(2**53 + 1), 10**400])

SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e200, -1e200, 1e-200, 5e-324]


def exponent_vectors():
    return st.tuples(*(st.integers(*EXPONENT_RANGE.get(ind, (0, 2))) for ind in Indeterminate))


@st.composite
def shared_prefix_polynomials(draw):
    """Terms built from a few stems, each term a stem times a small tail, so
    that many terms start with the same product of factors."""
    stems = draw(st.lists(exponent_vectors(), min_size=1, max_size=3))
    terms = {}
    for _ in range(draw(st.integers(1, 12))):
        stem = list(draw(st.sampled_from(stems)))
        # a tail in the later indeterminates leaves the stem's factors in front
        cut = draw(st.integers(0, len(Indeterminate)))
        for ind in range(cut, len(Indeterminate)):
            stem[ind] += draw(st.integers(0, 1))
        terms[tuple(stem)] = draw(COEFFICIENTS)
    return SymExpr(terms)


def kernel_outcome(compile_kernel, poly, bindings):
    """The outcome of compiling `poly` and calling its kernel on `bindings`."""
    return outcome(lambda values: compile_kernel(poly)(values), bindings)


def binding_values():
    return st.one_of(
        st.floats(min_value=-4.0, max_value=4.0),
        st.floats(min_value=0.25, max_value=4.0),
        st.sampled_from(SPECIAL),
        st.integers(-5, 5),
        st.sampled_from([10**400, -(10**400)]),
        st.fractions(min_value=-4, max_value=4, max_denominator=9),
        st.sampled_from([Fraction(10**400, 3), Fraction(1, 10**400)]),
    )


def dense_bindings():
    return st.lists(binding_values(), min_size=len(Indeterminate), max_size=len(Indeterminate))


class TestCompiledKernel:
    @given(shared_prefix_polynomials(), dense_bindings())
    @settings(max_examples=600, deadline=None)
    def test_matches_the_term_loop_kernel(self, poly, bindings):
        expected = kernel_outcome(reference_compile_kernel, poly, bindings)
        assert kernel_outcome(SymExpr._compile_kernel, poly, bindings) == expected

    @given(shared_prefix_polynomials(), st.lists(st.sampled_from(SPECIAL),
                                                 min_size=len(Indeterminate),
                                                 max_size=len(Indeterminate)))
    @settings(max_examples=300, deadline=None)
    def test_matches_at_special_values(self, poly, bindings):
        expected = kernel_outcome(reference_compile_kernel, poly, bindings)
        assert kernel_outcome(SymExpr._compile_kernel, poly, bindings) == expected

    @pytest.mark.parametrize("sig", [RIEMANNIAN, LORENTZIAN])
    @given(bindings=st.lists(st.floats(min_value=-8.0, max_value=8.0)
                             | st.sampled_from(SPECIAL) | st.integers(-3, 3),
                             min_size=len(Indeterminate), max_size=len(Indeterminate)))
    @settings(max_examples=100, deadline=None)
    def test_verified_polynomials_match(self, sig, bindings):
        lead, rest, _ = rotational_ode_form(sig)
        for poly in (neg_nH_S3(sig), s_squared_reduced(sig), lead, rest):
            expected = outcome(reference_compile_kernel(poly), bindings)
            assert outcome(poly._compile_kernel(), bindings) == expected

    def test_shared_prefix_keeps_the_product_order(self):
        # three terms start with (1.0 * x) * kap, two coefficients fold into
        # the sum, and at these values x * (kap * rho) would differ
        x, kap, rho = (SymExpr({tuple(int(i == ind) for i in Indeterminate): 1})
                       for ind in (Indeterminate.X, Indeterminate.KAP, Indeterminate.RHO))
        poly = x * kap * rho - x * kap * kap * 3 + x * kap - rho
        bindings = [0.1, 0.2, None, None, 0.3, None, None, None, None]
        assert (0.1 * 0.2) * 0.3 != 0.1 * (0.2 * 0.3)
        expected = outcome(reference_compile_kernel(poly), bindings)
        assert outcome(poly._compile_kernel(), bindings) == expected


# -- the Lagrange stencil of HermiteProfile -----------------------------------------

NODE_VALUES = st.floats(min_value=-10.0, max_value=10.0) | st.sampled_from(SPECIAL[:5])


@st.composite
def lagrange_windows(draw):
    """Windows of 2..5 nodes, uneven and at times repeated or unordered, with
    float (mostly) or integer nodes, their values, and a point."""
    width = draw(st.integers(min_value=2, max_value=5))
    plain = st.floats(min_value=-10.0, max_value=10.0)
    if draw(st.integers(0, 3)) == 0:
        ts = draw(st.lists(st.integers(-6, 6), min_size=width, max_size=width))
        x = draw(st.integers(-6, 6) | st.sampled_from(ts))
    else:
        gap = st.floats(min_value=1e-4, max_value=0.5)
        gaps = draw(st.lists(gap | gap | gap | st.sampled_from([0.0, -1e-3, 1e-9]),
                             min_size=width - 1, max_size=width - 1))
        ts = [draw(plain)]
        for step in gaps:
            ts.append(ts[-1] + step)
        x = draw(plain | plain | st.sampled_from(ts) | NODE_VALUES)
    ys = draw(st.lists(plain | plain | NODE_VALUES | st.integers(-5, 5),
                       min_size=width, max_size=width))
    return ts, ys, x


class TestLagrangeStencil:
    @given(lagrange_windows())
    @settings(max_examples=400, deadline=None)
    def test_matches_the_loop(self, window):
        expected = outcome(reference_lagrange_derivative, *window)
        assert outcome(profiles._lagrange_stencil(len(window[0])), *window) == expected

    def test_repeated_node_fails_as_the_loop_does(self):
        window = ([0.0, 1e-3, 1e-3, 3e-3], [1.0, 2.0, 3.0, 4.0], 1e-3)
        expected = outcome(reference_lagrange_derivative, *window)
        assert expected == (ZeroDivisionError, "float division by zero")
        assert outcome(profiles._lagrange_stencil(len(window[0])), *window) == expected


# -- cmc_rhs and the other callers of identity's jet formulas ------------------------

RADII = st.floats(min_value=-1.0, max_value=3.0) | st.sampled_from([1e-12, 1e-11, 1e300])
SLOPES = st.floats(min_value=-5.0, max_value=5.0) | st.sampled_from(SPECIAL)
CENTERS = st.floats(min_value=-1.0, max_value=3.0) | st.sampled_from([0.0, 1e-300, 1e300])
CURVATURES = st.floats(min_value=-2.0, max_value=2.0) | st.sampled_from(SPECIAL)


class TestCmcRhs:
    @pytest.mark.parametrize("sig", [RIEMANNIAN, LORENTZIAN])
    @given(r=RADII, r1=SLOPES, K=CENTERS, H=CURVATURES, n=st.integers(2, 6))
    @settings(max_examples=400, deadline=None)
    def test_matches_the_reference(self, sig, r, r1, K, H, n):
        expected = outcome(reference_cmc_rhs, r, r1, K, H, n, sig)
        assert outcome(profiles.cmc_rhs, r, r1, K, H, n, sig) == expected

    @given(r=st.floats(min_value=0.1, max_value=3.0), r1=st.floats(min_value=-1.0, max_value=1.0),
           K=st.floats(min_value=0.1, max_value=3.0))
    @settings(max_examples=100, deadline=None)
    def test_inadmissible_lorentzian_inputs_fail_alike(self, r, r1, K):
        k = math.hypot(K, r)
        assume((r * r1 / k) ** 2 <= r * r)  # k'^2 - r^2 <= 0: not spacelike
        expected = outcome(reference_cmc_rhs, r, r1, K, 0.3, 3, LORENTZIAN)
        assert expected[0] is DegenerateNormal
        assert outcome(profiles.cmc_rhs, r, r1, K, 0.3, 3, LORENTZIAN) == expected


class TestJetFormulaCallers:
    @given(k=CENTERS, k1=SLOPES, r=RADII, r1=SLOPES, theta=st.floats(min_value=0.0, max_value=3.2),
           off=st.sampled_from([0.0, 0.0, 0.0, 1e-3]))
    @settings(max_examples=400, deadline=None)
    def test_is_spacelike_matches_the_reference(self, k, k1, r, r1, theta, off):
        # points on the leaf, and now and then one off it
        jet = FoliationJet(t=0.5, k=k, k1=k1, k2=0.0, r=r, r1=r1, r2=0.0)
        point = SurfacePoint(r * math.sin(theta), k + r * math.cos(theta) + off, 0.5)
        expected = outcome(reference_is_spacelike, point, jet)
        assert outcome(geometry.is_spacelike, point, jet) == expected

    @given(K=CENTERS, r=RADII, r1=SLOPES, r2=SLOPES, t=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=400, deadline=None)
    def test_jet_values_matches_the_reference(self, K, r, r1, r2, t):
        # a stand-in for the interpolant: its K, and an r-jet that ignores t
        interpolant = SimpleNamespace(K=K, _r_jet=lambda t: (r, r1, r2))
        expected = outcomes(reference_jet_values, interpolant, t)
        assert outcomes(profiles.HermiteProfile.jet_values, interpolant, t) == expected

    @given(k=CENTERS, k1=SLOPES, r=RADII, r1=SLOPES)
    @settings(max_examples=400, deadline=None)
    def test_dKdt_of_jet_matches_the_reference(self, k, k1, r, r1):
        jet = FoliationJet(t=0.5, k=k, k1=k1, k2=0.0, r=r, r1=r1, r2=0.0)
        assert outcome(geometry.dKdt_of_jet, jet) == outcome(reference_dKdt_of_jet, jet)
