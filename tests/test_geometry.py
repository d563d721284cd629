"""Conversions, pointwise curvature vs the finite-difference oracle, scanning."""

import csv
import decimal
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
import hypothesis.strategies as st

from folicurve import geometry
from folicurve.exprlang import (BinOp, Call, Const, DomainError, Neg, Num, Pow, ProfileFunctions,
                                TVar, compile_exprs, differentiate, parse)
from folicurve.geometry import (
    DEGENERACY_TOL,
    DegenerateNormal,
    FoliationJet,
    InvalidSphere,
    LEAF_TOL,
    NotOnLeaf,
    ScanReport,
    ScanRow,
    StepUnstable,
    SurfacePoint,
    constancy_scan,
    dKdt_of_jet,
    euclidean_to_hyperbolic,
    hyperbolic_to_euclidean,
    is_spacelike,
    leaf_points,
    mean_curvature_at,
    mean_curvature_fd,
)
from folicurve.identity import (LORENTZIAN, RIEMANNIAN, CubicCoefficients, neg_nH_S3,
                                s_squared_reduced)
from folicurve.profiles import ProfileRow, RotationalProfile, cmc_rhs
from folicurve.symexpr import KAP, RHO, X, Indeterminate


def cylinder_profile(R: float = 1.0, K: float = 1.0) -> ProfileFunctions:
    return ProfileFunctions.from_strings(f"{K}*cosh({R})", f"{K}*sinh({R})")


def cylinder_jet(R: float = 1.0, K: float = 1.0) -> FoliationJet:
    return FoliationJet(t=0.0, k=K * math.cosh(R), k1=0.0, k2=0.0,
                        r=K * math.sinh(R), r1=0.0, r2=0.0)


def point_at(jet: FoliationJet, xn: float) -> SurfacePoint:
    tangential_sq = jet.r ** 2 - (xn - jet.k) ** 2
    return SurfacePoint(x1=math.sqrt(tangential_sq), xn=xn, t=jet.t)


class TestConversions:
    def test_golden_five_three(self):
        K, R = euclidean_to_hyperbolic(5.0, 3.0)
        assert K == pytest.approx(4.0, abs=1e-15)
        assert R == pytest.approx(math.log(2.0), abs=1e-15)

    def test_hyperbolic_trig_pair(self):
        K, R = euclidean_to_hyperbolic(math.cosh(1.0), math.sinh(1.0))
        assert K == pytest.approx(1.0, rel=1e-14)
        assert R == pytest.approx(1.0, rel=1e-14)

    def test_boundary_rejected(self):
        with pytest.raises(InvalidSphere):
            euclidean_to_hyperbolic(1.0, 1.0)
        with pytest.raises(InvalidSphere):
            euclidean_to_hyperbolic(2.0, -0.5)

    def test_inverse_golden(self):
        k, r = hyperbolic_to_euclidean(4.0, math.log(2.0))
        assert k == pytest.approx(5.0, rel=1e-14)
        assert r == pytest.approx(3.0, rel=1e-14)

    def test_inverse_definition(self):
        k, r = hyperbolic_to_euclidean(1.0, 1.0)
        assert k == pytest.approx(math.cosh(1.0), rel=1e-15)
        assert r == pytest.approx(math.sinh(1.0), rel=1e-15)

    def test_inverse_rejects_nonpositive(self):
        with pytest.raises(InvalidSphere):
            hyperbolic_to_euclidean(-1.0, 1.0)
        with pytest.raises(InvalidSphere):
            hyperbolic_to_euclidean(1.0, 0.0)

    @given(
        st.floats(min_value=0.05, max_value=50.0),
        st.floats(min_value=0.01, max_value=4.0),
    )
    @settings(max_examples=200)
    def test_roundtrip(self, K, R):
        k, r = hyperbolic_to_euclidean(K, R)
        back_K, back_R = euclidean_to_hyperbolic(k, r)
        assert abs(back_K - K) <= 1e-12 * K
        assert abs(back_R - R) <= 1e-12 * max(R, 1.0)
        assert math.sqrt(k * k - r * r) == pytest.approx(K, rel=1e-12)

    @given(
        st.floats(min_value=-100.0, max_value=100.0),
        st.floats(min_value=-300.0, max_value=math.log10(1 - 1e-15)),
    )
    @settings(max_examples=200, deadline=None)
    def test_within_four_ulp_of_exact(self, log_k, log_ratio):
        k = 10.0 ** log_k
        r = k * 10.0 ** log_ratio
        assume(0 < r < k)
        K, R = euclidean_to_hyperbolic(k, r)
        with decimal.localcontext() as ctx:
            ctx.prec = 700
            dk, dr = decimal.Decimal(k), decimal.Decimal(r)
            exact_K = ((dk - dr) * (dk + dr)).sqrt()
            exact_R = ((dk + dr) / (dk - dr)).ln() / 2
            for value, exact in ((K, exact_K), (R, exact_R)):
                ulp = decimal.Decimal(math.ulp(float(exact)))
                assert abs(decimal.Decimal(value) - exact) <= 4 * ulp, (k, r, value)


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def per_point_leaf_points(jet: FoliationJet, count: int) -> list[tuple[float, float, float]]:
    """leaf_points computing each angle at its point, without the angle table;
    the bit-identity reference."""
    points = []
    for j in range(count):
        theta = math.pi * math.fmod((j + 0.5) * GOLDEN, 1.0)
        points.append((jet.r * math.sin(theta), jet.k + jet.r * math.cos(theta), jet.t))
    return points


def bits(values) -> list[str]:
    return [float.hex(float(v)) for v in values]


class TestPointPath:
    @given(
        st.floats(min_value=1e-3, max_value=1e6),
        st.floats(min_value=1e-6, max_value=1.0),
        st.floats(min_value=-10.0, max_value=10.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_leaf_points_match_per_point_angles(self, k, ratio, t):
        jet = FoliationJet(t=t, k=k, k1=0.0, k2=0.0, r=k * ratio, r1=0.0, r2=0.0)
        for count in [*range(1, 65), 8, 64, 8]:  # the angle table changes with the count
            points = leaf_points(jet, 3, count)
            reference = per_point_leaf_points(jet, count)
            assert len(points) == count
            for point, expected in zip(points, reference):
                assert bits((point.x1, point.xn, point.t)) == bits(expected)

    def test_bindings_follow_indeterminate_order(self):
        # mean_curvature_at builds its dense bindings inline: they must give the
        # bits of the verified polynomials bound slot by slot from a keyed mapping
        jet = FoliationJet(t=0.5, k=3.0, k1=8.0, k2=-0.2, r=0.5, r1=0.3, r2=0.4)
        n = 4
        bindings = {
            Indeterminate.KAP: jet.k, Indeterminate.KAP1: jet.k1, Indeterminate.KAP2: jet.k2,
            Indeterminate.RHO: jet.r, Indeterminate.RHO1: jet.r1, Indeterminate.RHO2: jet.r2,
            Indeterminate.NU: float(n),
        }
        for sig in (RIEMANNIAN, LORENTZIAN):
            checked = 0
            for point in leaf_points(jet, n, 16):
                bindings[Indeterminate.X] = point.xn
                values = [bindings.get(ind) for ind in Indeterminate]
                s2 = s_squared_reduced(sig).eval_numeric(values)
                if s2 <= DEGENERACY_TOL:  # not spacelike: mean_curvature_at raises
                    continue
                expected = -neg_nH_S3(sig).eval_numeric(values) / (n * s2 * math.sqrt(s2))
                assert float.hex(mean_curvature_at(point, jet, n, sig)) == float.hex(expected)
                checked += 1
            assert checked >= 4, sig


class TestMeanCurvature:
    def test_cylinder_value_and_sign(self):
        jet = cylinder_jet(R=1.0)
        point = point_at(jet, jet.k + 0.4 * jet.r)
        h = mean_curvature_at(point, jet, 3, RIEMANNIAN)
        assert h == pytest.approx(-(2.0 / 3.0) / math.tanh(1.0), rel=1e-12)

    def test_constant_across_leaf(self):
        jet = cylinder_jet(R=0.7, K=1.3)
        values = [
            mean_curvature_at(p, jet, 3, RIEMANNIAN) for p in leaf_points(jet, 3, 12)
        ]
        assert max(values) - min(values) < 1e-12

    @pytest.mark.parametrize("sig", [RIEMANNIAN, LORENTZIAN])
    def test_rotational_cmc_jet_is_leaf_constant(self, sig):
        K, r, r1, H = 1.2, 0.9, 1.7 if sig is LORENTZIAN else 0.4, -0.3
        k = math.hypot(K, r)
        k1 = r * r1 / k
        r2 = cmc_rhs(r, r1, K, H, 3, sig)
        k2 = (r1 * r1 + r * r2 - k1 * k1) / k
        jet = FoliationJet(t=0.0, k=k, k1=k1, k2=k2, r=r, r1=r1, r2=r2)
        values = []
        for point in leaf_points(jet, 3, 10):
            if sig is LORENTZIAN and not is_spacelike(point, jet):
                continue
            values.append(mean_curvature_at(point, jet, 3, sig))
        assert values, "no admissible sample points"
        for value in values:
            assert value == pytest.approx(H, abs=1e-11)

    def test_not_on_leaf(self):
        jet = cylinder_jet()
        with pytest.raises(NotOnLeaf):
            mean_curvature_at(SurfacePoint(x1=0.5, xn=jet.k, t=0.0), jet, 3, RIEMANNIAN)

    def test_point_near_unit_leaf_not_on_leaf(self):
        jet = FoliationJet(t=0.0, k=2.0, k1=0.0, k2=0.0, r=1.0, r1=0.0, r2=0.0)
        point = point_at(jet, jet.k + 0.5)
        off = SurfacePoint(x1=point.x1 + 1e-6, xn=point.xn, t=0.0)
        assert mean_curvature_at(point, jet, 3, RIEMANNIAN)
        with pytest.raises(NotOnLeaf):
            mean_curvature_at(off, jet, 3, RIEMANNIAN)

    def test_leaf_tolerance_scales_with_center_and_radius(self):
        jet = FoliationJet(t=0.0, k=3.0e6, k1=0.0, k2=0.0, r=10.0, r1=0.0, r2=0.0)
        points = leaf_points(jet, 3, 8)
        residuals = [p.x1 * p.x1 + (p.xn - jet.k) ** 2 - jet.r ** 2 for p in points]
        assert max(map(abs, residuals)) > LEAF_TOL
        for point in points:
            mean_curvature_at(point, jet, 3, RIEMANNIAN)
        off = SurfacePoint(x1=points[0].x1 + 1e-3, xn=points[0].xn, t=0.0)
        with pytest.raises(NotOnLeaf):
            mean_curvature_at(off, jet, 3, RIEMANNIAN)

    def test_lorentzian_rejects_non_spacelike(self):
        jet = cylinder_jet()
        point = point_at(jet, jet.k)
        with pytest.raises(DegenerateNormal):
            mean_curvature_at(point, jet, 3, LORENTZIAN)

    def test_kernel_overflow_raises(self):
        # the kernels overflow to inf without raising, and inf/inf is NaN
        jet = FoliationJet(t=0.0, k=1e100, k1=1e100, k2=0.0, r=5e99, r1=0.0, r2=0.0)
        with pytest.raises(OverflowError, match=r"S\^2 = nan, H = nan"):
            mean_curvature_at(leaf_points(jet, 3, 1)[0], jet, 3, RIEMANNIAN)


def _fd_reference(p, profile, n, sig, h=1e-4, tol=None):
    """The plain stencil that calls f, and so k_value and r_value, at every
    neighbour; the bit-identity reference of mean_curvature_fd."""
    if not 1e-6 <= h <= 1e-2:
        raise ValueError(f"h must lie in [1e-6, 1e-2], got {h}")
    if p.xn - h <= 0:
        raise ValueError(f"point too close to the half-space boundary for h={h}")

    eps = sig.epsilon

    def f(y: list[float]) -> float:
        k = profile.k_value(y[n])
        r = profile.r_value(y[n])
        tangential = sum(c * c for c in y[: n - 1])
        return tangential + (y[n - 1] - k) ** 2 - r * r

    def divergence(step: float) -> float:
        def flux(y: list[float]) -> list[float]:
            grad = []
            for m in range(n + 1):
                yp = list(y); yp[m] += step
                ym = list(y); ym[m] -= step
                grad.append((f(yp) - f(ym)) / (2 * step))
            xn = y[n - 1]
            up = [xn * xn * g for g in grad[:n]] + [eps * grad[n]]
            inner = geometry._sum(g * u for g, u in zip(grad, up))
            squared = inner if eps > 0 else -inner
            if squared <= 0:
                raise DegenerateNormal(f"gradient not admissible at t={y[n]} ({sig.label})")
            norm = math.sqrt(squared)
            weight = xn ** (-n)
            return [weight * u / norm for u in up]

        base = [p.x1] + [0.0] * (n - 2) + [p.xn, p.t]
        total = 0.0
        for m in range(n + 1):
            yp = list(base); yp[m] += step
            ym = list(base); ym[m] -= step
            total += (flux(yp)[m] - flux(ym)[m]) / (2 * step)
        return p.xn ** n * total

    div = divergence(h)
    if tol is not None:
        fine = divergence(h / 2)
        estimate = abs(div - fine) / 3.0  # Richardson estimate for order 2
        if estimate > tol:
            raise StepUnstable(f"truncation estimate {estimate} exceeds {tol} at h={h}")
    return -div / n


def outcome(oracle, point, *args, **kwargs):
    """The float bits an oracle returns, or the type and message it raises.
    mean_curvature_fd re-raises an overflow as one that names t: compare the
    overflow it wraps."""
    try:
        return float.hex(oracle(point, *args, **kwargs))
    except Exception as err:  # noqa: BLE001 - any exception must match the reference's
        if oracle is mean_curvature_fd and type(err) is OverflowError:
            assert f"at t={point.t}, x_n={point.xn}," in str(err)
            err = err.__cause__
        return type(err), str(err)


# (k, r, t range): smooth leaves; a steep radius whose Lorentzian leaves meet
# the null cone; radii that leave their domain one step (sqrt(t) near 0) or
# two steps (sqrt(0.01 - t) near 0.01) from t; a center that grows fast; and
# one whose f overflows at t + h before its radius leaves its domain at t - h
FD_PROFILES = [
    ("2 + 0.4*t - 0.1*t^2", "0.8 + 0.25*t + 0.15*t^2", 0.0, 1.0),
    ("2 + 0.4*t - 0.1*t^2", "0.8 + 2.2*t + 0.15*t^2", 0.0, 0.5),
    ("2", "1 + 1.5*t", 0.0, 0.3),
    ("3 + sqrt(t)", "1 + sqrt(t)", 1e-9, 0.02),
    ("5 + t^2", "2 + sqrt(0.01 - t)", 0.0, 0.01 - 1e-9),
    ("4*cosh(1) + exp(40*t)", "4*sinh(1) - ln(1 + t)", 0.0, 0.5),
    ("2 + 10^200*t^2", "1 + sqrt(t + 0.0005)", 0.0, 0.002),
]


class CountingProfile:
    """A profile that records the height of every k_value and r_value call."""

    def __init__(self, profile):
        self.profile, self.k_heights, self.r_heights = profile, [], []

    def k_value(self, t):
        self.k_heights.append(t)
        return self.profile.k_value(t)

    def r_value(self, t):
        self.r_heights.append(t)
        return self.profile.r_value(t)


class TestFiniteDifferenceOracle:
    def test_cylinder_agreement(self):
        profile = cylinder_profile()
        jet = FoliationJet.from_profile(profile, 0.0)
        point = point_at(jet, jet.k + 0.3 * jet.r)
        exact = mean_curvature_at(point, jet, 3, RIEMANNIAN)
        approx = mean_curvature_fd(point, profile, 3, RIEMANNIAN, h=1e-4)
        assert abs(approx - exact) <= 1e-6

    def test_second_order_convergence(self):
        profile = ProfileFunctions.from_strings("2 + 0.4*t - 0.1*t^2", "0.8 + 0.25*t + 0.15*t^2")
        jet = FoliationJet.from_profile(profile, 0.0)
        point = point_at(jet, 1.4)
        exact = mean_curvature_at(point, jet, 3, RIEMANNIAN)
        err_coarse = abs(mean_curvature_fd(point, profile, 3, RIEMANNIAN, h=1e-3) - exact)
        err_fine = abs(mean_curvature_fd(point, profile, 3, RIEMANNIAN, h=5e-4) - exact)
        assert err_fine < err_coarse
        assert err_coarse / err_fine == pytest.approx(4.0, rel=0.25)

    def test_lorentzian_spacelike_sample(self):
        profile = ProfileFunctions.from_strings("2 + 0.4*t - 0.1*t^2", "0.8 + 2.2*t + 0.15*t^2")
        jet = FoliationJet.from_profile(profile, 0.0)
        point = point_at(jet, 1.4)
        assert is_spacelike(point, jet)
        exact = mean_curvature_at(point, jet, 3, LORENTZIAN)
        approx = mean_curvature_fd(point, profile, 3, LORENTZIAN, h=2e-5)
        assert abs(approx - exact) <= 1e-6

    def test_lorentzian_second_order_convergence(self):
        profile = ProfileFunctions.from_strings("2 + 0.4*t - 0.1*t^2", "0.8 + 2.2*t + 0.15*t^2")
        jet = FoliationJet.from_profile(profile, 0.0)
        point = point_at(jet, 1.4)
        exact = mean_curvature_at(point, jet, 3, LORENTZIAN)
        err_coarse = abs(mean_curvature_fd(point, profile, 3, LORENTZIAN, h=1e-3) - exact)
        err_fine = abs(mean_curvature_fd(point, profile, 3, LORENTZIAN, h=5e-4) - exact)
        assert err_coarse / err_fine == pytest.approx(4.0, rel=0.25)

    def test_step_bounds(self):
        profile = cylinder_profile()
        jet = FoliationJet.from_profile(profile, 0.0)
        point = point_at(jet, jet.k)
        with pytest.raises(ValueError):
            mean_curvature_fd(point, profile, 3, RIEMANNIAN, h=0.5)

    def test_richardson_gate(self):
        profile = ProfileFunctions.from_strings("2 + 0.4*t - 0.1*t^2", "0.8 + 0.25*t + 0.15*t^2")
        jet = FoliationJet.from_profile(profile, 0.0)
        point = point_at(jet, 1.4)
        with pytest.raises(StepUnstable):
            mean_curvature_fd(point, profile, 3, RIEMANNIAN, h=1e-2, tol=1e-12)
        value = mean_curvature_fd(point, profile, 3, RIEMANNIAN, h=1e-4, tol=1e-6)
        assert math.isfinite(value)


    @settings(max_examples=150, deadline=None)
    @given(
        case=st.sampled_from(FD_PROFILES),
        where=st.floats(min_value=0.0, max_value=1.0),
        n=st.integers(min_value=2, max_value=6),
        sig=st.sampled_from([RIEMANNIAN, LORENTZIAN]),
        index=st.integers(min_value=0, max_value=7),
        h=st.floats(min_value=1e-6, max_value=1e-2),
        tol=st.none() | st.floats(min_value=1e-12, max_value=1.0),
    )
    # DomainError at t - h, at t + 2h only, near the Lorentzian null cone, and
    # an OverflowError in f at t + h that comes before a DomainError at t - h
    @example(case=FD_PROFILES[3], where=0.0, n=3, sig=RIEMANNIAN, index=0, h=1e-4, tol=None)
    @example(case=FD_PROFILES[4], where=0.85, n=3, sig=RIEMANNIAN, index=0, h=1e-3, tol=None)
    @example(case=FD_PROFILES[2], where=0.145 / 0.3, n=3, sig=LORENTZIAN, index=7, h=1e-4,
             tol=None)
    @example(case=FD_PROFILES[6], where=0.0, n=3, sig=RIEMANNIAN, index=0, h=1e-3, tol=None)
    # the bounds of the flux loops, n = 2 (one tangential neighbour) and n = 6,
    # each a finite H with the Richardson check
    @example(case=FD_PROFILES[0], where=0.5, n=2, sig=RIEMANNIAN, index=3, h=1e-3, tol=1e-4)
    @example(case=FD_PROFILES[0], where=0.5, n=6, sig=RIEMANNIAN, index=3, h=1e-3, tol=1e-4)
    @example(case=FD_PROFILES[1], where=0.5, n=2, sig=LORENTZIAN, index=7, h=1e-3, tol=1e-4)
    @example(case=FD_PROFILES[1], where=0.5, n=6, sig=LORENTZIAN, index=7, h=1e-3, tol=1e-4)
    def test_bits_match_reference(self, case, where, n, sig, index, h, tol):
        k_text, r_text, t_lo, t_hi = case
        profile = ProfileFunctions.from_strings(k_text, r_text)
        t = t_lo + (t_hi - t_lo) * where
        jet = FoliationJet.from_profile(profile, t)
        assume(jet.k > jet.r > 0)
        point = leaf_points(jet, n, 8)[index]
        expected = outcome(_fd_reference, point, profile, n, sig, h=h, tol=tol)
        assert outcome(mean_curvature_fd, point, profile, n, sig, h=h, tol=tol) == expected

    @pytest.mark.parametrize("tol", [None, 1e-3])
    def test_overflow_names_t_x_n_and_h(self, tol):
        # (x_n - k)^2 overflows once k at a shifted height passes about 1.3e154
        profile = ProfileFunctions.from_strings("2 + 10^200*t^2", "1 + sqrt(t + 0.0005)")
        point = leaf_points(FoliationJet.from_profile(profile, 0.0), 3, 8)[0]
        with pytest.raises(OverflowError) as info:
            mean_curvature_fd(point, profile, 3, RIEMANNIAN, h=1e-3, tol=tol)
        assert str(info.value) == (
            f"float overflow in the stencil at t=0.0, x_n={point.xn}, h=0.001")
        assert str(info.value.__cause__) == "(34, 'Numerical result out of range')"

    def test_domain_error_names_its_height(self):
        # ln(t) leaves its domain at the stencil height t - h = 0.0, below the leaf at t = h
        profile = ProfileFunctions.from_strings("12 + ln(t)", "1")
        point = leaf_points(FoliationJet.from_profile(profile, 1e-4), 3, 8)[0]
        with pytest.raises(DomainError) as info:
            mean_curvature_fd(point, profile, 3, RIEMANNIAN, h=1e-4)
        assert str(info.value) == "ln of nonpositive value 0.0 at t=0.0"

    @pytest.mark.parametrize("tol", [None, 1e-3])
    def test_seven_heights_per_divergence(self, tol):
        # the same heights for every profile, n, signature and point: t once,
        # then six more per divergence, each read once as a (k, r) pair; at
        # t = 0.01, (t + s) - s and (t - s) + s are floats other than t
        t, s, divergences = 0.01, 1e-3, 1 if tol is None else 2
        cases = [(FD_PROFILES[0], RIEMANNIAN), (FD_PROFILES[5], RIEMANNIAN),
                 (FD_PROFILES[1], LORENTZIAN)]
        counted = 0
        for (k_text, r_text, _, _), sig in cases:
            base = ProfileFunctions.from_strings(k_text, r_text)
            jet = FoliationJet.from_profile(base, t)
            for n in (2, 3, 6):
                for point in leaf_points(jet, n, 8):
                    if sig is LORENTZIAN and not is_spacelike(point, jet):
                        continue
                    profile = CountingProfile(base)
                    try:
                        mean_curvature_fd(point, profile, n, sig, h=s, tol=tol)
                    except StepUnstable:
                        pass  # raised after the last height is read
                    counted += 1
                    assert profile.k_heights == profile.r_heights
                    assert len(profile.k_heights) == 1 + 6 * divergences
                    assert profile.k_heights[:7] == [
                        t, t + s, t - s, (t + s) + s, (t + s) - s, (t - s) + s, (t - s) - s]
                    assert len(set(profile.k_heights[:7])) == 7
        assert counted > 3 * 8

    @pytest.mark.parametrize("t", [1e10, 1e13])
    @pytest.mark.parametrize("tol", [None, 1e-5])
    def test_rejects_t_that_cannot_resolve_its_step(self, t, tol):
        # t +- h rounds to a t difference of the wrong width: unchecked, the
        # oracle misses the exact H by 6.2e-4 at t = 1e10 and by 0.040 at
        # t = 1e13, where tol=1e-5 still passes, since both divergences see
        # the same zero widths
        profile = ProfileFunctions.from_strings("3 + 0.4*sin(t)", "1 + 0.2*cos(t)")
        point = leaf_points(FoliationJet.from_profile(profile, t), 3, 8)[2]
        with pytest.raises(ValueError, match="below the float resolution of t"):
            mean_curvature_fd(point, profile, 3, RIEMANNIAN, h=1e-4, tol=tol)

    def test_t_resolution_bound(self):
        # with h = 1e-4 the rule rejects t from 2^20 (about 1e6) up, and from
        # 2^19 up with tol, whose finest step is h/2
        profile = ProfileFunctions.from_strings("3 + 0.4*sin(t)", "1 + 0.2*cos(t)")
        for t, tol, accepted in [(2.0 ** 20 - 1, None, True), (2.0 ** 20, None, False),
                                 (2.0 ** 19 - 1, 1e-5, True), (2.0 ** 19, 1e-5, False)]:
            jet = FoliationJet.from_profile(profile, t)
            point = leaf_points(jet, 3, 8)[2]
            if accepted:
                fd = mean_curvature_fd(point, profile, 3, RIEMANNIAN, h=1e-4, tol=tol)
                assert abs(fd - mean_curvature_at(point, jet, 3, RIEMANNIAN)) <= 1e-6
            else:
                with pytest.raises(ValueError, match="below the float resolution of t"):
                    mean_curvature_fd(point, profile, 3, RIEMANNIAN, h=1e-4, tol=tol)

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-6, math.inf])
    def test_rejects_bad_tol(self, tol):
        # every comparison with NaN is false, so a NaN tol would pass any estimate
        profile = ProfileFunctions.from_strings("2 + 0.4*t - 0.1*t^2", "0.8 + 0.25*t + 0.15*t^2")
        point = point_at(FoliationJet.from_profile(profile, 0.0), 1.4)
        with pytest.raises(ValueError, match="tol must be a finite number > 0"):
            mean_curvature_fd(point, profile, 3, RIEMANNIAN, h=1e-2, tol=tol)

    @pytest.mark.parametrize("n", [1, 0, -1])
    def test_rejects_low_dimension(self, n):
        profile = cylinder_profile()
        point = point_at(FoliationJet.from_profile(profile, 0.0), 1.8)
        with pytest.raises(ValueError, match=f"dimension must be at least 2, got {n}"):
            mean_curvature_fd(point, profile, n, RIEMANNIAN)

    @pytest.mark.parametrize("sig", [RIEMANNIAN, LORENTZIAN])
    @pytest.mark.parametrize("n", [1, 0, -1])
    def test_symbolic_H_rejects_low_dimension_first(self, n, sig):
        # n = 1 gave -0.0 and n = 0 a bare ZeroDivisionError; the check comes
        # before the leaf check, so a point off the leaf fails on n too
        jet = FoliationJet(t=0.0, k=2.0, k1=0.0, k2=0.0, r=1.0, r1=0.0, r2=0.0)
        for point in (point_at(jet, 2.5), SurfacePoint(x1=5.0, xn=2.5, t=0.0)):
            with pytest.raises(ValueError, match=f"^dimension must be at least 2, got {n}$"):
                mean_curvature_at(point, jet, n, sig)

    @pytest.mark.parametrize("sig", [RIEMANNIAN, LORENTZIAN])
    def test_rejects_point_off_leaf(self, sig):
        profile = cylinder_profile()
        jet = FoliationJet.from_profile(profile, 0.0)
        point = point_at(jet, jet.k + 0.3 * jet.r)
        off = SurfacePoint(x1=point.x1 + 1e-6, xn=point.xn, t=0.0)
        with pytest.raises(NotOnLeaf, match="leaf equation residual"):
            mean_curvature_fd(off, profile, 3, sig)

    def test_leaf_tolerance_scales_with_center_and_radius(self):
        # the tolerance of mean_curvature_at: built points pass far beyond LEAF_TOL
        profile = ProfileFunctions.from_strings("3000000", "10")
        jet = FoliationJet.from_profile(profile, 0.0)
        points = leaf_points(jet, 3, 8)
        residuals = [p.x1 * p.x1 + (p.xn - jet.k) ** 2 - jet.r ** 2 for p in points]
        assert max(map(abs, residuals)) > LEAF_TOL
        for point in points:
            mean_curvature_fd(point, profile, 3, RIEMANNIAN, h=1e-3)
        off = SurfacePoint(x1=points[0].x1 + 1e-3, xn=points[0].xn, t=0.0)
        with pytest.raises(NotOnLeaf):
            mean_curvature_fd(off, profile, 3, RIEMANNIAN, h=1e-3)


# k = 2, r = 1, t = 0: a NaN in x1 or x_n makes the leaf residual NaN, which
# fails every comparison; the three leaf checks must reject it
FLAT_JET = FoliationJet(t=0.0, k=2.0, k1=0.0, k2=0.0, r=1.0, r1=0.0, r2=0.0)
NAN_POINTS = {"x1": SurfacePoint(math.nan, 2.5, 0.0), "xn": SurfacePoint(0.5, math.nan, 0.0)}
NAN_CALLS = {
    "mean_curvature_at": lambda p: mean_curvature_at(p, FLAT_JET, 3, RIEMANNIAN),
    "is_spacelike": lambda p: is_spacelike(p, FLAT_JET),
    "mean_curvature_fd": lambda p: mean_curvature_fd(
        p, ProfileFunctions.from_strings("2", "1"), 3, RIEMANNIAN),
}


class TestNanPointOffLeaf:
    @pytest.mark.parametrize("coordinate", sorted(NAN_POINTS))
    @pytest.mark.parametrize("function", sorted(NAN_CALLS))
    def test_nan_coordinate_is_off_leaf(self, function, coordinate):
        with pytest.raises(NotOnLeaf, match="leaf equation residual nan"):
            NAN_CALLS[function](NAN_POINTS[coordinate])


class TestSpacelike:
    def test_cylinder_never_spacelike(self):
        jet = cylinder_jet()
        for point in leaf_points(jet, 3, 16):
            assert not is_spacelike(point, jet)

    def test_steep_profile_spacelike(self):
        jet = FoliationJet(t=0.0, k=2.0, k1=0.0, k2=0.0, r=0.5, r1=8.0, r2=0.0)
        for point in leaf_points(jet, 3, 16):
            assert is_spacelike(point, jet)

    def test_null_gradient_boundary(self):
        # k' = 0, A = r r'; at x_n = r' the factor A^2 - x_n^2 r^2 vanishes exactly
        jet = FoliationJet(t=0.0, k=2.0, k1=0.0, k2=0.0, r=1.0, r1=1.5, r2=0.0)
        point = point_at(jet, 1.5)
        with pytest.raises(DegenerateNormal):
            is_spacelike(point, jet)


class TestConstancyScan:
    def test_cylinder_is_flat(self):
        report = constancy_scan(cylinder_profile(), (0.0, 1.0), 3, RIEMANNIAN, 15)
        assert report.max_dev < 1e-12
        assert report.max_dKdt < 1e-12
        assert report.spacelike_fraction is None

    def test_drifting_center_flagged(self):
        profile = ProfileFunctions.from_strings("2 + 0.3*t", "1")
        report = constancy_scan(profile, (0.0, 1.0), 3, RIEMANNIAN, 15)
        assert report.max_dev > 1e-3
        assert report.max_dKdt > 0.1

    def test_lorentzian_cylinder_nowhere_spacelike(self):
        report = constancy_scan(cylinder_profile(), (0.0, 1.0), 3, LORENTZIAN, 6)
        assert report.spacelike_fraction == 0.0
        assert report.mean_H is None
        assert all(row.H is None and row.spacelike is False for row in report.rows)

    def test_dkdt_matches_symbolic_derivative(self):
        k_text, r_text = "2 + 0.3*t + 0.05*t^2", "1 + 0.2*t"
        profile = ProfileFunctions.from_strings(k_text, r_text)
        dK = differentiate(parse(f"sqrt(({k_text})^2 - ({r_text})^2)"))
        for t in (0.0, 0.4, 0.9):
            jet = FoliationJet.from_profile(profile, t)
            assert dKdt_of_jet(jet) == pytest.approx(compile_exprs(dK)(t)[0], abs=1e-12)

    @pytest.mark.parametrize("sig", [RIEMANNIAN, LORENTZIAN])
    def test_rejects_no_points_per_leaf(self, sig):
        with pytest.raises(ValueError, match="points_per_leaf"):
            constancy_scan(cylinder_profile(), (0.0, 1.0), 3, sig, 3, points_per_leaf=0)

    @pytest.mark.parametrize("sig", [RIEMANNIAN, LORENTZIAN])
    def test_kernel_calls_per_point(self, sig, monkeypatch):
        # one spacelike test per Lorentzian point, none in the Riemannian
        # metric, and one H per admissible point
        calls = {"is_spacelike": 0, "mean_curvature_at": 0}

        def counting(name):
            original = getattr(geometry, name)

            def counted(*args):
                calls[name] += 1
                return original(*args)
            return counted

        for name in calls:
            monkeypatch.setattr(geometry, name, counting(name))
        profile = ProfileFunctions.from_strings("2 + 0.4*t - 0.1*t^2", "0.8 + 2.2*t + 0.15*t^2")
        report = constancy_scan(profile, (0.0, 0.25), 3, sig, 5)
        points = len(report.rows)
        admissible = sum(1 for row in report.rows if row.H is not None)
        assert points == 5 * 8
        assert calls["is_spacelike"] == (points if sig is LORENTZIAN else 0)
        assert calls["mean_curvature_at"] == admissible
        if sig is LORENTZIAN:
            spacelike = sum(1 for row in report.rows if row.spacelike is True)
            assert 0 < admissible == spacelike < points
            assert report.spacelike_fraction == spacelike / points
        else:
            assert admissible == points and report.spacelike_fraction is None

    def test_rejects_invalid_leaf(self):
        profile = ProfileFunctions.from_strings("1", "2")
        with pytest.raises(InvalidSphere):
            constancy_scan(profile, (0.0, 1.0), 3, RIEMANNIAN, 3)

    def test_dkdt_overflow_names_t(self):
        # k k' overflows to inf while k^2 stays finite
        profile = ProfileFunctions.from_strings("10^150 + 10^200*t", "1")
        with pytest.raises(OverflowError, match="t=0.0") as info:
            constancy_scan(profile, (0.0, 1.0), 3, RIEMANNIAN, 2)
        assert str(info.value.__cause__) == "dK/dt = inf"

    def test_mean_is_summed_left_to_right(self):
        # the same bits on every Python: 3.12's compensated sum() gives 1.0 here
        assert geometry._sum([1e16, 1.0, -1e16]) == 0.0

    def test_serialization(self, tmp_path):
        import json

        report = constancy_scan(cylinder_profile(), (0.0, 0.5), 3, RIEMANNIAN, 4)
        payload = json.loads(report.to_json())
        assert payload["leaves"] == 4 and len(payload["rows"]) == 32
        # the field order of ScanReport, rows last, and of ScanRow within a row
        summary_keys = ["signature", "n", "t_start", "t_end", "leaves", "points_per_leaf",
                        "mean_H", "max_dev", "max_dKdt", "spacelike_fraction"]
        assert list(report.summary()) == summary_keys
        assert list(payload) == summary_keys + ["rows"]
        assert list(payload["rows"][0]) == ["t", "x_n", "H", "dKdt", "spacelike"]
        path = tmp_path / "scan.csv"
        report.to_csv(str(path))
        with open(path) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["t", "x_n", "H", "dKdt", "spacelike"]
        assert len(rows) == 33


def csv_writer_reference(rows, path) -> None:
    """The scan CSV as `csv.writer` writes it, the byte contract of `to_csv`."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["t", "x_n", "H", "dKdt", "spacelike"])
        for row in rows:
            writer.writerow([
                repr(row.t),
                repr(row.x_n),
                "" if row.H is None else repr(row.H),
                repr(row.dKdt),
                "" if row.spacelike is None else str(row.spacelike).lower(),
            ])


def report_of(rows) -> ScanReport:
    return ScanReport(signature="riemannian", n=3, t_start=0.0, t_end=1.0, leaves=1,
                      points_per_leaf=len(rows), mean_H=None, max_dev=None, max_dKdt=0.0,
                      spacelike_fraction=None, rows=rows)


CSV_FLOATS = st.floats() | st.sampled_from(
    [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308])


@st.composite
def scan_rows(draw) -> list:
    """Rows leaf by leaf, each leaf sharing its t and dK/dt float objects; a
    split leaf alternates between the distinct dK/dt objects 0.0 and -0.0."""
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        t = draw(CSV_FLOATS)
        dkdts = [0.0, -0.0] if draw(st.booleans()) else [draw(CSV_FLOATS)]
        for j in range(draw(st.integers(1, 8))):
            rows.append(ScanRow(t, draw(CSV_FLOATS), draw(st.none() | CSV_FLOATS),
                                dkdts[j % len(dkdts)], draw(st.sampled_from([True, False, None]))))
    return rows


class TestScanCsv:
    @settings(max_examples=200, deadline=None)
    @given(rows=scan_rows())
    @example(rows=[ScanRow(1.0, 2.0, None, 0.0, None), ScanRow(1.0, 2.5, -0.0, -0.0, False)])
    def test_bytes_match_csv_writer(self, tmp_path_factory, rows):
        base = tmp_path_factory.getbasetemp()
        csv_writer_reference(rows, base / "reference.csv")
        report_of(rows).to_csv(str(base / "scan.csv"))
        assert (base / "scan.csv").read_bytes() == (base / "reference.csv").read_bytes()

    def test_writer_streams(self, tmp_path):
        # memory during the write stays far below the size of the file text
        rows = [ScanRow(i / 8, 1.0 + i / 7, i / 3, -i / 9, None) for i in range(20000)]
        report, path = report_of(rows), tmp_path / "scan.csv"
        tracemalloc.start()
        try:
            report.to_csv(str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > 1_000_000 and peak < size / 10


# every record of the package, with one value per field in field order
RECORDS = [pytest.param(cls, fields, id=cls.__name__) for cls, fields in [
    (FoliationJet, dict(t=0.5, k=3.0, k1=0.1, k2=0.2, r=1.0, r1=0.3, r2=0.4)),
    (SurfacePoint, dict(x1=0.6, xn=2.2, t=0.5)),
    (ScanRow, dict(t=0.5, x_n=2.2, H=-1.3, dKdt=0.0, spacelike=None)),
    (ScanReport, dict(signature="riemannian", n=3, t_start=0.0, t_end=1.0, leaves=1,
                      points_per_leaf=8, mean_H=None, max_dev=None, max_dKdt=0.0,
                      spacelike_fraction=None, rows=[])),
    (ProfileRow, dict(t=0.0, r=1.0, r1=0.0, k=1.5, k1=0.0)),
    (RotationalProfile, dict(K=1.0, H_target=0.0, n=3, sig=RIEMANNIAN, rows=[], halted="why")),
    (CubicCoefficients, dict(c3=X, c2=KAP, c1=RHO)),
    (ProfileFunctions, dict(k=parse("2"), r=parse("t"))),
    (Num, dict(value=Fraction(1, 2))),
    (TVar, dict()),
    (Const, dict(name="pi")),
    (Neg, dict(arg=TVar())),
    (BinOp, dict(op="+", left=TVar(), right=Num(Fraction(1)))),
    (Pow, dict(base=TVar(), exponent=Fraction(2))),
    (Call, dict(fn="exp", arg=TVar())),
]]
NAMED_TUPLES = [case for case in RECORDS if issubclass(case.values[0], tuple)]


class TestRecords:
    @pytest.mark.parametrize("cls, fields", RECORDS)
    def test_keyword_construction_in_field_order(self, cls, fields):
        for record in (cls(**fields), cls(*fields.values())):
            assert [getattr(record, name) for name in fields] == list(fields.values())

    @pytest.mark.parametrize("cls, fields", RECORDS)
    def test_fields_cannot_be_assigned(self, cls, fields):
        record = cls(**fields)
        for name in [*fields, "extra"]:
            with pytest.raises(AttributeError):
                setattr(record, name, 1.0)
        assert [getattr(record, name) for name in fields] == list(fields.values())

    @pytest.mark.parametrize("cls, fields", NAMED_TUPLES)
    def test_replace_changes_one_field(self, cls, fields):
        record = cls(**fields)
        for name in fields:
            changed = record._replace(**{name: "new"})
            assert getattr(changed, name) == "new" and type(changed) is cls
            assert changed == tuple("new" if key == name else value
                                    for key, value in fields.items())
        assert record == tuple(fields.values())  # a named tuple equals the plain tuple
