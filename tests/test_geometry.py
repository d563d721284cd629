"""Conversions, pointwise curvature vs the finite-difference oracle, scanning."""

import decimal
import math

import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from folicurve import geometry
from folicurve.exprlang import ProfileFunctions, differentiate, evaluate, parse
from folicurve.geometry import (
    DegenerateNormal,
    FoliationJet,
    InvalidSphere,
    LEAF_TOL,
    NotOnLeaf,
    ScanReport,
    StepUnstable,
    SurfacePoint,
    constancy_scan,
    dKdt_of_jet,
    euclidean_to_hyperbolic,
    hyperbolic_to_euclidean,
    is_spacelike,
    leaf_points,
    leaf_residual,
    mean_curvature_at,
    mean_curvature_fd,
)
from folicurve.identity import LORENTZIAN, RIEMANNIAN
from folicurve.profiles import cmc_rhs
from folicurve.symexpr import Indeterminate


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
        jet = FoliationJet(t=0.5, k=3.0, k1=0.1, k2=-0.2, r=1.5, r1=0.3, r2=0.4)
        values = jet.bindings(4, 2.5)
        assert len(values) == len(Indeterminate)
        assert {ind.name: value for ind, value in zip(Indeterminate, values)} == {
            "X": 2.5, "KAP": 3.0, "KAP1": 0.1, "KAP2": -0.2, "RHO": 1.5, "RHO1": 0.3,
            "RHO2": 0.4, "SIG": None, "NU": 4.0,
        }


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
        assert max(abs(leaf_residual(p, jet)) for p in points) > LEAF_TOL
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
            assert dKdt_of_jet(jet) == pytest.approx(evaluate(dK, t), abs=1e-12)

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

    def test_serialization(self, tmp_path):
        import csv
        import json

        report = constancy_scan(cylinder_profile(), (0.0, 0.5), 3, RIEMANNIAN, 4)
        payload = json.loads(report.to_json())
        assert payload["leaves"] == 4 and len(payload["rows"]) == 32
        path = tmp_path / "scan.csv"
        report.to_csv(str(path))
        with open(path) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["t", "x_n", "H", "dKdt", "spacelike"]
        assert len(rows) == 33
