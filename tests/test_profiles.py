"""Rotational CMC generation: derived ODE, RK4 integration, closed-loop checks."""

import csv
import json
import math

import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from folicurve import identity, profiles
from folicurve.geometry import constancy_scan
from folicurve.identity import (LORENTZIAN, RIEMANNIAN, IdentityViolation, bracket_cubic,
                                rotational_ode_form, s_squared_reduced, verify_squared_identity)
from folicurve.profiles import (
    DegenerateNormal,
    HermiteProfile,
    InvalidSphere,
    ProfileRow,
    RotationalProfile,
    StepUnstable,
    ValidationFailed,
    cmc_rhs,
    integrate_profile,
    validate_profile,
)
from folicurve.symexpr import KAP, KAP1, NU, RHO, RHO1, Indeterminate

BOTH = (RIEMANNIAN, LORENTZIAN)


def catenoid(t_end: float = 0.5, step: float = 1e-3) -> RotationalProfile:
    return integrate_profile(1.0, 0.0, (0.0, t_end), step, 1.0, 0.0, 3, RIEMANNIAN)


def cylinder(n: int = 3, R: float = 1.0, K: float = 1.0) -> RotationalProfile:
    k, r = K * math.cosh(R), K * math.sinh(R)
    h_target = -(n - 1) / (n * math.tanh(R))
    rows = [ProfileRow(t=0.1 * i, r=r, r1=0.0, k=k, k1=0.0) for i in range(4)]
    return RotationalProfile(K=K, H_target=h_target, n=n, sig=RIEMANNIAN, rows=rows)


# the rotational constraint k k' = r r' and its t-derivative generate the ideal
G = KAP * KAP1 - RHO * RHO1
DG = G.d_dt()


class TestRotationalConstraintLemma:
    @pytest.mark.parametrize("sig", BOTH)
    def test_c2_vanishes(self, sig):
        assert bracket_cubic(sig).c2 == RHO ** 2 * DG - 2 * (RHO * RHO1 + (NU - 2) * KAP * KAP1) * G

    @pytest.mark.parametrize("sig", BOTH)
    def test_c1_vanishes(self, sig):
        assert bracket_cubic(sig).c1 == KAP * (NU - 2) * G ** 2

    @pytest.mark.parametrize("sig", BOTH)
    def test_c3_does_not_vanish(self, sig):
        # every member of the ideal vanishes where G = DG = 0; c3 = 3 + 2 eps does not
        point = {Indeterminate.X: 1, Indeterminate.KAP: 1, Indeterminate.KAP1: 1,
                 Indeterminate.RHO: 1, Indeterminate.RHO1: 1, Indeterminate.KAP2: 0,
                 Indeterminate.RHO2: 0, Indeterminate.NU: 3}

        def at_point(p):
            for ind, value in point.items():
                p = p.substitute(ind, value)
            return p

        assert at_point(G).is_zero and at_point(DG).is_zero
        assert at_point(bracket_cubic(sig).c3) == 3 + 2 * sig.epsilon

    @pytest.mark.parametrize("sig", BOTH)
    def test_failed_lemma_is_identity_violation(self, sig, monkeypatch):
        def broken(sig):
            cubic = bracket_cubic(sig)
            return cubic._replace(c2=cubic.c2 + KAP * RHO ** 2)

        monkeypatch.setattr(identity, "bracket_cubic", broken)
        rotational_ode_form.cache_clear()
        try:
            with pytest.raises(IdentityViolation, match="c2 does not vanish"):
                rotational_ode_form(sig)
        finally:
            rotational_ode_form.cache_clear()

    @pytest.mark.parametrize("sig", BOTH)
    def test_admissibility_factor_comes_from_s_squared(self, sig, monkeypatch):
        monkeypatch.setattr(identity, "s_squared_reduced",
                            lambda sig: s_squared_reduced(sig) + KAP * RHO ** 2)
        rotational_ode_form.cache_clear()
        try:
            with pytest.raises(IdentityViolation, match=rf"S\^2 .*\({sig.label}\)"):
                rotational_ode_form(sig)
        finally:
            rotational_ode_form.cache_clear()


class TestCmcRhs:
    def test_minimal_worked_example(self):
        assert cmc_rhs(1.0, 0.0, 1.0, 0.0, 3, RIEMANNIAN) == pytest.approx(4.0, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 0, -3])
    def test_rejects_a_dimension_below_two(self, n):
        with pytest.raises(ValueError, match=rf"^dimension must be at least 2, got {n}$"):
            cmc_rhs(1.0, 0.0, 1.0, 0.5, n, RIEMANNIAN)

    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("K", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("r", [0.5, 1.0, 1.7])
    def test_minimal_closed_form_at_critical_radius(self, n, K, r):
        expected = (n - 1) * (K * K + r * r) / r
        assert cmc_rhs(r, 0.0, K, 0.0, n, RIEMANNIAN) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("sig", BOTH)
    def test_solves_its_own_equation(self, sig):
        K, r, r1, H, n = 1.1, 0.8, 1.9 if sig is LORENTZIAN else 0.3, 0.6, 3
        r2 = cmc_rhs(r, r1, K, H, n, sig)
        k = math.hypot(K, r)
        k1 = r * r1 / k
        k2 = (r1 * r1 + r * r2 - k1 * k1) / k
        bindings = {
            Indeterminate.KAP: k,
            Indeterminate.KAP1: k1,
            Indeterminate.KAP2: k2,
            Indeterminate.RHO: r,
            Indeterminate.RHO1: r1,
            Indeterminate.NU: float(n),
        }
        c3 = bracket_cubic(sig).c3.eval_numeric([bindings.get(ind) for ind in Indeterminate])
        factor = r * r + k1 * k1 if sig is RIEMANNIAN else k1 * k1 - r * r
        branch = -verify_squared_identity(sig)
        residual = c3 - branch * n * H * factor * math.sqrt(factor)
        assert abs(residual) <= 1e-12

    def test_branch_mirrors_target(self, monkeypatch):
        # the branch is the verified sign: the opposite sign solves for the target -H
        mirror = cmc_rhs(1.0, 0.2, 1.0, -0.5, 3, RIEMANNIAN)

        def flipped(sig):
            return -verify_squared_identity(sig)

        monkeypatch.setattr(identity, "verify_squared_identity", flipped)
        rotational_ode_form.cache_clear()
        try:
            assert cmc_rhs(1.0, 0.2, 1.0, 0.5, 3, RIEMANNIAN) == mirror
        finally:
            rotational_ode_form.cache_clear()

    def test_lorentzian_requires_spacelike_factor(self):
        with pytest.raises(DegenerateNormal):
            cmc_rhs(1.0, 0.0, 1.0, 0.0, 3, LORENTZIAN)

    @pytest.mark.parametrize("sig", BOTH)
    def test_lead_is_minus_r_squared(self, sig):
        # so cmc_rhs's r > 1e-12 check alone keeps the k'' coefficient nonzero
        assert rotational_ode_form(sig)[0] == -RHO ** 2

    def test_vanishing_lead(self):
        with pytest.raises(InvalidSphere):
            cmc_rhs(1e-13, 0.0, 1.0, 0.0, 3, RIEMANNIAN)

    def test_positive_K_required(self):
        with pytest.raises(ValueError):
            cmc_rhs(1.0, 0.0, -1.0, 0.0, 3, RIEMANNIAN)


class TestIntegration:
    def test_step_halving_agreement_at_grid_point(self):
        full = catenoid(step=1e-3)
        half = catenoid(step=5e-4)
        assert abs(full.rows[100].r - half.rows[200].r) < 1e-9

    def test_rows_satisfy_rotational_constraint(self):
        profile = catenoid()
        for row in profile.rows:
            assert abs(row.r * row.r1 - row.k * row.k1) < 1e-12
            assert abs(math.sqrt(row.k ** 2 - row.r ** 2) - 1.0) < 1e-12

    def test_self_convergence_fourth_order(self):
        ends = {}
        for step in (4e-3, 2e-3, 1e-3, 5e-4):
            ends[step] = catenoid(step=step).rows[-1].r
        for coarse, mid, fine in ((4e-3, 2e-3, 1e-3), (2e-3, 1e-3, 5e-4)):
            denom = abs(ends[mid] - ends[fine])
            if denom < 1e-13:
                continue
            ratio = abs(ends[coarse] - ends[mid]) / denom
            assert 16.0 * 0.8 <= ratio <= 16.0 * 1.2
            return
        pytest.fail("all step pairs below measurement floor")

    def test_even_symmetry_of_minimal_profile(self):
        forward = catenoid()
        backward = integrate_profile(1.0, 0.0, (0.0, -0.5), 1e-3, 1.0, 0.0, 3, RIEMANNIAN)
        fw = {round(row.t, 9): row.r for row in forward.rows}
        bw = {round(-row.t, 9): row.r for row in backward.rows}
        shared = [t for t in fw if t in bw]
        assert len(shared) == len(fw)
        assert max(abs(fw[t] - bw[t]) for t in shared) < 1e-9

    def test_tiny_radius_halts_immediately(self):
        profile = integrate_profile(1e-7, 0.0, (0.0, 0.5), 1e-3, 1.0, 0.0, 3, RIEMANNIAN)
        assert profile.halted == "r_min"
        assert len(profile.rows) == 1

    def test_radius_collapsing_inside_a_step_halts_at_r_min(self):
        # r starts above R_MIN, but the first step's half-step stage lands below
        # zero: a Riemannian run has no admissibility factor to blame
        profile = integrate_profile(1.5e-6, -1.0, (0.0, 0.01), 1e-3, 1.0, 0.0, 3, RIEMANNIAN)
        assert profile.halted == "r_min"
        assert len(profile.rows) == 1

    def test_admissibility_halt_reports_partial_table(self):
        profile = integrate_profile(1.0, -2.0, (0.0, 2.0), 1e-3, 1.0, 0.0, 3, LORENTZIAN)
        assert profile.halted is not None and "admissibility" in profile.halted
        assert 1 < len(profile.rows) < 2001
        assert profile.rows[-1].r < 0.1

    @pytest.mark.parametrize("r0, r1, H, sig", [(1.0, 0.0, 1e308, RIEMANNIAN),
                                                (1.0, 0.0, 1e155, RIEMANNIAN),
                                                (0.5, 2.0, 1e308, LORENTZIAN)])
    def test_non_finite_step_raises_overflow(self, r0, r1, H, sig):
        # a stage's products overflow to inf without raising, and the step's
        # error estimate comes out NaN, which no limit rejects
        with pytest.raises(OverflowError, match=r"^float overflow in the profile ODE at t=0\.0$"):
            integrate_profile(r0, r1, (0.0, 0.01), 1e-3, 1.0, H, 3, sig)

    @pytest.mark.parametrize("r0, r1, K, message", [
        (1.0, 0.0, 1e-9, "need k > r > 0 at t=0.0, got k=1.0, r=1.0"),
        # just below r = 2, hypot(K, r) rounds up to the next float; from 2 on, where
        # the float spacing doubles, it rounds to r itself, and the second row is past 2
        (1.9999999, 1e-3, 2.45e-8, "need k > r > 0 at t=0.001, got k=2.0000019000017,"
                                   " r=2.0000019000017"),
    ], ids=["first-row", "second-row"])
    def test_row_whose_center_rounds_to_its_radius_is_rejected(self, r0, r1, K, message):
        with pytest.raises(InvalidSphere) as info:
            integrate_profile(r0, r1, (0.0, 0.002), 1e-3, K, 0.0, 2, RIEMANNIAN)
        assert str(info.value) == message

    def test_step_monitor_trips_near_blowup(self):
        with pytest.raises(StepUnstable):
            integrate_profile(1.0, 0.0, (0.0, 0.45), 1e-3, 1.0, 0.75, 2, RIEMANNIAN)

    def test_rhs_calls_per_step(self, monkeypatch):
        # 4 stages for the full step, 2 x 4 for the two half steps, less the
        # first stage that the full step and the first half step share
        calls = 0

        def counting(*args):
            nonlocal calls
            calls += 1
            return cmc_rhs(*args)

        monkeypatch.setattr(profiles, "cmc_rhs", counting)
        profile = catenoid(t_end=0.025)
        steps = len(profile.rows) - 1
        assert profile.halted is None and steps == 25
        assert calls == 11 * steps

    def test_input_validation(self):
        with pytest.raises(ValueError):
            integrate_profile(-1.0, 0.0, (0.0, 0.5), 1e-3, 1.0, 0.0, 3, RIEMANNIAN)
        with pytest.raises(ValueError):
            integrate_profile(1.0, 0.0, (0.0, 0.5), 0.5, 1.0, 0.0, 3, RIEMANNIAN)
        with pytest.raises(ValueError):
            integrate_profile(1.0, 0.0, (0.3, 0.3), 1e-3, 1.0, 0.0, 3, RIEMANNIAN)
        for n in (1, 0, -3):  # before the first row, not later through validate_profile
            with pytest.raises(ValueError, match=rf"^dimension must be at least 2, got {n}$"):
                integrate_profile(1.0, 0.0, (0.0, 0.01), 1e-3, 1.0, 0.5, n, RIEMANNIAN)

    @pytest.mark.parametrize("t_range", [(1e13, 1e13 + 0.1), (-1e13 - 0.1, -1e13)])
    def test_rejects_a_step_below_the_resolution_of_t(self, t_range):
        # at |t| = 1e13 floats lie 0.00195 apart, so t += 1e-3 moved each row by
        # 0.00195 and the last row ended past t1
        with pytest.raises(ValueError, match=r"^step 0\.001 is below the float resolution of t"
                                             r" near 10000000000000\.1: "):
            integrate_profile(1.0, 0.0, t_range, 1e-3, 1.0, 0.0, 3, RIEMANNIAN)

    def test_far_range_with_exact_enough_steps_runs(self):
        # t += h rounds by 5.8e-11 at t = 1e6, far below a millionth of the step
        profile = integrate_profile(1.0, 0.0, (1e6, 1e6 + 0.0095), 1e-3, 1.0, 0.0, 3, RIEMANNIAN)
        assert len(profile.rows) == 11
        steps = [b.t - a.t for a, b in zip(profile.rows, profile.rows[1:])]
        assert all(abs(h - 1e-3) <= profiles.T_ROUNDING * 1e-3 for h in steps[:-1])
        assert abs(steps[-1] - 5e-4) <= profiles.T_ROUNDING * 1e-3


def triple_loop_lagrange_derivative(ts: list[float], ys: list[float], x: float) -> float:
    """The Lagrange derivative as a plain triple loop that recomputes x - t_m in
    every product; the bit-identity reference."""
    total = 0.0
    for j, (tj, yj) in enumerate(zip(ts, ys)):
        num = 0.0
        for p in range(len(ts)):
            if p == j:
                continue
            prod = 1.0
            for m, tm in enumerate(ts):
                if m != j and m != p:
                    prod *= x - tm
            num += prod
        denom = 1.0
        for m, tm in enumerate(ts):
            if m != j:
                denom *= tj - tm
        total += yj * num / denom
    return total


@st.composite
def lagrange_windows(draw):
    """Unevenly spaced windows of 2..5 nodes, their values and a point within."""
    width = draw(st.integers(min_value=2, max_value=5))
    start = draw(st.floats(min_value=-10.0, max_value=10.0))
    gaps = draw(st.lists(st.floats(min_value=1e-4, max_value=0.5), min_size=width - 1,
                         max_size=width - 1))
    ts = [start]
    for gap in gaps:
        ts.append(ts[-1] + gap)
    ys = draw(st.lists(st.floats(min_value=-5.0, max_value=5.0), min_size=width,
                       max_size=width))
    x = draw(st.sampled_from(ts) | st.floats(min_value=ts[0], max_value=ts[-1]))
    return ts, ys, x


class TestHermiteProfile:
    @given(lagrange_windows())
    @settings(max_examples=300)
    def test_lagrange_derivative_matches_triple_loop(self, window):
        ts, ys, x = window
        value = profiles._lagrange_stencil(len(ts))(ts, ys, x)
        assert float.hex(value) == float.hex(triple_loop_lagrange_derivative(ts, ys, x))

    def test_exact_at_nodes(self):
        profile = catenoid(t_end=0.2)
        interp = HermiteProfile(profile)
        for i in (0, 57, 143, 200):
            k, k1, k2, r, r1, r2 = interp.jet_values(interp.ts[i])
            assert r == pytest.approx(interp.rs[i], abs=1e-15)
            assert r1 == pytest.approx(interp.r1s[i], abs=1e-13)
            assert k == pytest.approx(math.hypot(1.0, r), rel=1e-15)

    def test_second_derivative_tracks_the_ode(self):
        profile = catenoid(t_end=0.3)
        interp = HermiteProfile(profile)
        for t in (0.05, 0.113, 0.25):
            k, k1, k2, r, r1, r2 = interp.jet_values(t)
            assert r2 == pytest.approx(cmc_rhs(r, r1, 1.0, 0.0, 3, RIEMANNIAN), abs=1e-6)

    def test_needs_two_rows(self):
        single = RotationalProfile(
            K=1.0, H_target=0.0, n=3, sig=RIEMANNIAN,
            rows=[ProfileRow(t=0.0, r=1.0, r1=0.0, k=math.sqrt(2.0), k1=0.0)],
        )
        with pytest.raises(ValueError):
            HermiteProfile(single)


class TestValidation:
    def test_catenoid_closes_the_loop(self):
        report = validate_profile(catenoid(), samples=40)
        assert max(abs(row.H) for row in report.rows) < 1e-5
        assert report.max_dKdt < 1e-8

    def test_cylinder_validates_tightly(self):
        profile = cylinder()
        report = validate_profile(profile, samples=20)
        assert max(abs(row.H - profile.H_target) for row in report.rows) < 1e-12

    def test_nonzero_target_dimension_two(self):
        profile = integrate_profile(1.0, 0.0, (0.0, 0.35), 1e-3, 1.0, 0.75, 2, RIEMANNIAN)
        report = validate_profile(profile, samples=40)
        assert max(abs(row.H - 0.75) for row in report.rows) < 1e-5

    def test_lorentzian_maximal_profile(self):
        profile = integrate_profile(1.0, 2.0, (0.0, 0.25), 1e-3, 1.0, 0.0, 3, LORENTZIAN)
        report = validate_profile(profile, samples=30)
        assert profile.halted is None
        assert report.spacelike_fraction == 1.0
        assert max(abs(row.H) for row in report.rows) < 1e-5

    def test_perturbed_row_fails(self):
        profile = catenoid()
        rows = list(profile.rows)
        rows[250] = rows[250]._replace(r=rows[250].r + 1e-3)
        with pytest.raises(ValidationFailed):
            validate_profile(profile._replace(rows=rows), samples=40)

    def test_too_few_rows(self):
        profile = cylinder()
        with pytest.raises(ValidationFailed):
            validate_profile(profile._replace(rows=profile.rows[:1]))

    def test_validation_scan_matches_direct_scan(self):
        profile = catenoid(t_end=0.2)
        interp = HermiteProfile(profile)
        leaves = len(profile.rows)
        direct = constancy_scan(interp, (0.0, profile.rows[-1].t), 3, RIEMANNIAN, leaves)
        via_validate = validate_profile(profile, samples=10)
        assert via_validate.leaves == leaves
        assert direct.mean_H == pytest.approx(via_validate.mean_H, abs=1e-15)


@st.composite
def short_profiles(draw):
    """Closed-loop inputs as the benchmark draws them, integrated over 4..20
    steps of 1e-8 to 1e-3 (and a remainder), in either direction: at least
    five rows, so that every node's r'' comes from a five-point stencil."""
    sig = draw(st.sampled_from(BOTH))
    n = draw(st.integers(min_value=2, max_value=4))
    if sig is RIEMANNIAN:
        K, r0 = draw(st.floats(0.5, 2.0)), draw(st.floats(0.7, 1.5))
        r1, H = draw(st.floats(-0.5, 0.5)), draw(st.floats(-0.6, 0.1))
    else:
        K, r0 = draw(st.floats(0.7, 1.5)), draw(st.floats(0.8, 1.3))
        r1, H = draw(st.floats(1.2, 1.5)) * math.hypot(K, r0), draw(st.floats(-0.4, 0.1))
    step = 10.0 ** draw(st.floats(-8.0, -3.0))
    span = step * (draw(st.integers(min_value=4, max_value=20))
                   + draw(st.just(0.0) | st.floats(0.05, 0.95)))
    t0 = draw(st.sampled_from([0.0, 0.5, -1.0]))
    t1 = t0 + span * draw(st.sampled_from([1.0, -1.0]))
    return r0, r1, (t0, t1), step, K, H, n, sig


class TestSmallSteps:
    @given(short_profiles())
    @settings(max_examples=60, deadline=None)
    def test_closed_loop_holds_at_every_step(self, args):
        try:
            profile = integrate_profile(*args)
        except StepUnstable:
            assume(False)
        assume(profile.halted is None)
        validate_profile(profile)  # raises ValidationFailed past H_TOL or DKDT_LIMIT


class TestExports:
    def test_csv_columns_and_constraint(self, tmp_path):
        path = tmp_path / "profile.csv"
        catenoid(t_end=0.1).to_csv(str(path))
        with open(path) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["t", "r", "r1", "k", "k1", "K_check"]
        for row in rows[1:]:
            assert float(row[5]) == pytest.approx(1.0, abs=1e-12)

    def test_json_payload(self):
        payload = json.loads(catenoid(t_end=0.05).to_json())
        assert list(payload) == ["K", "H_target", "n", "signature", "halted", "rows"]
        assert payload["signature"] == "riemannian"
        assert payload["halted"] is None
        assert payload["rows"][0] == {"t": 0.0, "r": 1.0, "r1": 0.0,
                                      "k": math.sqrt(2.0), "k1": 0.0}
        assert list(payload["rows"][0]) == ["t", "r", "r1", "k", "k1"]
