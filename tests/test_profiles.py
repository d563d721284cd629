"""Rotational CMC generation: derived ODE, RK4 integration, closed-loop checks."""

import csv
import dataclasses
import json
import math

import pytest

from folicurve import profiles
from folicurve.geometry import constancy_scan
from folicurve.identity import LORENTZIAN, RIEMANNIAN, bracket_cubic
from folicurve.profiles import (
    DegenerateNormal,
    HermiteProfile,
    InvalidSphere,
    ProfileRow,
    RotationalProfile,
    StepUnstable,
    ValidationFailed,
    admissibility_factor,
    apply_rotational_constraint,
    cmc_rhs,
    integrate_profile,
    validate_profile,
)
from folicurve.symexpr import Indeterminate

BOTH = (RIEMANNIAN, LORENTZIAN)


def catenoid(t_end: float = 0.5, step: float = 1e-3) -> RotationalProfile:
    return integrate_profile(1.0, 0.0, (0.0, t_end), step, 1.0, 0.0, 3, RIEMANNIAN)


def cylinder(n: int = 3, R: float = 1.0, K: float = 1.0) -> RotationalProfile:
    k, r = K * math.cosh(R), K * math.sinh(R)
    h_target = -(n - 1) / (n * math.tanh(R))
    rows = [ProfileRow(t=0.1 * i, r=r, r1=0.0, k=k, k1=0.0) for i in range(4)]
    return RotationalProfile(K=K, H_target=h_target, n=n, sig=RIEMANNIAN, rows=rows)


class TestRotationalConstraintLemma:
    @pytest.mark.parametrize("sig", BOTH)
    def test_c2_vanishes(self, sig):
        assert apply_rotational_constraint(bracket_cubic(sig).c2).is_zero

    @pytest.mark.parametrize("sig", BOTH)
    def test_c1_vanishes(self, sig):
        assert apply_rotational_constraint(bracket_cubic(sig).c1).is_zero

    @pytest.mark.parametrize("sig", BOTH)
    def test_c3_does_not_vanish(self, sig):
        assert not apply_rotational_constraint(bracket_cubic(sig).c3).is_zero


class TestCmcRhs:
    def test_minimal_worked_example(self):
        assert cmc_rhs(1.0, 0.0, 1.0, 0.0, 3, RIEMANNIAN) == pytest.approx(4.0, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("K", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("r", [0.5, 1.0, 1.7])
    def test_minimal_closed_form_at_critical_radius(self, n, K, r):
        expected = (n - 1) * (K * K + r * r) / r
        assert cmc_rhs(r, 0.0, K, 0.0, n, RIEMANNIAN) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("sig", BOTH)
    @pytest.mark.parametrize("sign_branch", [-1, 1])
    def test_solves_its_own_equation(self, sig, sign_branch):
        K, r, r1, H, n = 1.1, 0.8, 1.9 if sig is LORENTZIAN else 0.3, 0.6, 3
        r2 = cmc_rhs(r, r1, K, H, n, sig, sign_branch)
        k = math.hypot(K, r)
        k1 = r * r1 / k
        k2 = (r1 * r1 + r * r2 - k1 * k1) / k
        c3 = bracket_cubic(sig).c3.eval_numeric(
            {
                Indeterminate.KAP: k,
                Indeterminate.KAP1: k1,
                Indeterminate.KAP2: k2,
                Indeterminate.RHO: r,
                Indeterminate.RHO1: r1,
                Indeterminate.NU: float(n),
            }
        )
        factor = admissibility_factor(r, k1, sig)
        residual = c3 - sign_branch * n * H * factor * math.sqrt(factor)
        assert abs(residual) <= 1e-12

    def test_branch_mirrors_target(self):
        plus = cmc_rhs(1.0, 0.2, 1.0, 0.5, 3, RIEMANNIAN, sign_branch=1)
        minus = cmc_rhs(1.0, 0.2, 1.0, -0.5, 3, RIEMANNIAN, sign_branch=-1)
        assert plus == pytest.approx(minus, rel=1e-14)

    def test_lorentzian_requires_spacelike_factor(self):
        with pytest.raises(DegenerateNormal):
            cmc_rhs(1.0, 0.0, 1.0, 0.0, 3, LORENTZIAN)

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

    def test_admissibility_halt_reports_partial_table(self):
        profile = integrate_profile(1.0, -2.0, (0.0, 2.0), 1e-3, 1.0, 0.0, 3, LORENTZIAN)
        assert profile.halted is not None and "admissibility" in profile.halted
        assert 1 < len(profile.rows) < 2001
        assert profile.rows[-1].r < 0.1

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


class TestHermiteProfile:
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
        report = validate_profile(profile, samples=20, tol=1e-9)
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
        rows[250] = dataclasses.replace(rows[250], r=rows[250].r + 1e-3)
        with pytest.raises(ValidationFailed):
            validate_profile(dataclasses.replace(profile, rows=rows), samples=40)

    def test_too_few_rows(self):
        profile = cylinder()
        with pytest.raises(ValidationFailed):
            validate_profile(dataclasses.replace(profile, rows=profile.rows[:1]))

    def test_validation_scan_matches_direct_scan(self):
        profile = catenoid(t_end=0.2)
        interp = HermiteProfile(profile)
        leaves = len(profile.rows)
        direct = constancy_scan(interp, (0.0, profile.rows[-1].t), 3, RIEMANNIAN, leaves)
        via_validate = validate_profile(profile, samples=10)
        assert via_validate.leaves == leaves
        assert direct.mean_H == pytest.approx(via_validate.mean_H, abs=1e-15)


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
        assert payload["signature"] == "riemannian"
        assert payload["halted"] is None
        assert payload["rows"][0] == {"t": 0.0, "r": 1.0, "r1": 0.0,
                                      "k": math.sqrt(2.0), "k1": 0.0}
