"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run `pytest tests/test_acceptance.py -v -s` to see one pass/fail line per
criterion.
"""

import math
import random
import time

from folicurve.geometry import (
    DegenerateNormal,
    FoliationJet,
    SurfacePoint,
    constancy_scan,
    euclidean_to_hyperbolic,
    hyperbolic_to_euclidean,
    is_spacelike,
    leaf_points,
    mean_curvature_at,
    mean_curvature_fd,
)
from folicurve.exprlang import ProfileFunctions
from folicurve.identity import (
    LORENTZIAN,
    RIEMANNIAN,
    bracket_cubic,
    jet_A,
    neg_nH_S3,
    s_squared_reduced,
    verify_squared_identity,
)
from folicurve.profiles import integrate_profile, validate_profile
from folicurve.symexpr import KAP, KAP1, KAP2, NU, RHO, RHO1, RHO2, X, Indeterminate

SEED = 20260808


def report(num: int, description: str, ok: bool) -> None:
    print(f"\ncriterion {num:02d} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {num}: {description}"


def test_criterion_01_riemannian_identity_exact():
    start = time.perf_counter()
    sign = verify_squared_identity(RIEMANNIAN)  # raises IdentityViolation unless P = +-Q
    elapsed = time.perf_counter() - start
    report(
        1,
        "Riemannian squared identity holds exactly over Q[nu] "
        f"(sign {sign}, {elapsed * 1e3:.0f} ms)",
        sign in (1, -1) and elapsed < 10.0,
    )


def test_criterion_02_lorentzian_identity_exact():
    start = time.perf_counter()
    sign = verify_squared_identity(LORENTZIAN)  # raises IdentityViolation unless P = +-Q
    elapsed = time.perf_counter() - start
    # the signature changes the bracket: the radial cubic term flips sign
    riem, lor = bracket_cubic(RIEMANNIAN), bracket_cubic(LORENTZIAN)
    signature_dependent = riem.c3 - lor.c3 == 2 * (NU - 1) * KAP * RHO ** 2
    report(
        2,
        "Lorentzian squared identity holds exactly, with the signature-dependent "
        f"bracket sign (sign {sign}, {elapsed * 1e3:.0f} ms)",
        sign in (1, -1) and signature_dependent and elapsed < 10.0,
    )


def test_criterion_03_divergence_display_term_for_term():
    # B is the display's notation, defined by d_dt(A) = -B
    a = jet_A(X, KAP, KAP1, RHO, RHO1)
    b = KAP1 ** 2 - (X - KAP) * KAP2 - RHO1 ** 2 - RHO * RHO2
    display = (
        2 * a ** 2 * X ** 2
        + (NU - 1) * KAP * RHO ** 2 * X ** 3
        + (NU - 2) * KAP * X * a ** 2
        + RHO ** 2 * X ** 2 * b
        - 2 * X ** 3 * KAP1 * a
        + 2 * KAP * KAP1 * X ** 2 * a
    )
    report(
        3,
        "Riemannian divergence expansion equals the closed-form display, with "
        "B = -d_dt(A), after canonicalization",
        a.d_dt() == -b and neg_nH_S3(RIEMANNIAN) == display,
    )


def test_criterion_04_coefficient_conclusions():
    symbolic_ok = True
    gap = RHO * RHO1 - KAP * KAP1
    for sig in (RIEMANNIAN, LORENTZIAN):
        cubic = bracket_cubic(sig)
        square = cubic.assemble() * cubic.assemble()
        symbolic_ok &= square.coeff_of(Indeterminate.X, 0).is_zero
        symbolic_ok &= square.coeff_of(Indeterminate.X, 2) == cubic.c1 * cubic.c1
        # the factored forms the numeric part evaluates
        symbolic_ok &= (s_squared_reduced(sig) ** 3).coeff_of(Indeterminate.X, 0) == gap ** 6
        symbolic_ok &= cubic.c1 == KAP * (NU - 2) * gap ** 2

    rng = random.Random(SEED)
    numeric_ok = True
    for trial in range(1000):
        n = rng.choice([2, 3, 4, 5])
        h = rng.uniform(0.2, 2.0) * rng.choice([-1.0, 1.0])
        r = rng.uniform(0.3, 2.0)
        k = r + rng.uniform(0.2, 2.0)
        r1 = rng.uniform(-2.0, 2.0)
        if trial % 3 == 0:
            k1 = r * r1 / k  # on the constraint
        else:
            k1 = rng.uniform(-2.0, 2.0)
            if abs(r * r1 - k * k1) < 1e-3:
                k1 += 1.0
        # n^2 H^2 (r r' - k k')^6 and k (n-2) (r r' - k k')^2, in factored form
        gap_val = r * r1 - k * k1
        deg0 = (n * h) ** 2 * gap_val ** 6
        c1_val = k * (n - 2) * gap_val ** 2
        constrained = abs(gap_val) <= 1e-12
        if constrained:
            numeric_ok &= abs(deg0) < 1e-40 and abs(c1_val) < 1e-20
        else:
            numeric_ok &= deg0 > 0.0 and (n == 2 or c1_val > 0.0)
    report(
        4,
        "degree-0 and degree-2 coefficient conclusions hold symbolically and on "
        "1000 random jets",
        symbolic_ok and numeric_ok,
    )


def test_criterion_05_cylinder_curvature_and_fd_oracle():
    closed_form_ok = True
    for n in (2, 3, 5):
        for R in (0.5, 1.0, 2.0):
            k, r = math.cosh(R), math.sinh(R)
            jet = FoliationJet(t=0.0, k=k, k1=0.0, k2=0.0, r=r, r1=0.0, r2=0.0)
            for point in leaf_points(jet, n, 3):
                h_val = mean_curvature_at(point, jet, n, RIEMANNIAN)
                expected = (n - 1) / (n * math.tanh(R))
                closed_form_ok &= abs(abs(h_val) - expected) <= 1e-9

    rng = random.Random(SEED + 1)
    fd_ok = True
    worst = 0.0
    for _ in range(100):
        n = rng.choice([2, 3, 5])
        R = rng.choice([0.5, 1.0, 2.0])
        K = rng.uniform(0.5, 2.0)
        profile = ProfileFunctions.from_strings(f"{K}*cosh({R})", f"{K}*sinh({R})")
        jet = FoliationJet.from_profile(profile, 0.0)
        u = rng.uniform(0.02, 0.98)
        xn = jet.k + jet.r * math.cos(math.pi * u)
        x1 = math.sqrt(max(jet.r ** 2 - (xn - jet.k) ** 2, 0.0))
        point = SurfacePoint(x1=x1, xn=xn, t=0.0)
        gap = abs(
            mean_curvature_fd(point, profile, n, RIEMANNIAN, h=1e-4)
            - mean_curvature_at(point, jet, n, RIEMANNIAN)
        )
        worst = max(worst, gap)
        fd_ok &= gap <= 1e-6
    report(
        5,
        "cylinder |H| = (n-1) coth(R)/n to 1e-9 and finite-difference agreement "
        f"<= 1e-6 at h = 1e-4 (worst {worst:.2e})",
        closed_form_ok and fd_ok,
    )


def test_criterion_06_minimal_catenoid_closed_loop():
    profile = integrate_profile(1.0, 0.0, (0.0, 0.5), 1e-3, 1.0, 0.0, 3, RIEMANNIAN)
    scan = validate_profile(profile, samples=50)
    max_h = max(abs(row.H) for row in scan.rows)
    scan_ok = max_h < 1e-5 and scan.max_dKdt < 1e-8

    ends = {
        step: integrate_profile(1.0, 0.0, (0.0, 0.5), step, 1.0, 0.0, 3, RIEMANNIAN).rows[-1].r
        for step in (2e-3, 1e-3, 5e-4)
    }
    ratio = abs(ends[2e-3] - ends[1e-3]) / abs(ends[1e-3] - ends[5e-4])
    convergence_ok = 16.0 * 0.8 <= ratio <= 16.0 * 1.2
    report(
        6,
        f"minimal catenoid closed loop: max|H| = {max_h:.2e} < 1e-5, "
        f"max|dK/dt| = {scan.max_dKdt:.2e} < 1e-8, halving factor {ratio:.2f}",
        scan_ok and convergence_ok,
    )


def test_criterion_07_nonzero_target_dimension_two():
    profile = integrate_profile(1.0, 0.0, (0.0, 0.35), 1e-3, 1.0, 0.75, 2, RIEMANNIAN)
    scan = validate_profile(profile, samples=50)
    deviation = max(abs(row.H - 0.75) for row in scan.rows)
    report(
        7,
        f"n = 2, H = 0.75 profile validates with max|H - H_target| = {deviation:.2e} < 1e-5",
        deviation < 1e-5,
    )


def test_criterion_08_lorentzian_spacelike_gate():
    profile = ProfileFunctions.from_strings("cosh(1)", "sinh(1)")
    scan = constancy_scan(profile, (0.0, 1.0), 3, LORENTZIAN, 10)
    cylinder_ok = scan.spacelike_fraction == 0.0 and scan.mean_H is None

    rng = random.Random(SEED + 2)
    false_accepts = 0
    false_rejects = 0
    probes = 0
    while probes < 1000:
        k = rng.uniform(1.5, 3.0)
        r = rng.uniform(0.3, k - 0.3)
        u = rng.uniform(0.05, 0.95)
        xn = k + r * (2.0 * u - 1.0)
        x1 = math.sqrt(max(r * r - (xn - k) ** 2, 0.0))
        k1 = rng.choice([0.0, rng.uniform(-0.5, 0.5)])
        # place r' so A^2 - x_n^2 r^2 straddles zero
        delta = rng.choice([-1.0, 1.0]) * rng.uniform(1e-6, 0.2)
        r1 = (xn * (1.0 + delta) - (xn - k) * k1) / r
        jet = FoliationJet(t=0.0, k=k, k1=k1, k2=rng.uniform(-1, 1),
                           r=r, r1=r1, r2=rng.uniform(-1, 1))
        a = (xn - k) * k1 + r * r1
        q = a * a - (xn * r) ** 2
        if abs(q) < 1e-12:
            continue
        probes += 1
        point = SurfacePoint(x1=x1, xn=xn, t=0.0)
        try:
            mean_curvature_at(point, jet, 3, LORENTZIAN)
            accepted = True
        except DegenerateNormal:
            accepted = False
        if accepted and q <= 0:
            false_accepts += 1
        if not accepted and q > 0:
            false_rejects += 1
    report(
        8,
        "Lorentzian gate: cylinder nowhere spacelike; "
        f"{false_accepts} false accepts and {false_rejects} false rejects "
        "over 1000 boundary-straddling probes",
        cylinder_ok and false_accepts == 0 and false_rejects == 0,
    )


def test_criterion_09_center_conversions():
    golden_K, golden_R = euclidean_to_hyperbolic(5.0, 3.0)
    golden_ok = abs(golden_K - 4.0) < 1e-12 and abs(golden_R - math.log(2.0)) < 1e-15

    rng = random.Random(SEED + 3)
    roundtrip_ok = True
    for _ in range(1000):
        r = rng.uniform(1e-3, 10.0)
        k = r + rng.uniform(1e-3, 10.0)
        k_back, r_back = hyperbolic_to_euclidean(*euclidean_to_hyperbolic(k, r))
        roundtrip_ok &= abs(k_back - k) <= 1e-12 * k and abs(r_back - r) <= 1e-12 * r
    report(
        9,
        "center conversions: (5,3) -> (4, ln 2) and 1000 random roundtrips to 1e-12",
        golden_ok and roundtrip_ok,
    )


def test_criterion_10_c2_vanishing_lemma():
    # the certificate: c2 in the ideal of g = k k' - r r' and its t-derivative g'
    g = KAP * KAP1 - RHO * RHO1
    certificate = RHO ** 2 * g.d_dt() - 2 * (RHO * RHO1 + (NU - 2) * KAP * KAP1) * g
    ok = True
    for sig in (RIEMANNIAN, LORENTZIAN):
        ok &= bracket_cubic(sig).c2 == certificate
    report(
        10,
        "c2 vanishes exactly under k k' = r r' and its t-derivative, both signatures",
        ok,
    )
