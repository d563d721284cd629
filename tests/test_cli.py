"""Exit-code contract and output formats of the command-line front door."""

import contextlib
import csv
import hashlib
import io
import json
import logging
import math
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from folicurve import cli, exprlang, geometry, identity, profiles
from folicurve.symexpr import KAP, RHO


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_with_config(argv, payload, tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(payload))
    return run(argv + ["--config", str(config)], capsys)


@pytest.fixture
def no_run(monkeypatch):
    """Fail a test whose CLI call reaches the scan or the integrator."""
    def started(*args, **kwargs):
        raise AssertionError("the run started")
    for module, name in ((geometry, "constancy_scan"), (profiles, "integrate_profile"),
                         (profiles, "validate_profile")):
        monkeypatch.setattr(module, name, started)


def _perturbed_s_squared(monkeypatch):
    unreduced = identity.s_squared_unreduced
    monkeypatch.setattr(identity, "s_squared_unreduced",
                        lambda sig: unreduced(sig) + KAP * RHO ** 2)


class TestVerify:
    def test_both_signatures_pass(self, capsys):
        code, out, _ = run(["verify"], capsys)
        assert code == 0
        reports = json.loads(out)
        assert [r["signature"] for r in reports] == ["riemannian", "lorentzian"]
        assert all(r["pass"] and r["sign"] == 1 for r in reports)

    def test_single_signature(self, capsys):
        code, out, _ = run(["verify", "--signature", "lorentzian"], capsys)
        assert code == 0
        assert json.loads(out)[0]["signature"] == "lorentzian"

    @pytest.mark.parametrize("which", ["c1", "c2", "c3"])
    def test_mutation_hook_fails(self, which, capsys):
        code, out, _ = run(["verify", "--signature", "riemannian", "--mutate", which], capsys)
        assert code == 1
        report = json.loads(out)[0]
        assert report["pass"] is False
        assert report["residual_text"] != "0"

    def test_report_json_contract(self, capsys):
        code, out, _ = run(["verify", "--signature", "riemannian"], capsys)
        assert code == 0
        payload = json.loads(out)[0]
        assert list(payload) == ["signature", "pass", "sign", "residual_text", "elapsed_ms"]
        assert payload["pass"] is True

    # d_dt(KAP * RHO^2) has the odd coefficient 1, so its half leaves the integers
    @pytest.mark.parametrize("signature, perturb, messages", [
        pytest.param("both", _perturbed_s_squared,
                     [f"a derivative of S^2 has an odd coefficient ({label})"
                      for label in ("riemannian", "lorentzian")], id="odd-half-both"),
        pytest.param("lorentzian", _perturbed_s_squared,
                     ["a derivative of S^2 has an odd coefficient (lorentzian)"],
                     id="odd-half-lorentzian"),
    ])
    def test_failed_lemma_prints_its_line_and_no_report(self, signature, perturb, messages,
                                                          monkeypatch, capsys):
        perturb(monkeypatch)
        identity.neg_nH_S3.cache_clear()
        try:
            code, out, err = run(["verify", "--signature", signature], capsys)
        finally:
            monkeypatch.undo()
            identity.neg_nH_S3.cache_clear()
        assert code == 1
        assert json.loads(out) == []
        assert err.splitlines() == messages


def _perturbed_c2(monkeypatch):
    mutated = {sig: identity.mutated_bracket(sig, "c2") for sig in identity.GeometrySignature}
    monkeypatch.setattr(identity, "bracket_cubic", mutated.__getitem__)


class TestIdentityViolationExitsOne:
    @pytest.mark.parametrize(
        "perturb, argv, message",
        [
            (_perturbed_s_squared,
             ["scan", "--signature", "lorentzian", "--k", "2", "--r", "1+1.5*t", "--n", "3",
              "--t", "0:0.3"],
             "S^2 on the leaf is not A^2 + eps x_n^2 r^2 (lorentzian)"),
            (_perturbed_c2,
             ["generate", "--n", "3", "--K", "1", "--t", "0:0.05"],
             "c2 does not vanish under the rotational constraint (riemannian)"),
        ],
        ids=["scan", "generate"],
    )
    def test_any_command_prints_one_line(self, perturb, argv, message, monkeypatch, capsys):
        caches = (identity.s_squared_reduced, identity.rotational_ode_form)
        perturb(monkeypatch)
        for cached in caches:
            cached.cache_clear()
        try:
            code, out, err = run(argv, capsys)
        finally:
            monkeypatch.undo()
            for cached in caches:
                cached.cache_clear()
        assert code == 1
        assert out == ""
        assert err == message + "\n"


class TestScan:
    def test_cylinder(self, tmp_path, capsys):
        out_csv = str(tmp_path / "scan.csv")
        code, out, _ = run(
            ["scan", "--k", "cosh(1)", "--r", "sinh(1)", "--n", "3",
             "--t", "0:1", "--samples", "10", "--out-csv", out_csv],
            capsys,
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["cmc"] is True
        assert summary["max_dev"] < 1e-12
        with open(out_csv) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["t", "x_n", "H", "dKdt", "spacelike"]
        assert len(rows) == 81

    def test_drifting_center_flagged_non_cmc(self, capsys):
        code, out, _ = run(
            ["scan", "--k", "2+0.3*t", "--r", "1", "--n", "3", "--t", "0:1", "--samples", "10"],
            capsys,
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["cmc"] is False
        assert summary["max_dev"] > 1e-3

    def test_lorentzian_cylinder_inadmissible(self, capsys):
        code, out, err = run(
            ["scan", "--signature", "lorentzian", "--k", "cosh(1)", "--r", "sinh(1)",
             "--n", "3", "--t", "0:1", "--samples", "5"],
            capsys,
        )
        assert code == 3
        assert json.loads(out)["spacelike_fraction"] == 0.0
        assert err == "no admissible points in scan\n"

    def test_message_reaches_each_calls_stderr(self):
        argv = ["scan", "--signature", "lorentzian", "--k", "cosh(1)", "--r", "sinh(1)",
                "--n", "3", "--t", "0:1", "--samples", "2"]
        handlers = list(logging.getLogger().handlers)
        for _ in range(2):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                assert cli.main(argv) == 3
            assert err.getvalue() == "no admissible points in scan\n"
        assert logging.getLogger().handlers == handlers

    def test_parse_error_exit_two(self, capsys):
        code, _, err = run(
            ["scan", "--k", "cosh(", "--r", "1", "--n", "3", "--t", "0:1"], capsys
        )
        assert code == 2
        assert "offset 5" in err

    def test_non_ascii_character_is_an_expression_error(self, capsys):
        code, out, err = run(["scan", "--k", "²", "--r", "1", "--n", "3", "--t", "0:1"], capsys)
        assert (code, out) == (2, "")
        assert err == "expression error: unexpected character '²' at offset 0\n"

    def test_invalid_leaf_exit_two(self, capsys):
        code, _, err = run(
            ["scan", "--k", "1", "--r", "2", "--n", "3", "--t", "0:1"], capsys
        )
        assert code == 2

    def test_large_center_leaf_passes(self, capsys):
        # the leaf residual of a point with k = 3e6, r = 10 rounds to ~1e-9
        code, out, err = run(
            ["scan", "--k", "3000000", "--r", "10", "--n", "3", "--t", "0:1"], capsys
        )
        assert code == 0 and err == ""
        assert json.loads(out)["leaves"] == 50

    def test_t_range_with_step(self, capsys):
        # a scan's leaf count has one spelling, --samples
        code, out, err = run(
            ["scan", "--k", "cosh(1)", "--r", "sinh(1)", "--n", "2", "--t", "0:1:0.25"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1 and "--samples" in err

    def test_huge_dimension_scans(self, capsys):
        # a scan point is (x1, x_n) whatever n is, so its cost does not grow with n
        n = 1000000000
        code, out, err = run(
            ["scan", "--k", "cosh(1)", "--r", "sinh(1)", "--n", str(n), "--t", "0:1"], capsys
        )
        assert code == 0 and err == ""
        assert abs(json.loads(out)["mean_H"] + (n - 1) / (n * math.tanh(1.0))) <= 1e-9


class TestTimeRange:
    @pytest.mark.parametrize(
        "argv",
        [["scan", "--k", "cosh(1)", "--r", "sinh(1)", "--n", "3"],
         ["generate", "--K", "1", "--n", "3"]],
        ids=["scan", "generate"],
    )
    @pytest.mark.parametrize(
        "t_range", ["0:1:-0.1", "0:1:nan", "0:1:0", "0:1:inf", "0:inf", "nan:1", "1e308:-1e308"]
    )
    def test_bad_t_range_exit_two(self, argv, t_range, capsys):
        code, out, err = run(argv + ["--t", t_range], capsys)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1 and "t-range" in err

    def test_degenerate_range_without_step(self, capsys):
        code, out, _ = run(
            ["scan", "--k", "cosh(1)", "--r", "sinh(1)", "--n", "2", "--t", "0:0", "--samples", "1"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["leaves"] == 1


# inputs whose float arithmetic overflows: one stderr line that names t, exit 2
OVERFLOWS = [
    ["generate", "--n", "2", "--K", "0.001", "--r0", "0.0001", "--r1", "0.5", "--H", "2",
     "--t", "0:0.01"],
    ["generate", "--n", "3", "--K", "1", "--H", "1e300", "--t", "0:0.01"],
    # a stage overflows to inf without raising: the step's result is not finite
    ["generate", "--n", "3", "--K", "1", "--H", "1e308", "--t", "0:0.01"],
    ["generate", "--n", "3", "--K", "1", "--H", "1e155", "--t", "0:0.01"],
    ["generate", "--signature", "lorentzian", "--n", "3", "--K", "1", "--r0", "0.5", "--r1", "2",
     "--H", "1e308", "--t", "0:0.01"],
    ["generate", "--n", "2", "--K", "0.001", "--r0", "0.0001", "--r1", "0.5", "--H", "50",
     "--t", "0:0.01", "--validate", "--samples", "5"],
    ["scan", "--k", "10^150", "--r", "10^149", "--n", "3", "--t", "0:1", "--samples", "2"],
    # the kernels overflow to inf without raising, and S^2 and H come out NaN
    ["scan", "--k", "10^100*(1+t)", "--r", "5*10^99", "--n", "3", "--t", "0:1", "--samples", "3",
     "--points-per-leaf", "2"],
]
OVERFLOW_IDS = ["generate-ode-overflow", "generate-huge-H", "generate-nonfinite-step",
                "generate-nonfinite-step-1e155", "generate-nonfinite-step-lorentzian",
                "generate-nonfinite-half-step", "scan-kernel-overflow", "scan-nonfinite-H"]
SCAN_INFINITE_CENTER = ["scan", "--k", "10^200*10^200", "--r", "1", "--n", "3", "--t", "0:1",
                        "--samples", "2"]


class TestBadInput:
    SCAN = ["scan", "--k", "cosh(1)", "--r", "sinh(1)", "--t", "0:1"]
    GENERATE = ["generate", "--K", "1", "--t", "0:0.1"]
    # a tiny rotational profile whose closed-loop rescan breaks down
    RESCAN = ["generate", "--n", "2", "--K", "0.001", "--r0", "0.0001", "--t", "0:0.01",
              "--validate", "--samples", "5"]

    @pytest.mark.parametrize(
        "argv",
        [
            SCAN + ["--n", "3", "--samples", "-3"],
            SCAN + ["--n", "3", "--samples", "0"],
            SCAN + ["--n", "3", "--points-per-leaf", "0"],
            SCAN + ["--n", "3", "--points-per-leaf", "-2"],
            SCAN + ["--n", "0"],
            SCAN + ["--n", "1"],
            GENERATE + ["--n", "3", "--samples", "0", "--validate"],
            GENERATE + ["--n", "3", "--samples", "-1", "--validate"],
            GENERATE + ["--n", "0"],
            GENERATE + ["--n", "1"],
            ["generate", "--K", "nan", "--n", "3", "--t", "0:0.1"],
            GENERATE + ["--n", "3", "--H", "inf"],
            ["convert", "--k", "nan", "--r", "1"],
            ["convert", "--K", "1", "--R", "inf"],
            ["scan", "--k", "2+exp(1000*t)", "--r", "1", "--n", "3", "--t", "0:1"],
            ["scan", "--k", "2+exp(1000*t)", "--r", "1", "--n", "3", "--t", "0:1", "--samples", "2"],
            ["scan", "--k", "100000*(1+t)", "--r", "0.001", "--n", "3", "--t", "0:1"],
            ["scan", "--k", "cosh(1)", "--r", "sinh(1)", "--n", "3", "--t=-1e308:1e308",
             "--samples", "3"],
            ["generate", "--K", "1", "--n", "3", "--t=-1e308:1e308"],
            ["verify", "--signature", "foo"],
            ["generate", "--K", "1", "--n", "3", "--t", "0:0.1", "--sign-branch", "0"],
            ["generate", "--K", "1", "--n", "3", "--t", "0:0.1", "--sign-branch", "1"],
            ["convert", "--k", "5"],
            ["convert", "--K", "1", "--R", "1000"],
            RESCAN + ["--r1", "0.5", "--H", "2"],
            SCAN + ["--n", "3", "--samples", "2", "--out-csv", "/nonexistent/x.csv"],
            SCAN + ["--n", "3", "--samples", "2", "--out-json", "/nonexistent/x.json"],
            ["generate", "--n", "2", "--K", "1", "--t", "0:0.01", "--off", "/nonexistent/m.off"],
            SCAN + ["--n", "3", "--samples", "2", "--out-json", ""],
            ["generate", "--n", "2", "--K", "1", "--t", "0:0.01", "--off", ""],
            ["verify", "--config", ""],
            pytest.param(SCAN + ["--n", "3", "--samples", "2", "--out-csv", "/dev/full"],
                         marks=pytest.mark.skipif(not os.path.exists("/dev/full"),
                                                  reason="needs a full device")),
            SCAN[:-1] + ["a:b", "--n", "3"],
            SCAN + ["--n", "3", "--samp", "3"],
            SCAN + ["--n", "3", "--points", "2"],
            GENERATE + ["--n", "3", "--val"],
            GENERATE + ["--n", "3", "--validate=1"],
            SCAN + ["--n"],
            ["verify", "--bogus", "1"],
            ["verify", "--signature"],
            ["verify", "both"],
            ["scan", "--k", "-h", "--r", "1", "--n", "3", "--t", "0:1"],
            [],
            ["bogus"],
            SCAN_INFINITE_CENTER,
            ["convert", "--k", "1.7e308", "--r", "1e308"],
            ["convert", "--K", "1e306", "--R", "10"],
            ["convert", "--k", "1e-320", "--r", "5e-321"],
            ["scan", "--k", "(" * 2000 + "t+2" + ")" * 2000, "--r", "1", "--n", "3", "--t", "0:1"],
            ["scan", "--k", "2" + "+t" * 2000, "--r", "1", "--n", "3", "--t", "0:1"],
            SCAN + ["--n", "3", "--cmc-tol", "-1"],
            SCAN + ["--n", "3", "--cmc-tol", "0"],
            ["generate", "--n", "3", "--K", "1", "--t", "10000000000000:10000000000000.1:1e-3"],
            *OVERFLOWS,
        ],
        ids=[
            "scan-samples-negative", "scan-samples-zero", "scan-ppl-zero", "scan-ppl-negative",
            "scan-n0", "scan-n1", "generate-samples-zero", "generate-samples-negative",
            "generate-n0", "generate-n1", "generate-K-nan", "generate-H-inf",
            "convert-k-nan", "convert-R-inf", "scan-large-center", "scan-overflow",
            "scan-degenerate-normal", "scan-t-width-overflow", "generate-t-width-overflow",
            "verify-signature-unknown", "generate-sign-branch-zero", "generate-sign-branch-one",
            "convert-half-pair", "convert-R-overflow", "generate-integration-overflow",
            "scan-csv-unwritable", "scan-json-unwritable", "generate-off-unwritable",
            "scan-json-empty-path", "generate-off-empty-path", "verify-config-empty-path",
            "scan-csv-device-full",
            "scan-t-not-numbers", "scan-prefix-samples", "scan-prefix-points",
            "generate-prefix-validate", "generate-switch-with-value", "scan-missing-value",
            "verify-unknown-flag", "verify-missing-value", "verify-positional",
            "scan-k-dash-h-is-a-value", "no-command", "unknown-command",
            "scan-infinite-center", "convert-K-nan", "convert-k-overflow", "convert-K-underflow",
            "scan-deep-parentheses", "scan-long-sum", "scan-cmc-tol-negative",
            "scan-cmc-tol-zero", "generate-step-below-t-resolution", *OVERFLOW_IDS,
        ],
    )
    def test_exit_two_with_one_line(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err

    # invalid-sphere: hypot(K, r) rounds to r from r = 2 up, where the float spacing
    # doubles, but not just below; every row keeps k > r, while the interpolant's
    # maximum between the first two rows, at t = 0.0005, crosses 2
    @pytest.mark.parametrize("extra, message", [
        ([], "validation failed: S^2 = "),
        (["--K", "2.45e-8", "--r0", "1.9999999", "--r1", "1e-3", "--H", "-1", "--t", "0:0.002"],
         "validation failed: need k > r > 0 at t=0.0005, "),
    ], ids=["degenerate-normal", "invalid-sphere"])
    def test_rescan_failure_is_validation_failure(self, extra, message, capsys):
        code, out, err = run(self.RESCAN + extra, capsys)
        assert code == 2
        assert len(err.strip().splitlines()) == 1 and err.startswith(message)
        assert json.loads(out, parse_constant=_no_constant)["validated"] is False

    def test_every_library_failure_is_value_or_arithmetic_error(self):
        classes = [value for module in (exprlang, geometry, identity, profiles)
                   for value in vars(module).values()
                   if isinstance(value, type) and issubclass(value, BaseException)
                   and value.__module__ == module.__name__]
        assert len(classes) == 8
        for cls in classes:
            if cls is not identity.IdentityViolation:
                assert issubclass(cls, (ValueError, ArithmeticError)), cls

    def test_convert_R_overflow_names_the_center(self, capsys):
        # the convert-R-overflow case above: its one line names K and R
        code, _, err = run(["convert", "--K", "1", "--R", "1000"], capsys)
        assert code == 2
        assert err.startswith("invalid sphere:") and "K=1.0" in err and "R=1000.0" in err

    def test_overflow_message(self, capsys):
        code, _, err = run(
            ["scan", "--k", "2+exp(1000*t)", "--r", "1", "--n", "3", "--t", "0:1", "--samples", "2"],
            capsys,
        )
        assert code == 2
        assert err.startswith("invalid profile on range:")

    @pytest.mark.parametrize("argv", OVERFLOWS, ids=OVERFLOW_IDS)
    def test_float_overflow_names_t(self, argv, capsys):
        _, _, err = run(argv, capsys)
        assert "float overflow" in err and "t=" in err

    def test_leaf_count_overflow(self, capsys):
        # a step whose leaf count would overflow is refused as a step, before counting
        code, out, err = run(["scan", "--k", "2", "--r", "1", "--n", "3", "--t", "0:1e308:1e-308"], capsys)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("t-range must be 'a:b'") and "--samples" in err

    def test_t_range_not_numbers_names_option(self, capsys):
        code, _, err = run(["scan", "--k", "2", "--r", "1", "--n", "3", "--t", "a:b"], capsys)
        assert code == 2
        assert err.startswith("--t ")

    @pytest.mark.parametrize("segments", ["0", "-3", "2"])
    def test_off_segments_below_three_write_no_mesh(self, segments, tmp_path, capsys):
        off_path = tmp_path / "m.off"
        code, out, err = run(
            ["generate", "--n", "2", "--K", "1", "--t", "0:0.01", "--off", str(off_path),
             "--off-segments", segments],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("--off-segments must be an integer >= 3")
        assert not off_path.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["scan", "--k", "cosh(1)", "--r", "sinh(1)", "--n", "3", "--t", "0:1",
             "--samples", "1000000", "--points-per-leaf", "1000000"],
            ["generate", "--K", "1", "--n", "3", "--t", "0:1:1e-300"],
            ["generate", "--K", "1", "--n", "3", "--t", "0:10000"],
            ["generate", "--K", "1", "--n", "3", "--t", "0:0.01", "--validate",
             "--samples", "100000000"],
            ["generate", "--K", "1", "--n", "2", "--t", "0:0.01", "--off", "never.off",
             "--off-segments", "100000000"],
        ],
        ids=["scan-huge-grid", "generate-tiny-step",
             "generate-long-range", "generate-huge-validation", "generate-huge-mesh"],
    )
    def test_row_cap_rejects_before_running(self, argv, no_run, capsys):
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert f"over the cap of {cli.MAX_ROWS} rows" in err

    @pytest.mark.parametrize("t_range, count", [("0:2.5:2e-6", "1250001"),
                                                ("0:1:0.9999999e-6", "1000002"),
                                                ("0:1:5e-324", "inf")])
    def test_row_cap_names_the_row_count(self, t_range, count, no_run, capsys):
        # the rows integrate_profile would store, as an integer while that count is finite
        code, out, err = run(["generate", "--n", "3", "--K", "1", "--t", t_range], capsys)
        assert (code, out) == (2, "")
        assert err == f"generate asks for {count} rows: over the cap of 1000000 rows\n"

    @pytest.mark.parametrize("t_value", [5, 0.5, ["0:1"], {"a": 1}])
    def test_non_string_t_in_config(self, t_value, tmp_path, capsys):
        config = tmp_path / "scan.json"
        config.write_text(json.dumps({"t": t_value}))
        code, out, err = run(
            ["scan", "--k", "cosh(1)", "--r", "sinh(1)", "--n", "3", "--config", str(config)],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1


class TestGenerate:
    def test_catenoid_with_validation(self, tmp_path, capsys):
        out_csv = str(tmp_path / "profile.csv")
        code, out, _ = run(
            ["generate", "--n", "3", "--H", "0", "--K", "1", "--r0", "1",
             "--t", "0:0.5", "--validate", "--out-csv", out_csv],
            capsys,
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["validated"] is True and summary["halted"] is None
        with open(out_csv) as handle:
            header = handle.readline().strip()
        assert header == "t,r,r1,k,k1,K_check"

    def test_negative_range_without_equals(self, tmp_path, capsys):
        outputs = []
        for t_flag in (["--t", "-0.01:0"], ["--t=-0.01:0"]):
            out_csv = tmp_path / "profile.csv"
            code, out, err = run(["generate", "--n", "3", "--K", "1", "--out-csv", str(out_csv)]
                                 + t_flag, capsys)
            assert code == 0 and err == ""
            outputs.append((out, out_csv.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_negative_center_rejected(self, capsys):
        code, _, err = run(["generate", "--n", "3", "--K", "-1", "--t", "0:0.5"], capsys)
        assert code == 2

    @pytest.mark.parametrize("K", ["-1", "0"])
    @pytest.mark.parametrize("r0", [[], ["--r0", "1e-7"]], ids=["r0-default", "r0-below-r-min"])
    def test_nonpositive_K_rejected_before_the_first_row(self, K, r0, capsys):
        # a start at R_MIN halts before any step, so cmc_rhs's own check never ran
        code, out, err = run(["generate", "--n", "3", "--K", K, "--t", "0:0.002"] + r0, capsys)
        assert code == 2
        assert out == ""
        assert err == f"integration rejected: K must be positive, got {float(K)}\n"

    def test_center_too_far_below_the_radius_is_rejected(self, capsys):
        # hypot(K, r) rounds to r: the first row's leaf would touch the boundary
        code, out, err = run(["generate", "--n", "2", "--K", "1e-9", "--r0", "1",
                              "--t", "0:0.002"], capsys)
        assert (code, out) == (2, "")
        assert err == "integration rejected: need k > r > 0 at t=0.0, got k=1.0, r=1.0\n"

    def test_radius_collapse_inside_a_step_halts_at_r_min(self, capsys):
        code, out, _ = run(["generate", "--n", "3", "--K", "1", "--r0", "1.5e-6", "--r1", "-1",
                            "--t", "0:0.01"], capsys)
        assert code == 3
        summary = json.loads(out)
        assert summary["halted"] == "r_min"
        assert summary["rows"] == 1

    def test_admissibility_halt_exit_three(self, capsys):
        code, out, _ = run(
            ["generate", "--signature", "lorentzian", "--n", "3", "--K", "1",
             "--r0", "1", "--r1", "-2", "--t", "0:2"],
            capsys,
        )
        assert code == 3
        summary = json.loads(out)
        assert "admissibility" in summary["halted"]

    def test_off_export_dimension_two(self, tmp_path, capsys):
        off_path = str(tmp_path / "surface.off")
        code, _, _ = run(
            ["generate", "--n", "2", "--H", "0.75", "--K", "1", "--t", "0:0.2",
             "--off", off_path, "--off-segments", "16"],
            capsys,
        )
        assert code == 0
        with open(off_path) as handle:
            lines = handle.read().splitlines()
        assert lines[0] == "OFF"
        n_vertices, n_faces, n_edges = map(int, lines[1].split())
        assert n_vertices == 201 * 16
        assert n_faces == 200 * 16
        assert n_edges == 0
        assert len(lines) == 2 + n_vertices + n_faces
        assert all(line.startswith("4 ") for line in lines[2 + n_vertices:])

    def test_off_requires_dimension_two(self, tmp_path, capsys):
        code, _, err = run(
            ["generate", "--n", "3", "--K", "1", "--t", "0:0.2",
             "--off", str(tmp_path / "x.off")],
            capsys,
        )
        assert code == 2
        assert "n = 2" in err

    def test_json_export(self, tmp_path, capsys):
        out_json = str(tmp_path / "profile.json")
        code, _, _ = run(
            ["generate", "--n", "3", "--K", "1", "--t", "0:0.1", "--out-json", out_json],
            capsys,
        )
        assert code == 0
        with open(out_json) as handle:
            payload = json.load(handle)
        assert payload["signature"] == "riemannian"
        assert len(payload["rows"]) == 101

    @pytest.mark.parametrize("t_range", ["0:2e-5:1e-6", "0:2e-6:1e-7", "0:1e-8:1e-8"])
    def test_small_steps_validate(self, t_range, capsys):
        # r'' of the interpolant comes from the stored r', whose rounding it divides
        # by the step once, not from r, whose rounding the quintic divides by it twice
        code, out, err = run(["generate", "--n", "3", "--K", "1", "--t", t_range, "--validate"],
                             capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)["validated"] is True

    def test_remainder_below_the_resolution_of_t_is_dropped(self, tmp_path, capsys):
        # ten 1e-3 steps leave a 9.3e-12 remainder, which t = 1e6 + 0.01 cannot take
        out_csv = tmp_path / "profile.csv"
        code, out, err = run(["generate", "--n", "3", "--K", "1", "--t", "1000000:1000000.01",
                              "--validate", "--out-csv", str(out_csv)], capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)["rows"] == 11
        with open(out_csv) as handle:
            ts = [float(row["t"]) for row in csv.DictReader(handle)]
        assert len(ts) == 11 and all(a < b for a, b in zip(ts, ts[1:]))


class TestConvert:
    def test_euclidean_to_hyperbolic(self, capsys):
        code, out, _ = run(["convert", "--k", "5", "--r", "3"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["K"] == pytest.approx(4.0)
        assert payload["R"] == pytest.approx(0.6931471805599453)

    def test_hyperbolic_to_euclidean(self, capsys):
        code, out, _ = run(["convert", "--K", "1", "--R", "1"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["k"] == pytest.approx(1.5430806348152437)
        assert payload["r"] == pytest.approx(1.1752011936438014)

    @pytest.mark.parametrize("r", ["1e-17", "1e-12"])
    def test_tiny_radius_keeps_R(self, r, capsys):
        # R = atanh(r/k) = r to double precision at k = 1
        code, out, _ = run(["convert", "--k", "1", "--r", r], capsys)
        assert code == 0
        assert json.loads(out)["R"] == float(r)

    def test_invalid_sphere(self, capsys):
        code, _, _ = run(["convert", "--k", "1", "--r", "2"], capsys)
        assert code == 2

    def test_requires_exactly_one_pair(self, capsys):
        code, _, _ = run(["convert", "--k", "5", "--K", "4"], capsys)
        assert code == 2


class TestHelp:
    @pytest.mark.parametrize("argv", [["--help"], ["-h"]])
    def test_command_list(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == 0 and err == ""
        assert all(command in out.split() for command in ("verify", "scan", "generate", "convert"))

    @pytest.mark.parametrize("command", ["verify", "scan", "generate", "convert"])
    def test_command_options(self, command, no_run, capsys):
        code, out, err = run([command, "--help"], capsys)
        assert code == 0 and err == ""
        options = cli._commands()[command][2]
        assert all("--" + name.replace("_", "-") in out.split() for name, *_ in options)
        assert "--config" in out.split()


class TestConfig:
    def test_config_file_supplies_values(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(
            {"k": "cosh(1)", "r": "sinh(1)", "n": 3, "t": "0:1", "samples": 6}
        ))
        code, out, _ = run(["scan", "--config", str(config)], capsys)
        assert code == 0
        assert json.loads(out)["leaves"] == 6

    def test_flags_override_config(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(
            {"k": "cosh(1)", "r": "sinh(1)", "n": 3, "t": "0:1", "samples": 6}
        ))
        code, out, _ = run(["scan", "--config", str(config), "--samples", "4"], capsys)
        assert code == 0
        assert json.loads(out)["leaves"] == 4

    def test_unknown_config_key(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"bogus": 1}))
        code, _, err = run(["verify", "--config", str(config)], capsys)
        assert code == 2
        assert "bogus" in err

    def test_missing_required_value(self, capsys):
        code = cli.main(["scan", "--k", "cosh(1)", "--r", "sinh(1)", "--n", "3"])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize(
        "argv, payload",
        [
            (["verify"], {"signature": "foo"}),
            (["scan", "--r", "1", "--n", "3", "--t", "0:1"], {"k": 5}),
            (["verify"], {"mutate": "c4"}),
            (["verify"], [1, 2]),
            (["generate", "--n", "3", "--K", "1", "--t", "0:0.01"], {"sign_branch": True}),
            (["verify"], {"config": "other.json"}),
            (["verify"], {"func": "cmd_scan"}),
            (["verify"], {"command": "scan"}),
            (["scan", "--k", "2", "--r", "1", "--t", "0:1"], {"n": 3.0}),
            (["scan", "--k", "2", "--r", "1", "--t", "0:1"], {"n": True}),
            (["scan", "--k", "2", "--r", "1", "--n", "3", "--t", "0:1"], {"samples": None}),
            (["generate", "--n", "3", "--t", "0:0.01"], {"K": 1e400}),
            (["generate", "--n", "3", "--K", "1", "--t", "0:0.01"], {"validate": "yes"}),
            (["generate", "--n", "3", "--K", "1", "--t", "0:0.01"], {"sign_branch": 1}),
            (["generate", "--n", "3", "--K", "1", "--t", "0:0.01"], {"out_csv": ""}),
        ],
        ids=["verify-signature", "scan-k-number", "verify-mutate-c4", "json-list",
             "generate-sign-branch-bool", "key-config", "key-func", "key-command",
             "scan-n-float", "scan-n-bool", "scan-samples-null", "generate-K-inf",
             "generate-validate-string", "generate-sign-branch", "generate-out-csv-empty"],
    )
    def test_bad_config_exit_two_with_one_line(self, argv, payload, tmp_path, capsys):
        code, out, err = run_with_config(argv, payload, tmp_path, capsys)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        if isinstance(payload, dict) and set(payload) <= {"config", "func", "command"}:
            assert "unknown config key" in err

    @pytest.mark.parametrize(
        "argv, payload, key, expected",
        [
            (["generate", "--n", "3", "--K", "1", "--t", "0:0.01"], {"validate": True},
             "validated", True),
            (["scan", "--k", "2", "--r", "1", "--n", "3", "--t", "0:1", "--samples", "2"],
             {"points_per_leaf": 2}, "points_per_leaf", 2),
            (["generate", "--n", "3", "--t", "0:0.01"], {"K": 1}, "K", 1.0),
            (["convert"], {"k": 5, "r": 3}, "K", 4.0),
            (["verify"], {"signature": "lorentzian"}, "signature", "lorentzian"),
        ],
        ids=["generate-validate", "scan-points-per-leaf", "generate-K", "convert", "verify"],
    )
    def test_config_value_is_used(self, argv, payload, key, expected, tmp_path, capsys):
        code, out, _ = run_with_config(argv, payload, tmp_path, capsys)
        assert code == 0
        summary = json.loads(out)
        summary = summary[0] if isinstance(summary, list) else summary
        assert summary[key] == expected and type(summary[key]) is type(expected)

    def test_config_real_echoes_like_its_flag(self, tmp_path, capsys):
        argv = ["generate", "--n", "3", "--t", "0:0.01"]
        _, from_flag, _ = run(argv + ["--K", "1"], capsys)
        _, from_config, _ = run_with_config(argv, {"K": 1}, tmp_path, capsys)
        assert from_config == from_flag and '"K": 1.0' in from_config

    def test_config_off_segments(self, tmp_path, capsys):
        off_path = tmp_path / "m.off"
        code, _, _ = run_with_config(
            ["generate", "--n", "2", "--K", "1", "--t", "0:0.01", "--off", str(off_path)],
            {"off_segments": 5}, tmp_path, capsys,
        )
        assert code == 0
        assert off_path.read_text().splitlines()[1] == f"{11 * 5} {10 * 5} 0"


def _no_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


UNSET = object()  # the option is neither a flag nor in the config file

# (good, bad) value pools per option.  Bad values are wrong JSON types, bools,
# NaN/inf, out-of-range numbers, missing required options, "-h" (a value after
# its flag, never a request for help), an expression nested past Python's
# recursion limit and requests the row cap must refuse.
# Good t-ranges include one that starts with "-", and the good k and r
# include a pair whose kernels overflow to NaN.  Spans and grids stay small so
# that every accepted run is quick; a valid --mutate (exit 1 by design) and file
# outputs are left out.
FUZZ_POOLS = {
    "verify": {
        "signature": (["riemannian", "lorentzian", "both", UNSET], ["foo", 1, True, None, "-h"]),
        "mutate": ([UNSET], ["c4", "", 3, True, ["c1"]]),
    },
    "scan": {
        "k": (["cosh(1)", "2+0.1*t", "2", "10^100*(1+t)"],
              ["cosh(", "1", 5, None, "-h", "10^200*10^200", "(" * 2000 + "t+2" + ")" * 2000,
               UNSET]),
        "r": (["sinh(1)", "1", "0.5+0.1*t", "5*10^99"], ["0", 2, True, UNSET]),
        "n": ([2, 3, "3", 10**9], [0, 1.5, True, "x", UNSET]),
        "signature": (["riemannian", "lorentzian", UNSET], ["both", 0]),
        "t": (["0:0.5", "0:0", "1:0", "-0.5:0"],
              ["1e308:-1e308", "0:1:0.25", "0:1:1e-9", "0:1:1e-300", "nan:1", 5, ["0:1"], "a:b",
               UNSET]),
        "samples": ([2, "3", UNSET], [0, -1, True, 1.5, 10**12]),
        "points_per_leaf": ([1, "2", UNSET], [0, True, 10**9]),
        "cmc_tol": ([1e-6, "1e-3", UNSET], ["nan", float("inf"), True, "abc", 10**400, -1, 0]),
    },
    "generate": {
        "n": ([2, 3, "4"], [1, True, 2.0, 10**9, UNSET]),
        "H": ([0, "0.5", -0.3, "2", UNSET], ["inf", float("nan"), False]),
        "K": ([1, "1.5", "0.001"], [-1, 0, "nan", None, 10**400, UNSET]),
        "r0": ([1, "0.8", "0.0001", UNSET], [0, -1, True]),
        "r1": ([0, "0.3", "0.5", UNSET], ["x", float("-inf")]),
        "t": (["0:0.01", "0:0.02:0.005", "-0.01:0"],
              ["0:0", "0:1:0.5", "1e308:-1e308", "0:1:1e-300", "0:10000", 0.5, "-h", UNSET]),
        "signature": (["riemannian", "lorentzian", UNSET], ["both"]),
        "sign_branch": ([UNSET], [-1, 1, "+1", 0, True, "x"]),  # no longer an option
        "validate": ([True, False, UNSET], ["yes", 1]),
        "samples": ([2, "5", UNSET], [0, True, 10**8]),
        "off_segments": ([3, 16, UNSET], [2, True, 10**9]),
    },
    "convert": {
        "k": ([5, "5"], [1, "nan", True, None, "1.7e308", 1e-320, UNSET]),
        "r": ([3, "3"], [0, float("inf"), "x", 1e308, "5e-321", UNSET]),
        "K": ([UNSET], [1, "1", -1, True, 10**400, "1e306"]),
        "R": ([UNSET], [1, "0.5", 0, "inf", [], 10]),
    },
}
FUZZ_KEYS = ["bogus", "config", "func", "command", "points-per-leaf"]
# argv tails the reader must refuse: an unknown flag, prefixes of table names,
# flags without their value, a switch given a value, a stray positional
FUZZ_FLAGS = [["--bogus", "1"], ["--signat", "riemannian"], ["--samp", "3"], ["--n"],
              ["--config"], ["--validate=1"], ["3"]]
FUZZ_FILES = ["[1, 2]", "null", "3", '"scan"', "{", ""]


@st.composite
def cli_inputs(draw):
    """A subcommand, its argv flags and the text of its --config file (or None).

    At most two options (or the config file as a whole) take a bad value, so
    that accepted runs stay common."""
    command = draw(st.sampled_from(sorted(FUZZ_POOLS)))
    pools = FUZZ_POOLS[command]
    faulty = draw(st.sets(st.sampled_from(sorted(pools) + ["<key>", "<file>", "<argv>"]),
                          max_size=2))
    argv, config = [command], {}
    for name, (good, bad) in pools.items():
        value = draw(st.sampled_from(bad if name in faulty else good))
        flag = "--" + name.replace("_", "-")
        if value is UNSET:
            continue
        form = draw(st.sampled_from(["--name=value", "--name value", "config"]))
        if form != "config" and type(value) in (str, int, float):
            argv += [f"{flag}={value}"] if form == "--name=value" else [flag, str(value)]
        elif draw(st.booleans()) and value is True and name == "validate":
            argv.append(flag)
        else:
            config[name] = value
    if "<argv>" in faulty:
        argv += draw(st.sampled_from(FUZZ_FLAGS))
    if "<key>" in faulty:
        config[draw(st.sampled_from(FUZZ_KEYS))] = 1
    if "<file>" in faulty:
        return argv, draw(st.sampled_from(FUZZ_FILES))
    return argv, json.dumps(config) if config else None


class TestFuzz:
    @settings(max_examples=150, deadline=None)
    @given(inputs=cli_inputs())
    @example(inputs=(OVERFLOWS[-1], None))
    def test_every_input_ends_documented(self, tmp_path_factory, inputs):
        argv, config_text = inputs
        if config_text is not None:
            path = tmp_path_factory.getbasetemp() / "fuzz.json"
            path.write_text(config_text)
            argv = argv[:1] + ["--config", str(path)] + argv[1:]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, 2, 3), (argv, config_text, err.getvalue())
        assert "Traceback" not in err.getvalue()
        assert len(err.getvalue().splitlines()) <= 1, (argv, config_text, err.getvalue())
        if out.getvalue():
            json.loads(out.getvalue(), parse_constant=_no_constant)


# name -> (argv, output files the run writes); every run exits 0
GOLDEN_RUNS = {
    "scan-drift-n4": (["scan", "--k", "3 + 0.3*t + 0.1*t^2", "--r", "1 - 0.1*t^2", "--n", "4",
                       "--t", "0:1", "--samples", "20"], ("out-csv", "out-json")),
    "scan-cylinder": (["scan", "--k", "cosh(0.8)", "--r", "sinh(0.8)", "--n", "3",
                       "--t", "0:1", "--samples", "10"], ("out-csv", "out-json")),
    "scan-lorentzian-nested": (["scan", "--signature", "lorentzian",
                                "--k", "3 + 0.2*sin(1.3*t)*exp(0.1*t)",
                                "--r", "1 + 3.4*t + 0.1*cos(sqrt(1 + 1.2*t^2))", "--n", "3",
                                "--t", "0:0.25", "--samples", "20"], ("out-csv", "out-json")),
    "generate-validate-riemannian": (["generate", "--n", "3", "--K", "1.2", "--r0", "0.9",
                                      "--r1", "0.2", "--H", "-0.3", "--t", "0:0.06:1e-3",
                                      "--validate"], ("out-csv", "out-json")),
    "generate-validate-lorentzian": (["generate", "--signature", "lorentzian", "--n", "4",
                                      "--K", "1", "--r0", "1", "--r1", "1.9", "--H", "-0.2",
                                      "--t", "0:0.06:1e-3", "--validate"],
                                     ("out-csv", "out-json")),
    "generate-off-n2": (["generate", "--n", "2", "--H", "0.75", "--K", "1", "--t", "0:0.05",
                         "--off-segments", "7"], ("off",)),
}

# SHA-256 of stdout and then each output file, recorded with the plain per-point
# and per-step code, which the current code must match bit for bit.
GOLDEN_OUTPUTS = {
    "scan-drift-n4": "de95346343cfe6f492e8f2291194ffd4b4fbd5305e9984091cfc5a934d373088",
    "scan-cylinder": "28e7a683c9cf707bfbdefcadb12930ea17c504953738b8fa4524ee8f8b428513",
    "scan-lorentzian-nested": "a2aee1df67b65472e4bff17d5cc3f23a3a046cfa388c5cefea0f31d2edb2efa0",
    "generate-validate-riemannian": "0dd53b5e6d72db6ed4396658404b6f68ac21d9c3e78628bd662d822abb1a5655",
    "generate-validate-lorentzian": "e42ee6a5a3413dab960a7c8b7ffb2f77ac9904a5339d7e332d38d0aaded0ee5d",
    "generate-off-n2": "c6b5d92db4114d6f7bf75c42498a121bbfd18178824519afda0a47b10958d498",
}


class TestGoldenOutputs:
    @pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
    def test_outputs_are_bit_identical(self, name, tmp_path, capsys):
        argv, outputs = GOLDEN_RUNS[name]
        paths = [tmp_path / f"out.{flag}" for flag in outputs]
        for flag, path in zip(outputs, paths):
            argv = argv + [f"--{flag}", str(path)]
        code, out, err = run(argv, capsys)
        assert code == 0 and err == ""
        digest = hashlib.sha256(out.encode())
        for path in paths:
            digest.update(b"\0" + path.read_bytes())
        assert digest.hexdigest() == GOLDEN_OUTPUTS[name]


class TestDeterminism:
    def test_scan_output_is_reproducible(self, tmp_path, capsys):
        paths = [str(tmp_path / name) for name in ("a.csv", "b.csv")]
        for path in paths:
            code, _, _ = run(
                ["scan", "--k", "cosh(1)", "--r", "sinh(1)", "--n", "3",
                 "--t", "0:1", "--samples", "7", "--out-csv", path],
                capsys,
            )
            assert code == 0
        with open(paths[0]) as a, open(paths[1]) as b:
            assert a.read() == b.read()


class TestModuleEntry:
    def test_python_dash_m(self):
        # the child finds the package where this process imported it from
        package_root = os.path.dirname(os.path.dirname(cli.__file__))
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "folicurve", "convert", "--k", "5", "--r", "3"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["K"] == pytest.approx(4.0)


class TestClosedStdout:
    @pytest.mark.parametrize(
        "argv, code",
        [
            (["verify"], 0),
            (["verify", "--mutate", "c1"], 1),
            (["scan", "--signature", "lorentzian", "--k", "cosh(1)", "--r", "sinh(1)",
              "--n", "3", "--t", "0:1", "--samples", "3"], 3),
            (["--help"], 0),
        ],
    )
    def test_exit_code_stands(self, argv, code):
        # stdout is a pipe whose reader is gone, as for `folicurve ... | head -0`
        package_root = os.path.dirname(os.path.dirname(cli.__file__))
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-X", "dev", "-m", "folicurve", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                env={**os.environ, "PYTHONPATH": path},
            )
        finally:
            os.close(write_end)
        assert result.returncode == code
        assert "Broken pipe" not in result.stderr
        assert "Exception ignored" not in result.stderr
