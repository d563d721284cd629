"""Exit-code contract and output formats of the command-line front door."""

import csv
import json
import os
import subprocess
import sys

import pytest

from folicurve import cli


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        code, out, _ = run(
            ["scan", "--signature", "lorentzian", "--k", "cosh(1)", "--r", "sinh(1)",
             "--n", "3", "--t", "0:1", "--samples", "5"],
            capsys,
        )
        assert code == 3
        assert json.loads(out)["spacelike_fraction"] == 0.0

    def test_parse_error_exit_two(self, capsys):
        code, _, err = run(
            ["scan", "--k", "cosh(", "--r", "1", "--n", "3", "--t", "0:1"], capsys
        )
        assert code == 2
        assert "offset 5" in err

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
        code, out, _ = run(
            ["scan", "--k", "cosh(1)", "--r", "sinh(1)", "--n", "2", "--t", "0:1:0.25"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["leaves"] == 5


class TestTimeRange:
    @pytest.mark.parametrize(
        "argv",
        [["scan", "--k", "cosh(1)", "--r", "sinh(1)", "--n", "3"],
         ["generate", "--K", "1", "--n", "3"]],
        ids=["scan", "generate"],
    )
    @pytest.mark.parametrize("t_range", ["0:1:-0.1", "0:1:nan", "0:1:0", "0:1:inf", "0:inf", "nan:1"])
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


class TestBadInput:
    SCAN = ["scan", "--k", "cosh(1)", "--r", "sinh(1)", "--t", "0:1"]
    GENERATE = ["generate", "--K", "1", "--t", "0:0.1"]

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
        ],
        ids=[
            "scan-samples-negative", "scan-samples-zero", "scan-ppl-zero", "scan-ppl-negative",
            "scan-n0", "scan-n1", "generate-samples-zero", "generate-samples-negative",
            "generate-n0", "generate-n1", "generate-K-nan", "generate-H-inf",
            "convert-k-nan", "convert-R-inf", "scan-large-center", "scan-overflow",
            "scan-degenerate-normal",
        ],
    )
    def test_exit_two_with_one_line(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err

    def test_overflow_message(self, capsys):
        code, _, err = run(
            ["scan", "--k", "2+exp(1000*t)", "--r", "1", "--n", "3", "--t", "0:1", "--samples", "2"],
            capsys,
        )
        assert code == 2
        assert err.startswith("invalid profile on range:")

    def test_leaf_count_overflow(self, capsys):
        code, out, err = run(["scan", "--k", "2", "--r", "1", "--n", "3", "--t", "0:1e308:1e-308"], capsys)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("t-range step 1e-308 is too small")

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

    def test_negative_center_rejected(self, capsys):
        code, _, err = run(["generate", "--n", "3", "--K", "-1", "--t", "0:0.5"], capsys)
        assert code == 2

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

    def test_invalid_sphere(self, capsys):
        code, _, _ = run(["convert", "--k", "1", "--r", "2"], capsys)
        assert code == 2

    def test_requires_exactly_one_pair(self, capsys):
        code, _, _ = run(["convert", "--k", "5", "--K", "4"], capsys)
        assert code == 2


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
