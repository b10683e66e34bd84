"""End-to-end tests of the command-line interface (driven in-process)."""

import json

import numpy as np
import pytest

from entscan import generate
from entscan.cli import load_matrix_file, main, save_matrix_file


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


class TestAnalyze:
    def test_bell_is_certified(self, capsys):
        code, report, _ = run_json(capsys, "analyze", "bell:psi-")
        assert code == 3
        assert report["verdict"] == "ENTANGLED_CERTIFIED"
        assert abs(report["measure_e"] - 0.5) < 1e-9
        assert abs(report["negativity_per_subsystem"][0] - 0.5) < 1e-9
        assert "rA,cA" in report["scan"]["violations"]
        assert "cA,rB" in report["scan"]["violations"]

    def test_maximally_mixed_undetected(self, capsys):
        code, report, _ = run_json(capsys, "analyze", "maxmixed:2x2")
        assert code == 0
        assert report["verdict"] == "UNDETECTED"
        assert report["measure_e"] == 0.0

    def test_human_format_mentions_verdict(self, capsys):
        code, out, _ = run(capsys, "analyze", "werner:0.8")
        assert code == 3
        assert "verdict: ENTANGLED_CERTIFIED" in out

    def test_single_subsystem_input(self, capsys):
        code, report, _ = run_json(capsys, "analyze", "maxmixed:4")
        assert code == 0
        assert report["ppt"]["results"] == []
        assert report["realignment"]["applicable"] is False

    def test_no_dedupe_lists_all_subsets(self, capsys):
        _, report, _ = run_json(capsys, "analyze", "bell:phi+", "--no-dedupe")
        assert report["scan"]["subsets_evaluated"] == 16

    def test_unnormalized_file_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad_trace.json"
        rho = generate("maxmixed:2x2")
        save_matrix_file(str(path), rho)
        data = json.loads(path.read_text())
        data["matrix"] = [[[0.9 * v[0], 0.9 * v[1]] for v in row] for row in data["matrix"]]
        path.write_text(json.dumps(data))
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 1
        assert "trace" in err
        # --normalize only covers deviations up to 1e-3, so 0.9 still fails
        code, _, err = run(capsys, "analyze", str(path), "--normalize")
        assert code == 1
        assert "auto-normalize" in err

    def test_normalize_fixes_small_deviation(self, capsys, tmp_path):
        path = tmp_path / "slight.json"
        rho = generate("maxmixed:2x2")
        scale = 1 + 5e-4
        data = {
            "dims": [2, 2],
            "matrix": [[[scale * v.real, scale * v.imag] for v in row] for row in rho.mat],
        }
        path.write_text(json.dumps(data))
        assert run(capsys, "analyze", str(path))[0] == 1
        assert run(capsys, "analyze", str(path), "--normalize")[0] == 0

    def test_check_psd_flag(self, capsys, tmp_path):
        path = tmp_path / "indefinite.json"
        mat = np.diag([0.6, 0.5, -0.1, 0.0])
        data = {"dims": [2, 2], "matrix": [[[v.real, v.imag] for v in row] for row in mat.astype(complex)]}
        path.write_text(json.dumps(data))
        # not a state, so never certified, with or without the flag
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 1
        assert "positive semidefinite" in err
        code, _, err = run(capsys, "analyze", str(path), "--check-psd")
        assert code == 1
        assert "positive semidefinite" in err

    def test_indefinite_single_qubit_is_not_certified(self, capsys, tmp_path):
        # Hermitian with unit trace, eigenvalues 1.5 and -0.5
        path = tmp_path / "indefinite_qubit.json"
        path.write_text('{"dims":[2],"matrix":[[[1.5,0],[0,0]],[[0,0],[-0.5,0]]]}')
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 1
        assert out == ""
        assert "-0.5" in err and "not a state" in err

    def test_bad_spec_and_missing_file(self, capsys):
        code, _, err = run(capsys, "analyze", "nosuchfamily:1")
        assert code == 1
        assert "neither an existing file nor a state spec" in err

    def test_malformed_json_diagnostics(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"dims": [2, 2], "matrix": [[')
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 1
        assert "line" in err and "column" in err

    def test_schema_diagnostics_name_the_field(self, capsys, tmp_path):
        path = tmp_path / "badcell.json"
        rho = generate("maxmixed:2x2")
        data = json.loads(json.dumps({
            "dims": [2, 2],
            "matrix": [[[v.real, v.imag] for v in row] for row in rho.mat],
        }))
        data["matrix"][1][2] = [0.1]  # not a [re, im] pair
        path.write_text(json.dumps(data))
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 1
        assert "matrix[1][2]" in err

    @pytest.mark.parametrize(
        "dims, first_cell, field",
        [([True, 2], [1.0, 0.0], "'dims'"), ([2], [True, False], "matrix[0][0]")],
    )
    def test_booleans_are_not_numbers(self, capsys, tmp_path, dims, first_cell, field):
        # read as numbers, both files would be the valid state |0><0|
        path = tmp_path / "bools.json"
        matrix = [[first_cell, [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        path.write_text(json.dumps({"dims": dims, "matrix": matrix}))
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 1
        assert field in err


class TestNorms:
    def test_realignment_subset(self, capsys):
        code, report, _ = run_json(capsys, "norms", "bell:psi-", "cA,rB")
        assert code == 0
        assert abs(report["trace_norm"] - 2.0) < 1e-9
        assert report["shape"] == [4, 4]

    def test_empty_subset(self, capsys):
        code, report, _ = run_json(capsys, "norms", "bell:psi-", "")
        assert code == 0
        assert abs(report["trace_norm"] - 1.0) < 1e-9

    def test_global_transpose_subset(self, capsys):
        code, report, _ = run_json(capsys, "norms", "werner:0.9", "rA,cA,rB,cB")
        assert code == 0
        assert abs(report["trace_norm"] - 1.0) < 1e-9

    def test_unknown_label_exits_1(self, capsys):
        code, _, err = run(capsys, "norms", "bell:psi-", "rC")
        assert code == 1
        assert "subsystem" in err

    @pytest.mark.parametrize("labels", ["r\u00df", "c\ufb01"])
    def test_non_ascii_label_exits_1(self, capsys, labels):
        # upper-cased, these letters become two characters ("SS", "FI")
        code, out, err = run(capsys, "norms", "bell:psi-", labels)
        assert code == 1
        assert out == ""
        assert "unknown label" in err


class TestScanFamily:
    def test_werner_threshold(self, capsys):
        code, report, _ = run_json(
            capsys, "scan-family", "werner", "--min", "0", "--max", "1"
        )
        assert code == 0
        assert abs(report["threshold"] - 1 / 3) < 1e-6
        assert report["first_violating_labels"] == "rA,cA"

    def test_isotropic_threshold(self, capsys):
        code, report, _ = run_json(
            capsys, "scan-family", "isotropic:3", "--min", "0", "--max", "1"
        )
        assert code == 0
        assert abs(report["threshold"] - 1 / 3) < 1e-6

    def test_bound_entangled_2x4_has_no_threshold(self, capsys):
        code, report, _ = run_json(
            capsys, "scan-family", "horodecki2x4", "--min", "0.05", "--max", "0.95",
            "--grid", "10",
        )
        assert code == 0
        assert report["threshold"] is None
        assert "no threshold in range" in report["message"]
        assert all(not row["violating"] for row in report["grid"])

    def test_family_without_free_parameter_rejected(self, capsys):
        code, _, err = run(capsys, "scan-family", "ghz", "--min", "0", "--max", "1")
        assert code == 1
        assert "cannot be swept" in err

    def test_missing_fixed_parameter_rejected(self, capsys):
        code, _, err = run(capsys, "scan-family", "isotropic", "--min", "0", "--max", "1")
        assert code == 1
        assert "isotropic needs 1 fixed parameter(s) before the swept one, got 0" in err

    def test_bad_range_rejected(self, capsys):
        code, _, err = run(capsys, "scan-family", "werner", "--min", "1", "--max", "0")
        assert code == 1
        assert "min < max" in err


class TestGenerate:
    def test_ghz_file(self, capsys, tmp_path):
        path = tmp_path / "ghz.json"
        code, out, _ = run(capsys, "generate", "ghz:3", str(path))
        assert code == 0
        assert "8x8" in out
        mat, dims, name, _ = load_matrix_file(str(path))
        assert dims == (2, 2, 2)
        assert name == "ghz:3"
        assert np.array_equal(mat, generate("ghz:3").mat)

    def test_bad_spec_exits_1(self, capsys, tmp_path):
        code, _, err = run(capsys, "generate", "werner:2.0", str(tmp_path / "x.json"))
        assert code == 1
        assert "[0, 1]" in err

    def test_round_trip_preserves_entries_exactly(self, capsys, tmp_path):
        path = tmp_path / "sep.json"
        assert run(capsys, "generate", "sepmix:2x3,4,13", str(path))[0] == 0
        mat, dims, _, _ = load_matrix_file(str(path))
        assert np.array_equal(mat, generate("sepmix:2x3,4,13").mat)

    def test_generate_then_analyze_matches_in_memory_report(self, capsys, tmp_path):
        path = tmp_path / "werner.json"
        assert run(capsys, "generate", "werner:0.2", str(path))[0] == 0
        code_file, out_file, _ = run(capsys, "analyze", str(path), "--format", "json")
        code_spec, out_spec, _ = run(capsys, "analyze", "werner:0.2", "--format", "json")
        assert code_file == code_spec == 0
        assert out_file == out_spec  # byte-for-byte


class TestDeterminism:
    @pytest.mark.parametrize("fmt", ["human", "json"])
    def test_repeated_runs_are_byte_identical(self, capsys, fmt):
        first = run(capsys, "analyze", "randomdm:2x3,6,99", "--format", fmt)
        second = run(capsys, "analyze", "randomdm:2x3,6,99", "--format", fmt)
        assert first == second

    def test_repeated_ghz_reports_are_byte_identical(self, capsys):
        first = run(capsys, "analyze", "ghz:3", "--format", "json")
        second = run(capsys, "analyze", "ghz:3", "--format", "json")
        assert first == second


class TestArgumentHandling:
    def test_missing_subcommand_exits_1(self, capsys):
        assert main([]) == 1
        capsys.readouterr()

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "analyze" in out and "scan-family" in out

    def test_seed_flag_fills_missing_seed(self, capsys):
        _, with_flag, _ = run_json(capsys, "analyze", "sepmix:2x2,3", "--seed", "5")
        _, explicit, _ = run_json(capsys, "analyze", "sepmix:2x2,3,5")
        assert with_flag == explicit
        assert with_flag["input"]["name"] == "sepmix:2x2,3,5"

    def test_max_n_limit_is_enforced(self, capsys):
        code, _, err = run(capsys, "analyze", "ghz:3", "--max-n", "2")
        assert code == 1
        assert "scan limit" in err
