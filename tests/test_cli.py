"""End-to-end tests of the command-line interface (driven in-process)."""

import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import entscan
from entscan import DensityMatrix, InvalidInputError, cli, generate, ghz_state, states
from entscan.cli import PARAM_TOL, load_matrix_file, main, save_matrix_file

from golden import assert_same_up_to_float_noise
from reference import NEAR_PRODUCT_CASES, near_product


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

    def test_report_lists_only_the_tolerances_that_act(self, capsys):
        _, report, _ = run_json(capsys, "analyze", "bell:psi-")
        assert set(report["tolerances"]) == {
            "hermiticity_tol", "trace_tol", "norm_tol",
        }
        _, out, _ = run(capsys, "analyze", "bell:psi-")
        assert "tolerances: norm_tol 1e-09  trace_tol 1e-10" in out.splitlines()

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

    def test_small_trace_deviation_is_refused(self, capsys, tmp_path):
        path = tmp_path / "slight.json"
        rho = generate("maxmixed:2x2")
        scale = 1 + 5e-4
        data = {
            "dims": [2, 2],
            "matrix": [[[scale * v.real, scale * v.imag] for v in row] for row in rho.mat],
        }
        path.write_text(json.dumps(data))
        assert run(capsys, "analyze", str(path))[0] == 1

    def test_matrix_that_is_not_psd_exits_1(self, capsys, tmp_path):
        path = tmp_path / "indefinite.json"
        mat = np.diag([0.6, 0.5, -0.1, 0.0])
        data = {"dims": [2, 2], "matrix": [[[v.real, v.imag] for v in row] for row in mat.astype(complex)]}
        path.write_text(json.dumps(data))
        # not a state, so never certified, nor given a norm
        for command, *labels in (["analyze"], ["norms", ""], ["norms", "rA,cA"]):
            code, _, err = run(capsys, command, str(path), *labels)
            assert code == 1
            assert "positive semidefinite" in err

    @staticmethod
    def _diag_file(tmp_path, negative):
        # diagonal with unit trace and one eigenvalue -negative: passes
        # validation, trace norm 1 + 2 * negative
        path = tmp_path / "diag.json"
        diag = [0.5 + negative / 2, 0.5 + negative / 2, 0.0, -negative]
        cells = [[[v if i == j else 0.0, 0.0] for j in range(4)] for i, v in enumerate(diag)]
        path.write_text(json.dumps({"dims": [2, 2], "matrix": cells}))
        return str(path)

    def test_trace_norm_above_the_slack_is_not_a_state(self, capsys, tmp_path):
        # trace norms 1 + 2e-9 and 1 + 1.5e-9, both above 1 + NORM_TOL
        for negative in (1e-9, 0.75e-9):
            code, out, err = run(capsys, "analyze", self._diag_file(tmp_path, negative))
            assert code == 1
            assert out == ""
            assert "not positive semidefinite" in err and "not a state" in err

    def test_trace_norm_within_the_slack_is_undetected(self, capsys, tmp_path):
        code, out, _ = run(capsys, "analyze", self._diag_file(tmp_path, 4e-10))
        assert code == 0
        assert "verdict: UNDETECTED" in out

    @pytest.mark.parametrize("d, eps", NEAR_PRODUCT_CASES)
    def test_admitted_negativity_is_undetected(self, capsys, tmp_path, d, eps):
        # min eig -eps passes; the PSD part is the product state |00><00|
        path = tmp_path / "near.json"
        cells = [[[v, 0.0] for v in row] for row in near_product(d, eps).tolist()]
        path.write_text(json.dumps({"dims": [d, d], "matrix": cells}))
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 0
        assert err == ""
        assert "verdict: UNDETECTED" in out

    def test_anti_hermitian_part_is_reported_and_dropped(self, capsys, tmp_path):
        # the scan runs on (m + m^dag) / 2; the input's residual is reported
        rng = np.random.default_rng(5)
        noise = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        noisy = generate("randomdm:2x2x2,8,5").mat + 0.5e-12 * (noise - noise.conj().T)
        herm = (noisy + noisy.conj().T) / 2
        reports = []
        for name, mat in (("noisy", noisy), ("herm", herm)):
            path = tmp_path / f"{name}.json"
            cells = [[[v.real, v.imag] for v in row] for row in mat]
            path.write_text(json.dumps({"dims": [2, 2, 2], "matrix": cells}))
            code, report, _ = run_json(capsys, "analyze", str(path))
            assert code == 3
            reports.append(report)
        noisy_report, herm_report = reports
        assert noisy_report["input"]["hermiticity_residual"] == float(
            np.abs(noisy - noisy.conj().T).max()
        ) > 1e-13
        assert herm_report["input"]["hermiticity_residual"] == 0.0
        assert noisy_report["scan"] == herm_report["scan"]
        assert noisy_report["verdict"] == herm_report["verdict"]

    @staticmethod
    def _singlet_file(tmp_path, corner, opposite):
        # the singlet with m[0][3] = corner and m[3][0] = opposite
        cells = [[[v.real, v.imag] for v in row] for row in generate("bell:psi-").mat]
        cells[0][3], cells[3][0] = [corner, 0.0], [opposite, 0.0]
        path = tmp_path / "singlet.json"
        path.write_text(json.dumps({"dims": [2, 2], "matrix": cells}))
        return str(path), np.array(cells).view(complex)[..., 0]

    def test_an_overflowing_anti_hermitian_pair_is_refused(self, capsys, tmp_path):
        # the matrix's Frobenius norm overflows to inf: a tolerance scaled
        # by it admitted this file, and analyze certified it
        path, mat = self._singlet_file(tmp_path, 1e200, -1e200)
        code, out, err = run(capsys, "analyze", path)
        assert (code, out) == (1, "")
        assert "not Hermitian: max |m - m^dag| = 2.000e+200 > 1.000e-10" in err
        with pytest.raises(InvalidInputError, match="not Hermitian"):
            DensityMatrix(mat, (2, 2))

    def test_an_overflowing_hermitian_pair_exits_1_without_a_warning(self, tmp_path):
        # in a subprocess, where a warning reaches stderr instead of pytest
        path, _ = self._singlet_file(tmp_path, 1e160, 1e160)
        proc = subprocess.run(
            [sys.executable, "-m", "entscan.cli", "analyze", path], env=_subprocess_env(),
            capture_output=True, text=True, timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert "RuntimeWarning" not in proc.stderr
        assert proc.stderr.startswith("entscan: error: input is not positive semidefinite")
        assert proc.stderr.count("\n") == 1

    def test_oversized_spec_exits_1_before_allocating(self, capsys):
        code, out, err = run(capsys, "analyze", "ghz:40")
        assert code == 1
        assert out == ""
        assert "dimension limit" in err

    def test_memory_error_exits_2(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "generate", exhausted)
        code, out, err = run(capsys, "analyze", "bell:psi-")
        assert code == 2
        assert out == ""
        assert "out of memory" in err

    def test_indefinite_single_qubit_is_not_certified(self, capsys, tmp_path):
        # Hermitian with unit trace, eigenvalues 1.5 and -0.5
        path = tmp_path / "indefinite_qubit.json"
        path.write_text('{"dims":[2],"matrix":[[[1.5,0],[0,0]],[[0,0],[-0.5,0]]]}')
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 1
        assert out == ""
        assert "-0.5" in err and "not a state" in err

    def test_eigensolver_failure_exits_2(self, capsys, monkeypatch):
        def fails(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fails)
        code, out, err = run(capsys, "analyze", "bell:psi-")
        assert code == 2
        assert out == ""
        assert "eigensolver did not converge" in err

    def test_report_calls_the_criteria_on_its_one_scan(self, capsys, monkeypatch):
        # a tracer times PPT and realignment by wrapping these two names in
        # cli's namespace; the report must go through them, once each
        plain = run(capsys, "analyze", "ghz:3", "--format", "json")
        calls = []

        def counted(fn):
            def wrapper(scan):
                calls.append((fn.__name__, scan))
                return fn(scan)
            return wrapper

        for name in ("ppt_criterion", "realignment_criterion"):
            monkeypatch.setattr(cli, name, counted(getattr(cli, name)))
        assert run(capsys, "analyze", "ghz:3", "--format", "json") == plain
        assert sorted(name for name, _ in calls) == ["ppt_criterion", "realignment_criterion"]
        assert all(isinstance(scan, entscan.CriterionReport) for _, scan in calls)

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
        [([True, 2], [1.0, 0.0], "'dims'"), ([2], [True, False], "matrix[0][0]"),
         ([2], ["1.5", 0], "matrix[0][0]"), ([2], [True, 0.0], "matrix[0][0]"),
         ([2], [0.0, True], "matrix[0][0]")],
    )
    def test_booleans_are_not_numbers(self, capsys, tmp_path, dims, first_cell, field):
        # read as numbers, the bool files would be the valid state |0><0|;
        # np.array(..., dtype=float) reads true and "1.5" as numbers too
        path = tmp_path / "bools.json"
        matrix = [[first_cell, [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        path.write_text(json.dumps({"dims": dims, "matrix": matrix}))
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 1
        assert field in err

    @pytest.mark.parametrize(
        "content, message",
        [
            # over the double range: numpy raises OverflowError
            (b'{"dims":[1],"matrix":[[[1' + b"0" * 400 + b',0]]]}',
             "field 'matrix' holds a number too large for a double"),
            # over Python's 4300-digit limit on int(): json raises ValueError
            (b'{"dims":[1],"matrix":[[[1' + b"0" * 5000 + b',0]]]}', "unreadable JSON"),
            (b'{"name":"\xff","dims":[1],"matrix":[[[1,0]]]}', "can't decode"),
            (b"[" * 100000, "unreadable JSON"),  # RecursionError
            (b'{"dims":[2],"matrix":[[[1,0],[0,0]],[[0,0]]]}', "matrix[1] must have 2 entries"),
            (b'{"name":5,"dims":[1],"matrix":[[[1,0]]]}', "field 'name' must be a string"),
            (b'{"description":5,"dims":[1],"matrix":[[[1,0]]]}',
             "field 'description' must be a string"),
            (b"[1]", "top level must be a JSON object"),
        ],
        ids=["401-digit", "5001-digit", "not-utf8", "deep-nesting", "short-row", "numeric-name",
             "numeric-description", "top-level-array"],
    )
    def test_unparseable_files_exit_1(self, capsys, tmp_path, content, message):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 1
        assert out == ""
        assert message in err

    def test_dimension_budget_is_checked_before_allocation(self, capsys, tmp_path):
        # 4097 rows pass the row count, so the matrix would be allocated next
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"dims": [4097], "matrix": [[]] * 4097}))
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 1
        assert "field 'dims': D exceeds the dimension limit 4096" in err


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

    def test_every_mask_equals_its_analyze_row(self, capsys):
        # norms reads the scan's class representative, so it agrees bitwise
        spec = "randomdm:2x2x2,8,3"
        _, analyze, _ = run_json(capsys, "analyze", spec)
        rows = analyze["scan"]["results"]
        scan = entscan.gpt_scan(generate(spec))
        for mask in range(64):
            labels = entscan.format_label_set(mask, 3)
            code, report, _ = run_json(capsys, "norms", spec, labels)
            assert code == 0
            assert report == cli._subset_dict(mask, scan.lookup(mask), scan.dims)
            if mask < len(rows):
                assert report == rows[mask]

    def test_unknown_label_exits_1(self, capsys):
        code, _, err = run(capsys, "norms", "bell:psi-", "rC")
        assert code == 1
        assert "subsystem" in err

    @pytest.mark.parametrize("labels", ["", "cA,rB"])
    def test_non_state_exits_1(self, capsys, tmp_path, labels):
        # analyze refuses this file too: trace norm 1 + 2e-9 at mask 0
        path = TestAnalyze._diag_file(tmp_path, 1e-9)
        code, out, err = run(capsys, "norms", path, labels)
        assert code == 1
        assert out == ""
        assert "not a state" in err

    @pytest.mark.parametrize("labels", ["r\u00df", "c\ufb01"])
    def test_non_ascii_label_exits_1(self, capsys, labels):
        # upper-cased, these letters become two characters ("SS", "FI")
        code, out, err = run(capsys, "norms", "bell:psi-", labels)
        assert code == 1
        assert out == ""
        assert "unknown label" in err


class TestScanFamily:
    # The threshold is the final bracket's midpoint. Over [0, 1] that bracket
    # is 9.5e-7 wide: the midpoint misses 1/3 by 1.6e-7, the bracket's
    # violating end by 6.4e-7, more than PARAM_TOL / 2.
    def test_werner_threshold(self, capsys):
        code, report, _ = run_json(
            capsys, "scan-family", "werner", "--min", "0", "--max", "1"
        )
        assert code == 0
        assert abs(report["threshold"] - 1 / 3) <= PARAM_TOL / 2
        assert report["first_violating_labels"] == "rA,cA"

    def test_isotropic_threshold(self, capsys):
        code, report, _ = run_json(
            capsys, "scan-family", "isotropic:3", "--min", "0", "--max", "1"
        )
        assert code == 0
        assert abs(report["threshold"] - 1 / 3) <= PARAM_TOL / 2

    def test_threshold_where_violation_stops(self, capsys):
        # the 3x3 bound entangled family is separable again at a = 1, so its
        # grid violates below the crossing and is ok above it: the bracket
        # must be oriented by the verdicts, not by the parameter order
        code, report, _ = run_json(
            capsys, "scan-family", "horodecki3x3", "--min", "0.5", "--max", "1"
        )
        assert code == 0
        assert abs(report["threshold"] - 1) <= PARAM_TOL
        assert report["first_violating_labels"] == "cA,rB"

    def test_bound_entangled_2x4_has_no_threshold(self, capsys):
        code, report, _ = run_json(
            capsys, "scan-family", "horodecki2x4", "--min", "0.05", "--max", "0.95"
        )
        assert code == 0
        assert report["threshold"] is None
        assert "no threshold in range" in report["message"]
        assert all(not row["violating"] for row in report["grid"])

    def test_every_point_violating_has_no_threshold(self, capsys):
        # the 3x3 bound entangled family is entangled on the whole open interval
        code, report, _ = run_json(
            capsys, "scan-family", "horodecki3x3", "--min", "0.1", "--max", "0.9"
        )
        assert code == 0
        assert report["threshold"] is None
        assert report["message"] == "no threshold in range (every sampled parameter violates)"
        assert all(row["violating"] for row in report["grid"])

    def test_empty_range_rejected(self, capsys):
        # an empty range would sample one parameter GRID_POINTS times
        code, out, err = run(capsys, "scan-family", "werner", "--min", "0.5", "--max", "0.5")
        assert code == 1
        assert out == ""
        assert "need min < max, got [0.5, 0.5]" in err

    def test_family_without_free_parameter_rejected(self, capsys):
        code, _, err = run(capsys, "scan-family", "ghz", "--min", "0", "--max", "1")
        assert code == 1
        assert "cannot be swept" in err
        assert err.endswith(
            "families with one free real parameter: "
            "horodecki2x4, horodecki3x3, isotropic, werner\n"
        )

    def test_missing_fixed_parameter_rejected(self, capsys):
        code, _, err = run(capsys, "scan-family", "isotropic", "--min", "0", "--max", "1")
        assert code == 1
        assert "isotropic needs 1 fixed parameter(s) before the swept one, got 0" in err

    @pytest.mark.parametrize(
        "family, needs, got",
        [("isotropic:,3", 1, 2), ("isotropic:3,,", 1, 3), ("werner:,", 0, 2)],
    )
    def test_empty_parameters_are_counted(self, capsys, family, needs, got):
        # analyze counts an empty token too: analyze isotropic:3,,0.5 exits 1
        code, out, err = run(capsys, "scan-family", family, "--min", "0", "--max", "1")
        assert code == 1
        assert out == ""
        family_name = family.partition(":")[0]
        assert err == (f"entscan: error: {family_name} needs {needs} fixed parameter(s) "
                       f"before the swept one, got {got}\n")

    def test_family_is_named_as_analyze_names_it(self, capsys):
        # the fixed parameters are printed parsed, like analyze's input name
        code, report, _ = run_json(capsys, "scan-family", "isotropic: 03",
                                   "--min", "0", "--max", "1")
        assert code == 0
        assert report["family"] == "isotropic:3"
        code, analyzed, _ = run_json(capsys, "analyze", "isotropic: 03,0.5")
        assert code == 3
        assert analyzed["input"]["name"] == report["family"] + ",0.5"

    def test_every_scan_is_used_once(self, capsys, monkeypatch):
        scans = []

        def counted(rho, *args, **kwargs):
            scans.append(rho)
            return original(rho, *args, **kwargs)

        original = cli.gpt_scan
        monkeypatch.setattr(cli, "gpt_scan", counted)
        code, report, _ = run_json(capsys, "scan-family", "werner", "--min", "0", "--max", "1")
        assert code == 0
        # the grid step 1/32 and its halvings are exact binary fractions
        width, steps = 1 / 32, 0
        while width > PARAM_TOL:
            width, steps = width / 2, steps + 1
        # grid points plus bisection steps, with no extra scan at the end
        assert len(scans) == report["grid_points"] + steps == 33 + 15

    def test_grid_points_are_built_without_spec_text(self, capsys, monkeypatch):
        calls = {"generate": 0, "parse": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli, "generate", counted("generate", cli.generate))
        monkeypatch.setattr(cli, "parse_state_spec", counted("parse", cli.parse_state_spec))
        monkeypatch.setattr(states, "parse_state_spec", counted("parse", states.parse_state_spec))
        code, _, _ = run(capsys, "scan-family", "werner", "--min", "0", "--max", "1")
        assert code == 0
        # one state per grid point and bisection step, none parsed from text
        assert calls == {"generate": 33 + 15, "parse": 0}

    def test_bad_range_rejected(self, capsys):
        code, _, err = run(capsys, "scan-family", "werner", "--min", "1", "--max", "0")
        assert code == 1
        assert "min < max" in err

    @pytest.mark.parametrize(
        "lo, hi, shown", [("0", "inf", "[0.0, inf]"), ("-1e308", "1e308", "[-1e+308, 1e+308]")]
    )
    def test_non_finite_range_is_named(self, capsys, lo, hi, shown):
        # an infinite end, or a width that overflows, would turn the grid into nan
        code, out, err = run(capsys, "scan-family", "werner", f"--min={lo}", f"--max={hi}")
        assert code == 1
        assert out == ""
        assert f"need a finite range, got {shown}" in err
        assert "nan" not in err


class TestGenerate:
    def test_ghz_file(self, capsys, tmp_path):
        path = tmp_path / "ghz.json"
        code, out, _ = run(capsys, "generate", "ghz:3", str(path))
        assert code == 0
        assert "8x8" in out
        mat, dims, name = load_matrix_file(str(path))
        assert dims == (2, 2, 2)
        assert name == "ghz:3"
        assert np.array_equal(mat, generate("ghz:3").mat)

    def test_bad_spec_exits_1(self, capsys, tmp_path):
        code, _, err = run(capsys, "generate", "werner:2.0", str(tmp_path / "x.json"))
        assert code == 1
        assert "[0, 1]" in err

    def test_unwritable_path_exits_1(self, capsys, tmp_path):
        path = tmp_path / "missing" / "ghz.json"
        code, out, err = run(capsys, "generate", "ghz:3", str(path))
        assert code == 1
        assert out == ""
        assert f"cannot write {path}" in err
        assert not path.parent.exists()

    def test_file_loads_bitwise_equal_to_its_cells(self, tmp_path):
        # ints, floats, signed zeros and subnormals, as json writes them
        rng = np.random.default_rng(17)
        values = [0, -0.0, 1, -3, 5e-324, 1e300, *rng.standard_normal(8).tolist()]
        picks = iter(rng.integers(len(values), size=72).tolist())
        rows = [[[values[next(picks)], values[next(picks)]] for _ in range(6)] for _ in range(6)]
        path = tmp_path / "cells.json"
        path.write_text(json.dumps({"dims": [2, 3], "matrix": rows}))
        mat, _, _ = load_matrix_file(str(path))
        expected = np.array([[complex(re, im) for re, im in row] for row in rows])
        assert mat.dtype == expected.dtype and mat.shape == (6, 6)
        assert mat.tobytes() == expected.tobytes()

    def test_ints_round_to_the_nearest_double_up_to_the_overflow_edge(self, tmp_path):
        # ties round to even: 2^1024 - 2^970 is halfway to 2^1024, so it overflows
        path = tmp_path / "edge.json"
        path.write_text(json.dumps({"dims": [1], "matrix": [[[2**1024 - 2**971, -1]]]}))
        mat, _, _ = load_matrix_file(str(path))
        assert mat[0, 0] == complex(np.finfo(float).max, -1.0)
        path.write_text(json.dumps({"dims": [1], "matrix": [[[2**1024 - 2**970, 0]]]}))
        with pytest.raises(entscan.InvalidInputError, match="too large for a double$"):
            load_matrix_file(str(path))

    def test_round_trip_preserves_entries_exactly(self, capsys, tmp_path):
        path = tmp_path / "sep.json"
        assert run(capsys, "generate", "sepmix:2x3,4,13", str(path))[0] == 0
        mat, dims, _ = load_matrix_file(str(path))
        assert np.array_equal(mat, generate("sepmix:2x3,4,13").mat)

    # the file holds the stored Hermitian part, so its residual reads 0.0;
    # a generator that rounds (randomdm's A A^dag) leaves one in the spec's
    # report, the one key that differs. At 3^4 the scan takes the R-factor path
    @pytest.mark.parametrize("spec, rounded", [("werner:0.2", False),
                                               ("randomdm:3x3x3x3,81,1", True)])
    def test_generate_then_analyze_matches_in_memory_report(
        self, capsys, tmp_path, spec, rounded
    ):
        path = tmp_path / "rho.json"
        assert run(capsys, "generate", spec, str(path))[0] == 0
        code_file, out_file, _ = run(capsys, "analyze", str(path), "--format", "json")
        code_spec, out_spec, _ = run(capsys, "analyze", spec, "--format", "json")
        assert code_file == code_spec
        file_report, spec_report = json.loads(out_file), json.loads(out_spec)
        assert file_report["input"].pop("hermiticity_residual") == 0.0
        assert (spec_report["input"].pop("hermiticity_residual") > 0) == rounded
        assert file_report == spec_report
        if not rounded:
            assert out_file == out_spec  # byte-for-byte

    def test_writing_a_file_holds_no_matrix_sized_list(self, tmp_path):
        # each row becomes Python floats only when the encoder reaches it;
        # a whole-matrix .tolist() would peak near 9x the state
        rho = ghz_state(7)
        tracemalloc.start()
        try:
            save_matrix_file(str(tmp_path / "ghz7.json"), rho, name="ghz:7")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * rho.mat.nbytes


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


class _WriteLog:
    """A stdout that keeps every write apart."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


class TestJsonWriter:
    """JSON goes out in blocks, byte-identical to the one-string dump."""

    @staticmethod
    def emitted(monkeypatch, capsys, *argv):
        """The report a command hands to ``_emit``, and its JSON stdout."""
        reports = []
        emit = cli._emit

        def spy(report, *rest):
            reports.append(report)
            emit(report, *rest)

        monkeypatch.setattr(cli, "_emit", spy)
        _, out, _ = run(capsys, *argv, "--format", "json")
        (report,) = reports
        return report, out

    @pytest.mark.parametrize("argv", [
        ("analyze", "bell:psi-"),
        ("analyze", "maxmixed:2x2x2x2x2"),  # about 163 KB: several blocks
        ("norms", "bell:psi-", "cA,rB"),
        ("scan-family", "werner", "--min", "0", "--max", "1"),
    ])
    def test_stdout_equals_the_one_string_dump(self, monkeypatch, capsys, argv):
        report, out = self.emitted(monkeypatch, capsys, *argv)
        assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"

    def test_generated_file_equals_the_one_string_dump(self, capsys, tmp_path):
        path = tmp_path / "rho.json"
        assert run(capsys, "generate", "randomdm:4x4x4,64,1", str(path))[0] == 0
        mat = generate("randomdm:4x4x4,64,1").mat
        data = {
            "dims": [4, 4, 4],
            "matrix": np.stack((mat.real, mat.imag), -1).tolist(),
            "name": "randomdm:4x4x4,64,1",
        }
        assert path.read_bytes() == (json.dumps(data, indent=1) + "\n").encode()

    def test_a_large_report_is_written_in_bounded_blocks(self, monkeypatch, capsys):
        log = _WriteLog()
        monkeypatch.setattr(sys, "stdout", log)
        report, _ = self.emitted(monkeypatch, capsys, "analyze", "maxmixed:2x2x2x2x2")
        assert len(log.writes) >= 4
        assert max(map(len, log.writes)) <= 64 * 1024
        assert "".join(log.writes) == json.dumps(report, indent=2, sort_keys=True) + "\n"


def _subprocess_env(**overrides) -> dict:
    """The environment, with this checkout's ``entscan`` first on the path."""
    src = os.path.dirname(os.path.dirname(entscan.__file__))
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path, **overrides)


def test_subprocesses_import_the_package_this_suite_imports():
    # the suite may run on an installed copy; a subprocess that fell back
    # to another copy (say the checkout's src/) would quietly test that one
    proc = subprocess.run(
        [sys.executable, "-c", "import entscan; print(entscan.__file__)"],
        env=_subprocess_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == entscan.__file__ + "\n"


def _analyze_in_subprocess(spec, blas_threads):
    proc = subprocess.run(
        [sys.executable, "-m", "entscan.cli", "analyze", spec, "--format", "json"],
        env=_subprocess_env(OPENBLAS_NUM_THREADS=str(blas_threads)),
        capture_output=True, timeout=300,
    )
    assert proc.returncode in (0, 3), proc.stderr
    return proc.stdout


class TestBlasThreads:
    """The promise: byte-identical reports at one BLAS thread count, and only
    last-digit float changes between thread counts."""

    SPEC = "randomdm:3x3x3x3,81,1"

    def test_same_thread_count_is_byte_identical(self):
        assert _analyze_in_subprocess(self.SPEC, 1) == _analyze_in_subprocess(self.SPEC, 1)

    def test_thread_counts_differ_only_in_float_noise(self):
        one = json.loads(_analyze_in_subprocess(self.SPEC, 1))
        two = json.loads(_analyze_in_subprocess(self.SPEC, 2))
        assert_same_up_to_float_noise(one, two)


class TestArgumentHandling:
    def test_missing_subcommand_exits_1(self, capsys):
        assert main([]) == 1
        capsys.readouterr()

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "analyze" in out and "scan-family" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze"],
            ["norms", "bell:psi-"],
            ["scan-family", "werner", "--min", "0"],
            ["generate", "ghz:3"],
            ["scan-family", "werner", "--min", "x", "--max", "1"],
        ],
        ids=["analyze", "norms", "scan-family", "generate", "bad-float"],
    )
    def test_usage_error_exits_1(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith(f"usage: entscan {argv[0]} ")
        assert f"\nentscan {argv[0]}: error: " in err

    @pytest.mark.parametrize("command", ["analyze", "norms", "scan-family", "generate"])
    def test_subcommand_help_exits_0(self, capsys, command):
        code, out, _ = run(capsys, command, "--help")
        assert code == 0
        assert out.startswith(f"usage: entscan {command} ")

    def test_usage_error_exits_1_as_a_module(self):
        proc = subprocess.run(
            [sys.executable, "-m", "entscan.cli", "analyze"], env=_subprocess_env(),
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "usage: entscan analyze " in proc.stderr
        assert "entscan analyze: error: " in proc.stderr

    def test_closed_stdout_exits_1_without_a_traceback(self):
        # the 32x32 report (about 160 KB) outgrows the pipe buffer, so the
        # write is still under way when the reader closes its end
        proc = subprocess.Popen(
            [sys.executable, "-m", "entscan.cli", "analyze", "maxmixed:2x2x2x2x2",
             "--format", "json"],
            env=_subprocess_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert proc.stdout.read(10) == b'{\n  "input'
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert "Traceback" not in err
        assert "Exception ignored" not in err

    def test_omitted_seed_is_0(self, capsys):
        _, omitted, _ = run_json(capsys, "analyze", "sepmix:2x2,3")
        _, explicit, _ = run_json(capsys, "analyze", "sepmix:2x2,3,0")
        assert omitted == explicit
        assert omitted["input"]["name"] == "sepmix:2x2,3,0"

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "productrandom:2x2,-1"],
            ["analyze", "randomdm:2x2,2,-1"],
            ["analyze", "sepmix:2x2,3,-5"],
            ["analyze", "productrandom:2x2,-99999999999999999999"],
            ["norms", "randomdm:2x2,2,-3", "cA"],
            ["generate", "sepmix:2x2,3,-1", "never-written.json"],
        ],
    )
    def test_negative_seed_exits_1(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "must be a non-negative integer" in err
        assert not os.path.exists("never-written.json")

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "maxmixed:2x2", "--tol-norm", "-1"],
            ["analyze", "maxmixed:2x2", "--max-n", "7"],
            ["analyze", "maxmixed:2x2", "--check-psd"],
            ["analyze", "bell:psi-", "--no-dedupe"],
            ["norms", "bell:psi-", "cA", "--max-n", "2"],
            ["norms", "bell:psi-", "cA", "--tol-norm", "0"],
            ["scan-family", "werner", "--min", "0", "--max", "1", "--normalize"],
            ["scan-family", "werner", "--min", "0", "--max", "1", "--seed", "3"],
            ["scan-family", "werner", "--min", "0", "--max", "1", "--tol-norm", "nan"],
            # a seeded spec carries its own seed
            ["analyze", "sepmix:2x2,3", "--seed", "5"],
            ["norms", "randomdm:2x2,2", "cA", "--seed", "3"],
            ["generate", "sepmix:2x2,3", "never-written.json", "--seed", "0"],
            # the trace tolerance and the scan-family grid are fixed
            ["analyze", "bell:psi-", "--normalize"],
            ["norms", "bell:psi-", "cA", "--normalize"],
            ["scan-family", "werner", "--min", "0", "--max", "1", "--grid", "5"],
        ],
    )
    def test_tuning_flags_are_unknown_arguments(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "unrecognized arguments" in err
        assert not os.path.exists("never-written.json")

    def test_seven_subsystems_exceed_the_scan_limit(self, capsys):
        code, _, err = run(capsys, "analyze", "ghz:7")
        assert code == 1
        assert "scan limit" in err

    @pytest.mark.parametrize("spec", ["ghz:7", "maxmixed:2x2x2x2x2x2x2"])
    def test_scan_limit_is_checked_before_the_state_is_built(self, capsys, monkeypatch, spec):
        def refuse(*args, **kwargs):
            raise AssertionError("analyze built a state beyond the scan limit")

        monkeypatch.setattr(cli, "generate", refuse)
        code, out, err = run(capsys, "analyze", spec)
        assert code == 1
        assert out == ""
        assert "7 subsystems means 2^14 subsets, beyond the scan limit of 6" in err

    @pytest.mark.parametrize("spec", ["productrandom:0x10000000000", "sepmix:0x10000000000,1"])
    def test_a_zero_dimension_is_refused_before_the_state_is_built(
        self, capsys, monkeypatch, spec
    ):
        # a 0 makes the product of the dims 0, inside the dimension budget,
        # while the other factor is far too large to build
        def refuse(*args, **kwargs):
            raise AssertionError("analyze built a state with a zero dimension")

        monkeypatch.setattr(cli, "generate", refuse)
        code, out, err = run(capsys, "analyze", spec)
        assert code == 1
        assert out == ""
        assert "dims '0x10000000000': every dimension must be at least 1" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "entry, dims, message",
        [("spec", "0x2", "every dimension must be at least 1"),
         ("file", [0, 2], "every dimension must be at least 1"),
         ("library", (0,), "every dimension must be at least 1"),
         ("file", [], "must not be empty"),
         ("library", (), "must not be empty"),
         ("file", [True, 2], "entry 0 must be an integer, got bool"),
         ("library", (True, 2), "entry 0 must be an integer, got bool"),
         ("file", [2, 2.5], "entry 1 must be an integer, got float"),
         ("library", (2, 2.5), "entry 1 must be an integer, got float"),
         ("file", 4, "must be a sequence of integers, got int"),
         ("library", 4, "must be a sequence of integers, got int"),
         ("file", "22", "entry 0 must be an integer, got str"),
         ("library", "22", "entry 0 must be an integer, got str"),
         ("spec", "x".join("1" * 13), "more than 12 subsystems"),
         ("file", [1] * 13, "more than 12 subsystems"),
         ("library", (1,) * 13, "more than 12 subsystems")],
        ids=["spec", "file", "library", "empty-file", "empty-library", "true-file",
             "true-library", "2.5-file", "2.5-library", "4-file", "4-library", "str-file",
             "str-library", "13-ones-spec", "13-ones-file", "13-ones-library"],
    )
    def test_one_dims_wording_at_every_entry_point(self, capsys, tmp_path, entry, dims, message):
        # a spec's dims are digits by syntax, so only a 0 or a count can fail
        # there; the matrix comes after the dims, so any matrix will do
        if entry == "library":
            with pytest.raises(InvalidInputError) as info:
                DensityMatrix(np.eye(1), dims)
            assert str(info.value) == f"subsystem dimensions: {message}"
            return
        if entry == "spec":
            source, what = f"maxmixed:{dims}", f"dims '{dims}'"
        else:
            source = str(tmp_path / "dims.json")
            with open(source, "w", encoding="utf-8") as fh:
                json.dump({"dims": dims, "matrix": []}, fh)
            what = f"{source}: field 'dims'"
        code, out, err = run(capsys, "analyze", source)
        assert (code, out) == (1, "")
        assert f"{what}: {message}" in err and "Traceback" not in err

    def test_norms_has_no_scan_limit(self, capsys):
        code, out, _ = run(capsys, "norms", "ghz:7", "")
        assert code == 0
        assert out.startswith("labels {}  shape 128x128")

    @pytest.mark.parametrize("source", ["spec", "file"])
    def test_more_than_12_subsystems_exit_1(self, capsys, tmp_path, source):
        # unit subsystems pass the dimension budget, but a transpose of 40
        # of them would reshape to 80 axes, beyond numpy's limit
        ones = "x".join(["1"] * 40)
        text = f"maxmixed:{ones}"
        message = (f"input '{text}' is neither an existing file nor a state spec "
                   f"(dims '{ones}': more than 12 subsystems)")
        if source == "file":
            text = str(tmp_path / "ones.json")
            with open(text, "w", encoding="utf-8") as fh:
                json.dump({"dims": [1] * 40, "matrix": [[[1.0, 0.0]]]}, fh)
            message = f"{text}: field 'dims': more than 12 subsystems"
        code, out, err = run(capsys, "norms", text, "")
        assert (code, out) == (1, "")
        assert err == f"entscan: error: {message}\n"
        code, out, _ = run(capsys, "norms", "maxmixed:" + "x".join(["1"] * 12), "cA")
        assert code == 0
        assert out == "labels {cA}  shape 1x1  trace norm 1.0\n"

    def test_file_scan_limit_is_checked_before_the_state_is_built(
        self, capsys, monkeypatch, tmp_path
    ):
        path = str(tmp_path / "ghz7.json")
        assert run(capsys, "generate", "ghz:7", path)[0] == 0

        def refuse(*args, **kwargs):
            raise AssertionError("analyze built a state beyond the scan limit")

        monkeypatch.setattr(cli, "density_matrix", refuse)
        code, out, err = run(capsys, "analyze", path)
        assert code == 1
        assert out == ""
        assert "7 subsystems means 2^14 subsets, beyond the scan limit of 6" in err
        monkeypatch.undo()
        code, out, _ = run(capsys, "norms", path, "")
        assert code == 0
        assert out.startswith("labels {}  shape 128x128")

    def test_file_scan_limit_is_checked_before_the_matrix_is_read(self, capsys, tmp_path):
        # the matrix field is wrong too, but the dims alone decide
        path = tmp_path / "seven.json"
        path.write_text(json.dumps({"dims": [2] * 7, "matrix": []}))
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 1
        assert "beyond the scan limit of 6" in err
        code, _, err = run(capsys, "norms", str(path), "")
        assert code == 1
        assert "field 'matrix' must be a 128x128 array" in err


class TestSharedParser:
    # analyze, an argparse error, --version, analyze again
    SEQUENCE = [
        ["analyze", "bell:psi-"],
        ["analyze", "bell:psi-", "--format", "xml"],
        ["--version"],
        ["analyze", "werner:0.2", "--format", "json"],
    ]

    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_reused_parser_answers_like_a_fresh_one(self, capsys):
        cli.build_parser.cache_clear()
        reused = [run(capsys, *argv) for argv in self.SEQUENCE]
        assert cli.build_parser.cache_info().misses == 1
        fresh = []
        for argv in self.SEQUENCE:
            cli.build_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        assert reused == fresh
        assert [code for code, _, _ in reused] == [3, 1, 0, 0]
        assert "invalid choice: 'xml'" in reused[1][2]
        assert reused[2][1] == f"entscan {entscan.__version__}\n"

    def test_commands_are_looked_up_per_call(self, capsys, monkeypatch):
        cli.build_parser()
        monkeypatch.setattr(cli, "cmd_norms", lambda args: 42)
        assert main(["norms", "bell:psi-", "cA"]) == 42


def test_startup_imports_neither_numpy_random_nor_hashlib_nor_dataclasses():
    # each costs every run start-up time: only seeded specs and solver
    # error messages need the first two, and import them on use; no record
    # needs the third. numpy 1.x loads the first two with numpy itself, so
    # only what entscan.cli adds counts.
    code = (
        "import sys, numpy; lazy = {'numpy.random', 'hashlib', 'dataclasses'}\n"
        "base = set(sys.modules)\n"
        "import entscan.cli; print(sorted(lazy & (set(sys.modules) - base)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=_subprocess_env(),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
