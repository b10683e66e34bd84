"""Tests for criterion evaluation and entanglement quantification."""

import math
import re

import numpy as np
import pytest

from entscan import (
    NORM_TOL,
    DensityMatrix,
    InvalidInputError,
    Verdict,
    bell_state,
    evaluate_subset,
    format_label_set,
    generalized_transpose,
    generate,
    ghz_state,
    gpt_scan,
    horodecki_3x3,
    max_mixed,
    negativity,
    ppt_criterion,
    random_density,
    random_product_state,
    realignment_criterion,
    separable_mixture,
    werner_state,
)
from entscan import criteria
from entscan.cli import build_analyze_report
from entscan.criteria import SubsetResult, subset_table
from entscan.linalg import TRACE_TOL
from entscan.reshape import complement, layout, representative, swap

from reference import (
    NEAR_PRODUCT_CASES,
    all_flip_sets,
    naive_generalized_transpose,
    naive_realign,
    naive_trace_norm,
    naive_witness,
    near_product,
    product_minus,
    random_local_unitary,
    random_state,
)


def werner_pt_norm(p):
    # partial-transpose eigenvalues of the Werner state: (1+p)/4 x3, (1-3p)/4
    return 3 * (1 + p) / 4 + abs(1 - 3 * p) / 4


class TestPptCriterion:
    def test_bell_singlet(self):
        results = ppt_criterion(gpt_scan(bell_state("psi-")))
        assert len(results) == 1
        ((mask, res),) = results.items()
        assert format_label_set(mask, 2) == "rA,cA"
        assert abs(res.trace_norm - 2.0) < 1e-9
        assert abs(res.min_eigenvalue + 0.5) < 1e-9
        assert res.violating

    @pytest.mark.parametrize("p", [0.0, 0.2, 1 / 3])
    def test_werner_below_threshold(self, p):
        for res in ppt_criterion(gpt_scan(werner_state(p))).values():
            assert abs(res.trace_norm - 1.0) < 1e-10
            assert res.min_eigenvalue > -1e-10
            assert not res.violating

    @pytest.mark.parametrize("p", [0.4, 0.7, 1.0])
    def test_werner_above_threshold(self, p):
        (res,) = ppt_criterion(gpt_scan(werner_state(p))).values()
        assert abs(res.trace_norm - werner_pt_norm(p)) < 1e-10
        assert abs(res.min_eigenvalue - (1 - 3 * p) / 4) < 1e-10
        assert res.violating

    def test_product_states_pass(self):
        for seed in range(5):
            scan = gpt_scan(separable_mixture((2, 2, 2), 1, seed=seed))
            for res in ppt_criterion(scan).values():
                assert not res.violating
                assert abs(res.trace_norm - 1.0) < 1e-10

    def test_subset_count_dedupes_complements(self):
        assert len(ppt_criterion(gpt_scan(ghz_state(3)))) == 3
        assert len(ppt_criterion(gpt_scan(max_mixed((2,))))) == 0

    def test_near_threshold_row_follows_the_scan_rule(self):
        # min eig -6e-10 is above -1e-9, but the trace norm 1 + 1.2e-9 is
        # past 1 + NORM_TOL: the PPT row violates, like the scan's row for it
        rho = werner_state(0.3333333341333333)
        (res,) = ppt_criterion(gpt_scan(rho)).values()
        assert -1e-9 < res.min_eigenvalue < 0.0
        assert res.trace_norm > 1.0 + NORM_TOL
        assert res.violating
        report = build_analyze_report(rho, "")
        assert report["ppt"]["results"][0]["violating"]
        assert report["scan"]["results"][3]["violating"]
        assert report["verdict"] == Verdict.ENTANGLED_CERTIFIED.value


class TestRealignmentCriterion:
    def test_bell(self):
        ((mask, res),) = realignment_criterion(gpt_scan(bell_state("psi-"))).items()
        assert abs(res.trace_norm - 2.0) < 1e-9
        assert res.violating
        assert format_label_set(mask, 2) == "cA,rB"

    def test_maximally_mixed_two_qubits(self):
        (res,) = realignment_criterion(gpt_scan(max_mixed((2, 2)))).values()
        assert abs(res.trace_norm - 0.5) < 1e-12
        assert not res.violating

    def test_single_subsystem_has_no_cuts(self):
        # like ppt_criterion: a lone subsystem has nothing to cut
        assert realignment_criterion(gpt_scan(max_mixed((4,)))) == {}

    def test_cut_count(self):
        assert len(realignment_criterion(gpt_scan(ghz_state(3)))) == 3

    def test_werner_threshold_bisection_against_naive(self):
        # locate the realignment threshold with the naive-block oracle only
        def naive_norm(p):
            return naive_trace_norm(naive_realign(werner_state(p).mat, (2, 2)))

        lo, hi = 0.0, 1.0
        while hi - lo > 1e-9:
            mid = 0.5 * (lo + hi)
            if naive_norm(mid) > 1.0:
                hi = mid
            else:
                lo = mid
        assert abs(0.5 * (lo + hi) - 1 / 3) < 1e-6
        # and the package agrees on a point either side
        # mask 6 = {cA,rB}, the one cut A|B
        assert not realignment_criterion(gpt_scan(werner_state(1 / 3 - 0.01)))[6].violating
        assert realignment_criterion(gpt_scan(werner_state(1 / 3 + 0.01)))[6].violating


class TestGptScan:
    def test_bell_report(self):
        report = gpt_scan(bell_state("psi-"))
        assert report.verdict is Verdict.ENTANGLED_CERTIFIED
        assert abs(report.max_norm - 2.0) < 1e-9
        assert abs(report.measure_e - 0.5) < 1e-9
        violation_masks = set(report.violations)
        assert 3 in violation_masks  # {rA,cA}
        assert 6 in violation_masks  # {cA,rB}
        assert report.argmax == 3  # canonical tie-break
        assert len(report.results) == 8

    def test_separable_mixtures_undetected(self):
        for dims in [(2, 2), (2, 3), (2, 2, 2)]:
            for seed in range(10):
                report = gpt_scan(separable_mixture(dims, 6, seed=seed))
                assert report.verdict is Verdict.UNDETECTED
                assert report.max_norm <= 1.0 + 1e-9

    def test_bound_entangled_2x4_undetected(self):
        from entscan import horodecki_2x4

        report = gpt_scan(horodecki_2x4(0.5))
        assert report.verdict is Verdict.UNDETECTED
        assert report.max_norm <= 1.0 + 1e-9

    def test_mix_of_two_product_states_undetected(self):
        first = separable_mixture((2, 2), 1, seed=41).mat
        second = separable_mixture((2, 2), 1, seed=42).mat
        blend = DensityMatrix(0.3 * first + 0.7 * second, (2, 2))
        assert gpt_scan(blend).verdict is Verdict.UNDETECTED

    def test_results_in_canonical_order(self):
        # results[mask] is the row of mask: its class representative's solve
        rho = random_density((2, 3), seed=21)
        report = gpt_scan(rho)
        for mask, res in enumerate(report.results):
            assert (res.trace_norm, res.min_eigenvalue) == evaluate_subset(
                rho, representative(mask, 2))

    def test_repeated_scans_are_bitwise_identical(self):
        rho = random_density((2, 3), seed=21)
        first = gpt_scan(rho)
        second = gpt_scan(rho)
        assert first.max_norm == second.max_norm
        assert first.argmax == second.argmax
        for a, b in zip(first.results, second.results):
            assert a.trace_norm == b.trace_norm  # bitwise identical
        # records compare and hash by value, and no field can be assigned
        assert first == second and hash(first) == hash(second)
        for record, name in ((first, "argmax"), (first.results[0], "trace_norm")):
            with pytest.raises(AttributeError):
                setattr(record, name, None)

    def test_refuses_to_certify_a_matrix_that_is_not_psd(self):
        # Hermitian with unit trace, eigenvalues 1.5 and -0.5: every label
        # subset of a single qubit has trace norm 2
        rho = DensityMatrix(np.diag([1.5, -0.5]), (2,))
        with pytest.raises(InvalidInputError, match="-0.5"):
            gpt_scan(rho)
        with pytest.raises(InvalidInputError, match="not positive semidefinite"):
            gpt_scan(rho).measure_e

    @pytest.mark.parametrize(
        "entry",
        [
            gpt_scan,
            lambda rho: gpt_scan(rho).measure_e,
            lambda rho: ppt_criterion(gpt_scan(rho)),
            lambda rho: realignment_criterion(gpt_scan(rho)),
            lambda rho: negativity(gpt_scan(rho), 0),
            lambda rho: negativity(gpt_scan(rho), 1),
            lambda rho: subset_table(rho)(6),
        ],
        ids=["gpt_scan", "measure_e", "ppt", "realignment", "negativity0", "negativity1",
             "subset_table"],
    )
    def test_every_entry_point_refuses_a_matrix_that_is_not_psd(self, entry):
        # eigenvalue -0.1: trace norm 1.2 at mask 0; a partial transpose of
        # this diagonal matrix is the matrix itself, so unrefused, its PPT row
        # would "violate" and its negativities read 0.1
        rho = DensityMatrix(np.diag([0.6, 0.5, -0.1, 0.0]), (2, 2))
        with pytest.raises(InvalidInputError, match="not positive semidefinite"):
            entry(rho)

    @pytest.mark.parametrize("d, eps", NEAR_PRODUCT_CASES)
    def test_admitted_negativity_does_not_certify(self, d, eps):
        # the PSD part is the product state |00><00|; the largest row passes
        # 1 + NORM_TOL on the tolerated negative part, not 1 + NORM_TOL + slack
        rho = DensityMatrix(near_product(d, eps), (d, d))
        report = gpt_scan(rho)
        assert report.max_norm > 1.0 + NORM_TOL
        assert report.results[report.argmax].slack > 0.0
        assert report.verdict is Verdict.UNDETECTED
        assert report.violations == () and report.measure_e == 0.0
        assert negativity(report, 0) == 0.0

    def test_slack_is_one_plus_sqrt_d_times_t(self):
        # the PSD part (1 + eps)|k><k|, k = cos(th)|00> + sin(th)|12>, is
        # slightly entangled, which adds about 2 th to the near product's
        # largest row, sqrt(D) t: by the naive oracles it lies between
        # sqrt(D) t and (1 + sqrt(D)) t above 1 + NORM_TOL. A slack of
        # sqrt(D) t alone would certify it
        eps, theta = 4.5e-10, 6e-10
        ket, psi = np.zeros(9), np.zeros(9)
        ket[0], ket[5] = np.cos(theta), np.sin(theta)
        psi[[4, 8]] = 1 / np.sqrt(2)
        mat = product_minus(ket, psi, eps)
        t = (naive_trace_norm(mat) - 1) / 2
        excess = max(
            naive_trace_norm(naive_generalized_transpose(mat, (3, 3), flips))
            for _, flips in all_flip_sets(2)
        ) - 1 - NORM_TOL
        assert 3.25 * t < excess < 3.75 * t  # sqrt(D) = 3
        report = gpt_scan(DensityMatrix(mat, (3, 3)))
        assert report.verdict is Verdict.UNDETECTED
        assert report.results[report.argmax].slack == pytest.approx(4 * t, rel=1e-6)

    @pytest.mark.parametrize("slack", [0.0, 3e-9])
    def test_a_norm_at_the_threshold_does_not_violate(self, slack):
        # the rule is strict: trace norm > 1 + NORM_TOL + slack
        threshold = 1.0 + NORM_TOL + slack

        def row(norm):
            return SubsetResult(trace_norm=norm, min_eigenvalue=None, slack=slack)

        assert not row(threshold).violating
        assert row(math.nextafter(threshold, 2.0)).violating

    @pytest.mark.parametrize(
        "spec, toward",
        [("randomdm:2x3,6,2", -math.inf), ("randomdm:2x3,6,9", math.inf),
         pytest.param(np.diag([0.2, 0.7, 0.1, 0]), math.inf, id="diag-zero-inf")],
    )
    def test_a_psd_input_has_no_slack(self, monkeypatch, spec, toward):
        # on a PSD input the mask-0 norm differs from the trace by rounding
        # noise of either sign; read as a negative part, noise below the
        # trace would lower every row's threshold under 1 + NORM_TOL. The
        # sign depends on the BLAS build, so the noise is set here to one
        # ulp below, resp. above, the trace. The diagonal state has the
        # eigenvalue exactly 0, which is no negative part either; its norm
        # 1.0 is already the ulp above its trace 0.9999999999999999
        rho = generate(spec) if isinstance(spec, str) else DensityMatrix(spec, (2, 2))
        trace, solve = rho.trace().real, criteria.evaluate_subset

        def noisy(rho, mask):
            norm, low = solve(rho, mask)
            return (math.nextafter(trace, toward) if mask == 0 else norm), low

        monkeypatch.setattr(criteria, "evaluate_subset", noisy)
        report = gpt_scan(rho)
        low = report.results[0].min_eigenvalue
        assert low > 0 if isinstance(spec, str) else low == 0.0
        assert report.results[0].trace_norm == math.nextafter(trace, toward)
        assert all(row.slack == 0.0 for row in report.results)

    def test_no_state_trips_the_mask_0_refusal(self):
        # a state's own trace norm is its trace, which DensityMatrix holds
        # within TRACE_TOL of 1, below the violation slack
        assert TRACE_TOL < NORM_TOL
        rho = DensityMatrix(np.diag([0.5 + 0.9 * TRACE_TOL, 0.5, 0.0, 0.0]), (2, 2))
        assert gpt_scan(rho).verdict is Verdict.UNDETECTED

    def test_size_limit(self, monkeypatch):
        solves = []
        solve = criteria.evaluate_subset
        monkeypatch.setattr(criteria, "evaluate_subset",
                            lambda rho, mask: solves.append(mask) or solve(rho, mask))
        rho = max_mixed((2,) * 7)
        with pytest.raises(InvalidInputError, match="scan limit"):
            gpt_scan(rho)
        assert solves == []  # refused before the mask-0 solve
        gpt_scan(max_mixed((2, 2)))
        assert solves[0] == 0  # the counter sees the scan's solves

    def test_hermitian_cases_carry_min_eigenvalue(self):
        report = gpt_scan(bell_state("psi-"))
        for mask in range(16):
            res = report.lookup(mask)
            # the Hermitian cases are the partial transpositions, each its own swap
            if mask == swap(mask, 2):
                assert res.min_eigenvalue is not None
                rows, cols = layout((2, 2), mask)[1]
                assert rows == cols
            else:
                assert res.min_eigenvalue is None

    def test_ppt_subset_norm_is_one_when_psd(self):
        for seed in range(10):
            rho = random_density((2, 2), seed=seed)
            report = gpt_scan(rho)
            for res in map(report.lookup, range(16)):
                if res.min_eigenvalue is not None and res.min_eigenvalue >= -1e-12:
                    assert abs(res.trace_norm - 1.0) < 1e-10


class TestNegativity:
    def test_bell(self):
        assert abs(negativity(gpt_scan(bell_state("psi-")), 0) - 0.5) < 1e-9

    def test_product_state(self):
        rho = separable_mixture((2, 2), 1, seed=1)
        assert negativity(gpt_scan(rho), 0) == 0.0
        assert negativity(gpt_scan(rho), 1) == 0.0

    def test_werner_half(self):
        assert abs(negativity(gpt_scan(werner_state(0.5)), 0) - 1 / 8) < 1e-9

    def test_werner_analytic_formula(self):
        for p in np.linspace(0, 1, 11):
            expected = max(0.0, (3 * p - 1) / 4)
            assert abs(negativity(gpt_scan(werner_state(p)), 0) - expected) < 1e-10

    @pytest.mark.parametrize(
        "rho",
        [
            random_product_state((2, 3), seed=2),
            separable_mixture((2, 3), 4, seed=1),
            horodecki_3x3(0.5),
        ],
        ids=["productrandom", "sepmix", "horodecki3x3"],
    )
    def test_ppt_states_read_exactly_zero(self, rho):
        # rounding lifts these partial-transpose norms a few ulp above 1
        scan = gpt_scan(rho)
        report = build_analyze_report(rho, "")
        for k in range(len(rho.dims)):
            assert negativity(scan, k) == 0.0
            assert report["negativity_per_subsystem"][k] == 0.0

    def test_subsystem_out_of_range(self):
        # negativity's own refusal, not reshape's "mask ... out of range"
        for k in (-1, 2):
            message = f"subsystem {k} out of range: need an int in [0, 2)"
            with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
                negativity(gpt_scan(bell_state("psi-")), k)

    def test_subsystem_may_be_a_numpy_int(self):
        # as check_dimension reads dims; each subsystem here has its own value
        scan = gpt_scan(random_density((2, 2, 3), seed=4))
        values = [negativity(scan, k) for k in range(3)]
        assert len(set(values)) == 3
        for k in range(3):
            assert negativity(scan, np.int64(k)) == values[k]

    @pytest.mark.parametrize("k", [1.9, "1", True, 1.0], ids=["float", "str", "bool", "whole"])
    def test_subsystem_must_be_an_int(self, k):
        # int() reads each of these as subsystem 1
        with pytest.raises(InvalidInputError, match="need an int"):
            negativity(gpt_scan(bell_state("psi-")), k)


class TestMeasureE:
    def test_separable_states_are_exactly_zero(self):
        for seed in range(8):
            assert gpt_scan(separable_mixture((2, 2), 5, seed=seed)).measure_e == 0.0
        assert gpt_scan(max_mixed((2, 2))).measure_e == 0.0

    def test_bell(self):
        assert abs(gpt_scan(bell_state("psi-")).measure_e - 0.5) < 1e-9

    def test_upper_bounds_negativity(self):
        for seed in range(20):
            rho = random_density((2, 2), seed=seed)
            e_val = gpt_scan(rho).measure_e
            for k in (0, 1):
                assert e_val >= negativity(gpt_scan(rho), k) - 1e-10

    def test_convexity(self):
        rng = np.random.default_rng(30)
        for seed in range(10):
            rho1 = random_density((2, 2), seed=seed)
            rho2 = random_density((2, 2), seed=seed + 100)
            lam = float(rng.random())
            blend = DensityMatrix(lam * rho1.mat + (1 - lam) * rho2.mat, (2, 2))
            assert gpt_scan(blend).measure_e <= lam * gpt_scan(rho1).measure_e + (
                1 - lam
            ) * gpt_scan(rho2).measure_e + 1e-9

    def test_local_unitary_invariance(self):
        for seed in range(10):
            rho = random_density((2, 2), seed=seed)
            u = random_local_unitary((2, 2), seed=seed + 500)
            rotated = DensityMatrix(u @ rho.mat @ u.conj().T, (2, 2))
            base = gpt_scan(rho)
            moved = gpt_scan(rotated)
            assert abs(base.measure_e - moved.measure_e) < 1e-8
            for a, b in zip(base.results, moved.results):
                assert abs(a.trace_norm - b.trace_norm) < 1e-8


class TestEvaluateSubset:
    def test_single_subset_matches_scan(self):
        rho = bell_state("psi-")
        report = gpt_scan(rho)
        for mask in range(16):
            res = report.lookup(mask)
            # bitwise the solve of its class representative, in its own shape
            single = evaluate_subset(rho, representative(mask, 2))
            assert single == (res.trace_norm, res.min_eigenvalue)
            assert generalized_transpose(rho, mask).shape == layout(rho.dims, mask)[1]

    def test_complement_recorded(self):
        # the complement of mask 0 reads mask 0's row, the one row of its class
        rho = bell_state("psi-")
        table = subset_table(rho)
        assert table(complement(0, len(rho.dims))) is table(0)


@pytest.mark.parametrize(
    "spec, cuts, ppt",
    [
        ("bell:psi-", [(6, "A|B")], [(3, "A")]),
        ("ghz:3", [(22, "A|BC"), (26, "AB|C"), (38, "AC|B")],
         [(3, "A"), (12, "B"), (15, "AB")]),
        ("ghz:4",
         [(86, "A|BCD"), (90, "AB|CD"), (102, "AC|BD"), (106, "ABC|D"), (150, "AD|BC"),
          (154, "ABD|C"), (166, "ACD|B")],
         [(3, "A"), (12, "B"), (15, "AB"), (48, "C"), (51, "AC"), (60, "BC"), (63, "ABC")]),
    ],
    ids=["bell:psi-", "ghz:3", "ghz:4"],
)
def test_cut_enumeration(spec, cuts, ppt):
    # one row per cut X|X^c with subsystem 0 in X, in order of X's bitmask;
    # its mask holds c_k for k in X and r_k elsewhere
    report = build_analyze_report(generate(spec), spec)
    assert [(row["mask"], row["cut"]) for row in report["realignment"]["results"]] == cuts
    assert [(row["mask"], row["subsystems"]) for row in report["ppt"]["results"]] == ppt


class TestMaskEngine:
    @pytest.mark.parametrize("dims", [(2, 3), (3, 2), (2, 3, 2)])
    def test_every_mask_matches_naive_transpose(self, dims):
        mat = random_state(int(np.prod(dims)), np.random.default_rng(sum(dims)))
        rho = DensityMatrix(mat, dims)
        for mask, flips in all_flip_sets(len(dims)):
            # the engine holds the Hermitian part of the input
            expected = naive_generalized_transpose(rho.mat, dims, flips)
            got = generalized_transpose(rho, mask)
            assert got.shape == expected.shape, (dims, mask)
            assert np.array_equal(got, expected), (dims, mask)

    @pytest.mark.parametrize("dims", [(2, 3), (2, 3, 2)])
    def test_lookup_reads_every_mask(self, dims):
        # every mask, listed or not, is read from its class representative's row
        rho = random_density(dims, seed=11)
        scan = gpt_scan(rho)
        table = subset_table(rho)
        for mask in range(1 << (2 * len(dims))):
            res, row = scan.lookup(mask), table(mask)
            assert (res.trace_norm, res.min_eigenvalue, res.slack) == (
                row.trace_norm, row.min_eigenvalue, row.slack)  # bitwise
            assert layout(dims, mask)[1] == generalized_transpose(rho, mask).shape
            assert abs(res.trace_norm - evaluate_subset(rho, mask)[0]) <= 1e-12

    @pytest.mark.parametrize("mask", [16, 100, -1])
    def test_mask_outside_the_table_is_refused(self, mask):
        # two subsystems have the 16 masks 0..15; one range check refuses any
        # other, in the same words from the table, the scan's lookup, the
        # transpose and the label text, naming the mask it was given
        rho = bell_state("psi-")
        entry_points = (subset_table(rho), gpt_scan(rho).lookup,
                        lambda m: generalized_transpose(rho, m), lambda m: format_label_set(m, 2))
        for read in entry_points:
            with pytest.raises(InvalidInputError) as info:
                read(mask)
            assert str(info.value) == f"mask {mask} out of range [0, 16) for 2 subsystems"

    @pytest.mark.parametrize("mask", [True, False, 3.0, "3", None],
                             ids=["true", "false", "float", "str", "none"])
    def test_mask_must_be_an_int(self, mask):
        # the rule of dims entries and negativity's subsystem: True would read
        # as the mask {rA}, and 3.0 would end in a raw TypeError from >>
        rho = bell_state("psi-")
        entry_points = (subset_table(rho), gpt_scan(rho).lookup,
                        lambda m: generalized_transpose(rho, m), lambda m: format_label_set(m, 2),
                        lambda m: representative(m, 2))
        for read in entry_points:
            with pytest.raises(InvalidInputError) as info:
                read(mask)
            assert str(info.value) == (
                f"mask {mask!r} must be an integer, got {type(mask).__name__}")

    def test_mask_may_be_a_numpy_int(self):
        rho = bell_state("psi-")
        scan = gpt_scan(rho)
        for mask in range(16):
            wide = np.int64(mask)
            assert scan.lookup(wide) is scan.lookup(mask)
            assert np.array_equal(generalized_transpose(rho, wide),
                                  generalized_transpose(rho, mask))
            assert format_label_set(wide, 2) == format_label_set(mask, 2)
            assert representative(wide, 2) == representative(mask, 2)

    @pytest.mark.parametrize(
        "rho",
        [
            bell_state("psi-"),
            werner_state(0.6),
            random_density((2, 3), seed=3),
            random_density((3, 2, 2), seed=4),
            random_density((2, 2, 2, 2), seed=5),
        ],
        ids=["bell", "werner", "2x3", "3x2x2", "2x2x2x2"],
    )
    def test_analyze_matches_standalone_criteria(self, rho):
        report = build_analyze_report(rho, "")
        scan = gpt_scan(rho)  # a second scan, independent of the report's
        ppt = ppt_criterion(scan)
        assert len(report["ppt"]["results"]) == len(ppt)
        for row, (mask, res) in zip(report["ppt"]["results"], ppt.items()):
            assert row["mask"] == mask
            assert row["shape"] == list(layout(rho.dims, mask)[1])
            assert row["violating"] == res.violating
            assert row["trace_norm"] == res.trace_norm
            assert row["min_eigenvalue"] == res.min_eigenvalue
        realign = realignment_criterion(scan)
        assert len(report["realignment"]["results"]) == len(realign)
        for row, (mask, res) in zip(report["realignment"]["results"], realign.items()):
            assert row["mask"] == mask
            assert row["shape"] == list(layout(rho.dims, mask)[1])
            assert row["violating"] == res.violating
            assert row["trace_norm"] == res.trace_norm
        for k, value in enumerate(report["negativity_per_subsystem"]):
            assert value == negativity(scan, k)

    def test_analyze_solves_each_subset_once(self, monkeypatch):
        calls = count_solver_calls(monkeypatch)
        rho = random_density((2, 3, 2), seed=8)
        report = build_analyze_report(rho, "")
        assert report["scan"]["subsets_evaluated"] == 32
        # each symmetry class is solved once
        assert len(calls) == class_count(3)
        # partial transpositions are their own representatives: all solved
        assert calls.count("eigvalsh") == sum(
            row["hermitian_case"] for row in report["scan"]["results"]
        )


def count_solver_calls(monkeypatch) -> list:
    """Record the name of every SVD and eigvalsh call from now on."""
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "svd", counted(np.linalg.svd))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted(np.linalg.eigvalsh))
    return calls


def class_count(n: int) -> int:
    """Orbits of the complement and swap symmetries on 2n-bit masks (Burnside)."""
    return (4**n + 2 * 2**n) // 4


def swap_labels(mask: int, n: int) -> int:
    """Exchange r_k and c_k of every subsystem, bit by bit."""
    out = 0
    for k in range(n):
        out |= (mask >> (2 * k) & 1) << (2 * k + 1) | (mask >> (2 * k + 1) & 1) << (2 * k)
    return out


class TestSymmetryClasses:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_class_count_by_enumeration(self, n):
        full = (1 << (2 * n)) - 1
        classes = {
            frozenset((m, full ^ m, swap_labels(m, n), full ^ swap_labels(m, n)))
            for m in range(full + 1)
        }
        assert len(classes) == class_count(n)
        # the representative is the smallest member, and a deduped row
        assert sorted(min(c) for c in classes) == sorted(
            {representative(m, n) for m in range(full + 1)}
        )
        assert all(min(c) < 1 << (2 * n - 1) for c in classes)

    @pytest.mark.parametrize(
        "dims", [(2,), (2, 2), (2, 3), (2, 2, 2), (2, 3, 2), (2, 2, 2, 2)]
    )
    def test_scan_solves_each_class_once(self, monkeypatch, dims):
        rho = random_density(dims, seed=len(dims))
        calls = count_solver_calls(monkeypatch)
        scan = gpt_scan(rho)
        assert len(scan.results) == 1 << (2 * len(dims) - 1)
        assert len(calls) == class_count(len(dims))
        # every partial transposition is still solved by eigvalsh
        assert calls.count("eigvalsh") == sum(
            r.min_eigenvalue is not None for r in scan.results
        )

    @pytest.mark.parametrize("dims", [(2, 3), (3, 2), (2, 2, 2), (2, 3, 2)])
    def test_rows_read_their_representative_bitwise(self, dims):
        rho = random_density(dims, seed=sum(dims))
        scan = gpt_scan(rho)
        n = len(dims)
        for mask, row in enumerate(scan.results):
            rep = scan.results[representative(mask, n)]
            assert row.trace_norm == rep.trace_norm
            assert row.violating == rep.violating
            assert row.min_eigenvalue == rep.min_eigenvalue
            assert (row.min_eigenvalue is None) == (rep.min_eigenvalue is None)
            assert layout(dims, mask)[1] == generalized_transpose(rho, mask).shape

    @pytest.mark.parametrize("dims", [(2,), (2, 2), (2, 2, 2), (2, 2, 2, 2), (2,) * 6])
    def test_each_class_is_one_row_object(self, dims):
        # the rows of a class are one object; a row stores no mask to rename
        n = len(dims)
        scan = gpt_scan(random_density(dims, seed=n))
        assert len({id(row) for row in scan.results}) == class_count(n)  # 2 6 20 72 1056
        assert scan.argmax == representative(scan.argmax, n)
        if n in (2, 3):
            for mask in range(1 << (2 * n)):
                assert scan.lookup(mask) is scan.results[representative(mask, n)]

    def test_stored_matrix_is_bitwise_hermitian(self):
        rng = np.random.default_rng(12)
        noise = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        mat = random_state(12, rng) + 1e-13 * (noise - noise.conj().T)  # anti-Hermitian
        rho = DensityMatrix(mat, (2, 3, 2))
        assert np.array_equal(rho.mat, rho.mat.conj().T)
        assert rho.hermiticity_residual() == float(np.abs(mat - mat.conj().T).max()) > 0


class TestWitness:
    """The dual form of a violation: the witness of ``reference.naive_witness``
    at the scan's argmax row checks the certificate without the scan's SVD."""

    @pytest.mark.parametrize(
        "spec",
        ["bell:psi-", "werner:0.5", "isotropic:3,0.4", "horodecki3x3:0.5", "ghz:3", "w:3",
         "randomdm:3x3,2,1"],
    )
    def test_argmax_witness_separates_the_state_from_product_states(self, spec):
        rho = generate(spec)
        scan = gpt_scan(rho)
        flips = all_flip_sets(len(rho.dims))[scan.argmax][1]
        w = naive_witness(rho.mat, rho.dims, flips)
        assert np.array_equal(w, w.conj().T)
        value = np.trace(w @ rho.mat)
        assert abs(value.imag) <= 1e-12
        assert value.real < 0
        assert abs(value.real - (1 - scan.max_norm)) <= 1e-12
        dims = "x".join(map(str, rho.dims))
        for seed in range(200):
            sigma = generate(f"productrandom:{dims},{seed}").mat
            assert np.trace(w @ sigma).real >= -1e-12, seed
