"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute. Tolerances are pinned here and deliberately not imported
from the package, so a drifting constant cannot silently weaken a check.
"""

import json

import numpy as np
import pytest

from entscan import (
    DensityMatrix,
    Verdict,
    bell_state,
    evaluate_subset,
    generalized_transpose,
    gpt_scan,
    horodecki_2x4,
    horodecki_3x3,
    negativity,
    ppt_criterion,
    random_density,
    realignment_criterion,
    separable_mixture,
    singular_values,
    trace_norm,
    werner_state,
)
from entscan.cli import main

from reference import (
    all_flip_sets,
    naive_generalized_transpose,
    naive_partial_transpose,
    naive_realign,
    naive_trace_norm,
    naive_witness,
    random_local_unitary,
    random_state,
    vec,
)


def criterion(number, text, passed):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {number:02d}: {text}")
    assert passed, f"criterion {number:02d} failed: {text}"


def test_criterion_01_printed_reshape_layouts():
    mat = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        for j in range(i + 1, 4):
            mat[i, j] = (i + 1) + (j + 1) * 1j
            mat[j, i] = mat[i, j].conjugate()
    np.fill_diagonal(mat, [0.1, 0.2, 0.3, 0.4])
    rho = DensityMatrix(mat, (2, 2))
    expected_realign = np.array(
        [
            [mat[0, 0], mat[1, 0], mat[0, 1], mat[1, 1]],
            [mat[2, 0], mat[3, 0], mat[2, 1], mat[3, 1]],
            [mat[0, 2], mat[1, 2], mat[0, 3], mat[1, 3]],
            [mat[2, 2], mat[3, 2], mat[2, 3], mat[3, 3]],
        ]
    )
    ok = np.array_equal(generalized_transpose(rho, 0b0110), expected_realign)  # {cA,rB}
    ok = ok and np.array_equal(naive_realign(mat, (2, 2)), expected_realign)

    a = np.array([[0.5, 0.25 + 0.25j], [0.25 - 0.25j, 0.5]])
    single = DensityMatrix(a, (2,))
    row = generalized_transpose(single, 0b01)  # {rA}
    col = generalized_transpose(single, 0b10)  # {cA}
    ok = ok and np.array_equal(row, np.array([[a[0, 0], a[1, 0], a[0, 1], a[1, 1]]]))
    ok = ok and np.array_equal(col, vec(a))
    criterion(1, "realignment and row/column transposes match the printed layouts exactly", ok)


def test_criterion_02_separable_ensembles_never_violate():
    checked = 0
    worst = 0.0
    for dims in [(2, 2), (2, 3), (2, 2, 2)]:
        for seed in range(70):
            rho = separable_mixture(dims, 2 + seed % 9, seed=seed)
            # every one of the 4^n masks, each solved on its own
            norm = max(
                evaluate_subset(rho, mask)[0] for mask in range(1 << 2 * len(dims))
            )
            worst = max(worst, norm)
            if norm > 1.0 + 1e-9:
                criterion(2, f"separable mixture {dims} seed {seed} violated", False)
            checked += 1
    criterion(
        2,
        f"{checked} separable mixtures: every enumerated subset norm <= 1 + 1e-9 "
        f"(worst {worst:.12f})",
        checked >= 200 and worst <= 1.0 + 1e-9,
    )


def test_criterion_03_bell_singlet_values():
    rho = bell_state("psi-")
    pt = generalized_transpose(rho, 0b11)  # {rA,cA}
    realigned = generalized_transpose(rho, 0b0110)  # {cA,rB}
    pt_norm = trace_norm(pt)
    neg = negativity(gpt_scan(rho), 0)
    realign_norm = trace_norm(realigned)
    e_val = gpt_scan(rho).measure_e
    ok = (
        np.array_equal(pt, naive_partial_transpose(rho.mat, (2, 2), [0]))
        and np.array_equal(realigned, naive_realign(rho.mat, (2, 2)))
        and abs(pt_norm - 2.0) <= 1e-9
        and abs(neg - 0.5) <= 1e-9
        and abs(realign_norm - 2.0) <= 1e-9
        and abs(e_val - 0.5) <= 1e-9
    )
    criterion(
        3,
        f"singlet: PT norm {pt_norm:.12f}, negativity {neg:.12f}, "
        f"realignment norm {realign_norm:.12f}, E {e_val:.12f}",
        ok,
    )


def test_criterion_04_werner_threshold(capsys):
    code = main(["scan-family", "werner", "--min", "0", "--max", "1", "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    # independent oracle: the partial-transpose eigenvalue (1 - 3p)/4 turns
    # negative exactly at p = 1/3
    analytic = 1.0 / 3.0
    ok = code == 0 and abs(report["threshold"] - analytic) <= 1e-6
    norm_ok = True
    for p in np.linspace(0.4, 1.0, 13):
        got = trace_norm(generalized_transpose(werner_state(float(p)), 0b11))
        if abs(got - (1 + 3 * p) / 2) > 1e-9:
            norm_ok = False
    with capsys.disabled():
        criterion(
            4,
            f"Werner threshold {report['threshold']!r} vs analytic 1/3, "
            f"PT norms match (1+3p)/2 above it: {norm_ok}",
            ok and norm_ok,
        )


def test_criterion_05_special_case_equivalences():
    rng = np.random.default_rng(505)
    ok = True
    for trial in range(100):
        dims = [(2, 2), (2, 3), (2, 2, 2)][trial % 3]
        rho = DensityMatrix(random_state(int(np.prod(dims)), rng), dims)
        if len(dims) == 2:
            via_labels = generalized_transpose(rho, 0b0110)  # {cA,rB}
            ok = ok and np.array_equal(via_labels, naive_realign(rho.mat, dims))
        for k in range(len(dims)):
            via_subset = generalized_transpose(rho, 0b11 << (2 * k))  # {rK,cK}
            ok = ok and np.array_equal(via_subset, naive_partial_transpose(rho.mat, dims, [k]))
    criterion(5, "100 random states: realignment and partial-transpose "
                 "label subsets agree entrywise (exact)", ok)


def test_criterion_06_complement_symmetry():
    rng = np.random.default_rng(606)
    worst = 0.0
    for dims in [(2, 2), (2, 3)]:
        for _ in range(20):
            rho = DensityMatrix(random_state(int(np.prod(dims)), rng), dims)
            for mask in range(1 << 2 * 2):
                s_y = singular_values(generalized_transpose(rho, mask))
                s_c = singular_values(generalized_transpose(rho, 0b1111 ^ mask))
                worst = max(worst, float(np.max(np.abs(s_y - s_c))))
    criterion(
        6,
        f"singular spectra of every subset/complement pair agree (worst gap {worst:.2e})",
        worst <= 1e-10,
    )


def test_criterion_07_local_unitary_invariance():
    worst_norm_gap = 0.0
    worst_e_gap = 0.0
    for trial in range(100):
        dims = (2, 2) if trial % 2 else (2, 3)
        rho = random_density(dims, seed=trial)
        u = random_local_unitary(dims, seed=10_000 + trial)
        rotated = DensityMatrix(u @ rho.mat @ u.conj().T, dims)
        base = gpt_scan(rho)
        moved = gpt_scan(rotated)
        for a, b in zip(base.results, moved.results):
            worst_norm_gap = max(worst_norm_gap, abs(a.trace_norm - b.trace_norm))
        worst_e_gap = max(worst_e_gap, abs(base.measure_e - moved.measure_e))
    criterion(
        7,
        f"100 local-unitary conjugations: per-subset norm gap {worst_norm_gap:.2e}, "
        f"E gap {worst_e_gap:.2e}",
        worst_norm_gap <= 1e-8 and worst_e_gap <= 1e-8,
    )


def test_criterion_08_bound_entangled_3x3_detected_by_realignment():
    grid = [round(0.1 * k, 1) for k in range(1, 10)]
    ppt_ok = True
    detected = True
    for a in grid:
        rho = horodecki_3x3(a)
        for mask in (0b0011, 0b1100):  # {rA,cA}, {rB,cB}
            if np.linalg.eigvalsh(generalized_transpose(rho, mask)).min() < -1e-9:
                ppt_ok = False
        # the family is entangled on the whole interior of [0, 1]; direct SVD
        # puts the realignment norm above 1 across this entire grid
        if trace_norm(generalized_transpose(rho, 0b0110)) <= 1.0 + 1e-9:
            detected = False
    criterion(
        8,
        "3x3 bound entangled family: PPT-positive on the grid yet realignment "
        "norm > 1 + 1e-9 everywhere",
        ppt_ok and detected,
    )


def test_criterion_09_bound_entangled_2x4_undetected():
    grid = [round(0.1 * k, 1) for k in range(1, 10)]
    ok = True
    worst = 0.0
    for b in grid:
        report = gpt_scan(horodecki_2x4(b))
        worst = max(worst, report.max_norm)
        ok = ok and report.verdict is Verdict.UNDETECTED and report.max_norm <= 1.0 + 1e-9
    criterion(
        9,
        f"2x4 bound entangled family: UNDETECTED by every subset on the grid "
        f"(max norm {worst:.12f})",
        ok,
    )


def test_criterion_10_measure_ordering_and_convexity():
    ordering_ok = True
    for trial in range(200):
        dims = (2, 2) if trial % 2 else (2, 3)
        rank = 1 + trial % int(np.prod(dims))
        rho = random_density(dims, rank=rank, seed=trial)
        e_val = gpt_scan(rho).measure_e
        best_neg = max(negativity(gpt_scan(rho), k) for k in range(len(dims)))
        if e_val < best_neg - 1e-10:
            ordering_ok = False

    zero_ok = True
    separable = [separable_mixture((2, 2), 1 + s % 8, seed=s) for s in range(30)]
    separable += [werner_state(p) for p in (0.0, 0.2, 1 / 3)]
    from entscan import max_mixed, random_product_state

    separable += [max_mixed((2, 3)), max_mixed((2, 2, 2))]
    separable += [random_product_state((2, 2, 2), seed=s) for s in range(10)]
    for rho in separable:
        if gpt_scan(rho).measure_e != 0.0:
            zero_ok = False

    convex_ok = True
    rng = np.random.default_rng(1010)
    for pair in range(100):
        rho1 = random_density((2, 2), seed=2000 + pair)
        rho2 = random_density((2, 2), seed=3000 + pair)
        lam = float(rng.random())
        blend = DensityMatrix(lam * rho1.mat + (1 - lam) * rho2.mat, (2, 2))
        bound = lam * gpt_scan(rho1).measure_e + (1 - lam) * gpt_scan(rho2).measure_e
        if gpt_scan(blend).measure_e > bound + 1e-9:
            convex_ok = False

    criterion(
        10,
        f"E >= max negativity on 200 states: {ordering_ok}; E == 0 exactly on "
        f"{len(separable)} separable states: {zero_ok}; convex on 100 pairs: {convex_ok}",
        ordering_ok and zero_ok and convex_ok,
    )


def test_criterion_11_vec_identity_and_kron_singular_values():
    rng = np.random.default_rng(1111)
    vec_ok = True
    for _ in range(100):
        x, y, z = (
            rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            for _ in range(3)
        )
        gap = np.max(np.abs(vec(x @ y @ z) - np.kron(z.T, x) @ vec(y)))
        if gap > 1e-12:
            vec_ok = False
    kron_ok = True
    for _ in range(100):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        products = np.sort(np.outer(singular_values(a), singular_values(b)).ravel())[::-1]
        if np.max(np.abs(products - singular_values(np.kron(a, b)))) > 1e-10:
            kron_ok = False
    criterion(
        11,
        f"column-stacking identity with np.kron on 100 triples: {vec_ok}; "
        f"np.kron singular values are the factors' products on 100 pairs: {kron_ok}",
        vec_ok and kron_ok,
    )


@pytest.mark.parametrize("fmt", ["human", "json"])
def test_criterion_12_deterministic_reports(capsys, fmt):
    outputs = []
    for _ in range(4):
        code = main(["analyze", "randomdm:2x2x2,5,77", "--format", fmt])
        outputs.append((code, capsys.readouterr().out))
    identical = all(out == outputs[0] for out in outputs[1:])
    with capsys.disabled():
        criterion(
            12,
            f"4 repeated analyze runs ({fmt}) are byte-identical",
            identical,
        )


def test_criterion_13_generalized_masks_detect_beyond_ppt_and_realignment():
    # horodecki3x3(a) x I/d_C: PPT, and every cut realignment puts both of C's
    # labels on one side, scaling its norm by ||I/d_C||_F = 1/sqrt(d_C) < 1;
    # the mask {cA,rB} keeps C a matrix, scaled by ||I/d_C||_1 = 1
    cases = []
    ok = True
    for d_c in (2, 3):
        for a in (0.1, 0.5, 0.9):
            rho = DensityMatrix(np.kron(horodecki_3x3(a).mat, np.eye(d_c) / d_c), (3, 3, d_c))
            scan = gpt_scan(rho)
            ppt_rows = ppt_criterion(scan)
            realign_rows = realignment_criterion(scan)
            flips = all_flip_sets(3)[0b0110][1]  # {cA,rB}
            naive = naive_trace_norm(naive_generalized_transpose(rho.mat, rho.dims, flips))
            witness = np.trace(naive_witness(rho.mat, rho.dims, flips) @ rho.mat).real
            realign_max = max(res.trace_norm for res in realign_rows)
            cases.append(f"d_C={d_c} a={a}: {{cA,rB}} norm 1{scan.max_norm - 1:+.1e}, "
                         f"max realignment {realign_max:.3f}")
            ok = (
                ok
                and scan.verdict is Verdict.ENTANGLED_CERTIFIED
                and scan.argmax.mask == 0b0110
                and scan.max_norm > 1.0 + 1e-9
                and abs(naive - scan.max_norm) <= 1e-12
                and witness < 0
                and len(ppt_rows) == 3 and not any(res.violating for res in ppt_rows)
                and len(realign_rows) == 3 and realign_max < 1.0
            )
    criterion(
        13,
        "horodecki3x3 x I/d_C: certified at {cA,rB}, checked by the naive transpose "
        "and a witness, while no PPT or cut-realignment row violates; " + "; ".join(cases),
        ok,
    )
