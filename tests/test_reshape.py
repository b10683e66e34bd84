"""Tests for the index-relabeling engine."""

import numpy as np
import pytest

from entscan import (
    DensityMatrix,
    InvalidInputError,
    bell_state,
    enumerate_label_subsets,
    format_label_set,
    generalized_transpose,
    ghz_state,
    gpt_scan,
    parse_label_set,
    realignment_criterion,
    separable_mixture,
    singular_values,
    trace_norm,
)
from entscan.reshape import complement, cut_mask, layout, pt_mask, subsystem_letters, swap

from reference import (
    all_flip_sets,
    naive_generalized_transpose,
    naive_label_text,
    naive_partial_transpose,
    naive_realign,
    naive_trace_norm,
    random_state,
    vec,
)


def two_qubit_state_with_distinct_entries():
    """Hermitian trace-1 4x4 matrix whose 16 entries are all distinguishable."""
    mat = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        for j in range(i + 1, 4):
            mat[i, j] = (i + 1) + (j + 1) * 1j
            mat[j, i] = mat[i, j].conjugate()
    np.fill_diagonal(mat, [0.1, 0.2, 0.3, 0.4])
    return DensityMatrix(mat, (2, 2))


def flips_both_or_neither(mask, n):
    """True when each subsystem's r and c bits are equal: a partial transposition."""
    return all((mask >> (2 * k) & 1) == (mask >> (2 * k + 1) & 1) for k in range(n))


class TestPrintedLayouts:
    """The realignment and the single-system row/column transposes must land
    entries in the exact documented positions (no tolerance)."""

    def test_realign_4x4_block_layout(self):
        rho = two_qubit_state_with_distinct_entries()
        m = rho.mat
        expected = np.array(
            [
                [m[0, 0], m[1, 0], m[0, 1], m[1, 1]],
                [m[2, 0], m[3, 0], m[2, 1], m[3, 1]],
                [m[0, 2], m[1, 2], m[0, 3], m[1, 3]],
                [m[2, 2], m[3, 2], m[2, 3], m[3, 3]],
            ]
        )
        assert np.array_equal(generalized_transpose(rho, 0b0110), expected)  # {cA,rB}

    def test_row_transposition_of_single_system(self):
        a = np.array([[0.5, 0.1 + 0.2j], [0.1 - 0.2j, 0.5]])
        rho = DensityMatrix(a, (2,))
        out = generalized_transpose(rho, 0b01)  # {rA}
        assert out.shape == (1, 4)
        assert np.array_equal(
            out, np.array([[a[0, 0], a[1, 0], a[0, 1], a[1, 1]]])
        )
        # row transposition is the transposed column-stacking
        assert np.array_equal(out, vec(a).T)

    def test_column_transposition_of_single_system(self):
        a = np.array([[0.5, 0.1 + 0.2j], [0.1 - 0.2j, 0.5]])
        rho = DensityMatrix(a, (2,))
        out = generalized_transpose(rho, 0b10)  # {cA}
        assert out.shape == (4, 1)
        assert np.array_equal(out, vec(a))

    def test_row_then_column_is_global_transpose(self):
        a = np.array([[0.5, 0.1 + 0.2j], [0.1 - 0.2j, 0.5]])
        rho = DensityMatrix(a, (2,))
        out = generalized_transpose(rho, 0b11)  # {rA,cA}
        assert np.array_equal(out, a.T)


class TestGeneralizedTranspose:
    def test_empty_set_is_identity(self):
        rho = two_qubit_state_with_distinct_entries()
        out = generalized_transpose(rho, 0)
        assert out.shape == (4, 4)
        assert np.array_equal(out, rho.mat)

    def test_full_set_is_global_transpose(self):
        rng = np.random.default_rng(0)
        rho = DensityMatrix(random_state(6, rng), (2, 3))
        out = generalized_transpose(rho, 0b1111)
        assert np.array_equal(out, rho.mat.T)

    def test_matches_naive_on_all_subsets(self):
        rng = np.random.default_rng(1)
        for dims in [(2, 2), (2, 3), (2, 2, 2)]:
            side = int(np.prod(dims))
            rho = DensityMatrix(random_state(side, rng), dims)
            for mask, flips in all_flip_sets(len(dims)):
                # the engine holds the Hermitian part of the input
                expected = naive_generalized_transpose(rho.mat, dims, flips)
                got = generalized_transpose(rho, mask)
                assert got.shape == expected.shape
                assert np.array_equal(got, expected), (dims, mask)

    def test_realign_special_case(self):
        rng = np.random.default_rng(2)
        for dims in [(2, 2), (2, 3), (3, 3)]:
            rho = DensityMatrix(random_state(int(np.prod(dims)), rng), dims)
            via_subset = generalized_transpose(rho, parse_label_set("cA,rB", 2))
            assert np.array_equal(via_subset, naive_realign(rho.mat, dims))

    def test_partial_transpose_special_case(self):
        rng = np.random.default_rng(3)
        rho = DensityMatrix(random_state(8, rng), (2, 2, 2))
        for subs in ([0], [1], [2], [0, 2]):
            mask = sum(0b11 << (2 * k) for k in subs)
            via_subset = generalized_transpose(rho, mask)
            assert np.array_equal(via_subset, naive_partial_transpose(rho.mat, (2, 2, 2), subs))

    def test_unknown_subsystem_rejected(self):
        rho = bell_state("phi+")
        with pytest.raises(InvalidInputError, match=r"^mask 1024 out of range \[0, 16\)"):
            generalized_transpose(rho, 1 << 10)  # rF

    def test_outputs_are_read_only(self):
        rho = ghz_state(3)
        outputs = [
            generalized_transpose(rho, 0),  # a view of rho.mat
            generalized_transpose(rho, 0b100110),  # a fresh copy
            generalized_transpose(bell_state("psi-"), 0b0110),  # realignment
            generalized_transpose(rho, 0b1100),  # partial transpose of B
        ]
        for out in outputs:
            assert not out.flags.writeable

    def test_complement_symmetry(self):
        rng = np.random.default_rng(5)
        for dims in [(2, 2), (2, 3)]:
            n = len(dims)
            rho = DensityMatrix(random_state(int(np.prod(dims)), rng), dims)
            full = (1 << (2 * n)) - 1
            for mask in range(1 << 2 * n):
                s_y = singular_values(generalized_transpose(rho, mask))
                s_c = singular_values(generalized_transpose(rho, full ^ mask))
                assert np.max(np.abs(s_y - s_c)) < 1e-10

    def test_ordering_insensitivity_of_trace_norm(self):
        rng = np.random.default_rng(6)
        mat = random_state(6, rng)
        rho = DensityMatrix(mat, (2, 3))
        for mask, flips in all_flip_sets(2):
            base = trace_norm(generalized_transpose(rho, mask))
            for kwargs in ({"c_slower": False}, {"ascending": False}):
                alt = naive_trace_norm(
                    naive_generalized_transpose(mat, (2, 3), flips, **kwargs)
                )
                assert abs(alt - base) < 1e-12

    def test_hermitian_subsets_give_hermitian_norm_at_least_one(self):
        rng = np.random.default_rng(7)
        rho = DensityMatrix(random_state(6, rng), (2, 3))
        for mask in range(1 << 2 * 2):
            if not flips_both_or_neither(mask, 2):
                continue
            out = generalized_transpose(rho, mask)
            assert out.shape[0] == out.shape[1]
            assert np.max(np.abs(out - out.conj().T)) < 1e-12
            assert trace_norm(out) >= 1.0 - 1e-10

    def test_pure_product_states_have_unit_norm_everywhere(self):
        for dims, seed in [((2, 2), 11), ((2, 3), 12), ((2, 2, 2), 13)]:
            rho = separable_mixture(dims, 1, seed=seed)
            for mask in range(1 << 2 * len(dims)):
                norm = trace_norm(generalized_transpose(rho, mask))
                assert abs(norm - 1.0) < 1e-10


class TestRealign:
    """Realignment of a bipartite state: the transpose of {cA,rB}, mask 0b0110."""

    def test_against_naive_blocks(self):
        rng = np.random.default_rng(8)
        for dims in [(2, 2), (3, 2), (2, 4)]:
            rho = DensityMatrix(random_state(int(np.prod(dims)), rng), dims)
            expected = naive_realign(rho.mat, dims)
            assert np.array_equal(generalized_transpose(rho, 0b0110), expected)

    def test_kronecker_factorization(self):
        # realignment of a product is the outer product of the stacked factors
        rng = np.random.default_rng(9)
        a = random_state(2, rng)
        b = random_state(3, rng)
        rho = DensityMatrix(np.kron(a, b), (2, 3))
        expected = vec(a) @ vec(b).T
        assert np.max(np.abs(generalized_transpose(rho, 0b0110) - expected)) < 1e-12

    def test_bell_norm(self):
        assert abs(trace_norm(generalized_transpose(bell_state("psi-"), 0b0110)) - 2.0) < 1e-12

    def test_maximally_mixed_norm(self):
        rho = DensityMatrix(np.eye(4) / 4, (2, 2))
        assert abs(trace_norm(generalized_transpose(rho, 0b0110)) - 0.5) < 1e-12


class TestPartialTranspose:
    """Partial transposition of subsystems S: the transpose of both labels of
    each subsystem in S, mask sum(3 << 2k for k in S)."""

    def test_global_transpose_preserves_spectrum(self):
        rng = np.random.default_rng(10)
        rho = DensityMatrix(random_state(6, rng), (2, 3))
        out = generalized_transpose(rho, 0b1111)
        assert np.array_equal(out, rho.mat.T)
        assert np.allclose(
            np.linalg.eigvalsh(out), np.linalg.eigvalsh(rho.mat), atol=1e-12
        )

    def test_bell_minimum_eigenvalue(self):
        out = generalized_transpose(bell_state("psi-"), 0b0011)
        assert abs(np.linalg.eigvalsh(out).min() + 0.5) < 1e-12

    def test_separable_states_stay_psd(self):
        for seed in range(10):
            rho = separable_mixture((2, 3), 4, seed=seed)
            for mask in (0b0011, 0b1100):  # {rA,cA}, {rB,cB}
                low = np.linalg.eigvalsh(generalized_transpose(rho, mask)).min()
                assert low > -1e-9

    def test_hermiticity_preserved(self):
        rng = np.random.default_rng(12)
        rho = DensityMatrix(random_state(8, rng), (2, 2, 2))
        for mask in (0b000011, 0b111100):  # A; B and C
            out = generalized_transpose(rho, mask)
            assert np.max(np.abs(out - out.conj().T)) < 1e-12

    def test_against_naive(self):
        rng = np.random.default_rng(13)
        mat = random_state(8, rng)
        rho = DensityMatrix(mat, (2, 2, 2))
        for subs in ([0], [1], [2], [0, 1], [0, 2]):
            mask = sum(3 << (2 * k) for k in subs)
            assert np.array_equal(
                generalized_transpose(rho, mask), naive_partial_transpose(mat, (2, 2, 2), subs)
            )


class TestCutAndRealign:
    """Realignment across the cuts of a multipartite state, as the rows of
    ``realignment_criterion`` (one per cut X|X^c with subsystem 0 in X)."""

    def test_bipartite_cut_equals_realign(self):
        rng = np.random.default_rng(14)
        rho = DensityMatrix(random_state(6, rng), (2, 3))
        ((mask, row),) = realignment_criterion(gpt_scan(rho)).items()
        assert layout(rho.dims, mask)[1] == generalized_transpose(rho, 0b0110).shape
        assert abs(row.trace_norm - trace_norm(generalized_transpose(rho, 0b0110))) < 1e-12

    def test_ghz_first_vs_rest_norm(self):
        mask, row = list(realignment_criterion(gpt_scan(ghz_state(3))).items())[0]  # A|BC
        assert layout((2, 2, 2), mask)[1] == (4, 16)
        assert abs(row.trace_norm - 2.0) < 1e-12

    def test_product_state_cuts_stay_bounded(self):
        rng = np.random.default_rng(15)
        mats = [random_state(2, rng) for _ in range(3)]
        mat = np.kron(np.kron(mats[0], mats[1]), mats[2])
        rho = DensityMatrix(mat, (2, 2, 2))
        rows = realignment_criterion(gpt_scan(rho))
        assert len(rows) == 3  # A|BC, AB|C, AC|B: every block and its complement
        for row in rows.values():
            assert row.trace_norm <= 1.0 + 1e-10

    def test_non_contiguous_block_against_naive(self):
        rng = np.random.default_rng(16)
        mat = random_state(8, rng)
        rho = DensityMatrix(mat, (2, 2, 2))
        # fuse subsystems {0, 2} by hand: permute to order (0, 2, 1), then realign
        tensor = rho.mat.reshape((2,) * 6)
        regrouped = tensor.transpose(0, 2, 1, 3, 5, 4).reshape(8, 8)
        expected = naive_trace_norm(naive_realign(regrouped, (4, 2)))
        mask, row = list(realignment_criterion(gpt_scan(rho)).items())[2]  # AC|B
        assert layout(rho.dims, mask)[1] == (16, 4)
        assert abs(row.trace_norm - expected) < 1e-12


class TestMaskVocabulary:
    """reshape's mask rules against the label sets of ``reference.all_flip_sets``."""

    @pytest.mark.parametrize("dims", [(2, 3, 2), (3, 3)])
    def test_layout_places_entries_like_the_naive_transpose(self, dims):
        side = int(np.prod(dims))
        index = np.arange(side * side).reshape(side, side)
        for mask, flips in all_flip_sets(len(dims)):
            axes, shape = layout(dims, mask)
            got = index.reshape(dims * 2).transpose(axes).reshape(shape)
            expected = naive_generalized_transpose(index, dims, flips)
            assert shape == expected.shape, mask
            assert np.array_equal(got, expected.real.astype(int)), mask

    def test_layout_refuses_a_mask_naming_no_label(self):
        with pytest.raises(InvalidInputError, match=r"^mask 16 out of range \[0, 16\) for 2 "):
            layout((2, 3), 16)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_symmetries_and_criteria_masks_name_their_label_sets(self, n):
        mask_of = {flips: mask for mask, flips in all_flip_sets(n)}
        labels = frozenset((kind, k) for kind in "rc" for k in range(n))
        other = {"r": "c", "c": "r"}
        for mask, flips in all_flip_sets(n):
            assert complement(mask, n) == mask_of[labels - flips]
            assert swap(mask, n) == mask_of[frozenset((other[kind], k) for kind, k in flips)]
            assert (swap(mask, n) == mask) == flips_both_or_neither(mask, n)
        for x in range(1 << n):
            inside = [k for k in range(n) if x >> k & 1]
            assert pt_mask(x) == mask_of[frozenset((kind, k) for kind in "rc" for k in inside)]
            cut = {("c", k) if k in inside else ("r", k) for k in range(n)}
            assert cut_mask(x, n) == mask_of[frozenset(cut)]

    @pytest.mark.parametrize(
        "mask, n, bits, letters",
        [
            (0, 3, 3, ""),
            (0b0110, 2, 2, "A"),  # {cA,rB}: c labels
            (0b0110, 2, 1, "B"),  # r labels
            (0b0110, 2, 3, "AB"),
            (0b110011, 3, 3, "AC"),  # partial transposition of A and C
            (0b100110, 3, 2, "AC"),  # {cA,rB,cC}
            (0b100110, 3, 1, "B"),
            (3 << 22, 12, 3, "L"),
            (2 << 22, 12, 1, ""),
            ((1 << 24) - 1, 12, 1, "ABCDEFGHIJKL"),
        ],
    )
    def test_subsystem_letters(self, mask, n, bits, letters):
        assert subsystem_letters(mask, n, bits) == letters

    def test_subsystem_letters_refuses_a_mask_naming_no_label(self):
        # bit 40 is no label of two subsystems; unchecked, it read as no letter
        with pytest.raises(InvalidInputError, match=r"^mask 1099511627776 out of range \[0, 16\) "):
            subsystem_letters(1 << 40, 2, 3)


class TestEnumeration:
    def test_single_subsystem(self):
        subsets = enumerate_label_subsets(1)
        assert list(subsets) == [0, 1]
        assert subsets[0] == parse_label_set("", 1)
        assert subsets[1] == parse_label_set("rA", 1)
        assert parse_label_set("cA", 1) == 2
        assert parse_label_set("rA,cA", 1) == 3

    def test_counts(self):
        assert len(enumerate_label_subsets(2)) == 8
        assert len(enumerate_label_subsets(3)) == 32
        for n in range(1, 7):
            assert len(enumerate_label_subsets(n)) == 1 << (2 * n - 1)

    def test_dedupe_keeps_smaller_mask(self):
        n = 2
        full = (1 << (2 * n)) - 1
        kept = set(enumerate_label_subsets(n))
        for mask in kept:
            assert mask <= (full ^ mask)
        all_masks = kept | {full ^ m for m in kept}
        assert all_masks == set(range(16))

    def test_scan_limit(self):
        with pytest.raises(InvalidInputError, match="scan limit"):
            enumerate_label_subsets(7)

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidInputError, match="at least one"):
            enumerate_label_subsets(0)


class TestLabelText:
    def test_round_trip(self):
        mask = parse_label_set("cA,rB", 2)
        assert mask == 0b0110  # bit 2k = r_k, bit 2k + 1 = c_k
        assert format_label_set(mask, 2) == "cA,rB"

    def test_every_mask_round_trips(self):
        for n in (1, 2, 3):
            for mask in range(1 << (2 * n)):
                assert parse_label_set(format_label_set(mask, n), n) == mask

    @pytest.mark.parametrize("n", [1, 4, 6, 12])
    def test_matches_the_bit_loop(self, n):
        # 12 subsystems, the most a state has (MAX_SUBSYSTEMS), name A to L
        masks = range(1 << (2 * n)) if n <= 6 else (0, 5, 3 << 22, (1 << 24) - 1)
        for mask in masks:
            assert format_label_set(mask, n) == naive_label_text(mask, n)

    def test_display_order_r_before_c(self):
        mask = parse_label_set("cA,rA", 2)
        assert format_label_set(mask, 2) == "rA,cA"

    def test_empty(self):
        assert parse_label_set("", 2) == 0
        assert format_label_set(0, 2) == ""

    def test_unknown_subsystem(self):
        with pytest.raises(InvalidInputError, match="only 2"):
            parse_label_set("rC", 2)

    def test_bad_token(self):
        with pytest.raises(InvalidInputError, match="unknown label"):
            parse_label_set("xA", 2)

    @pytest.mark.parametrize("text", ["r\u00df", "c\ufb01", "r\u0130"])
    def test_non_ascii_letter_rejected(self, text):
        # the first two upper-case to two characters ("SS", "FI"); the last is
        # a letter outside A-Z
        with pytest.raises(InvalidInputError, match="unknown label"):
            parse_label_set(text, 2)

    def test_duplicate(self):
        with pytest.raises(InvalidInputError, match="duplicate"):
            parse_label_set("rA,rA", 2)

    @pytest.mark.parametrize("mask", [16, 0b0110 | 1 << 9, -1], ids=["rC", "cA,rB,cE", "negative"])
    def test_refuses_a_mask_naming_no_label(self, mask):
        # two subsystems have labels at bits 0-3 only; a higher bit was
        # dropped from the text, and 16 printed as the empty set
        with pytest.raises(InvalidInputError, match=rf"^mask {mask} out of range \[0, 16\) for 2 "):
            format_label_set(mask, 2)

    @pytest.mark.parametrize(
        "read", [lambda: format_label_set(3 << 52, 27), lambda: subsystem_letters(3 << 24, 13, 3)],
        ids=["format_label_set", "subsystem_letters"],
    )
    def test_refuses_more_subsystems_than_a_state_has(self, read):
        # no state has more than MAX_SUBSYSTEMS = 12; past Z the letters ran
        # on into punctuation, so 27 subsystems printed "r[,c["
        with pytest.raises(InvalidInputError, match=r"^(13|27) subsystems: more than 12$"):
            read()
