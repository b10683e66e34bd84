"""Tests for the state zoo, random generators, and spec text parsing."""

import re

import numpy as np
import pytest

from entscan import (
    InvalidInputError,
    bell_state,
    generalized_transpose,
    generate,
    ghz_state,
    gpt_scan,
    horodecki_2x4,
    horodecki_3x3,
    isotropic_state,
    max_mixed,
    parse_state_spec,
    random_density,
    random_product_state,
    realignment_criterion,
    separable_mixture,
    spec_text,
    trace_norm,
    w_state,
    werner_state,
)
from entscan.states import _FAMILIES, StateSpec, subsystem_count

from reference import random_local_unitary


ALL_SPECS = [
    "bell:psi-",
    "bell:phi+",
    "ghz:3",
    "w:4",
    "werner:0.3",
    "isotropic:3,0.5",
    "horodecki3x3:0.4",
    "horodecki2x4:0.6",
    "maxmixed:2x3",
    "productrandom:2x2,3",
    "sepmix:2x2x2,5,9",
    "randomdm:2x3,4,17",
]


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_every_family_generates_a_valid_state(spec):
    rho = generate(spec)
    assert abs(rho.trace() - 1.0) < 1e-10
    assert rho.hermiticity_residual() <= 1e-10
    assert np.linalg.eigvalsh(rho.mat).min() >= -1e-9


def test_subsystem_count_is_read_without_building_the_state():
    families = set()
    for spec in ALL_SPECS:
        parsed = parse_state_spec(spec)
        families.add(parsed.family)
        assert subsystem_count(parsed) == len(generate(spec).dims)
    assert families == set(_FAMILIES)


class TestZoo:
    def test_bell_conventions(self):
        # psi+- live on |01>, |10>; phi+- on |00>, |11>
        psi_minus = bell_state("psi-").mat
        assert abs(psi_minus[1, 1] - 0.5) < 1e-15
        assert abs(psi_minus[1, 2] + 0.5) < 1e-15
        assert abs(psi_minus[0, 0]) < 1e-15
        phi_plus = bell_state("phi+").mat
        assert abs(phi_plus[0, 3] - 0.5) < 1e-15

    def test_bell_rejects_unknown(self):
        with pytest.raises(InvalidInputError, match="unknown Bell"):
            bell_state("sigma+")

    def test_ghz_entries(self):
        rho = ghz_state(3)
        assert rho.dims == (2, 2, 2)
        assert abs(rho.mat[0, 0] - 0.5) < 1e-15
        assert abs(rho.mat[0, 7] - 0.5) < 1e-15

    def test_w_state_entries(self):
        rho = w_state(3)
        on = [1 << k for k in range(3)]
        for i in on:
            for j in on:
                assert abs(rho.mat[i, j] - 1 / 3) < 1e-15

    def test_werner_endpoints(self):
        assert np.max(np.abs(werner_state(1.0).mat - bell_state("psi-").mat)) < 1e-15
        assert np.max(np.abs(werner_state(0.0).mat - np.eye(4) / 4)) < 1e-15

    def test_werner_rejects_out_of_range(self):
        for p in (-0.1, 1.1):
            with pytest.raises(InvalidInputError, match=r"\[0, 1\]"):
                werner_state(p)

    def test_isotropic_fidelity(self):
        d, f = 3, 0.7
        rho = isotropic_state(d, f)
        ket = np.zeros(9)
        ket[[0, 4, 8]] = 1 / np.sqrt(3)
        overlap = float((ket @ rho.mat @ ket).real)
        assert abs(overlap - f) < 1e-12

    def test_max_mixed(self):
        rho = max_mixed((2, 3))
        assert rho.dims == (2, 3)
        assert np.array_equal(rho.mat, np.eye(6) / 6)


class TestBoundEntangledFamilies:
    """Transcription of the two bound entangled constructions is validated by
    their defining invariants, not trusted blindly: both must stay PSD under
    every partial transposition, and the 3x3 family must still be caught by
    realignment on the interior of its parameter range."""

    @pytest.mark.parametrize("a", [round(0.1 * k, 1) for k in range(1, 10)])
    def test_3x3_is_ppt_positive_yet_realignment_detected(self, a):
        rho = horodecki_3x3(a)
        assert np.linalg.eigvalsh(rho.mat).min() >= -1e-9
        for mask in (0b0011, 0b1100):  # {rA,cA}, {rB,cB}
            low = np.linalg.eigvalsh(generalized_transpose(rho, mask)).min()
            assert low >= -1e-9
        assert trace_norm(generalized_transpose(rho, 0b0110)) > 1.0 + 1e-9

    @pytest.mark.parametrize("b", [round(0.1 * k, 1) for k in range(1, 10)])
    def test_2x4_is_ppt_positive(self, b):
        rho = horodecki_2x4(b)
        assert rho.dims == (2, 4)
        assert np.linalg.eigvalsh(rho.mat).min() >= -1e-9
        for mask in (0b0011, 0b1100):  # {rA,cA}, {rB,cB}
            low = np.linalg.eigvalsh(generalized_transpose(rho, mask)).min()
            assert low >= -1e-9

    def test_endpoints_are_separable_shaped(self):
        # at the parameter endpoints realignment no longer flags the 3x3 family
        for a in (0.0, 1.0):
            rho = horodecki_3x3(a)
            assert trace_norm(generalized_transpose(rho, 0b0110)) <= 1.0 + 1e-9

    def test_parameter_range_enforced(self):
        for bad in (-0.2, 1.3):
            with pytest.raises(InvalidInputError, match=r"\[0, 1\]"):
                horodecki_3x3(bad)
            with pytest.raises(InvalidInputError, match=r"\[0, 1\]"):
                horodecki_2x4(bad)


class TestRandomGenerators:
    def test_seeded_generation_is_bit_reproducible(self):
        for spec in ("sepmix:2x3,4,11", "productrandom:2x2x2,5", "randomdm:4,2,3"):
            first = generate(spec)
            second = generate(spec)
            assert np.array_equal(first.mat, second.mat)

    def test_different_seeds_differ(self):
        a = separable_mixture((2, 2), 3, seed=1)
        b = separable_mixture((2, 2), 3, seed=2)
        assert np.max(np.abs(a.mat - b.mat)) > 1e-3

    def test_product_state_is_a_kronecker_product(self):
        rho = random_product_state((2, 3), seed=4)
        r = generalized_transpose(rho, 0b0110)  # {cA,rB}
        # product states realign to a rank-1 matrix
        s = np.linalg.svd(r, compute_uv=False)
        assert np.all(s[1:] < 1e-12)

    def test_separable_mixture_passes_realignment(self):
        for seed in range(25):
            rho = separable_mixture((2, 2), 6, seed=seed)
            (row,) = realignment_criterion(gpt_scan(rho)).values()
            assert not row.violating

    def test_random_density_rank_control(self):
        rho = random_density((2, 2), rank=2, seed=8)
        eigs = np.sort(np.linalg.eigvalsh(rho.mat))
        assert np.all(np.abs(eigs[:2]) < 1e-12)
        assert eigs[2] > 1e-6

    def test_random_density_rejects_bad_rank(self):
        with pytest.raises(InvalidInputError, match="rank"):
            random_density((2, 2), rank=5, seed=0)

    @pytest.mark.parametrize(
        "call",
        [lambda: random_density((2.5, 2)),
         lambda: max_mixed((2.9, 2)),
         lambda: ghz_state(3.7),
         lambda: w_state(3.7),
         lambda: separable_mixture((2, 2), 2.5),
         lambda: random_product_state(("2", 2)),
         lambda: random_density((2, 2), 2, 1.5),
         lambda: werner_state("0.5")],
        ids=["randomdm-dims", "maxmixed-dims", "ghz-qubits", "w-qubits", "sepmix-terms",
             "productrandom-dims", "randomdm-seed", "werner-string"],
    )
    def test_arguments_are_used_as_given(self, call):
        # int() and float() would read 2.5 as 2, 3.7 as 3 and "0.5" as 0.5,
        # building a different state from the one asked for
        with pytest.raises((TypeError, InvalidInputError)):
            call()

    # the local-unitary generator of tests/reference.py, which the
    # invariance tests draw from
    def test_local_unitary_is_unitary(self):
        for seed in range(5):
            u = random_local_unitary((2, 3), seed=seed)
            assert u.shape == (6, 6)
            assert np.max(np.abs(u.conj().T @ u - np.eye(6))) < 1e-12

    def test_local_unitary_scalar_phase(self):
        u = random_local_unitary((1,), seed=0)
        assert u.shape == (1, 1)
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12

    def test_conjugation_preserves_spectrum(self):
        rho = random_density((2, 2), seed=14)
        u = random_local_unitary((2, 2), seed=15)
        before = np.linalg.eigvalsh(rho.mat)
        after = np.linalg.eigvalsh(u @ rho.mat @ u.conj().T)
        assert np.max(np.abs(before - after)) < 1e-10


class TestMix:
    def test_bell_with_noise_is_werner(self):
        lam = 0.45
        blended = lam * bell_state("psi-").mat + (1 - lam) * max_mixed((2, 2)).mat
        assert np.max(np.abs(blended - werner_state(lam).mat)) < 1e-15


class TestSpecText:
    def test_parse_and_canonical_text(self):
        spec = parse_state_spec("werner:0.25")
        assert spec == StateSpec("werner", (0.25,))
        assert spec_text(spec) == "werner:0.25"
        with pytest.raises(AttributeError):
            spec.family = "bell"

    def test_seed_default_applies(self):
        # an omitted trailing seed is 0, and the canonical text prints it
        spec = parse_state_spec("sepmix:2x2,4")
        assert spec.params == ((2, 2), 4, 0)
        assert spec_text(spec) == "sepmix:2x2,4,0"
        assert np.array_equal(generate("sepmix:2x2,4").mat, generate("sepmix:2x2,4,0").mat)

    def test_explicit_seed_wins(self):
        spec = parse_state_spec("sepmix:2x2,4,42")
        assert spec.params[-1] == 42
        assert spec_text(spec) == "sepmix:2x2,4,42"

    def test_unknown_family(self):
        with pytest.raises(InvalidInputError, match="unknown state family"):
            parse_state_spec("qubit:1")

    def test_wrong_parameter_count(self):
        with pytest.raises(InvalidInputError, match="parameter"):
            parse_state_spec("werner:0.2,0.3")
        with pytest.raises(InvalidInputError, match="parameter"):
            parse_state_spec("isotropic:3")

    def test_bad_dims_token(self):
        with pytest.raises(InvalidInputError, match="bad dims"):
            parse_state_spec("maxmixed:2y2")
        # beyond Python's 4300-digit limit on int() of a string
        with pytest.raises(InvalidInputError, match="bad dimension"):
            parse_state_spec("maxmixed:2x" + "9" * 5000)
        # a 0 would make the product 0 and pass the dimension budget
        for text in ("maxmixed:2x0x3", "productrandom:0x" + "9" * 4000):
            with pytest.raises(InvalidInputError, match="^dims '.*': every dimension"):
                parse_state_spec(text)

    @pytest.mark.parametrize(
        "spec, message",
        [("ghz:0", "GHZ needs at least 2 qubits, got 0"),
         ("isotropic:1,0.5", "isotropic state needs local dimension >= 2, got 1"),
         ("isotropic:0,0.5", "local dimension 0: every dimension must be at least 1")],
        ids=["ghz:0", "isotropic:1", "isotropic:0"],
    )
    def test_generator_arguments_below_the_family_minimum(self, spec, message):
        # a dimension below 1 is refused by the one dims rule; the rest by
        # the generator
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            generate(spec)

    @pytest.mark.parametrize(
        "largest, smallest_over",
        [
            ("ghz:12", "ghz:13"),
            ("w:12", "w:13"),
            ("isotropic:64,0.5", "isotropic:65,0.5"),
            ("maxmixed:4096", "maxmixed:4097"),
            ("productrandom:64x64", "productrandom:64x65"),
            ("sepmix:16x16x16,2", "sepmix:16x16x17,2"),
            ("randomdm:" + "x".join("2" * 12) + ",1", "randomdm:" + "x".join("2" * 13) + ",1"),
        ],
    )
    def test_dimension_budget_is_checked_at_parse(self, largest, smallest_over):
        # parsing allocates nothing, so both sides of the boundary are safe here
        parse_state_spec(largest)
        with pytest.raises(InvalidInputError, match="D exceeds the dimension limit 4096"):
            parse_state_spec(smallest_over)

    def test_term_count_budget_is_checked_at_parse(self):
        # parsing only: neither mixture is built
        assert parse_state_spec("sepmix:2x2,4096,1").params == ((2, 2), 4096, 1)
        with pytest.raises(InvalidInputError, match="term count 4097 exceeds the limit 4096"):
            parse_state_spec("sepmix:2x2,4097,1")

    def test_huge_sizes_are_rejected_without_computing_them(self):
        for text in ("ghz:" + "9" * 4000, "maxmixed:" + "x".join(["9" * 4000] * 3)):
            with pytest.raises(InvalidInputError, match="dimension limit"):
                parse_state_spec(text)

    def test_out_of_range_parameter(self):
        with pytest.raises(InvalidInputError, match=r"\[0, 1\]"):
            generate("werner:1.5")

    @pytest.mark.parametrize(
        "spec, message",
        [("ghz:1", "GHZ needs at least 2 qubits, got 1"),
         ("w:1", "W state needs at least 2 qubits, got 1"),
         ("isotropic:1,0.5", "isotropic state needs local dimension >= 2, got 1"),
         ("isotropic:3,1.5", r"fidelity must lie in \[0, 1\], got 1.5"),
         ("sepmix:2x2,0", "mixture needs at least 1 term, got 0")],
    )
    def test_generator_refuses_a_parameter_out_of_its_range(self, spec, message):
        with pytest.raises(InvalidInputError, match=message):
            generate(spec)

    def test_generate_accepts_spec_objects(self):
        spec = parse_state_spec("ghz:3")
        assert np.array_equal(generate(spec).mat, ghz_state(3).mat)
