"""Tests for the dense matrix primitives."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from entscan import (
    DensityMatrix,
    InvalidInputError,
    NumericalError,
    bell_state,
    density_matrix,
    generalized_transpose,
    generate,
    linalg,
    parse_state_spec,
    singular_values,
    trace_norm,
)
from entscan.criteria import subset_table

from reference import naive_trace_norm, random_local_unitary, random_state, vec


# states builds product states with np.kron, so the tests pin its ordering:
# the first factor's indices vary slowest


def test_kron_identity():
    assert np.array_equal(np.kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_column_vectors_first_factor_slow():
    u = np.array([[2.0], [3.0]])
    v = np.array([[5.0], [7.0]])
    assert np.array_equal(np.kron(u, v), np.array([[10.0], [14.0], [15.0], [21.0]]))


def test_kron_hand_expanded():
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    b = np.array([[0, 1], [1, 0]], dtype=complex)
    expected = np.array(
        [
            [0, 1, 0, 2],
            [1, 0, 2, 0],
            [0, 3, 0, 4],
            [3, 0, 4, 0],
        ],
        dtype=complex,
    )
    assert np.array_equal(np.kron(a, b), expected)


# vec is the column-stacking oracle of tests/reference.py; the layout tests
# compare the engine's row and column transposes against it


def test_vec_column_stacking_order():
    a = np.array([[11, 12], [21, 22]], dtype=complex)
    assert np.array_equal(vec(a), np.array([[11], [21], [12], [22]], dtype=complex))


def test_vec_of_column_vector_is_itself():
    u = np.array([[1.0], [2.0], [3.0]])
    assert np.array_equal(vec(u), u)


def test_vec_of_matrix_product_identity():
    rng = np.random.default_rng(7)
    for _ in range(20):
        x, y, z = (
            rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            for _ in range(3)
        )
        lhs = vec(x @ y @ z)
        rhs = np.kron(z.T, x) @ vec(y)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_singular_values_zero_matrix():
    s = singular_values(np.zeros((3, 2)))
    assert np.array_equal(s, np.zeros(2))
    assert not s.flags.writeable


@pytest.mark.parametrize("shape", [(4096, 1), (16, 256), (64, 32)])
def test_singular_values_zero_matrix_large(shape):
    s = singular_values(np.zeros(shape))
    assert np.array_equal(s, np.zeros(min(shape)))
    assert not s.flags.writeable


def test_singular_values_rank_one():
    u = np.array([1.0, 2.0, 2.0])
    v = np.array([3.0, 4.0])
    s = singular_values(np.outer(u, v.conj()))
    assert abs(s[0] - np.linalg.norm(u) * np.linalg.norm(v)) < 1e-12
    assert np.all(s[1:] < 1e-12)


def test_singular_values_diagonal():
    s = singular_values(np.diag([3.0, -2.0]))
    assert np.allclose(s, [3.0, 2.0], atol=1e-14)


def test_singular_values_frobenius_consistency():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    s = singular_values(a)
    assert sorted(s, reverse=True) == list(s)
    assert abs((s**2).sum() - np.linalg.norm(a) ** 2) < 1e-10


def test_singular_values_rejects_non_finite():
    with pytest.raises(InvalidInputError, match="non-finite"):
        singular_values(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_singular_values_rejects_non_matrix():
    with pytest.raises(InvalidInputError, match=r"must be 2-dimensional, got shape \(3,\)"):
        singular_values(np.ones(3))


@pytest.mark.parametrize("shape, bad", [((16, 256), np.nan), ((16, 256), np.inf)])
def test_singular_values_rejects_non_finite_large(shape, bad):
    a = np.eye(*shape)
    a[0, 0] = bad
    with pytest.raises(InvalidInputError, match="non-finite"):
        singular_values(a)


class TestRFactorPath:
    """Matrices at least twice as tall as wide (or wide as tall) with at least
    QR_MIN_ENTRIES entries are solved through their R factor."""

    # (shape, whether the R-factor branch applies)
    SHAPES = [
        ((1, 1296), False),  # below the size rule
        ((8, 162), False),
        ((36, 18), False),
        ((36, 64), False),  # large, but less than twice as wide as tall
        ((64, 81), False),
        ((32, 64), True),  # exactly at both rules
        ((1, 4096), True),
        ((2048, 2), True),
        ((16, 256), True),
        ((243, 27), True),
        ((27, 243), True),
    ]

    @pytest.fixture
    def qr_calls(self, monkeypatch):
        calls = []
        qr = np.linalg.qr

        def spy(a, *args, **kwargs):
            calls.append(a.shape)
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(linalg.np.linalg, "qr", spy)
        return calls

    @pytest.mark.parametrize("shape, via_r", SHAPES)
    def test_branch_follows_the_size_and_aspect_rules(self, qr_calls, shape, via_r):
        singular_values(np.ones(shape))
        assert bool(qr_calls) == via_r

    @pytest.mark.parametrize("shape", [shape for shape, _ in SHAPES])
    def test_random_matrices_match_the_naive_trace_norm(self, shape):
        rng = np.random.default_rng(sum(shape))
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        s = singular_values(a)
        scale = np.linalg.norm(a)
        assert len(s) == min(shape)
        assert abs(s.sum() - naive_trace_norm(a)) <= 1e-12 * scale
        assert np.max(np.abs(s - np.linalg.svd(a, compute_uv=False))) <= 1e-12 * scale

    def test_rank_one_realignment_has_no_sqrt_eps_tail(self):
        # the A|BC realignment {cA, rB, rC} of a product state is vec(rho_A)
        # vec(rho_BC)^T; a Gram-matrix solve would leave ~1e-8 per zero here
        rho = generate(parse_state_spec("productrandom:4x4x4,5"))
        a = generalized_transpose(rho, 0b010110)
        assert a.shape == (16, 256)
        s = singular_values(a)
        assert s[0] > 0.1
        assert np.all(s[1:] <= 1e-14)

    def test_lapack_failure_is_a_numerical_error(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(linalg.np.linalg, "qr", fail)
        with pytest.raises(NumericalError, match="16x256 matrix"):
            singular_values(np.ones((16, 256)))


def test_trace_norm_of_density_matrices_is_one():
    rng = np.random.default_rng(3)
    for side in (2, 4, 6):
        assert abs(trace_norm(random_state(side, rng)) - 1.0) < 1e-10


def test_trace_norm_of_bell_partial_transpose():
    # eigenvalues of the partially transposed singlet are {1/2, 1/2, 1/2, -1/2}
    rho = bell_state("psi-").mat.reshape(2, 2, 2, 2)
    pt = rho.transpose(2, 1, 0, 3).reshape(4, 4)
    eigs = np.sort(np.linalg.eigvalsh(pt))
    assert np.allclose(eigs, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)
    assert abs(trace_norm(pt) - 2.0) < 1e-12
    # the Hermitian solve: sum |lambda| and lambda_min
    assert np.allclose(linalg.hermitian_trace_norm(pt), (2.0, -0.5), atol=1e-12)


def test_eigensolver_failure_is_a_numerical_error(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(linalg.np.linalg, "eigvalsh", fail)
    with pytest.raises(NumericalError, match="^eigensolver did not converge for 4x4 matrix"):
        linalg.hermitian_trace_norm(np.eye(4, dtype=complex))


def test_trace_norm_triangle_inequality():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert trace_norm(a + b) <= trace_norm(a) + trace_norm(b) + 1e-10


def test_trace_norm_unitary_invariance():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    for seed in range(5):
        u = random_local_unitary((4,), seed=seed)
        base = trace_norm(a)
        assert abs(trace_norm(u @ a) - base) < 1e-10 * max(1.0, base)
        assert abs(trace_norm(a @ u) - base) < 1e-10 * max(1.0, base)


class TestDensityMatrix:
    def test_valid_construction(self):
        rho = DensityMatrix(np.eye(4) / 4, (2, 2))
        assert rho.dim == 4
        assert rho.dims == (2, 2)
        assert not rho.mat.flags.writeable
        for name in ("mat", "dims"):
            with pytest.raises(AttributeError):
                setattr(rho, name, getattr(rho, name))

    def test_rejects_non_hermitian(self):
        mat = np.eye(4) / 4
        mat[0, 1] = 0.5
        with pytest.raises(InvalidInputError, match="Hermitian"):
            DensityMatrix(mat, (2, 2))

    @pytest.mark.parametrize(
        "diag", [(0.5, 0.5), (1.5, -0.5)], ids=["fro-below-1", "fro-above-1"]
    )
    def test_hermiticity_bound_is_absolute(self, diag):
        # HERM_TOL = 1e-10 bounds max |m - m^dag| whatever the matrix norm
        def with_residual(residual):
            mat = np.diag(diag).astype(complex)
            mat[0, 1] = residual
            assert np.abs(mat - mat.conj().T).max() == residual
            return mat

        assert DensityMatrix(with_residual(1e-10), (2,)).hermiticity_residual() == 1e-10
        above = math.nextafter(1e-10, 1.0)
        with pytest.raises(InvalidInputError, match=r"Hermitian: .* > 1\.000e-10$"):
            DensityMatrix(with_residual(above), (2,))
        with pytest.raises(InvalidInputError, match=r"Hermitian: .* = 1\.000e-09 > 1\.000e-10$"):
            DensityMatrix(with_residual(1e-9), (2,))

    def test_rejects_wrong_trace(self):
        with pytest.raises(InvalidInputError, match="trace"):
            DensityMatrix(np.eye(4) / 5, (2, 2))

    def test_trace_is_complex_and_must_lie_within_trace_tol_of_1(self):
        # residual max |m - m^dag| = 8e-11 passes HERM_TOL, but the imaginary
        # trace 1.6e-10 exceeds TRACE_TOL: "unit trace" is tr m = 1, not Re
        mat = np.diag([0.25 + 4e-11j] * 4)
        assert np.abs(mat - mat.conj().T).max() <= linalg.HERM_TOL
        with pytest.raises(InvalidInputError,
                           match=r"^trace must be 1 within 1e-10, got 1\+1\.6e-10j$"):
            DensityMatrix(mat, (2, 2))

    def test_rejects_non_square(self):
        with pytest.raises(InvalidInputError, match="must be square"):
            DensityMatrix(np.ones((2, 3)) / 2, (2,))

    def test_rejects_dims_mismatch(self):
        with pytest.raises(InvalidInputError, match="dims"):
            DensityMatrix(np.eye(4) / 4, (2, 3))
        with pytest.raises(InvalidInputError, match="^subsystem dimensions: must not be empty$"):
            DensityMatrix(np.eye(1), ())

    def test_dimension_budget_holds_for_a_density_matrix(self):
        with pytest.raises(InvalidInputError,
                           match="^subsystem dimensions: D exceeds the dimension limit 4096$"):
            DensityMatrix(np.eye(4097) / 4097, (4097,))

    def test_a_dims_refusal_allocates_nothing(self):
        # the dims are checked before the matrix is converted: a complex copy
        # of this one would take 16 MiB
        mat = np.eye(1025) / 1025
        tracemalloc.start()
        try:
            with pytest.raises(InvalidInputError, match="D exceeds the dimension limit"):
                DensityMatrix(mat, (1025, 5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_construction_holds_one_matrix_sized_temporary(self):
        # the residual is taken over row blocks and the Hermitian part built
        # in its output buffer: a D x D copy of m^dag would double the peak
        mat = np.eye(1024, dtype=complex) / 1024
        tracemalloc.start()
        try:
            rho = DensityMatrix(mat, (2,) * 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * mat.nbytes
        assert np.array_equal(rho.mat, mat) and rho.mat.flags.c_contiguous

    @pytest.mark.parametrize(
        "dims", [(2.5, 2.9), ("2", "2"), (True, 4), np.array([[2]]), 4, None, 2.0]
    )
    def test_rejects_dims_that_are_not_integers(self, dims):
        # int() would read the first two as (2, 2); True is a bool, not a
        # dimension; a 2-D array's entries are arrays, whose index() raises
        # TypeError; the last three are not a sequence. The message names the
        # type of the first bad entry, or of a value that is not a sequence
        if isinstance(dims, (tuple, np.ndarray)):
            message = f"entry 0 must be an integer, got {type(dims[0]).__name__}"
        else:
            message = f"must be a sequence of integers, got {type(dims).__name__}"
        with pytest.raises(InvalidInputError,
                           match=f"^subsystem dimensions: {re.escape(message)}$"):
            DensityMatrix(np.eye(4) / 4, dims)

    def test_accepts_list_dims(self):
        assert DensityMatrix(np.eye(4) / 4, [2, 2]).dims == (2, 2)

    def test_accepts_numpy_integer_dims(self):
        rho = DensityMatrix(np.eye(4) / 4, (np.int64(2), np.uint8(2)))
        assert rho.dims == (2, 2) and all(type(d) is int for d in rho.dims)

    def test_rejects_non_finite(self):
        mat = np.eye(2, dtype=complex) / 2
        mat[1, 1] = np.inf
        with pytest.raises(InvalidInputError, match="non-finite"):
            DensityMatrix(mat, (2,))

    def test_more_than_12_subsystems_refused(self):
        # a transpose reshapes to two axes per subsystem, and numpy caps axes
        with pytest.raises(InvalidInputError,
                           match="^subsystem dimensions: more than 12 subsystems$"):
            DensityMatrix(np.eye(1), (1,) * 13)
        rho = density_matrix(np.eye(1), (1,) * 12)
        assert subset_table(rho)(3).trace_norm == 1.0

    @pytest.mark.parametrize(
        "dims, message",
        [((1,) * 12 + (0,), "every dimension must be at least 1"),
         ((1,) * 12 + (5000,), "D exceeds the dimension limit 4096"),
         ((1,) * 13 + (0,), "more than 12 subsystems")],
    )
    def test_entries_are_checked_in_order(self, dims, message):
        # each entry by value, then the count: a bad 13th entry gets its own
        # message, a 14th the count's
        with pytest.raises(InvalidInputError, match=f"^subsystem dimensions: {message}$"):
            DensityMatrix(np.eye(1), dims)

    def test_compares_by_identity(self):
        # an ndarray field has no == that returns a bool, nor a hash
        a, b = bell_state("psi-"), bell_state("psi-")
        assert a == a and not a != a
        assert a != b and not a == b
        assert hash(a) == hash(a) and len({a, b}) == 2

    def test_psd_check_is_on_demand(self):
        # slightly indefinite matrices construct fine; the scan's mask-0 row
        # refuses them
        mat = np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex)
        rho = DensityMatrix(mat, (2, 2))
        assert np.linalg.eigvalsh(rho.mat).min() < -1e-3
        with pytest.raises(InvalidInputError, match="positive semidefinite"):
            subset_table(rho)

    def test_psd_check_tolerates_rounding(self):
        mat = np.diag([0.5, 0.5, 1e-12, -1e-12]).astype(complex)
        assert not subset_table(DensityMatrix(mat, (2, 2)))(0).violating
