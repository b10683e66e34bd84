"""Dense complex matrix primitives for multipartite density matrices.

Conventions used throughout the package:

* subsystems are 0-indexed and a composite basis index decomposes with
  subsystem 0 slowest (standard Kronecker ordering);
* matrices are numpy ``complex128`` arrays, stored row-major;
* every operation is pure and returned arrays are marked read-only, so
  values can be shared freely between threads.
"""

from math import prod
from operator import index

import numpy as np

from .errors import InvalidInputError, NumericalError

# Tolerances, absolute: a state has ||rho||_F <= tr rho = 1, so a scale by
# the matrix norm would only loosen them for input that is not a state.
HERM_TOL = 1e-10
TRACE_TOL = 1e-10

# The one dimension budget: state specs, matrix files and every
# DensityMatrix stay at D <= MAX_KRON_DIM; everything here is desk scale.
MAX_KRON_DIM = 4096
# The most subsystems of dimension >= 2 in the budget; more unit ones would
# fit, but a transpose takes two array axes each, and numpy caps axes.
MAX_SUBSYSTEMS = MAX_KRON_DIM.bit_length() - 1

# singular_values solves a matrix at least twice as tall as wide, with at
# least this many entries, through its R factor. Measured with one BLAS
# thread: zgeqrf plus a square SVD of R ran up to 3x faster than LAPACK's own
# tall SVD path, and never measurably slower, on such transposes from D = 48
# (2304 entries) up, with bitwise-equal singular values on every rectangular
# scan matrix tried. Below about 1300 entries the extra call costs more than
# it saves; 2048 sits between. Closer to square (36x64 and 64x81 here),
# LAPACK's direct bidiagonalization is 1.2-1.4x faster, hence the aspect rule.
QR_MIN_ENTRIES = 2048


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a finite 2-D complex array, raising on anything else."""
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != 2:
        raise InvalidInputError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return arr


def matrix_fingerprint(a: np.ndarray) -> str:
    """Short identifying string for error messages (shape, norm, content hash)."""
    import hashlib  # only error paths need it; kept out of start-up
    arr = np.ascontiguousarray(a, dtype=complex)
    digest = hashlib.sha256(arr.tobytes()).hexdigest()[:12]
    return f"{arr.shape[0]}x{arr.shape[1]} matrix, fro={np.linalg.norm(arr):.6e}, sha256:{digest}"


def check_dimension(dims, what: str) -> tuple[int, ...]:
    """The one rule on subsystem dimensions: a non-empty sequence of at most
    ``MAX_SUBSYSTEMS`` integers (numpy ones too, no bool), each at least 1,
    with product at most ``MAX_KRON_DIM``. Returns them as a tuple of ints.
    Stops at the first failure, which it names without echoing ``dims``."""
    try:
        entries = iter(dims)
    except TypeError:
        raise InvalidInputError(f"{what}: must be a sequence of integers, got "
                                f"{type(dims).__name__}") from None
    checked, side = [], 1
    for i, d in enumerate(entries):
        try:  # numpy ints too, no bool: int() reads 2.5 as 2, index() True as 1
            checked.append(d := index(None if isinstance(d, bool) else d))
        except TypeError:  # also a numpy array, or numpy's bool
            raise InvalidInputError(
                f"{what}: entry {i} must be an integer, got {type(d).__name__}") from None
        if d < 1:
            raise InvalidInputError(f"{what}: every dimension must be at least 1")
        side *= d
        if side > MAX_KRON_DIM:
            raise InvalidInputError(f"{what}: D exceeds the dimension limit {MAX_KRON_DIM}")
        if i == MAX_SUBSYSTEMS:
            raise InvalidInputError(f"{what}: more than {MAX_SUBSYSTEMS} subsystems")
    if not checked:
        raise InvalidInputError(f"{what}: must not be empty")
    return tuple(checked)


def singular_values(a) -> np.ndarray:
    """Singular values in decreasing order (read-only float array)."""
    arr = as_matrix(a)
    # a and a^T share singular values; LAPACK is faster on the tall one
    tall = arr.T if arr.shape[0] < arr.shape[1] else arr
    try:
        if tall.shape[0] >= 2 * tall.shape[1] and tall.size >= QR_MIN_ENTRIES:
            # tall = QR with Q orthonormal, so R has the same singular values
            tall = np.linalg.qr(tall, mode="r")
        s = np.linalg.svd(tall, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge for {matrix_fingerprint(arr)}") from exc
    s.setflags(write=False)
    return s


def trace_norm(a) -> float:
    """Sum of singular values. Equals the trace for Hermitian PSD input."""
    return float(singular_values(a).sum())


def hermitian_trace_norm(mat: np.ndarray) -> tuple[float, float]:
    """``(trace_norm, min_eigenvalue)`` of a Hermitian matrix, from one
    eigensolve: its singular values are the |eigenvalues|."""
    try:
        eigs = np.linalg.eigvalsh(mat)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"eigensolver did not converge for {matrix_fingerprint(mat)}"
        ) from exc
    return float(np.abs(eigs).sum()), float(eigs.min())


class DensityMatrix:
    """Square complex matrix plus the ordered subsystem dimensions.

    Construction first holds ``dims`` to :func:`check_dimension`, before it
    converts the matrix, so a refusal on dims alone allocates nothing, then
    matches the matrix side to their product. It checks hermiticity (max
    |m - m^dag| within ``HERM_TOL``) and unit trace (the complex trace within
    ``TRACE_TOL`` of 1) of the input, both absolute, then stores its
    Hermitian part (m + m^dag) / 2, which is Hermitian bitwise: the scan's
    symmetries are exact on it. :meth:`hermiticity_residual` still reports
    the input's residual. Positivity is *not* checked here, since states
    read from files often carry rounding-scale negative eigenvalues: every
    criterion judges it from the mask-0 row of ``criteria.subset_table``,
    which refuses input whose trace norm exceeds 1 + ``NORM_TOL``. Instances
    compare by identity, since ndarray ``==`` is elementwise and unhashable.
    """

    __slots__ = ("_mat", "_dims", "_residual")
    mat = property(lambda self: self._mat, doc="The stored Hermitian part, read-only.")
    dims = property(lambda self: self._dims, doc="Subsystem dimensions, read-only.")

    def __init__(self, mat, dims):
        dims = check_dimension(dims, "subsystem dimensions")
        mat = as_matrix(mat, "density matrix")
        rows, cols = mat.shape
        if rows != cols:
            raise InvalidInputError(f"density matrix must be square, got shape {mat.shape}")
        if prod(dims) != rows:
            raise InvalidInputError(
                f"dims {dims} multiply to {prod(dims)}, but the matrix side is {rows}"
            )
        # over blocks of about 2^16 entries, so no temporary is D x D
        step = max(1, (1 << 16) // rows)
        residual = max(float(np.abs(mat[i:i + step] - mat[:, i:i + step].conj().T).max())
                       for i in range(0, rows, step))
        if residual > HERM_TOL:
            raise InvalidInputError(
                f"matrix is not Hermitian: max |m - m^dag| = {residual:.3e} > {HERM_TOL:.3e}"
            )
        tr = complex(mat.trace())
        if abs(tr - 1.0) > TRACE_TOL:
            raise InvalidInputError(f"trace must be 1 within {TRACE_TOL:g}, got {tr:.12g}")
        # (m + m^dag) / 2 in one C-ordered buffer; dividing by 2, as numpy
        # does for that expression, keeps its signed zeros (* 0.5 would not)
        herm = np.conjugate(mat.T, out=np.empty_like(mat, order="C"))
        herm += mat
        herm /= 2
        herm.setflags(write=False)  # read-only, so values can be shared freely
        self._mat, self._dims, self._residual = herm, dims, residual

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def trace(self) -> complex:
        return complex(self.mat.trace())

    def hermiticity_residual(self) -> float:
        """max |m - m^dag| of the input matrix; the stored one has none."""
        return self._residual
