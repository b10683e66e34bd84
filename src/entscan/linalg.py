"""Dense complex matrix primitives for multipartite density matrices.

Conventions used throughout the package:

* subsystems are 0-indexed and a composite basis index decomposes with
  subsystem 0 slowest (standard Kronecker ordering);
* matrices are numpy ``complex128`` arrays, stored row-major;
* every operation is pure and returned arrays are marked read-only, so
  values can be shared freely between threads.
"""

from dataclasses import dataclass, field
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


def check_dimension(dims, what: str) -> None:
    """The one rule on subsystem dimensions: raise unless every entry is at
    least 1 and their product at most ``MAX_KRON_DIM``. Stops at the first
    failure, so huge entries cost nothing."""
    side = 1
    for d in dims:
        if d < 1:
            raise InvalidInputError(f"{what}: every dimension must be at least 1")
        side *= d
        if side > MAX_KRON_DIM:
            raise InvalidInputError(f"{what}: D exceeds the dimension limit {MAX_KRON_DIM}")


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


@dataclass(frozen=True, eq=False)  # ndarray == is elementwise and unhashable
class DensityMatrix:
    """Square complex matrix plus the ordered subsystem dimensions.

    Construction holds ``dims`` to :func:`check_dimension` and refuses more
    than 12 subsystems, the most of dimension >= 2 within ``MAX_KRON_DIM``
    (more unit ones would reshape past numpy's axis limit). It checks
    hermiticity (max |m - m^dag| within ``HERM_TOL``) and unit trace (within
    ``TRACE_TOL``) of the input, both absolute, then stores its
    Hermitian part (m + m^dag) / 2, which is Hermitian bitwise: the scan's
    symmetries are exact on it. :meth:`hermiticity_residual` still reports
    the input's residual. Positivity is *not* checked here, since states read
    from files often carry rounding-scale negative eigenvalues: every
    criterion judges it from the mask-0 row of ``criteria.subset_table``,
    which refuses input whose trace norm exceeds 1 + ``NORM_TOL``.
    """

    mat: np.ndarray
    dims: tuple[int, ...]
    _residual: float = field(default=0.0, init=False, repr=False)

    def __post_init__(self):
        mat = as_matrix(self.mat, "density matrix")
        rows, cols = mat.shape
        if rows != cols:
            raise InvalidInputError(f"density matrix must be square, got shape {mat.shape}")
        try:
            dims = tuple(self.dims)  # a list too
        except TypeError:  # 4 or None: not a sequence, refused below
            dims = (None,)
        if not all(hasattr(d, "__index__") and not isinstance(d, bool) for d in dims):
            raise InvalidInputError(
                f"subsystem dimensions must be a sequence of integers, got {self.dims!r}"
            )
        dims = tuple(map(index, dims))  # numpy ints too; int() reads 2.5 and "2" as 2
        if not dims:
            raise InvalidInputError("subsystem dimensions must not be empty")
        check_dimension(dims, f"subsystem dimensions {dims}")
        limit = MAX_KRON_DIM.bit_length() - 1
        if len(dims) > limit:
            raise InvalidInputError(f"{len(dims)} subsystems exceed the limit of {limit}")
        if prod(dims) != rows:
            raise InvalidInputError(
                f"dims {dims} multiply to {prod(dims)}, but the matrix side is {rows}"
            )
        residual = float(np.abs(mat - mat.conj().T).max())
        if residual > HERM_TOL:
            raise InvalidInputError(
                f"matrix is not Hermitian: max |m - m^dag| = {residual:.3e} > {HERM_TOL:.3e}"
            )
        tr = complex(mat.trace())
        if abs(tr - 1.0) > TRACE_TOL:
            raise InvalidInputError(
                f"trace must be 1 within {TRACE_TOL:g}, got {tr:.12g}"
            )
        herm = np.ascontiguousarray((mat + mat.conj().T) / 2)
        herm.setflags(write=False)  # read-only, so values can be shared freely
        object.__setattr__(self, "mat", herm)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "_residual", residual)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def trace(self) -> complex:
        return complex(self.mat.trace())

    def hermiticity_residual(self) -> float:
        """max |m - m^dag| of the input matrix; the stored one has none."""
        return self._residual


def density_matrix(mat, dims) -> DensityMatrix:
    """Build a :class:`DensityMatrix` from a matrix and its subsystem dimensions."""
    return DensityMatrix(mat, dims)
