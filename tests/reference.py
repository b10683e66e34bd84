"""Naive loop-based reference implementations used as independent oracles.

Everything here trades speed for obviousness: entries are placed one at a
time by explicit index arithmetic, with no reshape/transpose tricks, so the
fast implementations in the package can be checked against them.
"""

import itertools

import numpy as np


def index_ranges(dims):
    return itertools.product(*[range(d) for d in dims])


def pack(multi, dims):
    """Row-major multi-index -> flat index (subsystem 0 slowest)."""
    flat = 0
    for value, d in zip(multi, dims):
        flat = flat * d + value
    return flat


def naive_generalized_transpose(mat, dims, flips, c_slower=True, ascending=True):
    """Entry-by-entry generalized transpose.

    ``flips`` is a set of ("r"|"c", subsystem) pairs. The keyword knobs pick
    the within-side ordering so ordering-insensitivity of the trace norm can
    be exercised: the default (subsystem ascending, c slower than r) matches
    the package's canonical ordering.
    """
    n = len(dims)
    labels = [(kind, k) for k in range(n) for kind in ("r", "c")]

    def on_row(lab):
        return (lab[0] == "r") != (lab in flips)

    def key(lab):
        kind_rank = (0 if lab[0] == "c" else 1) if c_slower else (0 if lab[0] == "r" else 1)
        sub_rank = lab[1] if ascending else -lab[1]
        return (sub_rank, kind_rank)

    row = sorted([lab for lab in labels if on_row(lab)], key=key)
    col = sorted([lab for lab in labels if not on_row(lab)], key=key)
    row_dims = [dims[k] for _, k in row]
    col_dims = [dims[k] for _, k in col]
    out = np.zeros(
        (int(np.prod(row_dims, initial=1)), int(np.prod(col_dims, initial=1))),
        dtype=complex,
    )
    for i in index_ranges(dims):
        for j in index_ranges(dims):
            def bound(lab):
                kind, k = lab
                return i[k] if kind == "r" else j[k]

            out[
                pack([bound(lab) for lab in row], row_dims),
                pack([bound(lab) for lab in col], col_dims),
            ] = mat[pack(i, dims), pack(j, dims)]
    return out


def naive_witness(mat, dims, flips):
    """Entanglement witness W = I - (Y + Y^dag) / 2 of one label subset.

    A is the ``flips`` transpose of ``mat``, taken through the placement map
    that ``naive_generalized_transpose`` gives on a matrix of entry indices.
    With A = U S V^dag and X = U V^dag, Y is the D x D matrix that the same
    placement sends to X, so tr(Y^dag mat) = tr(X^dag A) = ||A||_1 and, for
    unit-trace Hermitian ``mat``, tr(W mat) = 1 - ||A||_1. For a product
    state sigma, |tr(X^dag A(sigma))| <= ||A(sigma)||_1 <= 1, so
    tr(W sigma) >= 0, and by linearity on every separable state.
    """
    side = mat.shape[0]
    index = np.arange(side * side, dtype=float).reshape(side, side)
    placement = naive_generalized_transpose(index, dims, flips).real.astype(np.int64)
    u, _, vh = np.linalg.svd(mat.reshape(-1)[placement], full_matrices=False)
    y = np.zeros(side * side, dtype=complex)
    y[placement] = u @ vh
    y = y.reshape(side, side)
    return np.eye(side) - (y + y.conj().T) / 2


def naive_realign(mat, dims):
    """Realignment straight from the block rule: row (J*m + I) holds the
    column-stacking of block (I, J)."""
    m, n = dims
    out = np.zeros((m * m, n * n), dtype=complex)
    for block_i in range(m):
        for block_j in range(m):
            block = mat[
                block_i * n:(block_i + 1) * n, block_j * n:(block_j + 1) * n
            ]
            stacked = [block[r, c] for c in range(n) for r in range(n)]
            out[block_j * m + block_i, :] = stacked
    return out


def naive_partial_transpose(mat, dims, subsystems):
    """Entry-by-entry partial transpose."""
    subs = set(subsystems)
    side = int(np.prod(dims))
    out = np.zeros((side, side), dtype=complex)
    for i in index_ranges(dims):
        for j in index_ranges(dims):
            a = tuple(j[k] if k in subs else i[k] for k in range(len(dims)))
            b = tuple(i[k] if k in subs else j[k] for k in range(len(dims)))
            out[pack(a, dims), pack(b, dims)] = mat[pack(i, dims), pack(j, dims)]
    return out


def vec(mat):
    """Column-stack a matrix into an (m*n, 1) column vector, first column first."""
    rows, cols = mat.shape
    out = np.zeros((rows * cols, 1), dtype=complex)
    for j in range(cols):
        for i in range(rows):
            out[j * rows + i, 0] = mat[i, j]
    return out


def naive_trace_norm(mat):
    return float(np.linalg.svd(mat, compute_uv=False).sum())


def naive_label_text(mask, n):
    """The labels in ``mask``, one bit at a time: subsystem order, r before c."""
    names = []
    for k in range(n):
        letter = chr(ord("A") + k)
        for bit, kind in enumerate("rc"):
            if mask >> (2 * k + bit) & 1:
                names.append(f"{kind}{letter}")
    return ",".join(names)


def all_flip_sets(n):
    """All 2^(2n) flip sets keyed by canonical bitmask."""
    out = []
    for mask in range(1 << (2 * n)):
        flips = set()
        for k in range(n):
            if mask & (1 << (2 * k)):
                flips.add(("r", k))
            if mask & (1 << (2 * k + 1)):
                flips.add(("c", k))
        out.append((mask, frozenset(flips)))
    return out


def random_state(side, rng, rank=None):
    """Random density matrix, full rank unless ``rank`` is given."""
    rank = side if rank is None else rank
    g = rng.standard_normal((side, rank)) + 1j * rng.standard_normal((side, rank))
    mat = g @ g.conj().T
    return mat / mat.trace().real


def product_minus(ket, psi, eps):
    """(1 + eps)|ket><ket| - eps|psi><psi| for orthogonal unit kets: unit
    trace, one eigenvalue -eps, trace norm 1 + 2 eps. Its PSD part is the pure
    state |ket><ket|, so it is separable when ``ket`` is a product."""
    return (1 + eps) * np.outer(ket, ket.conj()) - eps * np.outer(psi, psi.conj())


# (d, eps) of near_product inputs that a row once certified on their
# tolerated negative eigenvalue alone
NEAR_PRODUCT_CASES = [(8, 4.5e-10), (3, 4.5e-10), (4, 4.5e-10), (8, 2e-10)]


def near_product(d, eps):
    """``product_minus`` on d x d with ket |00> and psi = sum_{i>=1} |ii>/sqrt(d-1)."""
    ket, psi = np.zeros(d * d), np.zeros(d * d)
    ket[0] = 1.0
    psi[[i * d + i for i in range(1, d)]] = 1 / np.sqrt(d - 1)
    return product_minus(ket, psi, eps)


def random_unitary(d, rng):
    """Unitary from QR of a complex Gaussian, with the phases of the
    triangular factor's diagonal absorbed to make the draw well spread."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_local_unitary(dims, seed=0):
    """Tensor product of independent random unitaries, one per subsystem."""
    rng = np.random.default_rng(int(seed))
    out = np.ones((1, 1), dtype=complex)
    for d in dims:
        out = np.kron(out, random_unitary(int(d), rng))
    return out
