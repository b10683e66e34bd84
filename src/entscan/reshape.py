"""Index-relabeling engine: the general label-subset transpose, with
partial transposition and realignment as masks of it.

Every subsystem ``k`` of an n-party density matrix contributes two index
labels: ``r_k`` (its row index) and ``c_k`` (its column index). By default
``r_k`` lives on the row side of the output and ``c_k`` on the column side,
which reproduces the matrix itself. Transposing a subset of labels means
flipping each of them to the opposite side. A subset is named by an integer
mask: bit 2k is ``r_k`` and bit 2k + 1 is ``c_k``. Sides are ordered
canonically: labels sorted by subsystem index, and when both labels of one
subsystem share a side, the ``c`` label varies slower than the ``r`` label.
This particular ordering is what makes the realignment of a two-qubit matrix
come out with rows (m_11, m_21, m_12, m_22), (m_31, m_41, m_32, m_42), ...
rather than some row/column permutation of that layout.
"""

from functools import cache

import numpy as np

from .errors import InvalidInputError
from .linalg import DensityMatrix

# Beyond this many subsystems a full scan would evaluate > 4^7 reshapes.
MAX_SCAN_SUBSYSTEMS = 6

_KINDS = ("r", "c")


def subsystem_letter(k: int) -> str:
    return chr(ord("A") + k) if 0 <= k < 26 else f"#{k}"


@cache
def _subsystem_labels(k: int) -> tuple[str, str, str, str]:
    """Subsystem k's labels for each value of its two mask bits: none, r, c, both."""
    r, c = (f"{kind}{subsystem_letter(k)}" for kind in _KINDS)
    return ("", r, c, f"{r},{c}")


def _check_mask(mask: int, n: int) -> None:
    """Raise unless ``mask`` is one of the 4^n masks; a negative mask shifts to -1."""
    if mask >> (2 * n):
        raise InvalidInputError(f"mask {mask} out of range [0, {1 << (2 * n)}) for {n} subsystems")


def format_label_set(mask: int, n: int) -> str:
    """Render the labels in ``mask`` like ``"rA,cA"`` (subsystem order, r before c)."""
    _check_mask(mask, n)
    # one table lookup per subsystem: a report formats two label sets per row
    parts = []
    for k in range(n):
        part = _subsystem_labels(k)[mask >> (2 * k) & 3]
        if part:
            parts.append(part)
    return ",".join(parts)


def parse_label_set(text: str, n: int) -> int:
    """Parse ``"rA,cB"`` into a label mask; empty string means the empty set."""
    mask = 0
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        kind, rest = token[:1], token[1:]
        # ASCII only: some non-ASCII letters upper-case to two characters
        if kind not in _KINDS or len(rest) != 1 or not (rest.isascii() and rest.isalpha()):
            raise InvalidInputError(
                f"unknown label {token!r}: expected r or c followed by a subsystem letter"
            )
        k = ord(rest.upper()) - ord("A")
        if k >= n:
            raise InvalidInputError(
                f"label {token!r} names subsystem {rest.upper()}, but the state has only "
                f"{n} subsystem(s)"
            )
        bit = 1 << (2 * k + _KINDS.index(kind))
        if mask & bit:
            raise InvalidInputError(f"duplicate label {token!r}")
        mask |= bit
    return mask


def generalized_transpose(rho: DensityMatrix, mask: int) -> np.ndarray:
    """Transpose the labels in ``mask`` (bit 2k = r_k, bit 2k + 1 = c_k).

    Mask 0 returns the matrix itself; the full mask returns the global
    transpose; ``3 << 2k`` is the partial transposition of subsystem k;
    ``0b0110`` (``{c_A, r_B}``) on a bipartite state of dims (m, n) is the
    realignment, whose row J*m + I holds vec(block_{I,J})^T.
    """
    dims = rho.dims
    n = len(dims)
    _check_mask(mask, n)
    rows, cols = [], []
    for k in range(n):
        # c varies slower than r when both labels of a subsystem share a side
        (rows if mask >> (2 * k + 1) & 1 else cols).append(n + k)
        (cols if mask >> (2 * k) & 1 else rows).append(k)
    # a view when no data moves, else a fresh copy; read-only either way
    out = rho.mat.reshape(dims * 2).transpose(rows + cols).reshape(transpose_shape(dims, mask))
    out.setflags(write=False)
    return out


def transpose_shape(dims, mask: int) -> tuple[int, int]:
    """Shape of ``generalized_transpose`` for ``mask``: every label on the row
    side (r_k unflipped, c_k flipped) multiplies the rows by d_k, every other
    label the columns."""
    rows = cols = 1
    for k, d in enumerate(dims):
        on_rows = (not mask >> (2 * k) & 1) + (mask >> (2 * k + 1) & 1)
        rows *= d**on_rows
        cols *= d ** (2 - on_rows)
    return rows, cols


def check_scan_limit(n: int) -> None:
    """Raise unless a scan of ``n`` subsystems is within ``MAX_SCAN_SUBSYSTEMS``."""
    if n > MAX_SCAN_SUBSYSTEMS:
        raise InvalidInputError(
            f"{n} subsystems means 2^{2 * n} subsets, beyond the scan limit of "
            f"{MAX_SCAN_SUBSYSTEMS}; "
            "evaluate chosen subsets directly via generalized_transpose"
        )


def enumerate_label_subsets(n: int) -> range:
    """The 2^(2n-1) scanned masks, ascending: the smaller of each {Y, complement(Y)}
    pair (the two share their singular spectrum). Those are exactly the masks
    without the top bit c_(n-1), so the result indexes by mask."""
    if n < 1:
        raise InvalidInputError(f"need at least one subsystem, got n={n}")
    check_scan_limit(n)
    return range(1 << (2 * n - 1))
