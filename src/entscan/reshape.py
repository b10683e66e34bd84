"""Index-relabeling engine: the general label-subset transpose, with
partial transposition and realignment as masks of it.

Every subsystem ``k`` of an n-party density matrix contributes two index
labels: ``r_k`` (its row index) and ``c_k`` (its column index). By default
``r_k`` lives on the row side of the output and ``c_k`` on the column side,
which reproduces the matrix itself. Transposing a subset of labels means
flipping each of them to the opposite side. A subset is named by an integer
mask: bit 2k is ``r_k`` and bit 2k + 1 is ``c_k``. This module is the one
place that reads or builds that encoding: :func:`layout`, the symmetries
:func:`complement` and :func:`swap` and their classes' :func:`representative`,
the criteria's masks :func:`pt_mask` and :func:`cut_mask`, and the label
formatters. Sides are ordered canonically: labels sorted by subsystem index,
and when both labels of one subsystem share a side, the ``c`` label varies
slower than the ``r`` label.
This particular ordering is what makes the realignment of a two-qubit matrix
come out with rows (m_11, m_21, m_12, m_22), (m_31, m_41, m_32, m_42), ...
rather than some row/column permutation of that layout.
"""

from functools import cache

import numpy as np

from .errors import InvalidInputError
from .linalg import MAX_SUBSYSTEMS, DensityMatrix

# Beyond this many subsystems a full scan would evaluate > 4^7 reshapes.
MAX_SCAN_SUBSYSTEMS = 6

_KINDS = ("r", "c")


@cache
def _subsystem_labels(k: int) -> tuple[str, str, str, str]:
    """Subsystem k's labels for each value of its two mask bits: none, r, c, both."""
    r, c = (f"{kind}{chr(ord('A') + k)}" for kind in _KINDS)
    return ("", r, c, f"{r},{c}")


def _check_mask(mask: int, n: int) -> None:
    """Raise unless ``mask`` is one of the 4^n masks and ``n`` is at most
    ``MAX_SUBSYSTEMS``, the most any state has; a negative mask shifts to -1."""
    if n > MAX_SUBSYSTEMS:
        raise InvalidInputError(f"{n} subsystems: more than {MAX_SUBSYSTEMS}")
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


def layout(dims, mask: int) -> tuple[list[int], tuple[int, int]]:
    """Axis order (row side first; axis k is r_k, n + k is c_k, of the matrix
    reshaped to ``dims * 2``) and shape of the transpose of ``mask``, one of
    the 4^n masks: a row-side label multiplies the rows by d_k, others columns."""
    n = len(dims)
    _check_mask(mask, n)
    rows, cols = [], []
    nrows = ncols = 1
    for k, d in enumerate(dims):
        # c varies slower than r when both labels of a subsystem share a side
        if mask >> (2 * k + 1) & 1:
            rows.append(n + k)
            nrows *= d
        else:
            cols.append(n + k)
            ncols *= d
        if mask >> (2 * k) & 1:
            cols.append(k)
            ncols *= d
        else:
            rows.append(k)
            nrows *= d
    return rows + cols, (nrows, ncols)


def generalized_transpose(rho: DensityMatrix, mask: int) -> np.ndarray:
    """Transpose the labels in ``mask``.

    Mask 0 returns the matrix itself; the full mask returns the global
    transpose; ``pt_mask(1 << k)`` is the partial transposition of subsystem
    k; ``cut_mask(1, 2)`` (``{c_A, r_B}``) on a bipartite state of dims
    (m, n) is the realignment, whose row J*m + I holds vec(block_{I,J})^T.
    """
    axes, shape = layout(rho.dims, mask)
    # a view when no data moves, else a fresh copy; read-only either way
    out = rho.mat.reshape(rho.dims * 2).transpose(axes).reshape(shape)
    out.setflags(write=False)
    return out


def complement(mask: int, n: int) -> int:
    """The mask of every label of ``n`` subsystems that ``mask`` leaves out."""
    return ((1 << (2 * n)) - 1) ^ mask


def swap(mask: int, n: int) -> int:
    """``mask`` with r_k and c_k exchanged in each subsystem. A mask is a partial
    transposition (both labels of a subsystem or neither) iff it is its swap."""
    r_bits = complement(0, n) // 3
    return ((mask & r_bits) << 1) | ((mask >> 1) & r_bits)


def representative(mask: int, n: int) -> int:
    """The smallest mask of the symmetry class {M, comp M, swap M, comp swap M}
    of ``mask`` = M, the one the scan solves for the whole class.

    ``swap`` exchanges r_k and c_k of every subsystem. The complement's
    transpose is the transpose of M's matrix. For Hermitian rho,
    rho^T = conj(rho); the M transpose of rho^T is, up to row and column
    order, the comp swap M transpose of rho, and conjugation keeps singular
    values. So all four share one singular spectrum. DensityMatrix holds rho
    bitwise Hermitian, so this is exact, not approximate. Raises
    :class:`InvalidInputError` unless ``mask`` is one of the 4^n masks.
    """
    _check_mask(mask, n)
    swapped = swap(mask, n)
    return min(mask, complement(mask, n), swapped, complement(swapped, n))


def pt_mask(subsystems: int) -> int:
    """Both labels of each subsystem whose bit is set in ``subsystems``."""
    return sum(3 << (2 * k) for k in range(subsystems.bit_length()) if subsystems >> k & 1)


def cut_mask(left: int, n: int) -> int:
    """{c_k: k in X} | {r_k: k not in X}, X the subsystem bitmask ``left``: both
    labels of X on the row side, X^c's on the column side, so X|X^c's realignment."""
    return complement(0, n) // 3 ^ pt_mask(left)


def subsystem_letters(mask: int, n: int, bits: int) -> str:
    """The letters of the subsystems k < n whose labels in ``mask`` meet
    ``bits`` (1 = r_k, 2 = c_k, 3 = either)."""
    _check_mask(mask, n)
    return "".join(chr(ord("A") + k) for k in range(n) if mask >> (2 * k) & bits)


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
