"""Index-relabeling engine: realignment, row/column transpositions, partial
transposition, and the general label-subset transpose they all specialize.

Every subsystem ``k`` of an n-party density matrix contributes two index
labels: ``r_k`` (its row index) and ``c_k`` (its column index). By default
``r_k`` lives on the row side of the output and ``c_k`` on the column side,
which reproduces the matrix itself. Transposing a subset of labels means
flipping each of them to the opposite side. Sides are ordered canonically:
labels sorted by subsystem index, and when both labels of one subsystem
share a side, the ``c`` label varies slower than the ``r`` label. This
particular ordering is what makes the realignment of a two-qubit matrix
come out with rows (m_11, m_21, m_12, m_22), (m_31, m_41, m_32, m_42), ...
rather than some row/column permutation of that layout.
"""

from dataclasses import dataclass
from math import prod

import numpy as np

from .errors import InvalidInputError
from .linalg import DensityMatrix, _freeze

# Beyond this many subsystems a full scan would evaluate > 4^7 reshapes.
MAX_SCAN_SUBSYSTEMS = 6

_KINDS = ("r", "c")


def subsystem_letter(k: int) -> str:
    return chr(ord("A") + k) if 0 <= k < 26 else f"#{k}"


@dataclass(frozen=True)
class Label:
    """One transposable index: kind 'r' or 'c' of a 0-based subsystem."""

    subsystem: int
    kind: str

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InvalidInputError(f"label kind must be 'r' or 'c', got {self.kind!r}")
        if self.subsystem < 0:
            raise InvalidInputError(f"subsystem index must be >= 0, got {self.subsystem}")

    def __str__(self):
        return f"{self.kind}{subsystem_letter(self.subsystem)}"


def all_labels(n: int) -> tuple[Label, ...]:
    return tuple(Label(k, kind) for k in range(n) for kind in _KINDS)


def label_bit(label: Label) -> int:
    """Bit position in the canonical subset mask: bit 2k = r_k, bit 2k+1 = c_k."""
    return 2 * label.subsystem + (0 if label.kind == "r" else 1)


def mask_of_labels(labels, n: int | None = None) -> int:
    """Canonical subset mask of ``labels``; with ``n`` given, reject labels of
    subsystems the state does not have."""
    mask = 0
    for lab in labels:
        if n is not None and lab.subsystem >= n:
            raise InvalidInputError(f"label {lab} does not exist for {n} subsystem(s)")
        mask |= 1 << label_bit(lab)
    return mask


def labels_of_mask(mask: int, n: int) -> frozenset[Label]:
    out = set()
    for k in range(n):
        if mask & (1 << (2 * k)):
            out.add(Label(k, "r"))
        if mask & (1 << (2 * k + 1)):
            out.add(Label(k, "c"))
    return frozenset(out)


def complement_labels(labels, n: int) -> frozenset[Label]:
    return frozenset(all_labels(n)) - frozenset(labels)


def is_hermitian_label_set(labels, n: int) -> bool:
    """True when each subsystem contributes both or neither of its labels.

    These subsets are exactly the partial transpositions; applied to a
    Hermitian matrix they yield a square Hermitian result.
    """
    labels = frozenset(labels)
    return all((Label(k, "r") in labels) == (Label(k, "c") in labels) for k in range(n))


def format_label_set(labels) -> str:
    """Render a label set like ``"rA,cA"`` (subsystem order, r before c)."""
    ordered = sorted(labels, key=lambda lab: (lab.subsystem, 0 if lab.kind == "r" else 1))
    return ",".join(str(lab) for lab in ordered)


def format_mask(mask: int, n: int) -> str:
    """``format_label_set`` of the labels in ``mask``, without building them."""
    return ",".join(
        f"{kind}{subsystem_letter(k)}"
        for k in range(n) for bit, kind in enumerate(_KINDS) if mask >> (2 * k + bit) & 1
    )


def parse_label_set(text: str, n: int) -> frozenset[Label]:
    """Parse ``"rA,cB"`` into a label set; empty string means the empty set."""
    out = set()
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        kind, rest = token[:1], token[1:]
        if kind not in _KINDS or len(rest) != 1 or not rest.isalpha():
            raise InvalidInputError(
                f"unknown label {token!r}: expected r or c followed by a subsystem letter"
            )
        k = ord(rest.upper()) - ord("A")
        if k >= n:
            raise InvalidInputError(
                f"label {token!r} names subsystem {rest.upper()}, but the state has only "
                f"{n} subsystem(s)"
            )
        label = Label(k, kind)
        if label in out:
            raise InvalidInputError(f"duplicate label {token!r}")
        out.add(label)
    return frozenset(out)


def _side_key(label: Label):
    # c varies slower than r when both labels of a subsystem share a side
    return (label.subsystem, 0 if label.kind == "c" else 1)


@dataclass(frozen=True)
class ReshapedMatrix:
    """A relabeled (generally rectangular) view of a density matrix.

    ``row_labels`` and ``col_labels`` record which original indices run over
    the rows and columns, in slowest-to-fastest order; together they always
    hold all 2n labels of ``source_dims``.
    """

    mat: np.ndarray
    row_labels: tuple[Label, ...]
    col_labels: tuple[Label, ...]
    source_dims: tuple[int, ...]

    def __post_init__(self):
        n = len(self.source_dims)
        assigned = set(self.row_labels) | set(self.col_labels)
        if len(self.row_labels) + len(self.col_labels) != 2 * n or assigned != set(all_labels(n)):
            raise InvalidInputError("row/col labels must partition the 2n label set")
        expect = (
            prod(self.source_dims[lab.subsystem] for lab in self.row_labels),
            prod(self.source_dims[lab.subsystem] for lab in self.col_labels),
        )
        if self.mat.shape != expect:
            raise InvalidInputError(f"matrix shape {self.mat.shape} does not match labels {expect}")

    @property
    def shape(self) -> tuple[int, int]:
        return self.mat.shape


def identity_reshape(rho: DensityMatrix) -> ReshapedMatrix:
    """The trivial assignment: every r label on rows, every c label on columns."""
    n = len(rho.dims)
    return ReshapedMatrix(
        mat=rho.mat,
        row_labels=tuple(Label(k, "r") for k in range(n)),
        col_labels=tuple(Label(k, "c") for k in range(n)),
        source_dims=rho.dims,
    )


def apply_flips(reshaped: ReshapedMatrix, labels) -> ReshapedMatrix:
    """Flip each label in ``labels`` to the opposite side and re-canonicalize.

    Applying the same flip set twice returns the original assignment and
    entries; the data movement is a single transpose-and-copy.
    """
    dims = reshaped.source_dims
    n = len(dims)
    flips = frozenset(labels)
    for lab in flips:
        if lab.subsystem >= n:
            raise InvalidInputError(
                f"label {lab} does not exist for {n} subsystem(s)"
            )
    on_rows = set(reshaped.row_labels)
    new_rows = sorted(
        (lab for lab in all_labels(n) if (lab in on_rows) != (lab in flips)), key=_side_key
    )
    new_cols = sorted(
        (lab for lab in all_labels(n) if (lab in on_rows) == (lab in flips)), key=_side_key
    )
    order = reshaped.row_labels + reshaped.col_labels
    position = {lab: i for i, lab in enumerate(order)}
    tensor = reshaped.mat.reshape([dims[lab.subsystem] for lab in order])
    perm = [position[lab] for lab in (*new_rows, *new_cols)]
    out = tensor.transpose(perm).reshape(
        prod(dims[lab.subsystem] for lab in new_rows),
        prod(dims[lab.subsystem] for lab in new_cols),
    )
    return ReshapedMatrix(_freeze(out), tuple(new_rows), tuple(new_cols), dims)


def mask_plan(dims, mask: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, int]]:
    """Row axes, column axes and output shape of the ``mask`` transpose.

    Axes number the tensor ``mat.reshape(dims + dims)``: axis k carries r_k
    and axis n + k carries c_k. Bit 2k of ``mask`` flips r_k and bit 2k + 1
    flips c_k; each side lists its axes in the canonical order.
    """
    n = len(dims)
    rows, cols = [], []
    for k in range(n):
        # c varies slower than r when both labels of a subsystem share a side
        (rows if mask >> (2 * k + 1) & 1 else cols).append(n + k)
        (cols if mask >> (2 * k) & 1 else rows).append(k)
    return (
        tuple(rows), tuple(cols),
        (prod(dims[a % n] for a in rows), prod(dims[a % n] for a in cols)),
    )


def mask_transpose(rho: DensityMatrix, mask: int) -> np.ndarray:
    """The ``mask`` transpose of ``rho`` as a 2-D array (a view when no data
    moves, else a fresh copy)."""
    rows, cols, shape = mask_plan(rho.dims, mask)
    return rho.mat.reshape(rho.dims * 2).transpose(rows + cols).reshape(shape)


def generalized_transpose(rho: DensityMatrix, labels) -> ReshapedMatrix:
    """Transpose an arbitrary subset of the 2n row/column labels of ``rho``.

    The empty set returns the matrix itself; the full set returns the global
    transpose; ``{r_k, c_k}`` is the partial transposition of subsystem k;
    ``{c_A, r_B}`` on a bipartite state is the realignment.
    """
    n = len(rho.dims)
    mask = mask_of_labels(labels, n)
    rows, cols, _ = mask_plan(rho.dims, mask)

    def side(axes):
        return tuple(Label(a % n, "c" if a >= n else "r") for a in axes)

    return ReshapedMatrix(_freeze(mask_transpose(rho, mask)), side(rows), side(cols), rho.dims)


def realign(rho: DensityMatrix) -> ReshapedMatrix:
    """Realign a bipartite state: rows are the column-stacked m x m blocks.

    For dims (m, n) the result is m^2 x n^2 with row (J*m + I) holding
    vec(block_{I,J})^T: the transpose of the label subset ``{c_A, r_B}``.
    """
    if len(rho.dims) != 2:
        raise InvalidInputError(
            f"realign requires exactly 2 subsystems, got {len(rho.dims)}; "
            "use cut_and_realign for multipartite states"
        )
    return generalized_transpose(rho, {Label(0, "c"), Label(1, "r")})


def partial_transpose(rho: DensityMatrix, subsystems) -> np.ndarray:
    """Transpose the indices of the given subsystems only; output is square.

    Equals ``generalized_transpose`` with both labels of each chosen
    subsystem, read back as a D x D matrix. Hermiticity is preserved.
    """
    subs = sorted({int(k) for k in subsystems})
    n = len(rho.dims)
    if not subs:
        raise InvalidInputError("partial_transpose requires a non-empty subsystem set")
    if subs[0] < 0 or subs[-1] >= n:
        raise InvalidInputError(f"subsystem indices {subs} out of range for {n} subsystems")
    return _freeze(mask_transpose(rho, sum(3 << (2 * k) for k in subs)))


def cut_blocks(n: int, first_block, second_block=None) -> tuple[list[int], list[int]]:
    """Validate a bipartite cut of ``range(n)`` and return both blocks sorted.

    With ``second_block`` omitted it defaults to the complement of the first.
    """
    block1 = sorted({int(k) for k in first_block})
    if block1 and (block1[0] < 0 or block1[-1] >= n):
        raise InvalidInputError(f"cut indices {block1} out of range for {n} subsystems")
    if second_block is None:
        block2 = [k for k in range(n) if k not in block1]
    else:
        block2 = sorted({int(k) for k in second_block})
    if not block1 or not block2:
        raise InvalidInputError("both blocks of the cut must be non-empty")
    if set(block1) & set(block2) or len(block1) + len(block2) != n:
        raise InvalidInputError(
            f"blocks {block1} | {block2} do not partition the {n} subsystems"
        )
    return block1, block2


def cut_and_realign(rho: DensityMatrix, first_block, second_block=None) -> ReshapedMatrix:
    """Fuse the subsystems of a bipartite cut and realign across it.

    ``first_block`` (and optionally ``second_block``) partition the
    subsystems into two non-empty groups; indices inside each block are
    fused in ascending order. With ``second_block`` omitted it defaults to
    the complement.
    """
    n = len(rho.dims)
    block1, block2 = cut_blocks(n, first_block, second_block)
    order = block1 + block2
    tensor = rho.mat.reshape(rho.dims + rho.dims)
    axes = [*order, *(n + k for k in order)]
    regrouped = tensor.transpose(axes).reshape(rho.dim, rho.dim)
    eff_dims = (
        prod(rho.dims[k] for k in block1),
        prod(rho.dims[k] for k in block2),
    )
    return realign(DensityMatrix(regrouped, eff_dims))


def subset_masks(n: int, dedupe: bool = True, max_n: int = MAX_SCAN_SUBSYSTEMS) -> range:
    """All 2^(2n) subset masks in ascending order.

    With ``dedupe`` (the default) only one representative of each
    {Y, complement(Y)} pair is kept - the two always share their singular
    spectrum - namely the one with the smaller mask. Those are exactly the
    masks without the top bit c_(n-1), so the result indexes by mask either way.
    """
    if n < 1:
        raise InvalidInputError(f"need at least one subsystem, got n={n}")
    if n > max_n:
        raise InvalidInputError(
            f"{n} subsystems means 2^{2 * n} subsets, beyond the scan limit of {max_n}; "
            "evaluate chosen subsets directly via generalized_transpose"
        )
    return range(1 << (2 * n - 1 if dedupe else 2 * n))


def enumerate_label_subsets(
    n: int, dedupe: bool = True, max_n: int = MAX_SCAN_SUBSYSTEMS
) -> list[frozenset[Label]]:
    """The label sets of :func:`subset_masks`, in the same order."""
    return [labels_of_mask(mask, n) for mask in subset_masks(n, dedupe, max_n)]
