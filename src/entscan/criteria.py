"""Separability criteria and entanglement quantification.

All criteria here are necessary conditions for separability: a violation
certifies entanglement, while passing proves nothing, so the only negative
verdict is UNDETECTED. Every criterion reads its rows from the one
:func:`gpt_scan` report, whose table refuses input that is not a state.
"""

from enum import Enum
from math import sqrt
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError, NumericalError
from .linalg import DensityMatrix, matrix_fingerprint, trace_norm
# reshape holds the mask encoding; criteria only names masks through it
from .reshape import _check_mask, complement, cut_mask, enumerate_label_subsets, layout
from .reshape import format_label_set, generalized_transpose, pt_mask, swap

# Absolute slack on (trace norm - 1) before a subset counts as a violation;
# SVD error for the matrix sizes handled here is orders of magnitude below.
# It must exceed linalg.TRACE_TOL, so that the row of a state itself (mask 0)
# never violates and subset_table's refusal fires only on non-states.
NORM_TOL = 1e-9


class Verdict(str, Enum):
    ENTANGLED_CERTIFIED = "ENTANGLED_CERTIFIED"
    UNDETECTED = "UNDETECTED"


class SubsetResult(NamedTuple):
    """Outcome of one reshaped-matrix evaluation: the transpose of the labels
    in ``mask`` (see :mod:`entscan.reshape`) of a state with subsystem
    dimensions ``dims``. Only the solved values are stored; ``min_eigenvalue``
    is set exactly for partial transpositions, the square Hermitian cases.
    ``slack`` widens the violation threshold (see :func:`subset_table`)."""

    mask: int
    dims: tuple[int, ...]
    trace_norm: float
    min_eigenvalue: float | None
    slack: float

    @property
    def shape(self) -> tuple[int, int]:
        return layout(self.dims, self.mask)[1]

    @property
    def is_hermitian_case(self) -> bool:
        return self.min_eigenvalue is not None

    @property
    def violating(self) -> bool:
        """The one violation rule of every criterion here."""
        return self.trace_norm > 1.0 + NORM_TOL + self.slack

    @property
    def complement_mask(self) -> int:
        return complement(self.mask, len(self.dims))

    def label_text(self) -> str:
        return format_label_set(self.mask, len(self.dims))


def _excess(res: SubsetResult) -> float:
    """(trace norm - 1) / 2, floored: exactly 0 unless ``res`` violates, so
    rounding a few ulp past 1 on a separable state reads 0, not 1e-16. Both
    E and the negativities read it."""
    return (res.trace_norm - 1.0) / 2.0 if res.violating else 0.0


class CriterionReport(NamedTuple):
    """Full scan outcome over the enumerated label subsets, in mask order.
    :meth:`lookup` reads any mask from those rows."""

    dims: tuple[int, ...]
    results: tuple[SubsetResult, ...]
    argmax: SubsetResult

    def lookup(self, mask: int) -> SubsetResult:
        """The row of any of the 4^n masks: its class representative's (see
        :func:`_representative`, always a scanned mask), renamed to ``mask``."""
        row = self.results[_representative(mask, len(self.dims))]
        return row if row.mask == mask else SubsetResult(mask, *row[1:])

    @property
    def verdict(self) -> Verdict:
        # the largest norm violates iff any row does
        return Verdict.ENTANGLED_CERTIFIED if self.argmax.violating else Verdict.UNDETECTED

    @property
    def measure_e(self) -> float:
        """Largest (trace norm - 1) / 2 over all label subsets, zero when no
        subset violates: exactly zero on every separable state, and an upper
        bound on each negativity, since the scan has every partial transpose."""
        return _excess(self.argmax)

    @property
    def max_norm(self) -> float:
        return self.argmax.trace_norm

    @property
    def violations(self) -> tuple[int, ...]:
        """Masks of the violating subsets, in scan order."""
        return tuple(res.mask for res in self.results if res.violating)


def evaluate_subset(rho: DensityMatrix, mask: int) -> tuple[float, float | None]:
    """``(trace_norm, min_eigenvalue)`` of the ``mask`` transpose, with one solver
    call; the eigenvalue is None unless ``mask`` is a partial transposition."""
    mat = generalized_transpose(rho, mask)
    # a partial transposition: square and Hermitian on Hermitian input
    if mask == swap(mask, len(rho.dims)):
        try:
            eigs = np.linalg.eigvalsh(mat)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"eigensolver did not converge for {matrix_fingerprint(mat)}"
            ) from exc
        return float(np.abs(eigs).sum()), float(eigs.min())
    return trace_norm(mat), None


def _representative(mask: int, n: int) -> int:
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


def subset_table(rho: DensityMatrix):
    """``mask -> SubsetResult`` for any of the 4^n masks of ``rho``, the one
    source of rows for the scan (so for every criterion read from it) and
    ``norms``, so they agree bitwise.

    Solves mask 0 (the input itself) first and raises
    :class:`InvalidInputError` when its trace norm exceeds 1 + ``NORM_TOL``:
    on a state that norm is the trace, within TRACE_TOL < NORM_TOL of 1, so a
    unit-trace matrix gets there only through negative eigenvalues. Each
    symmetry class is then solved on first use, at its representative, and
    every other member reads that row.

    Every row carries one ``slack`` = (1 + sqrt(D)) t, where t = (trace norm
    - trace) / 2 of mask 0 weighs the admitted negative eigenvalues. With
    rho = P - N, P and N PSD, tr N = t: a row of a separable P/(1 + t) is at
    most 1, and any transpose X of N has ||X||_1 <= sqrt(rank) ||X||_F <=
    sqrt(D) t, so a row above 1 + ``NORM_TOL`` + slack certifies P entangled.
    The refusal keeps 2t <= ``NORM_TOL`` + TRACE_TOL < 2 ``NORM_TOL``, so even
    a row above 1 + ``NORM_TOL`` + sqrt(D) t exceeds 1 + t + sqrt(D) t: the
    rule is loose by the ``1 +`` term's t.
    """
    n = len(rho.dims)
    norm, low = evaluate_subset(rho, 0)
    if norm > 1.0 + NORM_TOL:
        raise InvalidInputError(
            f"input is not positive semidefinite (trace norm {norm!r} "
            f"> 1 + {NORM_TOL!r}, minimum eigenvalue {low!r}), "
            "so it is not a state; refusing to certify entanglement"
        )
    t = (norm - rho.trace().real) / 2 if low < 0 else 0.0
    slack = (1 + sqrt(rho.dim)) * t
    rows = {0: SubsetResult(0, rho.dims, norm, low, slack)}

    def row(mask: int) -> SubsetResult:
        rep = _representative(mask, n)
        if rep not in rows:
            rows[rep] = SubsetResult(rep, rho.dims, *evaluate_subset(rho, rep), slack)
        return rows[rep] if mask == rep else SubsetResult(mask, *rows[rep][1:])

    return row


def gpt_scan(rho: DensityMatrix) -> CriterionReport:
    """Evaluate every enumerated label subset and assemble the verdict.

    The rows are one mask of each complement pair, and each symmetry class
    (see :func:`_representative`) is solved once, at its representative; the
    other rows read its values bitwise. :meth:`CriterionReport.lookup` reads
    any mask, complements included.

    Results come in canonical (mask-ascending) subset order. Ties for the
    largest norm resolve to the earliest subset in that order. Refuses input
    beyond the scan limit before any solve, a non-state in :func:`subset_table`.
    """
    masks = enumerate_label_subsets(len(rho.dims))
    results = tuple(map(subset_table(rho), masks))
    best = max(results, key=lambda res: res.trace_norm)  # first of equal maxima
    return CriterionReport(rho.dims, results, best)


def ppt_criterion(scan: CriterionReport) -> list[SubsetResult]:
    """Every non-trivial partial transposition, read from ``scan``.

    One row per subsystem subset X without the last subsystem (X and its
    complement share a spectrum), so 2^(n-1) - 1 rows, in order of X's
    bitmask. A row violates, like every scan row, iff its trace norm exceeds
    1 + ``NORM_TOL`` + ``slack``; on a state that is a negative eigenvalue,
    which ``min_eigenvalue`` reports.
    """
    return [scan.lookup(pt_mask(x)) for x in range(1, 1 << (len(scan.dims) - 1))]


def realignment_criterion(scan: CriterionReport) -> list[SubsetResult]:
    """The realignment across every bipartite cut, read from ``scan``; no
    rows for a single subsystem.

    One row per cut X|X^c, X an odd subsystem bitmask (subsystem 0 in X): the
    ``cut_mask(X, n)`` transpose is the cut's realignment up to row/column
    permutations, with equal trace norm. Any norm above 1 + ``NORM_TOL`` +
    ``slack`` certifies entanglement.
    """
    n = len(scan.dims)
    return [scan.lookup(cut_mask(x, n)) for x in range(1, (1 << n) - 1, 2)]


def negativity(scan: CriterionReport, subsystem: int) -> float:
    """(trace norm of the subsystem's partial transpose - 1) / 2, read from
    ``scan``; exactly 0 unless that row violates."""
    n = len(scan.dims)
    # an int, not a bool: int() would read 1.9, "1" and True as subsystem 1
    if not isinstance(subsystem, int) or isinstance(subsystem, bool) or not 0 <= subsystem < n:
        raise InvalidInputError(f"subsystem {subsystem!r} out of range: need an int in [0, {n})")
    return _excess(scan.lookup(pt_mask(1 << subsystem)))
