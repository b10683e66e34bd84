"""Separability criteria and entanglement quantification.

All criteria here are necessary conditions for separability: a violation
certifies entanglement, while passing proves nothing, so the only negative
verdict is UNDETECTED. Every criterion reads its rows from the one
:func:`gpt_scan` report, whose table refuses input that is not a state.
"""

from enum import Enum
from math import sqrt
from operator import index
from typing import NamedTuple

from .errors import InvalidInputError
from .linalg import DensityMatrix, hermitian_trace_norm, trace_norm
# reshape holds the mask encoding; criteria only names masks through it
from .reshape import cut_mask, enumerate_label_subsets, generalized_transpose, pt_mask
from .reshape import representative, swap

# Absolute slack on (trace norm - 1) before a subset counts as a violation;
# SVD error for the matrix sizes handled here is orders of magnitude below.
# It must exceed linalg.TRACE_TOL, so that the row of a state itself (mask 0)
# never violates and subset_table's refusal fires only on non-states.
NORM_TOL = 1e-9


class Verdict(str, Enum):
    ENTANGLED_CERTIFIED = "ENTANGLED_CERTIFIED"
    UNDETECTED = "UNDETECTED"


class SubsetResult(NamedTuple):
    """Outcome of one reshaped-matrix evaluation, the one row that every mask of
    a symmetry class (see :func:`reshape.representative`) reads by key. Only
    the solved values are stored; ``min_eigenvalue`` is set exactly for
    partial transpositions, the square Hermitian cases. ``slack`` widens the
    violation threshold (see :func:`subset_table`)."""

    trace_norm: float
    min_eigenvalue: float | None
    slack: float

    @property
    def violating(self) -> bool:
        """The one violation rule of every criterion here."""
        return self.trace_norm > 1.0 + NORM_TOL + self.slack


def _excess(res: SubsetResult) -> float:
    """(trace norm - 1) / 2, floored: exactly 0 unless ``res`` violates, so
    rounding a few ulp past 1 on a separable state reads 0, not 1e-16. Both
    E and the negativities read it."""
    return (res.trace_norm - 1.0) / 2.0 if res.violating else 0.0


class CriterionReport(NamedTuple):
    """Full scan outcome: ``results[mask]`` is each scanned mask's row, ``argmax``
    the first mask of largest norm. :meth:`lookup` reads any mask from those rows."""

    dims: tuple[int, ...]
    results: tuple[SubsetResult, ...]
    argmax: int

    def lookup(self, mask: int) -> SubsetResult:
        """The row of any of the 4^n masks: the one row of its class
        representative (see :func:`reshape.representative`, always a scanned mask)."""
        return self.results[representative(mask, len(self.dims))]

    @property
    def verdict(self) -> Verdict:
        # the largest norm violates iff any row does
        best = self.results[self.argmax]
        return Verdict.ENTANGLED_CERTIFIED if best.violating else Verdict.UNDETECTED

    @property
    def measure_e(self) -> float:
        """Largest (trace norm - 1) / 2 over all label subsets, zero when no
        subset violates: exactly zero on every separable state, and an upper
        bound on each negativity, since the scan has every partial transpose."""
        return _excess(self.results[self.argmax])

    @property
    def max_norm(self) -> float:
        return self.results[self.argmax].trace_norm

    @property
    def violations(self) -> tuple[int, ...]:
        """Masks of the violating subsets, in scan order."""
        return tuple(mask for mask, res in enumerate(self.results) if res.violating)


def evaluate_subset(rho: DensityMatrix, mask: int) -> tuple[float, float | None]:
    """``(trace_norm, min_eigenvalue)`` of the ``mask`` transpose, with one solver
    call; the eigenvalue is None unless ``mask`` is a partial transposition."""
    mat = generalized_transpose(rho, mask)
    # a partial transposition: square and Hermitian on Hermitian input
    if mask == swap(mask, len(rho.dims)):
        return hermitian_trace_norm(mat)
    return trace_norm(mat), None


def subset_table(rho: DensityMatrix):
    """``mask -> SubsetResult`` for any of the 4^n masks of ``rho``, the one
    source of rows for the scan (so for every criterion read from it) and
    ``norms``, so they agree bitwise.

    Solves mask 0 (the input itself) first and raises
    :class:`InvalidInputError` when its trace norm exceeds 1 + ``NORM_TOL``:
    on a state that norm is the trace, within TRACE_TOL < NORM_TOL of 1, so a
    unit-trace matrix gets there only through negative eigenvalues. Each
    symmetry class is then solved on first use, at its representative, and
    every member of the class gets that one row object.

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
    rows = {0: SubsetResult(norm, low, slack)}

    def row(mask: int) -> SubsetResult:
        rep = representative(mask, n)
        if rep not in rows:
            rows[rep] = SubsetResult(*evaluate_subset(rho, rep), slack)
        return rows[rep]

    return row


def gpt_scan(rho: DensityMatrix) -> CriterionReport:
    """Evaluate every enumerated label subset and assemble the verdict.

    The rows are one mask of each complement pair, in mask order, and each
    symmetry class (see :func:`reshape.representative`) is one row object,
    solved once at its representative. :meth:`CriterionReport.lookup` reads
    any mask, complements included. Ties for the largest norm resolve to the
    earliest mask, a class representative. Refuses input beyond the scan
    limit before any solve, a non-state in :func:`subset_table`.
    """
    masks = enumerate_label_subsets(len(rho.dims))
    results = tuple(map(subset_table(rho), masks))
    best = max(masks, key=lambda mask: results[mask].trace_norm)  # first of equal maxima
    return CriterionReport(rho.dims, results, best)


def ppt_criterion(scan: CriterionReport) -> dict[int, SubsetResult]:
    """Every non-trivial partial transposition as ``{mask: row}``, read from ``scan``.

    One row per subsystem subset X without the last subsystem (X and its
    complement share a spectrum), so 2^(n-1) - 1 rows, in order of X's
    bitmask. A row violates, like every scan row, iff its trace norm exceeds
    1 + ``NORM_TOL`` + ``slack``; on a state that is a negative eigenvalue,
    which ``min_eigenvalue`` reports.
    """
    masks = map(pt_mask, range(1, 1 << (len(scan.dims) - 1)))
    return {mask: scan.lookup(mask) for mask in masks}


def realignment_criterion(scan: CriterionReport) -> dict[int, SubsetResult]:
    """The realignment across every bipartite cut as ``{mask: row}``, read from
    ``scan``; no rows for a single subsystem.

    One row per cut X|X^c, X an odd subsystem bitmask (subsystem 0 in X): the
    ``cut_mask(X, n)`` transpose is the cut's realignment up to row/column
    permutations, with equal trace norm. Any norm above 1 + ``NORM_TOL`` +
    ``slack`` certifies entanglement.
    """
    n = len(scan.dims)
    masks = (cut_mask(x, n) for x in range(1, (1 << n) - 1, 2))
    return {mask: scan.lookup(mask) for mask in masks}


def negativity(scan: CriterionReport, subsystem: int) -> float:
    """(trace norm of the subsystem's partial transpose - 1) / 2, read from
    ``scan``; exactly 0 unless that row violates."""
    n = len(scan.dims)
    try:  # numpy ints too, no bool: int() would read 1.9, "1" and True as subsystem 1
        k = index(None if isinstance(subsystem, bool) else subsystem)
    except TypeError:
        k = -1
    if not 0 <= k < n:
        raise InvalidInputError(f"subsystem {subsystem!r} out of range: need an int in [0, {n})")
    return _excess(scan.lookup(pt_mask(1 << k)))
