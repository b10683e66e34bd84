"""Entanglement detection for multipartite density matrices.

Separability criteria built from trace norms of index-relabeled matrices:
partial transposition, realignment across bipartite cuts, and the full
family of row/column label-subset transposes, plus the induced entanglement
measure and negativity.
"""

__version__ = "0.1.0"

from .criteria import (
    NORM_TOL,
    CriterionReport,
    SubsetResult,
    Verdict,
    evaluate_subset,
    gpt_scan,
    negativity,
    ppt_criterion,
    realignment_criterion,
)
from .errors import EntscanError, InvalidInputError, NumericalError
from .linalg import (
    DensityMatrix,
    singular_values,
    trace_norm,
)
from .reshape import (
    enumerate_label_subsets,
    format_label_set,
    generalized_transpose,
    parse_label_set,
)
from .states import (
    StateSpec,
    bell_state,
    generate,
    ghz_state,
    horodecki_2x4,
    horodecki_3x3,
    isotropic_state,
    max_mixed,
    parse_state_spec,
    random_density,
    random_product_state,
    separable_mixture,
    spec_text,
    w_state,
    werner_state,
)

__all__ = [
    "__version__",
    "CriterionReport",
    "DensityMatrix",
    "EntscanError",
    "InvalidInputError",
    "NORM_TOL",
    "NumericalError",
    "StateSpec",
    "SubsetResult",
    "Verdict",
    "bell_state",
    "enumerate_label_subsets",
    "evaluate_subset",
    "format_label_set",
    "generalized_transpose",
    "generate",
    "ghz_state",
    "gpt_scan",
    "horodecki_2x4",
    "horodecki_3x3",
    "isotropic_state",
    "max_mixed",
    "negativity",
    "parse_label_set",
    "parse_state_spec",
    "ppt_criterion",
    "random_density",
    "random_product_state",
    "realignment_criterion",
    "separable_mixture",
    "singular_values",
    "spec_text",
    "trace_norm",
    "w_state",
    "werner_state",
]
