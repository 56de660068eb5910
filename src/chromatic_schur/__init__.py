"""Exact Schur expansions of chromatic symmetric functions.

Coefficients are computed three ways that must agree: signed rim hook
tabloid sums, and the monomial expansion (stable-partition counts) taken to
the Schur basis either by signed rim hook tabloids or by Kostka
back-substitution.  The last two share the monomial expansion, one
inclusion-exclusion count over vertex subsets, and its read-only counts are
the only per-graph result kept between calls; the first alone reads stable
sets, from ``graphs.stable_sets``.  Every engine reads a graph by the
neighbour bitmasks it stores, ``LabeledGraph.adj``.  The two rim hook
routes and the suites' head/tail statistics share the package's one rim
hook peel, ``tabloids.bottom_hooks``, and the counts and signed content
tables one partition numbering, ``partitions.partition_table``.  No tabloid
memo outlives its call.  Batch suites verify the recurrences and positivity
statements these coefficients satisfy.
"""

from .coeffvec import MONOMIAL, SCHUR, CoefficientVector
from .coefficients import (
    GROUPED,
    METHODS,
    ORACLE,
    TABLOID,
    chromatic_monomial_expansion,
    f_coefficient,
    is_schur_positive,
    schur_coefficient,
    schur_expansion,
    xi,
)
from .graphs import (
    PENDANT_FIRST,
    PENDANT_LAST,
    LabeledGraph,
    complete_graph,
    generalized_net,
    generalized_spider,
    is_claw_free,
    count_semi_ordered_stable_partitions,
    path_graph,
    star_graph,
    with_disjoint_path,
)
from .partitions import (
    UNDEFINED,
    partitions_of,
    strip_trailing_ones,
)
from .tableaux import monomial_to_schur

__version__ = "0.1.0"

__all__ = [
    "CoefficientVector",
    "GROUPED",
    "LabeledGraph",
    "METHODS",
    "MONOMIAL",
    "ORACLE",
    "PENDANT_FIRST",
    "PENDANT_LAST",
    "SCHUR",
    "TABLOID",
    "UNDEFINED",
    "chromatic_monomial_expansion",
    "complete_graph",
    "count_semi_ordered_stable_partitions",
    "f_coefficient",
    "generalized_net",
    "generalized_spider",
    "is_claw_free",
    "is_schur_positive",
    "monomial_to_schur",
    "partitions_of",
    "path_graph",
    "schur_coefficient",
    "schur_expansion",
    "star_graph",
    "strip_trailing_ones",
    "with_disjoint_path",
    "xi",
]
