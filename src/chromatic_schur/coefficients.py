"""Schur coefficients of chromatic symmetric functions, by three routes.

``grouped``  (the default) applies the inverse Kostka matrix, read from the
             signed content table of special rim hook tabloids, to the
             monomial expansion;
``tabloid``  sums G-tabloid signs directly, with memoization on
             (subdiagram, remaining-vertex-set) states;
``oracle``   applies the inverse by back-substitution through Kostka numbers.

All three must agree on every input; the test suite enforces this.  They are
not wholly independent.  All three read stable sets from the one table of
``graphs.stable_sets``, which the tests check against the bitmask
enumerator, and that against brute force.  The grouped and tabloid routes
peel rim hooks with the one peel of ``tabloids``, which the head/tail
statistics of the verification suites also walk; the tests check it
against a brute-force tiler.  Grouped and oracle also share the monomial
expansion, which comes from ``graphs.stable_partition_types``.  Its type
vector, kept per graph, is the only cache keyed by graph; every tabloid
memo lives for one call.  The principal-specialization tests share no code
with any route.
"""

from __future__ import annotations

from .coeffvec import MONOMIAL, SCHUR, CoefficientVector
from .graphs import (
    PENDANT_LAST,
    LabeledGraph,
    generalized_net,
    multiplicity_factorials,
    stable_partition_types,
)
from .partitions import UNDEFINED, check_partition, partitions_of
from .tableaux import monomial_to_schur
from .tabloids import signed_content_table, signed_g_tabloid_counts

TABLOID = "tabloid"
GROUPED = "grouped"
ORACLE = "oracle"
METHODS = (TABLOID, GROUPED, ORACLE)


def chromatic_monomial_expansion(graph: LabeledGraph) -> CoefficientVector:
    """Monomial expansion of the chromatic symmetric function.

    The m_mu coefficient equals the semi-ordered stable partition count of
    type mu: each unordered stable partition contributes the full product of
    size-multiplicity factorials, which is the augmented-monomial expansion.
    """
    coeffs = {
        mu: count * multiplicity_factorials(mu)
        for mu, count in stable_partition_types(graph).items()
    }
    return CoefficientVector(MONOMIAL, coeffs)


def schur_coefficient(graph: LabeledGraph, lam, method: str = GROUPED) -> int:
    """The coefficient of the Schur function at ``lam`` in the chromatic
    symmetric function of ``graph``."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    lam = check_partition(lam)
    if sum(lam) != graph.n:
        raise ValueError("partition size must equal the vertex count")
    if method == TABLOID:
        return signed_g_tabloid_counts(graph, [lam])[lam]
    mono = chromatic_monomial_expansion(graph)
    if method == GROUPED:
        return _grouped(lam, mono)
    return monomial_to_schur(mono)[lam]


def _grouped(lam, mono: CoefficientVector) -> int:
    return sum(c * mono[mu] for mu, c in signed_content_table(lam).items())


def schur_expansion(graph: LabeledGraph, method: str = GROUPED) -> CoefficientVector:
    """Full Schur expansion over all partitions of the vertex count."""
    if method == ORACLE:
        return monomial_to_schur(chromatic_monomial_expansion(graph))
    if method == GROUPED:
        mono = chromatic_monomial_expansion(graph)
        coeffs = {lam: _grouped(lam, mono) for lam in partitions_of(graph.n)}
    elif method == TABLOID:
        coeffs = signed_g_tabloid_counts(graph, partitions_of(graph.n))
    else:
        raise ValueError(f"unknown method {method!r}")
    return CoefficientVector(SCHUR, coeffs)


def xi(lam, graph) -> int:
    """Schur coefficient extended by zero to malformed (partition, graph)
    pairs, so recurrence terms built from stripped partitions and shrunken
    graphs vanish instead of raising."""
    if lam is UNDEFINED or graph is UNDEFINED:
        return 0
    lam = check_partition(lam)
    if sum(lam) != graph.n:
        return 0
    return schur_coefficient(graph, lam)


def f_coefficient(c: int, d: int) -> int:
    """Schur coefficient at shape (2^c, 1^d) of the net with c+d body
    vertices and c pendants; zero for negative arguments.

    Computed by the default route on a pendant-last labeling.  The
    c = d = 0 case is the empty diagram on the empty graph, whose single
    empty tabloid gives 1.
    """
    if c < 0 or d < 0:
        return 0
    net = generalized_net(c + d, c, PENDANT_LAST)
    return xi((2,) * c + (1,) * d, net)


def is_schur_positive(graph: LabeledGraph):
    """Whether every Schur coefficient is nonnegative.

    On failure also returns the witness partition carrying a negative
    coefficient, taking the least such in the canonical partition order.
    """
    expansion = schur_expansion(graph)
    witness = None
    for lam in reversed(partitions_of(graph.n)):
        if expansion[lam] < 0:
            witness = lam
            break
    return witness is None, witness
