"""Schur coefficients of chromatic symmetric functions, by three routes.

``grouped``  (the default) applies the inverse Kostka matrix, read from the
             signed content table of special rim hook tabloids, to the
             monomial expansion;
``tabloid``  sums G-tabloid signs directly, by a DP filled bottom-up with
             one state per remaining-vertex bitmask that holds every
             needed subdiagram;
``oracle``   applies the inverse by back-substitution through Kostka numbers,
             up to ``tableaux.MAX_ORACLE_VERTICES`` (22) vertices.

All three must agree on every input.  The tests compare all three, one
coefficient at a time, up to 10 vertices:
``test_method_agreement_small_sweep`` and acceptance criterion 8 up to 6,
and the extended sweep of the 6-vertex census, 7-vertex samples, GN(5,5) and
P(10); so grouped and oracle, and tabloid and oracle, meet up to 10
vertices.  ``test_principal_specialization`` checks each route alone, also
up to 10.  Grouped and tabloid meet up to 12
(``test_signed_g_tabloid_counts_equal_the_grouped_route``) and at 14 and 16
in CI (GS(7,[2,1,1,1,1,1]) and GN(8,8)), grouped and oracle at 16 and 17
(``test_expand_json_digests``) and at 22 in CI.  A power-sum expansion
meets all three on the 6-vertex census, and grouped on the 7-vertex census
and GN(6,6), and in CI on GN(8,8), GS(8,[2,1^7]) and
``random_graph(16, random.Random(1), 0.3)``.  Grouped is also checked
alone, 16 to 20 (``test_principal_specialization_at_the_frontier``):
principal specialization against closed-form chromatic polynomials, and
sum c_lambda f^lambda = n!.

The routes are not wholly independent.  Grouped and oracle share the
monomial expansion, one inclusion-exclusion count in ``graphs`` that reads
only the neighbour bitmasks ``LabeledGraph.adj``; its semi-ordered counts,
read-only per graph and keyed by the partition ids of
``partitions.partition_table``, are the only cache keyed by graph.  The
tabloid route alone reads stable sets, from the table of
``graphs.stable_sets``, which the tests check against the bitmask
enumerator, and that against brute force.  Every route reads adjacency
from ``adj``; the tests' brute-force G-tabloid stream, claw check by
quadruples and tail and cancellation stream checks read it from
``LabeledGraph.edges`` instead, so a wrong bit in ``adj`` shows up as a
disagreement.  Grouped and tabloid, and the suites' head/tail statistics,
peel rim hooks with one arithmetic peel, ``tabloids.bottom_hooks``; the
tests check it against a cell peel of their own, and that against a
brute-force tiler.  The grouped route dots the counts, id against id,
with the shape's signed content table and builds no ``CoefficientVector``
and no hook cells.  Every tabloid memo lives for one call.  The
principal-specialization and power-sum tests share no code with any
route.
"""

from __future__ import annotations

from .coeffvec import MONOMIAL, SCHUR, CoefficientVector
from .graphs import LabeledGraph, generalized_net, semi_ordered_counts_by_id
from .partitions import UNDEFINED, check_partition, check_shape, partition_table, partitions_of
from .tableaux import _check_degree, monomial_to_schur
from .tabloids import _check_route_size, _content_table, signed_g_tabloid_counts

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
    counts = semi_ordered_counts_by_id(graph)  # refuses an oversized graph first
    parts = partition_table(graph.n).parts
    return CoefficientVector(MONOMIAL, {parts[i]: c for i, c in counts.items()})


def schur_coefficient(graph: LabeledGraph, lam, method: str = GROUPED) -> int:
    """The coefficient of the Schur function at ``lam`` in the chromatic
    symmetric function of ``graph``."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    lam = check_shape(lam, graph.n)
    if method == TABLOID:
        return signed_g_tabloid_counts(graph, [lam])[lam]
    if method == GROUPED:
        return _grouped(lam, semi_ordered_counts_by_id(graph))
    return _oracle(graph)[lam]


def _grouped(lam, mono) -> int:
    # lam: an already checked partition; mono: the cached monomial
    # coefficients by partition id, zero entries absent
    return sum(c * mono.get(i, 0) for i, c in _content_table(lam).items())


def _oracle(graph) -> CoefficientVector:
    _check_degree(graph.n)  # before the type count, whose cap is higher
    return monomial_to_schur(chromatic_monomial_expansion(graph))


def schur_expansion(graph: LabeledGraph, method: str = GROUPED) -> CoefficientVector:
    """Full Schur expansion over all partitions of the vertex count."""
    if method == ORACLE:
        return _oracle(graph)
    if method == GROUPED:
        mono = semi_ordered_counts_by_id(graph)
        coeffs = {lam: _grouped(lam, mono) for lam in partitions_of(graph.n)}
    elif method == TABLOID:
        _check_route_size(graph)
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
    return _grouped(lam, semi_ordered_counts_by_id(graph))


def f_coefficient(c: int, d: int) -> int:
    """Schur coefficient at shape (2^c, 1^d) of the net with c+d body
    vertices and c pendants; zero for negative arguments.

    Computed by the default route on the default (pendant-first) labeling,
    as a Schur coefficient does not depend on the labels.  The c = d = 0
    case is the empty diagram on the empty graph, whose single empty
    tabloid gives 1.
    """
    if c < 0 or d < 0:
        return 0
    return xi((2,) * c + (1,) * d, generalized_net(c + d, c))


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
