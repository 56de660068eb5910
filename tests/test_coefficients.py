import random
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromatic_schur.coefficients import (
    GROUPED,
    ORACLE,
    TABLOID,
    chromatic_monomial_expansion,
    f_coefficient,
    is_schur_positive,
    schur_coefficient,
    schur_expansion,
    xi,
)
from chromatic_schur.graphs import (
    GRAPH_CACHE_SIZE,
    PENDANT_LAST,
    LabeledGraph,
    complete_graph,
    generalized_net,
    generalized_spider,
    path_graph,
    star_graph,
    with_disjoint_path,
)
from chromatic_schur.partitions import UNDEFINED, partitions_of
from chromatic_schur.tabloids import signed_g_tabloid_counts
from graph_helpers import random_graph, random_relabeling
from tabloid_helpers import srh_g_tabloids


def test_monomial_expansions():
    assert chromatic_monomial_expansion(complete_graph(2)).coeffs == {(1, 1): 2}
    assert chromatic_monomial_expansion(path_graph(3)).coeffs == {(1, 1, 1): 6, (2, 1): 1}
    assert chromatic_monomial_expansion(star_graph(3)).coeffs == {
        (3, 1): 1,
        (2, 1, 1): 6,
        (1, 1, 1, 1): 24,
    }
    assert chromatic_monomial_expansion(generalized_net(0, 0)).coeffs == {(): 1}


def _colorings_with_usage(graph, mu):
    """Oracle straight from the definition: proper colorings of the vertex
    set into colors 1..len(mu) where color i is used exactly mu[i] times."""
    import itertools

    count = 0
    for coloring in itertools.product(range(len(mu)), repeat=graph.n):
        if any(coloring.count(i) != mu[i] for i in range(len(mu))):
            continue
        if all(coloring[u - 1] != coloring[v - 1] for u, v in graph.edges):
            count += 1
    return count


def test_monomial_expansion_matches_coloring_enumeration():
    rng = random.Random(31)
    graphs = [complete_graph(3), path_graph(4), star_graph(3)]
    graphs += [random_graph(5, rng) for _ in range(4)]
    # edgeless, and a separate component: the opening vertex's non-neighbours
    # are the whole remainder, or reach across components
    graphs += [LabeledGraph(5), with_disjoint_path(path_graph(3), 2)]
    # vertex 1 isolated, so it opens a part alone or with anyone; and the
    # lowest labels in the smaller of two components
    graphs += [
        LabeledGraph(5, [(2, 3), (3, 4), (4, 5), (2, 5)]),
        LabeledGraph(6, [(1, 2), (3, 4), (4, 5), (5, 6), (3, 6), (3, 5)]),
    ]
    for graph in graphs:
        expansion = chromatic_monomial_expansion(graph)
        for mu in partitions_of(graph.n):
            assert expansion[mu] == _colorings_with_usage(graph, mu)


def test_schur_coefficient_examples():
    for n in range(1, 5):
        assert schur_coefficient(complete_graph(n), (1,) * n) == factorial(n)
    assert schur_coefficient(star_graph(3), (2, 2)) == -1
    assert schur_coefficient(path_graph(3), (2, 1)) == 1
    assert schur_coefficient(path_graph(3), (1, 1, 1)) == 4


def test_schur_coefficient_validation():
    for method in (TABLOID, GROUPED, ORACLE):
        with pytest.raises(ValueError, match="partition size must equal the vertex count"):
            schur_coefficient(complete_graph(3), (2, 2), method)
    with pytest.raises(ValueError):
        schur_coefficient(complete_graph(3), (2, 1), method="magic")
    with pytest.raises(ValueError):
        schur_expansion(complete_graph(3), "bogus")
    with pytest.raises(ValueError):
        schur_coefficient(complete_graph(3), (1, 2))
    with pytest.raises(ValueError):
        xi((1, 2), complete_graph(3))


def test_oracle_route_checks_its_cap_before_the_type_count():
    from chromatic_schur.graphs import _types_for

    path = path_graph(23)
    counted = _types_for.cache_info().currsize
    message = "23 vertices exceed the cap of 22 on the oracle route"
    with pytest.raises(ValueError, match=message):
        schur_expansion(path, ORACLE)
    with pytest.raises(ValueError, match=message):
        schur_coefficient(path, (2,) * 11 + (1,), ORACLE)
    assert _types_for.cache_info().currsize == counted


def test_schur_expansion_examples():
    assert schur_expansion(complete_graph(3)).coeffs == {(1, 1, 1): 6}
    assert schur_expansion(star_graph(3)).coeffs == {
        (3, 1): 1,
        (2, 2): -1,
        (2, 1, 1): 5,
        (1, 1, 1, 1): 8,
    }
    two_isolated = with_disjoint_path(generalized_net(1, 0), 1)
    assert schur_expansion(two_isolated).coeffs == {(2,): 1, (1, 1): 1}


def test_xi_extends_by_zero():
    assert xi(UNDEFINED, complete_graph(2)) == 0
    assert xi((1,), UNDEFINED) == 0
    assert xi((1,), complete_graph(1)) == 1
    assert xi((2, 1), complete_graph(2)) == 0  # size mismatch
    assert xi((2, 2), generalized_net(2, 2)) == 2


def test_f_coefficient_examples():
    assert f_coefficient(0, 3) == 6
    assert [f_coefficient(n, 0) for n in range(7)] == [1, 0, 2, 0, 24, 0, 720]
    assert f_coefficient(1, 1) == 1
    assert f_coefficient(-1, 2) == 0
    assert f_coefficient(2, -1) == 0


def test_f_recurrence_small():
    for c in range(1, 4):
        for d in range(1, 4):
            assert f_coefficient(c, d) == c * f_coefficient(c - 1, d) + d * f_coefficient(c, d - 1)


def test_is_schur_positive():
    positive, witness = is_schur_positive(star_graph(3))
    assert not positive and witness == (2, 2)
    assert is_schur_positive(generalized_net(3, 3)) == (True, None)
    assert is_schur_positive(complete_graph(4)) == (True, None)


def test_tabloid_count_matches_object_enumerator():
    """The DP's signed count, asked one shape at a time and for every shape
    at once, is exactly the sign sum over the streaming enumerator; check
    on a mixed sweep."""
    rng = random.Random(99)
    graphs = [
        complete_graph(4),
        path_graph(5),
        star_graph(3),
        generalized_net(3, 2),
        generalized_spider(3, (2, 1)),
        with_disjoint_path(generalized_net(2, 1), 1),
    ]
    graphs += [random_graph(5, rng) for _ in range(6)]
    graphs += [
        random_graph(rng.randint(0, 6), rng, rng.choice((0.0, 0.3, 0.6)))
        for _ in range(20)
    ]
    for graph in graphs:
        shapes = partitions_of(graph.n)
        direct = {lam: sum(t.sign for t in srh_g_tabloids(lam, graph)) for lam in shapes}
        assert signed_g_tabloid_counts(graph, shapes) == direct, graph
        for lam in shapes:
            assert schur_coefficient(graph, lam, TABLOID) == direct[lam], (graph, lam)


def test_per_graph_caches_stay_bounded():
    """More distinct graphs than the bound leave at most the bound of
    per-graph counts cached, and an evicted graph still gets its
    coefficients."""
    import itertools

    from chromatic_schur import graphs as graphs_module

    pairs = list(itertools.combinations(range(1, 6), 2))
    touched = [
        LabeledGraph(5, [p for i, p in enumerate(pairs) if bits >> i & 1])
        for bits in range(GRAPH_CACHE_SIZE + 20)
    ]
    first = touched[0]
    expected = {method: schur_expansion(first, method) for method in (TABLOID, GROUPED)}
    for graph in touched:
        chromatic_monomial_expansion(graph)
    info = graphs_module._types_for.cache_info()
    assert info.maxsize == GRAPH_CACHE_SIZE and info.currsize <= GRAPH_CACHE_SIZE
    assert all(schur_expansion(first, method) == vec for method, vec in expected.items())
    assert schur_expansion(first, ORACLE) == expected[TABLOID]
    # the first graph is edgeless, so its coefficients are the f^lambda
    assert [expected[TABLOID][lam] for lam in ((5,), (4, 1), (3, 2), (3, 1, 1))] == [1, 4, 5, 6]


def test_default_path_leaves_the_tabloid_memo_empty(capsys, monkeypatch):
    """The tabloid route's memo is a list of 2^n slots, one per
    remaining-vertex bitmask, bounded only by the vertex cap, so no default
    entry point may call it."""
    from chromatic_schur import coefficients
    from chromatic_schur.cli import main

    def forbidden(*args):
        raise AssertionError("a default entry point reached the tabloid route")

    monkeypatch.setattr(coefficients, "signed_g_tabloid_counts", forbidden)
    net = generalized_net(3, 2)
    with pytest.raises(AssertionError):
        schur_expansion(net, TABLOID)
    schur_expansion(net)
    schur_coefficient(net, (2, 1, 1, 1))
    xi((2, 2, 1), net)
    is_schur_positive(star_graph(3))
    f_coefficient(2, 2)
    assert main(["expand", "--graph", "GN(3,3)"]) == 0
    capsys.readouterr()


def test_method_agreement_small_sweep():
    rng = random.Random(5)
    graphs = [complete_graph(4), path_graph(4), star_graph(3), generalized_net(2, 2)]
    graphs += [random_graph(5, rng) for _ in range(5)]
    for graph in graphs:
        for lam in partitions_of(graph.n):
            vals = {
                schur_coefficient(graph, lam, method)
                for method in (TABLOID, GROUPED, ORACLE)
            }
            assert len(vals) == 1


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**30))
def test_label_invariance_random_graphs(seed):
    rng = random.Random(seed)
    graph = random_graph(5, rng)
    relabeled = random_relabeling(graph, rng)
    for lam in partitions_of(5):
        assert schur_coefficient(graph, lam) == schur_coefficient(relabeled, lam)


def test_body_needs_its_own_hook():
    """Coefficients vanish whenever the shape has fewer parts than the body
    clique, for nets and spiders alike."""
    for n in range(2, 5):
        for m in range(0, n + 1):
            graph = generalized_net(n, m, PENDANT_LAST)
            for lam in partitions_of(graph.n):
                if len(lam) < n:
                    assert schur_coefficient(graph, lam) == 0
    spider = generalized_spider(3, (2, 1))
    for lam in partitions_of(spider.n):
        if len(lam) < 3:
            assert schur_coefficient(spider, lam) == 0


def test_singleton_union_identity_small():
    for c in range(1, 4):
        for d in range(0, 3):
            lhs = xi(
                (2,) * c + (1,) * d,
                with_disjoint_path(generalized_net(c + d, c - 1, PENDANT_LAST), 1),
            )
            rhs = xi((2,) * (c - 1) + (1,) * (d + 1), generalized_net(c + d, c - 1, PENDANT_LAST))
            assert lhs == rhs
