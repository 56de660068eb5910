import hashlib
import itertools
import json
import pickle
import random
from collections import Counter
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromatic_schur.graphs import (
    ANCHOR,
    BUOY,
    PENDANT,
    PENDANT_FIRST,
    PENDANT_LAST,
    SPECIAL_ANCHOR,
    SPECIAL_PENDANT,
    LabeledGraph,
    complete_graph,
    connected_graphs,
    count_semi_ordered_stable_partitions,
    generalized_net,
    generalized_spider,
    is_claw_free,
    _last_is_least_non_cut,
    least_edge_mask,
    mask_labels,
    path_graph,
    semi_ordered_counts_by_id,
    stable_masks,
    star_graph,
    vertex_mask,
    with_disjoint_path,
)
from chromatic_schur.partitions import UNDEFINED, partition_table, partitions_of
from graph_helpers import (
    are_isomorphic,
    brute_force_connected_graphs,
    is_claw_free_by_quadruples,
    is_connected,
    least_edge_mask_by_relabeling,
    random_graph,
    random_relabeling,
    semi_ordered_partition_types,
    stable_partition_types,
    validate_roles,
)


def test_graph_validation():
    with pytest.raises(ValueError):
        LabeledGraph(2, [(1, 1)])
    with pytest.raises(ValueError):
        LabeledGraph(2, [(1, 3)])
    with pytest.raises(ValueError):
        LabeledGraph(2, [], roles={1: "nonsense"})
    with pytest.raises(ValueError):
        LabeledGraph(-1)
    with pytest.raises(ValueError):
        LabeledGraph(2, [], roles={3: "pendant"})
    with pytest.raises(ValueError):
        LabeledGraph(2, [(1, 2)]).relabel({1: 1, 2: 1})


@st.composite
def _edges_listed_twice(draw):
    # a graph's edges, and the same edges in another order and orientation
    n = draw(st.integers(0, 9))
    edges = [p for p in itertools.combinations(range(1, n + 1), 2) if draw(st.booleans())]
    listed = draw(st.permutations(edges))
    flips = draw(st.lists(st.booleans(), min_size=len(listed), max_size=len(listed)))
    return n, edges, [(v, u) if flip else (u, v) for (u, v), flip in zip(listed, flips)]


@settings(max_examples=200, deadline=None)
@given(_edges_listed_twice())
def test_neighbour_bitmasks_encode_the_edges(case):
    from chromatic_schur import graphs

    n, edges, listed = case
    graph, again = LabeledGraph(n, edges), LabeledGraph(n, listed)
    assert len(graph.adj) == n + 1 and graph.adj[0] == 0
    for v in graph.vertices:
        near = {u for e in edges if v in e for u in e if u != v}
        assert graph.adj[v] == vertex_mask(near)
        assert set(mask_labels(graph.adj[v])) == near
        assert graph.degree(v) == len(near)
        assert [graph.adjacent(v, u) for u in graph.vertices] == [u in near for u in graph.vertices]
    # the key is the masks, so both listings share one cached type count
    assert again.key() == graph.key()
    before = graphs._types_for.cache_info()
    assert semi_ordered_counts_by_id(graph) is semi_ordered_counts_by_id(again)
    after = graphs._types_for.cache_info()
    assert after.misses - before.misses <= 1 and after.hits - before.hits >= 1
    # and adding any one edge changes the key
    for pair in itertools.combinations(graph.vertices, 2):
        if pair not in graph.edges:
            assert LabeledGraph(n, [*edges, pair]).key() != graph.key(), pair


def test_net_pendant_first_labels():
    g = generalized_net(4, 2, PENDANT_FIRST)
    assert g.n == 6 and len(g.edges) == 8
    assert g.labels_with_role(PENDANT) == (1, 2)
    assert g.labels_with_role(ANCHOR) == (3, 4)
    assert g.labels_with_role(BUOY) == (5, 6)
    # pendant i hangs from anchor m+i
    assert g.adjacent(1, 3) and g.adjacent(2, 4)
    assert not g.adjacent(1, 4) and not g.adjacent(2, 3)
    validate_roles(g)


def test_net_pendant_last_labels():
    g = generalized_net(4, 2, PENDANT_LAST)
    assert g.labels_with_role(BUOY) == (1, 2)
    assert g.labels_with_role(ANCHOR) == (3, 4)
    assert g.labels_with_role(PENDANT) == (5, 6)
    assert g.adjacent(3, 5) and g.adjacent(4, 6)
    validate_roles(g)


def test_net_edge_counts_and_corners():
    g = generalized_net(5, 3)
    assert g.n == 8 and len(g.edges) == 13  # C(5,2) + 3
    k1 = generalized_net(1, 0)
    assert k1.n == 1 and len(k1.edges) == 0
    empty = generalized_net(0, 0)
    assert empty.n == 0
    assert generalized_net(1, 2) is UNDEFINED
    assert generalized_net(-1, 0) is UNDEFINED
    with pytest.raises(ValueError):
        generalized_net(3, 1, "sideways")


def test_net_labelings_isomorphic():
    for n in range(1, 5):
        for m in range(0, n + 1):
            if n + m > 8:
                continue
            first = generalized_net(n, m, PENDANT_FIRST)
            last = generalized_net(n, m, PENDANT_LAST)
            assert are_isomorphic(first, last)


def test_spider_examples():
    g = generalized_spider(5, (4, 2, 1))
    assert g.n == 12
    validate_roles(g)
    assert generalized_spider(3, ()).key() == complete_graph(3).key()
    assert are_isomorphic(generalized_spider(3, (1, 1)), generalized_net(3, 2))
    assert generalized_spider(2, (1, 1, 1)) is UNDEFINED


def test_spider_special_family_labels():
    g = generalized_spider(3, (2, 1))
    # far end of the long leg gets the minimum label, its neighbor the next
    assert g.labels_with_role(SPECIAL_PENDANT) == (1,)
    assert g.adjacent(1, 2) and g.roles.get(2) == PENDANT
    assert g.labels_with_role(SPECIAL_ANCHOR) == (4,)
    assert g.adjacent(2, 4)
    assert g.degree(1) == 1
    validate_roles(g)
    # and only the one-long-leg family has special roles
    for legs in partitions_of(5):
        special = generalized_spider(5, legs).labels_with_role(SPECIAL_PENDANT, SPECIAL_ANCHOR)
        assert bool(special) == (legs[:1] == (2,) and set(legs[1:]) <= {1}), legs


def test_spider_net_family_matches_net_labels():
    # nets are the unit-leg spiders, and the pendant-last net is a relabeling
    for n in range(11):
        for m in range(n + 1):
            first = generalized_net(n, m, PENDANT_FIRST)
            spider = generalized_spider(n, (1,) * m)
            assert first == spider and first.adj == spider.adj, (n, m)
            # pendant i -> n+i, anchor m+i -> n-m+i, buoy 2m+j -> j; equality
            # compares roles too
            perm = {i: n + i for i in range(1, m + 1)}
            perm.update((m + i, n - m + i) for i in range(1, m + 1))
            perm.update((2 * m + j, j) for j in range(1, n - m + 1))
            moved, last = first.relabel(perm), generalized_net(n, m, PENDANT_LAST)
            assert moved == last and moved.adj == last.adj, (n, m)


def test_family_graphs_are_built_once_per_process():
    from chromatic_schur import graphs
    from chromatic_schur.verify import run_f_table_suite, run_net_recurrence_suite, run_spider_recurrence_suite

    graphs._family_graph.cache_clear()
    run_net_recurrence_suite(6)
    run_spider_recurrence_suite(5)
    run_f_table_suite(7)
    info = graphs._family_graph.cache_info()
    # one miss per distinct argument tuple, and every repeat a hit
    assert info.maxsize == graphs.GRAPH_CACHE_SIZE
    assert info.misses == info.currsize < info.maxsize and info.hits > info.misses
    run_net_recurrence_suite(6)
    assert graphs._family_graph.cache_info().misses == info.misses
    assert generalized_net(4, 2, PENDANT_LAST) is generalized_net(4, 2, PENDANT_LAST)
    assert generalized_spider(3, [2, 1]) is generalized_spider(3, (2, 1))
    assert generalized_net(3, 3) is generalized_spider(3, (1, 1, 1))


def test_with_disjoint_path():
    two_isolated = with_disjoint_path(generalized_net(1, 0), 1)
    assert two_isolated.n == 2 and len(two_isolated.edges) == 0
    g = with_disjoint_path(generalized_net(2, 1), 1)
    assert g.n == 4 and len(g.edges) == 2
    g = with_disjoint_path(complete_graph(3), 2)
    assert g.n == 5 and len(g.edges) == 4
    assert g.adjacent(4, 5)
    with pytest.raises(ValueError):
        with_disjoint_path(complete_graph(2), 3)
    assert with_disjoint_path(UNDEFINED, 1) is UNDEFINED


def test_claw_free_examples():
    assert not is_claw_free(star_graph(3))
    assert is_claw_free(generalized_net(5, 3))
    assert is_claw_free(path_graph(4))


def test_families_claw_free_sweep():
    for n in range(1, 7):
        for m in range(0, n + 1):
            assert is_claw_free(generalized_net(n, m))
    for n in range(3, 7):
        for legs_n in range(0, 5):
            for legs in partitions_of(legs_n):
                if len(legs) <= n:
                    assert is_claw_free(generalized_spider(n, legs))


def test_claw_free_matches_quadruple_check():
    graphs = [g for n in range(1, 7) for g in connected_graphs(n)]
    rng = random.Random(41)
    graphs += [random_graph(n, rng, p) for n in range(9) for p in (0.3, 0.5, 0.7) for _ in range(4)]
    graphs += [generalized_net(n, m) for n in range(1, 7) for m in range(n + 1)]
    graphs += [
        generalized_spider(n, legs)
        for n in range(3, 7)
        for size in range(5)
        for legs in partitions_of(size)
        if len(legs) <= n
    ]
    graphs += [star_graph(3), star_graph(5), complete_graph(5)]
    verdicts = [is_claw_free(g) for g in graphs]
    assert verdicts == [is_claw_free_by_quadruples(g) for g in graphs]
    assert True in verdicts and False in verdicts


def test_connected_claw_free_counts():
    # OEIS A022562: connected claw-free graphs on n vertices
    counts = [sum(map(is_claw_free, connected_graphs(n))) for n in range(1, 7)]
    assert counts == [1, 1, 2, 5, 14, 50]


def _cycle(n):
    return LabeledGraph(n, [(v, v % n + 1) for v in range(1, n + 1)])


def _complement(graph):
    pairs = itertools.combinations(graph.vertices, 2)
    return LabeledGraph(graph.n, [(u, v) for u, v in pairs if not graph.adjacent(u, v)])


def _complete_multipartite(*sizes):
    part = [i for i, size in enumerate(sizes) for _ in range(size)]
    pairs = itertools.combinations(range(len(part)), 2)
    return LabeledGraph(len(part), [(u + 1, v + 1) for u, v in pairs if part[u] != part[v]])


def test_least_edge_mask_matches_every_relabeling():
    # graphs with many tied candidates and twins
    graphs = [complete_graph(n) for n in range(8)]
    graphs += [_cycle(n) for n in range(3, 8)]
    graphs += [star_graph(m) for m in range(1, 7)]
    graphs += [_complete_multipartite(3, 3), _complete_multipartite(2, 2, 2)]
    graphs += [_complete_multipartite(1, 2, 3), _complement(_cycle(6)), _complement(_cycle(7))]
    graphs += [generalized_net(4, 2), generalized_spider(3, (2, 1)), path_graph(7)]
    # seeded random graphs, disconnected ones among them
    rng = random.Random(13)
    graphs += [random_graph(n, rng, p) for n in range(2, 8) for p in (0.2, 0.5, 0.8) for _ in range(2)]
    assert any(not is_connected(g) for g in graphs)
    for graph in graphs:
        expected = least_edge_mask_by_relabeling(graph)
        assert least_edge_mask(graph.adj) == expected, graph
        shuffled = random_relabeling(graph, rng)
        assert least_edge_mask(shuffled.adj) == expected, shuffled


@pytest.mark.slow
def test_connected_graph_census_on_seven_vertices():
    # OEIS A001349; the digest pins the list and its order as the search over
    # every relabeling gave them
    graphs = connected_graphs(7)
    assert len(graphs) == 853
    digest = hashlib.sha256(json.dumps([sorted(g.edges) for g in graphs]).encode()).hexdigest()
    assert digest == "cf72f473a777d59c28dd653906ba815d68e0ce4844b47e000553c8ce60eb52e6"
    # OEIS A022562
    assert sum(map(is_claw_free, graphs)) == 191


def _without(graph, v):
    # the graph less vertex v, the labels above v moved down by one
    return LabeledGraph(graph.n - 1, [(a - (a > v), b - (b > v)) for a, b in graph.edges if v not in (a, b)])


def test_census_candidate_rule():
    # a candidate is canonicalized only when its last vertex has the least
    # (degree, sorted neighbour degrees) among the non-cut vertices; in
    # K4 - c - K4 the vertex c of least invariant is a cut vertex, so the
    # class is reached with a degree-3 vertex of a K4 joined last
    k4_c_k4 = LabeledGraph(
        9, [*itertools.combinations(range(1, 5), 2), *itertools.combinations(range(6, 10), 2), (4, 5), (5, 6)]
    )
    for graph in [*connected_graphs(6), _cycle(7), k4_c_k4]:
        n = graph.n
        invariant = {v: (graph.degree(v), sorted(map(graph.degree, mask_labels(graph.adj[v])))) for v in graph.vertices}
        non_cut = [v for v in graph.vertices if is_connected(_without(graph, v))]
        least = min(invariant[v] for v in non_cut)
        # a census candidate's last vertex is never a cut vertex
        for v in non_cut:
            last = graph.relabel({**{u: u for u in graph.vertices}, v: n, n: v})
            assert _last_is_least_non_cut(last.adj) == (invariant[v] == least), (graph, v)


def test_stable_partition_counts():
    k2 = complete_graph(2)
    assert count_semi_ordered_stable_partitions(k2, (1, 1)) == 2
    assert count_semi_ordered_stable_partitions(k2, (2,)) == 0
    assert count_semi_ordered_stable_partitions(star_graph(3), (3, 1)) == 1
    with pytest.raises(ValueError, match="partition size must equal the vertex count"):
        count_semi_ordered_stable_partitions(k2, (1, 1, 1))


def test_stable_partition_singletons_and_cliques():
    rng = random.Random(7)
    for n in range(1, 6):
        g = random_graph(n, rng)
        assert count_semi_ordered_stable_partitions(g, (1,) * n) == factorial(n)
    for n in range(2, 6):
        for mu in partitions_of(n):
            if any(p >= 2 for p in mu):
                assert count_semi_ordered_stable_partitions(complete_graph(n), mu) == 0


def test_stable_partition_types_closed_forms():
    # an edgeless graph: every set partition is stable, so the semi-ordered
    # count of mu is the multinomial n! / prod mu_j!; a clique: singletons only
    edgeless = semi_ordered_partition_types(LabeledGraph(16))
    assert len(edgeless) == len(partitions_of(16)) == 231
    for mu in partitions_of(16):
        assert edgeless[mu] == factorial(16) // prod(map(factorial, mu)), mu
    assert dict(semi_ordered_partition_types(complete_graph(14))) == {(1,) * 14: factorial(14)}


def _brute_force_types(graph) -> dict:
    """Stable partition counts by type, from every set partition of the
    vertices built by placing vertex 1, 2, ... into a block or a new one."""
    counts = Counter()
    blocks = []

    def place(v):
        if v > graph.n:
            counts[tuple(sorted(map(len, blocks), reverse=True))] += 1
            return
        for block in blocks:
            if not any(graph.adjacent(v, u) for u in block):
                block.append(v)
                place(v + 1)
                block.pop()
        blocks.append([v])
        place(v + 1)
        blocks.pop()

    place(1)
    return dict(counts)


def test_stable_partition_types_ignore_labels():
    rng = random.Random(20261018)
    cases = [random_graph(n, rng, p) for n in range(6, 10) for p in (0.3, 0.6)]
    cases += [
        LabeledGraph(8),
        LabeledGraph(9, [(1, 5), (5, 9), (2, 6), (6, 7), (3, 8), (4, 8)]),
    ]
    for graph in cases:
        expected = _brute_force_types(graph)
        assert dict(stable_partition_types(graph)) == expected, graph
        for _ in range(3):
            assert dict(stable_partition_types(random_relabeling(graph, rng))) == expected, graph
    net = dict(stable_partition_types(generalized_net(8, 8, PENDANT_FIRST)))
    assert dict(stable_partition_types(generalized_net(8, 8, PENDANT_LAST))) == net


def test_partition_insertion_table():
    parts, ids, insert = partition_table(12)
    assert parts == tuple(mu for size in range(13) for mu in partitions_of(size))
    assert ids == {mu: i for i, mu in enumerate(parts)}
    small = partition_table(9)
    assert small.parts == parts[: len(small.parts)]
    assert all(insert[k][: len(row)] == row for k, row in enumerate(small.insert))
    for k in range(1, 13):
        assert len(insert[k]) == sum(1 for mu in parts if sum(mu) + k <= 12)
        for i, j in enumerate(insert[k]):
            assert parts[j] == tuple(sorted(parts[i] + (k,), reverse=True))


def _graph_and_avail(n):
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    graphs = st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)).map(
        lambda bits: LabeledGraph(n, [p for p, b in zip(pairs, bits) if b])
    )
    return st.tuples(graphs, st.sets(st.integers(1, n)))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 9).flatmap(_graph_and_avail))
def test_stable_sets_by_mask_match_brute_force_in_order(case):
    # the walk lists every stable subset once, each before its extensions
    # by higher vertices: the order of sorted label tuples, prefixes first
    graph, avail = case
    found = [mask_labels(m) for m in stable_masks(graph.adj, vertex_mask(avail))]
    expected = sorted(
        c
        for size in range(len(avail) + 1)
        for c in itertools.combinations(sorted(avail), size)
        if not any(graph.adjacent(u, v) for u, v in itertools.combinations(c, 2))
    )
    assert found == expected


def test_net_role_counts():
    for n in range(1, 6):
        for m in range(0, n + 1):
            g = generalized_net(n, m)
            assert len(g.labels_with_role(ANCHOR)) == m
            assert len(g.labels_with_role(BUOY)) == n - m
            validate_roles(g)


def test_relabel_and_isomorphism():
    g = generalized_net(3, 2)
    rng = random.Random(11)
    h = random_relabeling(g, rng)
    assert are_isomorphic(g, h)
    assert not are_isomorphic(path_graph(4), star_graph(3))


def test_connected_graph_census():
    # classes of connected graphs on 1..6 vertices
    for n, expected in [(1, 1), (2, 1), (3, 2), (4, 6), (5, 21), (6, 112)]:
        graphs = connected_graphs(n)
        assert len(graphs) == expected
        assert all(is_connected(g) for g in graphs)
        # each representative carries the least edge mask of its class, in increasing order
        index = {pair: i for i, pair in enumerate(itertools.combinations(range(1, n + 1), 2))}
        masks = [sum(1 << index[e] for e in g.edges) for g in graphs]
        assert masks == sorted(set(masks))
        assert masks == [least_edge_mask_by_relabeling(g) for g in graphs]
    # the sweep over every labelled graph that the census replaces
    for n in range(6):
        assert [(g.n, g.edges) for g in connected_graphs(n)] == [
            (g.n, g.edges) for g in brute_force_connected_graphs(n)
        ]


def test_graph_json_roundtrip():
    # no roles, given as {} or None, are one value: the empty dict
    assert LabeledGraph(2, [(1, 2)], {}).roles == {} == LabeledGraph(2, [(1, 2)]).roles
    for g in (generalized_net(3, 1), generalized_net(0, 0), LabeledGraph(2, [(1, 2)], {})):
        assert g.relabel({v: v for v in g.vertices}) == g
    # the roles are read-only, as every caller shares a family graph, and a
    # graph pickles with them
    net = generalized_net(3, 1)
    with pytest.raises(TypeError):
        net.roles[1] = BUOY
    assert generalized_net(3, 1).labels_with_role(PENDANT) == (1,)
    for g in (net, with_disjoint_path(net, 2), LabeledGraph(2, [(1, 2)])):
        again = pickle.loads(pickle.dumps(g))
        assert again == g and again.adj == g.adj and again.roles == g.roles
