"""Wider sweeps of the module invariants, beyond the acceptance bounds.

The census-wide method agreement and the power-sum check are the ones
marked ``slow``; deselect them with ``pytest -m "not slow"`` for a quick
loop.
"""

import random

import pytest

from chromatic_schur.coefficients import (
    GROUPED,
    ORACLE,
    TABLOID,
    is_schur_positive,
    schur_expansion,
)
from chromatic_schur.graphs import (
    PENDANT_ROLES,
    connected_graphs,
    generalized_net,
    path_graph,
)
from chromatic_schur.partitions import partitions_of
from chromatic_schur.tabloids import pendant_tail_counts
from chromatic_schur.verify import run_singleton_removal_suite, run_spider_recurrence_suite
from graph_helpers import random_graph
from power_sum_helpers import schur_by_power_sums

SEED = 20260810


@pytest.mark.slow
def test_method_agreement_six_vertex_census_and_seven_vertex_samples():
    graphs = connected_graphs(6)
    rng = random.Random(SEED)
    graphs += [random_graph(7, rng) for _ in range(100)]
    # degree 10: the strip recursion and the subset DP meet the tabloid route
    graphs += [generalized_net(5, 5), path_graph(10)]
    # whole expansions, so each route builds its tables once per graph;
    # test_method_agreement_small_sweep covers the per-partition calls
    for graph in graphs:
        tabloid = schur_expansion(graph, TABLOID)
        grouped = schur_expansion(graph, GROUPED)
        oracle = schur_expansion(graph, ORACLE)
        for lam in partitions_of(graph.n):
            assert tabloid[lam] == grouped[lam] == oracle[lam], (graph, lam)


@pytest.mark.slow
def test_every_route_equals_the_power_sum_expansion():
    # Stanley's subset expansion and Murnaghan-Nakayama share no code with
    # any route: all three on the 6-vertex census, the default route on the
    # 7-vertex census and on GN(6,6)
    for graph in connected_graphs(6):
        expected = schur_by_power_sums(graph.n, graph.edges)
        for method in (TABLOID, GROUPED, ORACLE):
            assert schur_expansion(graph, method).coeffs == expected, (graph, method)
    for graph in connected_graphs(7) + [generalized_net(6, 6)]:
        assert schur_expansion(graph).coeffs == schur_by_power_sums(graph.n, graph.edges), graph


def test_pendant_tail_exclusion_up_to_eight_vertices():
    for n in range(1, 8):
        for m in range(1, n + 1):
            if n + m > 8:
                continue
            graph = generalized_net(n, m)
            pendants = frozenset(graph.labels_with_role(*PENDANT_ROLES))
            for lam in partitions_of(n + m):
                if lam[-1] != 1:
                    continue
                # no tabloid has a nonempty tail of pendants only; the
                # tabloid tests check these counts against the stream
                assert pendant_tail_counts(lam, graph, pendants)[1] == 0


def test_positivity_of_larger_all_anchor_nets():
    for n in (5, 6):
        positive, witness = is_schur_positive(generalized_net(n, n))
        assert positive, f"GN({n},{n}) produced negative witness {witness}"


def test_singleton_removal_extended_bound():
    report = run_singleton_removal_suite(6)
    assert report.passed and report.instances_checked == 21


def test_spider_recurrence_wider():
    report = run_spider_recurrence_suite(5)
    assert report.passed and report.instances_checked == 123


def test_cancellation_on_every_pendant_first_net_up_to_nine_vertices():
    # the claim's hypothesis in full up to 9 vertices: every net GN(b,p)
    # with p <= b, at every shape ending in (1,1); every head class keeps a
    # body vertex in its tail pool, so every class is judged
    from chromatic_schur.graphs import BODY_ROLES
    from chromatic_schur.verify import run_cancellation_check

    checked = 0
    for n in range(1, 10):
        for m in range(0, min(n, 9 - n) + 1):
            graph = generalized_net(n, m)
            pendants = graph.labels_with_role(*PENDANT_ROLES)
            body = graph.labels_with_role(*BODY_ROLES)
            for lam in partitions_of(n + m):
                if lam[-2:] != (1, 1):
                    continue
                report = run_cancellation_check(graph, lam, pendants, body)
                assert report.passed, (n, m, lam)
                assert report.instances_checked == len(report.instances), (n, m, lam)
                assert all(i["params"]["tail_pool_body"] for i in report.instances), (n, m, lam)
                checked += 1
    assert checked == 197


def test_cancellation_with_two_row_head():
    # the shape family (2,2,1^k) of the 12-vertex GN(6,6) cancel instance in
    # test_cli, scaled to stay fast
    from chromatic_schur.graphs import BODY_ROLES
    from chromatic_schur.verify import run_cancellation_check

    graph = generalized_net(4, 4, "pendant_first")
    report = run_cancellation_check(
        graph,
        (2, 2, 1, 1, 1, 1),
        frozenset(graph.labels_with_role(*PENDANT_ROLES)),
        frozenset(graph.labels_with_role(*BODY_ROLES)),
        label="GN(4,4)",
    )
    assert report.passed and report.instances_checked > 200
