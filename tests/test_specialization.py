"""Principal specialization of the Schur expansions.

Setting the first k variables to 1 and the rest to 0 takes X_G to the
chromatic polynomial at k, and s_lam to the number of SSYT of shape lam with
entries at most k.  So every expansion must satisfy

    sum_lam c_lam * s_lam(1^k) = chi_G(k)   for k = 1..n,
    sum_lam c_lam * f^lam      = n!.

Everything on the right-hand sides is computed here, from the graph's edge
list alone: chi_G by deletion-contraction (or, past its reach, by the closed
form of a clique with trees hung on it), s_lam(1^k) by the hook-content
formula and f^lam by the hook-length formula.  No code is shared with any
coefficient route, so a fault common to the routes shows up here.
"""

import random
from functools import lru_cache
from math import factorial, prod

import pytest

from chromatic_schur.coefficients import GROUPED, METHODS, schur_expansion
from chromatic_schur.graphs import (
    BODY_ROLES,
    generalized_net,
    generalized_spider,
    path_graph,
    star_graph,
)
from graph_helpers import is_connected, random_graph


@lru_cache(maxsize=None)
def chromatic_polynomial(vertex_count: int, edges: frozenset) -> tuple[int, ...]:
    """Coefficients of chi_G, lowest degree first: chi_G = chi_(G-e) - chi_(G/e)."""
    if not edges:
        return (0,) * vertex_count + (1,)
    u, v = min(edges)
    rest = edges - {(u, v)}
    merged = frozenset(
        (min(a, b), max(a, b))
        for a, b in ((u if a == v else a, u if b == v else b) for a, b in rest)
        if a != b
    )
    deleted = chromatic_polynomial(vertex_count, rest)
    contracted = chromatic_polynomial(vertex_count - 1, merged) + (0,)
    return tuple(d - c for d, c in zip(deleted, contracted))


def hook_lengths(lam):
    conjugate = [sum(1 for part in lam if part > j) for j in range(lam[0])] if lam else []
    return [lam[i] - j + conjugate[j] - i - 1 for i in range(len(lam)) for j in range(lam[i])]


def ssyt_at_most(lam, k: int) -> int:
    """s_lam(1^k) by the hook-content formula."""
    contents = [j - i for i in range(len(lam)) for j in range(lam[i])]
    numerator = prod(k + c for c in contents)
    denominator = prod(hook_lengths(lam))
    assert numerator % denominator == 0
    return numerator // denominator


def standard_tableaux(lam) -> int:
    """f^lam by the hook-length formula."""
    return factorial(sum(lam)) // prod(hook_lengths(lam))


def _graphs():
    rng = random.Random(20261018)
    graphs = [star_graph(3)]
    graphs += [generalized_net(n, m) for n in range(1, 6) for m in range(n + 1) if n + m <= 9]
    graphs += [
        generalized_spider(n, legs)
        for n, legs in (
            (2, (2,)),
            (3, (2, 1)),
            (3, (2, 2, 1)),
            (4, (2, 1, 1, 1)),
            (5, (2, 1, 1, 1)),
            (3, (3, 2, 1)),
        )
    ]
    graphs += [path_graph(k) for k in range(1, 10)]
    graphs += [random_graph(n, rng) for n in range(2, 10) for _ in range(2)]
    return graphs


GRAPHS = _graphs()


def test_hook_formulas_on_known_values():
    assert [standard_tableaux(lam) for lam in ((3,), (2, 1), (1, 1, 1), (3, 2), (2, 2, 1))] == [1, 2, 1, 5, 5]
    assert ssyt_at_most((2, 1), 3) == 8 and ssyt_at_most((1, 1, 1), 2) == 0
    # the triangle: k(k-1)(k-2); the 4-path: k(k-1)^3
    assert chromatic_polynomial(3, frozenset({(1, 2), (1, 3), (2, 3)})) == (0, 2, -3, 1)
    assert chromatic_polynomial(4, frozenset({(1, 2), (2, 3), (3, 4)})) == (0, -1, 3, -3, 1)


@pytest.mark.parametrize("method", METHODS)
def test_principal_specialization(method):
    for graph in GRAPHS:
        expansion = schur_expansion(graph, method).items()
        chi = chromatic_polynomial(graph.n, frozenset(graph.edges))
        for k in range(1, graph.n + 1):
            expected = sum(c * k**i for i, c in enumerate(chi))
            assert sum(c * ssyt_at_most(lam, k) for lam, c in expansion) == expected, (graph, k)
        assert sum(c * standard_tableaux(lam) for lam, c in expansion) == factorial(graph.n), graph


def hung_clique_chromatic_values(graph) -> list[int]:
    """chi_G(1..n) for a clique on the b body vertices with the other p
    vertices hung on it as trees: k(k-1)...(k-b+1) * (k-1)^p."""
    body = set(graph.labels_with_role(*BODY_ROLES))
    inside = sum(1 for u, v in graph.edges if u in body and v in body)
    hung = graph.n - len(body)
    # contracting the clique leaves a connected graph on p + 1 vertices with
    # p edges, a tree, and each tree vertex colours k - 1 ways
    assert inside == len(body) * (len(body) - 1) // 2
    assert is_connected(graph) and len(graph.edges) - inside == hung
    return [prod(range(k - len(body) + 1, k + 1)) * (k - 1) ** hung for k in range(1, graph.n + 1)]


@pytest.mark.slow
def test_principal_specialization_at_the_frontier():
    for graph in (generalized_net(4, 3), generalized_spider(3, (2, 2, 1))):
        chi = chromatic_polynomial(graph.n, frozenset(graph.edges))
        assert hung_clique_chromatic_values(graph) == [
            sum(c * k**i for i, c in enumerate(chi)) for k in range(1, graph.n + 1)
        ]
    # 16, 17, 18 and 20 vertices, past the reach of deletion-contraction;
    # a path is a tree, so chi = k(k-1)^(n-1)
    net = generalized_net(8, 8)
    path = path_graph(18)
    cases = [
        (graph, hung_clique_chromatic_values(graph))
        for graph in (net, generalized_spider(8, (2, 1, 1, 1, 1, 1, 1, 1)), generalized_net(10, 10))
    ]
    cases.append((path, [k * (k - 1) ** (path.n - 1) for k in range(1, path.n + 1)]))
    for graph, chromatic_values in cases:
        expansion = schur_expansion(graph, GROUPED)
        for k, expected in enumerate(chromatic_values, 1):
            assert sum(c * ssyt_at_most(lam, k) for lam, c in expansion.items()) == expected, (graph, k)
        assert sum(c * standard_tableaux(lam) for lam, c in expansion.items()) == factorial(graph.n)
    assert schur_expansion(net, GROUPED).min_entry() >= 0
