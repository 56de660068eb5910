"""Graph helpers that only the tests use: seeded random graphs and
relabelings, brute-force connectivity, isomorphism and claw detection, the
role invariants, the semi-ordered and unordered stable-partition counts
keyed by partition, and the brute-force
least edge mask and connected-graph census the package's census is checked
against."""

import itertools
import random
from collections import Counter
from functools import lru_cache
from math import factorial, prod

from chromatic_schur.graphs import (
    ANCHOR,
    BODY_ROLES,
    BUOY,
    SPECIAL_ANCHOR,
    SPECIAL_PENDANT,
    LabeledGraph,
    mask_labels,
    semi_ordered_counts_by_id,
)
from chromatic_schur.partitions import partition_table


def is_connected(graph) -> bool:
    if graph.n <= 1:
        return True
    seen = {1}
    frontier = [1]
    while frontier:
        v = frontier.pop()
        for u in mask_labels(graph.adj[v]):
            if u not in seen:
                seen.add(u)
                frontier.append(u)
    return len(seen) == graph.n


def are_isomorphic(g: LabeledGraph, h: LabeledGraph) -> bool:
    """Brute-force isomorphism test for small graphs (ignores roles)."""
    if g.n != h.n or len(g.edges) != len(h.edges):
        return False
    if sorted(map(g.degree, g.vertices)) != sorted(map(h.degree, h.vertices)):
        return False
    source = list(g.vertices)
    for perm in itertools.permutations(h.vertices):
        mapping = dict(zip(source, perm))
        if all(
            (mapping[u], mapping[v]) in h.edges or (mapping[v], mapping[u]) in h.edges
            for u, v in g.edges
        ):
            return True
    return False


def is_claw_free_by_quadruples(graph) -> bool:
    """True iff no four vertices induce a star K_{1,3}, by checking every
    4-set and every centre in it."""
    for quad in itertools.combinations(graph.vertices, 4):
        for center in quad:
            leaves = [v for v in quad if v != center]
            if all(graph.adjacent(center, u) for u in leaves) and not any(
                graph.adjacent(u, w) for u, w in itertools.combinations(leaves, 2)
            ):
                return False
    return True


@lru_cache(maxsize=None)
def _pair_remaps(n: int):
    # the pair index of every pair (u, v), u < v, in lexicographic order, and
    # for every label permutation where it sends each pair index
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    pair_index = {pair: i for i, pair in enumerate(pairs)}
    remaps = tuple(
        tuple(pair_index[min(p[u - 1], p[v - 1]), max(p[u - 1], p[v - 1])] for u, v in pairs)
        for p in itertools.permutations(range(1, n + 1))
    )
    return pair_index, remaps


def least_edge_mask_by_relabeling(graph) -> int:
    """The least edge bitmask of ``graph`` over all n! label permutations,
    bit i standing for the i-th pair of labels in lexicographic order."""
    pair_index, remaps = _pair_remaps(graph.n)
    set_bits = [pair_index[e] for e in graph.edges]
    return min(sum(1 << remap[i] for i in set_bits) for remap in remaps)


def brute_force_connected_graphs(n: int) -> list[LabeledGraph]:
    """The census by sweeping every labelled graph on n vertices: keep the
    first connected member of each class in edge-bitmask order, the class
    being its least edge bitmask over all label permutations."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    reps: dict[int, LabeledGraph] = {}
    for bits in range(1 << len(pairs)):
        graph = LabeledGraph(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])
        if is_connected(graph):
            reps.setdefault(least_edge_mask_by_relabeling(graph), graph)
    return [reps[c] for c in sorted(reps)]


def multiplicity_factorials(mu) -> int:
    """The product of the factorials of the part multiplicities of ``mu``:
    the number of ways to order the parts of each size among themselves."""
    return prod(factorial(r) for r in Counter(mu).values())


def semi_ordered_partition_types(graph) -> dict:
    """The semi-ordered counts of ``semi_ordered_counts_by_id``, keyed by the
    partition each id stands for."""
    parts = partition_table(graph.n).parts
    return {parts[i]: c for i, c in semi_ordered_counts_by_id(graph).items()}


def stable_partition_types(graph) -> dict:
    """Number of unordered partitions of the vertex set into stable parts,
    keyed by the type (sorted part sizes) ``mu``; types with none are absent.

    Read off the semi-ordered counts of ``semi_ordered_partition_types`` by
    dividing out the size-multiplicity factorials.
    """
    counts = semi_ordered_partition_types(graph)
    return {mu: c // multiplicity_factorials(mu) for mu, c in counts.items()}


def random_graph(n: int, rng: random.Random, edge_probability: float = 0.5) -> LabeledGraph:
    """Seeded Erdos-Renyi style graph; edges drawn in lexicographic pair order."""
    edges = [
        (u, v)
        for u, v in itertools.combinations(range(1, n + 1), 2)
        if rng.random() < edge_probability
    ]
    return LabeledGraph(n, edges)


def random_relabeling(graph: LabeledGraph, rng: random.Random) -> LabeledGraph:
    labels = list(graph.vertices)
    shuffled = labels[:]
    rng.shuffle(shuffled)
    return graph.relabel(dict(zip(labels, shuffled)))


def validate_roles(graph: LabeledGraph) -> None:
    """Check the role bookkeeping invariants; raises AssertionError on breakage.

    Every anchor touches exactly one non-body vertex, buoys touch none, and a
    special pendant has degree 1 with no body neighbor.
    """
    body = set(graph.labels_with_role(*BODY_ROLES))
    for v, tag in graph.roles.items():
        outside = [u for u in mask_labels(graph.adj[v]) if u not in body]
        if tag in (ANCHOR, SPECIAL_ANCHOR):
            assert len(outside) == 1, f"anchor {v} touches {len(outside)} non-body vertices"
        elif tag == BUOY:
            assert not outside, f"buoy {v} touches a non-body vertex"
        elif tag == SPECIAL_PENDANT:
            assert graph.degree(v) == 1, f"special pendant {v} must have degree 1"
            assert not body.intersection(mask_labels(graph.adj[v])), f"special pendant {v} touches the body"
