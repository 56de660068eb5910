"""Labeled graphs for the verifier.

Covers the complete-graph families with appended pendants and paths, role
bookkeeping, claw detection, exact stable-partition counting and the
connected-graph census.  Graphs are immutable after construction and safe
to share across workers.

Vertex sets in the enumerators are int bitmasks, bit ``v - 1`` for vertex
``v``.  ``stable_sets`` is the one source of stable sets in the package:
every route and peel reads the table it builds from ``stable_masks``.  The
type vector of ``stable_partition_types`` is the only result kept per graph.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache
from math import factorial, prod
from types import MappingProxyType

from .partitions import UNDEFINED, check_partition

PENDANT = "pendant"
ANCHOR = "anchor"
BUOY = "buoy"
SPECIAL_PENDANT = "special_pendant"
SPECIAL_ANCHOR = "special_anchor"
LEG = "leg"
ISOLATED = "isolated"

ROLE_TAGS = frozenset({PENDANT, ANCHOR, BUOY, SPECIAL_PENDANT, SPECIAL_ANCHOR, LEG, ISOLATED})
BODY_ROLES = frozenset({ANCHOR, BUOY, SPECIAL_ANCHOR})
PENDANT_ROLES = frozenset({PENDANT, SPECIAL_PENDANT})

PENDANT_FIRST = "pendant_first"
PENDANT_LAST = "pendant_last"
NET_LABELINGS = (PENDANT_FIRST, PENDANT_LAST)

# how many graphs, by graph.key(), each per-graph cache keeps
GRAPH_CACHE_SIZE = 256


class LabeledGraph:
    """Immutable undirected graph on vertices labeled 1..n, no self-loops."""

    __slots__ = ("n", "edges", "roles", "_adj")

    def __init__(self, n: int, edges=(), roles=None):
        n = int(n)
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        self.n = n
        adj = [set() for _ in range(n + 1)]
        normalized = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge ({u},{v}) outside 1..{n}")
            normalized.add((u, v) if u < v else (v, u))
            adj[u].add(v)
            adj[v].add(u)
        self.edges = frozenset(normalized)
        if roles is not None:
            roles = {int(v): str(tag) for v, tag in dict(roles).items()}
            for v, tag in roles.items():
                if not 1 <= v <= n:
                    raise ValueError(f"role for unknown vertex {v}")
                if tag not in ROLE_TAGS:
                    raise ValueError(f"unknown role tag {tag!r}")
        self.roles = roles
        self._adj = tuple(frozenset(s) for s in adj)

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    def adjacent(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def neighbors(self, v: int) -> frozenset:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def edge_count(self) -> int:
        return len(self.edges)

    def key(self):
        """Cache key: vertex count plus the sorted edge list under the given labels."""
        return (self.n, tuple(sorted(self.edges)))

    def role_of(self, v: int) -> str | None:
        return self.roles.get(v) if self.roles else None

    def labels_with_role(self, *tags: str) -> tuple[int, ...]:
        if not self.roles:
            return ()
        return tuple(sorted(v for v, tag in self.roles.items() if tag in tags))

    def relabel(self, perm: dict[int, int]) -> "LabeledGraph":
        """Apply a permutation of the labels 1..n."""
        if sorted(perm) != list(self.vertices) or sorted(perm.values()) != list(self.vertices):
            raise ValueError("perm must be a permutation of the vertex labels")
        edges = [(perm[u], perm[v]) for u, v in self.edges]
        roles = {perm[v]: tag for v, tag in self.roles.items()} if self.roles else None
        return LabeledGraph(self.n, edges, roles)

    def to_json_dict(self) -> dict:
        out = {"n": self.n, "edges": [list(e) for e in sorted(self.edges)]}
        if self.roles:
            out["roles"] = {str(v): self.roles[v] for v in sorted(self.roles)}
        return out

    @classmethod
    def from_json_dict(cls, payload: dict) -> "LabeledGraph":
        roles = payload.get("roles")
        if roles is not None:
            roles = {int(v): tag for v, tag in roles.items()}
        return cls(payload["n"], [tuple(e) for e in payload["edges"]], roles)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges and self.roles == other.roles

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"LabeledGraph(n={self.n}, edges={sorted(self.edges)})"


def complete_graph(n: int) -> LabeledGraph:
    return LabeledGraph(n, itertools.combinations(range(1, n + 1), 2))


def path_graph(k: int) -> LabeledGraph:
    return LabeledGraph(k, [(i, i + 1) for i in range(1, k)])


def star_graph(leaf_count: int) -> LabeledGraph:
    """K_{1,m} with leaves 1..m and the center labeled last."""
    center = leaf_count + 1
    return LabeledGraph(center, [(leaf, center) for leaf in range(1, center)])


def generalized_net(n: int, m: int, labeling: str = PENDANT_FIRST):
    """Complete graph on ``n`` body vertices with ``m`` degree-one pendants
    attached to distinct body vertices; UNDEFINED when m exceeds n.

    pendant_first: pendants 1..m, anchors m+1..2m (anchor m+i holds pendant i),
    buoys 2m+1..n+m.  pendant_last: buoys 1..n-m, anchors n-m+1..n (anchor i
    holds pendant i+m), pendants n+1..n+m.  The n = m = 0 case is the empty
    graph, which the recurrences shrink down to.
    """
    if labeling not in NET_LABELINGS:
        raise ValueError(f"unknown net labeling {labeling!r}")
    n, m = int(n), int(m)
    if n < 0 or m < 0 or m > n:
        return UNDEFINED
    if labeling == PENDANT_FIRST:
        pendants = range(1, m + 1)
        anchors = range(m + 1, 2 * m + 1)
        buoys = range(2 * m + 1, n + m + 1)
        body = range(m + 1, n + m + 1)
    else:
        buoys = range(1, n - m + 1)
        anchors = range(n - m + 1, n + 1)
        pendants = range(n + 1, n + m + 1)
        body = range(1, n + 1)
    edges = list(itertools.combinations(body, 2))
    edges += [(p, a) for p, a in zip(pendants, anchors)]
    roles = {v: PENDANT for v in pendants}
    roles.update((v, ANCHOR) for v in anchors)
    roles.update((v, BUOY) for v in buoys)
    return LabeledGraph(n + m, edges, roles)


def generalized_spider(n: int, legs):
    """Complete graph on ``n`` body vertices with disjoint paths of the given
    lengths attached to distinct body vertices; UNDEFINED when there are more
    legs than body vertices.

    Labels run pendant-first: leg vertices first (each leg labeled from its
    far end inward, longest leg first, so the far end of a lone length-2 leg
    gets the minimum label), then the anchors in leg order, then the buoys.
    For the one-long-leg family (2,1,...,1) the far end of the long leg is the
    special pendant and its anchor the special anchor.
    """
    legs = check_partition(legs)
    n = int(n)
    if n < 0 or len(legs) > n:
        return UNDEFINED
    special = bool(legs) and legs[0] == 2 and all(p == 1 for p in legs[1:])
    pend_total = sum(legs)
    edges = []
    roles = {}
    leg_labels = []
    label = 1
    for idx, length in enumerate(legs):
        labels = list(range(label, label + length))  # far end first
        label += length
        leg_labels.append(labels)
        edges += [(labels[i], labels[i + 1]) for i in range(length - 1)]
        if length == 1:
            roles[labels[0]] = PENDANT
        elif special and idx == 0:
            roles[labels[0]] = SPECIAL_PENDANT
            roles[labels[1]] = PENDANT
        else:
            roles.update((v, LEG) for v in labels)
    anchors = range(pend_total + 1, pend_total + len(legs) + 1)
    for idx, (labels, a) in enumerate(zip(leg_labels, anchors)):
        edges.append((labels[-1], a))  # inner end of the leg meets its anchor
        roles[a] = SPECIAL_ANCHOR if special and idx == 0 else ANCHOR
    buoys = range(pend_total + len(legs) + 1, pend_total + n + 1)
    roles.update((v, BUOY) for v in buoys)
    body = range(pend_total + 1, pend_total + n + 1)
    edges += itertools.combinations(body, 2)
    return LabeledGraph(n + pend_total, edges, roles)


def with_disjoint_path(graph, k: int):
    """Disjoint union with a path on k in {1, 2} fresh vertices, which
    receive the largest labels."""
    if graph is UNDEFINED:
        return UNDEFINED
    if k not in (1, 2):
        raise ValueError("only P1 and P2 extensions are supported")
    n = graph.n
    edges = set(graph.edges)
    roles = dict(graph.roles) if graph.roles is not None else {}
    if k == 1:
        roles[n + 1] = ISOLATED
    else:
        edges.add((n + 1, n + 2))
        roles[n + 1] = LEG
        roles[n + 2] = LEG
    return LabeledGraph(n + k, edges, roles)


def is_claw_free(graph) -> bool:
    """True iff no four vertices induce a star K_{1,3} (brute force)."""
    for quad in itertools.combinations(graph.vertices, 4):
        for center in quad:
            leaves = [v for v in quad if v != center]
            if all(graph.adjacent(center, u) for u in leaves) and not any(
                graph.adjacent(u, w) for u, w in itertools.combinations(leaves, 2)
            ):
                return False
    return True


def vertex_mask(vertices) -> int:
    """Bitmask of a vertex set: bit ``v - 1`` stands for vertex ``v``."""
    return sum(1 << (v - 1) for v in vertices)


def mask_labels(mask: int) -> tuple[int, ...]:
    """The vertex labels of a bitmask, in increasing order."""
    return tuple(v for v in range(1, mask.bit_length() + 1) if mask >> (v - 1) & 1)


def adjacency_masks(graph) -> tuple[int, ...]:
    """Neighbour bitmask of every vertex, indexed by label (entry 0 unused)."""
    return (0,) + tuple(vertex_mask(graph.neighbors(v)) for v in graph.vertices)


def stable_masks(adj, avail: int, size: int):
    """Stable subsets of the vertex bitmask ``avail`` with exactly ``size``
    vertices, under the neighbour masks ``adj`` of ``adjacency_masks``.

    The lowest available vertex is included before it is excluded, so the
    subsets come in the lexicographic order of their sorted label tuples.
    """
    if size == 0:
        yield 0
        return
    if avail.bit_count() < size:
        return
    v_bit = avail & -avail
    rest = avail ^ v_bit
    for tail in stable_masks(adj, rest & ~adj[v_bit.bit_length()], size - 1):
        yield v_bit | tail
    yield from stable_masks(adj, rest, size)


def stable_sets(graph) -> tuple[tuple[int, ...], ...]:
    """The stable-set table of ``graph``: entry ``k`` holds every stable
    ``k``-set of the whole vertex set, in ``stable_masks`` order.

    A DP state keeps the sets that fit its remaining bitmask.  A filtered
    slice of a lexicographically ordered list keeps that order, so the sets
    come as ``stable_masks`` on the remaining bitmask would give them,
    without a walk per state.  Built by n + 1 walks and not cached.
    """
    adj = adjacency_masks(graph)
    full = (1 << graph.n) - 1
    return tuple(tuple(stable_masks(adj, full, k)) for k in range(graph.n + 1))


def max_clique(graph) -> frozenset:
    """A maximum clique, by branch and bound (fine at desk scale)."""
    best: list[int] = []

    def grow(current: list[int], candidates: list[int]):
        nonlocal best
        if len(current) > len(best):
            best = current[:]
        for i, v in enumerate(candidates):
            if len(current) + len(candidates) - i <= len(best):
                break
            grow(current + [v], [u for u in candidates[i + 1 :] if graph.adjacent(u, v)])

    grow([], sorted(graph.vertices))
    return frozenset(best)


def stable_partition_types(graph):
    """Number of unordered partitions of the vertex set into stable parts,
    keyed by the type (sorted part sizes) ``mu``; types with none are absent.

    One subset DP yields every type at once.  It is memoized on the
    remaining-vertex bitmask, and the lowest remaining vertex always opens
    the next part, so each partition is seen exactly once.  The result is
    kept per ``graph.key()`` and returned read-only.
    """
    return _types_for(graph.key())


@lru_cache(maxsize=GRAPH_CACHE_SIZE)
def _types_for(key) -> MappingProxyType:
    graph = LabeledGraph(*key)
    # opening[v]: the stable sets whose lowest vertex is v, by size and then
    # in table order, which is the order a walk of the rest would give
    opening = [[] for _ in range(graph.n + 1)]
    for groups in stable_sets(graph)[1:]:
        for group in groups:
            opening[(group & -group).bit_length()].append(group)
    return MappingProxyType(_types_of_rest(opening, (1 << graph.n) - 1, {}))


def _types_of_rest(opening, remaining: int, memo: dict) -> dict:
    if not remaining:
        return {(): 1}
    out = memo.get(remaining)
    if out is not None:
        return out
    out = {}
    for group in opening[(remaining & -remaining).bit_length()]:
        if group & ~remaining:
            continue
        size = group.bit_count()
        for mu, c in _types_of_rest(opening, remaining ^ group, memo).items():
            nu = tuple(sorted(mu + (size,), reverse=True))
            out[nu] = out.get(nu, 0) + c
    memo[remaining] = out
    return out


def count_semi_ordered_stable_partitions(graph, mu) -> int:
    """Count partitions of the vertex set into stable parts of sizes ``mu``,
    where parts of equal size additionally carry an order.

    This is the unordered count of ``stable_partition_types`` times the
    factorials of the size multiplicities.
    """
    mu = check_partition(mu)
    if sum(mu) != graph.n:
        raise ValueError("partition size must equal the vertex count")
    return stable_partition_types(graph).get(mu, 0) * multiplicity_factorials(mu)


def multiplicity_factorials(mu) -> int:
    """The product of the factorials of the part multiplicities of ``mu``:
    the number of ways to order the parts of each size among themselves."""
    return prod(factorial(r) for r in Counter(mu).values())


def connected_graphs(n: int) -> list[LabeledGraph]:
    """One representative per isomorphism class of connected graphs on n vertices.

    Canonical form: the minimum, over all label permutations, of the edge-set
    bitmask; permutations act through precomputed pair-index remaps.  Each
    class is returned as the graph of its canonical mask, in increasing mask
    order.  Removing a leaf of a spanning tree leaves a graph connected, so
    every class has a member made of an (n - 1)-vertex representative with
    vertex n joined to a nonempty subset of its vertices; only those
    candidates are canonicalized.
    """
    if n <= 1:
        return [LabeledGraph(n)]
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    pair_index = {pair: i for i, pair in enumerate(pairs)}
    remaps = []
    for p in itertools.permutations(range(1, n + 1)):
        remaps.append(
            tuple(
                pair_index[(p[u - 1], p[v - 1]) if p[u - 1] < p[v - 1] else (p[v - 1], p[u - 1])]
                for u, v in pairs
            )
        )
    canons = set()
    for rep in connected_graphs(n - 1):
        rep_bits = [pair_index[e] for e in rep.edges]
        for joined in range(1, 1 << (n - 1)):
            set_bits = rep_bits + [pair_index[(v, n)] for v in mask_labels(joined)]
            canons.add(min(sum(1 << remap[i] for i in set_bits) for remap in remaps))
    return [
        LabeledGraph(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])
        for bits in sorted(canons)
    ]
