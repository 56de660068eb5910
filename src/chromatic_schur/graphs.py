"""Labeled graphs for the verifier.

Covers the complete-graph families with appended pendants and paths, role
bookkeeping, claw detection, exact stable-partition counting and the
connected-graph census.  Graphs are immutable after construction and safe
to share across workers.

Vertex sets are int bitmasks, bit ``v - 1`` for vertex ``v``.  A graph
keeps the ``edges`` frozenset it was built from, which its equality, repr
and relabelling read, its roles as one read-only mapping from label to
tag, empty when there are none, and its neighbour bitmasks,
``LabeledGraph.adj``, which its key and every enumerator read.  The only
result kept per graph is the semi-ordered counts of
``semi_ordered_counts_by_id``, the monomial coefficients by partition id:
one inclusion-exclusion count, which reads only ``adj``.  The table of
``stable_sets`` is read by the tabloid route and the head/tail statistics
alone.  Nets are the spiders whose legs are single pendants, and one
builder, memoized on its arguments, makes both: the second cache kept per
process, so each distinct net or spider is built once and shared.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache
from operator import mul
from types import MappingProxyType

from .partitions import UNDEFINED, check_partition, check_shape, partition_table

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

# how many graphs each per-process cache keeps: the type counts by
# graph.key(), and the net and spider builder's graphs by its arguments
GRAPH_CACHE_SIZE = 256

# the most vertices of a stable-partition type count, one 8-byte slot per
# vertex subset; at 24 vertices on a 2-vCPU host, GN(12,12) took 6.1 s at
# 143 MB peak RSS, a random graph (edge probability 0.3) 28 s at 447 MB
MAX_TYPE_VERTICES = 24


class LabeledGraph:
    """Immutable undirected graph on vertices labeled 1..n, no self-loops.

    ``adj[v]`` is the bitmask of the neighbours of ``v`` (entry 0 unused).
    """

    __slots__ = ("n", "edges", "roles", "adj")

    def __init__(self, n: int, edges=(), roles=None):
        n = int(n)
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        self.n = n
        adj = [0] * (n + 1)
        normalized = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge ({u},{v}) outside 1..{n}")
            normalized.add((u, v) if u < v else (v, u))
            adj[u] |= 1 << (v - 1)
            adj[v] |= 1 << (u - 1)
        self.edges = frozenset(normalized)
        roles = {int(v): str(tag) for v, tag in dict(roles or {}).items()}
        for v, tag in roles.items():
            if not 1 <= v <= n:
                raise ValueError(f"role for unknown vertex {v}")
            if tag not in ROLE_TAGS:
                raise ValueError(f"unknown role tag {tag!r}")
        self.roles = MappingProxyType(roles)  # family graphs are shared
        self.adj = tuple(adj)

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    def adjacent(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> (v - 1) & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def key(self):
        """Cache key: vertex count plus the neighbour bitmasks under the given labels."""
        return (self.n, self.adj)

    def labels_with_role(self, *tags: str) -> tuple[int, ...]:
        return tuple(sorted(v for v, tag in self.roles.items() if tag in tags))

    def relabel(self, perm: dict[int, int]) -> "LabeledGraph":
        """Apply a permutation of the labels 1..n."""
        if sorted(perm) != list(self.vertices) or sorted(perm.values()) != list(self.vertices):
            raise ValueError("perm must be a permutation of the vertex labels")
        edges = [(perm[u], perm[v]) for u, v in self.edges]
        roles = {perm[v]: tag for v, tag in self.roles.items()}
        return LabeledGraph(self.n, edges, roles)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges and self.roles == other.roles

    def __hash__(self) -> int:
        return hash(self.key())

    def __reduce__(self):
        # a mapping proxy does not pickle, so the roles travel as a dict
        return LabeledGraph, (self.n, self.edges, dict(self.roles))

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
    attached to distinct body vertices: the generalized spider with ``m``
    legs of length 1.  UNDEFINED when m exceeds n.

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
    starts = (1, m + 1, 2 * m + 1) if labeling == PENDANT_FIRST else (n + 1, n - m + 1, 1)
    return _family_graph(n, (1,) * m, *starts)


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
    return _family_graph(n, legs, 1, sum(legs) + 1, sum(legs) + len(legs) + 1)


@lru_cache(maxsize=GRAPH_CACHE_SIZE)
def _family_graph(n: int, legs: tuple, leg_start: int, anchor_start: int, buoy_start: int):
    """The spider on an ``n``-clique body with legs of lengths ``legs``: leg
    vertices from ``leg_start`` up, leg by leg and each from its far end,
    anchors from ``anchor_start`` up in leg order, buoys from ``buoy_start`` up."""
    special = legs[:1] == (2,) and all(p == 1 for p in legs[1:])
    anchors = range(anchor_start, anchor_start + len(legs))
    buoys = range(buoy_start, buoy_start + n - len(legs))
    edges = list(itertools.combinations([*anchors, *buoys], 2))
    roles = dict.fromkeys(buoys, BUOY)
    for start, length, a in zip(itertools.accumulate(legs, initial=leg_start), legs, anchors):
        leg = range(start, start + length)  # far end first
        edges += zip(leg, [*leg[1:], a])  # the path from the far end to the anchor
        if special and length == 2:  # the long leg of (2, 1, ..., 1)
            roles |= {leg[0]: SPECIAL_PENDANT, leg[1]: PENDANT, a: SPECIAL_ANCHOR}
        else:
            roles |= dict.fromkeys(leg, PENDANT if length == 1 else LEG) | {a: ANCHOR}
    return LabeledGraph(n + sum(legs), edges, roles)


def with_disjoint_path(graph, k: int):
    """Disjoint union with a path on k in {1, 2} fresh vertices, which
    receive the largest labels."""
    if graph is UNDEFINED:
        return UNDEFINED
    if k not in (1, 2):
        raise ValueError("only P1 and P2 extensions are supported")
    n = graph.n
    if k == 1:
        return LabeledGraph(n + 1, graph.edges, graph.roles | {n + 1: ISOLATED})
    return LabeledGraph(n + 2, [*graph.edges, (n + 1, n + 2)], graph.roles | {n + 1: LEG, n + 2: LEG})


def is_claw_free(graph) -> bool:
    """True iff no four vertices induce a star K_{1,3}: no vertex has a
    stable 3-set among its neighbours.  The walk of ``stable_masks`` on a
    neighbourhood reaches a stable triple before any larger set, so it
    meets only sets of at most two vertices before it stops."""
    adj = graph.adj
    return not any(group.bit_count() == 3 for v in graph.vertices for group in stable_masks(adj, adj[v]))


def vertex_mask(vertices) -> int:
    """Bitmask of a vertex set: bit ``v - 1`` stands for vertex ``v``."""
    return sum(1 << (v - 1) for v in vertices)


def mask_labels(mask: int) -> tuple[int, ...]:
    """The vertex labels of a bitmask, in increasing order."""
    return tuple(v for v in range(1, mask.bit_length() + 1) if mask >> (v - 1) & 1)


def stable_masks(adj, avail: int):
    """Every stable subset of the vertex bitmask ``avail``, the empty set
    first, under the neighbour masks ``adj`` of ``LabeledGraph.adj``.

    One include-first walk: each set comes before its extensions by higher
    vertices, so the subsets come in the lexicographic order of their
    sorted label tuples, and the sets of each size keep that order.
    """
    yield 0
    while avail:
        v_bit = avail & -avail
        avail ^= v_bit
        for tail in stable_masks(adj, avail & ~adj[v_bit.bit_length()]):
            yield v_bit | tail


def stable_sets(graph) -> tuple[tuple[int, ...], ...]:
    """The stable-set table of ``graph``: entry ``k`` holds every stable
    ``k``-set of the whole vertex set, in ``stable_masks`` order.

    A DP state keeps the sets that fit its remaining bitmask, in the order
    ``stable_masks`` on that bitmask gives, with no walk per state.  Built
    by one walk, bucketed by size, and not cached.
    """
    table = [[] for _ in range(graph.n + 1)]
    for group in stable_masks(graph.adj, (1 << graph.n) - 1):
        table[group.bit_count()].append(group)
    return tuple(map(tuple, table))


def semi_ordered_counts_by_id(graph) -> MappingProxyType:
    """The number of partitions of the vertex set into stable parts of each
    type ``mu``, parts of equal size ordered, types with none absent: the
    monomial coefficients of the chromatic symmetric function.  Keyed by the
    ids of ``partitions.partition_table``, read-only; the only result kept
    per ``graph.key()``.  By inclusion-exclusion over vertex subsets
    (Bjorklund, Husfeldt and Koivisto 2009), with s_k(X) the stable k-sets
    of X, count(mu) = sum over X of (-1)^(n - |X|) prod_j s_{mu_j}(X), as
    the tuples of stable sets of sizes mu that cover all n vertices are the
    partitions, equal-size parts ordered.  Raises ``ValueError`` above
    ``MAX_TYPE_VERTICES`` vertices, before anything is built.
    """
    check_type_vertices(graph.n)
    return _types_for(graph.key())


def check_type_vertices(n: int) -> None:
    """Raise ``ValueError`` when a graph on ``n`` vertices is past
    ``MAX_TYPE_VERTICES``, the cap of the stable-partition type count.  A
    suite calls it with the largest graph it would run, before any work."""
    if n > MAX_TYPE_VERTICES:
        raise ValueError(f"{n} vertices exceed the cap of {MAX_TYPE_VERTICES} on stable-partition types")


@lru_cache(maxsize=GRAPH_CACHE_SIZE)
def _types_for(key) -> MappingProxyType:
    n, adj = key
    if not n:
        return MappingProxyType({0: 1})
    # Part sizes are chosen from the largest stable set down, depth first,
    # one column per distinct polynomial: its subsets' signed weight times
    # the s_j of the parts chosen.  Past size k only the coefficients below
    # k are read, so columns are cut to them and equal cuts summed.
    width, field = n + 1, (1 << n + 1) - 1
    weights = Counter(_independence_polynomials(n, adj))
    columns, levels = list(weights), []
    for k in range((max(columns).bit_length() - 1) // width, 0, -1):
        cuts = {}
        index = [cuts.setdefault(p & (1 << k * width) - 1, len(cuts)) for p in columns]
        levels.append((k, [p >> k * width & field for p in columns], index, len(cuts)))
        columns = list(cuts)
    ids, counts = partition_table(n).ids, {}

    def choose(product, mu, left, depth):
        # append parts of size k to mu, handing each product to the sizes below
        k, stable, index, size = levels[depth]
        while True:
            if depth + 1 < len(levels):
                cut = [0] * size
                for i, value in zip(index, product):
                    cut[i] += value
                choose(cut, mu, left, depth + 1)
            if left < k:
                return
            product, left, mu = list(map(mul, product, stable)), left - k, mu + (k,)
            if not left:
                if c := sum(product):
                    counts[ids[mu]] = c
                return

    choose([c if (n - (p >> width & field)) % 2 == 0 else -c for p, c in weights.items()], (), n, 0)
    return MappingProxyType(counts)


def _independence_polynomials(n: int, adj) -> list[int]:
    """Entry X: the independence polynomial of the subgraph on bitmask X of
    the graph of neighbour masks ``adj``, coefficient k in bits k * (n + 1)
    up (s_k(X) < 2^n), by I(X) = I(X - v) + x I(X - N[v]), v highest in X,
    in slices of 2^14; equal ones interned."""
    polys = [1] * (1 << n)
    seen = {}
    for v in range(1, n + 1):
        top, keep = 1 << (v - 1), ~adj[v]
        for low in range(0, top, 1 << 14):
            high = min(low + (1 << 14), top)
            polys[top + low : top + high] = [
                seen.setdefault(p, p) for p in (polys[x] + (polys[x & keep] << n + 1) for x in range(low, high))
            ]
    return polys


def count_semi_ordered_stable_partitions(graph, mu) -> int:
    """Count partitions of the vertex set into stable parts of sizes ``mu``,
    where parts of equal size additionally carry an order.

    This is the entry at the id of ``mu`` of ``semi_ordered_counts_by_id``:
    the unordered count times the factorials of the size multiplicities.
    """
    mu = check_shape(mu, graph.n)
    return semi_ordered_counts_by_id(graph).get(partition_table(graph.n).ids[mu], 0)


def least_edge_mask(adj) -> int:
    """The least edge bitmask of a graph over all relabelings of its
    vertices, the graph given by the neighbour masks ``adj`` of
    ``LabeledGraph.adj``.

    Bit i of an edge bitmask stands for the i-th pair (u, v), u < v, of the
    labels in lexicographic order, so the pairs (k, k+1..n) of label k form
    one block of bits, and label k's block lies above label k - 1's.  The
    search places labels n, n-1, ..., 1 in turn.  Placing label k fixes its
    block, which is the adjacency of the vertex placed there to the vertices
    already placed: (k, n) is its highest bit, (k, k+1) its lowest.  Only
    the unplaced vertices with the least such block can lead to the least
    mask, so only they are branched on, and a branch stops as soon as its
    fixed high bits exceed those of the best mask found.  Of two tied
    candidates whose neighbourhoods in the unplaced set agree once the pair
    itself is left out, only the first is tried: swapping such twins fixes
    every placed vertex and maps the graph to itself, so both subtrees
    reach the same masks.
    """
    n = len(adj) - 1
    if n <= 1:
        return 0
    # offset[k]: the lowest bit of label k's block
    offset = [0, 0]
    for k in range(1, n):
        offset.append(offset[k] + n - k)
    best = None

    def place(k, unplaced, blocks, high):
        # blocks: each unplaced vertex's block if it took label k
        nonlocal best
        least = min(blocks.values())
        high |= least << offset[k]
        if best is not None and high >> offset[k] > best >> offset[k]:
            return
        if k == 1:
            best = high
            return
        tried = []
        for v, block in blocks.items():
            if block != least:
                continue
            bit = 1 << (v - 1)
            near = adj[v] & unplaced
            if any(near & ~t_bit == t_near & ~bit for t_bit, t_near in tried):
                continue
            tried.append((bit, near))
            below = {w: b << 1 | adj[w] >> (v - 1) & 1 for w, b in blocks.items() if w != v}
            place(k - 1, unplaced ^ bit, below, high)

    place(n, (1 << n) - 1, dict.fromkeys(range(1, n + 1), 0), 0)
    return best


def connected_graphs(n: int) -> list[LabeledGraph]:
    """One representative per isomorphism class of connected graphs on n vertices.

    Canonical form: the least edge bitmask over all relabelings.  The
    branch-and-bound search of ``least_edge_mask`` finds it without trying
    all n! relabelings: it places the labels from n down, branches only on
    the vertices whose adjacency to the placed ones is least, tries one of
    each pair of twins, and drops a branch whose high bits already exceed
    the best mask.  Each class is returned as the graph of its canonical
    mask, in increasing mask order.
    The candidates are the (n - 1)-vertex representatives with vertex n
    joined to a nonempty subset of their vertices, and only those in which
    no other non-cut vertex has a smaller invariant (degree, then sorted
    neighbour degrees) than vertex n are canonicalized.  No class is lost:
    deleting a non-cut vertex of least invariant from any member leaves a
    connected graph isomorphic to a representative, and joining the vertex
    back gives a candidate that passes.
    """
    if n <= 1:
        return [LabeledGraph(n)]
    canons = set()
    for rep in connected_graphs(n - 1):
        for joined in range(1, 1 << (n - 1)):
            adj = [0, *(a | (joined >> (v - 1) & 1) << (n - 1) for v, a in enumerate(rep.adj[1:], 1)), joined]
            if _last_is_least_non_cut(adj):
                canons.add(least_edge_mask(adj))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    return [
        LabeledGraph(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])
        for bits in sorted(canons)
    ]


def _last_is_least_non_cut(adj) -> bool:
    """Whether no non-cut vertex but the last has a smaller (degree, sorted
    neighbour degrees) than the last vertex, in the graph of the neighbour
    masks ``adj`` of ``LabeledGraph.adj``."""
    n = len(adj) - 1
    degree = [a.bit_count() for a in adj]

    def invariant(v):
        return degree[v], sorted(degree[w] for w in mask_labels(adj[v]))

    last = invariant(n)
    return not any(invariant(v) < last and _connected_without(adj, v) for v in range(1, n))


def _connected_without(adj, v: int) -> bool:
    """Whether deleting vertex ``v`` leaves the graph of ``adj`` connected."""
    rest = (1 << (len(adj) - 1)) - 1 ^ 1 << (v - 1)
    seen = frontier = rest & -rest
    while frontier:
        reach = 0
        for w in mask_labels(frontier):
            reach |= adj[w]
        frontier = reach & rest & ~seen
        seen |= frontier
    return seen == rest
