"""Tabloid enumerators that only the tests use.

``peel_bottom_hooks`` peels a diagram by its cells: it walks the rim from
the bottom-left cell and keeps each prefix whose removal leaves a partition
diagram, reading the diagram left off the cells that remain.  It shares no
code with ``chromatic_schur.tabloids.bottom_hooks``, which reads the same
hooks off the row lengths, and every enumerator here peels with it.
``srh_tabloids`` lists the special rim hook tabloids one by one, as
``SrhTabloid`` objects; the tests compare the signed content table against
it and read the golden cases from it.  ``content_table`` reads the
package's id-keyed signed content table keyed by partition, and
``reference_content_table`` builds the same table by the cell peel: a wider
reference for it.
``srh_g_tabloids`` streams the graph-filled tabloids one by one, a small-n
reference for the memoized counts of ``chromatic_schur.tabloids``.  It
takes each hook's stable sets from label combinations by brute force, so
it shares no stable-set code with ``chromatic_schur.graphs`` either.
``split_head_tail`` cuts one at the head/tail boundary into the plain
``(row_lengths, fragments)`` pairs that ``fragment_vertices`` reads.
``tabloids_with_bottom_vertex`` picks out the bottom-cell classes that the
recurrences split on.
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache

from chromatic_schur.partitions import UNDEFINED, Partition, check_partition, partition_table
from chromatic_schur.tabloids import Cell, _content_table


@dataclass(frozen=True)
class RimHook:
    """A special rim hook by its cells, from the first column outward."""

    cells: tuple[Cell, ...]

    @property
    def length(self) -> int:
        return len(self.cells)

    @property
    def steps(self) -> tuple[str, ...]:
        return tuple(
            "N" if r1 != r2 else "E"
            for (r1, _), (r2, _) in zip(self.cells, self.cells[1:])
        )

    @property
    def north_steps(self) -> int:
        return self.steps.count("N")

    def to_json_dict(self) -> dict:
        return {"cells": [list(c) for c in self.cells], "steps": list(self.steps)}


def _row_lengths(cells) -> Partition | None:
    """The partition whose diagram is ``cells``, or None if they form none."""
    rows = {}
    for r, c in cells:
        rows.setdefault(r, []).append(c)
    lengths = []
    for r in range(1, len(rows) + 1):
        cols = sorted(rows.get(r, ()))
        if not cols or cols != list(range(1, len(cols) + 1)):
            return None
        lengths.append(len(cols))
    if lengths != sorted(lengths, reverse=True):
        return None
    return tuple(lengths)


@lru_cache(maxsize=None)
def peel_bottom_hooks(shape: Partition) -> tuple[tuple[RimHook, Partition], ...]:
    """Every special rim hook of ``shape`` containing the bottom-left cell,
    shortest first, with the diagram its removal leaves.

    The rim is walked from the bottom-left cell, east while the row goes on
    and north otherwise; a hook is a prefix of that walk whose removal
    leaves a partition diagram.  Cells keep their absolute coordinates, so
    the diagram left is read off the cells that remain.
    """
    if not shape:
        return ()
    cells = {(r, c) for r, width in enumerate(shape, 1) for c in range(1, width + 1)}
    out = []
    walk = [(len(shape), 1)]
    while True:
        r, c = walk[-1]
        left = _row_lengths(cells.difference(walk))
        if left is not None:
            out.append((RimHook(tuple(walk)), left))
        if (r, c + 1) in cells:
            walk.append((r, c + 1))
        elif (r - 1, c) in cells:
            walk.append((r - 1, c))
        else:
            return tuple(out)


@dataclass(frozen=True)
class SrhTabloid:
    shape: Partition
    hooks: tuple[RimHook, ...]  # bottom-to-top by first-column cell

    @property
    def content(self) -> tuple[int, ...]:
        """Hook lengths read from the bottom to the top."""
        return tuple(h.length for h in self.hooks)

    @property
    def sign(self) -> int:
        return -1 if sum(h.north_steps for h in self.hooks) % 2 else 1

    def to_json_dict(self) -> dict:
        return {"shape": list(self.shape), "hooks": [h.to_json_dict() for h in self.hooks]}


@dataclass(frozen=True)
class SrhGTabloid(SrhTabloid):
    fills: tuple[tuple[int, ...], ...]  # vertex labels per hook, in read order

    def filling(self) -> dict[Cell, int]:
        out = {}
        for hook, verts in zip(self.hooks, self.fills):
            out.update(zip(hook.cells, verts))
        return out

    def vertex_at(self, cell: Cell) -> int:
        try:
            return self.filling()[cell]
        except KeyError:
            raise KeyError(f"cell {cell} not in the diagram") from None

    def head_row_count(self) -> int:
        return sum(1 for p in self.shape if p > 1)

    def tail_vertices(self) -> frozenset:
        """Vertices sitting in the rows of length 1."""
        return fragment_vertices(split_head_tail(self)[1][1])

    def to_json_dict(self) -> dict:
        out = super().to_json_dict()
        out["filling"] = {
            f"[{r},{c}]": v for (r, c), v in sorted(self.filling().items())
        }
        return out


def srh_tabloids(shape):
    """Yield every special rim hook tabloid of ``shape`` exactly once.

    Hooks are peeled bottom-to-top; at each step candidates are tried
    shortest first, fixing a deterministic order.
    """
    shape = check_partition(shape)

    def rec(current: Partition, acc: list[RimHook]):
        if not current:
            yield SrhTabloid(shape, tuple(acc))
            return
        for hook, reduced in peel_bottom_hooks(current):
            acc.append(hook)
            yield from rec(reduced, acc)
            acc.pop()

    yield from rec(shape, [])


def content_table(shape) -> dict:
    """``chromatic_schur.tabloids._content_table`` of ``shape``, keyed by the
    partition each id stands for."""
    shape = check_partition(shape)
    parts = partition_table(sum(shape)).parts
    return {parts[i]: c for i, c in _content_table(shape).items()}


@lru_cache(maxsize=None)
def reference_content_table(shape) -> dict:
    """The signed count of the special rim hook tabloids of ``shape`` with
    each sorted content, as ``{mu: count}`` without zeros: each bottom
    hook's sign, (-1) to the north steps of its cells, times the table of
    the diagram it leaves, with the hook's length sorted into every
    content."""
    if not shape:
        return {(): 1}
    out = {}
    for hook, reduced in peel_bottom_hooks(shape):
        sign = -1 if hook.north_steps & 1 else 1
        for mu, c in reference_content_table(reduced).items():
            nu = tuple(sorted(mu + (hook.length,), reverse=True))
            out[nu] = out.get(nu, 0) + sign * c
    return {mu: c for mu, c in out.items() if c}


def srh_g_tabloids(shape, graph):
    """Yield every SRH G-tabloid of ``shape``: each hook carries a stable set
    of vertices sorted increasingly outward from its first-column cell, and
    together the hooks use every vertex exactly once.

    Yields nothing when either argument is UNDEFINED or the sizes differ.
    The sorted placement is the unique one satisfying the increasing-read
    condition, so it is enforced by construction rather than filtered.
    Each hook's set is a combination of the labels left, in lexicographic
    order, kept when no two of its labels are adjacent.  Adjacency is read
    from ``graph.edges``, not from the bitmasks ``LabeledGraph.adj`` that
    every route reads, so a wrong bit there shows up as a disagreement.
    """
    if shape is UNDEFINED or graph is UNDEFINED:
        return
    shape = check_partition(shape)
    if sum(shape) != graph.n:
        return

    def rec(current, remaining, hooks, fills):
        # remaining: the labels not yet placed, in increasing order
        if not current:
            yield SrhGTabloid(shape, tuple(hooks), tuple(fills))
            return
        for hook, reduced in peel_bottom_hooks(current):
            for group in itertools.combinations(remaining, hook.length):
                if any(pair in graph.edges for pair in itertools.combinations(group, 2)):
                    continue
                hooks.append(hook)
                fills.append(group)
                yield from rec(reduced, tuple(v for v in remaining if v not in group), hooks, fills)
                hooks.pop()
                fills.pop()

    yield from rec(shape, tuple(graph.vertices), [], [])


def split_head_tail(tabloid: SrhGTabloid):
    """Split into the rows of length > 1 (head) and the rows of length 1
    (tail), renumbering the tail rows to start at 1.  Each part is a
    ``(row_lengths, fragments)`` pair, with one ``(cells, vertices)``
    fragment per hook that has a cell in it, bottom hook first; whether a
    hook continues across the boundary is not recorded."""
    h = tabloid.head_row_count()
    head_frags = []
    tail_frags = []
    for hook, verts in zip(tabloid.hooks, tabloid.fills):
        hcells, hverts, tcells, tverts = [], [], [], []
        for cell, vert in zip(hook.cells, verts):
            if cell[0] <= h:
                hcells.append(cell)
                hverts.append(vert)
            else:
                tcells.append((cell[0] - h, cell[1]))
                tverts.append(vert)
        if hcells:
            head_frags.append((tuple(hcells), tuple(hverts)))
        if tcells:
            tail_frags.append((tuple(tcells), tuple(tverts)))
    return (tabloid.shape[:h], tuple(head_frags)), (tabloid.shape[h:], tuple(tail_frags))


def fragment_vertices(fragments) -> frozenset:
    """The vertices that ``(cells, vertices)`` fragments hold."""
    return frozenset(v for _, verts in fragments for v in verts)


def tabloids_with_bottom_vertex(shape, graph, vertex: int):
    """Tabloids whose bottom-left cell holds ``vertex``; the shape must end
    in a part equal to 1."""
    shape = check_partition(shape)
    if not shape or shape[-1] != 1:
        raise ValueError("bottom-vertex filtering needs a shape ending in 1")
    for t in srh_g_tabloids(shape, graph):
        if t.fills[0][0] == vertex:
            yield t
