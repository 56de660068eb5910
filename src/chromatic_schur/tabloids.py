"""Special rim hook tabloids and their graph-filled variants.

A special rim hook is a border strip that meets the first column.  A tabloid
tiles a partition diagram with such hooks so that removing them bottom-to-top
always leaves a smaller diagram; its sign is (-1) to the number of north
steps.  The graph-filled variant additionally assigns each hook a stable set
of vertices, placed in increasing label order outward from the first column.

Rows are indexed from the top starting at 1, columns from the left starting
at 1, and cells keep their absolute coordinates as hooks are peeled away.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType

from .graphs import (
    GRAPH_CACHE_SIZE,
    LabeledGraph,
    adjacency_masks,
    mask_labels,
    max_clique,
    stable_masks,
    vertex_mask,
)
from .partitions import UNDEFINED, Partition, check_partition

Cell = tuple[int, int]


@dataclass(frozen=True)
class RimHook:
    cells: tuple[Cell, ...]
    length: int = field(init=False, repr=False, compare=False)
    north_steps: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.cells or self.cells[0][1] != 1:
            raise ValueError("a special rim hook must start in the first column")
        object.__setattr__(self, "length", len(self.cells))
        object.__setattr__(self, "north_steps", self.steps.count("N"))

    @property
    def steps(self) -> tuple[str, ...]:
        return tuple(
            "N" if r1 != r2 else "E"
            for (r1, _), (r2, _) in zip(self.cells, self.cells[1:])
        )

    def to_json_dict(self) -> dict:
        return {"cells": [list(c) for c in self.cells], "steps": list(self.steps)}


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
        for hook, verts in zip(self.hooks, self.fills):
            for c, v in zip(hook.cells, verts):
                if c == cell:
                    return v
        raise KeyError(f"cell {cell} not in the diagram")

    def head_row_count(self) -> int:
        return sum(1 for p in self.shape if p > 1)

    def tail_vertices(self) -> frozenset:
        """Vertices sitting in the rows of length 1."""
        h = self.head_row_count()
        verts = []
        for hook, fill in zip(self.hooks, self.fills):
            verts += [v for (r, _), v in zip(hook.cells, fill) if r > h]
        return frozenset(verts)

    def to_json_dict(self) -> dict:
        out = super().to_json_dict()
        out["filling"] = {
            f"[{r},{c}]": v for (r, c), v in sorted(self.filling().items())
        }
        return out


@lru_cache(maxsize=None)
def bottom_hook_choices(shape: Partition) -> tuple[tuple[RimHook, Partition], ...]:
    """Every special rim hook of ``shape`` containing the bottom-left cell,
    shortest first, with the diagram left behind.

    The hook reaching up to ``top`` covers the whole bottom row and then
    columns shape[r]..shape[r-1] of each row r above; any hook whose removal
    leaves a partition must have this form, so these are all of them.
    """
    k = len(shape)
    out = []
    for top in range(k, 0, -1):
        cells = [(k, c) for c in range(1, shape[k - 1] + 1)]
        for r in range(k - 1, top - 1, -1):
            cells.extend((r, c) for c in range(shape[r], shape[r - 1] + 1))
        reduced = shape[: top - 1] + tuple(shape[r] - 1 for r in range(top, k))
        reduced = tuple(p for p in reduced if p > 0)
        out.append((RimHook(tuple(cells)), reduced))
    return tuple(out)


def _graph_masks(graph: LabeledGraph) -> tuple[tuple[int, ...], int]:
    """Neighbour masks of ``graph`` and the mask of one maximum clique."""
    return adjacency_masks(graph), vertex_mask(max_clique(graph))


def _fits(clique: int, remaining: int, rows: int) -> bool:
    # every hook ahead holds at most one clique vertex and needs its own
    # first-column cell, of which ``rows`` remain
    return (clique & remaining).bit_count() <= rows


def signed_content_table(shape) -> MappingProxyType:
    """The signed count of the special rim hook tabloids of ``shape`` with
    each sorted content, as a read-only ``{mu: count}`` without zeros.

    These are the inverse Kostka numbers K^-1(mu, shape) (Egecioglu and
    Remmel, 1990).  One peel builds the table: each bottom hook's sign times
    the table of the diagram it leaves, with the hook's length inserted into
    every content.  Tables are kept per shape for the life of the process.
    """
    return _content_table(check_partition(shape))


@lru_cache(maxsize=None)
def _content_table(shape: Partition) -> MappingProxyType:
    if not shape:
        return MappingProxyType({(): 1})
    out = {}
    for hook, reduced in bottom_hook_choices(shape):
        sign = -1 if hook.north_steps & 1 else 1
        for mu, c in _content_table(reduced).items():
            nu = tuple(sorted(mu + (hook.length,), reverse=True))
            out[nu] = out.get(nu, 0) + sign * c
    return MappingProxyType({mu: c for mu, c in out.items() if c})


def srh_g_tabloids(shape, graph):
    """Yield every SRH G-tabloid of ``shape``: each hook carries a stable set
    of vertices sorted increasingly outward from its first-column cell, and
    together the hooks use every vertex exactly once.

    Yields nothing when either argument is UNDEFINED or the sizes differ.
    The sorted placement is the unique one satisfying the increasing-read
    condition, so it is enforced by construction rather than filtered.
    """
    if shape is UNDEFINED or graph is UNDEFINED:
        return
    shape = check_partition(shape)
    if sum(shape) != graph.n:
        return
    adj, clique = _graph_masks(graph)

    def rec(current, remaining, hooks, fills):
        if not current:
            yield SrhGTabloid(shape, tuple(hooks), tuple(fills))
            return
        if not _fits(clique, remaining, len(current)):
            return
        for hook, reduced in bottom_hook_choices(current):
            for group in stable_masks(adj, remaining, hook.length):
                hooks.append(hook)
                fills.append(mask_labels(group))
                yield from rec(reduced, remaining ^ group, hooks, fills)
                hooks.pop()
                fills.pop()

    yield from rec(shape, (1 << graph.n) - 1, [], [])


class _TabloidCounter:
    """Signed count of SRH G-tabloids over one graph.

    Sums the same tabloids as ``srh_g_tabloids`` without building them:
    states reached through different hook prefixes are shared via a memo on
    (subdiagram, remaining-vertex bitmask), and subtrees the clique bound
    rules out are cut.
    """

    def __init__(self, graph: LabeledGraph):
        self.adj, self.clique = _graph_masks(graph)
        self.memo: dict = {}

    def count(self, shape, rem: int) -> int:
        if not shape:
            return 1
        key = (shape, rem)
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        total = 0
        if _fits(self.clique, rem, len(shape)):
            for hook, reduced in bottom_hook_choices(shape):
                sub = 0
                for group in stable_masks(self.adj, rem, hook.length):
                    sub += self.count(reduced, rem ^ group)
                total += -sub if hook.north_steps & 1 else sub
        self.memo[key] = total
        return total


@lru_cache(maxsize=GRAPH_CACHE_SIZE)
def _counter_for(key) -> _TabloidCounter:
    return _TabloidCounter(LabeledGraph(*key))


def signed_g_tabloid_count(shape, graph: LabeledGraph) -> int:
    """The sum of the signs of every SRH G-tabloid of ``shape`` over
    ``graph``; the counter and its memo are kept per ``graph.key()``."""
    return _counter_for(graph.key()).count(shape, (1 << graph.n) - 1)


@dataclass(frozen=True)
class TabloidPart:
    """Restriction of a G-tabloid to its head rows (lengths > 1) or its tail
    rows (length 1), with rows renumbered to start at 1.

    Two parts are equal exactly when their row lengths, per-hook cell
    fragments, and vertex fillings coincide; whether a fragment's hook
    continues across the head/tail boundary is deliberately not recorded.
    """

    row_lengths: Partition
    fragments: tuple[tuple[tuple[Cell, ...], tuple[int, ...]], ...]

    def vertex_set(self) -> frozenset:
        return frozenset(v for _, verts in self.fragments for v in verts)

    def sort_key(self):
        return (self.row_lengths, self.fragments)

    def to_json_dict(self) -> dict:
        return {
            "row_lengths": list(self.row_lengths),
            "fragments": [
                {"cells": [list(c) for c in cells], "vertices": list(verts)}
                for cells, verts in self.fragments
            ],
        }


def split_head_tail(tabloid: SrhGTabloid) -> tuple[TabloidPart, TabloidPart]:
    """Split into the rows of length > 1 (head) and the rows of length 1 (tail)."""
    shape = tabloid.shape
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
    return (
        TabloidPart(shape[:h], tuple(head_frags)),
        TabloidPart(shape[h:], tuple(tail_frags)),
    )
