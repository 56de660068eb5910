"""Tabloid enumerators that only the tests use.

``srh_tabloids`` lists the special rim hook tabloids one by one, as
``SrhTabloid`` objects; the tests compare the signed content table against
it and read the golden cases from it.  ``srh_g_tabloids`` streams the
graph-filled tabloids one by one, a small-n reference for the memoized
counts of ``chromatic_schur.tabloids``, and ``split_head_tail`` cuts one at
the head/tail boundary.
``tabloids_with_bottom_vertex`` picks out the bottom-cell classes that the
recurrences split on.
"""

from dataclasses import dataclass

from chromatic_schur.graphs import adjacency_masks, mask_labels, stable_masks
from chromatic_schur.partitions import UNDEFINED, Partition, check_partition
from chromatic_schur.tabloids import Cell, RimHook, TabloidPart, bottom_hook_choices


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
        return split_head_tail(self)[1].vertex_set()

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
        for hook, reduced in bottom_hook_choices(current):
            acc.append(hook)
            yield from rec(reduced, acc)
            acc.pop()

    yield from rec(shape, [])


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
    adj = adjacency_masks(graph)

    def rec(current, remaining, hooks, fills):
        if not current:
            yield SrhGTabloid(shape, tuple(hooks), tuple(fills))
            return
        for hook, reduced in bottom_hook_choices(current):
            for group in stable_masks(adj, remaining, hook.length):
                hooks.append(hook)
                fills.append(mask_labels(group))
                yield from rec(reduced, remaining ^ group, hooks, fills)
                hooks.pop()
                fills.pop()

    yield from rec(shape, (1 << graph.n) - 1, [], [])


def split_head_tail(tabloid: SrhGTabloid) -> tuple[TabloidPart, TabloidPart]:
    """Split into the rows of length > 1 (head) and the rows of length 1
    (tail), renumbering the tail rows to start at 1."""
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
        TabloidPart(tabloid.shape[:h], tuple(head_frags)),
        TabloidPart(tabloid.shape[h:], tuple(tail_frags)),
    )


def tabloids_with_bottom_vertex(shape, graph, vertex: int):
    """Tabloids whose bottom-left cell holds ``vertex``; the shape must end
    in a part equal to 1."""
    shape = check_partition(shape)
    if not shape or shape[-1] != 1:
        raise ValueError("bottom-vertex filtering needs a shape ending in 1")
    for t in srh_g_tabloids(shape, graph):
        if t.fills[0][0] == vertex:
            yield t
