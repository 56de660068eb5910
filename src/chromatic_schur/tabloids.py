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

from .graphs import LabeledGraph, adjacency_masks, mask_labels, max_clique, stable_sets, vertex_mask
from .partitions import Partition, check_partition

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


def signed_g_tabloid_counts(graph: LabeledGraph, shapes) -> dict:
    """The sum of the signs of every SRH G-tabloid of each of ``shapes``
    over ``graph``, as ``{shape: count}``.

    Sums the signs without building a tabloid: states reached through
    different hook prefixes are shared via a memo on (subdiagram,
    remaining-vertex bitmask), and subtrees the clique bound rules out are
    cut.  Each hook takes the sets of ``stable_sets(graph)`` that fit the
    remaining bitmask.  The shapes of one call share the memo, which is
    dropped when the call returns.
    """
    clique = vertex_mask(max_clique(graph))
    stable = stable_sets(graph)
    memo: dict = {}

    def count(shape, rem):
        if not shape:
            return 1
        key = (shape, rem)
        cached = memo.get(key)
        if cached is not None:
            return cached
        total = 0
        if _fits(clique, rem, len(shape)):
            for hook, reduced in bottom_hook_choices(shape):
                sub = 0
                for group in stable[hook.length]:
                    if group & ~rem:
                        continue
                    sub += count(reduced, rem ^ group)
                total += -sub if hook.north_steps & 1 else sub
        memo[key] = total
        return total

    full = (1 << graph.n) - 1
    return {shape: count(shape, full) for shape in map(check_partition, shapes)}


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


# ---------------------------------------------------------------------------
# head/tail statistics
#
# The head is the rows of length > 1 and the tail the rows of length 1 below
# them, one column wide.  Rows keep their absolute index under the peel, and
# a hook reads its tail cells before its head cells, so the j tail cells of a
# hook hold its j smallest vertices.  Both statistics below are computed on
# (subdiagram, remaining-vertex bitmask) states, never building a tabloid.


def _head_rows(shape: Partition) -> int:
    return sum(1 for p in shape if p > 1)


def _low_bits(group: int, j: int) -> int:
    """The ``j`` lowest set bits of ``group``."""
    low = 0
    for _ in range(j):
        bit = group & -group
        low |= bit
        group ^= bit
    return low


def pendant_tail_counts(shape, graph: LabeledGraph, pendants) -> tuple[int, int]:
    """The number of SRH G-tabloids of ``shape`` over ``graph``, and of those
    whose tail is nonempty and holds only vertices of ``pendants``.

    The tail holds only pendants when every hook's smallest vertices, one
    per tail cell of the hook, are pendants.  One memo on (subdiagram,
    remaining bitmask) keeps both counts.
    """
    shape = check_partition(shape)
    clique = vertex_mask(max_clique(graph))
    stable = stable_sets(graph)
    h = _head_rows(shape)
    pend = vertex_mask(pendants)
    memo: dict = {}

    def count(current, rem):
        if not current:
            return 1, 1
        key = (current, rem)
        cached = memo.get(key)
        if cached is not None:
            return cached
        total = only_pendants = 0
        if _fits(clique, rem, len(current)):
            for hook, reduced in bottom_hook_choices(current):
                j = sum(1 for r, _ in hook.cells if r > h)
                for group in stable[hook.length]:
                    if group & ~rem:
                        continue
                    a, b = count(reduced, rem ^ group)
                    total += a
                    if not _low_bits(group, j) & ~pend:
                        only_pendants += b
        memo[key] = total, only_pendants
        return total, only_pendants

    total, only_pendants = count(shape, (1 << graph.n) - 1)
    return total, only_pendants if h < len(shape) else 0


# how far a hook prefix has met the cancellation selection
_START, _SELECTED, _PENDING, _REJECTED = range(4)


def head_class_sums(shape, graph: LabeledGraph, pendants, body) -> dict:
    """Group the SRH G-tabloids of ``shape`` by head part and return
    ``{head: [signed selected sum, selected count, class size]}``.

    A tabloid is selected when its bottom cell holds a pendant not adjacent
    to the vertex in the cell above it, and each hook holds at most one body
    vertex among its tail cells.  The shape must end in two parts equal to 1.

    Hook prefixes are peeled forward and summed per selection status by
    (subdiagram, remaining bitmask, head part of the crossing hook).  The
    tail is one column, so at most one hook crosses into the head, and the
    hooks below it add nothing to the head part: their prefixes meet in few
    states.  Once the tail is placed, the head rows left are filled in every
    way from a memo on (subdiagram, remaining bitmask), and each filling
    completes the head key.
    """
    shape = check_partition(shape)
    adj = adjacency_masks(graph)
    clique = vertex_mask(max_clique(graph))
    stable = stable_sets(graph)
    h = _head_rows(shape)
    pend = vertex_mask(pendants)
    bod = vertex_mask(body)
    full = (1 << graph.n) - 1

    def step(status, group, length, j, rem):
        # the status after a hook that puts ``group`` in the diagram with
        # ``j`` tail cells, peeled from a state with ``rem`` remaining
        if status == _REJECTED or (_low_bits(group, j) & bod).bit_count() > 1:
            return _REJECTED
        least = group & -group
        if status == _START:
            if not least & pend:
                return _REJECTED
            return _PENDING if length == 1 else _SELECTED
        # a pending bottom vertex is the only one taken so far
        if status == _PENDING and adj[(full ^ rem).bit_length()] & least:
            return _REJECTED
        return _SELECTED

    head_memo: dict = {}

    def heads(current, rem):
        # every filling of the head rows left: (head fragments, sign)
        if not current:
            return (((), 1),)
        key = (current, rem)
        cached = head_memo.get(key)
        if cached is not None:
            return cached
        out = []
        if _fits(clique, rem, len(current)):
            for hook, reduced in bottom_hook_choices(current):
                sign = -1 if hook.north_steps & 1 else 1
                for group in stable[hook.length]:
                    if group & ~rem:
                        continue
                    frag = (hook.cells, mask_labels(group))
                    out += [((frag,) + rest, sign * s) for rest, s in heads(reduced, rem ^ group)]
        head_memo[key] = out
        return out

    # by[size]: {(subdiagram, rem, crossing hook's head part): {status:
    # [count, signed count]}} for the prefixes leaving ``size`` vertices
    by = [{} for _ in range(graph.n + 1)]
    by[graph.n][shape, full, ()] = {_START: [1, 1]}
    groups: dict = {}
    for size in range(graph.n, -1, -1):
        for (current, rem, lead), statuses in by[size].items():
            if len(current) <= h:
                total = sum(count for count, _ in statuses.values())
                selected, signed = statuses.get(_SELECTED, (0, 0))
                for frags, sign in heads(current, rem):
                    acc = groups.setdefault(lead + frags, [0, 0, 0])
                    acc[0] += sign * signed
                    acc[1] += selected
                    acc[2] += total
                continue
            if not _fits(clique, rem, len(current)):
                continue
            for hook, reduced in bottom_hook_choices(current):
                sign = -1 if hook.north_steps & 1 else 1
                j = sum(1 for r, _ in hook.cells if r > h)
                for group in stable[hook.length]:
                    if group & ~rem:
                        continue
                    # a state with tail rows left has no head part yet
                    crossing = () if j == hook.length else ((hook.cells[j:], mask_labels(group)[j:]),)
                    after = by[size - hook.length].setdefault((reduced, rem ^ group, crossing), {})
                    for status, (count, signed) in statuses.items():
                        acc = after.setdefault(step(status, group, hook.length, j, rem), [0, 0])
                        acc[0] += count
                        acc[1] += sign * signed
        by[size] = None
    return {TabloidPart(shape[:h], frags): acc for frags, acc in groups.items()}
