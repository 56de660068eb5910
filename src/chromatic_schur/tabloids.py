"""Special rim hook tabloids and their graph-filled variants.

A special rim hook is a border strip that meets the first column.  A tabloid
tiles a partition diagram with such hooks so that removing them bottom-to-top
always leaves a smaller diagram; its sign is (-1) to the number of north
steps.  The graph-filled variant additionally assigns each hook a stable set
of vertices, placed in increasing label order outward from the first column.

Rows are indexed from the top starting at 1, columns from the left starting
at 1, and cells keep their absolute coordinates as hooks are peeled away.

Both rim hook routes peel with ``bottom_hooks``, which reads each hook's top
row, length, sign and the diagram it leaves off the row lengths alone.  The
grouped route's signed content tables are keyed by the partition ids of
``partitions.partition_table``, and the tabloid route numbers the
subdiagrams it reaches.  Only the head/tail statistics, which place
vertices in cells, build ``RimHook`` cells, by ``bottom_hook_choices``.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType

from .graphs import LabeledGraph, adjacency_masks, mask_labels, stable_sets, vertex_mask
from .partitions import Partition, check_partition, partition_table
from .records import FrozenRecord

Cell = tuple[int, int]


class RimHook(FrozenRecord):
    """A special rim hook by its cells, from the first column outward; equal
    hooks have equal cells, and ``length`` and ``north_steps`` are set once
    from them."""

    __slots__ = ("cells", "length", "north_steps")
    _fields = ("cells",)

    def __init__(self, cells: tuple[Cell, ...]):
        if not cells or cells[0][1] != 1:
            raise ValueError("a special rim hook must start in the first column")
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "length", len(cells))
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
def bottom_hooks(shape: Partition) -> tuple[tuple[int, int, int, Partition], ...]:
    """Every special rim hook of ``shape`` containing the bottom-left cell,
    shortest first, as ``(top, length, sign, reduced)``: the hook reaches
    up to row ``top``, has ``length`` cells and the sign (-1) to its north
    steps, and leaves the diagram ``reduced``.

    The hook reaching up to ``top`` covers the whole bottom row and then
    columns shape[r]..shape[r-1] of each row r above; any hook whose removal
    leaves a partition must have this form, so these are all of them.  It
    makes one north step per row above the bottom, and its length and the
    diagram it leaves follow from the row lengths alone, so no cell is
    built.
    """
    k = len(shape)
    out = []
    length = 0
    for top in range(k, 0, -1):
        length += shape[top - 1] if top == k else shape[top - 1] - shape[top] + 1
        reduced = shape[: top - 1] + tuple(p - 1 for p in shape[top:] if p > 1)
        out.append((top, length, -1 if (k - top) & 1 else 1, reduced))
    return tuple(out)


@lru_cache(maxsize=None)
def bottom_hook_choices(shape: Partition) -> tuple[tuple[RimHook, Partition], ...]:
    """The hooks of ``bottom_hooks``, in the same order, as ``(RimHook,
    reduced)`` with their cells, for the peels that place vertices in
    cells."""
    k = len(shape)
    out = []
    for top, _, _, reduced in bottom_hooks(shape):
        cells = [(k, c) for c in range(1, shape[k - 1] + 1)]
        for r in range(k - 1, top - 1, -1):
            cells.extend((r, c) for c in range(shape[r], shape[r - 1] + 1))
        out.append((RimHook(tuple(cells)), reduced))
    return tuple(out)


def signed_content_table(shape) -> MappingProxyType:
    """The signed count of the special rim hook tabloids of ``shape`` with
    each sorted content, as a read-only ``{mu: count}`` without zeros.

    These are the inverse Kostka numbers K^-1(mu, shape) (Egecioglu and
    Remmel, 1990).  One peel builds the table: each bottom hook's sign times
    the table of the diagram it leaves, with the hook's length inserted into
    every content.  The tables are kept per shape for the life of the
    process, keyed by the ids of ``partitions.partition_table``, and an
    insertion is one lookup in its row for the hook length; this view
    keyed by partitions is built per call.
    """
    shape = check_partition(shape)
    parts = partition_table(sum(shape)).parts
    return MappingProxyType({parts[i]: c for i, c in _content_table(shape).items()})


@lru_cache(maxsize=None)
def _content_table(shape: Partition) -> MappingProxyType:
    # {mu id: K^-1(mu, shape)} without zeros
    if not shape:
        return MappingProxyType({0: 1})
    insert = partition_table(sum(shape)).insert
    out = {}
    for _, length, sign, reduced in bottom_hooks(shape):
        row = insert[length]
        for i, c in _content_table(reduced).items():
            j = row[i]
            out[j] = out.get(j, 0) + sign * c
    return MappingProxyType({j: c for j, c in out.items() if c})


def _hook_plan(shapes: tuple[Partition, ...]):
    """The subdiagrams that peeling ``shapes`` reaches, numbered within
    each size, as ``(ids, plans)``: ``ids[shape]`` is the index of
    ``shape`` among the subdiagrams of its size, and ``plans[size]`` lists
    ``(length, reduced id, sign)`` for every bottom hook of each subdiagram
    of that size, in id order."""
    ids: dict = {}
    by_size: dict = {}
    todo = list(shapes)
    while todo:
        shape = todo.pop()
        if shape in ids:
            continue
        of_size = by_size.setdefault(sum(shape), [])
        ids[shape] = len(of_size)
        of_size.append(shape)
        todo.extend(reduced for *_, reduced in bottom_hooks(shape))
    plans = {
        size: tuple(
            tuple((length, ids[reduced], sign) for _, length, sign, reduced in bottom_hooks(shape))
            for shape in of_size
        )
        for size, of_size in by_size.items()
    }
    return ids, plans


def signed_g_tabloid_counts(graph: LabeledGraph, shapes) -> dict:
    """The sum of the signs of every SRH G-tabloid of each of ``shapes``
    over ``graph``, as ``{shape: count}``.  Every shape must have the
    graph's vertex count as its size.

    Sums the signs without building a tabloid, by a memo on the
    remaining-vertex bitmask alone.  A state with k vertices left holds the
    signed counts of every subdiagram of size k that peeling ``shapes``
    reaches, filled with exactly those vertices.  For each hook length it
    first sums the rests' counts over the sets of ``stable_sets(graph)`` of
    that length that fit; each subdiagram then reads its bottom hooks from
    those sums, with their signs.  The hook plan and the memo are built
    afresh by each call and dropped when it returns.
    """
    shapes = tuple(dict.fromkeys(map(check_partition, shapes)))
    if any(sum(shape) != graph.n for shape in shapes):
        raise ValueError("partition size must equal the vertex count")
    if not shapes:
        return {}
    ids, plans = _hook_plan(shapes)
    stable = stable_sets(graph)
    full = (1 << graph.n) - 1
    lengths = {
        size: sorted({length for plan in of_size for length, _, _ in plan})
        for size, of_size in plans.items()
    }
    memo = {0: [1]}

    def counts(rem):
        got = memo.get(rem)
        if got is not None:
            return got
        size = rem.bit_count()
        miss = full ^ rem
        sums = {}
        for length in lengths[size]:
            rests = [counts(rem ^ group) for group in stable[length] if not group & miss]
            if rests:
                sums[length] = [sum(col) for col in zip(*rests)]
        got = [
            sum(sign * sums[length][rid] for length, rid, sign in plan if length in sums)
            for plan in plans[size]
        ]
        memo[rem] = got
        return got

    top = counts(full)
    return {shape: top[ids[shape]] for shape in shapes}


class TabloidPart(FrozenRecord):
    """Restriction of a G-tabloid to its head rows (lengths > 1) or its tail
    rows (length 1), with rows renumbered to start at 1.

    Two parts are equal exactly when their row lengths, per-hook cell
    fragments, and vertex fillings coincide; whether a fragment's hook
    continues across the head/tail boundary is deliberately not recorded.
    """

    __slots__ = _fields = ("row_lengths", "fragments")

    def __init__(self, row_lengths: Partition, fragments: tuple[tuple[tuple[Cell, ...], tuple[int, ...]], ...]):
        object.__setattr__(self, "row_lengths", row_lengths)
        object.__setattr__(self, "fragments", fragments)

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
    remaining bitmask) keeps both counts.  The shape's size must be the
    graph's vertex count.
    """
    shape = check_partition(shape)
    if sum(shape) != graph.n:
        raise ValueError("partition size must equal the vertex count")
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
    vertex among its tail cells.  The shape must end in two parts equal to 1
    and have the graph's vertex count as its size.

    Hook prefixes are peeled forward and summed per selection status by
    (subdiagram, remaining bitmask, head part of the crossing hook).  The
    tail is one column, so at most one hook crosses into the head, and the
    hooks below it add nothing to the head part: their prefixes meet in few
    states.  Once the tail is placed, the head rows left are filled in every
    way from a memo on (subdiagram, remaining bitmask), and each filling
    completes the head key.
    """
    shape = check_partition(shape)
    if shape[-2:] != (1, 1):
        raise ValueError("the shape must end in two parts equal to 1")
    if sum(shape) != graph.n:
        raise ValueError("partition size must equal the vertex count")
    adj = adjacency_masks(graph)
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
