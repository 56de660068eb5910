"""Special rim hook tabloids and their graph-filled variants.

A special rim hook is a border strip that meets the first column.  A tabloid
tiles a partition diagram with such hooks so that removing them bottom-to-top
always leaves a smaller diagram; its sign is (-1) to the number of north
steps.  The graph-filled variant additionally assigns each hook a stable set
of vertices, placed in increasing label order outward from the first column.

Rows are indexed from the top starting at 1, columns from the left starting
at 1, and cells keep their absolute coordinates as hooks are peeled away.

Every peel here, both rim hook routes and the head/tail statistics, goes
through ``bottom_hooks``, which reads each hook's top row, length, sign and
the diagram it leaves off the row lengths alone.  The grouped route's signed
content tables are keyed by the partition ids of
``partitions.partition_table``.  One bottom-up fill over remaining-vertex
bitmasks, ``_fill``, gives both the tabloid route's signed counts and the
tail counts of ``pendant_tail_counts``.  Both head/tail statistics reach
the same 2^n remaining-vertex states as the route, so both keep its
``MAX_TABLOID_VERTICES`` cap.  Only the head fragments that key the classes
of ``head_class_sums``, plain tuples, hold cells, built per call by
``_hook_cells``.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType

from .graphs import LabeledGraph, mask_labels, stable_sets, vertex_mask
from .partitions import Partition, check_partition, check_shape, partition_table

Cell = tuple[int, int]

# the most vertices of the tabloid route, whose DP fills up to 2^n
# remaining-vertex states; on a 2-vCPU host GN(8,8) took 8.1 s at 46 MB peak
# RSS and GN(9,9), 18 vertices, 58 s at 198 MB
MAX_TABLOID_VERTICES = 18


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


def _hook_cells(shape: Partition, top: int) -> tuple[Cell, ...]:
    """The cells of the bottom hook of ``shape`` reaching up to row ``top``,
    from the first column outward: the whole bottom row, then columns
    shape[r]..shape[r-1] of each row r above, up to ``top``."""
    k = len(shape)
    cells = [(k, c) for c in range(1, shape[k - 1] + 1)]
    for r in range(k - 1, top - 1, -1):
        cells.extend((r, c) for c in range(shape[r], shape[r - 1] + 1))
    return tuple(cells)


@lru_cache(maxsize=None)
def _content_table(shape: Partition) -> MappingProxyType:
    """The signed count of the special rim hook tabloids of ``shape`` with
    each sorted content, as a read-only ``{mu id: count}`` without zeros,
    keyed by the ids of ``partitions.partition_table``.

    These are the inverse Kostka numbers K^-1(mu, shape) (Egecioglu and
    Remmel, 1990).  One peel builds the table: each bottom hook's sign times
    the table of the diagram it leaves, with the hook's length inserted into
    every content, one lookup in the insertion row for that length.  The
    tables are kept per shape for the life of the process.
    """
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


def _hook_plan(shapes: tuple[Partition, ...], h: int | None = None):
    """The subdiagrams that peeling ``shapes`` reaches, numbered within
    each size, as ``(ids, plans)``.  ``plans[size]`` is ``(count, ((length,
    j, ((slot, reduced slot, weight), ...)), ...))``: the slots of that
    size, and their bottom hooks grouped by length and by j, the number of
    the hook's lowest vertices that must be pendants.  On the route (no
    ``h``) slot ``ids[shape]`` is the signed count, j is 0 and a hook weighs
    its sign.  Below ``h`` head rows every hook weighs 1, and a subdiagram
    has two slots: ``ids[shape]`` (j = 0) for every filling and ``ids[shape]
    + count // 2`` (j its tail cells) for those whose tail is all pendants.
    """
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
    plans = {}
    for size, of_size in by_size.items():
        groups: dict = {}
        for i, shape in enumerate(of_size):
            for top, length, sign, reduced in bottom_hooks(shape):
                rid = ids[reduced]
                groups.setdefault((length, 0), []).append((i, rid, sign if h is None else 1))
                if h is not None:
                    j, rest = _tail_cells(shape, top, h), len(by_size[size - length])
                    groups.setdefault((length, j), []).append((len(of_size) + i, rest + rid, 1))
        count = len(of_size) if h is None else 2 * len(of_size)
        plans[size] = (count, tuple((*key, tuple(hooks)) for key, hooks in sorted(groups.items())))
    return ids, plans


def _fill(graph: LabeledGraph, plans, pend: int = 0) -> list:
    """The slots of size ``graph.n`` of ``plans``, by a DP on the
    remaining-vertex bitmask: a state with k vertices left holds every slot
    of size k filled with exactly those vertices.  Per (length, j) group it
    sums the rests over the allowed sets that fit, once, and adds each
    hook's weight times its rest's slot.  A stable set is allowed when its j
    lowest vertices lie in ``pend``: when its lowest vertex outside ``pend``
    has at least j of its vertices below it, or it has none.  The allowed
    sets are chosen once per group before the loop.
    """
    stable = stable_sets(graph)
    keys = {(length, j) for _, groups in plans.values() for length, j, _ in groups}
    allowed = {
        (length, j): tuple(g for g in stable[length] if (g & ((out := g & ~pend) & -out) - 1).bit_count() >= j)
        for length, j in keys
    }
    steps = {
        size: (count, tuple((allowed[length, j], hooks) for length, j, hooks in groups))
        for size, (count, groups) in plans.items()
    }
    full = (1 << graph.n) - 1
    memo = [None] * (full + 1)
    memo[0] = [1] * plans[0][0]
    # a stable set S that fits rem leaves rem ^ S == rem - S < rem, so in
    # increasing order every rest a state reads is already filled
    for rem in range(1, full + 1):
        step = steps.get(rem.bit_count())
        if step is None:
            continue
        count, groups = step
        miss = full ^ rem
        got = [0] * count
        for sets, hooks in groups:
            rests = [memo[rem ^ group] for group in sets if not group & miss]
            if not rests:
                continue
            col = rests[0] if len(rests) == 1 else [sum(c) for c in zip(*rests)]
            for i, rid, weight in hooks:
                got[i] += weight * col[rid]
        memo[rem] = got
    return memo[full]


def _check_route_size(graph: LabeledGraph) -> None:
    if graph.n > MAX_TABLOID_VERTICES:
        raise ValueError(f"{graph.n} vertices exceed the cap of {MAX_TABLOID_VERTICES} on the tabloid route")


def signed_g_tabloid_counts(graph: LabeledGraph, shapes) -> dict:
    """The sum of the signs of every SRH G-tabloid of each of ``shapes``
    over ``graph``, as ``{shape: count}``, by one ``_fill`` of their hook
    plan, which lives for the call.  Every shape's size must be the vertex
    count.  Raises ``ValueError`` above ``MAX_TABLOID_VERTICES`` vertices,
    before anything is built."""
    _check_route_size(graph)
    shapes = tuple(dict.fromkeys(check_shape(shape, graph.n) for shape in shapes))
    if not shapes:
        return {}
    ids, plans = _hook_plan(shapes)
    top = _fill(graph, plans)
    return {shape: top[ids[shape]] for shape in shapes}


# ---------------------------------------------------------------------------
# head/tail statistics
#
# The head is the rows of length > 1 and the tail the rows of length 1 below
# them, one column wide.  Rows keep their absolute index under the peel, and
# a hook reads its tail cells before its head cells, so the j tail cells of a
# hook hold its j smallest vertices.  Neither statistic below builds a
# tabloid.


def _head_rows(shape: Partition) -> int:
    return sum(1 for p in shape if p > 1)


def _tail_cells(current: Partition, top: int, h: int) -> int:
    """The tail cells of the bottom hook of ``current`` reaching up to row
    ``top``, below the ``h`` head rows: one per row of the hook below row
    ``h``, as every tail row is one cell wide."""
    return max(0, len(current) - max(top - 1, h))


def pendant_tail_counts(shape, graph: LabeledGraph, pendants) -> tuple[int, int]:
    """The number of SRH G-tabloids of ``shape`` over ``graph``, and of those
    whose tail is nonempty and holds only vertices of ``pendants``: those in
    which every hook's smallest vertices, one per tail cell, are pendants.
    Both are the two full-size slots of one ``_fill`` below the head rows.
    The shape's size must be the graph's vertex count.  Raises
    ``ValueError`` above ``MAX_TABLOID_VERTICES`` vertices, as the route's
    fill does, before anything is built.
    """
    _check_route_size(graph)
    shape = check_shape(shape, graph.n)
    h = _head_rows(shape)
    _, plans = _hook_plan((shape,), h)
    total, only_pendants = _fill(graph, plans, vertex_mask(pendants))
    return total, only_pendants if h < len(shape) else 0


# how far a hook prefix has met the cancellation selection; the bottom cell
# and the cell above it settle it, so _SELECTED and _REJECTED are final
_START, _SELECTED, _PENDING, _REJECTED = range(4)


def head_class_sums(shape, graph: LabeledGraph, pendants) -> dict:
    """Group the SRH G-tabloids of ``shape`` by head part and return
    ``{fragments: [signed selected sum, selected count, class size]}``.

    A head part is its tuple of ``(cells, vertices)`` fragments, one per
    hook with a cell in the head rows, bottom hook first.  Every class of a
    call shares the head rows, the parts of ``shape`` above 1, so the
    fragments alone tell two classes apart.  A fragment does not record
    whether its hook continues across the head/tail boundary, so two heads
    with the same cells and filling are one class either way.

    A tabloid is selected when its bottom cell holds a pendant not adjacent
    to the vertex in the cell above it.  The shape must end in two parts
    equal to 1 and have the graph's vertex count as its size, and the graph
    at most ``MAX_TABLOID_VERTICES`` vertices; each is checked before any
    work, and ``ValueError`` raised.  On a generalized net each hook, a
    stable set, holds at most one vertex of the clique body, so the
    selection needs no rule on body vertices.

    Hook prefixes are peeled forward and summed per selection status by
    (subdiagram, remaining bitmask, head part of the crossing hook).  The
    tail is one column, so at most one hook crosses into the head, and the
    hooks below it add nothing to the head part: their prefixes meet in few
    states.  Once the tail is placed, the head rows left are filled in every
    way from a memo on (subdiagram, remaining bitmask), and each filling
    completes the head key.  A hook's cells are built only where it puts
    cells in the head, once per (subdiagram, top row) per call.
    """
    _check_route_size(graph)
    shape = check_partition(shape)
    if shape[-2:] != (1, 1):
        raise ValueError("the shape must end in two parts equal to 1")
    shape = check_shape(shape, graph.n)
    adj = graph.adj
    stable = stable_sets(graph)
    h = _head_rows(shape)
    pend = vertex_mask(pendants)
    full = (1 << graph.n) - 1
    hook_cells = lru_cache(maxsize=None)(_hook_cells)

    def step(status, group, length, rem):
        # the status after a hook that puts ``group`` in the diagram, peeled
        # from a state with ``rem`` remaining
        if status in (_SELECTED, _REJECTED):
            return status
        least = group & -group
        if status == _START:
            if not least & pend:
                return _REJECTED
            return _PENDING if length == 1 else _SELECTED
        # a pending bottom vertex is the only one taken so far
        return _REJECTED if adj[(full ^ rem).bit_length()] & least else _SELECTED

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
        for top, length, sign, reduced in bottom_hooks(current):
            cells = hook_cells(current, top)
            for group in stable[length]:
                if group & ~rem:
                    continue
                frag = (cells, mask_labels(group))
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
            for top, length, sign, reduced in bottom_hooks(current):
                j = _tail_cells(current, top, h)
                head_cells = hook_cells(current, top)[j:] if j < length else ()
                for group in stable[length]:
                    if group & ~rem:
                        continue
                    # a state with tail rows left has no head part yet
                    crossing = ((head_cells, mask_labels(group)[j:]),) if head_cells else ()
                    after = by[size - length].setdefault((reduced, rem ^ group, crossing), {})
                    for status, (count, signed) in statuses.items():
                        acc = after.setdefault(step(status, group, length, rem), [0, 0])
                        acc[0] += count
                        acc[1] += sign * signed
        by[size] = None
    return groups
