"""Tabloid enumerators that only the tests use.

``srh_tabloids`` lists the special rim hook tabloids one by one; the tests
compare the signed content table against it and read the golden cases from
it.  ``tabloids_with_bottom_vertex`` picks out the bottom-cell classes that
the recurrences split on.
"""

from chromatic_schur.partitions import Partition, check_partition
from chromatic_schur.tabloids import RimHook, SrhTabloid, bottom_hook_choices, srh_g_tabloids


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


def tabloids_with_bottom_vertex(shape, graph, vertex: int):
    """Tabloids whose bottom-left cell holds ``vertex``; the shape must end
    in a part equal to 1."""
    shape = check_partition(shape)
    if not shape or shape[-1] != 1:
        raise ValueError("bottom-vertex filtering needs a shape ending in 1")
    for t in srh_g_tabloids(shape, graph):
        if t.fills[0][0] == vertex:
            yield t
