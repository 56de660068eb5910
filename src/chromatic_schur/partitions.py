"""Integer partitions.

Partitions are plain tuples of weakly decreasing positive integers; the
empty tuple is the empty partition.  Everything here is exact and hashable
so results can be cached freely.  ``UNDEFINED``, a bare ``object()`` equal
to no other value, stands for a partition or graph a recurrence cannot
build, such as a shape with too few trailing ones to strip; a term built
from it is zero rather than an error.  It is tested by identity, so it must
not cross a pickle, whose copy would be another object.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, NamedTuple

Partition = tuple[int, ...]

UNDEFINED = object()


def check_partition(parts: Iterable[int]) -> Partition:
    lam = tuple(int(p) for p in parts)
    if any(p < 1 for p in lam):
        raise ValueError(f"composition parts must be positive: {lam}")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError(f"partition parts must be weakly decreasing: {lam}")
    return lam


def check_shape(parts: Iterable[int], n: int) -> Partition:
    """The partition ``parts``, checked to partition ``n``, the vertex count
    of the graph it is read against."""
    lam = check_partition(parts)
    if sum(lam) != n:
        raise ValueError("partition size must equal the vertex count")
    return lam


def strip_trailing_ones(lam: Iterable[int], t: int):
    """Drop ``t`` trailing parts equal to 1, or UNDEFINED if there are fewer."""
    lam = check_partition(lam)
    if t < 0:
        raise ValueError("number of parts to strip must be nonnegative")
    if lam[len(lam) - t :] != (1,) * t:
        return UNDEFINED
    return lam[: len(lam) - t]


@lru_cache(maxsize=None)
def partitions_of(n: int, max_part: int | None = None) -> tuple[Partition, ...]:
    """All partitions of ``n``, largest part first (reverse lexicographic).

    This fixed order indexes the Kostka system and all report output.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return ((),)
    mx = n if max_part is None else min(max_part, n)
    out = []
    for first in range(mx, 0, -1):
        for rest in partitions_of(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


class PartitionTable(NamedTuple):
    parts: tuple[Partition, ...]
    ids: MappingProxyType
    insert: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=None)
def partition_table(n: int) -> PartitionTable:
    """The partitions of 0..n numbered by size, then in ``partitions_of``
    order: ``parts[i]`` is partition ``i`` and ``ids`` maps it back.

    ``insert[k][i]`` is the number of partition ``i`` with a part ``k``
    inserted, for every ``i`` of size at most n - k (``insert[0]`` is
    empty).  The numbering and each insertion row for n are prefixes of
    those for n + 1, so an id means the same partition in every table, and
    the table for n extends the one for n - 1 by the partitions of n.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return PartitionTable(((),), MappingProxyType({(): 0}), ((),))
    prev = partition_table(n - 1)
    parts = prev.parts + partitions_of(n)
    ids = dict(prev.ids)
    ids.update((mu, i) for i, mu in enumerate(partitions_of(n), len(prev.parts)))
    # row k gains the partitions of n - k, numbered right after those of
    # the sizes below
    insert = [()]
    for k in range(1, n + 1):
        row = []
        for mu in partitions_of(n - k):
            at = sum(1 for part in mu if part >= k)
            row.append(ids[mu[:at] + (k,) + mu[at:]])
        insert.append((prev.insert[k] if k < n else ()) + tuple(row))
    return PartitionTable(parts, MappingProxyType(ids), tuple(insert))
