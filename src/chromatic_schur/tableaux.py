"""Semistandard tableau counting and monomial/Schur basis conversion.

The Kostka numbers computed here back the "oracle" route for Schur
coefficients.  They come from the horizontal-strip recursion, with no
reference to rim hooks, so the oracle's Kostka matrix stays apart from the
grouped route's signed rim hook tabloids.
"""

from __future__ import annotations

from functools import lru_cache

from .coeffvec import MONOMIAL, SCHUR, CoefficientVector
from .partitions import Partition, check_partition, partitions_of


def kostka_number(shape, weight) -> int:
    """Count SSYT of ``shape`` using entry i exactly ``weight[i-1]`` times.

    Rows weakly increase left to right and columns strictly increase top to
    bottom.  Both arguments must be partitions of the same size.
    """
    shape = check_partition(shape)
    weight = check_partition(weight)
    if sum(shape) != sum(weight):
        raise ValueError("shape and weight must have equal size")
    return _kostka(shape, weight)


@lru_cache(maxsize=None)
def _kostka(shape: Partition, weight: Partition) -> int:
    # the cells holding the largest entry form a horizontal strip of
    # weight[-1] cells; strip it off and recurse on the rest of the weight
    if not weight:
        return 0 if shape else 1
    return sum(_kostka(nu, weight[:-1]) for nu in _strip_removals(shape, weight[-1]))


def _strip_removals(shape: Partition, size: int, row: int = 0):
    """Every nu with shape[i+1] <= nu[i] <= shape[i] for each row i from
    ``row`` on and ``size`` cells removed in all, as a partition tuple."""
    if row == len(shape):
        if not size:
            yield ()
        return
    below = shape[row + 1] if row + 1 < len(shape) else 0
    for keep in range(max(below, shape[row] - size), shape[row] + 1):
        for tail in _strip_removals(shape, size - shape[row] + keep, row + 1):
            yield (keep,) + tail if keep else tail


@lru_cache(maxsize=None)
def kostka_matrix(degree: int) -> dict[tuple[Partition, Partition], int]:
    """All nonzero Kostka numbers of one degree, keyed by (shape, weight).

    Built lazily on first basis conversion at that degree and kept for the
    life of the process.
    """
    order = partitions_of(degree)
    pairs = ((lam, mu) for lam in order for mu in order)
    return {pair: k for pair in pairs if (k := _kostka(*pair))}


def monomial_to_schur(vec: CoefficientVector) -> CoefficientVector:
    """Invert the unitriangular Kostka system by back-substitution.

    The diagonal is 1, so the result is produced without division and is
    exact for any integer input.
    """
    if vec.basis != MONOMIAL:
        raise ValueError("expected a monomial-basis vector")
    n = vec.degree()
    if n is None:
        return CoefficientVector(SCHUR, {})
    order = partitions_of(n)
    kostka = kostka_matrix(n)
    w: dict[Partition, int] = {}
    for j, mu in enumerate(order):
        val = vec[mu]
        for lam in order[:j]:
            c = w.get(lam)
            if c:
                val -= c * kostka.get((lam, mu), 0)
        if val:
            w[mu] = val
    return CoefficientVector(SCHUR, w)
