"""Semistandard tableau counting and monomial/Schur basis conversion.

The Kostka numbers computed here back the "oracle" route for Schur
coefficients.  They come from Pieri rows: the shapes of each weight are
grown one weight entry at a time by horizontal strips, with no reference
to rim hooks, so the oracle's Kostka matrix stays apart from the grouped
route's signed rim hook tabloids.
"""

from __future__ import annotations

from functools import lru_cache

from .coeffvec import MONOMIAL, SCHUR, CoefficientVector
from .partitions import Partition, check_partition, partitions_of


def kostka_number(shape, weight) -> int:
    """Count SSYT of ``shape`` using entry i exactly ``weight[i-1]`` times.

    Rows weakly increase left to right and columns strictly increase top to
    bottom.  Both arguments must be partitions of the same size.  Grown by
    the Pieri rows of ``weight`` alone, as ``kostka_matrix`` grows each
    weight, with nothing kept after the call.
    """
    shape = check_partition(shape)
    weight = check_partition(weight)
    if sum(shape) != sum(weight):
        raise ValueError("shape and weight must have equal size")
    counts = {(): 1}
    for part in weight:
        counts = _pieri_row(counts, part)
    return counts.get(shape, 0)


def _pieri_row(counts: dict[Partition, int], size: int) -> dict[Partition, int]:
    """The SSYT counts by shape after one more weight entry of ``size``
    cells: every horizontal strip of that size added to each shape."""
    out: dict[Partition, int] = {}
    for shape, c in counts.items():
        for nu in _add_strips(shape, size):
            out[nu] = out.get(nu, 0) + c
    return out


def _add_strips(shape: Partition, size: int, row: int = 0):
    """Every nu with shape[i] <= nu[i] <= shape[i-1] for each row i from
    ``row`` on (row 0 unbounded above, one new row allowed) and ``size``
    cells added in all: the horizontal strips of ``size`` cells on
    ``shape``, as partition tuples."""
    if not size:
        yield shape[row:]
        return
    if row == len(shape):
        # the new row lies under the last one and may not outgrow it
        if not row or size <= shape[row - 1]:
            yield (size,)
        return
    cap = shape[row - 1] - shape[row] if row else size
    for added in range(min(size, cap), -1, -1):
        for tail in _add_strips(shape, size - added, row + 1):
            yield (shape[row] + added,) + tail


@lru_cache(maxsize=None)
def kostka_matrix(degree: int) -> dict[tuple[Partition, Partition], int]:
    """All nonzero Kostka numbers of one degree, keyed by (shape, weight).

    Pieri rows: the cells holding entries 1..k of an SSYT form a shape, and
    the entries k + 1 form a horizontal strip on it.  So the SSYT of weight
    (mu_1, ..., mu_k) by shape come from those of (mu_1, ..., mu_{k-1}) by
    adding every horizontal strip of mu_k cells.  Weights share prefixes,
    so the counts of each prefix are kept for the call and grown once.
    Built lazily on first basis conversion at that degree and kept for the
    life of the process.
    """
    # grown[prefix]: SSYT counts by shape for the weight prefix
    grown: dict[Partition, dict[Partition, int]] = {(): {(): 1}}
    out = {}
    for mu in partitions_of(degree):
        for k in range(1, len(mu) + 1):
            prefix = mu[:k]
            if prefix not in grown:
                grown[prefix] = _pieri_row(grown[mu[: k - 1]], mu[k - 1])
        out.update(((lam, mu), c) for lam, c in grown[mu].items())
    return out


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
