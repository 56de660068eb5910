"""Semistandard tableau counting and monomial/Schur basis conversion.

The Kostka numbers computed here back the "oracle" route for Schur
coefficients.  They come from Pieri rows: the shapes of each weight are
grown one weight entry at a time by horizontal strips, with no reference
to rim hooks, so the oracle's Kostka matrix stays apart from the grouped
route's signed rim hook tabloids.  The table is kept by columns, one per
weight, and degrees above ``MAX_ORACLE_VERTICES`` are refused.
"""

from __future__ import annotations

from functools import lru_cache

from .coeffvec import MONOMIAL, SCHUR, CoefficientVector
from .partitions import Partition, partitions_of

# A Kostka table holds up to p(n)^2 entries: the oracle on GN(11,11), 22
# vertices, took 6.5 s at 161 MB peak RSS on a 2-vCPU host.
MAX_ORACLE_VERTICES = 22


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


def _check_degree(degree: int) -> None:
    if degree > MAX_ORACLE_VERTICES:
        raise ValueError(f"{degree} vertices exceed the cap of {MAX_ORACLE_VERTICES} on the oracle route")


@lru_cache(maxsize=1)
def kostka_matrix(degree: int) -> dict[Partition, dict[Partition, int]]:
    """All nonzero Kostka numbers of one degree as ``{weight: {shape: K}}``.

    Pieri rows: the cells holding entries 1..k of an SSYT form a shape, and
    the entries k + 1 form a horizontal strip on it.  So the SSYT of weight
    (mu_1, ..., mu_k) by shape come from those of (mu_1, ..., mu_{k-1}) by
    adding every horizontal strip of mu_k cells.  Weights share prefixes,
    so the counts of each prefix are grown once in the call; a whole
    weight's counts are its column, in the order of ``partitions_of``.
    Only the last degree's table is kept, so a process holds one table at
    a time; callers that go through degrees in order rebuild none.  Above
    ``MAX_ORACLE_VERTICES``, ``ValueError`` before any work.
    """
    _check_degree(degree)
    # grown[prefix]: SSYT counts by shape for the weight prefix
    grown: dict[Partition, dict[Partition, int]] = {(): {(): 1}}
    out = {}
    for mu in partitions_of(degree):
        for k in range(1, len(mu) + 1):
            prefix = mu[:k]
            if prefix not in grown:
                grown[prefix] = _pieri_row(grown[mu[: k - 1]], mu[k - 1])
        out[mu] = grown[mu]
    return out


def monomial_to_schur(vec: CoefficientVector) -> CoefficientVector:
    """Invert the unitriangular Kostka system by back-substitution.

    K(lam, mu) = 0 unless lam = mu or lam comes first in ``partitions_of``,
    so in that order w[mu] = vec[mu] - sum of w[lam] K(lam, mu) over the
    nonzero entries of column mu alone, where w[mu] is still unset.  No
    division, so exact for any integer input.  Above
    ``MAX_ORACLE_VERTICES``, ``ValueError`` before any table is built.
    """
    if vec.basis != MONOMIAL:
        raise ValueError("expected a monomial-basis vector")
    n = vec.degree()
    if n is None:
        return CoefficientVector(SCHUR, {})
    w: dict[Partition, int] = {}
    for mu, column in kostka_matrix(n).items():
        val = vec[mu] - sum(w.get(lam, 0) * k for lam, k in column.items())
        if val:
            w[mu] = val
    return CoefficientVector(SCHUR, w)
