"""A Schur expansion that shares no code with any route: power sums and
Murnaghan-Nakayama.

Stanley's subset expansion (Adv. Math. 111, 1995, Thm 2.6) gives
X_G = sum over edge sets S of (-1)^|S| p_lambda(S), with lambda(S) the
component sizes of the spanning subgraph (V, S).  Grouping S by its
components, X_G = sum over set partitions {B_1, ..., B_k} of V of
prod c(B_i) p_(|B_1|, ..., |B_k|), where c(B) is the signed count of the
connected spanning edge sets of G[B].  Then p_rho = sum of chi^lam(rho) s_lam.
Everything below reads only the vertex count and the edge list, and costs
about 3^n / 2 steps, so it is for small graphs.
"""

from functools import lru_cache


def _partitions(n, most=None):
    if not n:
        yield ()
        return
    for first in range(min(n, most or n), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _submasks_with_low_bit(mask):
    """Every submask of ``mask`` that holds its lowest bit, ``mask`` last."""
    low = mask & -mask
    rest = mask ^ low
    sub = rest
    while True:
        yield sub | low
        if not sub:
            return
        sub = (sub - 1) & rest


def _connected_signs(n, edges):
    """c[B] for every vertex bitmask B.  Sort the edge sets S of G[B] by T,
    the component of B's lowest vertex under S: the rest of S is any edge
    set of G[B - T].  So the sum over S of (-1)^|S|, which is 1 when G[B]
    has no edge and 0 otherwise, equals the sum over T of c[T] times
    [G[B - T] has no edge], whose term T = B is c[B]."""
    masks = [(1 << (u - 1)) | (1 << (v - 1)) for u, v in edges]
    edgeless = [all(m & e != e for e in masks) for m in range(1 << n)]
    c = [0] * (1 << n)
    for b in range(1, 1 << n):
        total = int(edgeless[b])
        for t in _submasks_with_low_bit(b):
            if t != b and c[t] and edgeless[b ^ t]:
                total -= c[t]
        c[b] = total
    return c


def power_sum_expansion(n, edges):
    """X_G in the power-sum basis, as ``{rho: coefficient}``, zeros absent."""
    c = _connected_signs(n, edges)

    @lru_cache(maxsize=None)
    def blocks(rest):
        # set partitions of the vertex mask ``rest``, the block of its
        # lowest vertex first, by the block-size multiset they give
        if not rest:
            return {(): 1}
        out = {}
        for t in _submasks_with_low_bit(rest):
            if c[t]:
                size = bin(t).count("1")
                for rho, k in blocks(rest ^ t).items():
                    key = tuple(sorted(rho + (size,), reverse=True))
                    out[key] = out.get(key, 0) + c[t] * k
        return out

    return {rho: k for rho, k in blocks((1 << n) - 1).items() if k}


@lru_cache(maxsize=None)
def character(beta, rho):
    """chi^lam(rho) by Murnaghan-Nakayama on the beta-set of lam: a border
    strip of length r moves one bead from b to b - r, onto an empty place,
    with sign (-1) to the number of beads strictly between."""
    if not rho:
        return 1
    r, rest = rho[0], rho[1:]
    total = 0
    for b in beta:
        if b >= r and b - r not in beta:
            sign = (-1) ** sum(1 for x in beta if b - r < x < b)
            total += sign * character(beta - {b} | {b - r}, rest)
    return total


def schur_by_power_sums(n, edges):
    """X_G in the Schur basis, as ``{lam: coefficient}``, zeros absent."""
    psum = power_sum_expansion(n, edges)
    out = {}
    for lam in _partitions(n):
        beta = frozenset(part + len(lam) - 1 - i for i, part in enumerate(lam))
        value = sum(k * character(beta, rho) for rho, k in psum.items())
        if value:
            out[lam] = value
    return out
