"""Answer checks that share no code with the package.

Everything here is computed from definitions: partitions, the hook-length
and hook-content formulas, chromatic polynomials by a subset DP over stable
sets, graph families rebuilt from their descriptions, and the parameter
grids of the suites restated from their documented sweeps.  Nothing imports
``chromatic_schur``, so a fault in the package cannot hide itself here.

Each ``check_*`` function returns a ``Tally`` of operations attempted and
failed, with one message per failure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb, factorial


class WrongAnswer(ValueError):
    """An answer of the wrong shape: every operation it holds counts as wrong."""


def expect_len(items, count: int, what: str):
    if len(items) != count:
        raise WrongAnswer(f"{len(items)} {what}, expected {count}")
    return items


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0  # failed operations whose answer was wrong, not missing
    messages: list = field(default_factory=list)

    def check(self, ok: bool, message: str, wrong: bool = True) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.wrong += wrong
            self.messages.append(message)
        return ok

    def missing(self, count: int, message: str, wrong: bool = False) -> None:
        """Count ``count`` operations that produced no usable answer."""
        self.attempted += count
        self.failed += count
        self.wrong += count if wrong else 0
        self.messages.append(message)

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        self.messages += other.messages


# ---------------------------------------------------------------------------
# partitions and Schur function values


@lru_cache(maxsize=None)
def partitions(n: int, largest: int | None = None) -> tuple:
    if n == 0:
        return ((),)
    top = n if largest is None else min(n, largest)
    return tuple((a,) + rest for a in range(top, 0, -1) for rest in partitions(n - a, a))


def partition_count(n: int) -> int:
    return len(partitions(n)) if n >= 0 else 0


def _cells(lam):
    conj = [sum(1 for p in lam if p > j) for j in range(lam[0])] if lam else []
    for i, row in enumerate(lam):
        for j in range(row):
            yield i, j, (row - j) + (conj[j] - i) - 1  # hook length


def standard_tableaux(lam) -> int:
    """f^lam by the hook-length formula."""
    hooks = 1
    for _, _, h in _cells(lam):
        hooks *= h
    return factorial(sum(lam)) // hooks


def schur_at_ones(lam, k: int) -> int:
    """s_lam(1^k) by the hook-content formula."""
    num = den = 1
    for i, j, h in _cells(lam):
        num *= k + j - i
        den *= h
    return num // den


# ---------------------------------------------------------------------------
# graphs: (n, edges) with vertices 1..n


def net(n: int, m: int):
    """K_n with m pendants on distinct body vertices."""
    edges = list(itertools.combinations(range(1, n + 1), 2))
    edges += [(i, n + i) for i in range(1, m + 1)]
    return n + m, edges


def spider(n: int, legs):
    """K_n with disjoint paths of the given lengths hung on distinct body vertices."""
    edges = list(itertools.combinations(range(1, n + 1), 2))
    label = n
    for anchor, length in enumerate(legs, start=1):
        prev = anchor
        for _ in range(length):
            label += 1
            edges.append((prev, label))
            prev = label
    return label, edges


def path(k: int):
    return k, [(i, i + 1) for i in range(1, k)]


def adjacency_masks(n: int, edges) -> list:
    adj = [0] * n
    for u, v in edges:
        adj[u - 1] |= 1 << (v - 1)
        adj[v - 1] |= 1 << (u - 1)
    return adj


def is_connected(n: int, edges) -> bool:
    adj = adjacency_masks(n, edges)
    seen = frontier = 1
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        new = adj[low.bit_length() - 1] & ~seen
        seen |= new
        frontier |= new
    return seen == (1 << n) - 1


def canonical_form(n: int, edges) -> tuple:
    """Least sorted edge list over all relabelings (brute force, small n)."""
    return min(
        tuple(sorted(tuple(sorted((p[u - 1], p[v - 1]))) for u, v in edges))
        for p in itertools.permutations(range(1, n + 1))
    )


def stable_partition_counts(n: int, edges) -> list:
    """a[j] = number of partitions of the vertex set into j stable blocks."""
    adj = adjacency_masks(n, edges)
    full = (1 << n) - 1
    stable = [True] * (full + 1)
    for s in range(1, full + 1):
        low = s & -s
        stable[s] = stable[s ^ low] and not (adj[low.bit_length() - 1] & s)
    table = [None] * (full + 1)
    table[0] = [1]
    for s in range(1, full + 1):
        low = s & -s
        rest = s ^ low
        acc = [0] * (bin(s).count("1") + 1)
        sub = rest
        while True:
            if stable[sub | low]:
                for j, c in enumerate(table[rest ^ sub]):
                    acc[j + 1] += c
            if sub == 0:
                break
            sub = (sub - 1) & rest
        table[s] = acc
    return table[full]


def chromatic_values(n: int, edges, ks) -> dict:
    """chi_G(k) for each k: proper colourings with k colours."""
    a = stable_partition_counts(n, edges)
    out = {}
    for k in ks:
        total = 0
        for j, c in enumerate(a):
            falling = 1
            for i in range(j):
                falling *= k - i
            total += c * falling
        out[k] = total
    return out


def g_tabloid_count(shape, n: int, edges) -> int:
    """Number of special rim hook tabloids of ``shape`` whose hooks carry
    disjoint stable sets covering the vertices (unsigned)."""
    adj = adjacency_masks(n, edges)

    def stable_sets(avail: int, size: int):
        if size == 0:
            yield 0
            return
        if bin(avail).count("1") < size:
            return
        low = avail & -avail
        rest = avail ^ low
        for tail in stable_sets(rest & ~adj[low.bit_length() - 1], size - 1):
            yield low | tail
        yield from stable_sets(rest, size)

    @lru_cache(maxsize=None)
    def count(rows, remaining: int) -> int:
        if not rows:
            return 1
        total = 0
        for reduced in special_hook_removals(rows):
            size = sum(rows) - sum(reduced)
            for group in stable_sets(remaining, size):
                total += count(reduced, remaining ^ group)
        return total

    return count(tuple(shape), (1 << n) - 1)


def special_hook_removals(rows) -> list:
    """Shapes left by removing a special rim hook through the bottom-left cell.

    Such a hook runs along the rim from the bottom-left cell and must end at
    the last cell of some row ``top`` for a partition to remain; every row
    between ``top`` and the bottom then drops to one less than the row
    below it.
    """
    k = len(rows)
    out = []
    for top in range(k - 1, -1, -1):
        reduced = rows[:top] + tuple(rows[r + 1] - 1 for r in range(top, k - 1))
        out.append(tuple(p for p in reduced if p))
    return out


# ---------------------------------------------------------------------------
# suite parameter grids, restated from the suites' documented sweeps


def grid_net_rec(n_max: int) -> int:
    # 1 <= m <= n <= n_max, shapes of n+m ending in a part 1
    return sum(partition_count(n + m - 1) for n in range(1, n_max + 1) for m in range(1, n + 1))


def grid_spider_rec(n_max: int) -> int:
    # 3 <= n <= n_max, 2 <= m <= n, shapes of n+m+1 ending in two parts 1
    return sum(partition_count(n + m - 1) for n in range(3, n_max + 1) for m in range(2, n + 1))


def grid_structure(bound: int) -> int:
    support = sum(
        partition_count(n + m) - partition_count(n + m - 1)  # shapes with no part 1
        for n in range(1, bound + 1)
        for m in range(0, n + 1)
        if n + m <= bound
    )
    tail = min(bound, 6)
    net_tails = sum(
        2 * partition_count(n + m - 1)  # two labelings, shapes ending in 1
        for n in range(1, tail + 1)
        for m in range(1, n + 1)
        if n + m <= tail
    )
    spider_tails = sum(
        partition_count(n + m - 1)  # shapes of n+m+1 ending in two parts 1
        for n in range(3, bound + 1)
        for m in range(1, n + 1)
        if n + m + 1 <= min(bound, 7)
    )
    return support + net_tails + spider_tails


def grid_positivity(n_max: int) -> int:
    # nets 0 <= m <= n, the claw control, spiders 1 <= m <= n from n = 3
    return sum(n + 1 for n in range(1, n_max + 1)) + 1 + sum(n for n in range(3, n_max + 1))


def grid_f_table(bound: int) -> int:
    values = comb(bound + 2, 2)
    recurrence = comb(bound, 2)
    return values + recurrence + bound + (bound + 1)


def grid_open_coeffs(n_max: int) -> int:
    return 3 * max(0, n_max - 2)


# ---------------------------------------------------------------------------
# checks


def check_expansion(tally: Tally, label: str, coeffs: dict, graph, nonnegative: bool, chi: dict | None = None) -> None:
    """Hook-length sum, principal specialization and, for nets, nonnegativity.

    ``coeffs`` maps partitions (tuples) to integers; ``chi`` may hold the
    chromatic values already computed for ``graph``.
    """
    n, edges = graph
    if any(sum(lam) != n for lam in coeffs):
        tally.check(False, f"{label}: a partition does not have size {n}")
        return
    total = sum(c * standard_tableaux(lam) for lam, c in coeffs.items())
    tally.check(total == factorial(n), f"{label}: sum c*f^lam = {total}, want {n}!")
    ks = range(1, n + 1)
    chi = chi if chi is not None else chromatic_values(n, edges, ks)
    bad = [k for k in ks if sum(c * schur_at_ones(lam, k) for lam, c in coeffs.items()) != chi[k]]
    tally.check(not bad, f"{label}: principal specialization fails at k = {bad}")
    if nonnegative:
        tally.check(min(coeffs.values(), default=0) >= 0, f"{label}: negative coefficient in a net expansion")


def check_agreement(tally: Tally, label: str, by_route: dict) -> None:
    vectors = list(by_route.values())
    tally.check(all(v == vectors[0] for v in vectors[1:]), f"{label}: routes disagree")


CENSUS_6 = 112


def check_census(tally: Tally, graphs: list) -> None:
    """Connected graphs on 6 vertices: 112 classes (OEIS A001349)."""
    tally.check(len(graphs) == CENSUS_6, f"census has {len(graphs)} graphs, want {CENSUS_6}")
    ok = all(n == 6 and is_connected(n, edges) for n, edges in graphs)
    tally.check(ok, "census holds a graph that is not a connected 6-vertex graph")
    forms = {canonical_form(n, edges) for n, edges in graphs}
    tally.check(len(forms) == len(graphs), "census holds two isomorphic graphs")


def _instance_ok(inst: dict) -> bool:
    status = inst.get("status")
    if status == "report":
        return True
    if status != "pass" or inst.get("lhs") != inst.get("rhs"):
        return False
    terms = inst.get("terms")
    return terms is None or sum(terms.values()) == inst["rhs"]


def check_report(tally: Tally, label: str, report: dict, grid: int | None) -> None:
    """A suite report passes, skips nothing, covers its grid and every
    instance's recorded sides agree (recurrence sides recomputed from terms)."""
    instances = report.get("instances", [])
    tally.check(
        not report.get("failures") and all(i.get("status") != "skip" for i in instances),
        f"{label}: report failed or skipped an instance",
    )
    if grid is not None:
        got = report.get("instances_checked")
        tally.check(got == grid == len(instances), f"{label}: {got} instances checked, grid has {grid}")
    bad = [i["params"] for i in instances if not _instance_ok(i)]
    tally.check(not bad, f"{label}: instances disagree with themselves: {bad[:3]}")


def check_f_table(tally: Tally, report: dict) -> None:
    """Recurrence and both axes recomputed from the reported values."""
    values = {}
    for inst in report["instances"]:
        p = inst["params"]
        if p.get("kind") == "value":
            values[p["C"], p["D"]] = inst["value"]
    bound = max(c + d for c, d in values)
    ok = all(values.get((0, d)) == factorial(d) for d in range(bound + 1))
    ok &= all(values.get((c, 0)) == (factorial(c) if c % 2 == 0 else 0) for c in range(bound + 1))
    ok &= all(
        values[c, d] == c * values[c - 1, d] + d * values[c, d - 1]
        for c in range(1, bound + 1)
        for d in range(1, bound + 1 - c)
    )
    tally.check(ok, "f-table: values break a factorial axis or the recurrence")


def check_structure_tabloids(tally: Tally, report: dict) -> int:
    """Each pendant-tail instance walked every G-tabloid of its shape once."""
    walked = 0
    wrong = []
    counts = {}
    for inst in report["instances"]:
        if "tabloids" not in inst:
            continue
        p = inst["params"]
        n, m, lam = p["n"], p["m"], tuple(p["lambda"])
        key = (p["kind"], n, m, lam)  # the count does not depend on the labeling
        if key not in counts:
            graph = net(n, m) if p["kind"] == "net-pendant-tail" else spider(n, (2,) + (1,) * (m - 1))
            counts[key] = g_tabloid_count(lam, *graph)
        walked += inst["tabloids"]
        if inst["tabloids"] != counts[key]:
            wrong.append(p)
    tally.check(not wrong, f"structure: tabloid counts differ from the G-tabloids that exist: {wrong[:3]}")
    return walked


def check_cancel(tally: Tally, report: dict, graph, lam) -> int:
    """Head classes cover every G-tabloid of the shape exactly once."""
    covered = sum(i["head_class_size"] for i in report["instances"])
    want = g_tabloid_count(lam, *graph)
    heads = [repr(i["params"]["head"]) for i in report["instances"]]
    tally.check(
        covered == want and len(set(heads)) == len(heads),
        f"cancel: head classes cover {covered} tabloids, {want} exist",
    )
    return covered
