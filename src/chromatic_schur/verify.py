"""Batch verification suites.

Each suite replays one identity or structural claim over a swept range of
graphs and shapes, recording per-instance evidence.  A failure payload keeps
both sides of the identity and every sub-term, so a failing instance can be
reproduced from the report alone.

Instance evaluation functions are pure and take plain tuples or dicts, so
suites can fan out over worker processes; results are merged back in the
canonical instance order regardless of worker count.  The map forks its
workers itself, at most one per instance and per CPU this process may run
on, and deals the instances one at a time: of w workers, worker i takes
instances i, i + w, i + 2w, ..., so a suite whose cost rises along its
parameters is spread over every worker.  Each worker pickles its results,
or the exception it raised, down a pipe and leaves by ``os._exit``.  There
is no executor: importing ``concurrent.futures`` cost every process more
than all the command line's other imports together, though only ``--jobs``
above 1 forks, and importing it only to fork moved that cost into the
suites that fork.  Forking is safe because the package starts no thread.
A report's verdicts are read from its instance records, and a suite with a
cost budget keeps a skip record in place of each instance priced above it.
"""

from __future__ import annotations

import os
import sys
import time
from math import factorial

from .coefficients import f_coefficient, is_schur_positive, schur_expansion, xi
from .graphs import (
    BODY_ROLES,
    PENDANT_FIRST,
    PENDANT_LAST,
    PENDANT_ROLES,
    LabeledGraph,
    check_type_vertices,
    generalized_net,
    generalized_spider,
    star_graph,
    with_disjoint_path,
)
from .partitions import UNDEFINED, partitions_of, strip_trailing_ones
from .tabloids import head_class_sums, pendant_tail_counts

# Nominal per-instance cost classes, keyed by vertex count, used to gate
# expensive optional instances behind --budget-ms.  The table is fixed rather
# than measured, so identical invocations run identical instance sets, and a
# changed price changes which instances run.  The coefficient prices still date
# from the tabloid route, at two to three times its cost, and overprice the
# grouped route, which every gated coefficient instance runs.  The enumeration
# prices were set at about twice the cost of the head-group check's dynamic
# programme on GN(n/2, n/2) at (2,2,1^(n-4)) on a 2-core host: 0.1 s at 10
# vertices, 0.6-0.7 s at 12, 4.2-4.6 s at 14 and 36-38 s at 16.  Heads with
# more rows cost more, since every head class becomes one reported instance.
COEFFICIENT_COST_MS = {9: 1_000, 10: 3_000, 11: 10_000, 12: 30_000, 13: 120_000}
ENUMERATION_COST_MS = {11: 1_000, 12: 2_000, 13: 5_000, 14: 10_000, 15: 30_000, 16: 80_000}
DEFAULT_BUDGET_MS = 30_000


def nominal_cost_ms(n_vertices: int, kind: str = "coefficient") -> int:
    if kind == "enumeration":
        if n_vertices <= 10:
            return 500
        return ENUMERATION_COST_MS.get(n_vertices, 100_000_000)
    if n_vertices <= 8:
        return 500
    return COEFFICIENT_COST_MS.get(n_vertices, 10_000_000)


class VerificationReport:
    """Structured outcome of one suite; its verdicts are read from the
    instance records."""

    __slots__ = ("statement_id", "instances", "wall_time_ms")

    def __init__(self, statement_id: str, instances: list, wall_time_ms: int):
        self.statement_id = statement_id
        self.instances = instances
        self.wall_time_ms = wall_time_ms

    @property
    def instances_checked(self) -> int:
        return sum(1 for inst in self.instances if inst["status"] != "skip")

    @property
    def failures(self) -> list:
        return [
            {"parameters": inst["params"], "lhs": inst.get("lhs"), "rhs": inst.get("rhs")}
            for inst in self.instances
            if inst["status"] == "fail"
        ]

    @property
    def passed(self) -> bool:
        return all(inst["status"] != "fail" for inst in self.instances)

    def to_json_dict(self, timing: bool = False) -> dict:
        return {
            "statement_id": self.statement_id,
            "instances_checked": self.instances_checked,
            "failures": self.failures,
            "wall_time_ms": self.wall_time_ms if timing else 0,
            "instances": self.instances,
        }


def _finish(statement_id: str, instances: list, started: float) -> VerificationReport:
    return VerificationReport(statement_id, instances, int((time.monotonic() - started) * 1000))


def _verdict(params: dict, lhs, rhs, **detail) -> dict:
    """The record of one equality check: it passes when both sides agree."""
    return {"params": params, "lhs": lhs, "rhs": rhs, **detail, "status": "pass" if lhs == rhs else "fail"}


def _usable_cpus() -> int:
    """The CPUs this process may run on, or all of them where the platform
    cannot say."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _answer(fn, params: list, write_fd: int):
    """In a forked worker: pickle ``fn`` over ``params``, or the exception it
    raised with its traceback, down ``write_fd``, and leave without running
    any of the parent's cleanup."""
    status = 1
    try:
        import pickle

        try:
            answer = (True, [fn(p) for p in params], None)
        except Exception as exc:
            import traceback

            answer = (False, exc, traceback.format_exc())
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(pickle.dumps(answer))
        status = 0
    finally:
        os._exit(status)


def _map_instances(fn, params: list, jobs: int) -> list:
    # never fork more workers than there are instances or CPUs this process
    # may run on
    workers = min(jobs, len(params), _usable_cpus())
    if workers < 2 or not hasattr(os, "fork"):
        return [fn(p) for p in params]
    import pickle  # only a call that forks pays for it

    # a worker must not write out what the parent had buffered
    sys.stdout.flush()
    sys.stderr.flush()
    results = [None] * len(params)
    children = []  # (pid, read end of its pipe, its worker number), until reaped
    try:
        for w in range(workers):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                _answer(fn, params[w::workers], write_fd)
            os.close(write_fd)
            children.append((pid, os.fdopen(read_fd, "rb"), w))
        while children:
            pid, pipe, w = children[0]
            with pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            del children[0]
            try:
                ok, payload, remote = pickle.loads(data)
            except (EOFError, pickle.UnpicklingError):
                code = os.waitstatus_to_exitcode(status)
                raise RuntimeError(f"suite worker {pid} exited with status {code} without answering") from None
            if not ok:
                raise payload from RuntimeError(f"in suite worker {pid}:\n{remote}")
            results[w::workers] = payload
    finally:
        if children:
            import signal

            for pid, pipe, _ in children:
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return results


def _map_within_budget(fn, priced: list, jobs: int, budget_ms: int) -> list:
    """Map ``fn`` over the args of each ``(nominal cost, report params, args)``
    triple priced within the budget; a budget skip record stands in place of
    each instance priced above it."""
    results = iter(_map_instances(fn, [args for cost, _, args in priced if cost <= budget_ms], jobs))
    return [
        next(results) if cost <= budget_ms else {"params": params, "status": "skip", "reason": "budget"}
        for cost, params, _ in priced
    ]


def _run(statement_id: str, fn, params: list, jobs: int) -> VerificationReport:
    started = time.monotonic()
    return _finish(statement_id, _map_instances(fn, params, jobs), started)


# ---------------------------------------------------------------------------
# net recurrence


def _net_recurrence_instance(args) -> dict:
    n, m, lam = args
    lhs = xi(lam, generalized_net(n, m, PENDANT_FIRST))
    s1 = strip_trailing_ones(lam, 1)
    s2 = strip_trailing_ones(lam, 2)
    one_less = generalized_net(n - 1, m - 1, PENDANT_FIRST)
    terms = {
        "anchor_bottom": m * xi(s1, with_disjoint_path(one_less, 1)),
        "buoy_bottom": (n - m) * xi(s1, generalized_net(n - 1, m, PENDANT_FIRST)),
        "pendant_anchor_pair": m * xi(s2, one_less),
    }
    return _verdict({"n": n, "m": m, "lambda": list(lam)}, lhs, sum(terms.values()), terms=terms)


def run_net_recurrence_suite(n_max: int, jobs: int = 1) -> VerificationReport:
    """Check the three-term bottom-cell recurrence for net Schur coefficients
    over 1 <= m <= n <= n_max and every shape ending in a part equal to 1."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    check_type_vertices(2 * n_max)  # GN(n_max, n_max)
    params = [
        (n, m, lam)
        for n in range(1, n_max + 1)
        for m in range(1, n + 1)
        for lam in partitions_of(n + m)
        if lam[-1] == 1
    ]
    return _run("net-recurrence", _net_recurrence_instance, params, jobs)


# ---------------------------------------------------------------------------
# spider recurrence


def _spider_recurrence_instance(args) -> dict:
    n, m, lam = args
    legs = (2,) + (1,) * (m - 1)
    legs_one_less = (2,) + (1,) * (m - 2)
    short_legs = (1,) * (m - 1)
    lhs = xi(lam, generalized_spider(n, legs))
    s1 = strip_trailing_ones(lam, 1)
    s2 = strip_trailing_ones(lam, 2)
    s3 = strip_trailing_ones(lam, 3)
    # One term per bottom-cell class.  The "inner_pendant_anchor_pair" class
    # (bottom cell holds the long leg's inner vertex, sitting directly below
    # its anchor; removing both isolates the leg's far end) is required for
    # the identity to balance: without it the right side falls short by
    # exactly this value on most shapes.
    one_less = generalized_spider(n - 1, legs_one_less)
    short = generalized_spider(n - 1, short_legs)
    terms = {
        "anchor_bottom": (m - 1) * xi(s1, with_disjoint_path(one_less, 1)),
        "buoy_bottom": (n - m) * xi(s1, generalized_spider(n - 1, legs)),
        "special_anchor_bottom": xi(s1, with_disjoint_path(short, 2)),
        "pendant_anchor_pair": (m - 1) * xi(s2, one_less),
        "inner_pendant_anchor_pair": xi(s2, with_disjoint_path(short, 1)),
        "special_path_triple": xi(s3, short),
    }
    return _verdict({"n": n, "m": m, "lambda": list(lam)}, lhs, sum(terms.values()), terms=terms)


def run_spider_recurrence_suite(n_max: int, jobs: int = 1) -> VerificationReport:
    """Check the six-term recurrence for spiders with one length-2 leg, over
    3 <= n <= n_max, 2 <= m <= n, and shapes with two trailing parts 1."""
    if n_max < 3:
        raise ValueError("n_max must be at least 3")
    check_type_vertices(2 * n_max + 1)  # GS(n_max, (2, 1^(n_max - 1)))
    params = [
        (n, m, lam)
        for n in range(3, n_max + 1)
        for m in range(2, n + 1)
        for lam in partitions_of(n + m + 1)
        if len(lam) >= 2 and lam[-1] == 1 and lam[-2] == 1
    ]
    return _run("spider-recurrence", _spider_recurrence_instance, params, jobs)


# ---------------------------------------------------------------------------
# structure: tailless support and all-pendant tails


def _structure_instance(args) -> dict:
    kind, n, m, labeling, lam = args
    if kind == "support":
        # the coefficient must vanish unless this is the permitted rectangle;
        # it does not depend on the labels, so the default net serves
        coeff = xi(lam, generalized_net(n, m))
        allowed = n == m and lam == (2,) * n
        params = {"kind": "tailless-support", "n": n, "m": m, "lambda": list(lam)}
        return _verdict(params, coeff, coeff if allowed else 0)
    # the tails do depend on the labels, so nets are checked in both labelings
    graph = generalized_spider(n, (2,) + (1,) * (m - 1)) if kind == "spider" else generalized_net(n, m, labeling)
    total, offending = pendant_tail_counts(lam, graph, graph.labels_with_role(*PENDANT_ROLES))
    params = {"kind": f"{kind}-pendant-tail", "n": n, "m": m, "labeling": labeling, "lambda": list(lam)}
    return _verdict(params, offending, 0, tabloids=total)


def run_structure_suite(bound: int, jobs: int = 1) -> VerificationReport:
    """Two structural claims at once.

    (a) A net coefficient at a shape with no part 1 vanishes unless the net
        is all-anchors and the shape is the full two-column rectangle.
    (b) Under the applicable hypotheses (a trailing 1 for nets; two trailing
        1s for one-long-leg spiders) no tabloid tail consists of pendants
        only.

    Claim (a) runs on nets up to ``bound`` vertices.  Claim (b) runs on nets
    up to ``min(bound, 6)`` vertices and on spiders up to ``min(bound, 7)``,
    so it stops at 6 and 7 vertices whatever ``bound`` is.
    """
    if bound < 2:
        raise ValueError("bound must be at least 2")
    check_type_vertices(bound)
    support_params = [
        ("support", n, m, None, lam)
        for n in range(1, bound + 1)
        for m in range(0, n + 1)
        if n + m <= bound
        for lam in partitions_of(n + m)
        if lam and lam[-1] >= 2
    ]
    tail_bound = min(bound, 6)
    tail_params = [
        ("net", n, m, labeling, lam)
        for n in range(1, tail_bound + 1)
        for m in range(1, n + 1)
        if n + m <= tail_bound
        for labeling in (PENDANT_FIRST, PENDANT_LAST)
        for lam in partitions_of(n + m)
        if lam[-1] == 1
    ]
    spider_tail_params = [
        ("spider", n, m, PENDANT_FIRST, lam)
        for n in range(3, bound + 1)
        for m in range(1, n + 1)
        if n + m + 1 <= min(bound, 7)
        for lam in partitions_of(n + m + 1)
        if len(lam) >= 2 and lam[-1] == 1 and lam[-2] == 1
    ]
    return _run("net-structure", _structure_instance, support_params + tail_params + spider_tail_params, jobs)


# ---------------------------------------------------------------------------
# singleton removal


def _singleton_removal_instance(args) -> dict:
    c, d = args
    net = generalized_net(c + d, c - 1)
    lhs = xi((2,) * c + (1,) * d, with_disjoint_path(net, 1))
    rhs = xi((2,) * (c - 1) + (1,) * (d + 1), net)
    return _verdict({"C": c, "D": d}, lhs, rhs)


def run_singleton_removal_suite(bound: int, jobs: int = 1) -> VerificationReport:
    """Adding an isolated vertex to a net with one missing pendant trades a
    row of two for two rows of one: coefficients at (2^C,1^D) of the extended
    graph equal those at (2^(C-1),1^(D+1)) of the bare net, for C+D <= bound."""
    if bound < 1:
        raise ValueError("bound must be at least 1")
    check_type_vertices(2 * bound)  # GN(bound, bound - 1) + P1
    params = [(c, d) for c in range(1, bound + 1) for d in range(0, bound - c + 1)]
    return _run("singleton-removal", _singleton_removal_instance, params, jobs)


# ---------------------------------------------------------------------------
# head-group cancellation


def run_cancellation_check(
    graph: LabeledGraph,
    lam,
    pendant_set,
    body_set,
    label: str | None = None,
) -> VerificationReport:
    """Group the tabloids of ``lam`` by head and check signed cancellation.

    Within each head class, the tabloids whose bottom cell holds a pendant
    not adjacent to the vertex directly above it must cancel in sign.  The
    classes come from ``tabloids.head_class_sums``, keyed by their head
    fragments, and are reported in the order of those keys.  That call
    checks the shape (it must end in (1, 1) and have the graph's size)
    before any work, so no shape check is made here.  Every class is
    judged: each hook that reaches the h head rows holds its own
    first-column head cell, so at most h hooks do, each with at most one
    body vertex, and 2h + 2 <= b + p <= 2b gives h < b, so the tail pool
    keeps a body vertex.

    The claim's hypothesis is the paper's object: ``graph`` is the
    pendant-first generalized net GN(b, p), with b = len(body_set) and
    p = len(pendant_set), and the two sets are its pendant and body role
    labels.  Any other input raises ``ValueError`` before any work.  Swept
    at every shape ending in (1, 1), every pendant-first net up to 10
    vertices passes (329 instances), and so do 210 random clique bodies
    whose pendants carry the lowest labels and hang on random anchors.
    Outside it the claim fails: 35 of the 92 pendant-last instances with a
    pendant up to 8 vertices, and 17 of 60 random non-clique bodies with the
    pendants lowest.
    """
    lam = tuple(lam)
    pendant_set, body_set = frozenset(pendant_set), frozenset(body_set)
    net = generalized_net(len(body_set), len(pendant_set), PENDANT_FIRST)
    if net is UNDEFINED or (graph.key(), pendant_set, body_set) != (
        net.key(), frozenset(net.labels_with_role(*PENDANT_ROLES)), frozenset(net.labels_with_role(*BODY_ROLES))
    ):
        raise ValueError("cancellation needs a pendant-first generalized net, its pendants and its body as the sets")

    started = time.monotonic()
    groups = head_class_sums(lam, graph, pendant_set)
    instances = []
    for fragments in sorted(groups):
        lhs, selected, total = groups[fragments]
        in_head = {v for _, verts in fragments for v in verts}
        params = {
            "graph": label or repr(graph),
            "lambda": list(lam),
            "head": {
                "row_lengths": [p for p in lam if p > 1],
                "fragments": [
                    {"cells": [list(c) for c in cells], "vertices": list(verts)} for cells, verts in fragments
                ],
            },
            "tail_pool_body": sorted(body_set - in_head),
            "tail_pool_pendants": sorted(pendant_set - in_head),
        }
        instances.append(_verdict(params, lhs, 0, selected=selected, head_class_size=total))
    return _finish("head-group-cancellation", instances, started)


# ---------------------------------------------------------------------------
# positivity sweep


def _positivity_instance(params) -> dict:
    kind = params["kind"]
    if kind == "claw-control":
        graph = star_graph(3)
        positive, witness = is_schur_positive(graph)
        value = schur_expansion(graph)[witness] if witness else 0
        ok = (not positive) and witness == (2, 2) and value == -1
        return {
            "params": params,
            "lhs": value,
            "rhs": -1,
            "witness": list(witness) if witness else None,
            "status": "pass" if ok else "fail",
        }
    n, m = params["n"], params["m"]
    if kind == "net":
        graph = generalized_net(n, m, PENDANT_FIRST)
        positive, witness = is_schur_positive(graph)
        # a witness entry is negative, so only a positive net balances
        lhs = 0 if positive else schur_expansion(graph)[witness]
        return _verdict(params, lhs, 0, witness=list(witness) if witness else None)
    expansion = schur_expansion(generalized_spider(n, (2,) + (1,) * (m - 1)))
    least = expansion.min_entry()
    return {"params": params, "lhs": least, "rhs": 0, "negative": least < 0, "status": "report"}


def run_positivity_sweep(n_max: int, jobs: int = 1, budget_ms: int = DEFAULT_BUDGET_MS) -> VerificationReport:
    """Every net with up to n_max body vertices must expand nonnegatively.

    The claw is run as a negative control (it must report the witness (2,2)
    with value -1).  One-long-leg spider expansions are computed and
    reported without assertion; those beyond the cost budget are skipped
    with a budget marker.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    nets = [{"kind": "net", "n": n, "m": m} for n in range(1, n_max + 1) for m in range(0, n + 1)]
    claw = {"kind": "claw-control", "expected_witness": [2, 2], "expected_value": -1}
    spiders = [{"kind": "spider-report", "n": n, "m": m} for n in range(3, n_max + 1) for m in range(1, n + 1)]
    # nets and the control are never gated; a spider has n + m + 1 vertices
    priced = [(0, p, p) for p in nets + [claw]]
    priced += [(nominal_cost_ms(p["n"] + p["m"] + 1), p, p) for p in spiders]
    spiders_run = [p["n"] + p["m"] + 1 for cost, p, _ in priced if p["kind"] == "spider-report" and cost <= budget_ms]
    check_type_vertices(max([2 * n_max, *spiders_run]))  # GN(n_max, n_max) or a spider run
    started = time.monotonic()
    instances = _map_within_budget(_positivity_instance, priced, jobs, budget_ms)
    return _finish("net-positivity", instances, started)


# ---------------------------------------------------------------------------
# f table


def _f_value_instance(args) -> dict:
    c, d = args
    return {
        "params": {"kind": "value", "C": c, "D": d},
        "value": f_coefficient(c, d),
        "status": "report",
    }


def run_f_table_suite(bound: int, jobs: int = 1) -> VerificationReport:
    """Tabulate f(C,D) over C+D <= bound and check its three identities:
    the two-term recurrence, the even/odd factorial form on the D = 0 axis,
    and the plain factorial form on the C = 0 axis."""
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    check_type_vertices(2 * bound)  # GN(bound, bound) for f(bound, 0)
    value_params = [(c, d) for total in range(bound + 1) for c in range(total, -1, -1) for d in (total - c,)]
    started = time.monotonic()
    instances = _map_instances(_f_value_instance, value_params, jobs)
    f = {(inst["params"]["C"], inst["params"]["D"]): inst["value"] for inst in instances}
    instances += [
        _verdict({"kind": "recurrence", "C": c, "D": d}, f[c, d], c * f[c - 1, d] + d * f[c, d - 1])
        for c, d in value_params
        if c >= 1 and d >= 1
    ]
    instances += [
        _verdict({"kind": "even-axis", "C": n, "D": 0}, f[n, 0], factorial(n) if n % 2 == 0 else 0)
        for n in range(1, bound + 1)
    ]
    instances += [
        _verdict({"kind": "factorial-axis", "C": 0, "D": d}, f[0, d], factorial(d)) for d in range(bound + 1)
    ]
    return _finish("f-table", instances, started)


# ---------------------------------------------------------------------------
# open coefficient families


def _open_families(n: int):
    long_legs = (2,) + (1,) * (n - 1)
    short_legs = (2,) + (1,) * (n - 2)
    return (
        ("one-wide-row", (3,) + (2,) * (n - 1), n, long_legs),
        ("single-tail-cell", (2,) * n + (1,), n, long_legs),
        ("tailless", (2,) * n, n, short_legs),
    )


def _open_coefficient_instance(args) -> dict:
    params, lam, body, legs = args
    value = xi(lam, generalized_spider(body, legs))
    return {"params": params, "value": value, "negative": value < 0, "status": "report"}


def run_open_coefficient_report(
    n_max: int, jobs: int = 1, budget_ms: int = DEFAULT_BUDGET_MS
) -> VerificationReport:
    """Values of the three spider coefficient families that the recurrence
    cannot reach, reported with sign flags and never asserted.  Instances
    beyond the cost budget are skipped with a budget marker."""
    if n_max < 3:
        raise ValueError("n_max must be at least 3")
    priced = []
    for n in range(3, n_max + 1):
        for family, lam, body, legs in _open_families(n):
            params = {"family": family, "n": n, "lambda": list(lam), "graph": f"GS({body},{list(legs)})"}
            priced.append((nominal_cost_ms(body + sum(legs)), params, (params, lam, body, legs)))
    spiders_run = [body + sum(legs) for cost, _, (_, _, body, legs) in priced if cost <= budget_ms]
    check_type_vertices(max(spiders_run, default=0))
    started = time.monotonic()
    instances = _map_within_budget(_open_coefficient_instance, priced, jobs, budget_ms)
    return _finish("open-spider-coefficients", instances, started)
