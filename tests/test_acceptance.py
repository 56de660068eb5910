"""Acceptance battery.

Each test replays one headline criterion end to end and prints a single
PASS/FAIL line (run with ``pytest -s`` to see them).  Everything asserted
here is exact integer equality; there are no tolerances to tune.
"""

import random
import time
from math import factorial

from chromatic_schur.coefficients import (
    GROUPED,
    ORACLE,
    TABLOID,
    f_coefficient,
    schur_coefficient,
)
from chromatic_schur.graphs import (
    BODY_ROLES,
    PENDANT_ROLES,
    connected_graphs,
    generalized_net,
    generalized_spider,
    path_graph,
    star_graph,
)
from chromatic_schur.partitions import partitions_of
from chromatic_schur.verify import (
    run_cancellation_check,
    run_net_recurrence_suite,
    run_positivity_sweep,
    run_singleton_removal_suite,
    run_spider_recurrence_suite,
    run_structure_suite,
)
from graph_helpers import random_graph, random_relabeling
from tabloid_helpers import srh_tabloids

SEED = 20260810


def _report(name: str, ok: bool, started: float, detail: str = ""):
    elapsed = time.monotonic() - started
    suffix = f" ({detail}, {elapsed:.1f}s)" if detail else f" ({elapsed:.1f}s)"
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"{name} failed: {detail}"


def test_criterion_01_golden_tabloids():
    started = time.monotonic()
    tabs = list(srh_tabloids((4, 2, 2)))
    contents = [t.content for t in tabs]
    expected = [(2, 2, 4), (2, 5, 1), (3, 1, 4), (3, 5), (6, 1, 1), (6, 2)]
    negatives = {t.content for t in tabs if t.sign == -1}
    ok = (
        len(tabs) == 6
        and sorted(contents) == sorted(expected)
        and negatives == {(2, 5, 1), (3, 1, 4), (6, 2)}
    )
    _report("01-golden-tabloids-(4,2,2)", ok, started, f"{len(tabs)} tabloids")


def test_criterion_02_f_table():
    started = time.monotonic()
    ok = True
    for n, expected in [(1, 0), (2, 2), (3, 0), (4, 24), (5, 0), (6, 720)]:
        ok &= f_coefficient(n, 0) == expected
    for d in range(0, 7):
        ok &= f_coefficient(0, d) == factorial(d)
    checked = 0
    for c in range(1, 7):
        for d in range(1, 8 - c):
            checked += 1
            ok &= f_coefficient(c, d) == c * f_coefficient(c - 1, d) + d * f_coefficient(c, d - 1)
    _report("02-f-table", ok, started, f"axes + {checked} recurrence points")


def test_criterion_03_net_recurrence():
    started = time.monotonic()
    report = run_net_recurrence_suite(4)
    _report("03-net-recurrence", report.passed, started, f"{report.instances_checked} instances")


def test_criterion_04_singleton_removal():
    started = time.monotonic()
    report = run_singleton_removal_suite(5)
    _report("04-singleton-removal", report.passed, started, f"{report.instances_checked} instances")


def test_criterion_05_coefficient_support():
    started = time.monotonic()
    report = run_structure_suite(8)
    _report("05-coefficient-support", report.passed, started, f"{report.instances_checked} instances")


def test_criterion_06_spider_recurrence():
    started = time.monotonic()
    report = run_spider_recurrence_suite(3)
    ok = report.passed and {i["params"]["m"] for i in report.instances} == {2, 3}
    _report("06-spider-recurrence", ok, started, f"{report.instances_checked} instances")


def test_criterion_07_positivity():
    started = time.monotonic()
    report = run_positivity_sweep(4)
    nets = [i for i in report.instances if i["params"]["kind"] == "net"]
    control = [i for i in report.instances if i["params"]["kind"] == "claw-control"]
    ok = report.passed and len(nets) == 14 and len(control) == 1
    _report("07-net-positivity", ok, started, f"{len(nets)} nets + claw control")


def test_criterion_08_method_agreement():
    started = time.monotonic()
    graphs = []
    for n in range(1, 6):
        graphs += connected_graphs(n)
    rng = random.Random(SEED)
    graphs += [random_graph(6, rng) for _ in range(100)]
    checked = 0
    ok = True
    for graph in graphs:
        for lam in partitions_of(graph.n):
            a = schur_coefficient(graph, lam, TABLOID)
            b = schur_coefficient(graph, lam, GROUPED)
            c = schur_coefficient(graph, lam, ORACLE)
            checked += 1
            if not (a == b == c):
                ok = False
    _report(
        "08-method-agreement",
        ok,
        started,
        f"{len(graphs)} graphs, {checked} coefficients, 3 routes",
    )


def test_criterion_09_cancellation():
    started = time.monotonic()
    ok = True
    groups = 0
    for n, lam in [(3, (2, 1, 1, 1, 1)), (4, (2, 1, 1, 1, 1, 1, 1))]:
        graph = generalized_net(n, n, "pendant_first")
        report = run_cancellation_check(
            graph,
            lam,
            frozenset(graph.labels_with_role(*PENDANT_ROLES)),
            frozenset(graph.labels_with_role(*BODY_ROLES)),
            label=f"GN({n},{n})",
        )
        ok &= report.passed
        groups += report.instances_checked
    _report("09-head-group-cancellation", ok, started, f"{groups} head classes")


def test_criterion_10_label_invariance():
    started = time.monotonic()
    rng = random.Random(SEED)
    graphs = [generalized_net(n, m) for n in range(1, 4) for m in range(0, n + 1)]
    graphs += [generalized_spider(3, (2, 1)), star_graph(3), path_graph(4)]
    checked = 0
    ok = True
    for graph in graphs:
        baseline = {lam: schur_coefficient(graph, lam) for lam in partitions_of(graph.n)}
        for _ in range(5):
            relabeled = random_relabeling(graph, rng)
            for lam, value in baseline.items():
                checked += 1
                if schur_coefficient(relabeled, lam) != value:
                    ok = False
    _report("10-label-invariance", ok, started, f"{checked} coefficient comparisons")
