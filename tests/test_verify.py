import json
import os
import time

import pytest

from chromatic_schur import verify
from chromatic_schur.graphs import BODY_ROLES, PENDANT_ROLES, generalized_net
from chromatic_schur.partitions import UNDEFINED
from chromatic_schur.verify import (
    VerificationReport,
    run_cancellation_check,
    run_f_table_suite,
    run_net_recurrence_suite,
    run_open_coefficient_report,
    run_positivity_sweep,
    run_singleton_removal_suite,
    run_spider_recurrence_suite,
    run_structure_suite,
)


def _role_sets(graph):
    return (
        frozenset(graph.labels_with_role(*PENDANT_ROLES)),
        frozenset(graph.labels_with_role(*BODY_ROLES)),
    )


def test_net_recurrence_small():
    report = run_net_recurrence_suite(2)
    assert report.passed and report.instances_checked > 0
    by_params = {
        (i["params"]["n"], i["params"]["m"], tuple(i["params"]["lambda"])): i
        for i in report.instances
    }
    # oracle-checked instance: left side 1, right side 1*1 + 1*0 + 0
    inst = by_params[(2, 1, (2, 1))]
    assert inst["lhs"] == 1 and inst["rhs"] == 1
    assert inst["terms"] == {"anchor_bottom": 1, "buoy_bottom": 0, "pendant_anchor_pair": 0}


def test_net_recurrence_shape_census():
    report = run_net_recurrence_suite(4)
    assert report.passed
    shapes_4_2 = [
        i for i in report.instances if i["params"]["n"] == 4 and i["params"]["m"] == 2
    ]
    assert len(shapes_4_2) == 7  # partitions of 6 containing a part 1
    # shapes without a second trailing 1 must have a vanishing pair term
    for inst in report.instances:
        lam = tuple(inst["params"]["lambda"])
        if len(lam) < 2 or lam[-2] != 1:
            assert inst["terms"]["pendant_anchor_pair"] == 0


def test_spider_recurrence_examples():
    report = run_spider_recurrence_suite(3)
    assert report.passed and report.instances_checked > 0
    keys = {
        (i["params"]["n"], i["params"]["m"], tuple(i["params"]["lambda"]))
        for i in report.instances
    }
    assert (3, 2, (2, 2, 1, 1)) in keys
    assert (3, 2, (4, 1, 1)) in keys
    # shapes without two trailing ones are excluded from the sweep
    assert all(lam[-1] == 1 and lam[-2] == 1 for _, _, lam in keys)


def test_structure_suite_permits_only_the_rectangle():
    report = run_structure_suite(6)
    assert report.passed
    support = [i for i in report.instances if i["params"]["kind"] == "tailless-support"]
    nonzero = [i for i in support if i["lhs"] != 0]
    assert nonzero, "the all-anchor rectangle cases must appear"
    for inst in nonzero:
        assert inst["params"]["n"] == inst["params"]["m"]
        n = inst["params"]["n"]
        assert tuple(inst["params"]["lambda"]) == (2,) * n
    by = {
        (i["params"]["n"], i["params"]["m"], tuple(i["params"]["lambda"])): i["lhs"]
        for i in support
    }
    assert by[(2, 2, (2, 2))] == 2  # the permitted exception


def test_singleton_suite():
    report = run_singleton_removal_suite(4)
    assert report.passed and report.instances_checked == 10


def test_cancellation_scaled_instance():
    graph = generalized_net(3, 3, "pendant_first")
    pendants, body = _role_sets(graph)
    report = run_cancellation_check(graph, (2, 1, 1, 1, 1), pendants, body, label="GN(3,3)")
    assert report.passed and report.instances_checked > 0
    assert all(i["lhs"] == 0 for i in report.instances)
    assert all(0 <= i["selected"] <= i["head_class_size"] for i in report.instances)
    # the cancelling subset is a proper subset: head classes also hold
    # tabloids excluded by the bottom-cell condition
    assert any(i["selected"] < i["head_class_size"] for i in report.instances)


def test_cancellation_validates_arguments():
    graph = generalized_net(3, 3, "pendant_first")
    pendants, body = _role_sets(graph)
    with pytest.raises(ValueError):
        run_cancellation_check(graph, (2, 2), pendants, body)
    with pytest.raises(ValueError):
        run_cancellation_check(graph, (2, 1, 1, 1, 1), body, pendants)
    with pytest.raises(ValueError):
        run_cancellation_check(graph, (2, 1, 1, 1, 1), pendants | {6}, body)
    with pytest.raises(ValueError):
        run_cancellation_check(graph, (2, 1, 1), pendants, body)


def test_positivity_sweep_with_claw_control():
    report = run_positivity_sweep(3)
    assert report.passed
    control = [i for i in report.instances if i["params"]["kind"] == "claw-control"]
    assert len(control) == 1 and control[0]["witness"] == [2, 2] and control[0]["lhs"] == -1
    nets = [i for i in report.instances if i["params"]["kind"] == "net"]
    assert len(nets) == 9  # (n,m) with 0 <= m <= n <= 3


def test_f_table_suite():
    report = run_f_table_suite(4)
    assert report.passed
    values = {
        (i["params"]["C"], i["params"]["D"]): i["value"]
        for i in report.instances
        if i["params"]["kind"] == "value"
    }
    assert values[2, 0] == 2 and values[4, 0] == 24 and values[3, 0] == 0
    assert values[0, 4] == 24 and values[1, 1] == 1


def test_open_coefficient_values_double_routed():
    """The three reported families at n = 3, frozen after computing them by
    both the tabloid route and the Kostka-inversion oracle."""
    from chromatic_schur.coefficients import ORACLE, TABLOID, schur_coefficient
    from chromatic_schur.graphs import generalized_spider

    expected = {
        "one-wide-row": ((3, 2, 2), (2, 1, 1), 10),
        "single-tail-cell": ((2, 2, 2, 1), (2, 1, 1), 36),
        "tailless": ((2, 2, 2), (2, 1), 8),
    }
    report = run_open_coefficient_report(3)
    by_family = {i["params"]["family"]: i for i in report.instances}
    for family, (lam, legs, value) in expected.items():
        graph = generalized_spider(3, legs)
        assert schur_coefficient(graph, lam, TABLOID) == value
        assert schur_coefficient(graph, lam, ORACLE) == value
        assert by_family[family]["value"] == value
        assert by_family[family]["negative"] is False


def test_open_coefficients_report_only():
    report = run_open_coefficient_report(4)
    assert report.passed  # report-only suite never fails
    families = ["one-wide-row", "single-tail-cell", "tailless"]
    assert [(i["params"]["n"], i["params"]["family"]) for i in report.instances] == [
        (n, family) for n in (3, 4) for family in families
    ]
    assert all(i["status"] == "report" for i in report.instances)
    assert report.instances_checked == 6


def test_report_contract():
    report = run_net_recurrence_suite(1)
    assert isinstance(report, VerificationReport)
    assert report.instances_checked > 0
    assert report.passed == (not report.failures)
    payload = report.to_json_dict()
    assert set(payload) >= {"statement_id", "instances_checked", "failures", "wall_time_ms"}
    assert payload["wall_time_ms"] == 0  # timing suppressed by default
    assert report.to_json_dict(timing=True)["wall_time_ms"] >= 0
    json.dumps(payload)  # must be serializable


def test_parallel_jobs_identical(monkeypatch):
    # two workers even on a one-CPU host, each dealt every other instance;
    # these sweeps are under the fork crossover, so it is lowered to reach
    # the fork path
    monkeypatch.setattr("chromatic_schur.verify._usable_cpus", lambda: 2)
    monkeypatch.setattr(verify, "FORK_VERTICES", 0)
    dealt = _recorded_dealing(monkeypatch, _recorded_forks(monkeypatch))
    for run, size in (
        (run_net_recurrence_suite, 3),
        (run_spider_recurrence_suite, 4),
        (run_f_table_suite, 5),
        (run_structure_suite, 4),
        (run_open_coefficient_report, 5),
    ):
        sequential = run(size, jobs=1)
        dealt.clear()
        parallel = run(size, jobs=2)
        assert dealt and all(workers == 2 for workers in dealt), run.__name__
        assert parallel.instances == sequential.instances, run.__name__
        assert parallel.failures == sequential.failures, run.__name__


def test_recurrence_sweep_builds_no_monomial_vector(monkeypatch):
    """A sweep that asks one coefficient at a time reads the cached counts:
    it builds no CoefficientVector and runs the type count once per graph."""
    from chromatic_schur import graphs
    from chromatic_schur.coeffvec import CoefficientVector

    built = 0
    init = CoefficientVector.__init__

    def counted(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    keys = []
    cached = graphs._types_for

    def recorded(key):
        keys.append(key)
        return cached(key)

    monkeypatch.setattr(CoefficientVector, "__init__", counted)
    monkeypatch.setattr(graphs, "_types_for", recorded)
    cached.cache_clear()
    report = run_net_recurrence_suite(4, jobs=1)
    assert report.passed and len(report.instances) == 59
    assert built == 0
    assert len(set(keys)) == cached.cache_info().misses == 21


def test_recurrence_sweep_checks_each_partition_once(monkeypatch):
    """A grouped coefficient reached through xi checks its partition once:
    xi checks it, and neither the coefficient nor the content table
    checks it again."""
    from chromatic_schur import coefficients, tabloids, verify

    checks = 0
    defined_calls = 0
    check, check_shape = coefficients.check_partition, coefficients.check_shape
    xi = verify.xi

    def counted_check(parts):
        nonlocal checks
        checks += 1
        return check(parts)

    def counted_shape_check(parts, n):
        nonlocal checks
        checks += 1
        return check_shape(parts, n)

    def counted_xi(lam, graph):
        nonlocal defined_calls
        if lam is not UNDEFINED and graph is not UNDEFINED:
            defined_calls += 1
        return xi(lam, graph)

    for module in (coefficients, tabloids):
        monkeypatch.setattr(module, "check_partition", counted_check)
        monkeypatch.setattr(module, "check_shape", counted_shape_check)
    monkeypatch.setattr(verify, "xi", counted_xi)
    report = run_net_recurrence_suite(4, jobs=1)
    assert report.passed and len(report.instances) == 59
    assert defined_calls > 59
    assert checks == defined_calls


def _recorded_forks(monkeypatch) -> list:
    """Fork as usual, recording each worker's pid."""
    pids = []
    fork = os.fork

    def recorded():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    return pids


def _recorded_dealing(monkeypatch, forks) -> list:
    """Map as usual, recording the worker count of each call that forks
    (after ``_recorded_forks``), and check that of w workers, worker i was
    dealt exactly the instances ``range(i, count, w)``."""
    dealt = []
    map_instances = verify._map_instances

    def recorded(fn, params, jobs, vertices):
        first = len(forks)
        answers = map_instances(lambda p: (os.getpid(), fn(p)), params, jobs, vertices)
        # a serial map answers every instance in this process
        workers = forks[first:] or [os.getpid()]
        for w, pid in enumerate(workers):
            mine = [i for i, (answered_by, _) in enumerate(answers) if answered_by == pid]
            assert mine == list(range(w, len(params), len(workers)))
        if len(forks) > first:
            dealt.append(len(workers))
        return [value for _, value in answers]

    monkeypatch.setattr(verify, "_map_instances", recorded)
    return dealt


def _assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def test_worker_pool_bounded_by_cores_and_instances(monkeypatch):
    # worker w is dealt instances w, w + workers, ..., so a rising-cost
    # sweep spreads over every worker; the crossover is lowered so that
    # these small sweeps fork
    monkeypatch.setattr(verify, "FORK_VERTICES", 0)
    forks = _recorded_forks(monkeypatch)
    dealt = _recorded_dealing(monkeypatch, forks)
    sequential = run_net_recurrence_suite(2, jobs=1)
    bounded = run_net_recurrence_suite(2, jobs=10_000)
    assert all(w <= verify._usable_cpus() and w <= len(bounded.instances) for w in dealt)
    assert len(forks) == sum(dealt)
    assert bounded.instances == sequential.instances
    # open-coeffs hands its instances to the workers too
    monkeypatch.setattr("chromatic_schur.verify._usable_cpus", lambda: 2)
    dealt.clear()
    pooled = run_open_coefficient_report(4, jobs=2)
    assert dealt == [2]
    assert pooled.instances == run_open_coefficient_report(4, jobs=1).instances
    # 59 instances over two workers, every other one each
    dealt.clear()
    dealt_out = run_net_recurrence_suite(4, jobs=2)
    assert dealt == [2]
    assert dealt_out.instances == run_net_recurrence_suite(4, jobs=1).instances
    _assert_reaped(forks)


def test_jobs_capped_by_cpu_affinity(monkeypatch):
    # a process pinned to one CPU runs --jobs 2 serially, with the same
    # report, even on a sweep past the fork crossover
    def no_fork():
        raise AssertionError("a worker was forked")

    monkeypatch.setattr(verify, "FORK_VERTICES", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(os, "fork", no_fork)
    assert verify._usable_cpus() == 1
    pinned = run_net_recurrence_suite(4, jobs=2)
    monkeypatch.undo()
    assert pinned.to_json_dict() == run_net_recurrence_suite(4, jobs=1).to_json_dict()


def test_usable_cpus_fall_back_to_the_cpu_count(monkeypatch):
    # where the platform has no affinity call, every CPU counts as usable
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert verify._usable_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert verify._usable_cpus() == 1


def test_sweeps_under_the_fork_crossover_run_in_process(monkeypatch):
    # --jobs 2 on two CPUs forks nothing below FORK_VERTICES, with the same
    # report as --jobs 1
    def no_fork():
        raise AssertionError("a worker was forked")

    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", no_fork)
    below = verify.FORK_VERTICES - 1
    assert verify._map_instances(lambda x: (os.getpid(), x), [0, 1, 2], jobs=2, vertices=below) == [
        (os.getpid(), x) for x in range(3)
    ]
    for run, size in (
        (run_net_recurrence_suite, 4),
        (run_spider_recurrence_suite, 4),
        (run_structure_suite, 8),
        (run_singleton_removal_suite, 4),
        (run_positivity_sweep, 4),
        (run_f_table_suite, 5),
        (run_open_coefficient_report, 4),
    ):
        assert run(size, jobs=2).to_json_dict() == run(size, jobs=1).to_json_dict(), run.__name__


def test_sweeps_at_the_fork_crossover_fork_min_of_jobs_cpus_and_instances(monkeypatch):
    forks = _recorded_forks(monkeypatch)
    at = verify.FORK_VERTICES
    for jobs, cpus, count, workers in ((8, 4, 3, 3), (2, 4, 5, 2), (8, 2, 5, 2), (3, 3, 3, 3)):
        monkeypatch.setattr(verify, "_usable_cpus", lambda: cpus)
        first = len(forks)
        answers = verify._map_instances(lambda x: (os.getpid(), x), list(range(count)), jobs=jobs, vertices=at)
        assert len(forks) - first == workers
        assert answers == [(forks[first + i % workers], i) for i in range(count)]
    # a suite whose largest graph, GN(4, 4), is exactly at the crossover,
    # lowered to its 8 vertices: 59 instances over two CPUs
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(verify, "FORK_VERTICES", 8)
    first = len(forks)
    pooled = run_net_recurrence_suite(4, jobs=3)
    assert len(forks) - first == 2
    assert pooled.instances == run_net_recurrence_suite(4, jobs=1).instances
    _assert_reaped(forks)


def test_each_suite_names_its_largest_graph_to_the_map(monkeypatch):
    # the vertex count that decides forking is that of the suite's largest
    # graph, the same count its cap check reads
    named = []
    map_instances = verify._map_instances

    def recorded(fn, params, jobs, vertices):
        named.append(vertices)
        return map_instances(fn, params, jobs, vertices)

    monkeypatch.setattr(verify, "_map_instances", recorded)
    for run, size, vertices in (
        (run_net_recurrence_suite, 3, 6),
        (run_spider_recurrence_suite, 4, 9),
        (run_structure_suite, 7, 7),
        (run_singleton_removal_suite, 3, 6),
        (run_f_table_suite, 4, 8),
        (run_positivity_sweep, 4, 9),
        (run_positivity_sweep, 1, 4),  # no spider yet: the claw control
        (run_open_coefficient_report, 4, 9),
    ):
        named.clear()
        run(size, jobs=2)
        assert named == [vertices], (size, named)


def _fails_at_zero(x):
    if x == 0:
        raise ValueError("no instance 0")
    return x


def _dies_at_zero(x):
    if x == 0:
        os._exit(3)
    return x


def _hangs_after_zero(x):
    if x > 0:
        time.sleep(60)
    return x


@pytest.mark.parametrize(
    "fn, error, match",
    [
        (_fails_at_zero, ValueError, "no instance 0"),
        (_dies_at_zero, RuntimeError, "exited with status 3 without answering"),
    ],
)
def test_worker_failure_reaches_the_caller(monkeypatch, fn, error, match):
    # the first worker fails at once; the other is still sleeping, so it is
    # killed and reaped rather than waited for
    monkeypatch.setattr("chromatic_schur.verify._usable_cpus", lambda: 2)
    monkeypatch.setattr(verify, "FORK_VERTICES", 0)
    forks = _recorded_forks(monkeypatch)
    started = time.monotonic()
    with pytest.raises(error, match=match):
        verify._map_instances(lambda x: _hangs_after_zero(fn(x)), [0, 1], jobs=2, vertices=0)
    assert time.monotonic() - started < 30
    assert len(forks) == 2
    _assert_reaped(forks)


def test_suite_argument_validation():
    with pytest.raises(ValueError):
        run_net_recurrence_suite(0)
    with pytest.raises(ValueError):
        run_spider_recurrence_suite(2)
    with pytest.raises(ValueError):
        run_structure_suite(1)
    with pytest.raises(ValueError):
        run_open_coefficient_report(2)
    with pytest.raises(ValueError):
        run_singleton_removal_suite(0)
    with pytest.raises(ValueError):
        run_positivity_sweep(0)
    with pytest.raises(ValueError):
        run_f_table_suite(-1)
