#!/usr/bin/env python3
"""Benchmark of chromatic-schur: coefficient routes, verification suites and
tabloid streaming, each answer checked by code that shares nothing with the
package (see ``checks.py``).

    python3 perfbench/run.py --workload expand --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --reference

Run from the repository root.  Every call into the package happens in a
fresh process (``child.py``) with the package's source on ``PYTHONPATH``, so
each process starts with cold caches as a user's CLI run does.  A run first
sets the workload up ``SETUP_ROUNDS`` times without doing its work, then
repeats whole rounds until ``--seconds`` have passed, and reports medians
over rounds.  With ``--trace 1`` it instead runs one untraced and one traced
round (their difference is the tracing overhead) and times each layer's
public function alone, cold.  The last line of standard output is one JSON
object; see README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from checks import Tally, WrongAnswer, expect_len  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
SETUP_ROUNDS = 5
RUN_LIMIT_S = 170  # every run ends, answer checks included, well inside 180 s
CENSUS_N = 6
RANDOM_SIZES = (10, 10, 11, 11)  # crosscheck graphs beyond the census


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def worker_count() -> int:
    return min(2, len(os.sched_getaffinity(0)))


# ---------------------------------------------------------------------------
# jobs: one child process, its expected operations, and its answer checks


@dataclass
class Job:
    spec: dict
    ops: int  # checks made on the answer; all fail if no answer comes
    check: object  # (payload, tally) -> (coefficients, instances)


class Expected:
    """The benchmark's own figures for the inputs, computed once per run."""

    def __init__(self):
        self._chi = {}
        self._census = {}

    def chi(self, graph):
        key = (graph[0], tuple(map(tuple, graph[1])))
        if key not in self._chi:
            self._chi[key] = checks.chromatic_values(graph[0], graph[1], range(1, graph[0] + 1))
        return self._chi[key]

    def census(self, tally: Tally, graphs):
        # the census is the same on every round; judge each distinct answer once
        key = tuple((n, tuple(map(tuple, e))) for n, e in graphs)
        if key not in self._census:
            self._census[key] = Tally()
            checks.check_census(self._census[key], graphs)
        tally.add(self._census[key])


EXPECTED = Expected()


def _parse_vector(rows) -> dict:
    return {tuple(lam): int(c) for lam, c in rows}


def expand_job(shorthand: str, graph, is_net: bool) -> Job:
    def check(payload, tally):
        if payload["exit"] != 0:
            raise RuntimeError(f"expand exited with {payload['exit']}")
        vec = json.loads(payload["stdout"])
        coeffs = {tuple(e["partition"]): int(e["value"]) for e in vec["coeffs"]}
        checks.check_expansion(tally, shorthand, coeffs, graph, is_net, EXPECTED.chi(graph))
        return checks.partition_count(graph[0]), 1

    argv = ["--format", "json", "expand", "--graph", shorthand]
    return Job({"kind": "cli", "argv": argv}, 3 if is_net else 2, check)


def coefficients_carried(report: dict) -> int:
    """Schur coefficients a suite report carries: recurrence sides and terms,
    support-claim coefficients, and f-table and open-family values."""
    total = 0
    for inst in report["instances"]:
        if "terms" in inst:
            total += 1 + len(inst["terms"])
        elif "value" in inst or inst["params"].get("kind") == "tailless-support":
            total += 1
    return total


SUITES = {
    # command: (default bound, grid counter, extra checks per report)
    "net-rec": (4, checks.grid_net_rec, 0),
    "spider-rec": (3, checks.grid_spider_rec, 0),
    "structure": (8, checks.grid_structure, 1),
    "cancel": (None, None, 1),
    "positivity": (4, checks.grid_positivity, 0),
    "f-table": (6, checks.grid_f_table, 1),
    "open-coeffs": (3, checks.grid_open_coeffs, 0),
}
BOUND_FLAG = {"structure": "--bound", "f-table": "--bound"}
CANCEL_DEFAULTS = ((checks.net(3, 3), (2, 1, 1, 1, 1)), (checks.net(4, 4), (2, 1, 1, 1, 1, 1, 1)))


def check_suite(command: str, reports: list, tally: Tally, bound) -> tuple[int, int, int]:
    """Check one command's reports; returns (coefficients, instances, G-tabloids)."""
    _, grid, _ = SUITES[command]
    coeffs = instances = tabloids = 0
    if command == "cancel":
        for report, (graph, lam) in zip(expect_len(reports, len(CANCEL_DEFAULTS), "reports"), CANCEL_DEFAULTS):
            checks.check_report(tally, "cancel", report, None)
            tabloids += checks.check_cancel(tally, report, graph, lam)
    else:
        (report,) = expect_len(reports, 1, "reports")
        checks.check_report(tally, command, report, grid(bound))
        if command == "f-table":
            checks.check_f_table(tally, report)
        elif command == "structure":
            tabloids += checks.check_structure_tabloids(tally, report)
    for report in reports:
        coeffs += coefficients_carried(report)
        instances += report["instances_checked"]
    return coeffs, instances, tabloids


def suite_ops(command: str) -> int:
    _, grid, extra = SUITES[command]
    per_report = (2 if grid is None else 3) + extra
    return per_report * (len(CANCEL_DEFAULTS) if command == "cancel" else 1)


def suite_job(command: str, bound=None, jobs: int = 1) -> Job:
    default, _, _ = SUITES[command]
    bound = default if bound is None else bound

    def check(payload, tally):
        if payload["exit"] not in (0, 1):  # 1 means a failed identity, which the checks judge
            raise RuntimeError(f"{command} exited with {payload['exit']}")
        reports = json.loads(payload["stdout"])["reports"]
        coeffs, instances, _ = check_suite(command, reports, tally, bound)
        return coeffs, instances

    argv = ["--format", "json", "--jobs", str(jobs), command]
    if command != "cancel" and bound != default:
        argv += [BOUND_FLAG.get(command, "--n-max"), str(bound)]
    return Job({"kind": "cli", "argv": argv}, suite_ops(command), check)


def random_graphs(seed: int) -> list:
    """G(n, M) graphs with half of all pairs as edges, drawn by the benchmark."""
    rng = random.Random(seed)
    out = []
    for n in RANDOM_SIZES:
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        out.append((n, sorted(rng.sample(pairs, len(pairs) // 2))))
    return out


def crosscheck_job(seed: int) -> Job:
    graphs = random_graphs(seed)

    def check(payload, tally):
        census = payload["census"]
        EXPECTED.census(tally, census)
        coeffs = 0
        expect_len(census, checks.CENSUS_6, "census graphs")
        vectors = expect_len(payload["vectors"], len(census) + len(graphs), "vectors")
        for graph, row in zip(census + graphs, vectors):
            by_route = {r: _parse_vector(v) for r, v in row.items()}
            checks.check_agreement(tally, f"graph {graph}", by_route)
            checks.check_expansion(tally, f"graph {graph}", by_route["tabloid"], graph, False, EXPECTED.chi(graph))
            coeffs += len(by_route) * checks.partition_count(graph[0])
        return coeffs, len(payload["vectors"]) * 3

    # 3 census checks, then per graph: agreement, hook-length, specialization
    ops = 3 + 3 * (checks.CENSUS_6 + len(graphs))
    return Job({"kind": "crosscheck", "census_n": CENSUS_N, "graphs": graphs}, ops, check)


def workload_jobs(name: str, seed: int) -> list[Job]:
    if name == "expand":
        return [
            expand_job("GN(6,6)", checks.net(6, 6), True),
            expand_job("GS(6,[2,1,1,1,1])", checks.spider(6, (2, 1, 1, 1, 1)), False),
            expand_job("P(12)", checks.path(12), False),
        ]
    if name == "recurrences":
        j = worker_count()
        return [suite_job("net-rec", 6, j), suite_job("spider-rec", 5, j), suite_job("f-table", 7, j)]
    if name == "battery":
        return [suite_job(c) for c in SUITES]
    if name == "crosscheck":
        return [crosscheck_job(seed)]
    raise SystemExit(f"unknown workload {name!r}; choose from expand, recurrences, battery, crosscheck")


# ---------------------------------------------------------------------------
# running children


class Runner:
    def __init__(self, limit_s: float = RUN_LIMIT_S):
        self.started = now()
        self.limit_s = limit_s
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env

    def launch(self, spec: dict):
        """Run one child; returns (launch instant, parsed report) or (launch, None).

        The child leads its own process group, so a timeout or an interrupt
        also stops the pool workers it may have started.
        """
        left = self.limit_s - (now() - self.started)
        launched = now()
        with subprocess.Popen(
            [sys.executable, str(CHILD), json.dumps(spec)],
            env=self.env,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        ) as proc:
            try:
                stdout, stderr = proc.communicate(timeout=max(left, 1))
            except subprocess.TimeoutExpired:
                print(f"child timed out: {spec.get('argv') or spec['kind']}", file=sys.stderr)
                return launched, None
            finally:
                if proc.returncode is None:  # timed out or interrupted
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.wait()
        if proc.returncode != 0 or not stdout.strip():
            sys.stderr.write(stderr[-2000:])
            return launched, None
        return launched, json.loads(stdout.splitlines()[-1])


def checked(job: Job, out, tally: Tally):
    """Judge one child's answer, counting exactly ``job.ops`` operations."""
    name = job.spec.get("argv") or job.spec.get("layer") or job.spec["kind"]
    if out is None:
        tally.missing(job.ops, f"no answer from {name}")
        return None
    scratch = Tally()
    try:
        result = job.check(out["payload"], scratch)
    except WrongAnswer as exc:
        tally.missing(job.ops, f"wrong answer from {name}: {exc}", wrong=True)
        return None
    except (KeyError, ValueError, TypeError, RuntimeError) as exc:
        tally.missing(job.ops, f"unreadable answer from {name}: {exc}")
        return None
    if scratch.attempted != job.ops:
        raise AssertionError(f"benchmark bug: {scratch.attempted} checks made on {name}, {job.ops} declared")
    tally.add(scratch)
    return result


@dataclass
class Round:
    setups: list  # per job, seconds from launch to ready
    walls: list  # per job, seconds from ready to the last answer
    rss_mb: float
    coeffs: int
    instances: int
    spans: list

    @property
    def wall(self) -> float:
        return sum(self.walls)


def run_round(runner: Runner, jobs: list[Job], tally: Tally, trace: bool = False, setup_only: bool = False) -> Round:
    setups, walls = [], []
    rss = coeffs = instances = 0
    spans = []
    for job in jobs:
        launched, out = runner.launch({**job.spec, "trace": trace, "setup_only": setup_only})
        if out is None:
            if not setup_only:
                checked(job, out, tally)
            setups.append(0.0)
            walls.append(0.0)
            continue
        setups.append(out["ready"] - launched)
        walls.append(out["done"] - out["ready"])
        rss = max(rss, out["rss_kb"])
        spans += out["spans"]
        if setup_only:
            continue
        result = checked(job, out, tally)
        if result:
            coeffs += result[0]
            instances += result[1]
    return Round(setups, walls, rss / 1024, coeffs, instances, spans)


def per_job_median(rows: list) -> float:
    """Sum over jobs of each job's median over rounds.

    The host's speed wanders by tens of percent within seconds, so a median
    taken per job discards a slow patch that hit one job of one round.
    """
    return sum(statistics.median(col) for col in zip(*rows))


def measure(name: str, seed: int, seconds: float, tally: Tally) -> dict:
    runner = Runner()
    jobs = workload_jobs(name, seed)
    probes = [run_round(runner, jobs, tally, setup_only=True) for _ in range(SETUP_ROUNDS)]
    rounds = []
    start = now()
    while not rounds or now() - start < seconds:
        if rounds and now() - runner.started + 1.5 * rounds[-1].wall > RUN_LIMIT_S - 10:
            break
        rounds.append(run_round(runner, jobs, tally))
    wall = per_job_median([r.walls for r in rounds])
    return {
        "setup_s": (per_job_median([r.setups for r in probes + rounds]), "s"),
        "wall_s": (wall, "s"),
        "peak_rss_mb": (statistics.median(r.rss_mb for r in rounds), "MB"),
        "coeffs_per_s": (statistics.median(r.coeffs for r in rounds) / wall if wall else 0.0, "1/s"),
        "instances_per_s": (statistics.median(r.instances for r in rounds) / wall if wall else 0.0, "1/s"),
    }


# ---------------------------------------------------------------------------
# traced run: per-layer figures


def layer_jobs(seed: int) -> list[Job]:
    """Each layer's public function alone in a cold process, with its checks."""
    j = worker_count()
    graphs = random_graphs(seed)
    one_per_degree = list({g[0]: g for g in graphs}.values())
    routes = {}

    def suite(command, function, metric, bound, jobs):
        spec = {"kind": "layer", "layer": "suite", "function": function, "metric": metric, "arg": bound, "jobs": jobs}
        return Job(spec, suite_ops(command), lambda p, t: check_suite(command, p["reports"], t, bound))

    def route(name):
        def check(p, t):
            routes[name] = [_parse_vector(v) for v in expect_len(p["vectors"], len(graphs), "vectors")]
            for g, vec in zip(graphs, routes[name]):
                checks.check_expansion(t, f"{name} {g}", vec, g, False, EXPECTED.chi(g))
            if name == "oracle":  # the last route: compare all three
                for k, g in enumerate(graphs):
                    t.check(len(routes) == 3, f"graph {g}: a route gave no answer", wrong=False)
                    checks.check_agreement(t, f"graph {g}", {r: v[k] for r, v in routes.items()})

        ops = 2 * len(graphs) + (2 * len(graphs) if name == "oracle" else 0)
        return Job({"kind": "layer", "layer": "route", "route": name, "graphs": graphs}, ops, check)

    def stable_check(p, t):
        # the counts of types with j blocks, each divided by the orderings of
        # equal blocks, sum to the number of partitions into j stable blocks
        for g, row in zip(graphs, expect_len(p["counts"], len(graphs), "rows")):
            a = [0] * (g[0] + 1)
            for mu, c in zip(checks.partitions(g[0]), row):
                div = 1
                for part in set(mu):
                    div *= checks.factorial(mu.count(part))
                a[len(mu)] += int(c) // div
            t.check(a == checks.stable_partition_counts(*g), f"stable partition counts of {g}")

    def to_schur_check(p, t):
        for g, vec in zip(one_per_degree, expect_len(p["vectors"], len(one_per_degree), "vectors")):
            checks.check_expansion(t, f"to_schur {g}", _parse_vector(vec), g, False, EXPECTED.chi(g))

    return [
        suite("net-rec", "run_net_recurrence_suite", "verify.net_rec", 6, j),
        suite("spider-rec", "run_spider_recurrence_suite", "verify.spider_rec", 5, j),
        suite("f-table", "run_f_table_suite", "verify.f_table", 7, j),
        suite("structure", "run_structure_suite", "verify.structure", 8, 1),
        Job({"kind": "layer", "layer": "cancel"}, suite_ops("cancel"), lambda p, t: check_suite("cancel", p["reports"], t, None)),
        suite("positivity", "run_positivity_sweep", "verify.positivity", 4, 1),
        suite("open-coeffs", "run_open_coefficient_report", "verify.open_coeffs", 3, 1),
        route("tabloid"),
        route("grouped"),
        route("oracle"),
        Job({"kind": "layer", "layer": "stable_partitions", "graphs": graphs}, len(graphs), stable_check),
        Job({"kind": "layer", "layer": "census", "census_n": CENSUS_N}, 3, lambda p, t: EXPECTED.census(t, p["census"])),
        Job({"kind": "layer", "layer": "to_schur", "graphs": one_per_degree}, 2 * len(one_per_degree), to_schur_check),
    ]


LAYER_TIMES = (
    "verify.net_rec",
    "verify.spider_rec",
    "verify.f_table",
    "verify.structure",
    "verify.cancel",
    "verify.positivity",
    "verify.open_coeffs",
    "coefficients.tabloid",
    "coefficients.grouped",
    "coefficients.oracle",
    "graphs.stable_partitions",
    "graphs.census",
    "tableaux.to_schur_10",
    "tableaux.to_schur_11",
)


def measure_layers(name: str, seed: int, tally: Tally) -> dict:
    runner = Runner()
    jobs = workload_jobs(name, seed)
    plain = run_round(runner, jobs, tally)
    traced = run_round(runner, jobs, tally, trace=True)
    figures = {}
    imports = []
    g_tabloids = 0
    # crosscheck's traced round already times the census cold, exactly as the
    # census layer job would; reuse that span rather than pay for it twice
    census = [end - start for span, start, end in traced.spans if span == "graphs.census"]
    if census:
        figures["graphs.census"] = census[0]
    for job in layer_jobs(seed):
        if census and job.spec["layer"] == "census":
            continue
        _, out = runner.launch(job.spec)
        result = checked(job, out, tally)
        if out is None:
            continue
        figs = out["payload"]["figures"]
        imports.append(figs.pop("cli.import"))
        figures.update(figs)
        if job.spec["layer"] in ("suite", "cancel") and result:
            g_tabloids += result[2]
    metrics = {"cli.import_s": (statistics.median(imports) if imports else 0.0, "s")}
    for key in LAYER_TIMES:  # a layer whose process failed reads 0, and counts as failed
        metrics[key + "_s"] = (figures.get(key, 0.0), "s")
    streamed = figures.get("verify.structure", 0) + figures.get("verify.cancel", 0)
    metrics["tabloids.g_tabloids"] = (g_tabloids, "count")
    metrics["tabloids.g_tabloids_per_s"] = (g_tabloids / streamed if streamed else 0.0, "1/s")
    metrics["trace.overhead_s"] = (traced.wall - plain.wall, "s")
    return metrics


# ---------------------------------------------------------------------------
# entry point


def build() -> None:
    """Byte-compile the package, as an install would, so no run pays for it."""
    if not (SRC / "chromatic_schur" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'chromatic_schur'}; run from the repository root", file=sys.stderr)
        sys.exit(2)
    if not compileall.compile_dir(str(SRC), quiet=1):
        print("error: the package does not compile", file=sys.stderr)
        sys.exit(2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=("expand", "recurrences", "battery", "crosscheck"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", action="store_true", help="rebuild the README's baseline table instead")
    args = parser.parse_args(argv)
    # on SIGTERM unwind normally, so the running child's group is stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    build()
    if args.reference:
        import reference

        return reference.main(Runner(limit_s=3600))
    if args.workload is None:
        parser.error("--workload is required")
    tally = Tally()
    if args.trace:
        metrics = measure_layers(args.workload, args.seed, tally)
    else:
        metrics = measure(args.workload, args.seed, args.seconds, tally)
    for message in tally.messages:
        print(f"check failed: {message}", file=sys.stderr)
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value:.6g} {unit}")
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
