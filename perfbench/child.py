"""One benchmark process: import the package, build the inputs, call it.

Run by ``run.py`` as ``python3 perfbench/child.py '<job json>'`` with the
package's source on ``PYTHONPATH``.  Prints one JSON line holding the
CLOCK_MONOTONIC instants at which the process was ready (package imported,
inputs built) and done (last answer returned), its peak resident set, the
answers, and, when the job asks for it, spans around each call into the
package.  CLOCK_MONOTONIC is system-wide on Linux, so the parent can subtract
its own launch instant from ``ready``.

Job kinds:
  cli          ``chromatic_schur.cli.main(argv)``, as the console script does
  crosscheck   the census and the three routes on given graphs
  layer        one public function timed alone, in a cold process

A ``cli`` or ``crosscheck`` job with ``setup_only`` stops once it is ready.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Spans:
    """Named (start, end) pairs, kept in memory until the process reports."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.items = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        start = now()
        try:
            yield
        finally:
            self.items.append((name, start, now()))


ROUTES = ("tabloid", "grouped", "oracle")


def _vector(vec) -> list:
    return [[list(lam), str(c)] for lam, c in vec.items()]


def _graphs(specs):
    from chromatic_schur import LabeledGraph

    return [LabeledGraph(n, edges) for n, edges in specs]


def run_cli(job, spans):
    with spans.span("cli.import"):
        from chromatic_schur.cli import main
    ready = now()
    if job.get("setup_only"):
        return ready, ready, None
    out = io.StringIO()
    with spans.span("cli.main"), contextlib.redirect_stdout(out):
        code = main(job["argv"])
    return ready, now(), {"exit": code, "stdout": out.getvalue()}


def run_crosscheck(job, spans):
    with spans.span("import"):
        from chromatic_schur import schur_expansion
        from chromatic_schur.graphs import connected_graphs
    graphs = _graphs(job["graphs"])
    ready = now()
    if job.get("setup_only"):
        return ready, ready, None
    with spans.span("graphs.census"):
        census = connected_graphs(job["census_n"])
    vectors = []
    for graph in census + graphs:
        row = {}
        for route in ROUTES:
            with spans.span(f"coefficients.{route}"):
                row[route] = schur_expansion(graph, route)
        vectors.append(row)
    done = now()
    payload = {
        "census": [[g.n, sorted(g.edges)] for g in census],
        "vectors": [{r: _vector(v) for r, v in row.items()} for row in vectors],
    }
    return ready, done, payload


def _cancel_defaults():
    # the two default instances of the ``cancel`` command
    from chromatic_schur.graphs import BODY_ROLES, PENDANT_ROLES, generalized_net

    out = []
    for n, lam in ((3, (2, 1, 1, 1, 1)), (4, (2, 1, 1, 1, 1, 1, 1))):
        g = generalized_net(n, n, "pendant_first")
        out.append((g, lam, g.labels_with_role(*PENDANT_ROLES), g.labels_with_role(*BODY_ROLES)))
    return out


def run_layer(job, spans):
    """Time one public function alone; ``figures`` holds seconds per name."""
    t0 = now()
    import chromatic_schur.cli  # noqa: F401  (the import a CLI run pays)

    figures = {"cli.import": now() - t0}
    from chromatic_schur import verify
    from chromatic_schur.coefficients import chromatic_monomial_expansion, schur_expansion
    from chromatic_schur.graphs import connected_graphs, count_semi_ordered_stable_partitions
    from chromatic_schur.partitions import partitions_of
    from chromatic_schur.tableaux import kostka_matrix, monomial_to_schur

    name = job["layer"]
    graphs = _graphs(job.get("graphs", []))
    extra = {}
    if name == "suite":
        fn = getattr(verify, job["function"])
        start = now()
        report = fn(job["arg"], jobs=job["jobs"])
        figures[job["metric"]] = now() - start
        extra["reports"] = [report.to_json_dict()]
    elif name == "cancel":
        runs = _cancel_defaults()
        start = now()
        reports = [verify.run_cancellation_check(g, lam, p, b) for g, lam, p, b in runs]
        figures["verify.cancel"] = now() - start
        extra["reports"] = [r.to_json_dict() for r in reports]
    elif name == "route":
        start = now()
        vectors = [schur_expansion(g, job["route"]) for g in graphs]
        figures["coefficients." + job["route"]] = now() - start
        extra["vectors"] = [_vector(v) for v in vectors]
    elif name == "stable_partitions":
        start = now()
        counts = [[count_semi_ordered_stable_partitions(g, mu) for mu in partitions_of(g.n)] for g in graphs]
        figures["graphs.stable_partitions"] = now() - start
        extra["counts"] = [[str(c) for c in row] for row in counts]
    elif name == "census":
        start = now()
        census = connected_graphs(job["census_n"])
        figures["graphs.census"] = now() - start
        extra["census"] = [[g.n, sorted(g.edges)] for g in census]
    elif name == "to_schur":
        # one graph per degree; the monomial input is built before the clock
        extra["vectors"] = []
        for g in graphs:
            mono = chromatic_monomial_expansion(g)
            start = now()
            vec = monomial_to_schur(mono)
            figures[f"tableaux.to_schur_{g.n}"] = now() - start
            extra["vectors"].append(_vector(vec))
    elif name == "kostka":
        for degree in job["degrees"]:
            start = now()
            kostka_matrix(degree)
            figures[f"tableaux.kostka_{degree}"] = now() - start
    else:
        raise ValueError(f"unknown layer {name!r}")
    return None, None, {"figures": figures, **extra}


def main() -> int:
    job = json.loads(sys.argv[1])
    spans = Spans(job.get("trace", False))
    kind = job["kind"]
    if kind == "cli":
        ready, done, payload = run_cli(job, spans)
    elif kind == "crosscheck":
        ready, done, payload = run_crosscheck(job, spans)
    elif kind == "layer":
        ready, done, payload = run_layer(job, spans)
    else:
        raise ValueError(f"unknown job kind {kind!r}")
    usage = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    print(json.dumps({"ready": ready, "done": done, "rss_kb": usage, "spans": spans.items, "payload": payload}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
