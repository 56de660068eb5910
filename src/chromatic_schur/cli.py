"""Command-line driver: graph expansion plus the batch verification suites.

Exit status: 0 when everything checked passed, 1 when a verified identity
failed (the failures are listed in the output), 2 on invalid input.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys

from .coefficients import GROUPED, METHODS, schur_expansion
from .graphs import (
    MAX_TYPE_VERTICES,
    PENDANT_FIRST,
    PENDANT_ROLES,
    BODY_ROLES,
    LabeledGraph,
    complete_graph,
    generalized_net,
    generalized_spider,
    path_graph,
    star_graph,
    with_disjoint_path,
)
from .partitions import UNDEFINED, check_partition
from .verify import (
    DEFAULT_BUDGET_MS,
    VerificationReport,
    nominal_cost_ms,
    run_cancellation_check,
    run_f_table_suite,
    run_net_recurrence_suite,
    run_open_coefficient_report,
    run_positivity_sweep,
    run_singleton_removal_suite,
    run_spider_recurrence_suite,
    run_structure_suite,
)

GRAPH_SHORTHAND_HELP = (
    'graph shorthand: "K(n)", "K(1,m)", "P(k)", "GN(n,m)" with optional '
    '":pendant_first"/":pendant_last", "GS(n,[a,b,...])"; append "+P1" or '
    '"+P2" for a disjoint path'
)

_GN_RE = re.compile(r"^GN\((\d+),(\d+)\)(?::(\w+))?$")
_GS_RE = re.compile(r"^GS\((\d+),\[([\d,]*)\]\)$")
_K_RE = re.compile(r"^K\((\d+)\)$")
_STAR_RE = re.compile(r"^K\((\d+),(\d+)\)$")
_P_RE = re.compile(r"^P\((\d+)\)$")


def parse_graph_shorthand(text: str) -> LabeledGraph:
    """Build a graph from the CLI shorthand grammar."""
    parts = text.replace(" ", "").split("+")
    base = parts[0]
    # any number above the cap alone puts the graph past every route's cap;
    # a long one is refused by its length, before int() meets its digit limit
    for number in re.findall(r"\d+", base):
        if len(number.lstrip("0")) > len(str(MAX_TYPE_VERTICES)) or int(number) > MAX_TYPE_VERTICES:
            raise ValueError(f"{number} in {base!r} exceeds {MAX_TYPE_VERTICES}, the most vertices any route takes")
    if m := _GN_RE.match(base):
        graph = generalized_net(int(m.group(1)), int(m.group(2)), m.group(3) or PENDANT_FIRST)
    elif m := _GS_RE.match(base):
        legs = tuple(int(p) for p in m.group(2).split(",") if p)
        graph = generalized_spider(int(m.group(1)), legs)
    elif m := _K_RE.match(base):
        graph = complete_graph(int(m.group(1)))
    elif m := _STAR_RE.match(base):
        if int(m.group(1)) != 1:
            raise ValueError("only complete graphs K(n) and stars K(1,m) are supported")
        graph = star_graph(int(m.group(2)))
    elif m := _P_RE.match(base):
        graph = path_graph(int(m.group(1)))
    else:
        raise ValueError(f"unrecognized graph shorthand {base!r}")
    if graph is UNDEFINED:
        raise ValueError(f"graph {base!r} is not properly defined")
    for suffix in parts[1:]:
        if suffix == "P1":
            graph = with_disjoint_path(graph, 1)
        elif suffix == "P2":
            graph = with_disjoint_path(graph, 2)
        else:
            raise ValueError(f"unknown suffix {suffix!r} (use P1 or P2)")
    return graph


def parse_partition_text(text: str):
    cleaned = text.strip().strip("[]")
    parts = [int(p) for p in cleaned.split(",") if p.strip()] if cleaned else []
    return check_partition(parts)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chromatic-schur",
        description="Exact Schur expansions of chromatic symmetric functions, "
        "with batch verification of the identities they satisfy.",
    )
    parser.add_argument("--format", choices=("json", "csv", "text"), default="text")
    parser.add_argument("--jobs", type=int, default=1, help="worker processes for sweeps")
    parser.add_argument(
        "--budget-ms",
        type=int,
        default=DEFAULT_BUDGET_MS,
        help="nominal cost allowance gating the optional large instances",
    )
    parser.add_argument(
        "--timing",
        action="store_true",
        help="emit measured wall_time_ms (off by default so identical runs are byte-identical)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="Schur expansion of one graph")
    p.add_argument("--graph", required=True, help=GRAPH_SHORTHAND_HELP)
    p.add_argument("--method", choices=METHODS, default=GROUPED)

    for command, help_text, option, default, run in SUITES:
        p = sub.add_parser(command, help=help_text)
        p.set_defaults(run=run, bound=default)
        if option is not None:  # the default comes from set_defaults
            p.add_argument(option, dest="bound", metavar=option[2:].replace("-", "_").upper(), type=int)

    p = sub.choices["cancel"]
    p.add_argument("--graph", help=GRAPH_SHORTHAND_HELP)
    p.add_argument("--partition", help="shape, e.g. 2,1,1,1,1")

    p = sub.add_parser("all", help="run every suite at its default bounds")
    p.set_defaults(run=_all_reports, bound=None)

    return parser


def _vector_text(vec) -> str:
    lines = [f"degree {vec.degree() if vec.degree() is not None else 0} ({vec.basis} basis)"]
    for mu, c in vec.items():
        lines.append(f"  {list(mu)}: {c}")
    return "\n".join(lines)


def _vector_csv(vec) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["partition", "value"])
    for mu, c in vec.items():
        writer.writerow([" ".join(map(str, mu)), str(c)])
    return buf.getvalue()


def _report_text(report: VerificationReport, timing: bool) -> str:
    status = "PASS" if report.passed else "FAIL"
    skips = sum(1 for inst in report.instances if inst["status"] == "skip")
    line = f"{report.statement_id}: {status} ({report.instances_checked} instances"
    if skips:
        line += f", {skips} skipped"
    if timing:
        line += f", {report.wall_time_ms} ms"
    line += ")"
    lines = [line]
    for inst in report.instances:
        if inst["status"] == "fail":
            lines.append(f"  FAIL {json.dumps(inst['params'], sort_keys=True)} lhs={inst.get('lhs')} rhs={inst.get('rhs')}")
        elif inst["status"] == "report" and "value" in inst:
            flag = "  [negative]" if inst.get("negative") else ""
            lines.append(f"  {json.dumps(inst['params'], sort_keys=True)} value={inst['value']}{flag}")
        elif inst["status"] == "skip":
            lines.append(f"  SKIP {json.dumps(inst['params'], sort_keys=True)}")
    return "\n".join(lines)


def _f_table_text(report: VerificationReport) -> str:
    values = {
        (i["params"]["C"], i["params"]["D"]): i["value"]
        for i in report.instances
        if i["params"].get("kind") == "value"
    }
    bound = max(c + d for c, d in values)
    width = max(len(str(v)) for v in values.values()) + 1
    lines = [f"f(C,D) for C+D <= {bound} (rows C, columns D)"]
    header = "C\\D" + "".join(f"{d:>{width}}" for d in range(bound + 1))
    lines.append(header)
    for c in range(bound + 1):
        row = f"{c:>3}"
        for d in range(bound + 1):
            row += f"{values[c, d]:>{width}}" if (c, d) in values else " " * width
        lines.append(row)
    checks = [i for i in report.instances if i["params"].get("kind") != "value"]
    bad = [i for i in checks if i["status"] == "fail"]
    lines.append(f"identities checked: {len(checks)}, failures: {len(bad)}")
    for inst in bad:
        lines.append(f"  FAIL {json.dumps(inst['params'], sort_keys=True)} lhs={inst['lhs']} rhs={inst['rhs']}")
    return "\n".join(lines)


def _report_csv(reports: list[VerificationReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["statement_id", "instance", "status", "lhs", "rhs", "detail"])
    for report in reports:
        for inst in report.instances:
            detail = {
                k: v for k, v in inst.items() if k not in ("params", "status", "lhs", "rhs")
            }
            writer.writerow(
                [
                    report.statement_id,
                    json.dumps(inst["params"], sort_keys=True),
                    inst["status"],
                    inst.get("lhs", ""),
                    inst.get("rhs", ""),
                    json.dumps(detail, sort_keys=True) if detail else "",
                ]
            )
    return buf.getvalue()


def _emit_reports(reports: list[VerificationReport], args) -> int:
    if args.format == "json":
        payload = {"reports": [r.to_json_dict(timing=args.timing) for r in reports]}
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif args.format == "csv":
        print(_report_csv(reports), end="")
    else:
        for report in reports:
            if report.statement_id == "f-table":
                print(_f_table_text(report))
            else:
                print(_report_text(report, args.timing))
    return 0 if all(r.passed for r in reports) else 1


def _cancel_reports(args, _bound) -> list[VerificationReport]:
    # under `all` the arguments carry no instance options: the default instances run
    graph_text, partition_text = getattr(args, "graph", None), getattr(args, "partition", None)
    if (graph_text is None) != (partition_text is None):
        raise ValueError("cancel needs both --graph and --partition, or neither")
    if graph_text is not None:
        graph = parse_graph_shorthand(graph_text)
        lam = parse_partition_text(partition_text)
        cost = nominal_cost_ms(graph.n, kind="enumeration")
        if cost > args.budget_ms:
            raise ValueError(
                f"cancel on {graph_text}: nominal cost {cost} ms exceeds --budget-ms {args.budget_ms}"
            )
        runs = [(graph, lam, graph_text)]
    else:
        runs = [
            (generalized_net(n, n, PENDANT_FIRST), lam, f"GN({n},{n})")
            for n, lam in ((3, (2, 1, 1, 1, 1)), (4, (2, 1, 1, 1, 1, 1, 1)))
        ]
    # the claim's hypothesis, a pendant-first net, fixes the two sets as its roles
    return [
        run_cancellation_check(g, lam, g.labels_with_role(*PENDANT_ROLES), g.labels_with_role(*BODY_ROLES), label=label)
        for g, lam, label in runs
    ]


# The suite commands, in the order `all` runs them: command, help, bound
# option and its default (None for cancel, whose instance options
# `_build_parser` adds), and the runner from parsed arguments and bound to
# reports.
SUITES = (
    ("net-rec", "verify the net coefficient recurrence", "--n-max", 4,
     lambda a, bound: [run_net_recurrence_suite(bound, jobs=a.jobs)]),
    ("spider-rec", "verify the spider coefficient recurrence", "--n-max", 3,
     lambda a, bound: [run_spider_recurrence_suite(bound, jobs=a.jobs)]),
    ("structure", "verify coefficient support and tail-content claims", "--bound", 8,
     lambda a, bound: [run_structure_suite(bound, jobs=a.jobs)]),
    ("singleton-removal", "verify the isolated-vertex row trade on nets", "--bound", 5,
     lambda a, bound: [run_singleton_removal_suite(bound, jobs=a.jobs)]),
    ("cancel", "verify signed cancellation of head groups", None, None, _cancel_reports),
    ("positivity", "verify net Schur-positivity, claw as control", "--n-max", 4,
     lambda a, bound: [run_positivity_sweep(bound, jobs=a.jobs, budget_ms=a.budget_ms)]),
    ("f-table", "tabulate f(C,D) and verify its identities", "--bound", 6,
     lambda a, bound: [run_f_table_suite(bound, jobs=a.jobs)]),
    ("open-coeffs", "report the three open spider coefficient families", "--n-max", 3,
     lambda a, bound: [run_open_coefficient_report(bound, jobs=a.jobs, budget_ms=a.budget_ms)]),
)


def _all_reports(args, _bound) -> list[VerificationReport]:
    """Every suite at its default bound, under the given --jobs and --budget-ms."""
    return [report for *_, default, run in SUITES for report in run(args, default)]


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.jobs < 1:
            raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
        if args.budget_ms < 0:
            raise ValueError(f"--budget-ms must be nonnegative, got {args.budget_ms}")
        if args.command == "expand":
            vec = schur_expansion(parse_graph_shorthand(args.graph), args.method)
            if args.format == "json":
                print(json.dumps(vec.to_json_dict(), indent=2, sort_keys=True))
            elif args.format == "csv":
                print(_vector_csv(vec), end="")
            else:
                print(_vector_text(vec))
            return 0
        reports = args.run(args, args.bound)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _emit_reports(reports, args)


if __name__ == "__main__":
    sys.exit(main())
