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
    NET_LABELINGS,
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
    if m := _GN_RE.match(base):
        n, pend, labeling = int(m.group(1)), int(m.group(2)), m.group(3)
        if labeling is None:
            labeling = "pendant_first"
        if labeling not in NET_LABELINGS:
            raise ValueError(f"unknown net labeling {labeling!r}")
        graph = generalized_net(n, pend, labeling)
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


SUITE_COMMANDS = (
    "net-rec",
    "spider-rec",
    "structure",
    "singleton-removal",
    "cancel",
    "positivity",
    "f-table",
    "open-coeffs",
)


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

    p = sub.add_parser("net-rec", help="verify the net coefficient recurrence")
    p.add_argument("--n-max", type=int, default=4)
    p.set_defaults(run=lambda a: [run_net_recurrence_suite(a.n_max, jobs=a.jobs)])

    p = sub.add_parser("spider-rec", help="verify the spider coefficient recurrence")
    p.add_argument("--n-max", type=int, default=3)
    p.set_defaults(run=lambda a: [run_spider_recurrence_suite(a.n_max, jobs=a.jobs)])

    p = sub.add_parser("structure", help="verify coefficient support and tail-content claims")
    p.add_argument("--bound", type=int, default=8)
    p.set_defaults(run=lambda a: [run_structure_suite(a.bound, jobs=a.jobs)])

    p = sub.add_parser("singleton-removal", help="verify the isolated-vertex row trade on nets")
    p.add_argument("--bound", type=int, default=5)
    p.set_defaults(run=lambda a: [run_singleton_removal_suite(a.bound, jobs=a.jobs)])

    p = sub.add_parser("cancel", help="verify signed cancellation of head groups")
    p.add_argument("--graph", help=GRAPH_SHORTHAND_HELP)
    p.add_argument("--partition", help="shape, e.g. 2,1,1,1,1")
    p.add_argument("--pendants", help="comma-separated pendant labels (default: pendant roles)")
    p.add_argument("--body", help="comma-separated body labels (default: anchor/buoy roles)")
    p.add_argument(
        "--showcase",
        action="store_true",
        help="also run the 12-vertex showcase instance (gated by --budget-ms)",
    )
    p.set_defaults(run=_cancel_reports)

    p = sub.add_parser("positivity", help="verify net Schur-positivity, claw as control")
    p.add_argument("--n-max", type=int, default=4)
    p.set_defaults(run=lambda a: [run_positivity_sweep(a.n_max, jobs=a.jobs, budget_ms=a.budget_ms)])

    p = sub.add_parser("f-table", help="tabulate f(C,D) and verify its identities")
    p.add_argument("--bound", type=int, default=6)
    p.set_defaults(run=lambda a: [run_f_table_suite(a.bound, jobs=a.jobs)])

    p = sub.add_parser("open-coeffs", help="report the three open spider coefficient families")
    p.add_argument("--n-max", type=int, default=3)
    p.set_defaults(
        run=lambda a: [run_open_coefficient_report(a.n_max, jobs=a.jobs, budget_ms=a.budget_ms)]
    )

    p = sub.add_parser("all", help="run every suite at its default bounds")
    p.set_defaults(run=_all_reports)

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


def _labels_arg(text: str) -> frozenset:
    return frozenset(int(v) for v in text.split(",") if v.strip())


def _cancel_reports(args) -> list[VerificationReport]:
    if (args.graph is None) != (args.partition is None):
        raise ValueError("cancel needs both --graph and --partition, or neither")

    def instance(graph, lam, label, pendants=None, body=None):
        # pendant and body sets default to the graph's roles
        return (
            graph,
            lam,
            _labels_arg(pendants) if pendants is not None else frozenset(graph.labels_with_role(*PENDANT_ROLES)),
            _labels_arg(body) if body is not None else frozenset(graph.labels_with_role(*BODY_ROLES)),
            label,
        )

    if args.graph is not None:
        graph = parse_graph_shorthand(args.graph)
        lam = parse_partition_text(args.partition)
        cost = nominal_cost_ms(graph.n, kind="enumeration")
        if cost > args.budget_ms:
            raise ValueError(
                f"cancel on {args.graph}: nominal cost {cost} ms exceeds --budget-ms {args.budget_ms}"
            )
        runs = [instance(graph, lam, args.graph, args.pendants, args.body)]
    else:
        runs = [
            instance(generalized_net(n, n, "pendant_first"), lam, f"GN({n},{n})")
            for n, lam in ((3, (2, 1, 1, 1, 1)), (4, (2, 1, 1, 1, 1, 1, 1)))
        ]
        if args.showcase:
            graph = generalized_net(6, 6, "pendant_first")
            cost = nominal_cost_ms(graph.n, kind="enumeration")
            if cost <= args.budget_ms:
                runs.append(instance(graph, (2, 2, 1, 1, 1, 1, 1, 1, 1, 1), "GN(6,6)"))
            else:
                print(
                    f"skipping GN(6,6) showcase: nominal cost {cost} ms "
                    f"exceeds --budget-ms {args.budget_ms}",
                    file=sys.stderr,
                )
    return [run_cancellation_check(g, lam, p, b, label=label) for g, lam, p, b, label in runs]


def _all_reports(args) -> list[VerificationReport]:
    """Every suite at its default bounds, under the given --jobs and --budget-ms."""
    parser = _build_parser()
    reports = []
    for command in SUITE_COMMANDS:
        argv = ["--jobs", str(args.jobs), "--budget-ms", str(args.budget_ms), command]
        suite_args = parser.parse_args(argv)
        reports += suite_args.run(suite_args)
    return reports


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
        reports = args.run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _emit_reports(reports, args)


if __name__ == "__main__":
    sys.exit(main())
