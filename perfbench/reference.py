"""Reference mode: rebuild the baseline table of ROADMAP.md with one command.

    python3 perfbench/run.py --reference

Outside the timed workloads and slow (about four minutes on two cores).  Each
figure comes from its own cold process; answers are checked as in the
workloads.  Prints a Markdown table for the README.
"""

from __future__ import annotations

import json

import checks
from checks import Tally

EXPANSIONS = (
    ("GN(5,5)", checks.net(5, 5)),
    ("GN(6,6)", checks.net(6, 6)),
    ("GN(7,7)", checks.net(7, 7)),
    ("P(14)", checks.path(14)),
)
KOSTKA_DEGREES = (10, 11, 12)
CANCEL = ("GN(5,5)", checks.net(5, 5), (2, 2, 1, 1, 1, 1, 1, 1))


def launch(runner, spec: dict) -> dict:
    _, out = runner.launch(spec)
    if out is None:
        raise SystemExit(f"reference job failed: {spec}")
    return out


def main(runner) -> int:
    tally = Tally()
    rows = []
    for shorthand, graph in EXPANSIONS:
        out = launch(runner, {"kind": "cli", "argv": ["--format", "json", "expand", "--graph", shorthand]})
        vec = json.loads(out["payload"]["stdout"])
        coeffs = {tuple(e["partition"]): int(e["value"]) for e in vec["coeffs"]}
        checks.check_expansion(tally, shorthand, coeffs, graph, shorthand.startswith("GN"))
        rows.append((f"tabloid route, full expansion of {shorthand}", out["done"] - out["ready"], "s"))
    out = launch(runner, {"kind": "layer", "layer": "kostka", "degrees": list(KOSTKA_DEGREES)})
    for degree in KOSTKA_DEGREES:
        rows.append((f"kostka_matrix({degree})", out["payload"]["figures"][f"tableaux.kostka_{degree}"], "s"))
    shorthand, graph, lam = CANCEL
    argv = ["--format", "json", "cancel", "--graph", shorthand, "--partition", ",".join(map(str, lam))]
    out = launch(runner, {"kind": "cli", "argv": argv})
    (report,) = json.loads(out["payload"]["stdout"])["reports"]
    checks.check_report(tally, "cancel", report, None)
    visited = checks.check_cancel(tally, report, graph, lam)
    seconds = out["done"] - out["ready"]
    rows.append((f"cancel on {shorthand}, shape {lam}: G-tabloids visited", visited, "count"))
    rows.append(("  streaming rate", visited / seconds, "1/s"))
    print("| measurement | value | unit |")
    print("|---|---|---|")
    for name, value, unit in rows:
        print(f"| {name} | {value:.4g} | {unit} |")
    print(f"checks: {tally.attempted} attempted, {tally.failed} failed")
    for message in tally.messages:
        print(f"check failed: {message}")
    return 0 if tally.failed == 0 else 1
