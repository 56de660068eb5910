import argparse
import csv
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from chromatic_schur.cli import _build_parser, main, parse_graph_shorthand, parse_partition_text
from chromatic_schur.graphs import generalized_net, star_graph


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_graph_shorthands():
    assert len(parse_graph_shorthand("K(4)").edges) == 6
    assert parse_graph_shorthand("K(1,3)") == star_graph(3)
    assert len(parse_graph_shorthand("P(4)").edges) == 3
    assert parse_graph_shorthand("GN(4,2)") == generalized_net(4, 2, "pendant_first")
    assert parse_graph_shorthand("GN(4,2):pendant_last") == generalized_net(4, 2, "pendant_last")
    g = parse_graph_shorthand("GN(4,2)+P1")
    assert g.n == 7 and len(g.edges) == 8
    g = parse_graph_shorthand("GS(3,[2,1])+P2")
    assert g.n == 8 and g.adjacent(7, 8)
    assert parse_graph_shorthand("GS(3,[])").n == 3


def test_parse_graph_shorthand_errors():
    for bad in ("GN(2,3)", "K(2,2)", "Q(3)", "GN(3,1)+P7", "GN(3,1):zigzag"):
        with pytest.raises(ValueError):
            parse_graph_shorthand(bad)


def test_parse_partition_text():
    assert parse_partition_text("2,1,1") == (2, 1, 1)
    assert parse_partition_text("[2,1,1]") == (2, 1, 1)
    assert parse_partition_text("") == ()
    with pytest.raises(ValueError):
        parse_partition_text("1,2")


def test_expand_json_positive_net(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "expand", "--graph", "GN(3,3)")
    assert code == 0
    payload = json.loads(out)
    assert payload["basis"] == "schur"
    assert all(int(entry["value"]) >= 0 for entry in payload["coeffs"])


def test_expand_json_claw_negative_entry(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "expand", "--graph", "K(1,3)")
    assert code == 0
    payload = json.loads(out)
    assert {"partition": [2, 2], "value": "-1"} in payload["coeffs"]


def test_expand_text_and_csv(capsys):
    code, out, _ = run_cli(capsys, "expand", "--graph", "K(3)")
    assert code == 0 and "[1, 1, 1]: 6" in out
    code, out, _ = run_cli(capsys, "--format", "csv", "expand", "--graph", "K(3)")
    assert code == 0 and out.splitlines()[0] == "partition,value"


def test_expand_methods_agree(capsys):
    outputs = set()
    for method in ("tabloid", "grouped", "oracle"):
        code, out, _ = run_cli(
            capsys, "--format", "json", "expand", "--graph", "GN(3,2)", "--method", method
        )
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_expand_invalid_graph_exit_2(capsys):
    code, _, err = run_cli(capsys, "expand", "--graph", "GN(2,5)")
    assert code == 2 and "not properly defined" in err


def test_expand_oversized_graph_exit_2(capsys):
    # 28 vertices are past the cap of the stable-partition type count, which
    # refuses before it allocates its table of vertex subsets; the oracle
    # route checks its own, lower cap before the type count, so P(24) and
    # GN(12,12), within the type count's cap, do not build a Kostka table
    # of degree 24
    for argv, message in (
        (("--graph", "GN(14,14)"), "28 vertices exceed the cap of 24"),
        (("--graph", "GN(20,20)", "--method", "oracle"), "40 vertices exceed the cap of 22 on the oracle route"),
        (("--graph", "P(24)", "--method", "oracle"), "24 vertices exceed the cap of 22 on the oracle route"),
        (("--graph", "GN(12,12)", "--method", "oracle"), "24 vertices exceed the cap of 22 on the oracle route"),
    ):
        started = time.perf_counter()
        code, out, err = run_cli(capsys, "expand", *argv)
        assert time.perf_counter() - started < 1, argv
        assert code == 2 and out == ""
        assert message in err


def test_expand_tabloid_route_oversized_graph_exit_2(capsys):
    # the tabloid route's DP reaches up to 2^n remaining-vertex sets, so it
    # refuses 20 vertices before it builds its stable-set table; GN(30,30)
    # is refused by the shorthand bound before any graph is built
    for graph, message in (
        ("GN(10,10)", "20 vertices exceed the cap of 18 on the tabloid route"),
        ("GN(30,30)", "30 in 'GN(30,30)' exceeds 24"),
    ):
        started = time.perf_counter()
        code, out, err = run_cli(capsys, "expand", "--graph", graph, "--method", "tabloid")
        assert time.perf_counter() - started < 1, graph
        assert code == 2 and out == ""
        assert message in err


def test_shorthand_numbers_are_bounded_before_the_graph_is_built(capsys):
    # a number above 24 alone puts the graph past every route's cap; a path
    # on 200000 vertices would take gigabytes of adjacency masks to build,
    # and 5000 digits are past the interpreter's limit for int()
    for number in ("200000", "9" * 5000):
        started = time.perf_counter()
        code, out, err = run_cli(capsys, "expand", "--graph", f"P({number})")
        assert time.perf_counter() - started < 1
        assert code == 2 and out == ""
        assert f"{number} in 'P({number})' exceeds 24" in err
    assert parse_graph_shorthand("P(0024)").n == 24


def test_f_table_text(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "f-table", "--bound", "4")
    assert code == 0
    assert "f(C,D) for C+D <= 4" in out
    assert "failures: 0" in out
    # f(4,0) is read by the even-axis identity alone, so exactly that one breaks
    from chromatic_schur import verify

    f = verify.f_coefficient
    monkeypatch.setattr(verify, "f_coefficient", lambda c, d: f(c, d) + ((c, d) == (4, 0)))
    code, out, _ = run_cli(capsys, "f-table", "--bound", "4")
    assert code == 1
    assert out.splitlines()[-2:] == [
        "identities checked: 15, failures: 1",
        '  FAIL {"C": 4, "D": 0, "kind": "even-axis"} lhs=25 rhs=24',
    ]


def test_f_table_expected_values(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "f-table", "--bound", "6")
    assert code == 0
    report = json.loads(out)["reports"][0]
    values = {
        (i["params"]["C"], i["params"]["D"]): i["value"]
        for i in report["instances"]
        if i["params"]["kind"] == "value"
    }
    assert values[2, 0] == 2 and values[4, 0] == 24 and values[6, 0] == 720
    assert values[1, 0] == 0 and values[3, 0] == 0 and values[5, 0] == 0
    assert report["failures"] == []


def test_suites_exit_zero(capsys):
    for argv in (
        ["net-rec", "--n-max", "2"],
        ["spider-rec", "--n-max", "3"],
        ["structure", "--bound", "4"],
        ["positivity", "--n-max", "2"],
        ["open-coeffs", "--n-max", "3"],
        ["cancel"],
    ):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, f"{argv} -> {out}"


def test_positivity_budget_skips_in_text(capsys):
    code, out, _ = run_cli(capsys, "--budget-ms", "100", "positivity")
    lines = out.splitlines()
    assert code == 0 and lines[0] == "net-positivity: PASS (15 instances, 7 skipped)"
    assert len(lines) == 8 and all(line.startswith("  SKIP {") for line in lines[1:])


def test_failed_identity_reaches_every_output(capsys, monkeypatch):
    # shift xi on GN(2,2), which only the left sides of net-rec --n-max 2 ask
    # about, so exactly its three instances fail
    from chromatic_schur import verify

    code, out, _ = run_cli(capsys, "--format", "json", "net-rec", "--n-max", "2")
    clean = json.loads(out)["reports"][0]["instances"]
    perturbed = [i for i in clean if i["params"]["n"] == i["params"]["m"] == 2]
    assert code == 0 and len(perturbed) == 3
    target = generalized_net(2, 2, "pendant_first")
    xi = verify.xi
    monkeypatch.setattr(verify, "xi", lambda lam, graph: xi(lam, graph) + (graph == target))

    code, out, _ = run_cli(capsys, "--format", "json", "net-rec", "--n-max", "2")
    report = json.loads(out)["reports"][0]
    assert code == 1
    assert report["failures"] == [
        {"parameters": i["params"], "lhs": i["lhs"] + 1, "rhs": i["rhs"]} for i in perturbed
    ]
    assert report["instances_checked"] == len(clean)

    code, out, _ = run_cli(capsys, "net-rec", "--n-max", "2")
    lines = out.splitlines()
    assert code == 1 and lines[0] == f"net-recurrence: FAIL ({len(clean)} instances)"
    assert lines[1:] == [
        f"  FAIL {json.dumps(i['params'], sort_keys=True)} lhs={i['lhs'] + 1} rhs={i['rhs']}"
        for i in perturbed
    ]

    code, out, _ = run_cli(capsys, "--format", "csv", "net-rec", "--n-max", "2")
    rows = list(csv.reader(out.splitlines()[1:]))
    failed = [json.loads(row[1]) for row in rows if row[2] == "fail"]
    assert code == 1 and failed == [i["params"] for i in perturbed]
    assert all(row[2] == "pass" for row in rows if json.loads(row[1]) not in failed)

def test_cancel_with_explicit_instance(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json", "cancel", "--graph", "GN(3,3)", "--partition", "2,1,1,1,1"
    )
    assert code == 0
    report = json.loads(out)["reports"][0]
    assert report["statement_id"] == "head-group-cancellation"
    assert report["failures"] == []


def test_cancel_gn66_runs_at_the_default_budget(capsys):
    argv = ("cancel", "--graph", "GN(6,6)", "--partition", "2,2,1,1,1,1,1,1,1,1")
    code, out, _ = run_cli(capsys, "--format", "json", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e276d1f78abfaf0f1e59a338bf8a3c6e41e126b494a449c30ec9a2138087e08b"
    )
    (report,) = json.loads(out)["reports"]
    assert report["instances"][0]["params"]["graph"] == "GN(6,6)"
    assert len(report["instances"]) == 2040
    assert sum(i["head_class_size"] for i in report["instances"]) == 466_195_680
    # the 12-vertex instance is priced at 2000 ms
    code, out, err = run_cli(capsys, "--format", "json", "--budget-ms", "1000", *argv)
    assert code == 2 and out == ""
    assert "2000 ms" in err


def test_cancel_explicit_instance_over_budget_exit_2(capsys):
    # a 17-vertex net is priced far above the default budget and refused before any work
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "cancel", "--graph", "GN(9,8)", "--partition", "2" + ",1" * 15)
    assert time.perf_counter() - started < 1
    assert code == 2 and out == ""
    assert "nominal cost 100000000 ms exceeds --budget-ms 30000" in err


def test_jobs_below_one_exit_2(capsys):
    # fewer than one worker is refused, not run sequentially
    for jobs in ("0", "-3"):
        code, out, err = run_cli(capsys, "--jobs", jobs, "net-rec", "--n-max", "1")
        assert code == 2 and out == "" and "--jobs must be at least 1" in err


def test_negative_budget_exit_2(capsys):
    # a negative budget is refused, not taken to skip every gated instance
    code, out, err = run_cli(capsys, "--budget-ms", "-1", "open-coeffs")
    assert code == 2 and out == "" and "--budget-ms must be nonnegative" in err


def test_cancel_mis_sized_shape_exit_2(capsys):
    for shape in ("2,1,1", "1,1"):
        code, out, err = run_cli(capsys, "cancel", "--graph", "GN(3,3)", "--partition", shape)
        assert code == 2 and out == "" and "size" in err


def test_cancel_needs_both_instance_options_exit_2(capsys):
    for argv in (["--graph", "GN(3,3)"], ["--partition", "2,1,1,1,1"]):
        code, out, err = run_cli(capsys, "cancel", *argv)
        assert code == 2 and out == "", argv
        assert "cancel needs both --graph and --partition, or neither" in err, argv


def test_timing_reports_the_measured_wall_time(capsys):
    # the measured time shows only under --timing; without it the report stays 0
    code, out, _ = run_cli(capsys, "--timing", "net-rec", "--n-max", "2")
    assert code == 0
    assert re.search(r", \d+ ms\)$", out.splitlines()[0]), out
    code, out, _ = run_cli(capsys, "--timing", "--format", "json", "net-rec", "--n-max", "2")
    wall = json.loads(out)["reports"][0]["wall_time_ms"]
    assert code == 0 and type(wall) is int and wall >= 0
    code, out, _ = run_cli(capsys, "--format", "json", "net-rec", "--n-max", "2")
    assert code == 0 and json.loads(out)["reports"][0]["wall_time_ms"] == 0
    code, out, _ = run_cli(capsys, "net-rec", "--n-max", "2")
    assert code == 0 and not out.splitlines()[0].endswith(" ms)")


def test_cancel_outside_its_hypothesis_exit_2(capsys):
    # the claim holds for pendant-first nets; a pendant-last net, a net
    # with an isolated vertex and a spider are refused before any work, and
    # the pendant and body sets are no longer options
    for graph, shape in (
        ("GN(3,3):pendant_last", "2,1,1,1,1"),
        ("GN(3,2)+P1", "2,1,1,1,1"),
        ("GS(4,[2,1,1])", "2,2,1,1,1,1"),
    ):
        started = time.perf_counter()
        code, out, err = run_cli(capsys, "--format", "json", "cancel", "--graph", graph, "--partition", shape)
        assert time.perf_counter() - started < 1, graph
        assert code == 2 and out == "", graph
        assert "pendant-first generalized net" in err
    with pytest.raises(SystemExit) as exited:
        main(["cancel", "--graph", "GN(3,3)", "--partition", "2,1,1,1,1", "--pendants=", "--body="])
    assert exited.value.code == 2
    assert "unrecognized arguments: --pendants= --body=" in capsys.readouterr().err


def test_json_reports_byte_identical(capsys):
    code1, out1, _ = run_cli(capsys, "--format", "json", "net-rec", "--n-max", "3")
    code2, out2, _ = run_cli(capsys, "--format", "json", "net-rec", "--n-max", "3")
    assert code1 == code2 == 0
    assert out1 == out2


def test_singleton_removal_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "singleton-removal", "--bound", "3")
    assert code == 0 and out.startswith("singleton-removal: PASS")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_all_runs_every_suite(capsys, monkeypatch, jobs):
    # the pooled suites give the same bytes as the serial ones; two workers
    # even on a one-CPU or pinned host
    monkeypatch.setattr("chromatic_schur.verify._usable_cpus", lambda: 2)
    code, out, _ = run_cli(capsys, "--jobs", jobs, "--format", "json", "all")
    assert code == 0
    assert [r["statement_id"] for r in json.loads(out)["reports"]] == [
        "net-recurrence",
        "spider-recurrence",
        "net-structure",
        "singleton-removal",
        "head-group-cancellation",
        "head-group-cancellation",
        "net-positivity",
        "f-table",
        "open-spider-coefficients",
    ]
    # a change that alters report output on purpose updates this digest
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "c9ef7a4ea9c6983cb0dab9c59e43ac10c3d125b89fc063e07a1374af48e1431c"
    )


def test_all_matches_the_suite_commands_one_at_a_time(capsys):
    # `all` is the eight suite commands at their defaults, concatenated in order
    def reports(*argv):
        code, out, _ = run_cli(capsys, "--jobs", "1", "--format", "json", *argv)
        assert code == 0, argv
        return json.loads(out)["reports"]

    one_at_a_time = []
    for command in (
        "net-rec",
        "spider-rec",
        "structure",
        "singleton-removal",
        "cancel",
        "positivity",
        "f-table",
        "open-coeffs",
    ):
        one_at_a_time += reports(command)
    assert reports("all") == one_at_a_time


@pytest.mark.slow
def test_expand_json_digests(capsys):
    # the same bytes the tabloid route gave when it was the default; at 16
    # and 17 vertices the oracle route must give them too
    oracle_checked = ("GN(8,8)", "GS(8,[2,1,1,1,1,1,1,1])")
    for graph, digest in (
        ("GN(6,6)", "13aab5ebeb745821af2493829fec33d578a912c57168e89eea1a1e1eb4f3b1f0"),
        ("GS(6,[2,1,1,1,1])", "9d1faa436c1c4bf381d4c478a255ceef97f4f8477ea7d7016c7caa3f8aeb30cb"),
        ("P(12)", "3eb3dba7fe1a7684a1c950a266d25e8b3ac84704fc3d85f809a6cc9072635fb9"),
        ("GN(8,8)", "35afef587caf56269f026fa9232e86e2a68be085cecdb7a9341164eaa77e1280"),
        (
            "GS(8,[2,1,1,1,1,1,1,1])",
            "dbb4a2a3da3a0dac0d883f44b4c36c3c474cb120fe814ec0a2b70e6ede3117f6",
        ),
    ):
        for route in ((), ("--method", "oracle")) if graph in oracle_checked else ((),):
            code, out, _ = run_cli(capsys, "--format", "json", "expand", "--graph", graph, *route)
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest, (graph, route)


@pytest.mark.parametrize(
    "argv",
    [
        ["net-rec", "--n-max", "13"],
        ["spider-rec", "--n-max", "12"],
        ["structure", "--bound", "25"],
        ["singleton-removal", "--bound", "13"],
        ["positivity", "--n-max", "13"],
        ["f-table", "--bound", "13"],
        ["--budget-ms", "1000000000", "positivity", "--n-max", "12"],
        ["--budget-ms", "1000000000", "open-coeffs", "--n-max", "12"],
    ],
)
def test_suite_bound_past_the_type_cap_exit_2_before_any_work(capsys, monkeypatch, argv):
    # each is the first bound whose largest graph has more than 24 vertices,
    # so it is refused before any of its smaller instances runs
    def no_count(key):
        raise AssertionError("a type count ran")

    monkeypatch.setattr("chromatic_schur.graphs._types_for", no_count)
    started = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - started < 1
    assert code == 2 and out == ""
    assert re.search(r"error: 2[56] vertices exceed the cap of 24 on stable-partition types", err), err


def test_crash_exits_3_not_1(capsys, monkeypatch):
    # exit 1 means a verified identity failed; a worker that dies, or a fork
    # that fails, is the program's own failure
    from chromatic_schur import verify

    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(verify, "_answer", lambda fn, params, write_fd: os._exit(9))
    code, out, err = run_cli(capsys, "--jobs", "2", "net-rec", "--n-max", "3")
    assert code == 3 and out == ""
    assert err.startswith("Traceback") and "exited with status 9 without answering" in err

    pipes = []
    pipe = os.pipe

    def recorded_pipe():
        pipes.append(pipe())
        return pipes[-1]

    def failing_fork():
        raise OSError("no process left")

    monkeypatch.setattr(os, "pipe", recorded_pipe)
    monkeypatch.setattr(os, "fork", failing_fork)
    code, out, err = run_cli(capsys, "--jobs", "2", "net-rec", "--n-max", "3")
    assert code == 3 and out == ""
    assert "OSError: no process left" in err
    # the failed fork's pipe is closed at both ends
    assert len(pipes) == 1
    for fd in pipes[0]:
        with pytest.raises(OSError):
            os.fstat(fd)


def test_readme_examples_parse():
    # every command in README's Examples block, as written
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("Examples:\n\n```sh\n", 1)[1].split("```", 1)[0]
    parser = _build_parser()
    for line in block.splitlines():
        prog, *argv = shlex.split(line, comments=True)
        assert prog == "chromatic-schur", line
        parser.parse_args(argv)
    assert len(block.splitlines()) == 7


def test_seed_option_removed(capsys):
    with pytest.raises(SystemExit):
        main(["--seed", "17", "net-rec", "--n-max", "1"])


def test_cli_import_loads_no_executor_or_dataclasses():
    # start-up pays neither for a process pool, which only --jobs above 1
    # needs, nor for dataclasses and the inspect module it imports; -S keeps
    # site-installed path hooks out of the count
    import chromatic_schur

    heavy = ("concurrent.futures", "multiprocessing", "dataclasses", "inspect")
    code = f"import sys, chromatic_schur.cli; print([m for m in {heavy!r} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(chromatic_schur.__file__))}
    run = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"


def settable_option_count(parser=None) -> int:
    """Every option a user can set, on the main parser and on each command,
    help excluded.  CI prints it from here."""
    if parser is None:
        parser = _build_parser()
    total = 0
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            total += sum(settable_option_count(sub) for sub in action.choices.values())
        elif action.option_strings and not isinstance(action, argparse._HelpAction):
            total += 1
    return total


def test_settable_option_count_is_pinned():
    # a change that adds or drops an option updates the pin
    assert settable_option_count() == 15


def test_csv_rows(capsys):
    code, out, _ = run_cli(capsys, "--format", "csv", "net-rec", "--n-max", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "statement_id,instance,status,lhs,rhs,detail"
    assert len(lines) > 2 and all(line.startswith("net-recurrence,") for line in lines[1:])
