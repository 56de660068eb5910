"""The benchmark's answer checks pass true answers and catch false ones.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py

Each test takes a real answer from the package, runs it through the same
job check a benchmark run uses, then perturbs one number and expects the
checks to report failed, wrong operations.  The package itself is not
changed.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
from chromatic_schur import generalized_net, schur_expansion  # noqa: E402
from chromatic_schur.verify import run_f_table_suite, run_net_recurrence_suite  # noqa: E402


def judge(job, payload):
    tally = checks.Tally()
    run.checked(job, {"payload": payload}, tally)
    return tally


def cli_payload(obj) -> dict:
    return {"exit": 0, "stdout": json.dumps(obj)}


def test_perturbed_expansion_is_a_failed_operation():
    job = run.expand_job("GN(3,3)", checks.net(3, 3), True)
    vec = schur_expansion(generalized_net(3, 3)).to_json_dict()
    assert judge(job, cli_payload(vec)).failed == 0

    bad = copy.deepcopy(vec)
    bad["coeffs"][0]["value"] = str(int(bad["coeffs"][0]["value"]) + 1)
    tally = judge(job, cli_payload(bad))
    assert tally.attempted == job.ops
    assert tally.failed >= 1 and tally.wrong == tally.failed


def test_negative_net_coefficient_is_caught():
    job = run.expand_job("GN(2,2)", checks.net(2, 2), True)
    vec = schur_expansion(generalized_net(2, 2)).to_json_dict()
    bad = copy.deepcopy(vec)
    bad["coeffs"].append({"partition": [4], "value": "-1"})
    tally = judge(job, cli_payload(bad))
    assert any("negative coefficient" in m for m in tally.messages)


def test_report_with_one_wrong_lhs_is_a_failed_operation():
    job = run.suite_job("net-rec")
    report = run_net_recurrence_suite(4).to_json_dict()
    assert judge(job, cli_payload({"reports": [report]})).failed == 0

    bad = copy.deepcopy(report)
    bad["instances"][7]["lhs"] += 1
    tally = judge(job, cli_payload({"reports": [bad]}))
    assert tally.attempted == job.ops
    assert tally.failed == 1 and tally.wrong == 1


def test_f_table_axis_off_its_closed_form_is_caught():
    job = run.suite_job("f-table")
    report = run_f_table_suite(6).to_json_dict()
    bad = copy.deepcopy(report)
    for inst in bad["instances"]:
        if inst["params"] == {"kind": "value", "C": 0, "D": 5}:
            inst["value"] += 1
    assert judge(job, cli_payload({"reports": [bad]})).failed == 1


def test_missing_answer_fails_every_declared_operation():
    job = run.suite_job("structure")
    tally = checks.Tally()
    run.checked(job, None, tally)
    assert tally.attempted == tally.failed == job.ops and tally.wrong == 0


def test_grids_and_formulas_on_known_values():
    assert [checks.partition_count(n) for n in range(8)] == [1, 1, 2, 3, 5, 7, 11, 15]
    assert checks.standard_tableaux((3, 2)) == 5
    assert checks.schur_at_ones((2, 1), 3) == 8
    # chi of the 4-cycle is (k-1)^4 + (k-1)
    n, edges = 4, [(1, 2), (2, 3), (3, 4), (1, 4)]
    assert checks.chromatic_values(n, edges, [3]) == {3: 18}
    assert checks.grid_net_rec(4) == 59 and checks.grid_f_table(6) == 56
