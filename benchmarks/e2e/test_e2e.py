"""Checks of the end-to-end benchmark harness itself.

Runs ``--smoke`` once (under 30 s) and checks that every metric it prints
is declared in ``BENCHMARK.json``, that metric names are well formed,
that a corrupted result counts as failed, and that the trace's self
times account for the traced run's whole wall time.

    python -m pytest benchmarks/e2e/test_e2e.py -q
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402
from benchmarks.e2e import __main__ as bench  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {metric["name"]: metric for metric in SPEC["end_to_end"]}
LAYERS = {metric["name"]: metric for metric in SPEC["per_layer"]}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "result.json"
    completed = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--smoke", "--out", str(out)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    return completed.stdout, json.loads(out.read_text())


def test_printed_metrics_match_benchmark_json(smoke):
    stdout, result = smoke
    printed = {}
    for line in stdout.splitlines():
        match = re.match(r"^  (\S+) +\S+ (\S+) +(best of|traced run)", line)
        if match:
            printed.setdefault(match.group(1), set()).add(match.group(2))
    declared = {**E2E, **LAYERS}
    assert set(printed) == set(declared)
    for name, units in printed.items():
        assert units == {declared[name]["unit"]}, name
    assert set(result["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    for summary in result["workloads"].values():
        assert summary["failed"] == 0 and not summary["problems"]
        assert set(summary["metrics"]) == set(E2E)
        assert set(summary["layers"]) == set(LAYERS)
    assert result["host"]["nproc"] >= 1


def test_metric_and_workload_names_are_well_formed():
    names = [w["name"] for w in SPEC["workloads"]] + list(E2E) + list(LAYERS)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    assert set(workloads.WORKLOADS) == {w["name"] for w in SPEC["workloads"]}


def test_corrupted_atpg_result_fails_its_checks():
    workload = workloads.WORKLOADS["atpg_mac4x16"]
    state = workload.setup(workload.smoke, 1)
    result = workload.flow(state)
    assert workload.check(state, result) == []
    assert workload.verify(state, result) == []
    result.detected_deterministic += 1
    assert workload.check(state, result)
    assert workload.verify(state, result)


class FakeChild:
    """Stands in for ``run_child``: each run takes ``seconds`` on ``clock``."""

    def __init__(self, fingerprints, seconds=1.5):
        self.fingerprints = iter(fingerprints)
        self.seconds = seconds
        self.clock = 0.0

    def __call__(self, request):
        self.clock += self.seconds
        record = {
            "wall_s": 1.0, "setup_s": 0.5, "peak_rss_mb": 10.0, "faults": 100,
            "fault_coverage": 90.0, "test_coverage": 95.0, "patterns": 7,
            "fingerprint": next(self.fingerprints), "problems": [],
        }
        return record, self.seconds, ""


def test_run_with_diverging_outputs_counts_as_failed(monkeypatch):
    monkeypatch.setattr(bench, "run_child", FakeChild(["aaaa"] * 2 + ["bbbb"] * 3))
    args = bench.parse_args(["--trace", "0"], SPEC)
    summary = bench.measure("lbist_mac4x16", args, SPEC)
    assert (summary["attempted"], summary["failed"]) == (bench.RUNS, 3)
    assert len(summary["metrics"]["wall_s"]["values"]) == 2
    assert summary["outputs"] == {"fingerprint": "aaaa", "patterns": 7}
    line = bench.result_line(summary, SPEC, trace=False)
    assert line["correct"] is False and set(line["metrics"]) == set(E2E)


@pytest.mark.parametrize("budget, runs", [(5, 3), (13, 3), (17, 4), (40, 10)])
def test_seconds_budget_keeps_the_minimum_and_stops_before_overrunning(
    monkeypatch, budget, runs
):
    child = FakeChild(["aaaa"] * 20, seconds=4.0)
    monkeypatch.setattr(bench, "run_child", child)
    monkeypatch.setattr(bench.time, "monotonic", lambda: child.clock)
    args = bench.parse_args(["--trace", "0", "--seconds", str(budget)], SPEC)
    assert bench.measure("edt_mac4x8", args, SPEC)["attempted"] == runs


def test_self_times_and_unattributed_time_sum_to_wall_time(smoke):
    _, result = smoke
    for name, summary in result["workloads"].items():
        trace = json.loads((HERE / "out" / f"trace_{name}.json").read_text())
        spans = trace["spans"]
        root = spans[0]
        wall = root["end_s"] - root["start_s"]
        assert math.isclose(sum(span["self_s"] for span in spans), wall, rel_tol=1e-9)
        assert all(span["self_s"] > -1e-9 for span in spans)
        unattributed = summary["layers"]["trace.unattributed_frac"]
        assert math.isclose(root["self_s"] / wall, unattributed, rel_tol=1e-6)


def test_self_times_subtract_children_only_once():
    spans = [
        ["run", 0.0, 10.0, None, None],
        ["atpg.flow", 1.0, 9.0, 0, None],
        ["atpg.podem", 2.0, 5.0, 1, "detected"],
        ["sim.faultsim.single", 5.0, 6.0, 1, None],
    ]
    assert tracing.self_times(spans) == [2.0, 4.0, 3.0, 1.0]


@pytest.mark.parametrize(
    "before, after, verdict",
    [
        ([10.0, 10.1, 9.9, 10.0, 10.05], [10.2, 10.3, 10.1, 10.2, 10.25], "unchanged"),
        ([10.0, 10.1, 9.9, 10.0, 10.05], [12.0, 12.1, 11.9, 12.0, 12.05], "worse"),
        ([10.0, 10.1, 9.9, 10.0, 10.05], [8.0, 8.1, 7.9, 8.0, 8.05], "better"),
        ([8.0, 12.0, 9.0, 11.0, 10.0], [10.5, 8.5, 12.5, 9.5, 10.2], "unresolved"),
        ([10.0], [20.0], "unresolved"),
        ([10.0, 10.0], [5.0, 5.0], "unresolved"),
    ],
)
def test_compare_verdicts(before, after, verdict):
    metric = {"name": "wall_s", "better": "lower", "bound": 0.1}
    assert bench.judge(before, after, metric)[0] == verdict


def test_reported_value_is_the_best_run():
    assert bench.best([3.0, 1.0, 2.0], E2E["wall_s"]) == 1.0
    assert bench.best([3.0, 1.0, 2.0], E2E["faults_per_s"]) == 3.0


@pytest.mark.parametrize(
    "before, after, verdict",
    [
        ([95.8] * 3, [95.8] * 3, "unchanged"),
        ([95.8] * 3, [95.7] * 3, "worse"),
        ([95.8], [95.9], "better"),
    ],
)
def test_coverage_is_compared_exactly(before, after, verdict):
    assert bench.judge(before, after, E2E["fault_coverage"])[0] == verdict


def _result_file(path, coverage=95.8, patterns=80, fingerprint="aaaa"):
    metrics = {name: {"values": [1.0, 1.0, 1.0]} for name in E2E}
    metrics["fault_coverage"] = {"values": [coverage] * 3}
    outputs = {"fingerprint": fingerprint, "patterns": patterns}
    summary = {"metrics": metrics, "outputs": outputs}
    path.write_text(json.dumps({"workloads": {"edt_mac4x8": summary}}))
    return str(path)


@pytest.mark.parametrize(
    "change, status, last_verdict",
    [
        ({}, 0, "identical"),
        ({"fingerprint": "bbbb"}, 0, "changed"),
        ({"coverage": 95.7}, 1, "identical"),
        ({"patterns": 81}, 1, "identical"),
    ],
)
def test_compare_exit_status(tmp_path, capsys, change, status, last_verdict):
    baseline = _result_file(tmp_path / "a.json")
    current = _result_file(tmp_path / "b.json", **change)
    assert bench.main(["compare", baseline, current]) == status
    assert capsys.readouterr().out.split()[-1] == last_verdict
