"""Benchmark regression comparator (``repro.obs.regress``) and the
``repro obs diff/gate/tail`` CLI family.

The comparator is the repo's performance memory: it must flag a genuine
2x wall-time slip (the acceptance criterion), stay silent across noisy
replicates of an identical workload, and treat any drift of a
deterministic work counter — even in a single replicate — as a failure.
"""

import copy
import json

import pytest

from repro.cli import EXIT_REGRESSION, main
from repro.obs.report import RunReport
from repro.obs.regress import (
    Finding,
    RegressConfig,
    Sample,
    collect_samples,
    compare_paths,
    compare_reports,
    failures,
    pair_bench_files,
)
from repro.sim.store import CampaignKey, ShardStore


def _bench_report(rows, counters=None, name="bench.widesim"):
    metrics = {}
    if counters:
        metrics = {
            "counters": {
                key: {"kind": "counter", "value": value, "labels": {}}
                for key, value in counters.items()
            }
        }
    return RunReport(
        name=name, payload={"rows": rows}, metrics=metrics, generated_unix_s=1.0
    )


def _replicated_rows(base_wall=1.0, events=5000, n=5, jitter=0.01):
    return [
        {
            "name": f"e3_x{i}",
            "wall_time_s": base_wall + jitter * i,
            "events_propagated": events,
        }
        for i in range(n)
    ]


class TestSample:
    def test_median_odd_and_even(self):
        assert Sample([3.0, 1.0, 2.0]).median == 2.0
        assert Sample([1.0, 2.0, 3.0, 10.0]).median == 2.5

    def test_mad_is_robust_to_one_outlier(self):
        steady = Sample([1.0, 1.01, 0.99, 1.0, 100.0])
        assert steady.median == 1.0
        assert steady.mad == pytest.approx(0.01, abs=1e-9)


class TestFlattenAndGrouping:
    def test_replicates_group_under_one_path(self):
        report = _bench_report(_replicated_rows())
        samples = collect_samples(report)
        sample = samples["payload.rows[name=e3].wall_time_s"]
        assert len(sample.values) == 5
        assert sample.median == pytest.approx(1.02)

    def test_discriminators_beat_list_indices(self):
        rows = [
            {"word_width": 64, "wall_time_s": 2.0},
            {"word_width": 1024, "wall_time_s": 0.5},
        ]
        samples = collect_samples(_bench_report(list(reversed(rows))))
        assert "payload.rows[word_width=64].wall_time_s" in samples
        assert "payload.rows[word_width=1024].wall_time_s" in samples

    def test_metrics_counters_flatten_too(self):
        report = _bench_report([], counters={"faultsim.runs": 7})
        samples = collect_samples(report)
        assert samples["metrics.faultsim.runs"].median == 7

    def test_booleans_are_not_numbers(self):
        report = _bench_report([{"name": "r", "ok": True, "wall_time_s": 1.0}])
        assert not any("ok" in path for path in collect_samples(report))


class TestCompareReports:
    def test_identical_replicate_envelopes_pass(self):
        base = _bench_report(_replicated_rows())
        cur = _bench_report(copy.deepcopy(_replicated_rows()))
        assert failures(compare_reports(base, cur)) == []

    def test_2x_wall_time_regression_fails(self):
        rows = _replicated_rows()
        slow = copy.deepcopy(rows)
        for row in slow:
            row["wall_time_s"] *= 2.0
        findings = failures(
            compare_reports(_bench_report(rows), _bench_report(slow))
        )
        assert len(findings) == 1
        assert findings[0].kind == "wall"
        assert findings[0].ratio == pytest.approx(2.0)

    def test_noise_within_mad_band_passes(self):
        """Replicate-scale jitter must not trip the gate."""
        rows = _replicated_rows(base_wall=1.0, jitter=0.05)
        wobble = copy.deepcopy(rows)
        for index, row in enumerate(wobble):
            row["wall_time_s"] += 0.03 * ((-1) ** index)
        assert failures(
            compare_reports(_bench_report(rows), _bench_report(wobble))
        ) == []

    def test_improvement_is_info_not_failure(self):
        rows = _replicated_rows()
        fast = copy.deepcopy(rows)
        for row in fast:
            row["wall_time_s"] *= 0.25
        findings = compare_reports(_bench_report(rows), _bench_report(fast))
        assert failures(findings) == []
        wall = next(f for f in findings if f.kind == "wall")
        assert "improvement" in wall.note

    def test_counter_drift_in_one_replicate_fails(self):
        rows = _replicated_rows()
        drift = copy.deepcopy(rows)
        drift[3]["events_propagated"] += 1  # median-invisible
        findings = failures(
            compare_reports(_bench_report(rows), _bench_report(drift))
        )
        assert len(findings) == 1
        assert findings[0].kind == "counter"

    def test_counter_tolerance_allows_bounded_drift(self):
        rows = _replicated_rows(events=1000)
        drift = copy.deepcopy(rows)
        for row in drift:
            row["events_propagated"] = 1005
        config = RegressConfig(counter_tolerance=0.01)
        assert failures(
            compare_reports(_bench_report(rows), _bench_report(drift), config)
        ) == []

    def test_missing_gated_metric_fails(self):
        rows = _replicated_rows()
        gone = [
            {k: v for k, v in row.items() if k != "wall_time_s"}
            for row in copy.deepcopy(rows)
        ]
        findings = failures(
            compare_reports(_bench_report(rows), _bench_report(gone))
        )
        assert any(f.kind == "missing" for f in findings)

    def test_new_metric_is_informational(self):
        rows = _replicated_rows()
        extra = copy.deepcopy(rows)
        for row in extra:
            row["stitch_wall_s"] = 0.1
        findings = compare_reports(_bench_report(rows), _bench_report(extra))
        assert failures(findings) == []
        assert any(f.kind == "new" for f in findings)

    def test_abs_floor_ignores_microsecond_flap(self):
        rows = [{"name": "tiny", "wall_time_s": 0.0004}]
        slow = [{"name": "tiny", "wall_time_s": 0.0016}]  # 4x but 1.2ms
        assert failures(
            compare_reports(_bench_report(rows), _bench_report(slow))
        ) == []

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RegressConfig(wall_threshold=-0.1).validate()
        with pytest.raises(ValueError):
            RegressConfig(mad_k=-1).validate()
        with pytest.raises(ValueError):
            RegressConfig(counter_tolerance=-1).validate()
        for field in ("wall_threshold", "mad_k", "counter_tolerance"):
            for value in (float("nan"), float("inf")):
                with pytest.raises(ValueError, match="finite"):
                    RegressConfig(**{field: value}).validate()

    def test_finding_render_mentions_severity_and_ratio(self):
        finding = Finding(
            metric="payload.x.wall_time_s", kind="wall", severity="fail",
            baseline=1.0, current=2.0, note="regression",
        )
        text = finding.render()
        assert "[FAIL]" in text and "2.00x" in text and "regression" in text


class TestFilePairing:
    def _write(self, path, report):
        path.write_text(report.to_json() + "\n")

    def test_directory_pairing_by_name(self, tmp_path):
        base_dir, cur_dir = tmp_path / "base", tmp_path / "cur"
        base_dir.mkdir(), cur_dir.mkdir()
        report = _bench_report(_replicated_rows())
        self._write(base_dir / "BENCH_a.json", report)
        self._write(base_dir / "BENCH_b.json", report)
        self._write(cur_dir / "BENCH_a.json", report)
        pairs = pair_bench_files(str(base_dir), str(cur_dir))
        assert [(name, cur is not None) for name, _, cur in pairs] == [
            ("BENCH_a.json", True),
            ("BENCH_b.json", False),
        ]
        results = compare_paths(str(base_dir), str(cur_dir))
        assert failures(results["BENCH_b.json"])  # missing file fails

    def test_mixed_file_and_directory_rejected(self, tmp_path):
        report = _bench_report([])
        self._write(tmp_path / "BENCH_a.json", report)
        with pytest.raises(ValueError):
            pair_bench_files(str(tmp_path), str(tmp_path / "BENCH_a.json"))

    def test_empty_baseline_directory_rejected(self, tmp_path):
        (tmp_path / "base").mkdir(), (tmp_path / "cur").mkdir()
        with pytest.raises(ValueError):
            pair_bench_files(str(tmp_path / "base"), str(tmp_path / "cur"))


class TestObsCli:
    def _write_pair(self, tmp_path, factor=1.0):
        rows = _replicated_rows()
        base = tmp_path / "base.json"
        base.write_text(_bench_report(rows).to_json())
        scaled = copy.deepcopy(rows)
        for row in scaled:
            row["wall_time_s"] *= factor
        cur = tmp_path / "cur.json"
        cur.write_text(_bench_report(scaled).to_json())
        return str(base), str(cur)

    def test_gate_exit_zero_on_identical(self, tmp_path, capsys):
        base, cur = self._write_pair(tmp_path, factor=1.0)
        assert main(["obs", "gate", base, cur]) == 0
        assert "regression gate passed" in capsys.readouterr().out

    def test_gate_exit_code_on_2x_regression(self, tmp_path, capsys):
        base, cur = self._write_pair(tmp_path, factor=2.0)
        assert main(["obs", "gate", base, cur]) == EXIT_REGRESSION
        captured = capsys.readouterr()
        assert "REGRESSION GATE FAILED" in captured.err
        assert "[FAIL]" in captured.out

    def test_diff_always_exits_zero(self, tmp_path, capsys):
        base, cur = self._write_pair(tmp_path, factor=2.0)
        assert main(["obs", "diff", base, cur]) == 0
        assert "[FAIL]" in capsys.readouterr().out

    def _write_counter_drift(self, tmp_path):
        base = tmp_path / "base.json"
        base.write_text(_bench_report(_replicated_rows()).to_json())
        cur = tmp_path / "cur.json"
        cur.write_text(_bench_report(_replicated_rows(events=6000)).to_json())
        return str(base), str(cur)

    def test_gate_fails_counter_drift_at_zero_tolerance(self, tmp_path):
        base, cur = self._write_counter_drift(tmp_path)
        assert main(["obs", "gate", base, cur, "--counter-tolerance", "0"]) == (
            EXIT_REGRESSION
        )

    @pytest.mark.parametrize("flag", ["--counter-tolerance", "--mad-k"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_gate_rejects_nonfinite_tolerance(self, tmp_path, capsys, flag, value):
        # NaN and inf would widen the band until every drift passes.
        base, cur = self._write_counter_drift(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["obs", "gate", base, cur, flag, value])
        assert excinfo.value.code == 2
        assert "finite" in capsys.readouterr().err

    def test_gate_threshold_flag(self, tmp_path):
        base, cur = self._write_pair(tmp_path, factor=1.3)
        assert main(["obs", "gate", base, cur]) == 0  # default +50%
        assert (
            main(["obs", "gate", base, cur, "--threshold", "0.1"])
            == EXIT_REGRESSION
        )

    def test_gate_rejects_bad_paths(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        code = main(["obs", "gate", str(tmp_path), missing])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["diff", "gate"])
    def test_missing_report_exits_two(self, command, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        assert main(["obs", command, missing, missing]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read ") and err.count("\n") == 1

    def test_tail_reports_progress(self, tmp_path, capsys):
        store = ShardStore(str(tmp_path / "store"))
        store.initialize(
            CampaignKey("sig", "pat", "plan", seed=0, partitions=4, drop=True), 4
        )
        store.publish(
            {
                "index": 0,
                "patterns_simulated": 10,
                "firsts": [3, -1] * 25,
                "stats": {},
            }
        )
        assert main(["obs", "tail", store.root]) == 0
        out = capsys.readouterr().out
        assert "partitions 1/4 done" in out
        assert "faults graded 50" in out
        assert "detected 25" in out
        assert "campaign complete" not in out

    def test_tail_plain_file_exits_two(self, tmp_path, capsys):
        """Progress lives in a --store directory; a file is refused."""
        path = tmp_path / "campaign.jsonl"
        path.write_text("")
        assert main(["obs", "tail", str(path)]) == 2
        assert "--store" in capsys.readouterr().err


class TestBenchEnvelopeCompat:
    @pytest.mark.parametrize(
        "drift",
        [{"aborted": 5, "proved_untestable": -3}, {"implications": 1}],
        ids=["verdicts", "implications"],
    )
    def test_atpg_smoke_drift_fails_the_gate(self, tmp_path, drift):
        """ATPG verdicts and engine work are exact counters: a copy of the
        committed smoke envelope with shifted counts fails CI's gate."""
        import pathlib

        baseline = (
            pathlib.Path(__file__).resolve().parent.parent
            / "benchmarks" / "baselines" / "BENCH_atpg_smoke.json"
        )
        report = json.loads(baseline.read_text())
        for row in report["payload"]["rows"]:
            for leaf, delta in drift.items():
                row[leaf] += delta
        tampered = tmp_path / baseline.name
        tampered.write_text(json.dumps(report))
        argv = ["obs", "gate", str(baseline), str(tampered), "--threshold", "2.0"]
        assert main(argv) == EXIT_REGRESSION

    def test_committed_bench_files_are_comparable(self):
        """Every committed BENCH_*.json self-compares clean (gate idempotence)."""
        import pathlib

        bench_dir = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
        paths = sorted(bench_dir.glob("BENCH_*.json"))
        paths += sorted((bench_dir / "baselines").glob("BENCH_*.json"))
        assert paths, "expected committed BENCH_*.json envelopes under benchmarks/"
        for path in paths:
            report = RunReport.from_json(path.read_text())
            samples = collect_samples(report)
            assert samples, f"{path} flattened to no numeric samples"
            assert failures(compare_reports(report, report)) == [], str(path)
