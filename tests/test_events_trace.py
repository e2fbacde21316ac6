"""Telemetry event streams and Chrome trace export (``repro.obs.events``,
``repro.obs.trace``).

Covers the cross-process round trip end to end: clock-skew stitching of
shipped payloads, JSONL side files (torn-line tolerance included), the
backend wiring that carries worker events home inside
``FaultSimResult.stats``, and the trace-event JSON the acceptance
criterion loads into Perfetto — one track per worker, instant markers
for store publishes and the failed shard that stopped a run, counter
series from heartbeats.
"""

import json

import pytest

from repro import obs
from repro.atpg.random_gen import random_patterns
from repro.circuit import generators
from repro.faults.collapse import collapse_faults
from repro.faults.stuck_at import full_fault_list
from repro.obs.events import (
    CRASH,
    HEARTBEAT,
    PARTITION_BEGIN,
    PARTITION_END,
    EventLog,
    TelemetryEvent,
    read_jsonl,
    stitch_payloads,
)
from repro.obs.report import RunReport
from repro.obs.trace import chrome_trace, write_chrome_trace
from repro.sim.faultsim import FaultSimulator
from repro.sim.store import ShardStore
from repro.sim.supervisor import ShardFailedError, SupervisedPoolBackend
from tests.worker_failures import failing_shards


def _campaign(seed=21, n_gates=40, n_patterns=96):
    netlist = generators.random_circuit(6, n_gates, seed=seed)
    faults, _ = collapse_faults(netlist, full_fault_list(netlist))
    simulator = FaultSimulator(netlist, cache=None)
    patterns = random_patterns(simulator.view.num_inputs, n_patterns, seed=seed)
    return simulator, patterns, faults


class TestTelemetryEvent:
    def test_roundtrip_omits_empty_fields(self):
        event = TelemetryEvent(
            kind=HEARTBEAT, name="progress", t_mono=1.5, t_wall=2.5, pid=7
        )
        payload = event.to_dict()
        assert "partition" not in payload and "args" not in payload
        assert TelemetryEvent.from_dict(payload) == event

    def test_roundtrip_keeps_identity(self):
        event = TelemetryEvent(
            kind=PARTITION_END, name="partition", t_mono=3.0, t_wall=4.0,
            pid=9, partition=2, args={"detected": 5},
        )
        clone = TelemetryEvent.from_dict(json.loads(json.dumps(event.to_dict())))
        assert clone == event


class TestEventLogStitching:
    def test_emit_stamps_both_clocks_and_pid(self):
        log = EventLog()
        event = log.emit(HEARTBEAT, "beat", partition=1, faults_graded=10)
        assert event.pid == log.pid
        assert event.t_wall > 0 and event.t_mono > 0
        assert event.args == {"faults_graded": 10}

    def test_ingest_rebases_onto_local_monotonic_clock(self):
        """A worker with a shifted perf_counter epoch lines up after ingest."""
        parent = EventLog()
        anchor = parent.emit(PARTITION_BEGIN, "anchor")

        worker = EventLog()
        # Simulate a different perf_counter zero point in the worker: its
        # wall clock agrees but its monotonic clock is offset by 1000s.
        # Derived from the parent's offset, not sampled again, so the
        # check measures the rebasing arithmetic and not clock jitter.
        shift = 1000.0
        worker.wall_minus_mono = parent.wall_minus_mono - shift
        worker.events.append(
            TelemetryEvent(
                kind=PARTITION_END, name="w", pid=worker.pid,
                t_mono=anchor.t_mono + shift + 0.5,
                t_wall=anchor.t_wall + 0.5,
            )
        )
        added = parent.ingest(worker.to_payload())
        assert added == 1
        merged = parent.merged()
        assert [e.name for e in merged] == ["anchor", "w"]
        # After re-basing, the worker event sits ~0.5s after the anchor on
        # the PARENT's monotonic timeline, not 1000s away.
        assert merged[1].t_mono - merged[0].t_mono == pytest.approx(0.5, abs=1e-6)

    def test_ingest_preserves_worker_spacing_exactly(self):
        worker = EventLog()
        worker.wall_minus_mono += 123.456
        first = TelemetryEvent(kind=PARTITION_BEGIN, t_mono=10.0, pid=worker.pid)
        second = TelemetryEvent(kind=PARTITION_END, t_mono=10.25, pid=worker.pid)
        worker.events.extend([first, second])
        parent = EventLog()
        parent.ingest(worker.to_payload())
        a, b = parent.merged()
        assert b.t_mono - a.t_mono == pytest.approx(0.25, abs=1e-9)

    def test_ingest_tolerates_none_and_empty(self):
        log = EventLog()
        assert log.ingest(None) == 0
        assert log.ingest({}) == 0
        assert log.ingest({"clock": {}, "events": []}) == 0

    def test_stitch_payloads_merges_multiple_sources(self):
        logs = [EventLog() for _ in range(3)]
        for index, log in enumerate(logs):
            log.emit(PARTITION_BEGIN, f"p{index}", partition=index)
        stitched = stitch_payloads([log.to_payload() for log in logs])
        assert len(stitched) == 3
        assert {e.partition for e in stitched.merged()} == {0, 1, 2}


class TestJsonlSideFiles:
    def test_write_and_read_roundtrip(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        log = EventLog()
        log.emit(PARTITION_BEGIN, "p", partition=0)
        log.emit(PARTITION_END, "p", partition=0, detected=3)
        log.write_jsonl(path)
        (payload,) = read_jsonl(path)
        assert payload["clock"]["pid"] == log.pid
        assert len(payload["events"]) == 2
        restored = stitch_payloads([payload])
        assert [e.kind for e in restored.merged()] == [
            PARTITION_BEGIN, PARTITION_END,
        ]

    def test_multiple_appends_become_multiple_payloads(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        for _ in range(2):
            log = EventLog()
            log.emit(HEARTBEAT, "beat")
            log.write_jsonl(path)
        assert len(read_jsonl(path)) == 2

    def test_torn_trailing_line_is_tolerated(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        log = EventLog()
        log.emit(PARTITION_BEGIN, "p", partition=0)
        log.emit(PARTITION_END, "p", partition=0)
        log.write_jsonl(path)
        with open(path, "a") as handle:
            handle.write('{"kind": "partition_beg')  # kill mid-write
        (payload,) = read_jsonl(path)
        assert len(payload["events"]) == 2  # intact prefix survives


class TestBackendEventWiring:
    @pytest.mark.parametrize("engine", ["store", "supervised"])
    def test_sharded_runs_ship_partition_events(self, engine, tmp_path):
        simulator, patterns, faults = _campaign()
        store = ShardStore(str(tmp_path)) if engine == "store" else None
        backend = SupervisedPoolBackend(jobs=2, partitions=4, store=store)
        with obs.observe("run") as observation:
            result = simulator.simulate(patterns, faults, engine=backend)
        payloads = result.stats.get("events")
        assert payloads, "sharded backends must ship event payloads home"
        merged = observation.events.merged()
        begins = [e for e in merged if e.kind == PARTITION_BEGIN]
        ends = [e for e in merged if e.kind == PARTITION_END]
        assert {e.partition for e in begins} == set(range(4))
        assert {e.partition for e in ends} == set(range(4))
        for begin, end in zip(sorted(begins, key=lambda e: e.partition),
                              sorted(ends, key=lambda e: e.partition)):
            assert end.t_mono >= begin.t_mono  # stitched onto one timeline

    def test_supervised_emits_heartbeats(self):
        simulator, patterns, faults = _campaign()
        backend = SupervisedPoolBackend(jobs=2, partitions=4)
        with obs.observe("run") as observation:
            result = simulator.simulate(patterns, faults, engine=backend)
        kinds = {e.kind for e in observation.events.merged()}
        assert HEARTBEAT in kinds and CRASH not in kinds
        beats = [
            e for e in observation.events.merged() if e.kind == HEARTBEAT
        ]
        # One heartbeat per recorded shard, gauges monotonically rising.
        assert len(beats) == 4
        graded = [e.args["faults_graded"] for e in beats]
        assert graded == sorted(graded)
        assert beats[-1].args["faults_graded"] == result.total_faults
        assert beats[-1].args["partitions_done"] == 4

    def test_unobserved_run_still_carries_payloads(self):
        """Event payloads ride stats even with no observation active."""
        simulator, patterns, faults = _campaign()
        result = simulator.simulate(
            patterns, faults, engine=SupervisedPoolBackend(jobs=1, partitions=3)
        )
        # Every partition's worker timeline is in the shipped payloads.
        events = [
            event
            for payload in result.stats["events"]
            for event in payload["events"]
        ]
        for kind in (PARTITION_BEGIN, PARTITION_END):
            assert {
                event["partition"] for event in events if event["kind"] == kind
            } == {0, 1, 2}


class TestChromeTrace:
    def _report(self):
        simulator, patterns, faults = _campaign()
        backend = SupervisedPoolBackend(jobs=2, partitions=4)
        with obs.observe("repro.faultsim", command="faultsim") as observation:
            simulator.simulate(patterns, faults, engine=backend)
        return RunReport.from_observation(observation)

    def test_one_track_per_worker_process(self):
        report = self._report()
        trace = chrome_trace(report)
        events = trace["traceEvents"]
        parent_pid = report.events_payload["clock"]["pid"]
        worker_pids = {
            e["pid"]
            for e in events
            if e["ph"] == "X" and e.get("cat") == "partition"
        }
        assert worker_pids and parent_pid not in worker_pids
        named = {
            e["pid"]: e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        for pid in worker_pids:
            assert named[pid] == f"worker pid={pid}"
        # The span tree rides the parent track.
        span_names = {
            e["name"] for e in events
            if e["ph"] == "X" and e["pid"] == parent_pid
        }
        assert "repro.faultsim" in span_names and "faultsim" in span_names

    def test_failed_shard_appears_as_instant(self):
        """A failed run has no result to carry its timeline home; the
        trace still shows which shard stopped it, and why."""
        simulator, patterns, faults = _campaign()
        backend = SupervisedPoolBackend(jobs=1, partitions=4)
        with failing_shards({2}, "raise"), obs.observe("run") as observation:
            with pytest.raises(ShardFailedError):
                simulator.simulate(patterns, faults, engine=backend)
        events = chrome_trace(RunReport.from_observation(observation))[
            "traceEvents"
        ]
        (failed,) = [e for e in events if e.get("cat") == CRASH]
        assert failed["name"] == "shard_failed p2"
        assert "injected failure in shard 2" in failed["args"]["reason"]
        published = {e["name"] for e in events if e.get("cat") == "publish"}
        assert published == {"publish p0", "publish p1"}

    def test_heartbeats_become_counter_series(self):
        report = self._report()
        counters = [
            e for e in chrome_trace(report)["traceEvents"] if e["ph"] == "C"
        ]
        assert len(counters) == 4
        values = [c["args"]["faults_graded"] for c in counters]
        assert values == sorted(values)

    def test_timestamps_relative_and_nonnegative(self):
        report = self._report()
        for event in chrome_trace(report)["traceEvents"]:
            if "ts" in event:
                assert event["ts"] >= 0.0

    def test_written_file_is_valid_json_with_trace_keys(self, tmp_path):
        report = self._report()
        path = str(tmp_path / "out.trace.json")
        write_chrome_trace(path, report)
        with open(path) as handle:
            loaded = json.load(handle)
        assert loaded["displayTimeUnit"] == "ms"
        assert loaded["otherData"]["name"] == "repro.faultsim"
        assert isinstance(loaded["traceEvents"], list) and loaded["traceEvents"]

    def test_trace_from_deserialized_report_matches(self, tmp_path):
        """Trace export works from a --report file read back from disk."""
        report = self._report()
        clone = RunReport.from_json(report.to_json())
        assert chrome_trace(clone) == chrome_trace(report)

    def test_report_without_events_still_traces_spans(self):
        with obs.observe("bare") as observation:
            with obs.span("phase"):
                pass
        report = RunReport.from_observation(observation)
        assert not report.events_payload
        events = chrome_trace(report)["traceEvents"]
        assert {e["name"] for e in events if e["ph"] == "X"} == {"bare", "phase"}
