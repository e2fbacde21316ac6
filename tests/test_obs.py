"""Unit tests for the observability layer (``repro.obs``).

Spans, metrics, the active-observation stack, Prometheus export, and the
instrumentation contract the flows rely on: everything no-ops when no
observation is active, and published counters bit-identically mirror the
legacy stats dicts when one is.
"""

import time

import pytest

from repro import obs
from repro.atpg.random_gen import random_patterns
from repro.circuit import generators
from repro.faults.collapse import collapse_faults
from repro.faults.stuck_at import full_fault_list
from repro.obs.metrics import MetricRegistry, metric_id
from repro.obs.report import RunReport
from repro.obs.span import Observation, Span
from repro.sim.faultsim import FaultSimulator


class TestSpan:
    def test_nesting_and_tree(self):
        observation = Observation("root", circuit="c17")
        with observation.span("a"):
            with observation.span("b", phase="2"):
                pass
            with observation.span("c"):
                pass
        observation.finish()
        tree = observation.root.to_dict()
        assert tree["name"] == "root"
        assert tree["labels"] == {"circuit": "c17"}
        (a,) = tree["children"]
        assert [child["name"] for child in a["children"]] == ["b", "c"]
        assert a["children"][0]["labels"] == {"phase": "2"}

    def test_wall_time_monotonic_against_wall_clock(self, monkeypatch):
        """Span durations come from perf_counter, never the wall clock.

        Regression guard: stats wall times once risked ``time.time()``,
        which goes backwards across NTP adjustments.  Simulate a clock
        stepping back mid-span and assert the duration stays sane.
        """
        span = Span("guarded")
        # An adversarial wall clock jumping an hour into the past must not
        # influence the span; only perf_counter (monotonic) may be used.
        monkeypatch.setattr(time, "time", lambda: time.perf_counter() - 3600.0)
        finished = span.finish()
        assert finished.wall_time_s >= 0.0
        assert finished.wall_time_s < 60.0  # not an hour, not negative

    def test_finish_is_idempotent_and_clamped(self):
        span = Span("once")
        first = span.finish().wall_time_s
        assert span.finish().wall_time_s == first
        assert first >= 0.0

    def test_out_of_order_close_recovers(self):
        observation = Observation("root")
        outer = observation.span("outer")
        outer.__enter__()
        inner = observation.span("inner")
        inner.__enter__()
        # Close the OUTER first (a crashed generator mid-tree): the stack
        # must pop back to root without raising, finishing the inner span.
        outer.__exit__(None, None, None)
        assert observation.current_span is observation.root
        tree = observation.root.to_dict()
        assert tree["children"][0]["name"] == "outer"

    def test_find_and_annotate(self):
        observation = Observation("root")
        with observation.span("phase", patterns=64):
            pass
        found = observation.root.find("phase")
        assert found is not None
        assert found.labels == {"patterns": "64"}
        assert observation.root.find("missing") is None


class TestMetrics:
    def test_counter_gauge_basics(self):
        registry = MetricRegistry()
        registry.counter("events").add(3)
        registry.counter("events").add(4)
        registry.gauge("coverage").set(0.5)
        registry.gauge("coverage").set(0.9)
        assert registry.counter("events").value == 7
        assert registry.gauge("coverage").value == 0.9

    def test_labels_key_distinct_metrics(self):
        registry = MetricRegistry()
        registry.counter("runs", engine="ppsfp").add(1)
        registry.counter("runs", engine="pool").add(2)
        assert registry.counter("runs", engine="ppsfp").value == 1
        assert registry.counter("runs", engine="pool").value == 2
        assert metric_id("runs", {"engine": "pool"}) == 'runs{engine="pool"}'

    def test_kind_conflict_raises(self):
        registry = MetricRegistry()
        registry.counter("x").add(1)
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_add_counters_skips_non_numeric(self):
        observation = Observation("root")
        observation.add_counters(
            "stats",
            {"events": 3, "engine": "ppsfp", "flag": True, "parts": [1, 2]},
        )
        assert observation.counter("stats.events").value == 3
        assert len(observation.metrics) == 1


class TestActiveObservation:
    def test_inactive_is_noop(self):
        assert obs.current() is None
        assert obs.counter("x") is None
        obs.add_counters("p", {"a": 1})
        obs.set_gauge("g", 1.0)
        with obs.span("nothing") as span:
            assert span is None

    def test_observe_activates_and_pops(self):
        with obs.observe("outer") as outer:
            assert obs.current() is outer
            with obs.observe("inner") as inner:
                assert obs.current() is inner  # innermost wins
                obs.counter("n").add(1)
            assert obs.current() is outer
            assert outer.counter("n").value == 0  # inner kept its own
        assert obs.current() is None

    def test_instrumentation_matches_legacy_stats(self):
        """Published faultsim counters equal the stats dict bit-for-bit."""
        netlist = generators.random_circuit(6, 40, seed=9)
        faults, _ = collapse_faults(netlist, full_fault_list(netlist))
        simulator = FaultSimulator(netlist, cache=None)
        patterns = random_patterns(simulator.view.num_inputs, 128, seed=9)
        with obs.observe("run") as observation:
            result = simulator.simulate(patterns, faults)
        for key in ("faults_simulated", "events_propagated", "words_evaluated"):
            assert (
                observation.counter(f"faultsim.{key}").value
                == result.stats[key]
            )
        assert (
            observation.counter("faultsim.faults_detected").value
            == len(result.detected)
        )
        assert observation.root.find("faultsim") is not None

    def test_simulation_identical_with_and_without_observation(self):
        """Observing a run must never change its outcome."""
        netlist = generators.random_circuit(6, 40, seed=11)
        faults, _ = collapse_faults(netlist, full_fault_list(netlist))
        patterns = random_patterns(len(netlist.inputs), 128, seed=11)
        bare = FaultSimulator(netlist, cache=None).simulate(patterns, faults)
        with obs.observe("run"):
            observed = FaultSimulator(netlist, cache=None).simulate(
                patterns, faults
            )
        assert observed.detected == bare.detected
        assert observed.undetected == bare.undetected


class TestRunReport:
    def test_from_observation_and_counter_value(self):
        with obs.observe("repro.test", command="test") as observation:
            obs.counter("a.b").add(41)
            obs.counter("a.b").add(1)
        report = RunReport.from_observation(observation, meta={"argv": []})
        assert report.name == "repro.test"
        counters = report.metrics["counters"]
        assert counters["a.b"]["value"] == 42
        assert "missing" not in counters
        assert report.schema_version >= 1

    def test_rejects_non_report_payloads(self):
        with pytest.raises(ValueError):
            RunReport.from_dict({"hello": "world"})
        with pytest.raises(ValueError):
            RunReport.from_dict({"schema_version": "one"})


class TestDeepTrees:
    """Span.find / tree_lines on deep trees (the --profile rendering)."""

    DEPTH = 200

    def _deep_observation(self) -> Observation:
        observation = Observation("root")
        span = observation.root
        for level in range(self.DEPTH):
            span = span.child(f"level{level}", {"depth": str(level)})
        observation.finish()
        return observation

    def test_find_reaches_every_level(self):
        observation = self._deep_observation()
        for level in (0, 1, self.DEPTH // 2, self.DEPTH - 1):
            found = observation.root.find(f"level{level}")
            assert found is not None
            assert found.labels["depth"] == str(level)
        assert observation.root.find(f"level{self.DEPTH}") is None

    def test_find_is_depth_first_on_duplicates(self):
        root = Span("root")
        left = root.child("branch")
        left_deep = left.child("dup")
        right = root.child("dup")
        assert root.find("dup") is left_deep  # depth-first, not breadth
        assert right is not left_deep

    def test_tree_lines_one_line_per_span_with_indent(self):
        observation = self._deep_observation()
        lines = observation.root.tree_lines()
        assert len(lines) == self.DEPTH + 1
        # Indentation tracks depth exactly; labels render on every line.
        for depth, line in enumerate(lines):
            assert line.startswith("  " * depth)
            assert "ms" in line
        assert "[depth=0]" in lines[1]
        assert f"[depth={self.DEPTH - 1}]" in lines[-1]

    def test_wide_tree_find_and_render(self):
        root = Span("root")
        for index in range(300):
            root.child(f"child{index}")
        root.finish()
        assert root.find("child299") is not None
        assert len(root.tree_lines()) == 301


class TestObserveStackDiscipline:
    """observe() nesting when observations finish out of nesting order."""

    def test_out_of_order_exit_removes_correct_observation(self):
        outer_cm = obs.observe("outer")
        outer = outer_cm.__enter__()
        inner_cm = obs.observe("inner")
        inner = inner_cm.__enter__()
        # Close the OUTER observation first: _ACTIVE must drop exactly the
        # outer entry (the `.remove` path), leaving the inner one current.
        outer_cm.__exit__(None, None, None)
        assert obs.current() is inner
        assert outer.root._elapsed is not None  # finished
        inner_cm.__exit__(None, None, None)
        assert obs.current() is None
        assert inner.root._elapsed is not None

    def test_double_exit_is_harmless(self):
        cm = obs.observe("once")
        observation = cm.__enter__()
        cm.__exit__(None, None, None)
        assert obs.current() is None
        # A second exit (cleanup paths racing) must not raise or corrupt
        # the stack for a fresh observation.
        assert not cm.__exit__(None, None, None)  # generator already closed
        assert obs.current() is None
        with obs.observe("fresh") as fresh:
            assert obs.current() is fresh
        assert obs.current() is None

    def test_interleaved_counters_land_on_innermost(self):
        a_cm, b_cm = obs.observe("a"), obs.observe("b")
        a = a_cm.__enter__()
        b = b_cm.__enter__()
        obs.counter("n").add(1)
        a_cm.__exit__(None, None, None)  # out of order
        obs.counter("n").add(10)  # still the innermost live observation: b
        b_cm.__exit__(None, None, None)
        assert a.counter("n").value == 0
        assert b.counter("n").value == 11
