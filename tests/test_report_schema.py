"""Golden-schema pin for the RunReport JSON emitted by ``--report``.

``tests/data/run_report_schema.json`` snapshots the full key tree of a
small ``repro atpg --circuit c17 --report`` run.  The contract is
append-only: a code change may ADD key paths (new counters, new span
labels, new meta fields) but must never remove or rename an existing one
while ``SCHEMA_VERSION`` stays the same — downstream tooling parses
these files across commits.

To regenerate after an intentional, additive change, run
``PYTHONPATH=src python tests/test_report_schema.py --regenerate``
(the ``__main__`` block below rewrites the golden file in place).
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.report import SCHEMA_VERSION, RunReport

GOLDEN_PATH = Path(__file__).parent / "data" / "run_report_schema.json"


def _generate_report(tmp_path) -> RunReport:
    """The exact run the golden snapshot was taken from."""
    out = tmp_path / "run.json"
    code = main(["atpg", "--circuit", "c17", "--report", str(out)])
    assert code == 0
    return RunReport.from_json(out.read_text())


def _golden():
    return json.loads(GOLDEN_PATH.read_text())


class TestGoldenSchema:
    def test_schema_only_adds_keys(self, tmp_path, capsys):
        golden = _golden()
        report = _generate_report(tmp_path)
        current = set(report.key_paths())
        missing = sorted(set(golden["key_paths"]) - current)
        assert not missing, (
            "RunReport schema removed or renamed key paths present in the "
            f"golden snapshot (append-only contract): {missing}. If this "
            "removal is intentional, bump SCHEMA_VERSION and regenerate "
            f"{GOLDEN_PATH.name}."
        )

    def test_schema_version_matches_golden(self):
        golden = _golden()
        assert SCHEMA_VERSION == golden["schema_version"], (
            "SCHEMA_VERSION changed without regenerating the golden "
            "snapshot — rerun the generator in tests/data/"
            "run_report_schema.json's _comment."
        )

    def test_golden_paths_sorted_and_unique(self):
        paths = _golden()["key_paths"]
        assert paths == sorted(set(paths))

    def test_core_paths_present(self, tmp_path, capsys):
        """The acceptance-critical paths every consumer relies on."""
        report = _generate_report(tmp_path)
        paths = set(report.key_paths())
        for required in (
            "name",
            "schema_version",
            "generated_unix_s",
            "span.name",
            "span.wall_time_s",
            "span.children",
            "metrics.counters",
            "metrics.gauges",
            "meta.argv",
            "meta.exit_code",
        ):
            assert required in paths


class TestBenchEnvelopes:
    """Committed ``BENCH_*.json`` files are RunReport envelopes too; pin
    the payload fields downstream tooling reads from them."""

    BENCH_DIR = Path(__file__).parent.parent / "benchmarks"

    def test_dispatch_speedup_assertion_recorded(self):
        """The parallel-speedup capability gate must leave an explicit verdict
        in the envelope — ``asserted`` plus a ``skipped_reason`` — instead
        of silently skipping on low-core hosts (the old behavior printed
        the skip to stdout and recorded nothing)."""
        report = RunReport.from_json(
            (self.BENCH_DIR / "BENCH_dispatch.json").read_text()
        )
        gate = report.payload["speedup_assertion"]
        assert set(gate) == {
            "cpu_count",
            "required_cores",
            "min_speedup_x",
            "asserted",
            "skipped_reason",
        }
        assert isinstance(gate["asserted"], bool)
        assert gate["cpu_count"] >= 1
        if gate["asserted"]:
            assert gate["skipped_reason"] is None
        else:
            assert gate["cpu_count"] < gate["required_cores"]
            assert gate["skipped_reason"]

    def test_np_smoke_envelope_shape(self):
        """The numpy-kernel CI envelope carries replicated wall rows under
        the ``<kernel>_x<N>`` convention and exact work counters — the
        contract ``repro obs gate`` enforces against the baseline."""
        report = RunReport.from_json(
            (self.BENCH_DIR / "baselines" / "BENCH_widesim_np_smoke.json").read_text()
        )
        rows = {row["name"]: row for row in report.payload["rows"]}
        for kernel in ("python", "numpy"):
            for rep in range(3):
                row = rows[f"{kernel}_x{rep}"]
                assert row["wall_time_s"] > 0
                for counter in (
                    "events_propagated",
                    "words_evaluated",
                    "good_passes",
                    "detected",
                    "faults",
                ):
                    # Deterministic counters are kernel- and replicate-
                    # invariant: the kernels grade identical work.
                    assert row[counter] == rows["python_x0"][counter], counter
        assert rows["speedup"]["numpy_vs_python_x"] > 1.0


class TestRoundTrip:
    def test_report_json_roundtrip(self, tmp_path, capsys):
        report = _generate_report(tmp_path)
        clone = RunReport.from_json(report.to_json())
        assert clone.to_dict() == report.to_dict()
        assert clone.to_json() == report.to_json()
        assert clone.key_paths() == report.key_paths()
        assert clone.metrics["counters"]["atpg.faults"] == report.metrics["counters"][
            "atpg.faults"
        ]

    def test_written_file_is_stable_json(self, tmp_path, capsys):
        """sort_keys means two loads of the same run serialize identically."""
        out = tmp_path / "run.json"
        assert main(["atpg", "--circuit", "c17", "--report", str(out)]) == 0
        text = out.read_text()
        reserialized = RunReport.from_json(text).to_json() + "\n"
        assert reserialized == text


if __name__ == "__main__":
    import sys
    import tempfile

    if "--regenerate" not in sys.argv:
        sys.exit("usage: python tests/test_report_schema.py --regenerate")
    with tempfile.TemporaryDirectory() as tmp:
        report = _generate_report(Path(tmp))
    golden = {
        "_comment": (
            "Golden key tree of a `repro atpg --circuit c17 --report` "
            "RunReport. Regenerate with `PYTHONPATH=src python "
            "tests/test_report_schema.py --regenerate`. The schema is "
            "append-only: new code may ADD paths but never remove or "
            "rename one without bumping SCHEMA_VERSION."
        ),
        "schema_version": report.schema_version,
        "key_paths": report.key_paths(),
    }
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2) + "\n")
    print(f"wrote {len(golden['key_paths'])} paths to {GOLDEN_PATH}")
