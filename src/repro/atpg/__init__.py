"""Test generation: PODEM / D-algorithm / guided engines and their
per-fault portfolio, random/weighted patterns and compaction, all over
the full-scan combinational view."""
