"""End-to-end DFT-flow benchmark; run it with ``python3 -m benchmarks.e2e``."""
