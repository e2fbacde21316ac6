"""Memory BIST bring-up for an accelerator's SRAM.

AI chips are mostly SRAM; this example shows the MBIST controller's
decision process:

1. run every March algorithm against a known-bad memory and watch the
   cheap ones miss coupling faults;
2. build the coverage-vs-cost matrix over sampled fault populations;
3. pick the cheapest algorithm with full coverage and size its runtime
   for the chip's weight buffers.

Run:  python examples/mbist_sram.py
"""

from repro.bist.march import ALL_MARCH_TESTS, operation_count
from repro.bist.mbist import coverage_matrix, format_matrix, run_march
from repro.bist.memory import Memory, MemoryFault


def main() -> None:
    # 1. A memory with an idempotent coupling fault (cell 9 forces cell 3).
    fault = MemoryFault("CFid", 3, aggressor=9, value=1, aggressor_transition=1)
    print(f"injected: {fault.describe()}")
    for test in ALL_MARCH_TESTS:
        memory = Memory(64, faults=[fault])
        outcome = run_march(memory, test)
        verdict = "DETECTED" if not outcome.passed else "missed"
        print(f"  {test.name:<9} ({test.complexity:>2}N): {verdict}")

    # 2. The statistical picture across all fault models.
    print("\ncoverage matrix (detection rate per fault model):")
    matrix = coverage_matrix(n_cells=64, samples_per_kind=30, seed=1)
    print(format_matrix(matrix))

    # 3. Algorithm selection for the chip.
    full_coverage = [
        name
        for name, row in matrix.items()
        if all(cell.rate == 1.0 for cell in row.values())
    ]
    cheapest = min(
        full_coverage,
        key=lambda name: next(t for t in ALL_MARCH_TESTS if t.name == name).complexity,
    )
    chosen = next(t for t in ALL_MARCH_TESTS if t.name == cheapest)
    sram_bits = 256 * 1024
    ops = operation_count(chosen, sram_bits)
    print(
        f"\nchosen: {chosen.name} ({chosen.complexity}N) — "
        f"{ops:,} operations for a {sram_bits // 1024} Kbit buffer "
        f"({ops / 200e6 * 1e3:.1f} ms at 200 MHz)"
    )


if __name__ == "__main__":
    main()
