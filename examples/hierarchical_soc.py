"""Hierarchical DFT for a multi-core AI accelerator.

The tutorial's headline flow: identical cores mean the chip's logic test
is *one* core's test, broadcast.  This example:

1. runs core-level ATPG once;
2. proves broadcast semantics on a replicated chip netlist;
3. compares flat vs hierarchical ATPG cost as the core count grows;
4. builds the chip test plan — compression, broadcast, MBIST — under a
   power budget, and prints the four-corner comparison table.

Run:  python examples/hierarchical_soc.py
"""

from repro.atpg import run_atpg
from repro.circuit import generators
from repro.circuit.benchmarks import replicate_netlist
from repro.dft import (
    broadcast_detects_all_cores,
    build_plan,
    compare_flat_hierarchical,
    plan_comparison_table,
)


def main() -> None:
    core = generators.mac_unit(2)
    print(f"core: {core.name} {core.stats()}")

    # 1+2. Core ATPG once; broadcast check on the 4-core chip.
    atpg = run_atpg(core, seed=1)
    chip = replicate_netlist(core, 4)
    ok = broadcast_detects_all_cores(core, atpg.patterns, chip, 4)
    print(
        f"core ATPG: {len(atpg.patterns)} patterns, "
        f"{atpg.fault_coverage:.1%} coverage; "
        f"broadcast covers all 4 replicas: {ok}"
    )

    # 3. Flat vs hierarchical as N grows (real ATPG both ways).
    print("\nflat vs hierarchical ATPG:")
    for row in compare_flat_hierarchical(core, core_counts=(1, 2, 4), seed=1):
        d = row.as_dict()
        print(
            f"  N={d['cores']}: flat {d['flat_cpu_s']}s/"
            f"{d['flat_patterns']}pat vs hier {d['hier_cpu_s']}s/"
            f"{d['hier_patterns']}pat; data flat={d['flat_bits']}b "
            f"serial={d['serial_bits']}b broadcast={d['broadcast_bits']}b"
        )

    # 4. The chip-level plan.
    plan = build_plan()
    print(f"\nchip test plan: {plan.report}")
    print("\nfour corners (compression x broadcast):")
    for row in plan_comparison_table():
        print(
            f"  compression={row['compression']!s:<5} "
            f"broadcast={row['broadcast']!s:<5} "
            f"cycles={row['scheduled_cycles']:>9,} "
            f"data_bits={row['logic_data_bits_total']:>12,}"
        )


if __name__ == "__main__":
    main()
