"""Quickstart: test a circuit from netlist to patterns in ~30 lines.

Builds a MAC datapath (the AI-chip workhorse cell), enumerates its
stuck-at faults, runs the full ATPG flow, and verifies the emitted
patterns by independent fault simulation.

Run:  python examples/quickstart.py
"""

from repro.atpg.engine import run_atpg
from repro.circuit import generators
from repro.faults.collapse import collapse_faults
from repro.faults.stuck_at import full_fault_list
from repro.sim.faultsim import FaultSimulator


def main() -> None:
    # 1. A circuit: 4-bit multiply-accumulate with a 12-bit accumulator.
    netlist = generators.mac_unit(4)
    print(f"circuit: {netlist.name}  {netlist.stats()}")

    # 2. The fault universe, collapsed by structural equivalence.
    uncollapsed = full_fault_list(netlist)
    faults, _ = collapse_faults(netlist, uncollapsed)
    print(f"faults: {len(uncollapsed)} uncollapsed -> {len(faults)} collapsed")

    # 3. ATPG: random warm-up plus PODEM top-off with compaction.
    result = run_atpg(netlist, seed=1)
    print(f"ATPG:   {result.summary()}")

    # 4. Independent check: fault-simulate the emitted pattern set.
    simulator = FaultSimulator(netlist)
    graded = simulator.simulate(result.patterns, faults, drop=True)
    print(
        f"verify: {len(graded.detected)}/{len(faults)} faults detected "
        f"by {len(result.patterns)} patterns "
        f"({graded.coverage:.1%} fault coverage)"
    )
    for fault in result.untestable[:3]:
        print(f"        proven untestable: {fault.describe(netlist)}")


if __name__ == "__main__":
    main()
