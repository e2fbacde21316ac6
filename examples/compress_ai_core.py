"""Compressed scan test of an AI core, end to end.

The flow a DFT engineer runs on one accelerator core:

1. generate the core (a systolic PE), wrap it, insert scan chains;
2. verify shift-path integrity with the chain flush test;
3. run ATPG for the capture faults;
4. encode the deterministic cubes through the EDT decompressor;
5. prove the *decompressed* patterns keep coverage;
6. report the data-volume / test-time win over bypass scan.

Run:  python examples/compress_ai_core.py
"""

from repro.circuit import generators
from repro.compression.edt import EdtSystem
from repro.compression.flow import run_compressed_atpg
from repro.dft.wrapper import wrap_core
from repro.faults.collapse import collapse_faults
from repro.faults.stuck_at import full_fault_list
from repro.scan.insertion import chain_flush_detects, insert_scan, partition_faults
from repro.sim.faultsim import FaultSimulator


def main() -> None:
    # 1. Core -> wrapped core -> scan design.
    core = generators.systolic_pe(2)
    wrapped = wrap_core(core)
    design = insert_scan(wrapped.netlist, n_chains=8)
    print(f"core: {core.name} {core.stats()}")
    print(
        f"scan: {design.n_chains} chains, longest {design.max_chain_length}, "
        f"{wrapped.n_boundary_cells} boundary cells"
    )

    # 2. Shift-path integrity.
    print(f"chain flush test: {'PASS' if chain_flush_detects(design) else 'FAIL'}")

    # 3+4. Integrated EDT-ATPG: every PODEM cube is encoded immediately and
    # fault dropping runs on the *decompressed* pattern — what the tester
    # actually applies.
    faults, _ = collapse_faults(design.netlist, full_fault_list(design.netlist))
    capture, chain = partition_faults(design, faults)
    edt = EdtSystem(design, n_input_channels=2, n_output_channels=2)
    flow = run_compressed_atpg(edt, faults=capture, seed=1)
    print(f"EDT-ATPG: {flow.summary()}  (+{len(chain)} chain faults via flush)")

    # 5. Independent regrade of the applied patterns.
    simulator = FaultSimulator(design.netlist)
    graded = simulator.simulate(flow.applied_patterns, capture, drop=True)
    print(
        f"coverage through compression: "
        f"{len(graded.detected)}/{len(capture)} ({graded.coverage:.1%})"
    )

    # 6. Tester economics.
    cost = edt.cost_versus_bypass(len(flow.applied_patterns))
    print(
        f"vs bypass scan: {cost['data_volume_x']}x less data, "
        f"{cost['test_time_x']}x less test time"
    )


if __name__ == "__main__":
    main()
