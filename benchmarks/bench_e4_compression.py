"""E4 — Table: EDT compression vs bypass scan.

Claim (tutorial's compression section): an EDT-style architecture cuts
test data volume and test time by roughly the chain-count/channel-count
ratio — 10-100x in practice — at *equal coverage*, because internal chains
can be many and short while the tester drives only a few channels, and
pattern generation is integrated with encoding so nothing is lost.

Regenerates: for a scan-inserted core, one row per internal-chain count
with the coverage of the bypass reference ATPG, the integrated EDT-ATPG
flow's coverage, an independent regrade of the applied compressed set,
and the data-volume / test-time ratios versus single-channel bypass scan.
"""

from repro.atpg.engine import run_atpg
from repro.circuit import generators
from repro.compression.edt import EdtSystem
from repro.compression.flow import run_compressed_atpg
from repro.faults.collapse import collapse_faults
from repro.faults.stuck_at import full_fault_list
from repro.scan.insertion import insert_scan, partition_faults
from repro.sim.faultsim import FaultSimulator

from .util import print_table, run_once

CHAIN_COUNTS = [4, 8, 16, 32]


def _run():
    netlist = generators.random_sequential(8, 200, 64, seed=12)
    rows = []
    for n_chains in CHAIN_COUNTS:
        design = insert_scan(netlist, n_chains=n_chains)
        faults, _ = collapse_faults(design.netlist, full_fault_list(design.netlist))
        capture, _ = partition_faults(design, faults)
        # Reference: plain (bypass) ATPG on the same fault list.
        atpg = run_atpg(design.netlist, faults=capture, seed=1)
        # Integrated EDT-ATPG: fault dropping on decompressed patterns.
        edt = EdtSystem(design, n_input_channels=2, n_output_channels=2)
        flow = run_compressed_atpg(edt, faults=capture, seed=1)
        # Independent regrade of the applied compressed set.
        simulator = FaultSimulator(design.netlist)
        regrade = simulator.simulate(flow.applied_patterns, capture, drop=True)
        cost = edt.cost_versus_bypass(len(flow.applied_patterns))
        rows.append(
            {
                "chains": n_chains,
                "bypass_cov": atpg.test_coverage,
                "edt_cov": flow.test_coverage,
                "regrade_cov": len(regrade.detected) / len(capture),
                "patterns": len(flow.applied_patterns),
                "unencodable": flow.unencodable,
                "data_x": cost["data_volume_x"],
                "time_x": cost["test_time_x"],
            }
        )
    return rows


def test_e4_compression_table(benchmark):
    rows = run_once(benchmark, _run)
    print_table("E4: EDT compression vs bypass scan", rows)
    for row in rows:
        # Equal coverage through compression — the headline claim.
        assert row["edt_cov"] >= row["bypass_cov"] - 0.03
        # The independent regrade confirms the flow's own accounting.
        assert row["regrade_cov"] >= row["edt_cov"] * 0.85
    # Ratios grow with internal chain count (the headline scaling).
    times = [row["time_x"] for row in rows]
    assert times == sorted(times)
    assert times[-1] > 5
