"""E8 — Table: hierarchical vs flat DFT for replicated AI cores.

Claim (the tutorial's headline case study): on a chip built from N
identical cores, hierarchical DFT generates patterns once at core level
and *broadcasts* them, so ATPG CPU time and stimulus volume stay constant
in N, while the flat flow's ATPG effort grows at least linearly and its
data volume with N.  Broadcast retargeting wins by ~N in stimulus data.

Regenerates: one row per core count with measured flat/hierarchical ATPG
CPU and patterns, plus broadcast/serial/flat data volumes, and verifies
broadcast semantics (core patterns detect every replica's faults).
"""

from repro.atpg.engine import run_atpg
from repro.circuit import generators
from repro.circuit.benchmarks import replicate_netlist
from repro.dft.retarget import broadcast_detects_all_cores, compare_flat_hierarchical

from .util import print_table, run_once

CORE_COUNTS = (1, 2, 4, 8)


def _run():
    core = generators.mac_unit(2)
    rows = compare_flat_hierarchical(core, core_counts=CORE_COUNTS, seed=1)
    # Semantic check once (largest chip).
    atpg = run_atpg(core, seed=1)
    chip = replicate_netlist(core, CORE_COUNTS[-1])
    broadcast_ok = broadcast_detects_all_cores(
        core, atpg.patterns, chip, CORE_COUNTS[-1]
    )
    return rows, broadcast_ok


def test_e8_hierarchical_vs_flat(benchmark):
    rows, broadcast_ok = run_once(benchmark, _run)
    print_table("E8: hierarchical vs flat DFT", [r.as_dict() for r in rows])
    assert broadcast_ok

    first, last = rows[0], rows[-1]
    # Hierarchical effort constant in N.
    assert last.hier_patterns == first.hier_patterns
    # Flat ATPG effort grows with N (CPU roughly linear; allow noise).
    assert last.flat_cpu_s > first.flat_cpu_s * (CORE_COUNTS[-1] / 4)
    # Broadcast stimulus volume is constant in N; serial grows ~N (total
    # volume includes per-core responses either way, so compare growth).
    assert last.broadcast_data_bits < last.serial_data_bits
    assert last.serial_data_bits >= (CORE_COUNTS[-1] - 1) * first.serial_data_bits
    broadcast_growth = last.broadcast_data_bits / first.broadcast_data_bits
    serial_growth = last.serial_data_bits / first.serial_data_bits
    assert broadcast_growth < serial_growth
    # Coverage equal either way.
    assert abs(last.flat_coverage - last.hier_coverage) < 0.02
