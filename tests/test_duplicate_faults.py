"""A fault handed to a flow twice is graded, counted and reported once.

Every flow de-duplicates its fault list on entry, the way
:class:`repro.sim.faultsim.FaultSimulator` always has (``test_dispatch``
covers the engines): a repeated fault would otherwise inflate
``total_faults``, understate coverage and show up twice among the
survivors.
"""

import pytest

from repro.atpg.engine import run_atpg
from repro.bist.lbist import StumpsController
from repro.circuit import generators
from repro.compression.edt import EdtSystem
from repro.compression.flow import run_compressed_atpg
from repro.faults.collapse import collapse_faults
from repro.faults.stuck_at import full_fault_list
from repro.scan.insertion import insert_scan


def _collapsed(netlist):
    faults, _ = collapse_faults(netlist, full_fault_list(netlist))
    return faults


def _atpg():
    netlist = generators.random_circuit(8, 60, seed=11)

    def run(faults):
        result = run_atpg(netlist, faults=faults, random_batches=1, seed=2)
        return (
            result.total_faults,
            result.fault_coverage,
            result.test_coverage,
            result.untestable,
            result.aborted,
            result.patterns,
        )

    return _collapsed(netlist), run


def _stumps():
    netlist = generators.mac_unit(2)

    def run(faults):
        result = StumpsController(netlist).run(96, faults)
        return result.total_faults, result.final_coverage, result.undetected

    return _collapsed(netlist), run


def _compressed():
    design = insert_scan(generators.random_sequential(6, 60, 12, seed=6), n_chains=4)
    edt = EdtSystem(design, n_input_channels=2, n_output_channels=2)

    def run(faults):
        result = run_compressed_atpg(
            edt, faults=faults, random_pattern_budget=8, seed=1, grade=True
        )
        return (
            result.total_faults,
            result.fault_coverage,
            result.test_coverage,
            result.graded_coverage,
            result.applied_patterns,
        )

    return _collapsed(design.netlist), run


@pytest.mark.parametrize(
    "flow",
    [_atpg, _stumps, _compressed],
    ids=["run_atpg", "stumps", "compressed"],
)
def test_repeated_faults_count_once(flow):
    faults, run = flow()
    k = max(1, len(faults) // 4)
    assert run(faults + faults[:k]) == run(faults)
