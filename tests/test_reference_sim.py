"""PPSFP against the independent reference simulator.

:mod:`tests.reference_sim` re-simulates every fault on every pattern by
scalar evaluation of a rewritten gate list, sharing no table, view or
packed word with :class:`~repro.sim.faultsim.FaultSimulator`.  PPSFP's
detected map (each fault's first detecting pattern) and its survivors
must equal the reference's, with and without fault dropping, at the
default width and at an odd one.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.atpg.random_gen import random_patterns
from repro.faults.collapse import collapse_faults
from repro.faults.stuck_at import full_fault_list
from repro.sim.faultsim import FaultSimulator

from tests.oracle_util import sequential_netlists, small_netlists
from tests.reference_sim import first_detections
from tests.test_conformance import CIRCUIT_FACTORIES, CIRCUIT_NAMES


def _assert_matches_reference(netlist, patterns, faults, width):
    expected = first_detections(netlist, patterns, faults)
    simulator = FaultSimulator(netlist, word_width=width, cache=None)
    for drop in (True, False):
        result = simulator.simulate(patterns, faults, drop=drop)
        assert result.detected == expected, drop
        assert result.undetected == [
            fault for fault in dict.fromkeys(faults) if fault not in expected
        ]


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    netlist=st.one_of(small_netlists(), sequential_netlists()),
    n_patterns=st.integers(min_value=1, max_value=150),
    width=st.sampled_from((64, 7)),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_ppsfp_matches_reference_on_random_netlists(
    netlist, n_patterns, width, seed
):
    netlist.finalize()
    faults, _ = collapse_faults(netlist, full_fault_list(netlist))
    n_inputs = len(netlist.inputs) + len(netlist.flops)
    patterns = random_patterns(n_inputs, n_patterns, seed=seed)
    _assert_matches_reference(netlist, patterns, faults, width)


# The replicated rows' chips are graded against the reference in
# test_core_parallel.py, on smaller cores.
@pytest.mark.parametrize("name", CIRCUIT_NAMES)
def test_ppsfp_matches_reference_on_conformance_circuits(name):
    netlist = dict(CIRCUIT_FACTORIES)[name]()
    netlist.finalize()
    faults, _ = collapse_faults(netlist, full_fault_list(netlist))
    n_inputs = len(netlist.inputs) + len(netlist.flops)
    patterns = random_patterns(n_inputs, 100, seed=len(name))
    for width in (64, 7):
        _assert_matches_reference(netlist, patterns, faults, width)
