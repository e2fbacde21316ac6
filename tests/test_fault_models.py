"""PPSFP grading loop: width- and drop-invariant stuck-at detections.

The serial engine in ``test_conformance.py`` is the stuck-at reference on
fixed circuits.  This property pins what the grading loop must preserve
on random netlists: at every word width, dropping and not dropping agree
on every first-detecting pattern index and every survivor, and the
detection map is the same at every width.  A dropping run pays one good
pass per chunk it grades, and once every fault is detected it stops at
the chunk holding the last first detection.
"""

import math

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.atpg.random_gen import random_patterns
from repro.faults.stuck_at import full_fault_list
from repro.sim.faultsim import FaultSimulator

from tests.oracle_util import small_netlists

#: Widths 1 and 7 split a campaign into many odd-sized chunks; 64 is the
#: default word; 100 leaves a short tail chunk.
WIDTHS = (1, 7, 64, 100)

PROPERTY_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _outcomes(netlist, patterns, faults):
    """``{width: (detected, undetected)}``, asserting drop and no-drop
    agree at each width and the dropping run stops where it should."""
    outcomes = {}
    for width in WIDTHS:
        simulator = FaultSimulator(netlist, word_width=width, cache=None)
        dropped = simulator.simulate(patterns, faults, drop=True)
        full = simulator.simulate(patterns, faults, drop=False)
        assert full.patterns_simulated == len(patterns)
        assert dropped.detected == full.detected, width
        assert dropped.undetected == full.undetected, width
        graded = dropped.patterns_simulated
        assert dropped.stats["good_passes"] == math.ceil(graded / width), width
        if dropped.undetected:
            assert graded == len(patterns), width
        else:
            last_chunk = max(dropped.detected.values()) // width
            assert graded == min(len(patterns), (last_chunk + 1) * width), width
        outcomes[width] = (full.detected, full.undetected)
    return outcomes


@PROPERTY_SETTINGS
@given(netlist=small_netlists(), data=st.data())
def test_stuck_at_detections_invariant(netlist, data):
    faults = data.draw(
        st.lists(
            st.sampled_from(full_fault_list(netlist)),
            min_size=1,
            max_size=16,
            unique=True,
        )
    )
    patterns = random_patterns(
        len(netlist.inputs) + len(netlist.flops),
        data.draw(st.integers(min_value=1, max_value=240)),
        seed=data.draw(st.integers(0, 10**6)),
    )
    outcomes = _outcomes(netlist, patterns, faults)
    assert all(outcome == outcomes[64] for outcome in outcomes.values())
