"""Transition grading: width- and drop-invariant detections.

Stuck-at grading has independent references (the serial engine in
``test_conformance.py``, the cone references in
``test_cone_readout.py``).  This property pins what the shared PPSFP
grading loop must preserve for transition faults: at every word width,
dropping and not dropping agree on every first-detecting pattern index
and every survivor, and the detection map is the same at every width.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.atpg.random_gen import random_patterns
from repro.faults import full_transition_list
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


def _outcomes(netlist, grade, stimuli, faults):
    """``{width: (detected, undetected)}`` from ``grade(simulator, stimuli,
    faults, drop)``, asserting drop and no-drop agree at each width."""
    outcomes = {}
    for width in WIDTHS:
        simulator = FaultSimulator(netlist, word_width=width, cache=None)
        dropped = grade(simulator, stimuli, faults, True)
        full = grade(simulator, stimuli, faults, False)
        assert full.patterns_simulated == len(stimuli)
        assert dropped.detected == full.detected, width
        assert dropped.undetected == full.undetected, width
        outcomes[width] = (full.detected, full.undetected)
    return outcomes


def _random_stimuli(netlist, data, max_size):
    n_inputs = len(netlist.inputs) + len(netlist.flops)
    return random_patterns(
        n_inputs,
        data.draw(st.integers(min_value=1, max_value=max_size)),
        seed=data.draw(st.integers(0, 10**6)),
    )


@PROPERTY_SETTINGS
@given(netlist=small_netlists(), data=st.data())
def test_transition_detections_invariant(netlist, data):
    faults = data.draw(
        st.lists(
            st.sampled_from(full_transition_list(netlist)),
            min_size=1,
            max_size=16,
            unique=True,
        )
    )
    patterns = _random_stimuli(netlist, data, 240)
    outcomes = _outcomes(
        netlist,
        lambda sim, stimuli, fs, drop: sim.simulate_transition(stimuli, fs, drop),
        list(zip(patterns[::2], patterns[1::2])),
        faults,
    )
    assert all(outcome == outcomes[64] for outcome in outcomes.values())
