"""Core-parallel PPSFP: identical cores graded once, one lane group per copy.

PPSFP grades the images of a fault in identical cores together, on the
class's wide good words (:class:`repro.circuit.compiled.CoreClasses`),
once a group holds three or more images; smaller groups take the flat
trace, so the chips here range from one copy to four.
These properties hold it to the serial engine and to the independent
reference simulator (:mod:`tests.reference_sim`) on chips where that
path runs: replicated hypothesis cores, a chip interleaving copies of two
different cores (classes of different sizes), and scan-inserted
replicated cores (flop-pin branch faults, a scan path across copies).
Pattern counts are not multiples of 64, widths are 64 and 7, and fault
lists are shuffled, carry duplicates and leave some images out.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.atpg.random_gen import random_patterns
from repro.circuit.benchmarks import replicate_netlist
from repro.circuit.compiled import core_classes
from repro.circuit.gates import GateType
from repro.circuit.netlist import Netlist
from repro.faults.collapse import collapse_faults
from repro.faults.stuck_at import full_fault_list
from repro.scan.insertion import insert_scan
from repro.sim.faultsim import FaultSimulator

from tests.oracle_util import (
    built_netlists,
    generated_netlists,
    sequential_netlists,
)
from tests.reference_sim import first_detections

# Cores stay small: the serial engine and the reference re-simulate the
# whole chip per fault and pattern.
SETTINGS = settings(
    max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _interleave(cores) -> Netlist:
    """One chip holding ``cores`` in order, each a disjoint copy."""
    chip = Netlist("chip")
    for copy, core in enumerate(cores):
        offset = len(chip.gates)
        for gate in core.gates:
            chip.add(
                gate.type,
                f"c{copy}/{gate.name}",
                [driver + offset for driver in gate.fanin],
            )
    chip.finalize()
    return chip


def _fault_list(netlist, rng, collapse=True):
    """The (collapsed) universe with some faults left out, some repeated,
    shuffled."""
    faults = full_fault_list(netlist)
    if collapse:
        faults, _ = collapse_faults(netlist, faults)
    kept = [fault for fault in faults if rng.random() < 0.85]
    kept += rng.sample(kept, min(len(kept), 5))
    rng.shuffle(kept)
    return kept


def _assert_engines_agree(chip, n_patterns, width, seed, collapse=True):
    rng = random.Random(seed)
    faults = _fault_list(chip, rng, collapse)
    patterns = random_patterns(
        len(chip.inputs) + len(chip.flops), n_patterns, seed=seed
    )
    expected = first_detections(chip, patterns, faults)
    survivors = [fault for fault in dict.fromkeys(faults) if fault not in expected]
    last = max(expected.values(), default=-1) + 1
    simulator = FaultSimulator(chip, word_width=width, cache=None)
    for drop in (True, False):
        ppsfp = simulator.simulate(patterns, faults, drop=drop, engine="ppsfp")
        serial = simulator.simulate(patterns, faults, drop=drop, engine="serial")
        for result in (ppsfp, serial):
            assert result.detected == expected
            assert result.undetected == survivors
        if drop and not survivors:
            # Dropping stops after the chunk (ppsfp) or the pattern
            # (serial) holding the last first detection.
            assert ppsfp.patterns_simulated == min(
                n_patterns, -(-last // width) * width
            )
            assert serial.patterns_simulated == last
        else:
            assert ppsfp.patterns_simulated == n_patterns
            assert serial.patterns_simulated == n_patterns


PATTERN_COUNTS = st.sampled_from((1, 7, 63, 65, 100))
WIDTHS = st.sampled_from((64, 7))
SEEDS = st.integers(min_value=0, max_value=2**16)


@SETTINGS
@given(
    core=st.one_of(
        built_netlists(), generated_netlists(max_inputs=5, max_gates=16)
    ),
    copies=st.integers(min_value=1, max_value=4),
    n_patterns=PATTERN_COUNTS,
    width=WIDTHS,
    seed=SEEDS,
)
def test_replicated_core(core, copies, n_patterns, width, seed):
    chip = replicate_netlist(core, copies)
    if copies > 1:
        assert core_classes(chip).classes
    _assert_engines_agree(chip, n_patterns, width, seed)


@SETTINGS
@given(
    first=generated_netlists(max_inputs=5, max_gates=10),
    second=generated_netlists(max_inputs=5, max_gates=10),
    order=st.permutations((0, 0, 1, 1, 1)),
    n_patterns=PATTERN_COUNTS,
    width=WIDTHS,
    seed=SEEDS,
)
def test_two_different_cores(first, second, order, n_patterns, width, seed):
    chip = _interleave([(first, second)[pick] for pick in order])
    _assert_engines_agree(chip, n_patterns, width, seed)


@SETTINGS
@given(
    core=sequential_netlists(max_inputs=4, max_gates=14, max_flops=3),
    copies=st.integers(min_value=2, max_value=4),
    chains=st.integers(min_value=1, max_value=3),
    n_patterns=PATTERN_COUNTS,
    width=WIDTHS,
    seed=SEEDS,
)
def test_scan_inserted_replicated_core(core, copies, chains, n_patterns, width, seed):
    chip = insert_scan(replicate_netlist(core, copies), n_chains=chains).netlist
    _assert_engines_agree(chip, n_patterns, width, seed)


def test_flop_pin_driven_from_another_component():
    """The flop's D driver sits in another component, so the branch fault
    on its D pin (kept by grading the uncollapsed universe) stays flat
    while the rest of its core is graded class-wide; its images must
    still read their own drivers."""
    core = Netlist("split")
    a = core.add(GateType.INPUT, "a")
    b = core.add(GateType.INPUT, "b")
    inverted = core.add(GateType.NOT, "n", [a])
    core.add(GateType.OUTPUT, "ya", [inverted])
    flop = core.add(GateType.DFF, "ff", [inverted])
    gate = core.add(GateType.AND, "g", [flop, b])
    core.add(GateType.OUTPUT, "yb", [gate])
    chip = replicate_netlist(core, 3)
    assert len(core_classes(chip).classes) == 2
    for seed in range(4):
        _assert_engines_agree(chip, 7, 64, seed, collapse=False)


def test_reader_flag_splits_otherwise_identical_components():
    """Four copies of a dangling inverter, one of which also drives a
    flop's D pin: that copy is observed, the other three are not, and
    only the reader flag in the class key tells them apart."""
    chip = Netlist("dangling")
    inverters = []
    for copy in range(4):
        source = chip.add(GateType.INPUT, f"a{copy}")
        inverters.append(chip.add(GateType.NOT, f"n{copy}", [source]))
    chip.add(GateType.DFF, "ff", [inverters[-1]])
    chip.finalize()
    assert sorted(len(members) for members in core_classes(chip).classes) == [3]
    for seed in range(4):
        _assert_engines_agree(chip, 9, 64, seed, collapse=False)
