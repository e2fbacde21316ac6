"""Cone-proportional PPSFP: the one readout and propagation routine.

Fault cones propagate on bigint words from precompiled consumer lists,
and the readout visits only the observation readers present in a
fault's faulty map.  Both kernels feed this one routine their
good-machine words, so these tests run it over each kernel's words and
hold it to straightforward references written here — an all-readers
readout and a full topological re-sweep of the faulty machine — over
hypothesis netlists, and pin that readout work follows the fault's
cone, not the circuit's observation surface.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.atpg.random_gen import exhaustive_patterns, random_patterns
from repro.circuit import benchmarks
from repro.circuit.builder import NetlistBuilder
from repro.circuit.gates import GateType, evaluate_parallel
from repro.faults.collapse import collapse_faults
from repro.faults.model import OUTPUT_PIN
from repro.faults.stuck_at import full_fault_list
from repro.sim.faultsim import FaultSimulator
from repro.sim.parallel import KERNELS

from tests.oracle_util import sequential_netlists, small_netlists


def _reference_faulty(netlist, good, seeds, mask):
    """Gates whose word differs from good after re-evaluating every
    combinational gate in topological order with the seeds forced."""
    words = list(good)
    for gate_index, word in seeds.items():
        words[gate_index] = word
    for gate_index in netlist.topo_order:
        gate = netlist.gates[gate_index]
        if gate_index in seeds or gate.type == GateType.INPUT or gate.is_sequential:
            continue
        words[gate_index] = evaluate_parallel(
            gate.type, [words[driver] for driver in gate.fanin], mask
        )
    return {
        gate_index: word
        for gate_index, word in enumerate(words)
        if word != good[gate_index]
    }


def _direct_observation(netlist, fault, good, mask):
    """Failing patterns of a branch fault on a PO marker or flop D pin."""
    gate = netlist.gates[fault.gate]
    if fault.pin == OUTPUT_PIN or not (
        gate.type == GateType.OUTPUT or gate.is_sequential
    ):
        return 0
    forced = mask if fault.value else 0
    return (forced ^ good[gate.fanin[fault.pin]]) & mask


def _reference_per_output(simulator, fault, good, faulty, mask):
    """Failing-pattern word for every response position, every reader read."""
    netlist = simulator.netlist
    per_output = [
        (faulty.get(reader, good[reader]) ^ good[reader]) & mask
        for reader in simulator.view.output_readers
    ]
    direct = _direct_observation(netlist, fault, good, mask)
    if direct:
        if fault.gate in netlist.outputs:
            position = netlist.outputs.index(fault.gate)
        else:
            position = len(netlist.outputs) + netlist.flops.index(fault.gate)
        per_output[position] |= direct
    return per_output


def _reference_detection(simulator, fault, good, faulty, mask):
    diff = 0
    for word in _reference_per_output(simulator, fault, good, faulty, mask):
        diff |= word
    return diff


def _check_against_references(netlist, faults, patterns):
    for kernel in KERNELS:
        _check_kernel_against_references(netlist, faults, patterns, kernel)


def _check_kernel_against_references(netlist, faults, patterns, kernel):
    simulator = FaultSimulator(netlist, cache=None, kernel=kernel)
    n = len(patterns)
    mask = (1 << n) - 1
    good = simulator.parallel.good_words(patterns)
    for fault in faults:
        seeds = simulator._stuck_at_seeds(fault, good, mask)
        faulty = simulator._propagate(seeds, good, mask) if seeds else {}
        assert faulty == _reference_faulty(netlist, good, seeds, mask)
        assert simulator._detection_word(
            fault, good, faulty, mask
        ) == _reference_detection(simulator, fault, good, faulty, mask)
        per_output = _reference_per_output(simulator, fault, good, faulty, mask)
        expected_signature = {}
        for bit in range(n):
            failing = tuple(
                position
                for position, word in enumerate(per_output)
                if (word >> bit) & 1
            )
            if failing:
                expected_signature[bit] = failing
        assert simulator.failure_signature(patterns, fault) == expected_signature


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    netlist=st.one_of(small_netlists(), sequential_netlists()),
    data=st.data(),
)
def test_readout_and_propagation_match_references(netlist, data):
    faults = data.draw(
        st.lists(
            st.sampled_from(full_fault_list(netlist)),
            min_size=1,
            max_size=12,
            unique=True,
        )
    )
    n_inputs = len(netlist.inputs) + len(netlist.flops)
    patterns = random_patterns(
        n_inputs,
        data.draw(st.integers(min_value=1, max_value=64)),
        seed=data.draw(st.integers(0, 10**6)),
    )
    _check_against_references(netlist, faults, patterns)


def test_shared_reader_and_direct_branches_match_references():
    """One line read at two response positions (a PO and a flop D pin),
    another at two POs, and branch faults straight into each of them."""
    builder = NetlistBuilder()
    a, b = builder.input("a"), builder.input("b")
    both = builder.and_(a, b)
    mixed = builder.xor(a, both)
    builder.output("y", both)
    builder.output("z", both)
    builder.output("w", mixed)
    builder.dff(mixed, name="ff")
    netlist = builder.build()
    _check_against_references(
        netlist, full_fault_list(netlist), exhaustive_patterns(3)
    )


class _CountingWords(list):
    """A good-machine word list that counts element reads."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


def test_readout_reads_scale_with_the_faulty_map_not_the_readers():
    netlist = benchmarks.get_benchmark("mac4_x16")
    simulator = FaultSimulator(netlist, cache=None)
    n_readers = simulator.view.num_outputs
    assert n_readers == 384
    faults, _ = collapse_faults(netlist, full_fault_list(netlist))
    n = simulator.word_width
    mask = (1 << n) - 1
    patterns = random_patterns(simulator.view.num_inputs, n, seed=3)
    good = simulator.parallel.evaluate_words(
        simulator.parallel.pack_block(patterns), n
    )
    largest_map = 0
    for fault in faults[::7]:
        seeds = simulator._stuck_at_seeds(fault, good, mask)
        faulty = simulator._propagate(seeds, good, mask) if seeds else {}
        largest_map = max(largest_map, len(faulty))
        counting = _CountingWords(good)
        detect = simulator._detection_word(fault, counting, faulty, mask)
        assert counting.reads <= len(faulty) + 2
        assert detect == _reference_detection(simulator, fault, good, faulty, mask)
    # The bound bites: every fault's cone is far smaller than the
    # observation surface an all-readers readout would visit.
    assert largest_map < n_readers // 4
