"""Independent stuck-at reference simulator for full-scan netlists.

It shares nothing with the production engines but the netlist's gate
list (each gate's ``type`` and ``fanin``), its ``inputs``, ``outputs``
and ``flops``, and the scalar 4-valued
:func:`repro.circuit.gates.evaluate`.  No compiled tables, no
combinational view, no packed words: gates are ordered by a depth-first
search of their own, a fault is injected by rewriting a copy of the gate
list, and every pattern is one scalar evaluation of the whole circuit.

The full-scan convention is the toolkit's: a pattern assigns the primary
inputs, then the flops (their outputs are pseudo primary inputs), and
the response reads every PO marker, then every flop's D pin.  A stem
fault re-wires every reader of the line to a constant; a branch fault
re-wires one pin.
"""

from typing import Dict, Iterable, List, Sequence, Tuple

from repro.circuit.gates import GateType, evaluate
from repro.faults.model import OUTPUT_PIN

#: Scalar logic values, taken from the evaluator itself.
ZERO = evaluate(GateType.CONST0, [])
ONE = evaluate(GateType.CONST1, [])

#: Gates whose value a pattern assigns: never evaluated.
SOURCES = (GateType.INPUT, GateType.DFF, GateType.SDFF)

Circuit = Tuple[List[GateType], List[List[int]]]


def _circuit(netlist) -> Circuit:
    return (
        [gate.type for gate in netlist.gates],
        [list(gate.fanin) for gate in netlist.gates],
    )


def _order(circuit: Circuit) -> List[int]:
    """Every non-source gate after all of its drivers (iterative DFS)."""
    types, fanins = circuit
    done = [False] * len(types)
    order: List[int] = []
    for root in range(len(types)):
        stack = [(root, False)]
        while stack:
            gate, expanded = stack.pop()
            if done[gate]:
                continue
            if expanded or types[gate] in SOURCES:
                done[gate] = True
                if types[gate] not in SOURCES:
                    order.append(gate)
                continue
            stack.append((gate, True))
            stack.extend((driver, False) for driver in fanins[gate])
    return order


def _inject(circuit: Circuit, fault) -> Circuit:
    """A copy of ``circuit`` with ``fault`` wired in as a constant gate."""
    types, fanins = list(circuit[0]), [list(pins) for pins in circuit[1]]
    constant = len(types)
    types.append(GateType.CONST1 if fault.value else GateType.CONST0)
    fanins.append([])
    if fault.pin == OUTPUT_PIN:
        for pins in fanins[:constant]:
            pins[:] = [constant if d == fault.gate else d for d in pins]
    else:
        fanins[fault.gate][fault.pin] = constant
    return types, fanins


def _response(netlist, circuit: Circuit, order: List[int], pattern) -> tuple:
    types, fanins = circuit
    values: List[object] = [None] * len(types)
    sources = list(netlist.inputs) + list(netlist.flops)
    for gate, bit in zip(sources, pattern):
        values[gate] = ONE if bit else ZERO
    for gate in order:
        values[gate] = evaluate(types[gate], [values[d] for d in fanins[gate]])
    return tuple(values[po] for po in netlist.outputs) + tuple(
        values[fanins[flop][0]] for flop in netlist.flops
    )


def first_detections(
    netlist, patterns: Sequence[Sequence[int]], faults: Iterable
) -> Dict[object, int]:
    """Each detected fault's first detecting pattern index.

    A fault absent from the map is detected by no pattern.
    """
    good_circuit = _circuit(netlist)
    good_order = _order(good_circuit)
    good = [
        _response(netlist, good_circuit, good_order, pattern)
        for pattern in patterns
    ]
    firsts: Dict[object, int] = {}
    for fault in dict.fromkeys(faults):
        faulty = _inject(good_circuit, fault)
        order = _order(faulty)
        for index, pattern in enumerate(patterns):
            if _response(netlist, faulty, order, pattern) != good[index]:
                firsts[fault] = index
                break
    return firsts
