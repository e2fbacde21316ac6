"""Structural fault-equivalence collapsing.

Two faults are *equivalent* when every test for one detects the other; only
one representative per equivalence class needs to enter ATPG/fault
simulation.  The classic structural rules implemented here:

* ``BUF``/``OUTPUT``/flop D pin: input s-a-v ≡ output s-a-v
* ``NOT``: input s-a-v ≡ output s-a-(1-v)
* ``AND``: any input s-a-0 ≡ output s-a-0 (``NAND``: ≡ output s-a-1)
* ``OR``: any input s-a-1 ≡ output s-a-1 (``NOR``: ≡ output s-a-0)

Collapsing typically shrinks the uncollapsed universe by 40-60 %.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..circuit.gates import GateType
from ..circuit.netlist import Netlist
from .model import OUTPUT_PIN, StuckAtFault


class _UnionFind:
    """Minimal union-find keyed by hashable items."""

    def __init__(self) -> None:
        self.parent: Dict[object, object] = {}

    def find(self, item: object) -> object:
        parent = self.parent.setdefault(item, item)
        if parent is item or parent == item:
            return item
        root = self.find(parent)
        self.parent[item] = root
        return root

    def union(self, left: object, right: object) -> None:
        root_l, root_r = self.find(left), self.find(right)
        if root_l != root_r:
            self.parent[root_r] = root_l


def line_fault(netlist: Netlist, gate: int, pin: int, value: int) -> StuckAtFault:
    """Canonical fault handle for a line.

    A branch whose driver has a single fanout *is* the stem, so the fault is
    recorded on the driver's output instead.
    """
    if pin == OUTPUT_PIN:
        return StuckAtFault(gate, OUTPUT_PIN, value)
    driver = netlist.gates[gate].fanin[pin]
    if len(netlist.gates[driver].fanout) == 1:
        return StuckAtFault(driver, OUTPUT_PIN, value)
    return StuckAtFault(gate, pin, value)


_SAME_VALUE_TRANSPARENT = (GateType.BUF, GateType.OUTPUT, GateType.DFF)


def collapse_faults(
    netlist: Netlist, faults: Sequence[StuckAtFault]
) -> Tuple[List[StuckAtFault], Dict[StuckAtFault, StuckAtFault]]:
    """Collapse a stuck-at list into equivalence-class representatives.

    Returns ``(representatives, mapping)`` where ``mapping`` sends every
    input fault to its class representative (which is itself in
    ``representatives``).  Representatives are chosen deterministically as
    the smallest fault in each class under dataclass ordering.
    """
    netlist.finalize()
    uf = _UnionFind()
    for fault in faults:
        uf.find(fault)

    for gate in netlist.gates:
        gate_type = gate.type
        for value in (0, 1):
            out_fault = StuckAtFault(gate.index, OUTPUT_PIN, value)
            if gate_type in _SAME_VALUE_TRANSPARENT or gate_type == GateType.SDFF:
                # Only the functional D pin (pin 0) is equivalent through.
                pins = [0] if gate.fanin else []
                for pin in pins:
                    in_fault = line_fault(netlist, gate.index, pin, value)
                    target = (
                        line_fault(netlist, gate.index, OUTPUT_PIN, value)
                        if gate_type == GateType.OUTPUT
                        else out_fault
                    )
                    if gate_type == GateType.OUTPUT:
                        continue  # marker has no stem; nothing to merge
                    uf.union(target, in_fault)
            elif gate_type == GateType.NOT:
                in_fault = line_fault(netlist, gate.index, 0, 1 - value)
                uf.union(out_fault, in_fault)
            elif gate_type in (GateType.AND, GateType.NAND) and value == _and_out(gate_type):
                for pin in range(len(gate.fanin)):
                    uf.union(out_fault, line_fault(netlist, gate.index, pin, 0))
            elif gate_type in (GateType.OR, GateType.NOR) and value == _or_out(gate_type):
                for pin in range(len(gate.fanin)):
                    uf.union(out_fault, line_fault(netlist, gate.index, pin, 1))

    classes: Dict[object, List[StuckAtFault]] = {}
    for fault in faults:
        classes.setdefault(uf.find(fault), []).append(fault)
    mapping: Dict[StuckAtFault, StuckAtFault] = {}
    representatives: List[StuckAtFault] = []
    for members in classes.values():
        representative = min(members)
        representatives.append(representative)
        for member in members:
            mapping[member] = representative
    representatives.sort()
    return representatives, mapping


def _and_out(gate_type: GateType) -> int:
    """Output value of AND-family gates when an input is stuck controlling."""
    return 1 if gate_type == GateType.NAND else 0


def _or_out(gate_type: GateType) -> int:
    """Output value of OR-family gates when an input is stuck controlling."""
    return 0 if gate_type == GateType.NOR else 1
