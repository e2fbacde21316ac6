"""Netlist clean-up: constant propagation, buffer collapse, dead-logic sweep.

Generated and instrumented netlists accumulate debris — constant nets from
tied-off inputs, buffer chains from wrapping, logic left unobservable by
rewiring.  Untestable-fault counts then overstate the real redundancy.
:func:`simplify` performs the classic safe transforms:

1. **constant propagation** — a gate with enough constant inputs becomes a
   constant; controlled inputs drop (e.g. ``AND(x, 1) -> BUF(x)``);
2. **buffer collapse** — ``BUF`` gates forward their driver;
3. **dead-logic sweep** — gates reaching no output or flop are removed.

The result is functionally identical on every primary output (verified by
the tests pattern-for-pattern) with a strictly smaller redundant-fault
population.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from .gates import GateType
from .netlist import Netlist

_CONST = {GateType.CONST0: 0, GateType.CONST1: 1}


@dataclass
class SimplifyReport:
    """What the clean-up removed."""

    gates_before: int
    gates_after: int
    constants_propagated: int
    buffers_collapsed: int
    dead_gates_removed: int

    @property
    def removed(self) -> int:
        return self.gates_before - self.gates_after


def _propagate_gate(
    gate_type: GateType, drivers: List[int], consts: Dict[int, int]
) -> Tuple[Optional[int], Optional[int], Optional[List[int]], Optional[GateType]]:
    """Resolve one gate against known constants.

    Returns ``(constant, forward, reduced_fanin, new_type)``: a constant
    value, a driver index to forward to (wire), or a reduced fanin list —
    with ``new_type`` set when dropping constants changes the function
    (XOR absorbing an odd number of 1s becomes XNOR, and vice versa).
    """
    known = [(d, consts[d]) for d in drivers if d in consts]
    unknown = [d for d in drivers if d not in consts]

    if gate_type in (GateType.BUF, GateType.OUTPUT):
        if drivers[0] in consts:
            return consts[drivers[0]], None, None, None
        return None, drivers[0], None, None
    if gate_type == GateType.NOT:
        if drivers[0] in consts:
            return 1 - consts[drivers[0]], None, None, None
        return None, None, None, None
    if gate_type in (GateType.AND, GateType.NAND):
        inverted = gate_type == GateType.NAND
        if any(value == 0 for _, value in known):
            return (1 if inverted else 0), None, None, None
        if not unknown:
            return (0 if inverted else 1), None, None, None
        if len(unknown) == 1 and not inverted:
            return None, unknown[0], None, None
        if len(unknown) < len(drivers):
            # Dropped constants are all non-controlling 1s: type unchanged.
            return None, None, unknown, None
        return None, None, None, None
    if gate_type in (GateType.OR, GateType.NOR):
        inverted = gate_type == GateType.NOR
        if any(value == 1 for _, value in known):
            return (0 if inverted else 1), None, None, None
        if not unknown:
            return (1 if inverted else 0), None, None, None
        if len(unknown) == 1 and not inverted:
            return None, unknown[0], None, None
        if len(unknown) < len(drivers):
            return None, None, unknown, None
        return None, None, None, None
    if gate_type in (GateType.XOR, GateType.XNOR):
        # Effective parity the dropped constants contribute (XNOR's output
        # inversion folded in as one extra flip).
        flips = sum(value for _, value in known) % 2
        if gate_type == GateType.XNOR:
            flips ^= 1
        if not unknown:
            return flips, None, None, None
        if len(unknown) == 1:
            if flips == 0:
                return None, unknown[0], None, None
            return None, None, unknown, GateType.XNOR  # XNOR(x) == NOT(x)
        if len(unknown) < len(drivers):
            new_type = GateType.XNOR if flips else GateType.XOR
            return None, None, unknown, new_type
        return None, None, None, None
    if gate_type == GateType.MUX2:
        select, when0, when1 = drivers
        if select in consts:
            return None, (when0 if consts[select] == 0 else when1), None, None
        if when0 in consts and when1 in consts and consts[when0] == consts[when1]:
            return consts[when0], None, None, None
        return None, None, None, None
    return None, None, None, None


def simplify(netlist: Netlist, name: Optional[str] = None) -> Tuple[Netlist, SimplifyReport]:
    """Return a cleaned functional twin of ``netlist`` plus a report.

    Primary inputs, outputs, and flops are always preserved (flops keep
    their D connectivity even when constant — state behaviour must not
    change across reset sequences this pass cannot see).
    """
    netlist.finalize()
    gates = netlist.gates

    # Pass 1: forward constants and wire-forwards, in topo order.
    consts: Dict[int, int] = {}
    forward: Dict[int, int] = {}
    reduced: Dict[int, List[int]] = {}
    retyped: Dict[int, GateType] = {}
    constants_propagated = 0
    buffers_collapsed = 0

    def resolve(index: int) -> int:
        while index in forward:
            index = forward[index]
        return index

    for index in netlist.topo_order:
        gate = gates[index]
        if gate.type in _CONST:
            consts[index] = _CONST[gate.type]
            continue
        if gate.type == GateType.INPUT or gate.is_sequential:
            continue
        drivers = [resolve(d) for d in gate.fanin]
        constant, wire, smaller, new_type = _propagate_gate(
            gate.type, drivers, consts
        )
        if gate.type == GateType.OUTPUT:
            continue  # markers stay; their driver resolution happens later
        if constant is not None:
            consts[index] = constant
            constants_propagated += 1
        elif wire is not None:
            forward[index] = wire
            if gate.type == GateType.BUF:
                buffers_collapsed += 1
            else:
                constants_propagated += 1
        elif smaller is not None:
            reduced[index] = smaller
            if new_type is not None:
                retyped[index] = new_type

    # Pass 2: rebuild, keeping only live logic.
    rebuilt = Netlist(name or f"{netlist.name}_simplified")
    const_gates: Dict[int, int] = {}

    def const_gate(value: int) -> int:
        if value not in const_gates:
            const_gates[value] = rebuilt.add(
                GateType.CONST1 if value else GateType.CONST0,
                f"__const{value}",
            )
        return const_gates[value]

    # Liveness: walk back from outputs and flop D pins.
    live: Set[int] = set()
    stack = [resolve(gates[po].fanin[0]) for po in netlist.outputs]
    stack += [resolve(gates[ff].fanin[0]) for ff in netlist.flops]
    stack += list(netlist.flops)
    while stack:
        index = stack.pop()
        index = resolve(index)
        if index in live or index in consts:
            continue
        live.add(index)
        gate = gates[index]
        drivers = reduced.get(index, [resolve(d) for d in gate.fanin])
        if gate.is_sequential:
            drivers = [resolve(gate.fanin[0])]
        stack.extend(drivers)

    mapping: Dict[int, int] = {}
    # Inputs always survive (interface stability).
    for pi in netlist.inputs:
        mapping[pi] = rebuilt.add(GateType.INPUT, gates[pi].name)

    def mapped(index: int) -> int:
        index = resolve(index)
        if index in consts:
            return const_gate(consts[index])
        return mapping[index]

    # Flops first (they may reference later gates; patched afterwards).
    for flop in netlist.flops:
        mapping[flop] = rebuilt.add(GateType.DFF, gates[flop].name, [0])

    for index in netlist.topo_order:
        gate = gates[index]
        if (
            index not in live
            or gate.type == GateType.INPUT
            or gate.is_sequential
            or index in consts
            or index in forward
        ):
            continue
        drivers = reduced.get(index, [resolve(d) for d in gate.fanin])
        gate_type = retyped.get(index, gate.type)
        mapping[index] = rebuilt.add(
            gate_type, gate.name, [mapped(d) for d in drivers]
        )

    for flop in netlist.flops:
        rebuilt.gates[mapping[flop]].fanin[0] = mapped(gates[flop].fanin[0])

    for po in netlist.outputs:
        rebuilt.add(GateType.OUTPUT, gates[po].name, [mapped(gates[po].fanin[0])])

    rebuilt.invalidate()
    rebuilt.finalize()
    dead = sum(
        1
        for gate in gates
        if gate.type
        not in (GateType.INPUT, GateType.OUTPUT, GateType.CONST0, GateType.CONST1)
        and not gate.is_sequential
        and gate.index not in live
        and gate.index not in consts
        and gate.index not in forward
    )
    report = SimplifyReport(
        gates_before=netlist.num_gates,
        gates_after=rebuilt.num_gates,
        constants_propagated=constants_propagated,
        buffers_collapsed=buffers_collapsed,
        dead_gates_removed=dead,
    )
    return rebuilt, report
