"""SCOAP-style testability measures.

Combinational controllability ``CC0``/``CC1`` (difficulty of setting a line
to 0/1) and observability ``CO`` (difficulty of propagating a line to an
observation point), computed per gate in the full-scan view.  Used by:

* PODEM backtrace — pick the easiest X input to satisfy an objective and
  the hardest input when all inputs must be set;
* LBIST test-point insertion (E6) — place control/observe points on the
  lines with the worst measures.

The measures follow Goldstein's SCOAP: every gate adds +1 depth cost, PIs
and scan flops cost 1 to control, observation points cost 0 to observe.

Identical cores (:func:`~repro.circuit.compiled.core_classes`) are
measured once per class: both walks visit only the gates outside every
class and each class's representative, and the measures are then copied to
every image by local id.  This is exact.  A non-source gate's fanins and
combinational consumers all lie in its own component, sources cost 1, and
the class key records each gate's reader and observation flags.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..circuit.compiled import compiled, core_classes
from ..circuit.gates import GateType
from ..circuit.netlist import Netlist

#: Cost used for lines that cannot be controlled/observed at all.
INFINITY = 10**9


@dataclass
class Testability:
    """Per-gate SCOAP vectors, indexed by gate index."""

    cc0: List[int]
    cc1: List[int]
    co: List[int]

    def controllability(self, gate: int, value: int) -> int:
        return self.cc1[gate] if value else self.cc0[gate]


def compute_testability(netlist: Netlist) -> Testability:
    """Compute CC0/CC1/CO for every gate (full-scan view)."""
    netlist.finalize()
    gates = netlist.gates
    cc0 = [INFINITY] * len(gates)
    cc1 = [INFINITY] * len(gates)
    cores = core_classes(netlist)
    order = netlist.topo_order
    if cores.classes:
        place = cores.place
        order = [
            index for index in order if place[index] is None or not place[index][2]
        ]

    for index in order:
        gate = gates[index]
        if gate.type == GateType.INPUT or gate.is_sequential:
            cc0[index] = 1
            cc1[index] = 1
            continue
        if gate.type == GateType.CONST0:
            cc0[index] = 0
            continue
        if gate.type == GateType.CONST1:
            cc1[index] = 0
            continue
        fanin = gate.fanin
        in0 = [cc0[driver] for driver in fanin]
        in1 = [cc1[driver] for driver in fanin]
        if gate.type in (GateType.BUF, GateType.OUTPUT):
            cc0[index], cc1[index] = in0[0] + 1, in1[0] + 1
        elif gate.type == GateType.NOT:
            cc0[index], cc1[index] = in1[0] + 1, in0[0] + 1
        elif gate.type == GateType.AND:
            cc1[index] = sum(in1) + 1
            cc0[index] = min(in0) + 1
        elif gate.type == GateType.NAND:
            cc0[index] = sum(in1) + 1
            cc1[index] = min(in0) + 1
        elif gate.type == GateType.OR:
            cc0[index] = sum(in0) + 1
            cc1[index] = min(in1) + 1
        elif gate.type == GateType.NOR:
            cc1[index] = sum(in0) + 1
            cc0[index] = min(in1) + 1
        elif gate.type in (GateType.XOR, GateType.XNOR):
            # Parity: cheapest combination achieving each output parity.
            even, odd = 0, INFINITY
            for zero_cost, one_cost in zip(in0, in1):
                new_even = min(even + zero_cost, odd + one_cost)
                new_odd = min(even + one_cost, odd + zero_cost)
                even, odd = new_even, new_odd
            if gate.type == GateType.XOR:
                cc0[index], cc1[index] = even + 1, odd + 1
            else:
                cc0[index], cc1[index] = odd + 1, even + 1
        elif gate.type == GateType.MUX2:
            select, when0, when1 = fanin
            for value, table in ((0, cc0), (1, cc1)):
                through0 = cc0[select] + (cc0[when0] if value == 0 else cc1[when0])
                through1 = cc1[select] + (cc0[when1] if value == 0 else cc1[when1])
                table[index] = min(through0, through1) + 1
        else:  # pragma: no cover - exhaustive over GateType
            raise ValueError(f"unhandled gate type {gate.type}")

    co = [INFINITY] * len(gates)
    for po in netlist.outputs:
        co[po] = 0
    for reader in compiled(netlist).readers:
        co[reader] = 0

    for index in reversed(order):
        gate = gates[index]
        if gate.type == GateType.INPUT or gate.is_sequential:
            continue
        base = co[index]
        if base >= INFINITY:
            continue
        fanin = gate.fanin
        for pin, driver in enumerate(fanin):
            if gate.type in (GateType.BUF, GateType.NOT, GateType.OUTPUT):
                cost = base + 1
            elif gate.type in (GateType.AND, GateType.NAND):
                cost = base + 1 + sum(
                    cc1[other] for p, other in enumerate(fanin) if p != pin
                )
            elif gate.type in (GateType.OR, GateType.NOR):
                cost = base + 1 + sum(
                    cc0[other] for p, other in enumerate(fanin) if p != pin
                )
            elif gate.type in (GateType.XOR, GateType.XNOR):
                cost = base + 1 + sum(
                    min(cc0[other], cc1[other])
                    for p, other in enumerate(fanin)
                    if p != pin
                )
            elif gate.type == GateType.MUX2:
                select, when0, when1 = fanin
                if pin == 0:
                    cost = base + 1 + min(
                        cc0[when0] + cc1[when1], cc1[when0] + cc0[when1]
                    )
                elif driver == when0 and pin == 1:
                    cost = base + 1 + cc0[select]
                else:
                    cost = base + 1 + cc1[select]
            else:  # pragma: no cover
                cost = base + 1
            if cost < co[driver]:
                co[driver] = cost

    for members in cores.classes:
        representative = members[0]
        for image in members[1:]:
            for index, twin in zip(image, representative):
                cc0[index] = cc0[twin]
                cc1[index] = cc1[twin]
                co[index] = co[twin]
    return Testability(cc0=cc0, cc1=cc1, co=co)
