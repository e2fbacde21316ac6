"""COP — Controllability/Observability Program testability measures.

Where SCOAP counts *assignments*, COP estimates *probabilities* under
uniform random patterns, which is exactly what LBIST applies:

* ``cp[g]`` — probability the signal is 1 (signal probability),
* ``op[g]`` — probability a fault effect on the signal propagates to an
  observation point,
* detection probability of ``g`` s-a-v ≈ ``P(signal = 1-v) * op[g]``.

Both passes ignore reconvergent correlation (the classic COP
approximation); for test-point *selection* that is accurate enough and is
what the published insertion flows (Briers/Totton, Touba) use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..circuit.gates import GateType
from ..circuit.netlist import Netlist


@dataclass
class CopMeasures:
    """Per-gate signal and propagation probabilities."""

    cp: List[float]  # P(signal == 1)
    op: List[float]  # P(fault effect observed)

    def detection_probability(self, gate: int, stuck_value: int) -> float:
        excite = self.cp[gate] if stuck_value == 0 else 1.0 - self.cp[gate]
        return excite * self.op[gate]


def compute_cop(
    netlist: Netlist,
    cp_override: "Optional[Dict[int, float]]" = None,
    extra_observe: "Optional[set]" = None,
) -> CopMeasures:
    """One forward pass for cp, one backward pass for op.

    ``cp_override`` pins chosen gates' signal probabilities (what-if model
    of a control point randomizing a line); ``extra_observe`` adds virtual
    observation points (what-if model of tapping a line to an output).
    """
    netlist.finalize()
    gates = netlist.gates
    cp = [0.5] * len(gates)
    cp_override = cp_override or {}
    extra_observe = extra_observe or set()

    for index in netlist.topo_order:
        gate = gates[index]
        t = gate.type
        if index in cp_override:
            cp[index] = cp_override[index]
            continue
        if t == GateType.INPUT or gate.is_sequential:
            cp[index] = 0.5
            continue
        if t == GateType.CONST0:
            cp[index] = 0.0
            continue
        if t == GateType.CONST1:
            cp[index] = 1.0
            continue
        probs = [cp[d] for d in gate.fanin]
        if t in (GateType.BUF, GateType.OUTPUT):
            cp[index] = probs[0]
        elif t == GateType.NOT:
            cp[index] = 1.0 - probs[0]
        elif t in (GateType.AND, GateType.NAND):
            p = 1.0
            for q in probs:
                p *= q
            cp[index] = 1.0 - p if t == GateType.NAND else p
        elif t in (GateType.OR, GateType.NOR):
            p = 1.0
            for q in probs:
                p *= 1.0 - q
            cp[index] = p if t == GateType.NOR else 1.0 - p
        elif t in (GateType.XOR, GateType.XNOR):
            p_odd = 0.0
            for q in probs:
                p_odd = p_odd * (1.0 - q) + (1.0 - p_odd) * q
            cp[index] = 1.0 - p_odd if t == GateType.XNOR else p_odd
        elif t == GateType.MUX2:
            select, when0, when1 = probs
            cp[index] = (1.0 - select) * when0 + select * when1
        else:  # pragma: no cover
            cp[index] = 0.5

    op = [0.0] * len(gates)
    for po in netlist.outputs:
        op[po] = 1.0
        op[gates[po].fanin[0]] = 1.0
    for flop in netlist.flops:
        op[gates[flop].fanin[0]] = 1.0
    for observed in extra_observe:
        op[observed] = 1.0

    for index in reversed(netlist.topo_order):
        gate = gates[index]
        if gate.type == GateType.INPUT or gate.is_sequential:
            continue
        base = op[index]
        if base == 0.0:
            continue
        t = gate.type
        fanin = gate.fanin
        for pin, driver in enumerate(fanin):
            if t in (GateType.BUF, GateType.NOT, GateType.OUTPUT):
                through = base
            elif t in (GateType.AND, GateType.NAND):
                through = base
                for p, other in enumerate(fanin):
                    if p != pin:
                        through *= cp[other]
            elif t in (GateType.OR, GateType.NOR):
                through = base
                for p, other in enumerate(fanin):
                    if p != pin:
                        through *= 1.0 - cp[other]
            elif t in (GateType.XOR, GateType.XNOR):
                through = base  # XOR always propagates
            elif t == GateType.MUX2:
                select, when0, when1 = fanin
                if driver == select and pin == 0:
                    # Select change observed when the data inputs differ.
                    p0, p1 = cp[when0], cp[when1]
                    through = base * (p0 * (1 - p1) + (1 - p0) * p1)
                elif pin == 1:
                    through = base * (1.0 - cp[select])
                else:
                    through = base * cp[select]
            else:  # pragma: no cover
                through = base * 0.5
            if through > op[driver]:
                op[driver] = through

    return CopMeasures(cp=cp, op=op)


def hard_line_count(netlist: Netlist, measures: CopMeasures, threshold: float) -> int:
    """Gates whose harder stuck-at fault stays below ``threshold``.

    The what-if objective test-point selection minimizes: each inserted
    point should convert as many hard lines as possible into random-
    detectable ones.
    """
    count = 0
    for gate in netlist.gates:
        if gate.type in (GateType.INPUT, GateType.OUTPUT):
            continue
        worse = min(
            measures.detection_probability(gate.index, 0),
            measures.detection_probability(gate.index, 1),
        )
        if worse < threshold:
            count += 1
    return count
