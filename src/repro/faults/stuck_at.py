"""Stuck-at fault list enumeration.

The *uncollapsed* fault universe places a stuck-at-0 and a stuck-at-1 on
every line: every gate output stem that somebody reads, and every gate
input branch whose driver stem fans out to more than one consumer (when the
driver has a single fanout, the branch is the stem — enumerating both would
double-count an identical fault).
"""

from __future__ import annotations

from typing import List

from ..circuit.gates import GateType
from ..circuit.netlist import Netlist
from .model import OUTPUT_PIN, StuckAtFault


def fault_sites(netlist: Netlist) -> List[tuple]:
    """All ``(gate, pin)`` lines of the netlist.

    Output stems are enumerated for every gate that drives something and is
    not a port marker; input branches only where the driver fans out.
    ``OUTPUT`` marker gates contribute their input branch when the driven
    net fans out (so a fault right at a PO pin is distinguishable from the
    stem), and flops contribute branches on every pin.
    """
    netlist.finalize()
    sites: List[tuple] = []
    for gate in netlist.gates:
        if gate.type != GateType.OUTPUT:
            # Transparent PO markers have no stem of their own; everything
            # else (including PIs, whose stem is the input line) does.
            sites.append((gate.index, OUTPUT_PIN))
        for pin, driver in enumerate(gate.fanin):
            if gate.type == GateType.SDFF and pin > 0:
                # Scan-in / scan-enable branches are exercised by the chain
                # flush test, not by capture patterns (see repro.scan).
                continue
            if len(netlist.gates[driver].fanout) > 1:
                sites.append((gate.index, pin))
    return sites


def full_fault_list(netlist: Netlist) -> List[StuckAtFault]:
    """The uncollapsed stuck-at fault universe (two faults per line)."""
    faults: List[StuckAtFault] = []
    for gate, pin in fault_sites(netlist):
        faults.append(StuckAtFault(gate, pin, 0))
        faults.append(StuckAtFault(gate, pin, 1))
    return faults
