"""Fault model primitives.

A *fault site* is a line of the netlist: either a gate's output stem
(``pin == OUTPUT_PIN``) or one of its input branches (``pin >= 0``, the
fanin position).  :class:`StuckAtFault` holds the line permanently at 0
or 1; it is a frozen dataclass so it hashes into fault lists and
dictionaries.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..circuit.netlist import Netlist

#: ``pin`` value denoting a fault on the gate's output stem.
OUTPUT_PIN = -1


@dataclass(frozen=True, order=True)
class StuckAtFault:
    """Line permanently stuck at ``value`` (0 or 1)."""

    gate: int
    pin: int
    value: int

    def describe(self, netlist: Netlist) -> str:
        gate = netlist.gates[self.gate]
        if self.pin == OUTPUT_PIN:
            where = gate.name
        else:
            driver = netlist.gates[gate.fanin[self.pin]].name
            where = f"{gate.name}.in{self.pin}({driver})"
        return f"{where} s-a-{self.value}"

