"""Fault model primitives.

A *fault site* is a line of the netlist: either a gate's output stem
(``pin == OUTPUT_PIN``) or one of its input branches (``pin >= 0``, the
fanin position).  Two classic fault models are provided:

* :class:`StuckAtFault` — the line is permanently 0 or 1.
* :class:`TransitionFault` — the line is slow-to-rise or slow-to-fall; it
  behaves like a temporary stuck-at in the second vector of a pattern pair.

Both are frozen dataclasses so they hash into fault lists and dictionaries.
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


@dataclass(frozen=True, order=True)
class TransitionFault:
    """Line slow to reach ``slow_to`` (1 = slow-to-rise, 0 = slow-to-fall).

    Detected by a pattern pair that launches the opposite value first and
    then attempts the transition while the fault effect (a transient
    stuck-at ``1 - slow_to``) propagates to an observation point.
    """

    gate: int
    pin: int
    slow_to: int

    @property
    def acts_as_stuck(self) -> int:
        """The stuck value the line exhibits during the capture vector."""
        return 1 - self.slow_to

    def describe(self, netlist: Netlist) -> str:
        gate = netlist.gates[self.gate]
        if self.pin == OUTPUT_PIN:
            where = gate.name
        else:
            driver = netlist.gates[gate.fanin[self.pin]].name
            where = f"{gate.name}.in{self.pin}({driver})"
        kind = "STR" if self.slow_to == 1 else "STF"
        return f"{where} {kind}"
