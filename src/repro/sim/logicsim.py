"""Event-driven 4-valued logic simulation.

Two entry points:

* :meth:`LogicSimulator.evaluate` — one combinational evaluation of the
  full-scan view (pattern in, response out), with X propagation.
* :meth:`LogicSimulator.step` — one clock cycle (flops clocked), used for
  functional verification of the generated datapath blocks and for
  scan-chain shift simulation.

Values are the 4-valued constants of :mod:`repro.circuit.values`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..circuit.compiled import compiled
from ..circuit.gates import GateType, evaluate
from ..circuit.netlist import Netlist
from ..circuit.values import X
from .view import CombinationalView


class LogicSimulator:
    """4-valued simulator over a fixed netlist."""

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        self.view = CombinationalView(netlist)
        self._compiled = compiled(netlist)

    # ------------------------------------------------------------------
    # Combinational (full-scan view)
    # ------------------------------------------------------------------

    def evaluate(self, pattern: Sequence[int]) -> List[int]:
        """Evaluate all gates for one test pattern; returns values by gate.

        ``pattern`` assigns PIs then flop outputs, in
        :class:`CombinationalView` order.  Unassigned positions may use X.
        """
        if len(pattern) != self.view.num_inputs:
            raise ValueError(
                f"pattern length {len(pattern)} != {self.view.num_inputs} "
                "(PIs + flops)"
            )
        gates = self.netlist.gates
        fanins = self._compiled.fanins
        values: List[int] = [X] * len(gates)
        for position, gate_index in enumerate(self.view.input_gates):
            values[gate_index] = pattern[position]
        for gate_index in self._compiled.schedule:
            values[gate_index] = evaluate(
                gates[gate_index].type,
                [values[driver] for driver in fanins[gate_index]],
            )
        return values

    def response(self, pattern: Sequence[int]) -> List[int]:
        """Test response (POs then flop D values) for one pattern."""
        return self.view.read_outputs(self.evaluate(pattern))

    # ------------------------------------------------------------------
    # Sequential
    # ------------------------------------------------------------------

    def step(
        self,
        inputs: Sequence[int],
        state: Sequence[int],
        scan_shift: bool = False,
    ) -> Dict[str, List[int]]:
        """One clock cycle: returns ``{"outputs": ..., "state": ...}``.

        ``inputs`` covers primary inputs only.  With ``scan_shift`` true,
        ``SDFF`` flops capture their scan-in pin (fanin 1) instead of the
        functional D pin; plain ``DFF`` flops always capture D.
        """
        n_pi = len(self.netlist.inputs)
        if len(inputs) != n_pi:
            raise ValueError(f"expected {n_pi} primary inputs, got {len(inputs)}")
        if len(state) != len(self.netlist.flops):
            raise ValueError(
                f"expected {len(self.netlist.flops)} state values, got {len(state)}"
            )
        values = self.evaluate(list(inputs) + list(state))
        outputs = [values[self.netlist.gates[po].fanin[0]] for po in self.netlist.outputs]
        next_state: List[int] = []
        for flop_index in self.netlist.flops:
            gate = self.netlist.gates[flop_index]
            if scan_shift and gate.type == GateType.SDFF:
                next_state.append(values[gate.fanin[1]])
            else:
                next_state.append(values[gate.fanin[0]])
        return {"outputs": outputs, "state": next_state}
