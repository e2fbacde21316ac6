"""Full-scan combinational view of a netlist.

Scan-based test treats each flop as a controllable/observable point: during
shift the chain loads arbitrary state, the capture clock latches the
combinational response, and unload observes it.  ATPG and fault simulation
therefore work on the *combinational view*:

* **test inputs** — primary inputs followed by flop outputs (pseudo-PIs),
* **test outputs** — primary outputs followed by flop D pins (pseudo-POs).

:class:`CombinationalView` fixes that ordering once so patterns and
responses are plain value vectors shared by every engine in the toolkit.
"""

from __future__ import annotations

from typing import List, Sequence

from ..circuit.netlist import Netlist


class CombinationalView:
    """Index maps between test vectors and netlist gates (full-scan view)."""

    def __init__(self, netlist: Netlist):
        netlist.finalize()
        self.netlist = netlist
        #: Gate indices whose values a test pattern assigns, in vector order.
        self.input_gates: List[int] = list(netlist.inputs) + list(netlist.flops)
        #: Gates whose value a response reports: the driver feeding each PO,
        #: then the functional D driver of each flop.
        self.output_readers: List[int] = [
            netlist.gates[po].fanin[0] for po in netlist.outputs
        ] + [netlist.gates[ff].fanin[0] for ff in netlist.flops]

    @property
    def num_inputs(self) -> int:
        return len(self.input_gates)

    @property
    def num_outputs(self) -> int:
        return len(self.output_readers)

    def input_names(self) -> List[str]:
        gates = self.netlist.gates
        return [gates[i].name for i in self.input_gates]

    def read_outputs(self, values: Sequence[int]) -> List[int]:
        """Extract the response vector from a full gate-value assignment."""
        return [values[reader] for reader in self.output_readers]
