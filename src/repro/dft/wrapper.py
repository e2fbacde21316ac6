"""Core test wrapping (IEEE 1500-style, simplified).

Wrapping isolates a core for test: every functional input is driven from a
*wrapper boundary cell* and every functional output is captured into one.
Once the boundary cells join the scan chains, the core's complete test
stimulus and response travel through scan — no chip-level pin access is
needed, which is precisely what makes identical-core pattern *reuse*
possible (generate once at core level, deliver anywhere).

:func:`wrap_core` converts each PI into an input boundary flop and taps
each PO into an output boundary flop.  The wrapped netlist's full-scan
combinational view is then 100 % flop-driven and flop-observed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..circuit.gates import GateType
from ..circuit.netlist import Netlist


@dataclass
class WrappedCore:
    """A wrapped core netlist plus boundary-cell bookkeeping."""

    netlist: Netlist
    input_cells: Dict[str, int] = field(default_factory=dict)  # port -> flop
    output_cells: Dict[str, int] = field(default_factory=dict)

    @property
    def n_boundary_cells(self) -> int:
        return len(self.input_cells) + len(self.output_cells)


def wrap_core(core: Netlist, name: Optional[str] = None) -> WrappedCore:
    """Build the wrapped version of ``core``.

    Each original PI ``x`` becomes a DFF ``wbr_in[x]`` (its D pin fed by a
    chip-side input port kept for functional mode); consumers of ``x`` are
    rewired to the boundary flop.  Each PO gains a capture flop
    ``wbr_out[x]``.  After scan insertion the boundary flops are ordinary
    scan cells.
    """
    core.finalize()
    wrapped = Netlist(name or f"{core.name}_wrapped")
    mapping: Dict[int, int] = {}
    input_cells: Dict[str, int] = {}
    output_cells: Dict[str, int] = {}

    # Precompute every gate's destination index so forward references
    # (flop D pins patched after creation) map correctly.
    next_index = 0
    for pi in core.inputs:
        next_index += 2  # functional port + boundary flop
        mapping[pi] = next_index - 1  # the boundary flop stands in for the PI
    for gate in core.gates:
        if gate.type != GateType.INPUT:
            mapping[gate.index] = next_index
            next_index += 1

    # Chip-side functional input ports first, then boundary flops on them.
    for pi in core.inputs:
        port_name = core.gates[pi].name
        port = wrapped.add(GateType.INPUT, f"func_{port_name}")
        cell = wrapped.add(GateType.DFF, f"wbr_in[{port_name}]", [port])
        assert cell == mapping[pi]
        input_cells[port_name] = cell

    for gate in core.gates:
        if gate.type == GateType.INPUT:
            continue
        new_fanin = [mapping[driver] for driver in gate.fanin]
        wrapped.add(gate.type, gate.name, new_fanin)

    for po in core.outputs:
        driver = mapping[core.gates[po].fanin[0]]
        port_name = core.gates[po].name
        cell = wrapped.add(GateType.DFF, f"wbr_out[{port_name}]", [driver])
        output_cells[port_name] = cell

    wrapped.finalize()
    return WrappedCore(
        netlist=wrapped, input_cells=input_cells, output_cells=output_cells
    )
