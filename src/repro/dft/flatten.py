"""Netlist replication — the flat view of a multi-core chip.

Hierarchical DFT's value proposition is measured *against* the flat
alternative: one netlist containing N copies of the core, handed to ATPG
whole.  :func:`replicate_netlist` builds exactly that (per-core prefixed
names, independent per-core ports), so E8 can run both flows on identical
logic.
"""

from __future__ import annotations

from typing import Optional

from ..circuit.netlist import Netlist


def replicate_netlist(core: Netlist, n_copies: int, name: Optional[str] = None) -> Netlist:
    """N structurally independent copies of ``core`` in one netlist.

    Gate ``g`` of copy ``k`` is named ``core{k}/{g.name}``.  Ports are
    per-copy (the chip pins a flat ATPG run would see through scan).
    """
    if n_copies < 1:
        raise ValueError("need at least one copy")
    core.finalize()
    chip = Netlist(name or f"{core.name}_x{n_copies}")
    for copy in range(n_copies):
        offset = len(chip.gates)
        for gate in core.gates:
            chip.add(
                gate.type,
                f"core{copy}/{gate.name}",
                [driver + offset for driver in gate.fanin],
            )
    chip.finalize()
    return chip
