"""Reconfigurable test-access network (IEEE 1687 / IJTAG style).

A modern AI SoC carries hundreds of embedded test instruments — per-core
MBIST controllers, EDT blocks, sensors.  Two access fabrics compete:

* **flat daisy chain** — every instrument TDR sits permanently in one long
  scan path: trivial control, but every access shifts every bit;
* **SIB network** — Segment Insertion Bits splice subtrees in and out of
  the active path: accesses to a few instruments shift short paths, at the
  cost of reconfiguration shifts that walk the hierarchy open.

The cycle model follows the 1687 retargeting literature: each CSU
(capture-shift-update) pass costs the *current* active path length + 1
update cycle; opening a deeper level requires one pass per level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Union


@dataclass(frozen=True)
class Instrument:
    """A leaf test-data register."""

    name: str
    tdr_length: int

    def __post_init__(self):
        if self.tdr_length < 1:
            raise ValueError("TDR length must be positive")


@dataclass
class SibNode:
    """A segment-insertion bit guarding a subtree of the network.

    When closed, the node contributes exactly its own 1-bit SIB register to
    the scan path; when open, the SIB bit plus every child segment.
    """

    name: str
    children: List[Union["SibNode", Instrument]] = field(default_factory=list)


def _segment_length(node: Union[SibNode, Instrument], open_sibs: Set[str]) -> int:
    if isinstance(node, Instrument):
        return node.tdr_length
    length = 1  # the SIB register itself
    if node.name in open_sibs:
        for child in node.children:
            length += _segment_length(child, open_sibs)
    return length


class SibNetwork:
    """A SIB tree rooted directly behind TDI."""

    def __init__(self, roots: Sequence[Union[SibNode, Instrument]]):
        self.roots = list(roots)
        self._parents: Dict[str, Optional[str]] = {}
        self._instruments: Dict[str, Instrument] = {}
        for root in self.roots:
            self._index(root, None)

    def _index(
        self, node: Union[SibNode, Instrument], parent: Optional[str]
    ) -> None:
        if isinstance(node, Instrument):
            if node.name in self._instruments:
                raise ValueError(f"duplicate instrument {node.name!r}")
            self._instruments[node.name] = node
            self._parents[node.name] = parent
            return
        if node.name in self._parents:
            raise ValueError(f"duplicate SIB {node.name!r}")
        self._parents[node.name] = parent
        for child in node.children:
            self._index(child, node.name)

    @property
    def instruments(self) -> List[Instrument]:
        return list(self._instruments.values())

    def sibs_for(self, instrument_names: Iterable[str]) -> Set[str]:
        """Every SIB that must be open to reach the named instruments."""
        needed: Set[str] = set()
        for name in instrument_names:
            if name not in self._instruments:
                raise KeyError(f"unknown instrument {name!r}")
            parent = self._parents[name]
            while parent is not None:
                needed.add(parent)
                parent = self._parents[parent]
        return needed

    def path_length(self, open_sibs: Set[str]) -> int:
        """Active scan-path bits for a SIB configuration."""
        return sum(_segment_length(root, open_sibs) for root in self.roots)

    def depth_of(self, open_sibs: Set[str]) -> int:
        """Deepest open SIB level (number of reconfiguration waves)."""
        depth = 0
        for sib in open_sibs:
            level = 1
            parent = self._parents[sib]
            while parent is not None:
                level += 1
                parent = self._parents[parent]
            depth = max(depth, level)
        return depth

    def access_cycles(self, instrument_names: Sequence[str]) -> Dict[str, int]:
        """Cycles to configure the path and perform one CSU data access.

        Reconfiguration opens SIBs level by level from the all-closed
        state: wave *k* shifts the path as configured after wave *k-1*.
        The final data access shifts the fully open path once.
        """
        targets = set(instrument_names)
        needed = self.sibs_for(targets)
        waves = self.depth_of(needed)
        reconfig = 0
        opened: Set[str] = set()
        for level in range(1, waves + 1):
            reconfig += self.path_length(opened) + 1  # CSU pass
            opened = {
                sib
                for sib in needed
                if self._sib_level(sib) <= level
            }
        data_path = self.path_length(needed)
        return {
            "reconfig_cycles": reconfig,
            "data_cycles": data_path + 1,
            "total_cycles": reconfig + data_path + 1,
            "path_bits": data_path,
        }

    def _sib_level(self, sib: str) -> int:
        level = 1
        parent = self._parents[sib]
        while parent is not None:
            level += 1
            parent = self._parents[parent]
        return level


def flat_chain_cycles(
    instruments: Sequence[Instrument], instrument_names: Sequence[str]
) -> Dict[str, int]:
    """One access on a flat daisy chain: always the full path."""
    total_bits = sum(instrument.tdr_length for instrument in instruments)
    return {
        "reconfig_cycles": 0,
        "data_cycles": total_bits + 1,
        "total_cycles": total_bits + 1,
        "path_bits": total_bits,
    }


def build_balanced_network(
    instruments: Sequence[Instrument], fanout: int = 4
) -> SibNetwork:
    """Pack instruments under a balanced SIB tree with ``fanout`` children."""
    if fanout < 2:
        raise ValueError("fanout must be at least 2")
    level: List[Union[SibNode, Instrument]] = list(instruments)
    tier = 0
    while len(level) > fanout:
        grouped: List[Union[SibNode, Instrument]] = []
        for start in range(0, len(level), fanout):
            children = level[start : start + fanout]
            grouped.append(SibNode(f"sib_t{tier}_{start // fanout}", children))
        level = grouped
        tier += 1
    return SibNetwork([SibNode("sib_root", level)])


def access_schedule_comparison(
    instruments: Sequence[Instrument],
    accesses: Sequence[Sequence[str]],
) -> Dict[str, object]:
    """Total cycles for an access schedule, flat vs a fanout-4 SIB network.

    ``accesses`` is a list of instrument-name groups, each accessed once
    (the network reverts to all-closed between groups — conservative for
    the SIB side).
    """
    network = build_balanced_network(instruments, 4)
    flat_total = sum(
        flat_chain_cycles(instruments, group)["total_cycles"]
        for group in accesses
    )
    sib_total = sum(
        network.access_cycles(group)["total_cycles"] for group in accesses
    )
    return {
        "instruments": len(instruments),
        "accesses": len(accesses),
        "flat_cycles": flat_total,
        "sib_cycles": sib_total,
        "sib_speedup_x": round(flat_total / sib_total, 2) if sib_total else 0.0,
    }
