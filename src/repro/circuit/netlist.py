"""Gate-level netlist graph.

A :class:`Netlist` is a directed graph of single-output :class:`Gate`
nodes.  Nets are identified with the gate that drives them, so "the value of
gate *g*" and "the value of net *g*" are the same thing.  Sequential
elements (``DFF``/``SDFF``) break combinational cycles: for levelization and
combinational engines their outputs act as pseudo primary inputs and their
``D`` pins as pseudo primary outputs — exactly the full-scan view used by
combinational ATPG.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    TypeVar,
)

from .gates import (
    SEQUENTIAL_TYPES,
    SOURCE_TYPES,
    GateType,
    fanin_count_valid,
)

_Derived = TypeVar("_Derived")


@dataclass
class Gate:
    """One single-output node of the netlist graph.

    ``fanin`` holds driving gate indices in pin order; ``fanout`` is derived
    and maintained by the :class:`Netlist`.
    """

    index: int
    name: str
    type: GateType
    fanin: List[int] = field(default_factory=list)
    fanout: List[int] = field(default_factory=list)
    level: int = -1

    @property
    def is_sequential(self) -> bool:
        return self.type in SEQUENTIAL_TYPES

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        fanins = ",".join(str(i) for i in self.fanin)
        return f"Gate({self.index}:{self.name}={self.type.value}({fanins}))"


class NetlistError(ValueError):
    """Raised for malformed netlist construction or queries."""


class Netlist:
    """A named collection of gates with port and state bookkeeping.

    Structural mutation happens through :meth:`add`, or by patching fanins
    in place and then calling :meth:`invalidate`; afterwards call
    :meth:`finalize` (or let the first query do it) to compute fanout lists,
    levels, and the topological order.
    """

    def __init__(self, name: str = "top"):
        self.name = name
        self.gates: List[Gate] = []
        self._by_name: Dict[str, int] = {}
        self.inputs: List[int] = []
        self.outputs: List[int] = []
        self.flops: List[int] = []
        self._topo: Optional[List[int]] = None
        self._signature: Optional[str] = None
        self._derived: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add(self, gate_type: GateType, name: str, fanin: Sequence[int] = ()) -> int:
        """Add a gate and return its index.

        ``fanin`` lists the indices of already-added driver gates in pin
        order.  ``OUTPUT`` gates are recorded as primary outputs, ``INPUT``
        gates as primary inputs, flops in :attr:`flops`.
        """
        if name in self._by_name:
            raise NetlistError(f"duplicate gate name: {name!r}")
        if not fanin_count_valid(gate_type, len(fanin)):
            raise NetlistError(
                f"gate {name!r} of type {gate_type.value} cannot take "
                f"{len(fanin)} fanin(s)"
            )
        index = len(self.gates)
        for driver in fanin:
            if driver < 0:
                raise NetlistError(
                    f"gate {name!r} references invalid fanin index {driver}"
                )
        gate = Gate(index=index, name=name, type=gate_type, fanin=list(fanin))
        self.gates.append(gate)
        self._by_name[name] = index
        if gate_type == GateType.INPUT:
            self.inputs.append(index)
        elif gate_type == GateType.OUTPUT:
            self.outputs.append(index)
        elif gate_type in SEQUENTIAL_TYPES:
            self.flops.append(index)
        self.invalidate()
        return index

    def invalidate(self) -> None:
        """Drop everything derived from the graph's structure.

        :meth:`add` calls it; call it after patching fanins in place.  The
        topo order, the structural signature and every :meth:`derived`
        table are rebuilt on their next use.
        """
        self._topo = None
        self._signature = None
        self._derived.clear()

    def index_of(self, name: str) -> int:
        """Look up a gate index by name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise NetlistError(f"no gate named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __len__(self) -> int:
        return len(self.gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates)

    # ------------------------------------------------------------------
    # Derived structure
    # ------------------------------------------------------------------

    def finalize(self) -> None:
        """Compute fanout lists, combinational levels, and the topo order.

        Raises :class:`NetlistError` on combinational cycles.  Idempotent;
        called lazily by the accessors below.
        """
        if self._topo is not None:
            return
        for gate in self.gates:
            for driver in gate.fanin:
                if driver >= len(self.gates):
                    raise NetlistError(
                        f"gate {gate.name!r} references undefined fanin index {driver}"
                    )
        for gate in self.gates:
            gate.fanout = []
        for gate in self.gates:
            for driver in gate.fanin:
                self.gates[driver].fanout.append(gate.index)

        # Kahn's algorithm over combinational edges.  Flop gates are sources:
        # their D-pin dependency is a *next-cycle* edge, so it does not count
        # toward in-degree and flops are emitted before combinational logic.
        indegree = [0] * len(self.gates)
        for gate in self.gates:
            if gate.is_sequential:
                indegree[gate.index] = 0
            else:
                indegree[gate.index] = len(gate.fanin)
        ready = [g.index for g in self.gates if indegree[g.index] == 0]
        order: List[int] = []
        head = 0
        while head < len(ready):
            current = ready[head]
            head += 1
            order.append(current)
            for consumer in self.gates[current].fanout:
                if self.gates[consumer].is_sequential:
                    continue
                indegree[consumer] -= 1
                if indegree[consumer] == 0:
                    ready.append(consumer)
        if len(order) != len(self.gates):
            stuck = [g.name for g in self.gates if indegree[g.index] > 0]
            raise NetlistError(
                f"combinational cycle through gates: {stuck[:8]}"
            )

        for gate in self.gates:
            if gate.type in SOURCE_TYPES or gate.is_sequential:
                gate.level = 0
        for index in order:
            gate = self.gates[index]
            if gate.level == 0 and (gate.type in SOURCE_TYPES or gate.is_sequential):
                continue
            gate.level = 1 + max(
                (self.gates[driver].level for driver in gate.fanin), default=0
            )
        self._topo = order

    @property
    def topo_order(self) -> List[int]:
        """Gate indices in combinational evaluation order."""
        self.finalize()
        assert self._topo is not None
        return self._topo

    def derived(self, key: str, build: Callable[["Netlist"], _Derived]) -> _Derived:
        """``build(self)`` for the finalized graph, memoized under ``key``.

        Engines keep compiled tables here so every engine bound to one
        netlist shares one copy.  :meth:`invalidate` (and so :meth:`add`)
        drops the memo.
        """
        self.finalize()
        if key not in self._derived:
            self._derived[key] = build(self)
        return self._derived[key]  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def is_sequential(self) -> bool:
        return bool(self.flops)

    @property
    def num_gates(self) -> int:
        """Count of logic gates (excludes ports)."""
        ports = {GateType.INPUT, GateType.OUTPUT}
        return sum(1 for g in self.gates if g.type not in ports)

    def input_names(self) -> List[str]:
        return [self.gates[i].name for i in self.inputs]

    def fanin_cone(self, roots: Iterable[int]) -> Set[int]:
        """All gates in the transitive combinational fanin of ``roots``.

        Traversal stops at flops and sources (their indices are included).
        """
        seen: Set[int] = set()
        stack = list(roots)
        while stack:
            index = stack.pop()
            if index in seen:
                continue
            seen.add(index)
            gate = self.gates[index]
            if gate.is_sequential:
                continue
            stack.extend(gate.fanin)
        return seen

    def fanout_cone(self, roots: Iterable[int]) -> Set[int]:
        """All gates in the transitive combinational fanout of ``roots``."""
        self.finalize()
        seen: Set[int] = set()
        stack = list(roots)
        while stack:
            index = stack.pop()
            if index in seen:
                continue
            seen.add(index)
            for consumer in self.gates[index].fanout:
                if not self.gates[consumer].is_sequential:
                    stack.append(consumer)
        return seen

    def stats(self) -> Dict[str, int]:
        """Summary counts, used in reports and benchmark tables."""
        self.finalize()
        depth = max((g.level for g in self.gates), default=0)
        return {
            "gates": self.num_gates,
            "inputs": len(self.inputs),
            "outputs": len(self.outputs),
            "flops": len(self.flops),
            "depth": depth,
        }

    def structural_signature(self) -> str:
        """Stable hash of the structural graph, independent of gate names.

        Two netlists with the same gate types and fanin topology in the same
        index order share a signature even when their names differ, so
        :meth:`clone` copies and replicated cores hit the same entries of the
        good-machine response cache (:mod:`repro.sim.goodcache`).  Memoized;
        dropped by :meth:`invalidate`.
        """
        if self._signature is None:
            hasher = hashlib.sha256()
            for gate in self.gates:
                hasher.update(gate.type.value.encode("ascii"))
                hasher.update(repr(tuple(gate.fanin)).encode("ascii"))
            self._signature = hasher.hexdigest()
        return self._signature

    def clone(self, name: Optional[str] = None) -> "Netlist":
        """Deep-copy the structural graph (fanout/levels recomputed lazily)."""
        copy = Netlist(name or self.name)
        for gate in self.gates:
            copy.add(gate.type, gate.name, list(gate.fanin))
        return copy

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Netlist({self.name!r}, gates={len(self.gates)}, "
            f"pi={len(self.inputs)}, po={len(self.outputs)}, "
            f"ff={len(self.flops)})"
        )
