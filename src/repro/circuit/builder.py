"""Convenience builder for constructing netlists by name.

:class:`NetlistBuilder` wraps :class:`~repro.circuit.netlist.Netlist` with
auto-named gates and small structural helpers so generator code reads like a
hardware description:

>>> b = NetlistBuilder("half_adder")
>>> a, c = b.input("a"), b.input("b")
>>> b.output("sum", b.xor(a, c))
>>> b.output("carry", b.and_(a, c))
>>> netlist = b.build()
>>> netlist.stats()["gates"]
2

All helper methods return gate indices, which are also valid netlist signal
handles everywhere else in the toolkit.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .gates import GateType
from .netlist import Netlist


class NetlistBuilder:
    """Incrementally build a :class:`Netlist` with auto-generated names."""

    def __init__(self, name: str = "top"):
        self.netlist = Netlist(name)
        self._counters: Dict[str, int] = {}

    def _auto_name(self, prefix: str) -> str:
        count = self._counters.get(prefix, 0)
        self._counters[prefix] = count + 1
        name = f"{prefix}{count}"
        while name in self.netlist:
            count += 1
            self._counters[prefix] = count + 1
            name = f"{prefix}{count}"
        return name

    def _gate(self, gate_type: GateType, fanin: Sequence[int], name: Optional[str]) -> int:
        if name is None:
            name = self._auto_name(f"{gate_type.value}_")
        return self.netlist.add(gate_type, name, fanin)

    # ------------------------------------------------------------------
    # Ports and state
    # ------------------------------------------------------------------

    def input(self, name: Optional[str] = None) -> int:
        return self._gate(GateType.INPUT, (), name or self._auto_name("in_"))

    def output(self, name: str, signal: int) -> int:
        return self._gate(GateType.OUTPUT, (signal,), name)

    def input_bus(self, name: str, width: int) -> List[int]:
        """Create ``width`` inputs named ``name[0] .. name[width-1]`` (LSB first)."""
        return [self.input(f"{name}[{bit}]") for bit in range(width)]

    def output_bus(self, name: str, signals: Sequence[int]) -> List[int]:
        """Expose a bus of signals as outputs, LSB first."""
        return [self.output(f"{name}[{bit}]", sig) for bit, sig in enumerate(signals)]

    def dff(self, data: int, name: Optional[str] = None) -> int:
        return self._gate(GateType.DFF, (data,), name)

    def sdff(self, data: int, scan_in: int, scan_enable: int, name: Optional[str] = None) -> int:
        return self._gate(GateType.SDFF, (data, scan_in, scan_enable), name)

    # ------------------------------------------------------------------
    # Combinational primitives
    # ------------------------------------------------------------------

    def const0(self, name: Optional[str] = None) -> int:
        return self._gate(GateType.CONST0, (), name)

    def const1(self, name: Optional[str] = None) -> int:
        return self._gate(GateType.CONST1, (), name)

    def buf(self, signal: int, name: Optional[str] = None) -> int:
        return self._gate(GateType.BUF, (signal,), name)

    def not_(self, signal: int, name: Optional[str] = None) -> int:
        return self._gate(GateType.NOT, (signal,), name)

    def and_(self, *signals: int, name: Optional[str] = None) -> int:
        return self._gate(GateType.AND, signals, name)

    def nand(self, *signals: int, name: Optional[str] = None) -> int:
        return self._gate(GateType.NAND, signals, name)

    def or_(self, *signals: int, name: Optional[str] = None) -> int:
        return self._gate(GateType.OR, signals, name)

    def nor(self, *signals: int, name: Optional[str] = None) -> int:
        return self._gate(GateType.NOR, signals, name)

    def xor(self, *signals: int, name: Optional[str] = None) -> int:
        return self._gate(GateType.XOR, signals, name)

    def xnor(self, *signals: int, name: Optional[str] = None) -> int:
        return self._gate(GateType.XNOR, signals, name)

    def mux(self, select: int, when0: int, when1: int, name: Optional[str] = None) -> int:
        """2:1 mux: output follows ``when0`` if ``select`` is 0, else ``when1``."""
        return self._gate(GateType.MUX2, (select, when0, when1), name)

    # ------------------------------------------------------------------
    # Word-level helpers (LSB-first buses)
    # ------------------------------------------------------------------

    def mux_bus(self, select: int, when0: Sequence[int], when1: Sequence[int]) -> List[int]:
        if len(when0) != len(when1):
            raise ValueError("mux_bus requires equal-width buses")
        return [self.mux(select, a, b) for a, b in zip(when0, when1)]

    def half_adder(self, a: int, b: int) -> Tuple[int, int]:
        """Return ``(sum, carry)``."""
        return self.xor(a, b), self.and_(a, b)

    def full_adder(self, a: int, b: int, carry_in: int) -> Tuple[int, int]:
        """Return ``(sum, carry_out)`` of a full adder."""
        partial = self.xor(a, b)
        total = self.xor(partial, carry_in)
        carry = self.or_(self.and_(a, b), self.and_(partial, carry_in))
        return total, carry

    def ripple_adder(self, a: Sequence[int], b: Sequence[int]) -> Tuple[List[int], int]:
        """Ripple-carry add two equal-width buses; return ``(sum_bus, carry_out)``."""
        if len(a) != len(b):
            raise ValueError("ripple_adder requires equal-width buses")
        carry = self.const0()
        total: List[int] = []
        for bit_a, bit_b in zip(a, b):
            s, carry = self.full_adder(bit_a, bit_b, carry)
            total.append(s)
        return total, carry

    def array_multiplier(self, a: Sequence[int], b: Sequence[int]) -> List[int]:
        """Unsigned array multiplier; returns a ``len(a)+len(b)`` wide product."""
        width_out = len(a) + len(b)
        columns: List[List[int]] = [[] for _ in range(width_out)]
        for i, bit_a in enumerate(a):
            for j, bit_b in enumerate(b):
                columns[i + j].append(self.and_(bit_a, bit_b))
        product: List[int] = []
        carries: List[int] = []
        for col in range(width_out):
            terms = columns[col] + carries
            carries = []
            while len(terms) > 1:
                if len(terms) >= 3:
                    s, c = self.full_adder(terms[0], terms[1], terms[2])
                    terms = terms[3:] + [s]
                else:
                    s, c = self.half_adder(terms[0], terms[1])
                    terms = terms[2:] + [s]
                carries.append(c)
            product.append(terms[0] if terms else self.const0())
        return product[:width_out]

    def and_tree(self, signals: Sequence[int]) -> int:
        """Balanced tree of 2-input ANDs (how synthesis maps wide ANDs)."""
        level = list(signals)
        if not level:
            raise ValueError("and_tree needs at least one signal")
        while len(level) > 1:
            nxt: List[int] = []
            for i in range(0, len(level) - 1, 2):
                nxt.append(self.and_(level[i], level[i + 1]))
            if len(level) % 2:
                nxt.append(level[-1])
            level = nxt
        return level[0]

    def equals_const(self, bus: Sequence[int], value: int) -> int:
        """Comparator: 1 when ``bus`` equals the constant ``value``.

        Built as a balanced 2-input AND tree so the cone has internal
        nodes — matching synthesized netlists and giving test-point
        insertion somewhere to cut random-resistance.
        """
        bits = []
        for position, signal in enumerate(bus):
            if (value >> position) & 1:
                bits.append(signal)
            else:
                bits.append(self.not_(signal))
        if len(bits) == 1:
            return self.buf(bits[0])
        return self.and_tree(bits)

    # ------------------------------------------------------------------

    def build(self) -> Netlist:
        """Finalize and return the netlist."""
        self.netlist.finalize()
        return self.netlist
