"""Compiled implication core shared by the deterministic ATPG engines.

PODEM, guided PODEM and the D-algorithm all imply packed D-values
(:mod:`repro.circuit.dcalc`) over the same netlist.  :class:`ImplicationCore`
compiles what their inner loops read into flat per-gate tables:

* integer type codes (no ``GateType`` enum compares or hashes) and fanin
  tuples;
* combinational successor keys ``(topo << 32) | gate`` — sequential
  consumers already filtered out, so a key sorts by evaluation order and
  a heap of keys pops gates in topo order;
* topo positions, observation-reader flags and direct-observation flags;
* the fault-free all-X implication, computed once, from which each target
  fault re-implies only its fanout cone.

:func:`implication_core` builds it lazily and caches it on the netlist
(:meth:`~repro.circuit.netlist.Netlist.derived`), so every engine bound to
one netlist — the three portfolio members included — shares one copy.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..circuit.dcalc import AND_TABLE, DX, NOT_TABLE, OR_TABLE, XOR_TABLE, has_x
from ..circuit.gates import (
    SEQUENTIAL_TYPES,
    GateType,
    controlling_value,
    is_inverting,
    noncontrolling_value,
)
from ..circuit.netlist import Netlist
from ..sim.view import CombinationalView

#: Integer gate codes, one per evaluation rule.
BUF, NOT, AND, NAND, OR, NOR, XOR, XNOR, MUX2, CONST0, CONST1, SOURCE = range(12)

#: The gate type each code stands for; OUTPUT markers evaluate as BUF and
#: flops, like INPUT, are sources (assigned, never evaluated).
_TYPES = (
    GateType.BUF,
    GateType.NOT,
    GateType.AND,
    GateType.NAND,
    GateType.OR,
    GateType.NOR,
    GateType.XOR,
    GateType.XNOR,
    GateType.MUX2,
    GateType.CONST0,
    GateType.CONST1,
    GateType.INPUT,
)
_CODES = {gate_type: code for code, gate_type in enumerate(_TYPES)}
_CODES.update({GateType.OUTPUT: BUF, GateType.DFF: SOURCE, GateType.SDFF: SOURCE})

#: Per code: the controlling / non-controlling input value (None when no
#: single value controls) and whether the output inverts.
CONTROLLING = tuple(controlling_value(gate_type) for gate_type in _TYPES)
NONCONTROLLING = tuple(noncontrolling_value(gate_type) for gate_type in _TYPES)
INVERTING = tuple(is_inverting(gate_type) for gate_type in _TYPES)

#: Low 32 bits of a successor key: the gate index.
GATE_MASK = 0xFFFFFFFF

_RAIL_X = 2  # rail encoding of "unknown" inside a packed D-value

#: ``HAS_X[v]`` is :func:`~repro.circuit.dcalc.has_x` by lookup.
HAS_X = tuple(has_x(value) for value in range(9))


def _mux_rail(select: int, when0: int, when1: int) -> int:
    """One rail of a 2:1 mux: known select picks a side; X select is known
    only when both sides agree."""
    if select == 0:
        return when0
    if select == 1:
        return when1
    if when0 == when1 and when0 != _RAIL_X:
        return when0
    return _RAIL_X


#: Packed 2:1 mux, rail by rail, indexed ``select * 81 + when0 * 9 + when1``.
MUX_TABLE = tuple(
    _mux_rail(s // 3, a // 3, b // 3) * 3 + _mux_rail(s % 3, a % 3, b % 3)
    for s in range(9)
    for a in range(9)
    for b in range(9)
)


def evaluate(code: int, fanin: Sequence[int], values: Sequence[int]) -> int:
    """Packed D-value of one healthy combinational gate over ``values``."""
    if code == AND or code == NAND:
        table = AND_TABLE
        acc = 4  # pack(1, 1), the AND identity
    elif code == XOR or code == XNOR:
        table = XOR_TABLE
        acc = 0
    elif code == OR or code == NOR:
        table = OR_TABLE
        acc = 0
    elif code == BUF:
        return values[fanin[0]]
    elif code == NOT:
        return NOT_TABLE[values[fanin[0]]]
    elif code == MUX2:
        select, when0, when1 = fanin
        return MUX_TABLE[values[select] * 81 + values[when0] * 9 + values[when1]]
    elif code == CONST0:
        return 0  # pack(0, 0)
    elif code == CONST1:
        return 4  # pack(1, 1)
    else:  # pragma: no cover - sources are assigned, never evaluated
        raise ValueError(f"gate code {code} is not combinational")
    for driver in fanin:
        acc = table[acc][values[driver]]
    return NOT_TABLE[acc] if INVERTING[code] else acc


class ImplicationCore:
    """Flat per-gate tables plus the fault-free all-X implication."""

    def __init__(self, netlist: Netlist):
        netlist.finalize()
        gates = netlist.gates
        n = len(gates)
        self.codes: List[int] = [_CODES[gate.type] for gate in gates]
        self.fanins: List[Tuple[int, ...]] = [tuple(gate.fanin) for gate in gates]
        self.topo: List[int] = [0] * n
        for position, gate_index in enumerate(netlist.topo_order):
            self.topo[gate_index] = position
        topo = self.topo
        #: Sorted, de-duplicated combinational successor keys per gate.
        self.successors: List[Tuple[int, ...]] = [
            tuple(
                sorted(
                    {
                        (topo[consumer] << 32) | consumer
                        for consumer in gate.fanout
                        if gates[consumer].type not in SEQUENTIAL_TYPES
                    }
                )
            )
            for gate in gates
        ]
        #: Gates a response reads: PO drivers and flop D drivers.
        self.is_reader: List[bool] = [False] * n
        for reader in CombinationalView(netlist).output_readers:
            self.is_reader[reader] = True
        #: PO markers and flops: a branch fault on their pin is observed.
        self.observes: List[bool] = [
            gate.type == GateType.OUTPUT or gate.type in SEQUENTIAL_TYPES
            for gate in gates
        ]
        values = [DX] * n
        codes, fanins = self.codes, self.fanins
        for gate_index in netlist.topo_order:
            code = codes[gate_index]
            if code != SOURCE:
                values[gate_index] = evaluate(code, fanins[gate_index], values)
        #: Fault-free packed values with every source at X.
        self.fault_free: Tuple[int, ...] = tuple(values)


def implication_core(netlist: Netlist) -> ImplicationCore:
    """The netlist's shared :class:`ImplicationCore`, built on first use."""
    return netlist.derived("atpg.implication", ImplicationCore)
