"""One compiled netlist under every engine.

ATPG, fault simulation and 4-valued logic simulation all walk the same
gate-level graph.  :class:`CompiledNetlist` compiles what their inner
loops read into flat per-gate tables:

* integer type codes (no ``GateType`` enum compares or hashes) and fanin
  tuples;
* topo positions and combinational successor keys ``(topo << 32) | gate``
  — sequential consumers already filtered out, so a key sorts by
  evaluation order and a heap of keys pops gates in topo order;
* the evaluation ``schedule`` (combinational gates in topo order), the
  observation ``readers`` in response order, and direct-observation flags;
* the fanout-free regions (``parent``, ``pins``, ``root``) that fault
  simulation traces stuck-at effects through;
* ``fault_free``, ATPG's all-X implication, computed on first use only.

:func:`compiled` builds it lazily and caches it on the netlist
(:meth:`~repro.circuit.netlist.Netlist.derived`), so every engine bound to
one netlist shares one copy.  Per-gate evaluator closures stay with the
engines: a netlist pickled to a spawn worker carries its derived tables,
and closures do not pickle.

:func:`core_classes` caches :class:`CoreClasses` the same way: the
netlist's identical cores, which fault simulation grades once per class
and ATPG measures and searches once per class.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .dcalc import _RAIL_X, AND_TABLE, DX, NOT_TABLE, OR_TABLE, XOR_TABLE, has_x
from .gates import (
    SEQUENTIAL_TYPES,
    GateType,
    controlling_value,
    is_inverting,
    noncontrolling_value,
)
from .netlist import Netlist

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


class CompiledNetlist:
    """Flat per-gate tables shared by every engine bound to one netlist."""

    def __init__(self, netlist: Netlist):
        gates = netlist.gates
        order = netlist.topo_order
        n = len(gates)
        self.codes: List[int] = [_CODES[gate.type] for gate in gates]
        self.fanins: List[Tuple[int, ...]] = [tuple(gate.fanin) for gate in gates]
        self.topo: List[int] = [0] * n
        for position, gate_index in enumerate(order):
            self.topo[gate_index] = position
        codes, fanins, topo = self.codes, self.fanins, self.topo
        #: Combinational gates in evaluation order (sources excluded).
        self.schedule: Tuple[int, ...] = tuple(
            gate_index for gate_index in order if codes[gate_index] != SOURCE
        )
        #: Sorted, de-duplicated combinational successor keys per gate.
        self.successors: List[Tuple[int, ...]] = [
            tuple(
                sorted(
                    {
                        (topo[consumer] << 32) | consumer
                        for consumer in gate.fanout
                        if codes[consumer] != SOURCE
                    }
                )
            )
            for gate in gates
        ]
        #: Gates a response reads, in response order: the driver of each
        #: PO, then the D driver of each flop.
        self.readers: List[int] = [gates[po].fanin[0] for po in netlist.outputs]
        self.readers += [gates[ff].fanin[0] for ff in netlist.flops]
        self.is_reader: List[bool] = [False] * n
        for reader in self.readers:
            self.is_reader[reader] = True
        #: PO markers and flops: a branch fault on their pin is observed.
        self.observes: List[bool] = [
            gate.type == GateType.OUTPUT or gate.type in SEQUENTIAL_TYPES
            for gate in gates
        ]
        # Fanout-free regions.  A gate's region parent is its one consumer
        # when it feeds exactly one gate (on any number of pins), is not a
        # reader and that consumer is combinational; every other gate roots
        # a region.  Each region is a tree, so a fault effect inside it
        # reaches the root along one path.  The consumer count is taken
        # over the full fanout, so a flop feeding one gate and a scan-in
        # pin stays a root.
        #: Region parent per gate, or -1 for a region root.
        self.parent: List[int] = [-1] * n
        #: The parent's pins that read the gate.
        self.pins: List[Tuple[int, ...]] = [()] * n
        for gate in gates:
            consumers = set(gate.fanout)
            if len(consumers) != 1 or self.is_reader[gate.index]:
                continue
            (consumer,) = consumers
            if codes[consumer] == SOURCE:
                continue
            self.parent[gate.index] = consumer
            self.pins[gate.index] = tuple(
                pin
                for pin, driver in enumerate(fanins[consumer])
                if driver == gate.index
            )
        # A parent follows its child in topo order: resolve roots from the
        # outputs back.
        #: Root of each gate's region.
        self.root: List[int] = list(range(n))
        for gate_index in reversed(order):
            consumer = self.parent[gate_index]
            if consumer >= 0:
                self.root[gate_index] = self.root[consumer]
        self._fault_free: Optional[Tuple[int, ...]] = None

    @property
    def fault_free(self) -> Tuple[int, ...]:
        """Fault-free packed D-values with every source at X.

        Only ATPG reads it, so it is computed on first use.
        """
        if self._fault_free is None:
            values = [DX] * len(self.codes)
            codes, fanins = self.codes, self.fanins
            for gate_index in self.schedule:
                values[gate_index] = evaluate(
                    codes[gate_index], fanins[gate_index], values
                )
            self._fault_free = tuple(values)
        return self._fault_free


def compiled(netlist: Netlist) -> CompiledNetlist:
    """The netlist's shared :class:`CompiledNetlist`, built on first use."""
    return netlist.derived("circuit.compiled", CompiledNetlist)


class CoreClasses:
    """Identical cores of one netlist: isomorphic combinational components.

    Components are the connected components of the combinational graph:
    each gate is joined to its combinational consumers, so a source joins
    every core that reads it, but a flop is not joined to its D/SI
    drivers, so scan chains do not merge cores.  A component's key
    relabels its gates to local ids in index order and records, per gate,
    everything stuck-at grading reads: the type code, local fanins (-1
    for a driver outside the component), the region parent and pins, and
    the reader and observation flags.  Components with equal keys (equal
    as full tuples, so every match is an explicit isomorphism) form a
    class; its members are listed in component order, so member 0 is the
    representative.
    """

    def __init__(self, netlist: Netlist):
        tables = compiled(netlist)
        n = len(tables.codes)
        link = list(range(n))

        def find(gate: int) -> int:
            while link[gate] != gate:
                link[gate] = link[link[gate]]
                gate = link[gate]
            return gate

        for consumer, drivers in enumerate(tables.fanins):
            if tables.codes[consumer] == SOURCE:
                continue
            for driver in drivers:
                a, b = find(driver), find(consumer)
                if a != b:
                    link[max(a, b)] = min(a, b)
        by_root: dict = {}
        for gate in range(n):
            by_root.setdefault(find(gate), []).append(gate)
        #: Component id of every gate, in order of first gate.
        self.component: List[int] = [0] * n
        components = list(by_root.values())
        for number, gates in enumerate(components):
            for gate in gates:
                self.component[gate] = number
        by_key: dict = {}
        for gates in components:
            by_key.setdefault(self._key(tables, gates), []).append(gates)
        #: Per class of two or more identical components: its members'
        #: gate lists, aligned by local id.
        self.classes: List[List[List[int]]] = [
            members for members in by_key.values() if len(members) > 1
        ]
        #: Per gate: (class number, local id, copy number), or None outside
        #: every class.
        self.place: List[Optional[Tuple[int, int, int]]] = [None] * n
        for number, members in enumerate(self.classes):
            for copy, gates in enumerate(members):
                for local, gate in enumerate(gates):
                    self.place[gate] = (number, local, copy)
        self._fanins = tables.fanins

    def images(self, faults: Iterable) -> Dict[Tuple[int, int, int, int], list]:
        """Stuck-at faults grouped by image key, in ``faults`` order.

        A fault's image key is (class number, local id, pin, value): faults
        with one key are the same fault on identical cores, so they are
        detected by the same patterns of their own copies, and untestable
        in every copy or in none.  A fault outside every class has no key.
        Neither has a branch fault whose driver lies in another component,
        which only a flop pin can have (every other gate is joined to its
        drivers): its behaviour depends on that driver.  The class key
        marks such a driver -1, so the copies of a class agree on which
        pins these are.
        """
        place = self.place
        buckets: Dict[Tuple[int, int, int, int], list] = {}
        for fault in faults:
            spot = place[fault.gate]
            if spot is not None:
                key = (spot[0], spot[1], fault.pin, fault.value)
                bucket = buckets.get(key)
                if bucket is None:
                    buckets[key] = [fault]
                else:
                    bucket.append(fault)
        classes, component, fanins = self.classes, self.component, self._fanins
        for key in list(buckets):
            number, local, pin, _ = key
            site = classes[number][0][local]
            if pin >= 0 and component[fanins[site][pin]] != component[site]:
                del buckets[key]
        return buckets

    @staticmethod
    def _key(tables: CompiledNetlist, gates: List[int]) -> tuple:
        local = {gate: position for position, gate in enumerate(gates)}
        return tuple(
            (
                tables.codes[gate],
                tuple(local.get(driver, -1) for driver in tables.fanins[gate]),
                local[tables.parent[gate]] if tables.parent[gate] >= 0 else -1,
                tables.pins[gate],
                tables.is_reader[gate],
                tables.observes[gate],
            )
            for gate in gates
        )


def core_classes(netlist: Netlist) -> CoreClasses:
    """The netlist's shared :class:`CoreClasses`, built on first use."""
    return netlist.derived("circuit.core_classes", CoreClasses)
