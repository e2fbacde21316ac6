"""PODEM — Path-Oriented DEcision Making test generation.

Goel's classic algorithm: decisions are made only on primary inputs (here,
PIs *and* scan-flop pseudo-PIs), each decision is followed by 5-valued
forward implication, and the search backtracks when the fault can no longer
be excited or no X-path remains from the D-frontier to an observation
point.

Implementation notes for speed (this is the toolkit's hottest loop):

* D-pairs are packed into single ints (see :mod:`repro.circuit.dcalc`) and
  gates evaluate by table lookup;
* implication is event-driven — one input changes per decision, so only its
  fanout cone re-evaluates;
* all frontier/detection scans are restricted to the fault's fanout cone.

The engine produces a *test cube*: an input vector over ``{0, 1, X}`` whose
X positions are don't-cares.  Compaction and compression exploit those X's;
:func:`repro.atpg.engine.x_fill` randomizes them for fault simulation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple

from ..circuit.dcalc import (
    AND_TABLE,
    DX,
    NOT_TABLE,
    OR_TABLE,
    XOR_TABLE,
    good_rail,
    has_x,
    is_faulted,
    pack,
)
from ..circuit.gates import GateType, controlling_value, is_inverting, noncontrolling_value
from ..circuit.netlist import Netlist
from ..circuit.values import X
from ..faults.model import OUTPUT_PIN, StuckAtFault
from ..sim.view import CombinationalView
from .scoap import Testability, compute_testability

_RAIL_X = 2  # rail encoding of "unknown" inside a packed D-value


@dataclass
class PodemResult:
    """Outcome of one PODEM run for one fault.

    ``reason`` distinguishes *why* an aborted search gave up:
    ``"backtracks"`` (the classic decision-budget abort) or ``"time"``
    (the per-fault wall-clock budget) — an aborted fault is *not*
    untestable, just unresolved within budget.
    """

    status: str  # "detected" | "untestable" | "aborted"
    cube: Optional[List[int]] = None  # 0/1/X per view input, when detected
    backtracks: int = 0
    reason: Optional[str] = None  # set when status == "aborted"

    @property
    def detected(self) -> bool:
        return self.status == "detected"


class Podem:
    """Reusable PODEM engine bound to one netlist (full-scan view)."""

    def __init__(
        self,
        netlist: Netlist,
        backtrack_limit: int = 64,
        measures: Optional[Testability] = None,
        time_budget_s: Optional[float] = None,
    ):
        netlist.finalize()
        self.netlist = netlist
        self.view = CombinationalView(netlist)
        self.backtrack_limit = backtrack_limit
        if time_budget_s is not None and not time_budget_s >= 0:
            raise ValueError(f"time_budget_s must be >= 0, got {time_budget_s}")
        #: Per-fault wall-clock budget; one pathological fault can spend
        #: minutes inside the backtrack limit on deep reconvergent cones,
        #: so campaigns cap the *time* too (None = unlimited).
        self.time_budget_s = time_budget_s
        self.measures = measures or compute_testability(netlist)
        self._input_position: Dict[int, int] = {
            gate: position for position, gate in enumerate(self.view.input_gates)
        }
        self._topo_position = [0] * len(netlist.gates)
        for position, gate_index in enumerate(netlist.topo_order):
            self._topo_position[gate_index] = position
        # Per-fault scratch, (re)bound by generate().
        self._cone_gates: List[int] = []
        self._cone_readers: List[int] = []
        self._cone_reader_set: frozenset = frozenset()

    # ------------------------------------------------------------------
    # Packed D-calculus implication (event-driven)
    # ------------------------------------------------------------------

    def _recompute(self, gate_index: int, fault: StuckAtFault, values: List[int]) -> int:
        """Evaluate one gate's packed D-value with fault injection."""
        gate = self.netlist.gates[gate_index]
        gate_type = gate.type
        fanin = gate.fanin
        stuck = fault.value

        if gate_type == GateType.CONST0:
            result = 0  # pack(0, 0)
        elif gate_type == GateType.CONST1:
            result = 4  # pack(1, 1)
        else:
            inputs = [values[driver] for driver in fanin]
            if gate_index == fault.gate and fault.pin != OUTPUT_PIN:
                original = inputs[fault.pin]
                inputs[fault.pin] = (original // 3) * 3 + stuck
            if gate_type in (GateType.BUF, GateType.OUTPUT):
                result = inputs[0]
            elif gate_type == GateType.NOT:
                result = NOT_TABLE[inputs[0]]
            elif gate_type == GateType.AND or gate_type == GateType.NAND:
                acc = 4
                for value in inputs:
                    acc = AND_TABLE[acc][value]
                result = NOT_TABLE[acc] if gate_type == GateType.NAND else acc
            elif gate_type == GateType.OR or gate_type == GateType.NOR:
                acc = 0
                for value in inputs:
                    acc = OR_TABLE[acc][value]
                result = NOT_TABLE[acc] if gate_type == GateType.NOR else acc
            elif gate_type == GateType.XOR or gate_type == GateType.XNOR:
                acc = 0
                for value in inputs:
                    acc = XOR_TABLE[acc][value]
                result = NOT_TABLE[acc] if gate_type == GateType.XNOR else acc
            elif gate_type == GateType.MUX2:
                result = _mux_packed(inputs[0], inputs[1], inputs[2])
            else:  # pragma: no cover - exhaustive over combinational types
                raise ValueError(f"unhandled gate type {gate_type}")

        if gate_index == fault.gate and fault.pin == OUTPUT_PIN:
            result = (result // 3) * 3 + stuck
        return result

    def _set_input(
        self, position: int, value: int, fault: StuckAtFault, values: List[int]
    ) -> None:
        """Assign one view input (0/1/X) and propagate the change."""
        gate_index = self.view.input_gates[position]
        rail = _RAIL_X if value == X else value
        packed = rail * 3 + rail
        if fault.pin == OUTPUT_PIN and gate_index == fault.gate:
            packed = rail * 3 + fault.value
        if values[gate_index] == packed:
            return
        values[gate_index] = packed
        self._propagate_change(gate_index, fault, values)

    def _propagate_change(
        self, source: int, fault: StuckAtFault, values: List[int]
    ) -> None:
        """Event-driven re-implication through the fanout cone of ``source``."""
        gates = self.netlist.gates
        topo = self._topo_position
        heap: List[int] = []
        enqueued = set()

        for consumer in gates[source].fanout:
            if not gates[consumer].is_sequential:
                enqueued.add(consumer)
                heappush(heap, (topo[consumer] << 32) | consumer)
        while heap:
            gate_index = heappop(heap) & 0xFFFFFFFF
            packed = self._recompute(gate_index, fault, values)
            if packed == values[gate_index]:
                continue
            values[gate_index] = packed
            for consumer in gates[gate_index].fanout:
                if consumer not in enqueued and not gates[consumer].is_sequential:
                    enqueued.add(consumer)
                    heappush(heap, (topo[consumer] << 32) | consumer)

    def _initial_values(self, fault: StuckAtFault) -> List[int]:
        """All-X implication with the fault injected at its site."""
        gates = self.netlist.gates
        values = [DX] * len(gates)
        for gate_index in self.netlist.topo_order:
            gate = gates[gate_index]
            if gate.type == GateType.INPUT or gate.is_sequential:
                if fault.pin == OUTPUT_PIN and gate_index == fault.gate:
                    values[gate_index] = _RAIL_X * 3 + fault.value
                continue
            values[gate_index] = self._recompute(gate_index, fault, values)
        return values

    # ------------------------------------------------------------------
    # Cone, detection, objectives
    # ------------------------------------------------------------------

    def _fault_cone(self, fault: StuckAtFault) -> Tuple[List[int], List[int]]:
        """(cone gates in topo order, observation readers inside the cone)."""
        cone = self.netlist.fanout_cone([fault.gate])
        ordered = sorted(cone, key=lambda g: self._topo_position[g])
        readers = [r for r in self.view.output_readers if r in cone]
        return ordered, readers

    def _detected(self, fault: StuckAtFault, values: List[int]) -> bool:
        """Fault effect visible at an observation point?"""
        for reader in self._cone_readers:
            if is_faulted(values[reader]):
                return True
        return self._branch_observed(fault, values)

    def _branch_observed(self, fault: StuckAtFault, values: List[int]) -> bool:
        """Branch faults feeding a PO or flop D pin are observed directly."""
        if fault.pin == OUTPUT_PIN:
            return False
        gate = self.netlist.gates[fault.gate]
        if gate.type != GateType.OUTPUT and not gate.is_sequential:
            return False
        good = good_rail(values[gate.fanin[fault.pin]])
        return good != _RAIL_X and good != fault.value

    def _branch_reaches_observation(self, fault: StuckAtFault) -> bool:
        if fault.pin == OUTPUT_PIN:
            return False
        gate = self.netlist.gates[fault.gate]
        return gate.type == GateType.OUTPUT or gate.is_sequential

    def _site_good_value(self, fault: StuckAtFault, values: List[int]) -> int:
        """Good rail at the fault site (0/1/2-for-X)."""
        if fault.pin == OUTPUT_PIN:
            return good_rail(values[fault.gate])
        driver = self.netlist.gates[fault.gate].fanin[fault.pin]
        return good_rail(values[driver])

    def _excitation_target(self, fault: StuckAtFault) -> int:
        """Gate whose good value must be set to excite the fault."""
        if fault.pin == OUTPUT_PIN:
            return fault.gate
        return self.netlist.gates[fault.gate].fanin[fault.pin]

    def _d_frontier(self, fault: StuckAtFault, values: List[int]) -> List[int]:
        """Cone gates with an X output and at least one faulted input.

        A *branch* fault's D lives only at the faulted gate's pin (the
        driver net itself is healthy), so the faulted gate joins the
        frontier whenever its injected pin carries a D — i.e. the driver's
        good rail opposes the stuck value.
        """
        frontier: List[int] = []
        gates = self.netlist.gates
        for index in self._cone_gates:
            gate = gates[index]
            if gate.type == GateType.INPUT or gate.is_sequential:
                continue
            if not has_x(values[index]):
                continue
            if index == fault.gate and fault.pin != OUTPUT_PIN:
                driver_good = good_rail(values[gate.fanin[fault.pin]])
                if driver_good != _RAIL_X and driver_good != fault.value:
                    frontier.append(index)
                    continue
            for driver in gate.fanin:
                if is_faulted(values[driver]):
                    frontier.append(index)
                    break
        return frontier

    def _x_path_exists(self, frontier: Sequence[int], values: List[int]) -> bool:
        """Can any D-frontier gate still reach a reader through X gates?"""
        readers = self._cone_reader_set
        gates = self.netlist.gates
        seen = set()
        stack = list(frontier)
        while stack:
            index = stack.pop()
            if index in seen:
                continue
            seen.add(index)
            if index in readers:
                return True
            for consumer in gates[index].fanout:
                gate = gates[consumer]
                if gate.is_sequential:
                    continue
                if has_x(values[consumer]):
                    stack.append(consumer)
        return False

    def _objective(
        self, fault: StuckAtFault, values: List[int]
    ) -> Optional[Tuple[int, int]]:
        """Next (gate, good-value) objective, or None when search is stuck."""
        site_value = self._site_good_value(fault, values)
        needed = 1 - fault.value
        if site_value == _RAIL_X:
            return (self._excitation_target(fault), needed)
        if site_value != needed:
            return None  # excitation contradicted — backtrack
        frontier = self._d_frontier(fault, values)
        if not frontier:
            return None
        if not self._x_path_exists(frontier, values):
            return None
        # Scan frontier gates in heuristic order (see _rank_frontier).  A
        # driver is a valid objective whenever *either* rail is unknown:
        # the dual-rail model can know the good value while the faulty
        # rail (downstream of the fault through reconvergence) is still X,
        # and resolving that rail also goes through PI assignments.
        for best in self._rank_frontier(frontier, values):
            gate = self.netlist.gates[best]
            noncontrol = noncontrolling_value(gate.type)
            for driver in gate.fanin:
                if has_x(values[driver]) and not is_faulted(values[driver]):
                    target = noncontrol if noncontrol is not None else 1
                    if good_rail(values[driver]) != _RAIL_X:
                        # Good rail fixed: aim the backtrace at keeping it
                        # (the X faulty rail follows the same assignments).
                        target = good_rail(values[driver])
                    return (driver, target)
        return None

    def _rank_frontier(
        self, frontier: Sequence[int], values: List[int]
    ) -> List[int]:
        """Order D-frontier gates for objective selection.

        Classic PODEM attacks the easiest-to-observe gate first; the
        SCOAP-guided engine overrides this with a full detect-cost
        ranking over the current implication state (and rotates it
        across restarts).
        """
        return sorted(frontier, key=lambda g: self.measures.co[g])

    def _backtrace(
        self, gate_index: int, value: int, values: List[int]
    ) -> Optional[Tuple[int, int]]:
        """Walk an objective back through X gates to an unassigned input.

        Returns ``(input_position, value)`` or None when every path is
        blocked by assigned gates.
        """
        gates = self.netlist.gates
        current, target = gate_index, value
        for _ in range(len(gates) + 1):
            if current in self._input_position:
                if good_rail(values[current]) == _RAIL_X:
                    return (self._input_position[current], target)
                return None
            gate = gates[current]
            gate_type = gate.type
            if gate_type in (GateType.CONST0, GateType.CONST1):
                return None
            # Walk through any rail still unknown: a known-good line whose
            # faulty rail is X still depends on unassigned PIs.
            candidates = [d for d in gate.fanin if has_x(values[d])]
            if not candidates:
                return None
            if gate_type in (GateType.BUF, GateType.NOT, GateType.OUTPUT):
                current = gate.fanin[0]
                if gate_type == GateType.NOT:
                    target = 1 - target
                continue
            control = controlling_value(gate_type)
            if control is not None:
                if _needs_all_inputs(gate_type, target):
                    # Every input must be non-controlling: attack the
                    # hardest X input first (classic PODEM heuristic).
                    next_target = 1 - control
                    current = max(
                        candidates,
                        key=lambda d: self.measures.controllability(d, next_target),
                    )
                else:
                    # One controlling input suffices: take the easiest.
                    next_target = control
                    current = min(
                        candidates,
                        key=lambda d: self.measures.controllability(d, control),
                    )
                target = next_target
                continue
            # XOR/XNOR/MUX: any X input can serve; pick the cheapest input
            # and value, let implication plus backtracking settle parity.
            current = min(
                candidates,
                key=lambda d: min(self.measures.cc0[d], self.measures.cc1[d]),
            )
            target = (
                0 if self.measures.cc0[current] <= self.measures.cc1[current] else 1
            )
        return None

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------

    def generate(self, fault: StuckAtFault) -> PodemResult:
        """Attempt to generate a test cube detecting ``fault``."""
        deadline = (
            None
            if self.time_budget_s is None
            else time.perf_counter() + self.time_budget_s
        )
        return self._search(fault, self.backtrack_limit, deadline)

    def _abort_reason(self, deadline: Optional[float]) -> str:
        """Reason for an abort at the backtrack-budget trip point.

        Both budgets can trip in the same step (the backtrack that blows
        the decision budget can also be the first check past the wall
        deadline); report whichever budget was exhausted *first* — the
        wall clock ran out before this backtrack was even counted.
        """
        if deadline is not None and time.perf_counter() > deadline:
            return "time"
        return "backtracks"

    def _search(
        self,
        fault: StuckAtFault,
        backtrack_limit: int,
        deadline: Optional[float],
    ) -> PodemResult:
        """One budgeted PODEM search (``generate`` minus budget setup)."""
        n_inputs = self.view.num_inputs
        assignment = [X] * n_inputs
        self._cone_gates, self._cone_readers = self._fault_cone(fault)
        self._cone_reader_set = frozenset(self._cone_readers)
        if not self._cone_readers and not self._branch_reaches_observation(fault):
            return PodemResult(status="untestable", backtracks=0)
        values = self._initial_values(fault)
        decision_stack: List[Tuple[int, int, bool]] = []  # (pos, value, flipped)
        backtracks = 0

        while True:
            if self._detected(fault, values):
                return PodemResult(
                    status="detected", cube=list(assignment), backtracks=backtracks
                )
            if deadline is not None and time.perf_counter() > deadline:
                return PodemResult(
                    status="aborted", backtracks=backtracks, reason="time"
                )
            objective = self._objective(fault, values)
            step = (
                self._backtrace(objective[0], objective[1], values)
                if objective is not None
                else None
            )
            if step is not None:
                position, value = step
                assignment[position] = value
                self._set_input(position, value, fault, values)
                decision_stack.append((position, value, False))
                continue
            # Dead end: backtrack.
            backtracks += 1
            if backtracks > backtrack_limit:
                return PodemResult(
                    status="aborted",
                    backtracks=backtracks,
                    reason=self._abort_reason(deadline),
                )
            while decision_stack:
                position, value, flipped = decision_stack.pop()
                if not flipped:
                    assignment[position] = 1 - value
                    self._set_input(position, 1 - value, fault, values)
                    decision_stack.append((position, 1 - value, True))
                    break
                assignment[position] = X
                self._set_input(position, X, fault, values)
            else:
                return PodemResult(status="untestable", backtracks=backtracks)


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


def _mux_packed(select: int, when0: int, when1: int) -> int:
    """Packed-value 2:1 mux evaluation, rail by rail."""
    good = _mux_rail(select // 3, when0 // 3, when1 // 3)
    faulty = _mux_rail(select % 3, when0 % 3, when1 % 3)
    return good * 3 + faulty


def _needs_all_inputs(gate_type: GateType, output_value: int) -> bool:
    """True when the target output needs every input non-controlling."""
    control = controlling_value(gate_type)
    if control is None:
        return False
    produced_by_noncontrol = control if is_inverting(gate_type) else 1 - control
    return output_value == produced_by_noncontrol
