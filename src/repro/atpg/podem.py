"""PODEM — Path-Oriented DEcision Making test generation.

Goel's classic algorithm: decisions are made only on primary inputs (here,
PIs *and* scan-flop pseudo-PIs), each decision is followed by 5-valued
forward implication, and the search backtracks when the fault can no longer
be excited or no X-path remains from the D-frontier to an observation
point.

Implementation notes for speed (this is the toolkit's hottest loop):

* D-pairs are packed into single ints (see :mod:`repro.circuit.dcalc`) and
  gates evaluate by table lookup;
* the inner loops read the netlist's one
  :class:`~repro.circuit.compiled.CompiledNetlist` — integer type codes,
  fanin tuples, combinational successor keys ``(topo << 32) | gate`` —
  shared with every other engine bound to it (fault simulation included),
  so no loop compares a ``GateType`` or asks ``Gate.is_sequential``;
* the fault-free all-X implication is computed once per netlist, on the
  first ATPG call; each target fault copies it and re-implies only its
  fanout cone in topo order (exact: nothing outside the cone can see the
  fault), so a call costs the cone, not the chip;
* implication is event-driven — one input changes per decision, so only its
  fanout cone re-evaluates;
* all frontier/detection scans are restricted to the fault's fanout cone;
* ``atpg.implications`` counts the gates re-implied per target fault (cone
  pass plus event-driven re-implication), added once per ``generate`` call.

Two budgets bound a search.  Both count work, not the wall clock, so a
verdict is the same on any host: ``backtrack_limit`` caps dead-end
backtracks and the optional ``work_budget`` caps the gates one
``generate`` call re-implies (the ``atpg.implications`` tally).  An
abort names the budget whose check fired first.

The engine produces a *test cube*: an input vector over ``{0, 1, X}`` whose
X positions are don't-cares.  Compaction and compression exploit those X's;
:func:`repro.atpg.engine.x_fill` randomizes them for fault simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..circuit.compiled import (
    BUF,
    CONST0,
    CONST1,
    CONTROLLING,
    GATE_MASK,
    HAS_X,
    INVERTING,
    NONCONTROLLING,
    NOT,
    SOURCE,
    compiled,
    evaluate,
)
from ..circuit.dcalc import _RAIL_X, FAULTED, good_rail
from ..circuit.netlist import Netlist
from ..circuit.values import X
from ..faults.model import OUTPUT_PIN, StuckAtFault
from ..sim.view import CombinationalView
from .scoap import Testability, compute_testability


@dataclass
class PodemResult:
    """Outcome of one PODEM run for one fault.

    ``reason`` distinguishes *why* an aborted search gave up:
    ``"backtracks"`` (the classic decision-budget abort) or ``"work"``
    (the per-fault re-implied gate budget) — an aborted fault is *not*
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
        work_budget: Optional[int] = None,
    ):
        netlist.finalize()
        self.netlist = netlist
        self.view = CombinationalView(netlist)
        self.backtrack_limit = backtrack_limit
        if work_budget is not None and (
            isinstance(work_budget, bool)
            or not isinstance(work_budget, int)
            or work_budget < 0
        ):
            raise ValueError(
                f"work_budget must be an int >= 0, got {work_budget!r}"
            )
        #: Most gates one ``generate`` call may re-imply (None = unlimited).
        self.work_budget = work_budget
        self.measures = measures or compute_testability(netlist)
        self._input_position: Dict[int, int] = {
            gate: position for position, gate in enumerate(self.view.input_gates)
        }
        self._compiled = compiled(netlist)
        # Per-fault scratch, (re)bound by generate().
        self._cone_gates: List[int] = []
        self._cone_readers: List[int] = []
        self._implications = 0

    # ------------------------------------------------------------------
    # Packed D-calculus implication (event-driven)
    # ------------------------------------------------------------------

    def _recompute(self, gate_index: int, fault: StuckAtFault, values: List[int]) -> int:
        """Evaluate one gate's packed D-value, injecting ``fault`` at its site."""
        code = self._compiled.codes[gate_index]
        fanin = self._compiled.fanins[gate_index]
        if gate_index != fault.gate:
            return evaluate(code, fanin, values)
        stuck = fault.value
        if fault.pin == OUTPUT_PIN:
            return (evaluate(code, fanin, values) // 3) * 3 + stuck
        inputs = [values[driver] for driver in fanin]
        inputs[fault.pin] = (inputs[fault.pin] // 3) * 3 + stuck
        return evaluate(code, range(len(inputs)), inputs)

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
        """Event-driven re-implication through the fanout cone of ``source``.

        The heap holds successor keys, so gates pop in topo order.
        """
        tables = self._compiled
        successors, codes, fanins = tables.successors, tables.codes, tables.fanins
        site = fault.gate
        heap = list(successors[source])  # sorted, hence already a heap
        enqueued = set(heap)
        implied = 0
        while heap:
            gate_index = heappop(heap) & GATE_MASK
            implied += 1
            if gate_index == site:
                packed = self._recompute(gate_index, fault, values)
            else:
                packed = evaluate(codes[gate_index], fanins[gate_index], values)
            if packed == values[gate_index]:
                continue
            values[gate_index] = packed
            for key in successors[gate_index]:
                if key not in enqueued:
                    enqueued.add(key)
                    heappush(heap, key)
        self._implications += implied

    def _initial_values(self, fault: StuckAtFault) -> List[int]:
        """All-X implication with the fault injected at its site.

        Copies the netlist's fault-free all-X state and re-implies only
        the fault's cone (``_cone_gates``, topo order); every other gate
        keeps its fault-free value.  The cone's only possible source is
        the fault site itself.
        """
        tables = self._compiled
        codes, fanins = tables.codes, tables.fanins
        values = list(tables.fault_free)
        site = fault.gate
        implied = 0
        for gate_index in self._cone_gates:
            code = codes[gate_index]
            if code == SOURCE:
                if fault.pin == OUTPUT_PIN:
                    values[gate_index] = _RAIL_X * 3 + fault.value
                continue
            if gate_index == site:
                values[gate_index] = self._recompute(gate_index, fault, values)
            else:
                values[gate_index] = evaluate(code, fanins[gate_index], values)
            implied += 1
        self._implications += implied
        return values

    # ------------------------------------------------------------------
    # Cone, detection, objectives
    # ------------------------------------------------------------------

    def _fault_cone(self, fault: StuckAtFault) -> Tuple[List[int], List[int]]:
        """(cone gates in topo order, observation readers inside the cone)."""
        tables = self._compiled
        successors = tables.successors
        root = fault.gate
        keys = {(tables.topo[root] << 32) | root}
        stack = [root]
        while stack:
            for key in successors[stack.pop()]:
                if key not in keys:
                    keys.add(key)
                    stack.append(key & GATE_MASK)
        ordered = [key & GATE_MASK for key in sorted(keys)]
        is_reader = tables.is_reader
        return ordered, [gate for gate in ordered if is_reader[gate]]

    def _detected(self, fault: StuckAtFault, values: List[int]) -> bool:
        """Fault effect visible at an observation point?"""
        for reader in self._cone_readers:
            if values[reader] in FAULTED:
                return True
        return self._branch_observed(fault, values)

    def _branch_observed(self, fault: StuckAtFault, values: List[int]) -> bool:
        """Branch faults feeding a PO or flop D pin are observed directly."""
        if not self._branch_reaches_observation(fault):
            return False
        good = values[self._compiled.fanins[fault.gate][fault.pin]] // 3
        return good != _RAIL_X and good != fault.value

    def _branch_reaches_observation(self, fault: StuckAtFault) -> bool:
        return fault.pin != OUTPUT_PIN and self._compiled.observes[fault.gate]

    def _site_good_value(self, fault: StuckAtFault, values: List[int]) -> int:
        """Good rail at the fault site (0/1/2-for-X)."""
        return good_rail(values[self._excitation_target(fault)])

    def _excitation_target(self, fault: StuckAtFault) -> int:
        """Gate whose good value must be set to excite the fault."""
        if fault.pin == OUTPUT_PIN:
            return fault.gate
        return self._compiled.fanins[fault.gate][fault.pin]

    def _d_frontier(self, fault: StuckAtFault, values: List[int]) -> List[int]:
        """Cone gates with an X output and at least one faulted input.

        A *branch* fault's D lives only at the faulted gate's pin (the
        driver net itself is healthy), so the faulted gate joins the
        frontier whenever its injected pin carries a D — i.e. the driver's
        good rail opposes the stuck value.
        """
        frontier: List[int] = []
        codes, fanins = self._compiled.codes, self._compiled.fanins
        site = fault.gate if fault.pin != OUTPUT_PIN else -1
        for index in self._cone_gates:
            if not HAS_X[values[index]] or codes[index] == SOURCE:
                continue
            fanin = fanins[index]
            if index == site:
                driver_good = values[fanin[fault.pin]] // 3
                if driver_good != _RAIL_X and driver_good != fault.value:
                    frontier.append(index)
                    continue
            for driver in fanin:
                if values[driver] in FAULTED:
                    frontier.append(index)
                    break
        return frontier

    def _x_path_exists(self, frontier: Sequence[int], values: List[int]) -> bool:
        """Can any D-frontier gate still reach a reader through X gates?"""
        is_reader, successors = self._compiled.is_reader, self._compiled.successors
        seen = set()
        stack = list(frontier)
        while stack:
            index = stack.pop()
            if index in seen:
                continue
            seen.add(index)
            if is_reader[index]:
                return True
            for key in successors[index]:
                consumer = key & GATE_MASK
                if HAS_X[values[consumer]]:
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
        codes, fanins = self._compiled.codes, self._compiled.fanins
        for best in self._rank_frontier(frontier, values):
            noncontrol = NONCONTROLLING[codes[best]]
            for driver in fanins[best]:
                value = values[driver]
                if HAS_X[value]:  # an X rail rules out a D on the driver
                    good = value // 3
                    if good != _RAIL_X:
                        # Good rail fixed: aim the backtrace at keeping it
                        # (the X faulty rail follows the same assignments).
                        return (driver, good)
                    return (driver, 1 if noncontrol is None else noncontrol)
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
        codes, fanins = self._compiled.codes, self._compiled.fanins
        cc0, cc1 = self.measures.cc0, self.measures.cc1
        input_position = self._input_position
        current, target = gate_index, value
        for _ in range(len(codes) + 1):
            position = input_position.get(current)
            if position is not None:
                if values[current] // 3 == _RAIL_X:
                    return (position, target)
                return None
            code = codes[current]
            if code == CONST0 or code == CONST1:
                return None
            # Walk through any rail still unknown: a known-good line whose
            # faulty rail is X still depends on unassigned PIs.
            candidates = [d for d in fanins[current] if HAS_X[values[d]]]
            if not candidates:
                return None
            if code == BUF or code == NOT:
                current = fanins[current][0]
                if code == NOT:
                    target = 1 - target
                continue
            control = CONTROLLING[code]
            if control is not None:
                # All inputs non-controlling produce ``control`` on an
                # inverting gate, its complement otherwise.
                if target == (control if INVERTING[code] else 1 - control):
                    # Every input must be non-controlling: attack the
                    # hardest X input first (classic PODEM heuristic).
                    target = 1 - control
                    current = max(candidates, key=(cc1 if target else cc0).__getitem__)
                else:
                    # One controlling input suffices: take the easiest.
                    target = control
                    current = min(candidates, key=(cc1 if target else cc0).__getitem__)
                continue
            # XOR/XNOR/MUX: any X input can serve; pick the cheapest input
            # and value, let implication plus backtracking settle parity.
            current = min(candidates, key=lambda d: min(cc0[d], cc1[d]))
            target = 0 if cc0[current] <= cc1[current] else 1
        return None

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------

    def generate(self, fault: StuckAtFault) -> PodemResult:
        """Attempt to generate a test cube detecting ``fault``."""
        self._implications = 0
        outcome = self._search(fault, self.backtrack_limit)
        self._publish_implications()
        return outcome

    def _publish_implications(self) -> None:
        """Add this call's re-implied gate tally to ``atpg.implications``."""
        counter = obs.counter("atpg.implications")
        if counter is not None:
            counter.add(self._implications)

    def _search(self, fault: StuckAtFault, backtrack_limit: int) -> PodemResult:
        """One budgeted PODEM search (``generate`` minus the tally reset)."""
        n_inputs = self.view.num_inputs
        assignment = [X] * n_inputs
        work_budget = self.work_budget
        self._cone_gates, self._cone_readers = self._fault_cone(fault)
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
            if work_budget is not None and self._implications > work_budget:
                return PodemResult(
                    status="aborted", backtracks=backtracks, reason="work"
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
                    status="aborted", backtracks=backtracks, reason="backtracks"
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
