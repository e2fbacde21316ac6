"""D-algorithm — five-valued test generation with D-/J-frontier search.

Roth's D-algorithm, adapted to the toolkit's packed dual-rail D-calculus
(:mod:`repro.circuit.dcalc`).  Where PODEM decides only on primary
inputs, the D-algorithm carries explicit *objectives on internal lines*:
a **D-frontier** of gates whose faulted inputs await propagation and a
**J-frontier** — here an explicit goal agenda — of line-justification
objectives not yet grounded in PI assignments.

The search branches over

* which D-frontier gate to propagate through (every frontier gate is an
  alternative at every propagation decision, so multiple-path
  sensitization through reconvergent fanout is explored the way Roth's
  completeness argument requires — with the *unique-sensitization* fast
  path applied when the frontier is a singleton),
* how to justify each internal objective (which controlling input of an
  AND/OR family gate, both parities of an XOR side input, both sides of
  a MUX select), and
* both values of any input line that must merely become *known* (the
  faulty rail of a cone line has to resolve before the fault effect can
  pass a gate that consumes it).

Every alternative at every decision point is exhausted before the engine
concludes, which buys the property PODEM's budgeted PI search rarely
reaches in practice: when the decision tree is exhausted without a test,
the fault is **proved untestable** — ``status="untestable"`` here is a
proof, not a give-up.  Detection, conversely, is claimed only from the
same forward implication PODEM uses (PI assignments plus fault
injection, checked every step), so every returned cube detects its
fault under any X-fill of the remaining don't-cares.

Budgets mirror PODEM: ``backtrack_limit`` bounds conflict-driven
backtracks, ``work_budget`` bounds the gates one call re-implies, and an
abort reports the budget whose check fired first in ``reason``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..circuit.compiled import (
    BUF,
    CONST0,
    CONST1,
    CONTROLLING,
    INVERTING,
    MUX2,
    NONCONTROLLING,
    NOT,
    XNOR,
    XOR,
)
from ..circuit.dcalc import _RAIL_X, good_rail, has_x, is_faulted
from ..circuit.netlist import Netlist
from ..circuit.values import X
from ..faults.model import OUTPUT_PIN, StuckAtFault
from .podem import Podem, PodemResult
from .scoap import Testability

__all__ = ["DAlgorithm"]

# Goal kinds on the agenda (the J-frontier).
_JUSTIFY = 0  # ("justify", line, v): make the good rail of `line` equal v
_GROUND = 1  # ("ground", line): make both rails of `line` known


class _Decision:
    """One open branch point: alternatives not yet tried, plus enough
    state (goal-agenda snapshot, assignment-trail mark) to rewind to it."""

    __slots__ = ("alternatives", "index", "goals", "mark")

    def __init__(
        self,
        alternatives: List[List[Tuple[int, int, int]]],
        goals: Tuple[Tuple[int, int, int], ...],
        mark: int,
    ):
        self.alternatives = alternatives
        self.index = 0
        self.goals = goals
        self.mark = mark


class DAlgorithm(Podem):
    """D-algorithm engine sharing PODEM's packed implication machinery.

    Only the search differs: :meth:`generate` runs a goal-agenda search
    over internal-line objectives instead of PODEM's PI-only decision
    stack.  All implication, fault injection, cone/frontier/detection
    scans, and the view/cube conventions are inherited, so the two
    engines are conformable by construction — same netlist binding, same
    ``PodemResult`` contract, same cube semantics.
    """

    def __init__(
        self,
        netlist: Netlist,
        backtrack_limit: int = 64,
        measures: Optional[Testability] = None,
        work_budget: Optional[int] = None,
    ):
        super().__init__(netlist, backtrack_limit, measures, work_budget)
        self._cone_set: frozenset = frozenset()

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------

    # Bound here, not inherited, so a profiler that wraps each engine's
    # ``generate`` separately attributes D-algorithm calls to this class.
    generate = Podem.generate

    def _search(self, fault: StuckAtFault, backtrack_limit: int) -> PodemResult:
        n_inputs = self.view.num_inputs
        assignment = [X] * n_inputs
        work_budget = self.work_budget
        self._cone_gates, self._cone_readers = self._fault_cone(fault)
        self._cone_set = frozenset(self._cone_gates)
        if not self._cone_readers and not self._branch_reaches_observation(fault):
            return PodemResult(status="untestable", backtracks=0)
        values = self._initial_values(fault)
        needed = 1 - fault.value

        goals: List[Tuple[int, int, int]] = []
        decisions: List[_Decision] = []
        trail: List[int] = []  # PI positions, in assignment order
        backtracks = 0

        while True:
            if self._detected(fault, values):
                # Detection rests purely on forward implication of the PI
                # cube — pending goals belong to a propagation plan that
                # implication has already overtaken, so they are moot.
                return PodemResult(
                    status="detected", cube=list(assignment), backtracks=backtracks
                )
            if work_budget is not None and self._implications > work_budget:
                return PodemResult(
                    status="aborted", backtracks=backtracks, reason="work"
                )

            conflict = False
            if goals:
                conflict = self._step_goal(
                    fault, values, assignment, goals, decisions, trail
                )
            else:
                conflict = self._step_frontier(
                    fault, needed, values, goals, decisions, trail
                )

            if not conflict:
                continue
            # Conflict-driven backtrack: rewind to the most recent open
            # decision, undo every PI assigned past it, restore its goal
            # agenda, and take the next alternative.
            backtracks += 1
            if backtracks > backtrack_limit:
                return PodemResult(
                    status="aborted", backtracks=backtracks, reason="backtracks"
                )
            while decisions:
                decision = decisions[-1]
                decision.index += 1
                if decision.index < len(decision.alternatives):
                    while len(trail) > decision.mark:
                        position = trail.pop()
                        assignment[position] = X
                        self._set_input(position, X, fault, values)
                    goals[:] = decision.goals
                    goals.extend(decision.alternatives[decision.index])
                    break
                decisions.pop()
            else:
                # Every alternative at every branch point is exhausted and
                # no implication ever observed the fault: a proof of
                # untestability, not an abort.
                return PodemResult(status="untestable", backtracks=backtracks)

    # ------------------------------------------------------------------
    # Goal resolution (the J-frontier)
    # ------------------------------------------------------------------

    def _step_goal(
        self,
        fault: StuckAtFault,
        values: List[int],
        assignment: List[int],
        goals: List[Tuple[int, int, int]],
        decisions: List[_Decision],
        trail: List[int],
    ) -> bool:
        """Resolve the top agenda goal.  Returns True on conflict."""
        kind, line, target = goals.pop()
        if kind == _GROUND:
            return self._step_ground(line, values, goals, decisions, trail)

        implied = good_rail(values[line])
        if implied == target:
            return False
        if implied != _RAIL_X:
            return True  # contradicts current implication

        if line in self._input_position:
            position = self._input_position[line]
            assignment[position] = target
            self._set_input(position, target, fault, values)
            trail.append(position)
            return False

        code = self._compiled.codes[line]
        fanin = self._compiled.fanins[line]
        if code == BUF:
            goals.append((_JUSTIFY, fanin[0], target))
            return False
        if code == NOT:
            goals.append((_JUSTIFY, fanin[0], 1 - target))
            return False
        if code == CONST0 or code == CONST1:
            return True  # consts are always implied; reaching here is a conflict
        if CONTROLLING[code] is not None:
            return self._justify_and_family(
                code, fanin, target, values, goals, decisions, trail
            )
        if code == XOR or code == XNOR:
            return self._justify_xor_family(
                fanin, line, target, values, goals, decisions, trail
            )
        if code == MUX2:
            return self._justify_mux(fanin, target, values, goals, decisions, trail)
        return True  # pragma: no cover - exhaustive over combinational types

    def _justify_and_family(
        self, code, fanin, target, values, goals, decisions, trail
    ) -> bool:
        control = CONTROLLING[code]
        produced_by_noncontrol = control if INVERTING[code] else 1 - control
        open_fanins = [
            f for f in fanin if good_rail(values[f]) == _RAIL_X
        ]
        if target == produced_by_noncontrol:
            # Forced: every input must go non-controlling (any input at the
            # controlling value would have implied the opposite output).
            for driver in open_fanins:
                goals.append((_JUSTIFY, driver, 1 - control))
            return False
        # Branch: some input must take the controlling value.  All open
        # inputs are alternatives — completeness needs each one tried.
        if not open_fanins:
            return True  # fully implied inputs but X output ⇒ contradiction
        ordered = sorted(
            open_fanins, key=lambda f: self.measures.controllability(f, control)
        )
        alternatives = [[(_JUSTIFY, f, control)] for f in ordered]
        return self._branch(alternatives, goals, decisions, trail)

    def _justify_xor_family(
        self, fanin, line, target, values, goals, decisions, trail
    ) -> bool:
        open_fanins = [
            f for f in fanin if good_rail(values[f]) == _RAIL_X
        ]
        if not open_fanins:
            return True
        # Fix one open input each way and re-pose the parent objective;
        # the open-input count strictly decreases, so this terminates.
        pivot = min(
            open_fanins,
            key=lambda f: min(self.measures.cc0[f], self.measures.cc1[f]),
        )
        first = 0 if self.measures.cc0[pivot] <= self.measures.cc1[pivot] else 1
        alternatives = [
            [(_JUSTIFY, line, target), (_JUSTIFY, pivot, first)],
            [(_JUSTIFY, line, target), (_JUSTIFY, pivot, 1 - first)],
        ]
        return self._branch(alternatives, goals, decisions, trail)

    def _justify_mux(
        self, fanin, target, values, goals, decisions, trail
    ) -> bool:
        select, when0, when1 = fanin
        select_good = good_rail(values[select])
        if select_good != _RAIL_X:
            goals.append(
                (_JUSTIFY, when1 if select_good else when0, target)
            )
            return False
        alternatives = [
            [(_JUSTIFY, when0, target), (_JUSTIFY, select, 0)],
            [(_JUSTIFY, when1, target), (_JUSTIFY, select, 1)],
        ]
        cheap_side = (
            0
            if self.measures.controllability(when0, target)
            <= self.measures.controllability(when1, target)
            else 1
        )
        if cheap_side == 1:
            alternatives.reverse()
        return self._branch(alternatives, goals, decisions, trail)

    def _step_ground(
        self, line, values, goals, decisions, trail
    ) -> bool:
        """Make both rails of ``line`` known (faulty rails inside the fault
        cone stay X until the lines they reconverge from are assigned)."""
        if not has_x(values[line]):
            return False
        if line in self._input_position:
            if good_rail(values[line]) != _RAIL_X:
                # Good rail assigned but faulty rail X: only possible at
                # the faulted pseudo-PI itself, already fully determined.
                return False
            cheap = 0 if self.measures.cc0[line] <= self.measures.cc1[line] else 1
            alternatives = [
                [(_JUSTIFY, line, cheap)],
                [(_JUSTIFY, line, 1 - cheap)],
            ]
            return self._branch(alternatives, goals, decisions, trail)
        code = self._compiled.codes[line]
        if code == CONST0 or code == CONST1:
            return False
        candidates = [f for f in self._compiled.fanins[line] if has_x(values[f])]
        if not candidates:
            # All inputs known yet output X: impossible for healthy gates
            # (implication is complete per gate); treat as conflict.
            return True
        # Descend one X fanin, keep the parent posted for re-check.
        goals.append((_GROUND, line, 0))
        goals.append((_GROUND, candidates[0], 0))
        return False

    # ------------------------------------------------------------------
    # Excitation + D-frontier propagation decisions
    # ------------------------------------------------------------------

    def _step_frontier(
        self,
        fault: StuckAtFault,
        needed: int,
        values: List[int],
        goals: List[Tuple[int, int, int]],
        decisions: List[_Decision],
        trail: List[int],
    ) -> bool:
        """Agenda empty: excite the fault, then pick a propagation path."""
        site_value = self._site_good_value(fault, values)
        if site_value == _RAIL_X:
            goals.append((_JUSTIFY, self._excitation_target(fault), needed))
            return False
        if site_value != needed:
            return True  # excitation contradicted
        frontier = self._d_frontier(fault, values)
        if not frontier:
            return True  # fault effect boxed in — no gate can extend it
        if not self._x_path_exists(frontier, values):
            return True
        alternatives: List[List[Tuple[int, int, int]]] = []
        for gate_index in self._rank_frontier(frontier, values):
            alternatives.extend(
                self._propagation_bundles(fault, gate_index, values)
            )
        # A bundle whose goals are all satisfied already cannot advance the
        # search — committing it would recreate this same frontier decision
        # forever.  Bundle construction only emits open goals, so this
        # filter is a loop-proof invariant, not a pruning heuristic.
        alternatives = [
            b for b in alternatives if self._bundle_open(b, values)
        ]
        if not alternatives:
            return True
        if len(alternatives) == 1:
            # Unique sensitization: a single way forward is forced, not a
            # decision — commit without burning a branch point.
            goals.extend(alternatives[0])
            return False
        return self._branch(alternatives, goals, decisions, trail)

    @staticmethod
    def _bundle_open(bundle, values) -> bool:
        """True if applying ``bundle`` can change state: at least one goal
        is unresolved (or contradicted — that surfaces as a conflict)."""
        for kind, line, target in bundle:
            if kind == _GROUND:
                if has_x(values[line]):
                    return True
            elif good_rail(values[line]) != target:
                return True
        return False

    def _propagation_bundles(
        self, fault: StuckAtFault, gate_index: int, values: List[int]
    ) -> List[List[Tuple[int, int, int]]]:
        """Goal bundles that drive the fault effect through one frontier
        gate: side inputs to non-controlling values, X faulty rails in the
        cone grounded so the gate's output can resolve to a D."""
        code = self._compiled.codes[gate_index]
        drivers = self._compiled.fanins[gate_index]
        injected_pin = (
            fault.pin
            if gate_index == fault.gate and fault.pin != OUTPUT_PIN
            else None
        )

        if code == MUX2:
            return self._mux_bundles(drivers, injected_pin, values)

        bundle: List[Tuple[int, int, int]] = []
        noncontrol = NONCONTROLLING[code]
        for pin, fanin in enumerate(drivers):
            if pin == injected_pin:
                continue
            value = values[fanin]
            if is_faulted(value):
                continue  # a D on a side input helps, never blocks
            if good_rail(value) == _RAIL_X:
                if noncontrol is not None:
                    # Push ground beneath justify: justify resolves first,
                    # then ground mops up a still-X faulty rail.
                    if fanin in self._cone_set:
                        bundle.append((_GROUND, fanin, 0))
                    bundle.append((_JUSTIFY, fanin, noncontrol))
                else:  # XOR/XNOR: any known side value passes the D
                    bundle.append((_GROUND, fanin, 0))
            elif has_x(value):
                bundle.append((_GROUND, fanin, 0))
        return [bundle] if bundle else []

    def _mux_bundles(
        self, drivers, injected_pin: Optional[int], values: List[int]
    ) -> List[List[Tuple[int, int, int]]]:
        """Propagation modes for a 2:1 mux frontier gate.

        A D on a data input passes when the select routes that side; a D
        on the select passes when the two data inputs differ (both
        orderings are alternatives)."""
        select, when0, when1 = drivers
        modes: List[List[Tuple[int, int, int]]] = []

        def faulted_or_injected(pin: int, fanin: int) -> bool:
            if pin == injected_pin:
                return True
            return is_faulted(values[fanin])

        def select_goals(side: int) -> List[Tuple[int, int, int]]:
            bundle: List[Tuple[int, int, int]] = []
            if select in self._cone_set and has_x(values[select]):
                bundle.append((_GROUND, select, 0))
            bundle.append((_JUSTIFY, select, side))
            return bundle

        if faulted_or_injected(1, when0):
            modes.append(select_goals(0))
        if faulted_or_injected(2, when1):
            modes.append(select_goals(1))
        if faulted_or_injected(0, select):
            # Select carries the D: the two output rails then read
            # *different* data inputs (good rail from one side, faulty
            # rail from the other), so the effect shows whenever those
            # cross-rail values differ.  Don't constrain good values
            # here — just resolve both data inputs completely; the
            # ground goals branch over every free value, and implication
            # decides whether the mix produces a D.
            bundle = [
                (_GROUND, fanin, 0)
                for fanin in (when0, when1)
                if has_x(values[fanin])
            ]
            modes.append(bundle)
        return [m for m in modes if m]

    # ------------------------------------------------------------------

    def _branch(
        self,
        alternatives: List[List[Tuple[int, int, int]]],
        goals: List[Tuple[int, int, int]],
        decisions: List[_Decision],
        trail: List[int],
    ) -> bool:
        """Open a decision point and take its first alternative."""
        decisions.append(_Decision(alternatives, tuple(goals), len(trail)))
        goals.extend(alternatives[0])
        return False
