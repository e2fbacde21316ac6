"""Test-point insertion for logic BIST.

Random patterns saturate below full coverage because some lines are nearly
impossible to control or observe by chance (wide AND cones being the classic
offender in comparator/decoder logic).  The fix the tutorial teaches:

* **control points** — an extra OR (or AND) gate mixes a BIST-driven signal
  into a line whose signal probability is stuck near 0 (or 1), restoring a
  ~0.5 probability during BIST;
* **observation points** — a new output tapping a line whose fault effects
  rarely propagate, making its whole fanin cone directly observable.

Placement is **iterative and COP-driven**: after every insertion the
probabilities are recomputed, so later points target what the earlier ones
have not already fixed — the structure of the published insertion flows
(Briers/Totton-style scoring on COP measures).

During functional mode the control inputs are held at their neutral value;
during BIST the PRPG drives them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..circuit.gates import GateType
from ..circuit.netlist import Netlist
from .cop import compute_cop, hard_line_count


@dataclass
class TestPointPlan:
    """What was inserted and where."""

    netlist: Netlist
    control_points: List[Tuple[int, str]] = field(default_factory=list)  # (line, kind)
    observe_points: List[int] = field(default_factory=list)
    control_inputs: List[int] = field(default_factory=list)  # new PI indices

    @property
    def n_points(self) -> int:
        return len(self.control_points) + len(self.observe_points)


_SKIP_TYPES = {GateType.INPUT, GateType.OUTPUT, GateType.CONST0, GateType.CONST1}


def _candidates(netlist: Netlist) -> List[int]:
    return [
        gate.index
        for gate in netlist.gates
        if gate.type not in _SKIP_TYPES and not gate.is_sequential and gate.fanout
    ]


#: Detection-probability threshold below which a line counts as "hard".
#: Matches a ~1000-pattern LBIST budget.
HARD_THRESHOLD = 1e-3


def _what_if_observe(netlist: Netlist, line: int) -> int:
    """Hard lines remaining if ``line`` were tapped to an output."""
    measures = compute_cop(netlist, extra_observe={line})
    return hard_line_count(netlist, measures, HARD_THRESHOLD)


def _what_if_control(netlist: Netlist, line: int) -> int:
    """Hard lines remaining if ``line``'s probability were randomized."""
    measures = compute_cop(netlist, cp_override={line: 0.5})
    return hard_line_count(netlist, measures, HARD_THRESHOLD)


def _insert_control(modified: Netlist, line: int, cp_value: float, tag: int) -> Tuple[int, str, int]:
    """Splice an OR/AND control gate after ``line``; returns (pt, kind, pi)."""
    enable = modified.add(GateType.INPUT, f"tp_ctrl{tag}")
    if cp_value < 0.5:
        point = modified.add(GateType.OR, f"tp_or_{line}_{tag}", [line, enable])
        kind = "or"
    else:
        point = modified.add(GateType.AND, f"tp_and_{line}_{tag}", [line, enable])
        kind = "and"
    for gate in modified.gates:
        if gate.index == point:
            continue
        gate.fanin = [point if driver == line else driver for driver in gate.fanin]
    modified.gates[point].fanin = [line, enable]
    modified.invalidate()
    modified.finalize()
    return point, kind, enable


def insert_test_points(
    netlist: Netlist,
    n_control: int = 4,
    n_observe: int = 4,
    name: Optional[str] = None,
) -> TestPointPlan:
    """Iteratively insert control/observation points by COP benefit.

    Each round recomputes COP on the netlist-so-far and takes the single
    highest-scoring remaining action of the requested kind, so a cone fixed
    by one point stops attracting further points.
    """
    netlist.finalize()
    modified = netlist.clone(name or f"{netlist.name}_tp")
    modified.finalize()
    plan = TestPointPlan(netlist=modified)
    used_control: set = set()
    used_observe: set = set()

    # Interleave so both resources attack the current worst offender.
    interleaved: List[str] = []
    control_left, observe_left = n_control, n_observe
    while control_left or observe_left:
        if control_left:
            interleaved.append("control")
            control_left -= 1
        if observe_left:
            interleaved.append("observe")
            observe_left -= 1

    for action in interleaved:
        measures = compute_cop(modified)
        baseline = hard_line_count(modified, measures, HARD_THRESHOLD)
        if baseline == 0:
            break
        candidates = [
            line
            for line in _candidates(modified)
            if not modified.gates[line].name.startswith("tp_")
        ]
        # Pre-filter: only lines that are themselves part of the problem can
        # fix it (extreme probability or blind spot), keeping the exact
        # what-if evaluation affordable.
        if action == "control":
            candidates = [
                line
                for line in candidates
                if line not in used_control
                and min(measures.cp[line], 1.0 - measures.cp[line]) < 0.25
            ]
            best_line, best_remaining = None, baseline
            for line in candidates:
                remaining = _what_if_control(modified, line)
                if remaining < best_remaining:
                    best_line, best_remaining = line, remaining
            if best_line is None:
                continue
            _, kind, enable = _insert_control(
                modified, best_line, measures.cp[best_line], len(plan.control_inputs)
            )
            plan.control_inputs.append(enable)
            plan.control_points.append((best_line, kind))
            used_control.add(best_line)
        else:
            candidates = [
                line
                for line in candidates
                if line not in used_observe and measures.op[line] < 0.25
            ]
            best_line, best_remaining = None, baseline
            for line in candidates:
                remaining = _what_if_observe(modified, line)
                if remaining < best_remaining:
                    best_line, best_remaining = line, remaining
            if best_line is None:
                continue
            modified.add(GateType.OUTPUT, f"tp_obs_{best_line}", [best_line])
            modified.finalize()
            plan.observe_points.append(best_line)
            used_observe.add(best_line)

    return plan


def neutral_control_values(plan: TestPointPlan) -> List[int]:
    """Functional-mode values for the control-point inputs, in order."""
    values: List[int] = []
    for _, kind in plan.control_points:
        values.append(0 if kind == "or" else 1)
    return values
