"""SCOAP-guided PODEM with deterministic restart diversification.

Plain PODEM ranks D-frontier gates by observability alone; this engine
ranks them by full SCOAP *detect cost* — observability plus the
controllability of driving every open side input non-controlling — so
the objective chooser prefers propagation paths whose side conditions
are actually cheap to justify, not just paths that end near a pin.

On top of the ranking it runs a small deterministic restart schedule:
the per-fault backtrack budget is split into geometrically growing
slices, and each restart *rotates* the frontier ranking so successive
attempts commit to a different initial propagation path.  Hard faults
that trap classic PODEM in one reconvergent cone often fall to the
second or third ordering at a fraction of the budget.  Everything is
deterministic — same fault, same netlist, same budget ⇒ same result —
which the cross-engine oracle and the campaign determinism pins rely
on.

A conclusive outcome (``detected`` or ``untestable``) from any slice is
final: detection is validated by forward implication, and untestability
means the slice *exhausted the whole decision tree* without tripping a
budget, which is a proof no matter how small the slice was.  The
``work_budget`` covers the whole call: its tally sums over every slice,
and a slice that exhausts it ends the restarts.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..circuit.compiled import NONCONTROLLING
from ..circuit.dcalc import _RAIL_X
from ..circuit.netlist import Netlist
from ..faults.model import StuckAtFault
from .podem import Podem, PodemResult
from .scoap import Testability

__all__ = ["GuidedPodem"]

#: Searches per fault, each from a rotated frontier order.
_RESTARTS = 3


class GuidedPodem(Podem):
    """PODEM variant with SCOAP detect-cost frontier ranking + restarts."""

    def __init__(
        self,
        netlist: Netlist,
        backtrack_limit: int = 64,
        measures: Optional[Testability] = None,
        work_budget: Optional[int] = None,
    ):
        super().__init__(netlist, backtrack_limit, measures, work_budget)
        self._rotation = 0

    def _rank_frontier(
        self, frontier: Sequence[int], values: List[int]
    ) -> List[int]:
        ranked = sorted(
            frontier, key=lambda g: (self._detect_cost(g, values), g)
        )
        if self._rotation and len(ranked) > 1:
            pivot = self._rotation % len(ranked)
            ranked = ranked[pivot:] + ranked[:pivot]
        return ranked

    def _detect_cost(self, gate_index: int, values: List[int]) -> int:
        """SCOAP cost of pushing the D through ``gate_index``: observe the
        output, and justify each *open* side input non-controlling."""
        cost = self.measures.co[gate_index]
        noncontrol = NONCONTROLLING[self._compiled.codes[gate_index]]
        if noncontrol is None:
            return cost
        # Faulted drivers (known good rail) help and cost nothing.
        side_cost = self.measures.cc1 if noncontrol else self.measures.cc0
        for driver in self._compiled.fanins[gate_index]:
            if values[driver] // 3 == _RAIL_X:
                cost += side_cost[driver]
        return cost

    def generate(self, fault: StuckAtFault) -> PodemResult:
        self._implications = 0
        slices = _budget_slices(self.backtrack_limit)
        total_backtracks = 0
        outcome = PodemResult(status="aborted", reason="backtracks")
        for rotation, slice_limit in enumerate(slices):
            self._rotation = rotation
            outcome = self._search(fault, slice_limit)
            total_backtracks += outcome.backtracks
            if outcome.status != "aborted" or outcome.reason == "work":
                break
        outcome.backtracks = total_backtracks
        self._publish_implications()
        return outcome


def _budget_slices(backtrack_limit: int) -> List[int]:
    """Split a backtrack budget into :data:`_RESTARTS` geometrically growing
    slices summing to ~``backtrack_limit`` (each slice at least 1)."""
    weight_total = (1 << _RESTARTS) - 1
    slices = [
        max(1, (backtrack_limit * (1 << index)) // weight_total)
        for index in range(_RESTARTS)
    ]
    # Give any rounding remainder to the final (largest) slice.
    slices[-1] += max(0, backtrack_limit - sum(slices))
    return slices
