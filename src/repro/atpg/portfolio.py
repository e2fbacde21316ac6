"""Per-fault engine portfolio: PODEM, guided PODEM, and the D-algorithm
raced under one budget.

The three deterministic engines have complementary strengths — PODEM is
fastest on easy faults, the SCOAP-guided restarts crack faults one bad
initial path traps PODEM in, and the D-algorithm's exhaustive frontier
search *proves* untestability where both PODEM variants can only abort.
The portfolio runs them per fault as a deterministic relay: each engine
gets the whole ``work_budget``, the first conclusive verdict
(``detected`` or ``untestable``) wins, and an all-engines-abort records
every engine's reason.  A true race would be faster on a multicore box but
nondeterministic; the relay keeps campaigns bit-identical run to run,
which the equivalence oracle and the campaign determinism pins require.

The D-algorithm anchors the relay with a larger backtrack allowance
(4 × the base limit): it runs last, only on faults
the cheap engines already failed, where spending a deeper search to
either find the vector or prove redundancy is exactly the point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..circuit.netlist import Netlist
from ..faults.model import StuckAtFault
from .dalg import DAlgorithm
from .guided import GuidedPodem
from .podem import Podem, PodemResult
from .scoap import compute_testability

__all__ = ["ENGINE_NAMES", "PORTFOLIO_MEMBERS", "PortfolioAtpg", "PortfolioResult", "make_engine"]

#: Engine names accepted by ``run_atpg(engine=...)`` and the CLI.
ENGINE_NAMES = ("podem", "dalg", "guided", "portfolio")

#: Relay order inside the portfolio: cheapest first, prover last.
PORTFOLIO_MEMBERS = ("podem", "guided", "dalg")


@dataclass
class PortfolioResult(PodemResult):
    """A :class:`PodemResult` plus per-engine attribution.

    ``winner`` names the engine whose verdict stands (None when every
    member aborted); ``engine_reasons`` records why each *losing* member
    gave up, so an aborted fault carries a complete audit trail.
    """

    winner: Optional[str] = None
    engine_reasons: Dict[str, str] = field(default_factory=dict)
    engine_backtracks: Dict[str, int] = field(default_factory=dict)


class PortfolioAtpg:
    """Race the engine portfolio over each fault, deterministically."""

    def __init__(
        self,
        netlist: Netlist,
        backtrack_limit: int = 64,
        work_budget: Optional[int] = None,
    ):
        netlist.finalize()
        self.netlist = netlist
        self.backtrack_limit = backtrack_limit
        self.measures = compute_testability(netlist)
        self.engines: List[Tuple[str, Podem]] = [
            ("podem", Podem(netlist, backtrack_limit, self.measures, work_budget)),
            (
                "guided",
                GuidedPodem(netlist, backtrack_limit, self.measures, work_budget),
            ),
            (
                "dalg",
                DAlgorithm(netlist, backtrack_limit * 4, self.measures, work_budget),
            ),
        ]

    def generate(self, fault: StuckAtFault) -> PortfolioResult:
        reasons: Dict[str, str] = {}
        backtracks: Dict[str, int] = {}
        total_backtracks = 0
        for name, engine in self.engines:
            outcome = engine.generate(fault)
            total_backtracks += outcome.backtracks
            backtracks[name] = outcome.backtracks
            if outcome.status != "aborted":
                return PortfolioResult(
                    status=outcome.status,
                    cube=outcome.cube,
                    backtracks=total_backtracks,
                    winner=name,
                    engine_reasons=reasons,
                    engine_backtracks=backtracks,
                )
            reasons[name] = outcome.reason
        # Every member aborted: the relay ends on the anchor's reason.
        return PortfolioResult(
            status="aborted",
            backtracks=total_backtracks,
            reason=outcome.reason,
            engine_reasons=reasons,
            engine_backtracks=backtracks,
        )


def make_engine(
    name: str,
    netlist: Netlist,
    backtrack_limit: int = 64,
    work_budget: Optional[int] = None,
):
    """Engine factory behind ``run_atpg(engine=...)`` and the CLI flag."""
    if name == "podem":
        return Podem(netlist, backtrack_limit, work_budget=work_budget)
    if name == "guided":
        return GuidedPodem(netlist, backtrack_limit, work_budget=work_budget)
    if name == "dalg":
        return DAlgorithm(netlist, backtrack_limit, work_budget=work_budget)
    if name == "portfolio":
        return PortfolioAtpg(netlist, backtrack_limit, work_budget)
    raise ValueError(
        f"unknown ATPG engine {name!r}; expected one of {ENGINE_NAMES}"
    )
