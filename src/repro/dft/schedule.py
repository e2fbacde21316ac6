"""Power-constrained test scheduling.

Testing switches far more logic per cycle than functional operation, so a
chip cannot simply run every core's (scan or BIST) test at once — the
tutorial flags test power as a first-order constraint on AI chips precisely
because their cores are so numerous.  The classic formulation: each test is
a (time, power) block; concurrent tests' powers add; the schedule must keep
the sum under a budget while minimizing total time.

A greedy longest-first bin-packing over sessions gives the standard
baseline schedule (optimal scheduling is NP-hard; greedy is what practical
flows ship).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence


@dataclass(frozen=True)
class TestTask:
    """One schedulable test: a core's scan session, a memory's MBIST, …"""

    name: str
    time_cycles: int
    power_units: float

    def __post_init__(self):
        if self.time_cycles < 0 or self.power_units < 0:
            raise ValueError("time and power must be non-negative")


@dataclass
class Session:
    """Tests running concurrently."""

    tasks: List[TestTask] = field(default_factory=list)

    @property
    def power(self) -> float:
        return sum(task.power_units for task in self.tasks)

    @property
    def time_cycles(self) -> int:
        return max((task.time_cycles for task in self.tasks), default=0)


@dataclass
class Schedule:
    """An ordered list of sessions."""

    sessions: List[Session] = field(default_factory=list)
    power_budget: float = 0.0

    @property
    def total_cycles(self) -> int:
        return sum(session.time_cycles for session in self.sessions)

    def utilization(self) -> float:
        """Scheduled work / (makespan * budget) — 1.0 is a perfect pack."""
        work = sum(
            task.time_cycles * task.power_units
            for session in self.sessions
            for task in session.tasks
        )
        capacity = self.total_cycles * self.power_budget
        return work / capacity if capacity else 0.0


def schedule_tests(tasks: Sequence[TestTask], power_budget: float) -> Schedule:
    """Greedy longest-first scheduling under a power budget.

    Tasks are sorted by time descending and placed into the first session
    with power headroom; a task too hungry for any session opens a new one.
    Tasks whose individual power exceeds the budget are rejected.
    """
    over = [task.name for task in tasks if task.power_units > power_budget]
    if over:
        raise ValueError(
            f"tasks exceed the power budget on their own: {over[:4]}"
        )
    schedule = Schedule(power_budget=power_budget)
    for task in sorted(tasks, key=lambda t: -t.time_cycles):
        for session in schedule.sessions:
            if session.power + task.power_units <= power_budget:
                session.tasks.append(task)
                break
        else:
            schedule.sessions.append(Session(tasks=[task]))
    return schedule


def sequential_cycles(tasks: Sequence[TestTask]) -> int:
    """Makespan with no concurrency at all (the power-unlimited worst case)."""
    return sum(task.time_cycles for task in tasks)


def schedule_report(tasks: Sequence[TestTask], power_budget: float) -> Dict[str, object]:
    """Summary row: sequential vs scheduled makespan and speedup."""
    schedule = schedule_tests(tasks, power_budget)
    seq = sequential_cycles(tasks)
    return {
        "tasks": len(tasks),
        "power_budget": power_budget,
        "sessions": len(schedule.sessions),
        "sequential_cycles": seq,
        "scheduled_cycles": schedule.total_cycles,
        "speedup_x": round(seq / schedule.total_cycles, 2)
        if schedule.total_cycles
        else float("inf"),
        "utilization": round(schedule.utilization(), 3),
    }
