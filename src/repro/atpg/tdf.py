"""Transition-delay fault (TDF) test generation.

At-speed test of AI datapaths uses launch-on-capture (LOC) pattern pairs:
the scan load establishes vector *v1*, one functional clock launches the
transition producing *v2* (whose flop state is the captured next state of
*v1*), and a second capture observes the effect.

The generator here combines:

* **random LOC pairs** — v1 random, v2's state derived through the good
  machine (functionally consistent by construction), and
* **deterministic top-off** — PODEM generates a capture-frame test for the
  transient stuck-at, then a randomized justification search finds a launch
  vector whose next state is compatible with the capture cube and whose
  site value launches the transition.  Faults whose justification search
  fails are counted as aborted (a sequential-justification limit this
  prototype accepts; commercial tools unroll two time frames).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..circuit.netlist import Netlist
from ..circuit.values import ONE, X, ZERO
from ..faults.model import OUTPUT_PIN, StuckAtFault, TransitionFault
from ..faults.transition import full_transition_list
from ..sim.faultsim import FaultSimulator
from ..sim.logicsim import LogicSimulator
from .podem import Podem

PatternPair = Tuple[List[int], List[int]]


def random_loc_pairs(netlist: Netlist, count: int, seed: int = 0) -> List[PatternPair]:
    """Functionally consistent random launch/capture pairs.

    v1 = random PIs + random scan state; v2 = fresh random PIs + the good
    machine's next state captured from v1.
    """
    netlist.finalize()
    simulator = LogicSimulator(netlist)
    n_pi = len(netlist.inputs)
    n_ff = len(netlist.flops)
    pairs: List[PatternPair] = []
    rng = random.Random(seed)
    for index in range(count):
        launch = [rng.randint(0, 1) for _ in range(n_pi + n_ff)]
        step = simulator.step(launch[:n_pi], launch[n_pi:])
        next_state = [value if value in (ZERO, ONE) else rng.randint(0, 1) for value in step["state"]]
        capture = [rng.randint(0, 1) for _ in range(n_pi)] + next_state
        pairs.append((launch, capture))
    return pairs


@dataclass
class TdfAtpgResult:
    """Outcome of the transition-fault flow."""

    pairs: List[PatternPair] = field(default_factory=list)
    total_faults: int = 0
    detected_random: int = 0
    detected_deterministic: int = 0
    unjustified: List[TransitionFault] = field(default_factory=list)
    untestable: List[TransitionFault] = field(default_factory=list)
    cpu_seconds: float = 0.0

    @property
    def detected(self) -> int:
        return self.detected_random + self.detected_deterministic

    @property
    def coverage(self) -> float:
        if self.total_faults == 0:
            return 1.0
        return self.detected / self.total_faults


def run_tdf_atpg(
    netlist: Netlist,
    faults: Optional[Sequence[TransitionFault]] = None,
    n_random_pairs: int = 256,
    justify_tries: int = 200,
    backtrack_limit: int = 100,
    seed: int = 0,
) -> TdfAtpgResult:
    """Generate and grade LOC transition-fault pattern pairs."""
    start = time.perf_counter()
    netlist.finalize()
    if faults is None:
        faults = full_transition_list(netlist)
    simulator = FaultSimulator(netlist)
    logic = LogicSimulator(netlist)
    result = TdfAtpgResult(total_faults=len(faults))
    n_pi = len(netlist.inputs)
    n_ff = len(netlist.flops)
    rng = random.Random(seed)

    pairs = random_loc_pairs(netlist, n_random_pairs, seed=seed)
    sim = simulator.simulate_transition(pairs, faults, drop=True)
    used = sorted(set(sim.detected.values()))
    result.pairs = [pairs[index] for index in used]
    result.detected_random = len(sim.detected)
    remaining = list(sim.undetected)

    podem = Podem(netlist, backtrack_limit=backtrack_limit)
    for fault in list(remaining):
        stuck = StuckAtFault(fault.gate, fault.pin, fault.acts_as_stuck)
        outcome = podem.generate(stuck)
        if outcome.status == "untestable":
            result.untestable.append(fault)
            continue
        if outcome.status == "aborted":
            result.unjustified.append(fault)
            continue
        capture_cube = outcome.cube
        assert capture_cube is not None
        pair = _justify_launch(
            logic, simulator, fault, capture_cube, n_pi, n_ff, justify_tries, rng
        )
        if pair is None:
            result.unjustified.append(fault)
            continue
        grade = simulator.simulate_transition([pair], [fault], drop=True)
        if grade.detected:
            result.pairs.append(pair)
            result.detected_deterministic += 1
        else:
            result.unjustified.append(fault)

    result.cpu_seconds = time.perf_counter() - start
    return result


def _justify_launch(
    logic: LogicSimulator,
    simulator: FaultSimulator,
    fault: TransitionFault,
    capture_cube: Sequence[int],
    n_pi: int,
    n_ff: int,
    tries: int,
    rng: random.Random,
) -> Optional[PatternPair]:
    """Search for a launch vector compatible with a capture cube.

    Requirements: the good machine holds the pre-transition value at the
    fault site under v1, and NS(v1) matches every specified flop bit of the
    capture cube.  Returns a fully-specified (v1, v2) or None.
    """
    state_cube = capture_cube[n_pi:]
    initial_value = 1 - fault.slow_to
    for _ in range(tries):
        launch = [rng.randint(0, 1) for _ in range(n_pi + n_ff)]
        values = logic.evaluate(launch)
        site = _site_value_4v(simulator, fault, values)
        if site != initial_value:
            continue
        step = logic.step(launch[:n_pi], launch[n_pi:])
        next_state = step["state"]
        compatible = all(
            want == X or got == want
            for want, got in zip(state_cube, next_state)
        )
        if not compatible:
            continue
        capture_pi = [
            value if value != X else rng.randint(0, 1)
            for value in capture_cube[:n_pi]
        ]
        capture_state = [
            got if got in (ZERO, ONE) else (want if want != X else rng.randint(0, 1))
            for want, got in zip(state_cube, next_state)
        ]
        return launch, capture_pi + capture_state
    return None


def _site_value_4v(
    simulator: FaultSimulator, fault: TransitionFault, values: Sequence[int]
) -> int:
    """4-valued good value at a fault site (branch value = stem value)."""
    if fault.pin == OUTPUT_PIN:
        return values[fault.gate]
    driver = simulator.netlist.gates[fault.gate].fanin[fault.pin]
    return values[driver]
