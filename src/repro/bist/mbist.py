"""Memory BIST controller: run March tests against the SRAM model.

:func:`run_march` executes one algorithm on one memory and reports whether
any read miscompared — the pass/fail a hardware MBIST controller would
latch.  :func:`coverage_matrix` reproduces the E7 table: detection rate of
each March algorithm against each functional fault model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from .. import obs
from .march import Direction, MarchTest, ALL_MARCH_TESTS
from .memory import FAULT_KINDS, Memory, MemoryFault, sample_faults


@dataclass
class MarchRunResult:
    """Outcome of one March run."""

    test_name: str
    passed: bool
    operations: int
    first_failure: Optional[Dict[str, int]] = None  # element/address/op info
    failures: int = 0


def run_march(memory: Memory, test: MarchTest, stop_on_first: bool = False) -> MarchRunResult:
    """Execute ``test`` on ``memory``; reads are checked against expectation."""
    operations = 0
    failures = 0
    first_failure: Optional[Dict[str, int]] = None
    for element_index, element in enumerate(test.elements):
        if element.direction == Direction.DOWN:
            addresses = range(memory.n_cells - 1, -1, -1)
        else:
            addresses = range(memory.n_cells)
        for address in addresses:
            for op_index, operation in enumerate(element.operations):
                operations += 1
                if operation.kind == "w":
                    memory.write(address, operation.value)
                    continue
                observed = memory.read(address)
                if observed != operation.value:
                    failures += 1
                    if first_failure is None:
                        first_failure = {
                            "element": element_index,
                            "address": address,
                            "operation": op_index,
                            "expected": operation.value,
                            "observed": observed,
                        }
                    if stop_on_first:
                        return _publish_march(
                            MarchRunResult(
                                test.name, False, operations, first_failure, failures
                            )
                        )
    return _publish_march(
        MarchRunResult(
            test.name, failures == 0, operations, first_failure, failures
        )
    )


def _publish_march(result: MarchRunResult) -> MarchRunResult:
    """Mirror one March run into the active observation."""
    observation = obs.current()
    if observation is not None:
        observation.counter("mbist.march_runs").add(1)
        observation.counter("mbist.operations").add(result.operations)
        observation.counter("mbist.failures").add(result.failures)
    return result


def detects_fault(test: MarchTest, fault: MemoryFault, n_cells: int = 64) -> bool:
    """Does ``test`` catch a single injected fault on a fresh memory?"""
    memory = Memory(n_cells, faults=[fault])
    return not run_march(memory, test, stop_on_first=True).passed


@dataclass
class CoverageCell:
    """One (algorithm, fault-kind) entry of the E7 matrix."""

    detected: int
    total: int

    @property
    def rate(self) -> float:
        return self.detected / self.total if self.total else 1.0


def coverage_matrix(
    n_cells: int = 64, samples_per_kind: int = 40, seed: int = 0
) -> Dict[str, Dict[str, CoverageCell]]:
    """Detection-rate matrix over every March test and fault kind:
    ``matrix[test.name][kind] -> CoverageCell``.

    For each fault kind, the same sampled fault population is graded
    against every algorithm, so columns are directly comparable.
    """
    populations = {
        kind: sample_faults(n_cells, kind, samples_per_kind, seed=seed)
        for kind in FAULT_KINDS
    }
    matrix: Dict[str, Dict[str, CoverageCell]] = {}
    with obs.span(
        "coverage_matrix", tests=len(ALL_MARCH_TESTS), fault_kinds=len(FAULT_KINDS)
    ):
        for test in ALL_MARCH_TESTS:
            row: Dict[str, CoverageCell] = {}
            for kind, faults in populations.items():
                detected = sum(
                    1 for fault in faults if detects_fault(test, fault, n_cells)
                )
                row[kind] = CoverageCell(detected=detected, total=len(faults))
            matrix[test.name] = row
    return matrix


def format_matrix(matrix: Dict[str, Dict[str, CoverageCell]]) -> str:
    """Render the coverage matrix as an aligned text table."""
    kinds = list(next(iter(matrix.values())).keys())
    header = f"{'algorithm':<10}" + "".join(f"{kind:>8}" for kind in kinds)
    lines = [header]
    for name, row in matrix.items():
        cells = "".join(f"{row[kind].rate:>8.2f}" for kind in kinds)
        lines.append(f"{name:<10}{cells}")
    return "\n".join(lines)
