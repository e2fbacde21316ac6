"""Identical cores measured and searched once: class-wide SCOAP and copied
ATPG verdicts.

``compute_testability`` walks one representative per core class and
copies its measures to every image; ``run_atpg`` and the EDT flow search
an untestable or aborted verdict once per image key and copy it
(:class:`~repro.atpg.engine.ImageVerdicts`).  The oracles here hold both
to what a per-copy computation gives: the measures of the core itself,
and a fresh engine search of every fault the flow did not detect.  The
scaling test pins the search count flat in the number of cores.
"""

from unittest.mock import patch

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.atpg.engine import run_atpg
from repro.atpg.podem import Podem
from repro.atpg.portfolio import ENGINE_NAMES, make_engine
from repro.atpg.scoap import compute_testability
from repro.circuit.benchmarks import get_benchmark, replicate_netlist
from repro.circuit.compiled import core_classes
from repro.circuit.gates import GateType
from repro.circuit.netlist import Netlist
from repro.faults.collapse import collapse_faults
from repro.faults.model import OUTPUT_PIN
from repro.faults.stuck_at import full_fault_list
from repro.scan.insertion import insert_scan

from tests.oracle_util import built_netlists, generated_netlists, sequential_netlists

SETTINGS = settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

CORES = st.one_of(
    built_netlists(),
    generated_netlists(max_inputs=5, max_gates=16),
    sequential_netlists(max_inputs=4, max_gates=14, max_flops=3),
)


@SETTINGS
@given(core=CORES, copies=st.integers(min_value=1, max_value=4))
def test_chip_measures_are_the_cores_on_every_copy(core, copies):
    chip = replicate_netlist(core, copies)
    if copies > 1:
        assert core_classes(chip).classes
    alone = compute_testability(core)
    chip_measures = compute_testability(chip)
    size = len(core.gates)
    for copy in range(copies):
        window = slice(copy * size, (copy + 1) * size)
        assert chip_measures.cc0[window] == alone.cc0
        assert chip_measures.cc1[window] == alone.cc1
        assert chip_measures.co[window] == alone.co


class _NoClasses:
    """A core-class map with no classes: every gate walked, every fault
    searched."""

    classes = []

    @staticmethod
    def images(faults):
        return {}


def _without_classes(module):
    return patch(f"{module}.core_classes", lambda netlist: _NoClasses)


@settings(
    max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    core=sequential_netlists(max_inputs=4, max_gates=14, max_flops=3),
    copies=st.integers(min_value=2, max_value=4),
    chains=st.integers(min_value=1, max_value=3),
)
def test_scan_inserted_chip_measures_equal_a_flat_walk(core, copies, chains):
    """Scan insertion makes the copies differ (one holds the scan-out
    marker); the measures must still equal a walk over every gate."""
    chip = insert_scan(replicate_netlist(core, copies), n_chains=chains).netlist
    measures = compute_testability(chip)
    with _without_classes("repro.atpg.scoap"):
        expected = compute_testability(chip)
    assert measures == expected


@SETTINGS
@given(
    core=st.one_of(built_netlists(), generated_netlists(max_inputs=5, max_gates=16)),
    copies=st.integers(min_value=1, max_value=4),
    engine_name=st.sampled_from(ENGINE_NAMES),
    backtrack_limit=st.sampled_from((0, 1, 64)),
    random_batches=st.integers(min_value=0, max_value=1),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_copied_verdicts_are_the_engines(
    core, copies, engine_name, backtrack_limit, random_batches, seed
):
    """Every fault the flow lists as untestable or aborted, copied or
    searched, gets that status from a fresh search of its own, and the
    flow's bookkeeping equals a run that searches every fault."""
    chip = replicate_netlist(core, copies)
    faults, _ = collapse_faults(chip, full_fault_list(chip))

    def flow():
        return run_atpg(
            chip,
            faults=faults,
            engine=engine_name,
            backtrack_limit=backtrack_limit,
            random_batches=random_batches,
            seed=seed,
        )

    result = flow()
    assert not result.consistency_errors
    for status, listed in (
        ("untestable", result.untestable),
        ("aborted", result.aborted),
    ):
        engine = make_engine(engine_name, chip, backtrack_limit=backtrack_limit)
        for fault in listed:
            assert engine.generate(fault).status == status
    with _without_classes("repro.atpg.engine"):
        searched = flow()
    assert result.patterns == searched.patterns
    assert result.untestable == searched.untestable
    assert result.aborted == searched.aborted
    assert result.winner_engines == searched.winner_engines
    assert result.engine_abort_reasons == searched.engine_abort_reasons
    assert result.cubes == searched.cubes


def test_flop_pin_driven_from_another_component_has_no_image_key():
    """A branch fault on a flop pin whose driver lies in another component
    has no image key, so it is neither grouped nor given a copied verdict;
    every other fault of the core's classes has one."""
    core = Netlist("split")
    a = core.add(GateType.INPUT, "a")
    b = core.add(GateType.INPUT, "b")
    inverted = core.add(GateType.NOT, "n", [a])
    core.add(GateType.OUTPUT, "ya", [inverted])
    flop = core.add(GateType.DFF, "ff", [inverted])
    gate = core.add(GateType.AND, "g", [flop, b])
    core.add(GateType.OUTPUT, "yb", [gate])
    chip = replicate_netlist(core, 3)
    cores = core_classes(chip)
    faults = full_fault_list(chip)
    keyed = {fault for images in cores.images(faults).values() for fault in images}
    size = len(core.gates)
    for fault in faults:
        foreign = fault.gate % size == flop and fault.pin == 0
        assert (fault in keyed) != foreign
    # The flop's output faults are keyed; each key holds one image per copy.
    assert all(len(images) == 3 for images in cores.images(faults).values())
    assert any(
        fault.gate % size == flop and fault.pin == OUTPUT_PIN for fault in keyed
    )


class _SearchCounter:
    """Counts ``Podem.generate`` calls by outcome status."""

    def __init__(self, monkeypatch):
        self.statuses = []
        generate = Podem.generate

        def counting(engine, fault):
            outcome = generate(engine, fault)
            self.statuses.append(outcome.status)
            return outcome

        monkeypatch.setattr(Podem, "generate", counting)

    def count(self, status):
        return self.statuses.count(status)


#: The untestable faults of one mac4 core left after the random phase.
MAC4_UNTESTABLE = 23

#: Searches that found a cube on mac4_x4, x8 and x16 (seed 1): 1, 0, 1.
#: Each detection still gets its own search, so this bound holds only while
#: the random phase leaves few testable faults; broadcasting cubes to every
#: copy would make it one search per class and key.
MAX_DETECTING_SEARCHES = 2


@pytest.mark.parametrize("copies", [4, 8, 16])
def test_searches_do_not_grow_with_the_core_count(copies, monkeypatch):
    """Before verdicts were copied, mac4_x16 made 368 untestable searches:
    the same 23 proofs on each of 16 copies."""
    chip = get_benchmark(f"mac4_x{copies}")
    faults, _ = collapse_faults(chip, full_fault_list(chip))
    searches = _SearchCounter(monkeypatch)
    result = run_atpg(chip, faults=faults, seed=1)
    assert searches.count("untestable") == MAC4_UNTESTABLE
    assert searches.count("aborted") == 0
    assert searches.count("detected") <= MAX_DETECTING_SEARCHES
    # Every copy still lists its own images.
    assert len(result.untestable) == MAC4_UNTESTABLE * copies
    settled = len(result.untestable) + searches.count("detected")
    assert result.winner_engines == {"podem": settled}
