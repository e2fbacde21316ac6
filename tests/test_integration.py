"""Cross-package integration: the full AI-chip DFT flow end to end."""

import random

import pytest

from repro.atpg import run_atpg
from repro.circuit import generators
from repro.compression.edt import EdtSystem
from repro.circuit.benchmarks import replicate_netlist
from repro.dft import broadcast_detects_all_cores, wrap_core
from repro.faults import collapse_faults, full_fault_list
from repro.scan import (
    ScanScheduler,
    chain_flush_detects,
    insert_scan,
    partition_faults,
)
from repro.sim.faultsim import FaultSimulator
from repro.sim.logicsim import LogicSimulator
from repro.sim.view import CombinationalView


@pytest.fixture(scope="module")
def core_flow():
    """The canonical core flow: PE netlist -> wrap -> scan -> ATPG."""
    core = generators.systolic_pe(2)
    wrapped = wrap_core(core)
    design = insert_scan(wrapped.netlist, n_chains=4)
    faults, _ = collapse_faults(design.netlist, full_fault_list(design.netlist))
    capture, chain = partition_faults(design, faults)
    # random_batches=0 keeps deterministic cubes around for the EDT test.
    atpg = run_atpg(design.netlist, faults=capture, random_batches=0, seed=1)
    return core, wrapped, design, capture, chain, atpg


class TestCoreFlow:
    def test_chain_integrity(self, core_flow):
        _, _, design, *_ = core_flow
        assert chain_flush_detects(design)

    def test_atpg_coverage(self, core_flow):
        *_, atpg = core_flow
        assert atpg.test_coverage > 0.97

    def test_scan_protocol_applies_atpg_patterns(self, core_flow):
        """Three ATPG patterns pushed through the real shift/capture/unload
        protocol produce exactly the predicted responses."""
        _, _, design, _, _, atpg = core_flow
        scheduler = ScanScheduler(design)
        logic = LogicSimulator(design.netlist)
        n_po = len(design.netlist.outputs)
        for index, pattern in enumerate(atpg.patterns[:3]):
            operation = scheduler.apply_pattern(pattern, index)
            predicted = logic.response(pattern)
            assert operation.unloaded_state == predicted[n_po:]

    def test_edt_compresses_core_patterns(self, core_flow):
        _, _, design, capture, _, atpg = core_flow
        assert atpg.cubes
        edt = EdtSystem(design, n_input_channels=2, n_output_channels=2)
        encodable = [
            edt.decompressor.solve_cube(edt.cube_to_care_bits(cube)[1]) is not None
            for cube in atpg.cubes
        ]
        assert sum(encodable) > 0.8 * len(encodable)

    def test_chip_level_broadcast(self, core_flow):
        core, *_ = core_flow
        atpg = run_atpg(core, seed=3)
        chip = replicate_netlist(core, 2)
        assert broadcast_detects_all_cores(core, atpg.patterns, chip, 2)


class TestDefectToDiagnosisLoop:
    def test_inject_diagnose_locate(self):
        """Manufacture a defective die, test it, diagnose the defect."""
        from repro.diagnosis import EffectCauseDiagnoser, inject_and_observe

        netlist = generators.alu(4)
        faults, _ = collapse_faults(netlist, full_fault_list(netlist))
        simulator = FaultSimulator(netlist)
        atpg = run_atpg(netlist, seed=5)
        rng = random.Random(0)
        diagnoser = EffectCauseDiagnoser(netlist, faults)
        located = 0
        trials = 0
        for defect in rng.sample(faults, 8):
            observed = inject_and_observe(simulator, atpg.patterns, defect)
            if not observed:
                continue
            trials += 1
            result = diagnoser.diagnose(atpg.patterns, observed)
            if defect in result.top_suspects:
                located += 1
        assert trials >= 5
        assert located == trials


class TestMixedSignalOffChipStory:
    def test_full_chip_plan_consistency(self):
        """Planner cycles must dominate any single task's cycles."""
        from repro.dft import build_plan

        plan = build_plan()
        longest = max(task.time_cycles for task in plan.tasks)
        assert plan.report["scheduled_cycles"] >= longest
        assert plan.report["sequential_cycles"] >= plan.report["scheduled_cycles"]
