"""Fault diagnosis: dictionary, effect-cause, and compactor-aware."""

import pytest

from repro.atpg.engine import run_atpg
from repro.circuit import benchmarks, generators
from repro.compression.compactor import CompactorConfig, XorCompactor
from repro.diagnosis.compactor_diag import CompactedDiagnoser
from repro.diagnosis.dictionary import FaultDictionary, signature_to_failures
from repro.diagnosis.effect_cause import EffectCauseDiagnoser, inject_and_observe
from repro.faults.collapse import collapse_faults
from repro.faults.stuck_at import full_fault_list
from repro.scan.insertion import insert_scan, partition_faults
from repro.sim.faultsim import FaultSimulator


@pytest.fixture(scope="module")
def diag_setup():
    netlist = benchmarks.get_benchmark("alu4")
    faults, _ = collapse_faults(netlist, full_fault_list(netlist))
    simulator = FaultSimulator(netlist)
    atpg = run_atpg(netlist, seed=3)
    return netlist, faults, simulator, atpg.patterns


class TestDictionary:
    def test_injected_defects_rank_first(self, diag_setup):
        netlist, faults, simulator, patterns = diag_setup
        dictionary = FaultDictionary.build(simulator, patterns, faults)
        hits = 0
        probes = faults[:: max(1, len(faults) // 20)]
        for defect in probes:
            observed = inject_and_observe(simulator, patterns, defect)
            if not observed:
                continue
            ranked = dictionary.lookup(observed, top=5)
            assert ranked, defect
            best_score = ranked[0][1]
            top = [f for f, s in ranked if s == best_score]
            if defect in top:
                hits += 1
        assert hits >= 0.9 * len(probes)

    def test_exact_match_class(self, diag_setup):
        netlist, faults, simulator, patterns = diag_setup
        dictionary = FaultDictionary.build(simulator, patterns, faults[:40])
        defect = faults[5]
        observed = inject_and_observe(simulator, patterns, defect)
        matches = dictionary.exact_matches(observed)
        if defect in dictionary.entries and observed:
            assert defect in matches

    def test_resolution_at_least_one(self, diag_setup):
        netlist, faults, simulator, patterns = diag_setup
        dictionary = FaultDictionary.build(simulator, patterns, faults[:60])
        assert dictionary.diagnostic_resolution() >= 1.0

    def test_more_patterns_improve_resolution(self, diag_setup):
        netlist, faults, simulator, patterns = diag_setup
        few = FaultDictionary.build(simulator, patterns[:3], faults[:60])
        many = FaultDictionary.build(simulator, patterns, faults[:60])
        assert many.diagnostic_resolution() <= few.diagnostic_resolution()


class TestEffectCause:
    def test_defect_in_top_suspects(self, diag_setup):
        netlist, faults, simulator, patterns = diag_setup
        diagnoser = EffectCauseDiagnoser(netlist, faults)
        probes = faults[:: max(1, len(faults) // 15)]
        hits = 0
        tried = 0
        for defect in probes:
            observed = inject_and_observe(simulator, patterns, defect)
            if not observed:
                continue
            tried += 1
            result = diagnoser.diagnose(patterns, observed)
            if defect in result.top_suspects:
                hits += 1
        assert tried > 0
        assert hits >= 0.9 * tried

    def test_structural_pruning_reduces_candidates(self, diag_setup):
        netlist, faults, simulator, patterns = diag_setup
        diagnoser = EffectCauseDiagnoser(netlist, faults)
        defect = faults[3]
        observed = inject_and_observe(simulator, patterns, defect)
        if observed:
            result = diagnoser.diagnose(patterns, observed)
            assert result.candidates_considered < len(faults)

    def test_empty_observation(self, diag_setup):
        netlist, faults, simulator, patterns = diag_setup
        diagnoser = EffectCauseDiagnoser(netlist, faults)
        result = diagnoser.diagnose(patterns, set())
        assert result.suspects == []


class TestCompactedDiagnosis:
    @pytest.fixture(scope="class")
    def compact_setup(self):
        netlist = generators.random_sequential(6, 80, 16, seed=9)
        design = insert_scan(netlist, n_chains=4)
        faults, _ = collapse_faults(
            design.netlist, full_fault_list(design.netlist)
        )
        capture, _ = partition_faults(design, faults)
        atpg = run_atpg(design.netlist, faults=capture, seed=2)
        compactor = XorCompactor(CompactorConfig(4, 2, seed=1))
        diagnoser = CompactedDiagnoser(design, compactor, capture[:80])
        return design, capture, atpg.patterns, diagnoser

    def test_compacted_signature_nonempty_for_detected(self, compact_setup):
        design, capture, patterns, diagnoser = compact_setup
        simulator = FaultSimulator(design.netlist)
        defect = capture[10]
        raw = simulator.failure_signature(patterns, defect)
        if raw:
            compacted = diagnoser.compacted_signature(patterns, defect)
            assert compacted  # single fault rarely aliases every cycle

    def test_diagnose_finds_defect(self, compact_setup):
        design, capture, patterns, diagnoser = compact_setup
        defect = diagnoser.faults[7]
        observed = diagnoser.compacted_signature(patterns, defect)
        if observed:
            ranked = diagnoser.diagnose(patterns, observed)
            best = ranked[0][1]
            top = [f for f, s in ranked if s == best]
            assert defect in top
