"""Pattern-set flows grade once and read credit from first detections.

STUMPS LBIST, weighted LBIST and the EDT random phase each grade a fixed
pattern set.  They make one drop-mode ``simulate`` call over the whole
set and derive every per-pattern or per-checkpoint credit from the
first-detection indices.  Two kinds of check pin that:

* *Refactor guards.*  A checkpoint-by-checkpoint reference loop, kept here,
  must give the same curve, survivors, coverage and signature; the EDT
  flow must reproduce digests recorded with a pattern-by-pattern loop.
* *Scaling oracle.*  The number of ``simulate`` calls must not grow with
  the pattern count.
"""

import hashlib
import math

import pytest

from repro import obs

from repro.atpg.engine import run_atpg
from repro.atpg.podem import Podem
from repro.atpg.random_gen import weighted_random_patterns
from repro.bist.lbist import (
    StumpsController,
    coverage_curve,
    derive_input_weights,
    run_weighted_lbist,
)
from repro.circuit import benchmarks, generators
from repro.compression.edt import EdtSystem
from repro.compression.flow import run_compressed_atpg
from repro.faults.collapse import collapse_faults
from repro.faults.stuck_at import full_fault_list
from repro.scan.insertion import insert_scan
from repro.sim import goodcache
from repro.sim.faultsim import FaultSimulator
from repro.sim.parallel import WORD_WIDTH, ParallelSimulator


def _collapsed(netlist):
    faults, _ = collapse_faults(netlist, full_fault_list(netlist))
    return faults


@pytest.fixture(scope="module")
def resistant():
    """Wide-AND cones leave survivors, so the curve and survivor list
    both carry information."""
    netlist = generators.random_resistant(10, cones=2)
    return netlist, _collapsed(netlist)


def _reference_curve(simulator, chunks, faults):
    """Grade ``chunks`` one ``simulate`` call each, dropping as it goes."""
    remaining = list(faults)
    detected, applied, points = 0, 0, []
    for chunk in chunks:
        graded = simulator.simulate(chunk, remaining, drop=True)
        detected += len(graded.detected)
        remaining = [f for f in remaining if f not in graded.detected]
        applied += len(chunk)
        points.append(
            {"patterns": float(applied), "coverage": detected / len(faults)}
        )
    return points, remaining, detected / len(faults)


class TestStumpsMatchesChunkedLoop:
    @pytest.mark.parametrize("width", [1, 7, 64])
    @pytest.mark.parametrize("checkpoint_every", [1, 7, 64, 100])
    @pytest.mark.parametrize("n_patterns", [128, 150])
    def test_curve_survivors_signature(
        self, resistant, width, checkpoint_every, n_patterns
    ):
        netlist, faults = resistant
        result = StumpsController(netlist, word_width=width).run(
            n_patterns, faults, checkpoint_every
        )

        reference = StumpsController(netlist, word_width=width)
        chunks = [
            reference.generate_patterns(min(checkpoint_every, n_patterns - start))
            for start in range(0, n_patterns, checkpoint_every)
        ]
        points, remaining, final = _reference_curve(
            reference.simulator, chunks, faults
        )
        patterns = [pattern for chunk in chunks for pattern in chunk]

        assert result.coverage_points == points
        assert result.undetected == remaining
        assert result.final_coverage == final
        assert result.patterns_applied == n_patterns
        assert result.signature == reference.good_signature(patterns)
        assert remaining, "the circuit must leave survivors"


class TestWeightedMatchesChunkedLoop:
    #: ``width`` is the reference simulator's word width: the flow's
    #: draws, seeds and checkpoints are fixed at 64 patterns, whatever
    #: width grades them.
    @pytest.mark.parametrize("width", [7, 64])
    @pytest.mark.parametrize("n_patterns", [128, 150])
    def test_curve_and_survivors(self, resistant, width, n_patterns):
        netlist, faults = resistant
        result = run_weighted_lbist(netlist, n_patterns, seed=5)

        weights = derive_input_weights(netlist)
        chunks = [
            weighted_random_patterns(
                len(weights),
                min(WORD_WIDTH, n_patterns - start),
                weights,
                seed=5 * 131 + start,
            )
            for start in range(0, n_patterns, WORD_WIDTH)
        ]
        simulator = FaultSimulator(netlist, word_width=width)
        points, remaining, final = _reference_curve(simulator, chunks, faults)

        assert result.coverage_points == points
        assert result.undetected == remaining
        assert result.final_coverage == final
        assert result.patterns_applied == n_patterns


@pytest.fixture(scope="module")
def mac4_edt():
    netlist = benchmarks.get_benchmark("mac4_x4")
    design = insert_scan(netlist, n_chains=8)
    edt = EdtSystem(design, n_input_channels=2, n_output_channels=2)
    return edt, _collapsed(design.netlist)


def _edt_digest(result):
    return hashlib.sha256(
        repr(
            (
                result.applied_patterns,
                [encoded.channel_stream for encoded in result.encoded],
                result.detected,
                result.untestable,
                result.aborted,
                result.unencodable,
            )
        ).encode()
    ).hexdigest()[:16]


class TestEdtDigest:
    #: Recorded with the random phase grading one candidate per call.
    @pytest.mark.parametrize(
        "seed, digest", [(1, "0947031ae04edf1c"), (2, "f4b555b944a4cf4b")]
    )
    def test_matches_pattern_by_pattern_flow(self, mac4_edt, seed, digest):
        edt, faults = mac4_edt
        result = run_compressed_atpg(edt, faults=faults, seed=seed)
        assert _edt_digest(result) == digest


@pytest.fixture
def call_log(monkeypatch):
    """Record every ``FaultSimulator.simulate`` and ``Podem.generate`` call."""
    log = []
    simulate, generate = FaultSimulator.simulate, Podem.generate

    def logged_simulate(self, patterns, *args, **kwargs):
        log.append(("simulate", len(patterns)))
        return simulate(self, patterns, *args, **kwargs)

    def logged_generate(self, *args, **kwargs):
        log.append(("generate", 0))
        return generate(self, *args, **kwargs)

    monkeypatch.setattr(FaultSimulator, "simulate", logged_simulate)
    monkeypatch.setattr(Podem, "generate", logged_generate)
    return log


class TestOneGradePerPatternSet:
    @pytest.mark.parametrize("n_patterns", [64, 512])
    def test_stumps(self, resistant, call_log, n_patterns):
        netlist, faults = resistant
        StumpsController(netlist).run(n_patterns, faults)
        assert call_log == [("simulate", n_patterns)]

    @pytest.mark.parametrize("n_patterns", [64, 512])
    def test_weighted(self, resistant, call_log, n_patterns):
        netlist, _ = resistant
        run_weighted_lbist(netlist, n_patterns)
        assert call_log == [("simulate", n_patterns)]

    @pytest.mark.parametrize("budget", [16, 128])
    def test_edt_random_phase(self, mac4_edt, call_log, budget):
        edt, faults = mac4_edt
        run_compressed_atpg(edt, faults=faults, random_pattern_budget=budget)
        first_generate = call_log.index(("generate", 0))
        assert call_log[:first_generate] == [("simulate", budget)]


class TestStumpsExactWork:
    """STUMPS generates packed patterns, so a run packs nothing, makes one
    good pass per graded chunk and never consults the good-machine cache
    (the signature pass evaluates its own blocks, outside ``simulate``)."""

    @pytest.mark.parametrize("width", [7, 64])
    def test_no_packing_one_pass_per_chunk_no_cache(
        self, resistant, monkeypatch, width
    ):
        netlist, faults = resistant
        packed = []
        monkeypatch.setattr(
            ParallelSimulator, "pack_block", lambda self, patterns: packed.append(1)
        )
        cache = goodcache.DEFAULT_CACHE
        lookups = (cache.hits, cache.misses)
        n_patterns = 150
        with obs.observe("lbist") as observation:
            result = StumpsController(netlist, word_width=width).run(
                n_patterns, faults
            )
        assert result.undetected, "every chunk must be graded"
        assert packed == []
        assert observation.counter("faultsim.good_passes").value == math.ceil(
            n_patterns / width
        )
        assert (cache.hits, cache.misses) == lookups


class TestAtpgRandomPhaseExactWork:
    """The ATPG random phase grades packed batches: it hands
    ``pack_block`` nothing, and phase 2 packs single patterns."""

    def test_random_phase_packs_nothing(self, call_log, monkeypatch):
        netlist = benchmarks.get_benchmark("mac4_x4")
        pack_block = ParallelSimulator.pack_block

        def logged_pack(self, patterns):
            call_log.append(("pack", len(patterns)))
            return pack_block(self, patterns)

        monkeypatch.setattr(ParallelSimulator, "pack_block", logged_pack)
        result = run_atpg(netlist, seed=1)
        first_generate = call_log.index(("generate", 0))
        random_phase = call_log[:first_generate]
        assert random_phase == [("simulate", WORD_WIDTH)] * (
            result.random_pattern_count // WORD_WIDTH
        )
        assert len(random_phase) >= 2
        # Phase 2 still packs each filled cube, as one pattern.
        assert ("pack", 1) in call_log[first_generate:]


class TestCheckpointValidation:
    @pytest.mark.parametrize("checkpoint_every", [0, -3])
    def test_nonpositive_checkpoint_raises(self, checkpoint_every):
        with pytest.raises(ValueError, match="checkpoint_every"):
            coverage_curve(
                generators.parity_tree(4), 8, checkpoint_every=checkpoint_every
            )

    @pytest.mark.parametrize("n_patterns", [-1, -5])
    def test_negative_pattern_count_raises(self, n_patterns):
        netlist = generators.parity_tree(4)
        with pytest.raises(ValueError, match="n_patterns"):
            StumpsController(netlist).run(n_patterns)
        with pytest.raises(ValueError, match="n_patterns"):
            run_weighted_lbist(netlist, n_patterns)

    def test_zero_patterns_is_an_empty_session(self):
        result = StumpsController(generators.parity_tree(4)).run(0)
        assert result.patterns_applied == 0
        assert result.coverage_points == []
