"""Independent oracles for the LBIST signature and the MISR aliasing rate.

* ``StumpsController.generate_patterns`` equals a bit-serial PRPG written
  here: the LFSR stepped once per pattern and the phase shifter XORing
  that pattern's cells, so the packed columns match row by row and
  consecutive calls continue the stream;
* ``StumpsController.good_signature`` equals a bit-serial MISR written here
  from the feedback polynomial alone, fed by the 4-valued
  ``LogicSimulator``'s responses one pattern at a time — no packed
  simulation and no ``MISR`` class on the reference side;
* on random nonzero error streams an n-bit MISR aliases at the textbook
  ``2**-n`` rate, within a binomial bound.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bist.lbist import LbistConfig, StumpsController
from repro.circuit import generators
from repro.compression.lfsr import LFSR, PRIMITIVE_TAPS, PhaseShifter
from repro.compression.misr import measure_aliasing, theoretical_aliasing_probability
from repro.sim.logicsim import LogicSimulator
from tests.oracle_util import small_netlists

LENGTHS = sorted(PRIMITIVE_TAPS)

#: Pattern counts around the 64-pattern word boundary, plus any others.
COUNTS = st.sampled_from([0, 1, 63, 64, 65, 127, 130]) | st.integers(0, 200)


def _serial_prpg(config, n_inputs):
    """One pattern per call: step the LFSR, XOR its cells through the shifter."""
    lfsr = LFSR(config.prpg_length, seed=config.seed | 1)
    shifter = PhaseShifter(
        config.prpg_length,
        n_inputs,
        taps_per_output=config.phase_taps,
        seed=config.seed + 3,
    )

    def pattern():
        lfsr.step()
        return shifter.xor(
            [(lfsr.state >> bit) & 1 for bit in range(config.prpg_length)]
        )

    return pattern


def _serial_misr(length, taps, slices):
    """Bit-serial MISR for the polynomial ``x^n + sum(x^t for t in taps)``.

    Cell ``i`` holds bit ``i``.  Each clock XORs the input slice into the
    cells, shifts every cell down by one, and feeds the XOR of cells
    ``n - t`` into the top cell.
    """
    cells = [0] * length
    for slice_bits in slices:
        for position, bit in enumerate(slice_bits):
            cells[position] ^= bit
        feedback = 0
        for tap in taps:
            feedback ^= cells[length - tap]
        cells = cells[1:] + [feedback]
    return sum(bit << position for position, bit in enumerate(cells))


def _reference_signature(netlist, patterns, length):
    logic = LogicSimulator(netlist)
    slices = []
    for pattern in patterns:
        response = logic.response(pattern)
        assert set(response) <= {0, 1}
        slices.extend(
            response[start : start + length]
            for start in range(0, len(response), length)
        )
    return _serial_misr(length, PRIMITIVE_TAPS[length], slices)


class TestPrpgColumns:
    @pytest.mark.parametrize("prpg_length", LENGTHS)
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        phase_taps=st.integers(1, 4),
        first=COUNTS,
        second=COUNTS,
    )
    def test_matches_bit_serial_prpg_across_calls(
        self, prpg_length, seed, phase_taps, first, second
    ):
        netlist = generators.mac_unit(4)
        config = LbistConfig(
            prpg_length=prpg_length, phase_taps=phase_taps, seed=seed
        )
        controller = StumpsController(netlist, config)
        reference = _serial_prpg(config, controller.simulator.view.num_inputs)
        for count in (first, second):
            packed = controller.generate_patterns(count)
            assert len(packed) == count
            assert list(packed) == [reference() for _ in range(count)]


class TestGoodSignature:
    @settings(max_examples=40, deadline=None)
    @given(
        netlist=small_netlists(),
        misr_length=st.sampled_from(LENGTHS),
        prpg_length=st.sampled_from(LENGTHS),
        seed=st.integers(0, 50),
        n_patterns=st.integers(1, 40),
    )
    def test_matches_serial_reference(
        self, netlist, misr_length, prpg_length, seed, n_patterns
    ):
        config = LbistConfig(
            prpg_length=prpg_length, misr_length=misr_length, seed=seed
        )
        controller = StumpsController(netlist, config)
        patterns = controller.generate_patterns(n_patterns)
        assert controller.good_signature(patterns) == _reference_signature(
            netlist, patterns, misr_length
        )

    @pytest.mark.parametrize("misr_length", [4, 7, 16])
    def test_wide_responses_fold_into_slices(self, misr_length):
        """mac4's responses span several MISR-width slices per pattern."""
        netlist = generators.mac_unit(4)
        controller = StumpsController(netlist, LbistConfig(misr_length=misr_length))
        patterns = controller.generate_patterns(96)
        assert controller.simulator.view.num_outputs > misr_length
        assert controller.good_signature(patterns) == _reference_signature(
            netlist, patterns, misr_length
        )


    @settings(max_examples=40, deadline=None)
    @given(
        netlist=small_netlists(),
        misr_length=st.sampled_from(LENGTHS),
        word_width=st.sampled_from([1, 7, 64]),
        n_patterns=COUNTS,
    )
    def test_matches_serial_reference_at_any_width_and_count(
        self, netlist, misr_length, word_width, n_patterns
    ):
        controller = StumpsController(
            netlist, LbistConfig(misr_length=misr_length), word_width=word_width
        )
        patterns = controller.generate_patterns(n_patterns)
        assert controller.good_signature(patterns) == _reference_signature(
            netlist, list(patterns), misr_length
        )

    @pytest.mark.parametrize("word_width", [1, 7, 64])
    @pytest.mark.parametrize("misr_length", [5, 7, 16])
    @pytest.mark.parametrize("n_patterns", [0, 65, 130])
    def test_partial_last_slice(self, word_width, misr_length, n_patterns):
        """mac4's 24 outputs leave a short last slice at these lengths."""
        netlist = generators.mac_unit(4)
        controller = StumpsController(
            netlist, LbistConfig(misr_length=misr_length), word_width=word_width
        )
        assert controller.simulator.view.num_outputs % misr_length
        patterns = controller.generate_patterns(n_patterns)
        assert controller.good_signature(patterns) == _reference_signature(
            netlist, list(patterns), misr_length
        )


class TestAliasing:
    @pytest.mark.parametrize("length", [4, 5, 8])
    def test_rate_within_binomial_bound_of_two_to_minus_n(self, length):
        rng = random.Random(length)
        n_slices, trials = 12, 6000
        good = [[rng.randint(0, 1) for _ in range(length)] for _ in range(n_slices)]
        faulty = []
        while len(faulty) < trials:
            error = [[rng.randint(0, 1) for _ in range(length)] for _ in range(n_slices)]
            if any(any(row) for row in error):
                faulty.append(
                    [[g ^ e for g, e in zip(gs, es)] for gs, es in zip(good, error)]
                )
        p = theoretical_aliasing_probability(length)
        aliased = measure_aliasing(length, good, faulty) * trials
        sigma = math.sqrt(trials * p * (1 - p))
        assert abs(aliased - trials * p) <= 4 * sigma
