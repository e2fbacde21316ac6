"""LFSRs, ring generators, phase shifters."""

import pytest

from repro.compression.lfsr import (
    LFSR,
    PhaseShifter,
    RingGenerator,
    primitive_taps,
)


class TestLFSR:
    @pytest.mark.parametrize("length", [4, 5, 6, 7, 8, 12])
    def test_maximal_period(self, length):
        lfsr = LFSR(length, seed=1)
        start, period = lfsr.state, 0
        while True:
            lfsr.step()
            period += 1
            if lfsr.state == start or period > 1 << length:
                break
        assert period == (1 << length) - 1

    def test_zero_seed_rejected(self):
        with pytest.raises(ValueError):
            LFSR(8, seed=0)

    def test_bad_taps_rejected(self):
        with pytest.raises(ValueError):
            LFSR(4, taps=(9,))

    def test_unknown_length_rejected(self):
        with pytest.raises(ValueError):
            primitive_taps(13)

    def test_patterns_shape(self):
        lfsr = LFSR(8, seed=3)
        patterns = lfsr.patterns(5, 12)
        assert len(patterns) == 5
        assert all(len(p) == 12 for p in patterns)
        assert all(bit in (0, 1) for p in patterns for bit in p)

    def test_deterministic(self):
        a = LFSR(8, seed=5).pattern(32)
        b = LFSR(8, seed=5).pattern(32)
        assert a == b

    def test_roughly_balanced(self):
        bits = LFSR(16, seed=1).pattern(4096)
        ones = sum(bits)
        assert 0.45 < ones / 4096 < 0.55


class TestRingGenerator:
    def test_symbolic_predicts_concrete(self):
        """The symbolic variable masks must exactly model concrete runs."""
        import random

        from repro.compression.gf2 import dot_bits

        rng = random.Random(9)
        generator = RingGenerator(16, n_channels=2, seed=4)
        cycles = 12
        # Symbolic pass.
        generator.reset()
        symbolic_states = []
        for _ in range(cycles):
            generator.step_symbolic()
            symbolic_states.append(list(generator.symbolic))
        n_vars = generator.n_variables
        assert n_vars == cycles * 2
        # Concrete pass with random channel data.
        data = [rng.randint(0, 1) for _ in range(n_vars)]
        generator.reset()
        position = 0
        for cycle in range(cycles):
            channel_bits = data[position : position + 2]
            position += 2
            generator.step_concrete(channel_bits)
            for cell in range(16):
                predicted = dot_bits(symbolic_states[cycle][cell], data)
                assert generator.state_bits[cell] == predicted

    def test_channel_count_checked(self):
        generator = RingGenerator(16, n_channels=2)
        with pytest.raises(ValueError):
            generator.step_concrete([1])

    def test_injector_positions_distinct(self):
        generator = RingGenerator(24, n_channels=4, seed=1)
        assert len(set(generator.injectors)) == 4

    def test_reset_clears(self):
        generator = RingGenerator(16, n_channels=2)
        generator.step_symbolic()
        generator.reset()
        assert generator.n_variables == 0
        assert all(v == 0 for v in generator.symbolic)


class TestPhaseShifter:
    def test_output_count_and_tap_bound(self):
        shifter = PhaseShifter(16, 40, taps_per_output=3, seed=2)
        assert len(shifter.rows) == 40
        assert all(1 <= len(row) <= 3 for row in shifter.rows)

    def test_rows_distinct(self):
        shifter = PhaseShifter(24, 30, taps_per_output=3, seed=2)
        assert len({tuple(r) for r in shifter.rows}) == 30

    def test_concrete_is_xor(self):
        shifter = PhaseShifter(4, 2, taps_per_output=2, seed=0)
        cells = [1, 0, 1, 1]
        outputs = shifter.xor(cells)
        for row, out in zip(shifter.rows, outputs):
            expected = 0
            for cell in row:
                expected ^= cells[cell]
            assert out == expected
