"""Property tests for the numpy packer and good pass (:mod:`repro.sim.npsim`).

The numpy kernel packs patterns and runs good-machine passes; fault
cones always propagate on bigint words.  Hypothesis sweeps random
netlists and pattern blocks through both kernels and checks the
contracts the conformance matrix builds on:

* :meth:`ParallelSimulator.good_words` returns identical word lists
  under both kernels, on circuits with n-ary gates, constants and muxes,
  at widths that do and do not fill their last lane;
* numpy and python kernels produce identical responses, detections, and
  deterministic counters on arbitrary circuits;
* ``pack_bits``/``unpack_bits`` roundtrip exactly, and a packed lane row
  is byte-identical to the bigint word of
  :func:`repro.sim.parallel.pack_patterns`;
* the masked-words invariant — no bits at positions ``>= n_patterns`` —
  holds after *every* gate op in a good-machine pass (each gate's word is
  written by exactly one op, so checking all words checks all ops).
"""

import random

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.atpg.random_gen import random_patterns
from repro.circuit import generators
from repro.circuit.builder import NetlistBuilder
from repro.circuit.gates import GateType
from repro.faults.collapse import collapse_faults
from repro.faults.stuck_at import full_fault_list
from repro.sim import npsim
from repro.sim.faultsim import FaultSimulator
from repro.sim.npsim import (
    LANE_DTYPE,
    int_to_words,
    lane_mask,
    lanes_for,
    pack_bits,
    unpack_bits,
    words_to_int,
)
from repro.sim.parallel import KERNELS, PackedPatterns, ParallelSimulator, pack_patterns

SMALL = dict(max_examples=15, deadline=None)
seeds = st.integers(0, 10**6)

#: Gates that take any number of inputs; the numpy pass reduces them.
NARY = (
    GateType.AND, GateType.NAND, GateType.OR,
    GateType.NOR, GateType.XOR, GateType.XNOR,
)


def small_circuit(seed):
    rng = random.Random(seed)
    return generators.random_circuit(
        rng.randint(4, 8), rng.randint(15, 45), seed=seed
    )


@st.composite
def mixed_netlists(draw):
    """Every gate type the good pass compiles: 1- to 5-input AND/OR/XOR
    family gates, NOT, BUF, MUX2, both constants, and a scan flop whose
    output feeds later logic."""
    builder = NetlistBuilder()
    lines = [builder.input(f"i{k}") for k in range(draw(st.integers(2, 6)))]
    lines += [builder.const0(), builder.const1()]
    nary = {
        GateType.AND: builder.and_, GateType.NAND: builder.nand,
        GateType.OR: builder.or_, GateType.NOR: builder.nor,
        GateType.XOR: builder.xor, GateType.XNOR: builder.xnor,
    }

    def pick():
        return lines[draw(st.integers(0, len(lines) - 1))]

    for step in range(draw(st.integers(4, 30))):
        kind = draw(st.sampled_from(NARY + (GateType.NOT, GateType.BUF, GateType.MUX2)))
        if kind in nary:
            line = nary[kind](*(pick() for _ in range(draw(st.integers(1, 5)))))
        elif kind == GateType.NOT:
            line = builder.not_(pick())
        elif kind == GateType.BUF:
            line = builder.buf(pick())
        else:
            line = builder.mux(pick(), pick(), pick())
        lines.append(line)
        if step == 2:
            lines.append(builder.dff(line, name="ff"))
    for k in range(draw(st.integers(1, 4))):
        builder.output(f"y{k}", lines[-1 - k])
    return builder.build()


class TestKernelEquivalence:
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        netlist=mixed_netlists(),
        width=st.sampled_from((64, 100, 4096)),
        data=st.data(),
    )
    def test_good_words_identical_across_kernels(self, netlist, width, data):
        """One word list per gate, the same under both kernels, with no
        bit set at or above ``n_patterns`` — including the padding bits of
        a partly filled last lane, which inverting gates and CONST1 would
        set without their re-mask."""
        n_patterns = data.draw(st.integers(1, width))
        python = ParallelSimulator(netlist, word_width=width, cache=None)
        numpy = ParallelSimulator(
            netlist, word_width=width, cache=None, kernel="numpy"
        )
        patterns = random_patterns(
            python.view.num_inputs, n_patterns, seed=data.draw(seeds)
        )
        words = numpy.good_words(patterns)
        assert words == python.good_words(patterns)
        assert all(word >> n_patterns == 0 for word in words)
        assert numpy.evaluations == python.evaluations == 1

    @settings(**SMALL)
    @given(seed=seeds, n_patterns=st.integers(1, 90))
    def test_responses_and_detections_match_python(self, seed, n_patterns):
        netlist = small_circuit(seed)
        faults, _ = collapse_faults(netlist, full_fault_list(netlist))
        patterns = random_patterns(len(netlist.inputs), n_patterns, seed=seed)
        python = FaultSimulator(netlist, cache=None, kernel="python")
        numpy = FaultSimulator(netlist, cache=None, kernel="numpy")
        assert numpy.parallel.responses(patterns) == python.parallel.responses(
            patterns
        )
        base = python.simulate(patterns, faults, engine="ppsfp")
        result = numpy.simulate(patterns, faults, engine="ppsfp")
        assert result.detected == base.detected
        assert result.undetected == base.undetected
        for counter in ("events_propagated", "words_evaluated", "good_passes"):
            assert result.stats[counter] == base.stats[counter], counter

    @settings(**SMALL)
    @given(seed=seeds, n_patterns=st.integers(1, 150), data=st.data())
    def test_packed_chunk_gives_the_words_of_its_rows(self, seed, n_patterns, data):
        """A :class:`PackedPatterns` slice evaluates to the same words as
        the rows it stands for, under both kernels."""
        netlist = small_circuit(seed)
        n_inputs = ParallelSimulator(netlist, cache=None).view.num_inputs
        rows = random_patterns(n_inputs, n_patterns, seed=seed)
        start = data.draw(st.integers(0, n_patterns - 1))
        stop = data.draw(st.integers(start + 1, min(n_patterns, start + 64)))
        packed = PackedPatterns(
            tuple(pack_patterns(rows, i) for i in range(n_inputs)), n_patterns
        )
        chunk = packed[start:stop]
        for kernel in KERNELS:
            simulator = ParallelSimulator(netlist, cache=None, kernel=kernel)
            assert simulator.good_words(chunk) == simulator.good_words(
                rows[start:stop]
            ), kernel


class TestPackRoundtrip:
    @settings(**SMALL)
    @given(
        seed=seeds,
        n_patterns=st.integers(1, 200),
        n_signals=st.integers(1, 16),
    )
    def test_pack_unpack_roundtrip(self, seed, n_patterns, n_signals):
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=(n_patterns, n_signals), dtype=np.uint8)
        packed = pack_bits(bits)
        assert packed.dtype == LANE_DTYPE
        assert packed.shape == (n_signals, lanes_for(n_patterns))
        assert np.array_equal(unpack_bits(packed, n_patterns), bits)
        # Zero-padding past n_patterns: the invariant by construction.
        mask = lane_mask(n_patterns)
        assert not np.any(packed & ~mask)

    @settings(**SMALL)
    @given(
        seed=seeds,
        n_patterns=st.integers(1, 200),
        n_bits=st.integers(1, 12),
    )
    def test_packed_rows_equal_bigint_pack(self, seed, n_patterns, n_bits):
        rng = random.Random(seed)
        patterns = [
            [rng.randint(0, 1) for _ in range(n_bits)]
            for _ in range(n_patterns)
        ]
        packed = pack_bits(npsim.as_bit_matrix(patterns))
        for bit in range(n_bits):
            assert words_to_int(packed[bit]) == pack_patterns(patterns, bit)

    @settings(**SMALL)
    @given(seed=seeds, n_patterns=st.integers(1, 300))
    def test_int_words_roundtrip(self, seed, n_patterns):
        rng = random.Random(seed)
        word = rng.getrandbits(n_patterns)
        row = int_to_words(word, lanes_for(n_patterns))
        assert words_to_int(row) == word


class TestMaskedWordsInvariant:
    @settings(**SMALL)
    @given(seed=seeds, n_patterns=st.integers(1, 130))
    def test_invariant_after_every_gate_op(self, seed, n_patterns):
        """Each gate word is written by exactly one compiled op, so a
        fully-masked word list proves the invariant op by op."""
        netlist = small_circuit(seed)
        patterns = random_patterns(len(netlist.inputs), n_patterns, seed=seed)
        kernel = ParallelSimulator(netlist, cache=None, kernel="numpy").np_kernel
        words = kernel.run_pass(kernel.pack_block(patterns), n_patterns)
        assert len(words) == len(netlist.gates)
        assert all(word >> n_patterns == 0 for word in words)

    @settings(**SMALL)
    @given(seed=seeds, n_patterns=st.integers(1, 130))
    def test_run_pass_masks_dirty_inputs(self, seed, n_patterns):
        """Garbage bits above ``n_patterns`` in the input rows must not
        leak into any gate value."""
        netlist = small_circuit(seed)
        patterns = random_patterns(len(netlist.inputs), n_patterns, seed=seed)
        kernel = ParallelSimulator(netlist, cache=None, kernel="numpy").np_kernel
        packed = kernel.pack_block(patterns)
        clean = kernel.run_pass(packed, n_patterns)
        dirty = packed | ~kernel.mask(n_patterns)
        words = kernel.run_pass(dirty, n_patterns)
        assert all(word >> n_patterns == 0 for word in words)
        assert words == clean
