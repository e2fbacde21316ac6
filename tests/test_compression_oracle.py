"""Independent oracles for the linear encoders and the compressed-ATPG flow.

The encoders (EDT's ring-generator decompressor and LFSR reseeding) are
held to three properties over random geometries:

* the concrete expansion equals the symbolic cell equations evaluated at the
  same variables (``dot_bits``), cell by cell;
* ``solve_cube`` reports a cube unencodable exactly when its care bits are
  inconsistent, judged by ``rank_of`` on the augmented rows — an elimination
  that shares no code with ``GF2System``;
* every solution it does return expands to a load honouring the cube.

The flow oracle re-grades ``run_compressed_atpg``'s applied patterns with
the serial (one fault, one pattern at a time) engine.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.circuit import generators
from repro.compression.decompressor import Decompressor, EdtConfig
from repro.compression.edt import EdtSystem
from repro.compression.flow import run_compressed_atpg
from repro.compression.gf2 import dot_bits, rank_of
from repro.compression.lfsr import PRIMITIVE_TAPS
from repro.compression.reseeding import ReseedingCompressor, ReseedingConfig
from repro.faults.collapse import collapse_faults
from repro.faults.stuck_at import full_fault_list
from repro.scan.insertion import insert_scan
from repro.sim.faultsim import FaultSimulator

SMALL_LENGTHS = sorted(length for length in PRIMITIVE_TAPS if length <= 12)

edt_configs = st.builds(
    EdtConfig,
    n_channels=st.integers(1, 8),
    n_chains=st.integers(1, 8),
    chain_length=st.integers(1, 8),
    generator_length=st.sampled_from(SMALL_LENGTHS),
    phase_taps=st.integers(1, 3),
    seed=st.integers(0, 3),
    warmup_cycles=st.integers(0, 4),
)

reseeding_configs = st.builds(
    ReseedingConfig,
    lfsr_length=st.sampled_from(SMALL_LENGTHS),
    n_chains=st.integers(1, 8),
    chain_length=st.integers(1, 8),
    phase_taps=st.integers(1, 3),
    seed=st.integers(0, 3),
)


def _random_cube(config, rng):
    cells = [
        (chain, position)
        for chain in range(config.n_chains)
        for position in range(config.chain_length)
    ]
    chosen = rng.sample(cells, rng.randint(0, len(cells)))
    return {cell: rng.randint(0, 1) for cell in chosen}


def _rows(encoder, care):
    """``(equation, value)`` per care bit, read off the cell equations."""
    equations = encoder.cell_equations()
    return [
        (equations[encoder.config.chain_length - 1 - position][chain], value)
        for (chain, position), value in care.items()
    ]


def _consistent(encoder, care) -> bool:
    rows = _rows(encoder, care)
    n_variables = encoder.config.variables_per_pattern
    augmented = [row | (value << n_variables) for row, value in rows]
    return rank_of(row for row, _ in rows) == rank_of(augmented)


def _check_expansion(encoder, variables, bits):
    """``expand(variables)`` equals the equations evaluated at ``bits``."""
    loads = encoder.expand(variables)
    for cycle, per_chain in enumerate(encoder.cell_equations()):
        position = encoder.config.chain_length - 1 - cycle
        for chain, equation in enumerate(per_chain):
            assert loads[chain][position] == dot_bits(equation, bits)


class TestEdtEncoder:
    @settings(max_examples=60, deadline=None)
    @given(config=edt_configs, seed=st.integers(0, 10**6))
    def test_expand_solve_verify(self, config, seed):
        try:
            decompressor = Decompressor(config)
        except ValueError:
            # The only geometry rejected: channels without an injector cell.
            assert config.n_channels > config.generator_length
            return
        rng = random.Random(seed)
        variables = [rng.randint(0, 1) for _ in range(config.variables_per_pattern)]
        _check_expansion(decompressor, variables, variables)

        for _ in range(4):
            care = _random_cube(config, rng)
            solution = decompressor.solve_cube(care)
            assert (solution is not None) == _consistent(decompressor, care)
            if solution is not None:
                assert decompressor.verify(care, solution)


class TestReseedingEncoder:
    @settings(max_examples=60, deadline=None)
    @given(config=reseeding_configs, seed=st.integers(0, 10**6))
    def test_expand_solve_verify(self, config, seed):
        compressor = ReseedingCompressor(config)
        length = config.lfsr_length
        rng = random.Random(seed)
        lfsr_seed = rng.randrange(1, 1 << length)
        bits = [(lfsr_seed >> bit) & 1 for bit in range(length)]
        _check_expansion(compressor, lfsr_seed, bits)

        for _ in range(4):
            care = _random_cube(config, rng)
            solution = compressor.solve_cube(care)
            # A full-rank system whose care bits are all 0 has only the
            # all-zero solution, which is no LFSR seed.
            zero_only = all(value == 0 for value in care.values()) and (
                rank_of(row for row, _ in _rows(compressor, care)) == length
            )
            encodable = _consistent(compressor, care) and not zero_only
            assert (solution is not None) == encodable
            if solution is not None:
                assert 0 < solution < 1 << length
                assert compressor.verify(care, solution)


class TestCompressedFlowOracle:
    def test_graded_coverage_matches_serial_regrade(self):
        # One input channel: some cubes exceed its capacity, so the applied
        # set mixes encoded and bypass patterns.
        netlist = generators.random_sequential(6, 60, 16, seed=3)
        design = insert_scan(netlist, n_chains=2)
        edt = EdtSystem(design, n_input_channels=1, n_output_channels=2)
        flow = run_compressed_atpg(
            edt, random_pattern_budget=32, seed=2, grade=True
        )
        assert flow.encoded and flow.bypass_patterns
        assert not flow.consistency_errors
        faults, _ = collapse_faults(design.netlist, full_fault_list(design.netlist))
        serial = FaultSimulator(design.netlist).simulate(
            flow.applied_patterns, faults, engine="serial"
        )
        assert flow.graded_coverage == serial.coverage
        assert serial.total_faults == flow.total_faults
