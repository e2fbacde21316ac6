"""End-to-end EDT compression over a scan design."""

import pytest

from repro.atpg.engine import run_atpg
from repro.circuit import generators
from repro.circuit.values import X
from repro.compression.edt import EdtSystem
from repro.faults.collapse import collapse_faults
from repro.faults.stuck_at import full_fault_list
from repro.scan.insertion import insert_scan, partition_faults
from repro.sim.faultsim import FaultSimulator


@pytest.fixture(scope="module")
def edt_setup():
    """Scan design + deterministic cubes + EDT system (module-scoped: slow)."""
    netlist = generators.random_sequential(8, 150, 32, seed=6)
    design = insert_scan(netlist, n_chains=8)
    faults, _ = collapse_faults(design.netlist, full_fault_list(design.netlist))
    capture, _ = partition_faults(design, faults)
    atpg = run_atpg(design.netlist, faults=capture, random_batches=0, seed=1)
    edt = EdtSystem(design, n_input_channels=2, n_output_channels=2)
    return design, capture, atpg, edt


def _expanded(edt, cubes):
    """The full-scan-view pattern each encodable cube expands to."""
    patterns = []
    for cube in cubes:
        pi_part, care = edt.cube_to_care_bits(cube)
        variables = edt.decompressor.solve_cube(care)
        if variables is not None:
            pi_bits = [0 if v == X else v for v in pi_part]
            patterns.append(edt.encoded_pattern(variables, pi_bits).pattern)
    return patterns


class TestEncoding:
    def test_most_cubes_encode(self, edt_setup):
        design, capture, atpg, edt = edt_setup
        assert len(_expanded(edt, atpg.cubes)) > 0.85 * len(atpg.cubes)

    def test_expanded_patterns_preserve_targeted_coverage(self, edt_setup):
        """Decompressed patterns must detect what their cubes promised."""
        design, capture, atpg, edt = edt_setup
        expanded = _expanded(edt, atpg.cubes)
        simulator = FaultSimulator(design.netlist)
        baseline = simulator.simulate(atpg.patterns, capture, drop=True)
        compressed = simulator.simulate(expanded, capture, drop=True)
        # The compressed set covers nearly everything the cube set did
        # (unencodable cubes fall back to bypass in a real flow).
        assert len(compressed.detected) >= 0.85 * len(baseline.detected)

    def test_cube_coordinates_roundtrip(self, edt_setup):
        design, capture, atpg, edt = edt_setup
        cube = atpg.cubes[0]
        pi_part, care = edt.cube_to_care_bits(cube)
        n_pi = len(design.netlist.inputs)
        specified_flops = sum(1 for v in cube[n_pi:] if v != X)
        assert len(care) == specified_flops


class TestCostModel:
    def test_compression_wins(self, edt_setup):
        design, capture, atpg, edt = edt_setup
        row = edt.cost_versus_bypass(len(atpg.patterns))
        assert row["data_volume_x"] > 1.0
        assert row["test_time_x"] > 1.0
