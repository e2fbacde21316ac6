"""Generated circuits must compute what they claim."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.circuit import generators
from repro.circuit.benchmarks import benchmark_names, get_benchmark
from repro.sim.logicsim import LogicSimulator


def _bits(value, width):
    return [(value >> i) & 1 for i in range(width)]


def _to_int(bits):
    return sum(bit << i for i, bit in enumerate(bits))


class TestCombinationalGenerators:
    @settings(max_examples=25, deadline=None)
    @given(a=st.integers(0, 255), b=st.integers(0, 255))
    def test_adder(self, a, b):
        netlist = generators.adder(8)
        sim = LogicSimulator(netlist)
        out = sim.response(_bits(a, 8) + _bits(b, 8))
        assert _to_int(out[:8]) == (a + b) & 0xFF

    @settings(max_examples=25, deadline=None)
    @given(a=st.integers(0, 15), b=st.integers(0, 15))
    def test_multiplier(self, a, b):
        netlist = generators.multiplier(4)
        sim = LogicSimulator(netlist)
        out = sim.response(_bits(a, 4) + _bits(b, 4))
        assert _to_int(out) == a * b

    @settings(max_examples=25, deadline=None)
    @given(a=st.integers(0, 15), b=st.integers(0, 15), op=st.integers(0, 3))
    def test_alu_ops(self, a, b, op):
        netlist = generators.alu(4)
        sim = LogicSimulator(netlist)
        pattern = _bits(a, 4) + _bits(b, 4) + [op & 1, op >> 1]
        out = sim.response(pattern)
        result = _to_int(out[:4])
        expected = [(a + b) & 0xF, a & b, a | b, a ^ b][op]
        assert result == expected

    @settings(max_examples=20, deadline=None)
    @given(value=st.integers(0, 2**16 - 1))
    def test_parity_tree(self, value):
        netlist = generators.parity_tree(16)
        sim = LogicSimulator(netlist)
        out = sim.response(_bits(value, 16))
        assert out[0] == bin(value).count("1") % 2

    def test_wide_comparator_hits_only_constant(self):
        netlist = generators.wide_comparator(10)
        constant = random.Random(10).getrandbits(10)
        sim = LogicSimulator(netlist)
        assert sim.response(_bits(constant, 10)) == [1]
        assert sim.response(_bits(constant ^ 1, 10)) == [0]

    def test_chain_of_inverters(self):
        even = generators.chain_of_inverters(4)
        odd = generators.chain_of_inverters(5)
        assert LogicSimulator(even).response([1]) == [1]
        assert LogicSimulator(odd).response([1]) == [0]


class TestSequentialGenerators:
    def test_mac_accumulates(self):
        netlist = generators.mac_unit(4)
        sim = LogicSimulator(netlist)
        state = sim.initial_state(0)
        acc = 0
        rng = random.Random(1)
        for _ in range(6):
            a, b = rng.randrange(16), rng.randrange(16)
            step = sim.step(_bits(a, 4) + _bits(b, 4), state)
            state = step["state"]
            acc = (acc + a * b) % (1 << 12)
            observed = _to_int(
                [v for v in sim.step([0] * 8, state)["outputs"]]
            )
            # acc_out reads the registered accumulator after the update.
            assert _to_int(step["state"]) == acc

    def test_systolic_pe_mac_behaviour(self):
        netlist = generators.systolic_pe(4)
        sim = LogicSimulator(netlist)
        n_pi = len(netlist.inputs)
        names = sim.view.input_names()[:n_pi]

        def pattern(a, w, psum, load):
            values = []
            for name in names:
                if name.startswith("a_in"):
                    values.append((a >> int(name[5:-1])) & 1)
                elif name.startswith("w_in"):
                    values.append((w >> int(name[5:-1])) & 1)
                elif name.startswith("psum_in"):
                    values.append((psum >> int(name[8:-1])) & 1)
                else:  # load_w
                    values.append(load)
            return values

        state = sim.initial_state(0)
        # Cycle 1: load weight 5.
        step = sim.step(pattern(0, 5, 0, 1), state)
        state = step["state"]
        # Cycle 2: stream activation 7, psum_in 3 -> psum register = 3 + 5*7.
        step = sim.step(pattern(7, 0, 3, 0), state)
        psum_positions = [
            i for i, ff in enumerate(netlist.flops)
            if netlist.gates[ff].name.startswith("ps_reg")
        ]
        psum = _to_int([step["state"][i] for i in psum_positions])
        assert psum == 3 + 5 * 7

    def test_random_sequential_has_feedback(self):
        netlist = generators.random_sequential(6, 80, 10, seed=2)
        assert len(netlist.flops) == 10
        netlist.finalize()  # no combinational cycles


class TestRandomCircuits:
    def test_deterministic_by_seed(self):
        a = generators.random_circuit(8, 50, seed=3)
        b = generators.random_circuit(8, 50, seed=3)
        assert [g.type for g in a.gates] == [g.type for g in b.gates]

    def test_different_seeds_differ(self):
        a = generators.random_circuit(8, 50, seed=3)
        b = generators.random_circuit(8, 50, seed=4)
        assert [g.type for g in a.gates] != [g.type for g in b.gates]

    def test_requested_outputs(self):
        netlist = generators.random_circuit(8, 60, n_outputs=5, seed=1)
        assert len(netlist.outputs) == 5

    def test_every_gate_observable_by_default(self):
        netlist = generators.random_circuit(8, 40, seed=2)
        netlist.finalize()
        dangling = [
            g for g in netlist.gates
            if not g.fanout and g.type.value not in ("output",)
        ]
        assert dangling == []


class TestBenchmarkRegistry:
    def test_all_benchmarks_build(self):
        for name in benchmark_names():
            netlist = get_benchmark(name)
            netlist.finalize()
            assert netlist.stats()["gates"] > 0

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_benchmark("nope")

    def test_replicated_name_needs_a_copy(self):
        with pytest.raises(ValueError, match="at least one copy"):
            get_benchmark("mac4_x0")

    def test_replicated_benchmark_stays_in_the_substrate(self):
        """Building ``<base>_xN`` loads neither the DFT layer nor numpy."""
        script = (
            "import sys\n"
            "from repro.circuit.benchmarks import get_benchmark\n"
            "assert get_benchmark('mac4_x4').num_gates > 0\n"
            "print(sorted(name for name in ('numpy', 'repro.dft', 'repro.aichip')"
            " if name in sys.modules))\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        run = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert run.stdout.strip() == "[]"

    def test_fresh_instances(self):
        a = get_benchmark("c17")
        b = get_benchmark("c17")
        assert a is not b
