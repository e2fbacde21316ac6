"""Event-level and sequential logic simulation."""

import pytest

from repro.circuit import benchmarks, generators
from repro.circuit.builder import NetlistBuilder
from repro.circuit.values import ONE, X, ZERO
from repro.sim.logicsim import LogicSimulator


class TestCombinational:
    def test_c17_known_vector(self, c17):
        sim = LogicSimulator(c17)
        # All-ones input: 22 = NAND(10,16); trace by hand gives (0, 1).
        response = sim.response([1, 1, 1, 1, 1])
        assert set(response) <= {0, 1}
        assert len(response) == 2

    def test_x_propagation_blocked_by_controlling(self, c17):
        sim = LogicSimulator(c17)
        # NAND with a 0 input yields 1 even when the other is X.
        builder = NetlistBuilder()
        a, b = builder.input("a"), builder.input("b")
        builder.output("y", builder.nand(a, b))
        netlist = builder.build()
        s = LogicSimulator(netlist)
        assert s.response([ZERO, X]) == [ONE]
        assert s.response([ONE, X]) == [X]

    def test_pattern_length_checked(self, c17):
        sim = LogicSimulator(c17)
        with pytest.raises(ValueError):
            sim.response([0, 1])

    def test_evaluate_returns_all_gates(self, c17):
        sim = LogicSimulator(c17)
        values = sim.evaluate([0, 0, 0, 0, 0])
        assert len(values) == len(c17.gates)


class TestSequential:
    def test_step_state_sizes_checked(self, s27):
        sim = LogicSimulator(s27)
        with pytest.raises(ValueError):
            sim.step([0, 0, 0, 0], [0])
        with pytest.raises(ValueError):
            sim.step([0], [0, 0, 0])

    def test_counter_like_behaviour(self):
        # 1-bit toggle: ff.D = NOT(ff) toggles every cycle.
        builder = NetlistBuilder("toggle")
        zero = builder.const0()
        flop = builder.dff(zero, name="ff")
        inv = builder.not_(flop)
        builder.netlist.gates[flop].fanin[0] = inv
        builder.output("q", flop)
        netlist = builder.netlist
        netlist.invalidate()
        netlist.finalize()
        sim = LogicSimulator(netlist)
        state = [0]
        trace = []
        for _ in range(4):
            result = sim.step([], state)
            trace.append(result["outputs"][0])
            state = result["state"]
        assert trace == [0, 1, 0, 1]

    def test_scan_shift_uses_si_pin(self):
        from repro.circuit.gates import GateType

        builder = NetlistBuilder("scan1")
        d = builder.input("d")
        si = builder.input("si")
        se = builder.input("se")
        flop = builder.sdff(d, si, se, name="ff")
        builder.output("q", flop)
        netlist = builder.build()
        sim = LogicSimulator(netlist)
        # scan_shift=True captures SI; False captures D.
        shifted = sim.step([0, 1, 1], [0], scan_shift=True)
        captured = sim.step([1, 0, 0], [0], scan_shift=False)
        assert shifted["state"] == [1]
        assert captured["state"] == [1]

    def test_s27_deterministic_from_reset(self, s27):
        sim = LogicSimulator(s27)
        state = [0, 0, 0]
        for vector in ([0, 1, 0, 1], [1, 0, 1, 0], [1, 1, 1, 1]):
            result = sim.step(vector, state)
            state = result["state"]
            assert all(value in (0, 1) for value in result["outputs"])
