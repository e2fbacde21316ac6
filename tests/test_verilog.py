"""Structural Verilog parsing and writing."""

import pytest

from repro.circuit import benchmarks, generators
from repro.circuit.gates import GateType
from repro.circuit.verilog import (
    VerilogFormatError,
    parse_verilog,
    sanitize_net_name,
    write_verilog,
)
from repro.sim.logicsim import LogicSimulator

SIMPLE = """
// a trivial module
module half_adder (a, b, s, c);
  input a, b;
  output s, c;
  xor g1 (s, a, b);
  and g2 (c, a, b);
endmodule
"""


class TestParse:
    def test_simple_module(self):
        netlist = parse_verilog(SIMPLE)
        assert netlist.name == "half_adder"
        stats = netlist.stats()
        assert stats["inputs"] == 2
        assert stats["outputs"] == 2
        assert stats["gates"] == 2

    def test_function(self):
        netlist = parse_verilog(SIMPLE)
        sim = LogicSimulator(netlist)
        for a in (0, 1):
            for b in (0, 1):
                assert sim.response([a, b]) == [a ^ b, a & b]

    def test_comments_stripped(self):
        text = SIMPLE.replace("xor g1", "/* block */ xor g1")
        netlist = parse_verilog(text)
        assert netlist.stats()["gates"] == 2

    def test_dff_primitive(self):
        text = """
        module seq (d, q);
          input d;
          output q;
          dff ff (q, d);
        endmodule
        """
        netlist = parse_verilog(text)
        assert len(netlist.flops) == 1

    def test_flop_feedback_forward_reference(self):
        text = """
        module toggle (q);
          output q;
          wire nq;
          dff ff (q, nq);
          not g (nq, q);
        endmodule
        """
        netlist = parse_verilog(text)
        netlist.finalize()
        assert len(netlist.flops) == 1

    def test_constants(self):
        text = """
        module k (y);
          output y;
          buf g (y, 1'b1);
        endmodule
        """
        netlist = parse_verilog(text)
        sim = LogicSimulator(netlist)
        assert sim.response([]) == [1]

    def test_errors(self):
        with pytest.raises(VerilogFormatError, match="no module"):
            parse_verilog("wire x;")
        with pytest.raises(VerilogFormatError, match="unknown primitive"):
            parse_verilog("module m (y); output y; frob g (y, y); endmodule")
        with pytest.raises(VerilogFormatError, match="driven twice"):
            parse_verilog(
                "module m (a, y); input a; output y;\n"
                "buf g1 (y, a); buf g2 (y, a); endmodule"
            )
        with pytest.raises(VerilogFormatError, match="never driven"):
            parse_verilog("module m (a, y); input a; output y; endmodule")
        with pytest.raises(VerilogFormatError, match="vector"):
            parse_verilog(
                "module m (a, y); input [3:0] a; output y; "
                "buf g (y, a); endmodule"
            )


class TestWriteRoundTrip:
    @pytest.mark.parametrize("name", ["c17", "add8", "alu4", "mac4", "pe4"])
    def test_function_preserved(self, name):
        import random

        original = benchmarks.get_benchmark(name)
        text = write_verilog(original)
        rebuilt = parse_verilog(text)
        sim_a = LogicSimulator(original)
        sim_b = LogicSimulator(rebuilt)
        rng = random.Random(1)
        width = sim_a.view.num_inputs
        assert sim_b.view.num_inputs == width
        for _ in range(12):
            pattern = [rng.randint(0, 1) for _ in range(width)]
            assert sim_a.response(pattern) == sim_b.response(pattern)

    def test_scan_design_serializes(self, mac4):
        from repro.scan.insertion import insert_scan

        design = insert_scan(mac4, n_chains=2)
        text = write_verilog(design.netlist)
        rebuilt = parse_verilog(text)
        # SDFFs degrade to plain dffs of the functional D pin.
        assert len(rebuilt.flops) == len(design.netlist.flops)

    def test_sanitize(self):
        assert sanitize_net_name("a[3]") == "a_3_"
        assert sanitize_net_name("core0/ff.q") == "core0_ff_q"
