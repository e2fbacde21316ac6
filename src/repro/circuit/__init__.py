"""Gate-level circuit substrate: values, gates, netlists, generators, I/O."""

from .builder import NetlistBuilder
from .bench import load_bench, parse_bench, save_bench, write_bench
from .gates import GateType
from .verilog import load_verilog, parse_verilog, save_verilog, write_verilog
from .netlist import Gate, Netlist, NetlistError
from .values import ONE, X, Z, ZERO

__all__ = [
    "NetlistBuilder",
    "GateType",
    "Gate",
    "Netlist",
    "NetlistError",
    "parse_bench",
    "write_bench",
    "load_bench",
    "save_bench",
    "parse_verilog",
    "write_verilog",
    "load_verilog",
    "save_verilog",
    "ZERO",
    "ONE",
    "X",
    "Z",
]
