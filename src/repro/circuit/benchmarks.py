"""Built-in benchmark circuits.

Two classic ISCAS circuits are embedded verbatim (``c17`` from ISCAS-85 and
``s27`` from ISCAS-89) and the rest of the suite is generated on demand by
:mod:`repro.circuit.generators`.  :func:`get_benchmark` is the single entry
point the tests, examples, and benchmark harnesses use.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List, Optional

from . import generators
from .bench import parse_bench
from .netlist import Netlist

C17_BENCH = """\
# c17 — ISCAS-85 smallest benchmark
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
"""

S27_BENCH = """\
# s27 — ISCAS-89 smallest sequential benchmark
INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G17)
G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)
G14 = NOT(G0)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NOR(G2, G12)
G17 = NOT(G11)
"""


def c17() -> Netlist:
    """The 6-gate ISCAS-85 ``c17`` benchmark."""
    return parse_bench(C17_BENCH, name="c17")


def s27() -> Netlist:
    """The 3-flop ISCAS-89 ``s27`` benchmark."""
    return parse_bench(S27_BENCH, name="s27")


_REGISTRY: Dict[str, Callable[[], Netlist]] = {
    "c17": c17,
    "s27": s27,
    "add8": lambda: generators.adder(8),
    "add16": lambda: generators.adder(16),
    "mul4": lambda: generators.multiplier(4),
    "mul8": lambda: generators.multiplier(8),
    "alu4": lambda: generators.alu(4),
    "alu8": lambda: generators.alu(8),
    "mac4": lambda: generators.mac_unit(4),
    "mac8": lambda: generators.mac_unit(8),
    "pe4": lambda: generators.systolic_pe(4),
    "par16": lambda: generators.parity_tree(16),
    "cmp16": lambda: generators.wide_comparator(16),
    "rres12": lambda: generators.random_resistant(12, cones=4),
    "rand200": lambda: generators.random_circuit(16, 200, seed=7),
    "rand500": lambda: generators.random_circuit(24, 500, seed=11),
    "rand1k": lambda: generators.random_circuit(32, 1000, seed=13),
    "seq300": lambda: generators.random_sequential(12, 300, 24, seed=3),
}


def benchmark_names() -> List[str]:
    """All registered benchmark circuit names."""
    return sorted(_REGISTRY)


#: ``<base>_x<N>`` names replicate a registered benchmark N times (the
#: multi-core accelerator view, e.g. ``mac4_x32`` = 32 mac4 cores).
_REPLICATED = re.compile(r"^(?P<base>[A-Za-z0-9]+)_x(?P<copies>\d+)$")


def replicate_netlist(core: Netlist, n_copies: int, name: Optional[str] = None) -> Netlist:
    """N structurally independent copies of ``core`` in one netlist.

    The flat view of a multi-core chip, which hierarchical DFT is measured
    against: one netlist holding N copies of the core, handed to ATPG
    whole.  Gate ``g`` of copy ``k`` is named ``core{k}/{g.name}``.  Ports
    are per-copy (the chip pins a flat ATPG run would see through scan).
    """
    if n_copies < 1:
        raise ValueError(f"need at least one copy of {core.name}, got {n_copies}")
    core.finalize()
    chip = Netlist(name or f"{core.name}_x{n_copies}")
    for copy in range(n_copies):
        offset = len(chip.gates)
        for gate in core.gates:
            chip.add(
                gate.type,
                f"core{copy}/{gate.name}",
                [driver + offset for driver in gate.fanin],
            )
    chip.finalize()
    return chip


def get_benchmark(name: str) -> Netlist:
    """Build the named benchmark circuit (a fresh instance every call).

    Besides the registered names, ``<base>_x<N>`` (e.g. ``mac4_x32``)
    replicates benchmark ``<base>`` into an ``N``-core flat netlist via
    :func:`replicate_netlist`.
    """
    factory = _REGISTRY.get(name)
    if factory is None:
        match = _REPLICATED.match(name)
        if match and match.group("base") in _REGISTRY:
            return replicate_netlist(
                _REGISTRY[match.group("base")](), int(match.group("copies"))
            )
        raise KeyError(
            f"unknown benchmark {name!r}; available: {benchmark_names()} "
            f"(or any '<name>_xN' replication, e.g. 'mac4_x32')"
        )
    return factory()
