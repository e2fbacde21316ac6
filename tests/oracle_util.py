"""Exhaustive ground-truth oracle + hypothesis netlist strategies.

For any full-scan view with ≤ 16 inputs the complete input space is
simulable in one packed pass (2**16 patterns), which yields *ground
truth*: a fault no exhaustive pattern set detects is untestable, full
stop.  The ATPG oracle tests use this to audit every engine verdict —
in particular every ``proved_untestable`` claim the D-algorithm and the
portfolio make.

The hypothesis strategies here generate small structurally diverse
netlists two ways: seeded draws through the repo's own
``generators.random_circuit`` (wide gate-type mix, guaranteed
observability wiring), and raw ``NetlistBuilder`` compositions that
include muxes, dangling cones and redundant logic the curated
generators avoid — exactly the shapes that breed untestable faults.
"""

from typing import Sequence, Set, Tuple

from hypothesis import strategies as st

from repro.atpg.random_gen import exhaustive_patterns
from repro.circuit.builder import NetlistBuilder
from repro.circuit.netlist import Netlist
from repro.faults.model import StuckAtFault
from repro.sim.faultsim import FaultSimulator

#: 2**16 packed patterns is the practical exhaustion ceiling for a test.
MAX_ORACLE_INPUTS = 16


def exhaustive_truth(
    netlist: Netlist, faults: Sequence[StuckAtFault]
) -> Tuple[Set[StuckAtFault], Set[StuckAtFault]]:
    """(truly testable, truly untestable) by complete input enumeration."""
    simulator = FaultSimulator(netlist, cache=None)
    n_inputs = simulator.view.num_inputs
    if n_inputs > MAX_ORACLE_INPUTS:
        raise ValueError(
            f"{netlist.name}: {n_inputs} inputs exceeds the exhaustive "
            f"oracle ceiling of {MAX_ORACLE_INPUTS}"
        )
    result = simulator.simulate(
        exhaustive_patterns(n_inputs), list(faults), drop=True
    )
    return set(result.detected), set(result.undetected)


@st.composite
def built_netlists(draw) -> Netlist:
    """Small raw-builder circuits: mixed ops, muxes, fanout reuse, and a
    deliberately partial output set so redundant cones are common."""
    builder = NetlistBuilder()
    n_inputs = draw(st.integers(min_value=2, max_value=6))
    lines = [builder.input(f"i{k}") for k in range(n_inputs)]
    n_gates = draw(st.integers(min_value=3, max_value=22))
    for _ in range(n_gates):
        op = draw(st.integers(min_value=0, max_value=8))
        pick = st.integers(min_value=0, max_value=len(lines) - 1)
        a = lines[draw(pick)]
        b = lines[draw(pick)]
        if op == 0:
            line = builder.and_(a, b)
        elif op == 1:
            line = builder.or_(a, b)
        elif op == 2:
            line = builder.nand(a, b)
        elif op == 3:
            line = builder.nor(a, b)
        elif op == 4:
            line = builder.xor(a, b)
        elif op == 5:
            line = builder.xnor(a, b)
        elif op == 6:
            line = builder.not_(a)
        elif op == 7:
            line = builder.buf(a)
        else:
            sel = lines[draw(pick)]
            line = builder.mux(sel, a, b)
        lines.append(line)
    # Observe the last line always, earlier lines only sometimes: gates
    # outside every observed cone become provably untestable faults.
    builder.output("y0", lines[-1])
    n_extra = draw(st.integers(min_value=0, max_value=2))
    for k in range(n_extra):
        builder.output(f"y{k + 1}", lines[draw(st.integers(0, len(lines) - 1))])
    return builder.build()


def generated_netlists(max_inputs=8, max_gates=40):
    """Seeded draws through the repo's random circuit generator."""
    from repro.circuit import generators

    return st.builds(
        lambda n_inputs, n_gates, seed: generators.random_circuit(
            n_inputs, n_gates, seed=seed
        ),
        n_inputs=st.integers(min_value=3, max_value=max_inputs),
        n_gates=st.integers(min_value=8, max_value=max_gates),
        seed=st.integers(min_value=0, max_value=10**6),
    )


def sequential_netlists(max_inputs=5, max_gates=30, max_flops=4):
    """Random logic behind a register ring: flop D pins are readers too."""
    from repro.circuit import generators

    return st.builds(
        lambda n_inputs, n_gates, n_flops, seed: generators.random_sequential(
            n_inputs, n_gates, n_flops, seed=seed
        ),
        n_inputs=st.integers(min_value=2, max_value=max_inputs),
        n_gates=st.integers(min_value=8, max_value=max_gates),
        n_flops=st.integers(min_value=1, max_value=max_flops),
        seed=st.integers(min_value=0, max_value=10**6),
    )


def small_netlists():
    """The union strategy the oracle tests draw from."""
    return st.one_of(built_netlists(), generated_netlists())
