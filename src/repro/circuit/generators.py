"""Parametric netlist generators.

These produce the gate-level workloads the experiments run on: datapath
blocks (adders, multipliers, MACs), the systolic processing element used by
the AI-core case studies, random synthetic logic, and deliberately
random-pattern-resistant structures for the LBIST/test-point experiments.

All generators return finalized :class:`~repro.circuit.netlist.Netlist`
objects; buses are LSB-first.
"""

from __future__ import annotations

import random
from typing import List, Optional

from .builder import NetlistBuilder
from .gates import GateType
from .netlist import Netlist


def adder(width: int, name: Optional[str] = None) -> Netlist:
    """Ripple-carry adder: ``sum = a + b`` with carry out."""
    builder = NetlistBuilder(name or f"add{width}")
    a = builder.input_bus("a", width)
    b = builder.input_bus("b", width)
    total, carry = builder.ripple_adder(a, b)
    builder.output_bus("sum", total)
    builder.output("cout", carry)
    return builder.build()


def multiplier(width: int, name: Optional[str] = None) -> Netlist:
    """Unsigned array multiplier: ``p = a * b`` (2*width product)."""
    builder = NetlistBuilder(name or f"mul{width}")
    a = builder.input_bus("a", width)
    b = builder.input_bus("b", width)
    product = builder.array_multiplier(a, b)
    builder.output_bus("p", product)
    return builder.build()


def mac_unit(width: int, name: Optional[str] = None) -> Netlist:
    """Multiply-accumulate unit: ``acc' = acc + a * b`` (sequential).

    The accumulator is a register bank of ``2 * width + 4`` DFFs; this is
    the canonical AI-chip datapath cell the tutorial's case studies revolve
    around.
    """
    acc_width = 2 * width + 4
    builder = NetlistBuilder(name or f"mac{width}")
    a = builder.input_bus("a", width)
    b = builder.input_bus("b", width)
    product = builder.array_multiplier(a, b)
    zero = builder.const0()
    product = (product + [zero] * acc_width)[:acc_width]

    # Registers are declared after their next-state logic; build feedback by
    # creating placeholder buffers is unnecessary because Netlist.add demands
    # defined fanins — instead declare flops last, reading adder outputs that
    # reference the *previous* flop values through the builder's two-phase
    # trick: create flop output proxies as inputs is wrong for DFT, so we
    # build the adder on flop gates created with a forward-less scheme:
    # first create flops fed by a temporary const, then rewire.  The netlist
    # API is append-only, so we use the standard trick: compute next-state
    # from flop *outputs*, which requires flops to exist first.  Flops need a
    # fanin at creation; we bootstrap with const0 and patch the D pin below.
    acc_flops = [builder.dff(zero, name=f"acc{i}") for i in range(acc_width)]
    total, _ = builder.ripple_adder(acc_flops, product)
    for flop_index, next_state in zip(acc_flops, total):
        builder.netlist.gates[flop_index].fanin[0] = next_state
    builder.output_bus("acc_out", acc_flops)
    netlist = builder.netlist
    netlist.invalidate()
    netlist.finalize()
    return netlist


def systolic_pe(width: int = 4, name: Optional[str] = None) -> Netlist:
    """Weight-stationary systolic processing element.

    Ports::

        a_in[width]      activation entering from the west
        w_in[width]      weight value (loaded when load_w=1)
        psum_in[2w+4]    partial sum entering from the north
        load_w           weight-load enable
        a_out[width]     registered activation forwarded east
        psum_out[2w+4]   registered psum_in + w * a_in forwarded south

    This is the gate-level PE replicated across the accelerator's systolic
    array; the hierarchical-DFT experiments wrap and broadcast-test it.
    """
    psum_width = 2 * width + 4
    builder = NetlistBuilder(name or f"pe{width}")
    a_in = builder.input_bus("a_in", width)
    w_in = builder.input_bus("w_in", width)
    psum_in = builder.input_bus("psum_in", psum_width)
    load_w = builder.input("load_w")
    zero = builder.const0()

    # Weight register with load enable (w' = load_w ? w_in : w).
    weight = [builder.dff(zero, name=f"w{i}") for i in range(width)]
    for index, (flop, new_bit) in enumerate(zip(weight, w_in)):
        hold = builder.mux(load_w, weight[index], new_bit)
        builder.netlist.gates[flop].fanin[0] = hold

    product = builder.array_multiplier(a_in, weight)
    product = (product + [zero] * psum_width)[:psum_width]
    total, _ = builder.ripple_adder(psum_in, product)

    a_reg = [builder.dff(bit, name=f"a_reg{i}") for i, bit in enumerate(a_in)]
    psum_reg = [builder.dff(bit, name=f"ps_reg{i}") for i, bit in enumerate(total)]
    builder.output_bus("a_out", a_reg)
    builder.output_bus("psum_out", psum_reg)
    netlist = builder.netlist
    netlist.invalidate()
    netlist.finalize()
    return netlist


def alu(width: int, name: Optional[str] = None) -> Netlist:
    """Small ALU: op ``00``=ADD ``01``=AND ``10``=OR ``11``=XOR."""
    builder = NetlistBuilder(name or f"alu{width}")
    a = builder.input_bus("a", width)
    b = builder.input_bus("b", width)
    op0 = builder.input("op0")
    op1 = builder.input("op1")
    add_bus, carry = builder.ripple_adder(a, b)
    and_bus = [builder.and_(x, y) for x, y in zip(a, b)]
    or_bus = [builder.or_(x, y) for x, y in zip(a, b)]
    xor_bus = [builder.xor(x, y) for x, y in zip(a, b)]
    low = builder.mux_bus(op0, add_bus, and_bus)
    high = builder.mux_bus(op0, or_bus, xor_bus)
    result = builder.mux_bus(op1, low, high)
    builder.output_bus("y", result)
    builder.output("cout", carry)
    return builder.build()


def parity_tree(width: int, name: Optional[str] = None) -> Netlist:
    """Balanced XOR tree computing the parity of ``width`` inputs."""
    builder = NetlistBuilder(name or f"par{width}")
    level = builder.input_bus("d", width)
    while len(level) > 1:
        nxt: List[int] = []
        for i in range(0, len(level) - 1, 2):
            nxt.append(builder.xor(level[i], level[i + 1]))
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    builder.output("parity", level[0])
    return builder.build()


def wide_comparator(width: int, name: Optional[str] = None) -> Netlist:
    """Equality comparator against a constant — a random-resistant circuit.

    Detecting a stuck-at-0 on the wide AND output requires the single input
    combination equal to the constant, ``random.Random(width)``'s first
    ``width`` bits (probability ``2**-width`` per random pattern), making
    this the classic motivation for LBIST test points.
    """
    constant = random.Random(width).getrandbits(width)
    builder = NetlistBuilder(name or f"cmp{width}")
    bus = builder.input_bus("a", width)
    hit = builder.equals_const(bus, constant)
    builder.output("eq", hit)
    return builder.build()


def random_resistant(width: int = 12, cones: int = 4, name: Optional[str] = None) -> Netlist:
    """Mostly easy random logic plus a few wide-AND detection cones.

    This is the realistic LBIST situation: the bulk of the circuit reaches
    high pseudo-random coverage quickly, while a handful of wide comparator
    cones (address decoders, tag matches) saturate the curve below target —
    exactly where test-point insertion earns its keep (E6).
    """
    rng = random.Random(width * 1000 + cones)
    builder = NetlistBuilder(name or f"rres{width}x{cones}")
    bus = builder.input_bus("a", width)

    # Easy bulk: a few layers of random 2-input logic over the inputs, with
    # every dangling signal observable (constant-valued draws rejected).
    from .gates import evaluate_parallel

    word_mask = (1 << 64) - 1
    words = {s: rng.getrandbits(64) for s in bus}
    signals = list(bus)
    consumed = set()
    for _ in range(width * 6):
        for _attempt in range(8):
            gate_type = rng.choice(
                (GateType.AND, GateType.OR, GateType.NAND, GateType.NOR, GateType.XOR)
            )
            fanin = rng.sample(signals[-16:], 2)
            word = evaluate_parallel(gate_type, [words[f] for f in fanin], word_mask)
            if 2 <= bin(word).count("1") <= 62:
                break
        new = builder._gate(gate_type, fanin, None)
        words[new] = word
        consumed.update(fanin)
        signals.append(new)
    dangling = [s for s in signals[width:] if s not in consumed]
    for position, signal in enumerate(dangling):
        builder.output(f"easy{position}", signal)

    # Resistant cones: detecting faults inside needs one exact input match.
    hits = []
    for cone in range(cones):
        constant = rng.getrandbits(width)
        hits.append(builder.equals_const(bus, constant))
    acc = hits[0]
    for other in hits[1:]:
        acc = builder.xor(acc, other)
    builder.output("hit", acc)
    return builder.build()


_RANDOM_GATE_TYPES = (
    GateType.AND,
    GateType.NAND,
    GateType.OR,
    GateType.NOR,
    GateType.XOR,
    GateType.XNOR,
    GateType.NOT,
)


def random_circuit(
    n_inputs: int,
    n_gates: int,
    n_outputs: Optional[int] = None,
    seed: int = 0,
    max_fanin: int = 3,
    locality: int = 24,
) -> Netlist:
    """Random levelized combinational logic.

    Gates draw fanins preferentially from recently created signals
    (``locality`` controls the window), which produces ISCAS-like depth
    rather than a flat two-level soup.  Dangling signals are collected into
    the outputs so every gate is observable.
    """
    from .gates import evaluate_parallel

    rng = random.Random(seed)
    builder = NetlistBuilder(f"rand{n_inputs}x{n_gates}s{seed}")
    signals = [builder.input(f"pi{i}") for i in range(n_inputs)]
    # Track each signal's response to 64 random patterns; gates that come
    # out (nearly) constant are rejected and re-drawn, which keeps the
    # redundant-fault population realistic instead of XOR-reconvergence soup.
    word_mask = (1 << 64) - 1
    words = {s: rng.getrandbits(64) for s in signals}
    weights = [4 if t in (GateType.AND, GateType.NAND, GateType.OR, GateType.NOR) else 1
               for t in _RANDOM_GATE_TYPES]
    consumed = set()
    for _ in range(n_gates):
        for _attempt in range(8):
            gate_type = rng.choices(_RANDOM_GATE_TYPES, weights=weights)[0]
            arity = 1 if gate_type == GateType.NOT else rng.randint(2, max_fanin)
            window = signals[-locality:]
            fanin = rng.sample(window, min(arity, len(window)))
            word = evaluate_parallel(gate_type, [words[f] for f in fanin], word_mask)
            ones = bin(word).count("1")
            if 2 <= ones <= 62:
                break
        new = builder._gate(gate_type, fanin, None)
        words[new] = word
        consumed.update(fanin)
        signals.append(new)
    dangling = [s for s in signals if s not in consumed]
    if n_outputs is None:
        chosen = dangling
    elif len(dangling) >= n_outputs:
        chosen = dangling[-n_outputs:]
    else:
        extra = [s for s in reversed(signals) if s not in dangling]
        chosen = dangling + extra[: n_outputs - len(dangling)]
    for position, signal in enumerate(chosen):
        builder.output(f"po{position}", signal)
    return builder.build()


def random_sequential(
    n_inputs: int,
    n_gates: int,
    n_flops: int,
    seed: int = 0,
) -> Netlist:
    """Random logic wrapped with a register ring — a scan-insertion workload.

    Flop next-state functions tap random combinational signals; flop outputs
    feed back into the logic (the classic structure scan must break).
    """
    from .gates import evaluate_parallel

    rng = random.Random(seed ^ 0x5EED)
    builder = NetlistBuilder(f"seq{n_inputs}g{n_gates}f{n_flops}s{seed}")
    zero = builder.const0()
    flops = [builder.dff(zero, name=f"ff{i}") for i in range(n_flops)]
    signals = [builder.input(f"pi{i}") for i in range(n_inputs)] + flops
    # Same constant-rejection discipline as random_circuit (flop outputs act
    # as pseudo-PIs for the 64-pattern probe).
    word_mask = (1 << 64) - 1
    words = {s: rng.getrandbits(64) for s in signals}
    weights = [
        4 if t in (GateType.AND, GateType.NAND, GateType.OR, GateType.NOR) else 1
        for t in _RANDOM_GATE_TYPES
    ]
    consumed = set()
    for _ in range(n_gates):
        for _attempt in range(8):
            gate_type = rng.choices(_RANDOM_GATE_TYPES, weights=weights)[0]
            arity = 1 if gate_type == GateType.NOT else rng.randint(2, 3)
            window = signals[-24:]
            fanin = rng.sample(window, min(arity, len(window)))
            word = evaluate_parallel(gate_type, [words[f] for f in fanin], word_mask)
            ones = bin(word).count("1")
            if 2 <= ones <= 62:
                break
        new = builder._gate(gate_type, fanin, None)
        words[new] = word
        consumed.update(fanin)
        signals.append(new)
    logic_signals = signals[n_inputs + n_flops :]
    for flop in flops:
        target = rng.choice(logic_signals)
        builder.netlist.gates[flop].fanin[0] = target
        consumed.add(target)
    # Every dangling gate becomes observable, exactly as in random_circuit.
    dangling = [s for s in logic_signals if s not in consumed]
    for position, signal in enumerate(dangling):
        builder.output(f"po{position}", signal)
    if not dangling:
        builder.output("po0", logic_signals[-1])
    netlist = builder.netlist
    netlist.invalidate()
    netlist.finalize()
    return netlist


def chain_of_inverters(length: int, name: Optional[str] = None) -> Netlist:
    """A single inverter chain: one path, ``length`` levels deep."""
    builder = NetlistBuilder(name or f"invchain{length}")
    signal = builder.input("a")
    for _ in range(length):
        signal = builder.not_(signal)
    builder.output("y", signal)
    return builder.build()
