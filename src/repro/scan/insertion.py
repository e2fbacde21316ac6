"""Scan insertion: swap flops for scan flops and stitch scan chains.

Scan is the foundation DFT structure: every flop becomes a scan flop
(``SDFF``) with a shift path, giving ATPG direct control and observation of
all state.  :func:`insert_scan` performs the swap, adds the ``scan_enable``
port and per-chain ``scan_in``/``scan_out`` ports, and stitches chains
balanced to within one bit of each other.

The returned :class:`ScanDesign` carries the chain topology used by the
pattern scheduler, the compression wrapper, and the test-time model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..circuit.gates import GateType
from ..circuit.netlist import Netlist
from ..faults.model import OUTPUT_PIN, StuckAtFault


@dataclass
class ScanDesign:
    """A scan-inserted netlist plus its chain topology.

    ``chains[c]`` lists flop gate indices in shift order: element 0 is the
    flop next to ``scan_in`` and the last element drives ``scan_out``.
    ``flop_position`` maps a flop index to its ``(chain, position)``.
    """

    netlist: Netlist
    chains: List[List[int]]
    scan_enable: int
    scan_inputs: List[int]
    scan_outputs: List[int]
    flop_position: Dict[int, tuple] = field(default_factory=dict)

    @property
    def n_chains(self) -> int:
        return len(self.chains)

    @property
    def max_chain_length(self) -> int:
        return max((len(chain) for chain in self.chains), default=0)

    def state_to_chain_bits(self, state: Sequence[int]) -> List[List[int]]:
        """Split a flop-state vector (netlist flop order) into per-chain
        shift streams, *first-shifted-in bit first*.

        The bit destined for the chain's last position must enter first, so
        each stream is the chain's values reversed.
        """
        flops = self.netlist.flops
        by_flop = dict(zip(flops, state))
        streams: List[List[int]] = []
        for chain in self.chains:
            values = [by_flop[flop] for flop in chain]
            streams.append(list(reversed(values)))
        return streams

    def chain_bits_to_state(self, streams: Sequence[Sequence[int]]) -> List[int]:
        """Inverse of :meth:`state_to_chain_bits`."""
        by_flop: Dict[int, int] = {}
        for chain, stream in zip(self.chains, streams):
            for flop, value in zip(chain, reversed(list(stream))):
                by_flop[flop] = value
        return [by_flop[flop] for flop in self.netlist.flops]


def insert_scan(
    netlist: Netlist,
    n_chains: int = 1,
    name: Optional[str] = None,
) -> ScanDesign:
    """Build a scan-inserted copy of ``netlist`` with ``n_chains`` chains.

    Flops are distributed round-robin in netlist order, which balances
    chain lengths to within one flop.  The original netlist is untouched.
    """
    netlist.finalize()
    if n_chains < 1:
        raise ValueError("need at least one scan chain")
    n_flops = len(netlist.flops)
    if n_flops == 0:
        raise ValueError(f"{netlist.name!r} has no flops to scan")
    n_chains = min(n_chains, n_flops)

    scanned = Netlist(name or f"{netlist.name}_scan{n_chains}")
    # Copy all gates; DFF -> SDFF with placeholder scan pins patched below.
    for gate in netlist.gates:
        if gate.type == GateType.DFF:
            scanned.add(GateType.SDFF, gate.name, [gate.fanin[0], 0, 0])
        else:
            scanned.add(gate.type, gate.name, list(gate.fanin))

    scan_enable = scanned.add(GateType.INPUT, "scan_enable")
    chains: List[List[int]] = [[] for _ in range(n_chains)]
    for position, flop in enumerate(netlist.flops):
        chains[position % n_chains].append(flop)

    scan_inputs: List[int] = []
    scan_outputs: List[int] = []
    flop_position: Dict[int, tuple] = {}
    for chain_id, chain in enumerate(chains):
        scan_in = scanned.add(GateType.INPUT, f"scan_in{chain_id}")
        scan_inputs.append(scan_in)
        previous = scan_in
        for position, flop in enumerate(chain):
            gate = scanned.gates[flop]
            gate.fanin[1] = previous
            gate.fanin[2] = scan_enable
            flop_position[flop] = (chain_id, position)
            previous = flop
        scan_outputs.append(
            scanned.add(GateType.OUTPUT, f"scan_out{chain_id}", [previous])
        )

    scanned.invalidate()
    scanned.finalize()
    return ScanDesign(
        netlist=scanned,
        chains=chains,
        scan_enable=scan_enable,
        scan_inputs=scan_inputs,
        scan_outputs=scan_outputs,
        flop_position=flop_position,
    )


def partition_faults(
    design: ScanDesign, faults: Sequence[StuckAtFault]
) -> tuple:
    """Split a fault list into ``(capture_faults, chain_faults)``.

    Chain faults sit on the shift path — ``scan_in``/``scan_enable`` input
    stems and scan-out branches — and are detected by the chain flush test
    (:func:`chain_flush_detects`), not by capture patterns.
    """
    netlist = design.netlist
    chain_nets = set(design.scan_inputs)
    chain_nets.add(design.scan_enable)
    capture: List[StuckAtFault] = []
    chain: List[StuckAtFault] = []
    for fault in faults:
        gate = netlist.gates[fault.gate]
        if fault.pin == OUTPUT_PIN and fault.gate in chain_nets:
            chain.append(fault)
        elif gate.type == GateType.OUTPUT and fault.gate in set(design.scan_outputs):
            chain.append(fault)
        else:
            capture.append(fault)
    return capture, chain


def chain_flush_detects(design: ScanDesign) -> bool:
    """Simulate the 0011-flush test through every chain.

    The flush pattern shifts ``00110011…`` through each chain with
    ``scan_enable`` held high and checks the stream emerges intact — the
    standard screen for shift-path integrity (detects chain stuck-at and
    both transition polarities at chain speed).
    """
    from ..sim.logicsim import LogicSimulator

    logic = LogicSimulator(design.netlist)
    netlist = design.netlist
    n_pi = len(netlist.inputs)
    pi_positions = {gate: pos for pos, gate in enumerate(netlist.inputs)}
    flush = [0, 0, 1, 1]
    depth = design.max_chain_length
    total_cycles = depth + len(flush) + 4

    state = [0] * len(netlist.flops)
    collected: List[List[int]] = [[] for _ in design.chains]
    stream = [flush[cycle % len(flush)] for cycle in range(total_cycles)]
    for cycle in range(total_cycles):
        inputs = [0] * n_pi
        inputs[pi_positions[design.scan_enable]] = 1
        for scan_in in design.scan_inputs:
            inputs[pi_positions[scan_in]] = stream[cycle]
        result = logic.step(inputs, state, scan_shift=True)
        state = result["state"]
        for chain_id, out_gate in enumerate(design.scan_outputs):
            position = netlist.outputs.index(out_gate)
            collected[chain_id].append(result["outputs"][position])

    for chain_id, chain in enumerate(design.chains):
        latency = len(chain)
        expected = stream[: total_cycles - latency]
        observed = collected[chain_id][latency:]
        if observed != expected:
            return False
    return True
