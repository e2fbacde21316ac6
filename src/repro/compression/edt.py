"""End-to-end compressed-scan (EDT) flow over a scan design.

:class:`EdtSystem` ties together the pieces:

* the :class:`~repro.scan.insertion.ScanDesign` (internal chains),
* a :class:`~repro.compression.decompressor.Decompressor` on the stimulus
  side (test cubes are *encoded* into channel streams),
* an :class:`~repro.compression.compactor.XorCompactor` on the response
  side (with optional X-masking),

and exposes the pattern-level operations compressed ATPG
(:mod:`repro.compression.flow`) and the E4 experiment use: split a cube
into care bits, build the pattern that channel data applies, and report
compression statistics against bypass (uncompressed) scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..circuit.values import X
from ..scan.insertion import ScanDesign
from ..scan.timing import compressed_scan_cost, compression_ratio, scan_cost
from .compactor import CompactorConfig, XorCompactor
from .decompressor import Decompressor, EdtConfig


@dataclass
class EncodedPattern:
    """One compressed pattern: channel stream + uncompressed PI part."""

    pi_bits: List[int]
    channel_stream: List[List[int]]  # [cycle][channel]
    expanded_state: List[int]  # decompressed flop load, netlist flop order

    @property
    def pattern(self) -> List[int]:
        """The full-scan-view pattern applied on silicon."""
        return self.pi_bits + self.expanded_state


class EdtSystem:
    """Compression wrapper around a scan-inserted netlist."""

    def __init__(
        self,
        design: ScanDesign,
        n_input_channels: int = 2,
        n_output_channels: int = 2,
        seed: int = 1,
    ):
        self.design = design
        self.config = EdtConfig(
            n_channels=n_input_channels,
            n_chains=design.n_chains,
            chain_length=design.max_chain_length,
            generator_length=24,
            seed=seed,
        )
        self.decompressor = Decompressor(self.config)
        self.compactor = XorCompactor(
            CompactorConfig(
                n_chains=design.n_chains,
                n_channels=n_output_channels,
                seed=seed + 7,
            )
        )
        self.n_output_channels = n_output_channels

    # ------------------------------------------------------------------
    # Stimulus side
    # ------------------------------------------------------------------

    def cube_to_care_bits(
        self, cube: Sequence[int]
    ) -> Tuple[List[int], Dict[Tuple[int, int], int]]:
        """Split a view cube into (PI part, {(chain, position): value}).

        The cube is in the scan netlist's combinational-view order (PIs then
        flops); specified flop bits become scan-cell care bits.
        """
        netlist = self.design.netlist
        n_pi = len(netlist.inputs)
        pi_part = list(cube[:n_pi])
        care: Dict[Tuple[int, int], int] = {}
        for flop, value in zip(netlist.flops, cube[n_pi:]):
            if value == X:
                continue
            chain, position = self.design.flop_position[flop]
            care[(chain, position)] = value
        return pi_part, care

    def encoded_pattern(
        self, variables: Sequence[int], pi_bits: List[int]
    ) -> EncodedPattern:
        """The pattern that channel data ``variables`` plus ``pi_bits`` apply."""
        return EncodedPattern(
            pi_bits=pi_bits,
            channel_stream=self.decompressor.variables_to_channel_stream(variables),
            expanded_state=self.loads_to_state(self.decompressor.expand(variables)),
        )

    def loads_to_state(self, loads: Sequence[Sequence[int]]) -> List[int]:
        """Convert per-chain cell loads into netlist flop order."""
        by_flop: Dict[int, int] = {}
        for chain_id, chain in enumerate(self.design.chains):
            for position, flop in enumerate(chain):
                by_flop[flop] = loads[chain_id][position]
        return [by_flop[flop] for flop in self.design.netlist.flops]

    # ------------------------------------------------------------------
    # Cost reporting
    # ------------------------------------------------------------------

    def cost_versus_bypass(self, n_patterns: int) -> Dict[str, object]:
        """E4 row: compressed vs. single-chain bypass-scan cost for
        ``n_patterns``."""
        netlist = self.design.netlist
        n_flops = len(netlist.flops)
        # Scan-in pins and scan_enable are not tester stimulus: the flop
        # loads they deliver are already counted, and under EDT the channels
        # replace them entirely.  Only functional PIs/POs remain.
        n_pis = len(netlist.inputs) - len(self.design.scan_inputs) - 1
        n_pos = len(netlist.outputs) - len(self.design.scan_outputs)
        bypass = scan_cost(n_patterns, n_flops, 1, n_pis, n_pos)
        compressed = compressed_scan_cost(
            n_patterns,
            n_flops,
            self.design.n_chains,
            self.config.n_channels,
            self.n_output_channels,
            n_pis,
            n_pos,
        )
        ratios = compression_ratio(bypass, compressed)
        return {
            "patterns": n_patterns,
            "bypass_cycles": bypass.test_cycles,
            "edt_cycles": compressed.test_cycles,
            "bypass_bits": bypass.data_volume_bits,
            "edt_bits": compressed.data_volume_bits,
            **{k: round(v, 2) for k, v in ratios.items()},
        }
