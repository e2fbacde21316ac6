"""Tester cost models: test time and test data volume.

The standard scan cost model (used throughout the compression literature and
in the E4/E8 tables):

* test time (cycles) ``= (P + 1) * L + P`` where *P* is pattern count and
  *L* the longest chain (loads overlap the previous unload; one capture
  cycle per pattern; one extra final unload),
* test data volume (bits) ``= P * (stimulus bits + response bits)``.

Compression divides the chain length seen by the tester (many short
internal chains behind few channels), which is where its 10-100x wins come
from.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ScanCost:
    """Test time and data volume for one scan configuration."""

    patterns: int
    chains: int
    max_chain_length: int
    stimulus_bits_per_pattern: int
    response_bits_per_pattern: int

    @property
    def test_cycles(self) -> int:
        """Total tester cycles with load/unload overlap."""
        if self.patterns == 0:
            return 0
        return (self.patterns + 1) * self.max_chain_length + self.patterns

    @property
    def data_volume_bits(self) -> int:
        """Stimulus plus expected-response storage on the tester."""
        return self.patterns * (
            self.stimulus_bits_per_pattern + self.response_bits_per_pattern
        )


def scan_cost(
    patterns: int,
    n_flops: int,
    n_chains: int,
    n_pis: int = 0,
    n_pos: int = 0,
) -> ScanCost:
    """Cost of plain (uncompressed) scan.

    Every pattern loads all flops through ``n_chains`` chains and stores
    full per-flop stimulus and response plus PI/PO bits.
    """
    max_chain = -(-n_flops // n_chains) if n_chains else 0  # ceil division
    return ScanCost(
        patterns=patterns,
        chains=n_chains,
        max_chain_length=max_chain,
        stimulus_bits_per_pattern=n_flops + n_pis,
        response_bits_per_pattern=n_flops + n_pos,
    )


def compressed_scan_cost(
    patterns: int,
    n_flops: int,
    n_internal_chains: int,
    n_input_channels: int,
    n_output_channels: int,
    n_pis: int = 0,
    n_pos: int = 0,
) -> ScanCost:
    """Cost of compressed scan (EDT-style).

    The tester streams ``n_input_channels`` bits per shift cycle and reads
    ``n_output_channels``; shift length is set by the *internal* chains.
    """
    max_chain = -(-n_flops // n_internal_chains) if n_internal_chains else 0
    return ScanCost(
        patterns=patterns,
        chains=n_internal_chains,
        max_chain_length=max_chain,
        stimulus_bits_per_pattern=max_chain * n_input_channels + n_pis,
        response_bits_per_pattern=max_chain * n_output_channels + n_pos,
    )


def compression_ratio(plain: ScanCost, compressed: ScanCost) -> dict:
    """Data-volume and test-time ratios between two configurations."""
    return {
        "data_volume_x": (
            plain.data_volume_bits / compressed.data_volume_bits
            if compressed.data_volume_bits
            else float("inf")
        ),
        "test_time_x": (
            plain.test_cycles / compressed.test_cycles
            if compressed.test_cycles
            else float("inf")
        ),
    }
