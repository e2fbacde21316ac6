"""Scan cost models (test time / data volume)."""

from repro.scan.timing import (
    ScanCost,
    compressed_scan_cost,
    compression_ratio,
    scan_cost,
)


class TestPlainScan:
    def test_cycle_formula(self):
        cost = scan_cost(patterns=10, n_flops=100, n_chains=4)
        assert cost.max_chain_length == 25
        assert cost.test_cycles == 11 * 25 + 10

    def test_zero_patterns(self):
        cost = scan_cost(0, 100, 4)
        assert cost.test_cycles == 0
        assert cost.data_volume_bits == 0

    def test_more_chains_cut_time(self):
        slow = scan_cost(100, 1000, 1)
        fast = scan_cost(100, 1000, 10)
        assert fast.test_cycles < slow.test_cycles
        # Data volume is chain-independent for plain scan.
        assert fast.data_volume_bits == slow.data_volume_bits

    def test_pi_po_counted(self):
        cost = scan_cost(5, 10, 1, n_pis=3, n_pos=2)
        assert cost.stimulus_bits_per_pattern == 13
        assert cost.response_bits_per_pattern == 12


class TestCompressedScan:
    def test_compression_shrinks_both_axes(self):
        plain = scan_cost(100, 4096, n_chains=4)
        compressed = compressed_scan_cost(
            100, 4096, n_internal_chains=64, n_input_channels=2, n_output_channels=2
        )
        ratios = compression_ratio(plain, compressed)
        assert ratios["data_volume_x"] > 5
        assert ratios["test_time_x"] > 5

    def test_ratio_scales_with_chain_count(self):
        plain = scan_cost(100, 4096, n_chains=4)
        small = compressed_scan_cost(100, 4096, 32, 2, 2)
        large = compressed_scan_cost(100, 4096, 128, 2, 2)
        assert (
            compression_ratio(plain, large)["test_time_x"]
            > compression_ratio(plain, small)["test_time_x"]
        )

    def test_stimulus_counts_channels_not_flops(self):
        compressed = compressed_scan_cost(1, 1000, 100, 3, 2)
        assert compressed.max_chain_length == 10
        assert compressed.stimulus_bits_per_pattern == 30
        assert compressed.response_bits_per_pattern == 20

    def test_infinite_ratio_guard(self):
        plain = scan_cost(10, 100, 4)
        empty = ScanCost(0, 4, 0, 0, 0)
        ratios = compression_ratio(plain, empty)
        assert ratios["data_volume_x"] == float("inf")
