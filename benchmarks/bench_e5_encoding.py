"""E5 — Figure: encoding success vs care-bit count.

Claim: EDT encoding is essentially lossless while a cube's care bits stay
below the injected-variable budget, then collapses sharply at the
channel-capacity knee — the design rule that sets channel count for a
target care-bit density.  A ring generator with phase shifter sustains
higher capacity than the same machine with fewer channels.

Regenerates: success-rate series over care-bit counts for 1/2/4-channel
configurations of the same decompressor.
"""

from repro.compression.decompressor import Decompressor, EdtConfig, encoding_probability

from .util import print_series, run_once

CARE_COUNTS = [4, 8, 16, 24, 32, 40, 48, 64, 96]


def _run():
    series = {}
    for n_channels in (1, 2, 4):
        config = EdtConfig(
            n_channels=n_channels,
            n_chains=8,
            chain_length=16,
            generator_length=24,
        )
        series[n_channels] = dict(
            encoding_probability(Decompressor(config), CARE_COUNTS, seed=7)
        )
    return series


def test_e5_encoding_capacity(benchmark):
    series = run_once(benchmark, _run)
    points = [
        {
            "care_bits": count,
            "p_encode_1ch": series[1][count],
            "p_encode_2ch": series[2][count],
            "p_encode_4ch": series[4][count],
        }
        for count in CARE_COUNTS
    ]
    print_series("E5: encoding success vs care-bit count", points)
    # Low care-bit cubes always encode; far past capacity they never do.
    assert series[2][4] == 1.0
    assert series[2][96] < 0.1
    # More channels push the knee right.
    assert series[4][40] >= series[2][40] >= series[1][40]
    # Monotone trend within each configuration.
    for n_channels in (1, 2, 4):
        values = [series[n_channels][c] for c in CARE_COUNTS]
        for earlier, later in zip(values, values[2:]):
            assert later <= earlier + 0.08  # allow Monte-Carlo jitter
