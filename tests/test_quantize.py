"""Int8 quantization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.aichip.quantize import (
    QMAX,
    QMIN,
    calibrate,
)


class TestCalibration:
    def test_scale_covers_peak(self):
        values = np.array([-3.0, 1.0, 2.5])
        params = calibrate(values)
        quantized = params.quantize(values)
        assert quantized.min() >= QMIN and quantized.max() <= QMAX
        assert abs(quantized[0]) == QMAX  # the peak maps to full range

    def test_zero_tensor(self):
        params = calibrate(np.zeros(4))
        assert params.scale > 0
        assert np.all(params.quantize(np.zeros(4)) == 0)

    def test_empty_tensor(self):
        params = calibrate(np.array([]))
        assert params.scale > 0


class TestRoundTrip:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_quantization_error_bounded(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(0, 2, size=50)
        params = calibrate(values)
        restored = params.quantize(values) * params.scale
        # Max error is half a quantization step.
        assert np.max(np.abs(restored - values)) <= params.scale / 2 + 1e-12

    def test_requantize_matches_float_path(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0, 1, size=(4, 8))
        w = rng.normal(0, 1, size=(8, 3))
        xp, wp = calibrate(x), calibrate(w)
        acc = xp.quantize(x) @ wp.quantize(w)
        acc_scale = xp.scale * wp.scale
        approx = acc.astype(np.float64) * acc_scale
        exact = x @ w
        assert np.max(np.abs(approx - exact)) < 0.15
