"""Symmetric int8 quantization for NN inference on the systolic model.

AI accelerators run integer MACs; the tutorial's deep-learning-basics
section covers exactly this post-training symmetric scheme:

``q = clamp(round(x / scale), -127, 127)``, ``x ≈ q * scale``

Per-tensor scales keep the arithmetic identical to what the gate-level MAC
units compute, so logic faults injected at the PE level corrupt inference
the same way silicon defects would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Quantized value range for int8 symmetric quantization.
QMIN, QMAX = -127, 127


@dataclass(frozen=True)
class QuantParams:
    """Per-tensor quantization parameters."""

    scale: float

    def quantize(self, values: np.ndarray) -> np.ndarray:
        """Float -> int8 (stored in int32 for headroom during MACs)."""
        q = np.round(values / self.scale)
        return np.clip(q, QMIN, QMAX).astype(np.int32)


def calibrate(values: np.ndarray) -> QuantParams:
    """Choose a symmetric scale covering the tensor's max magnitude."""
    peak = float(np.max(np.abs(values))) if values.size else 1.0
    if peak == 0.0:
        peak = 1.0
    return QuantParams(scale=peak / QMAX)

