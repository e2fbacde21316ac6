"""AI-chip model: quantized NN, systolic array, tiled accelerator, faults."""

from .accelerator import AcceleratorConfig, Core, CoreConfig, TiledAccelerator
from .fault_effects import (
    FaultSweepResult,
    SweepPoint,
    accuracy_fault_sweep,
    detect_faulty_pes,
    detection_is_complete,
    run_inference_on_array,
)
from .nn import (
    DenseLayer,
    MLP,
    QuantizedLayer,
    QuantizedMLP,
    make_blobs,
    trained_reference_model,
)
from .quantize import QMAX, QMIN, QuantParams, calibrate
from .systolic import PRODUCT_BITS, PEFault, SystolicArray, random_pe_faults

__all__ = [
    "MLP",
    "DenseLayer",
    "QuantizedMLP",
    "QuantizedLayer",
    "make_blobs",
    "trained_reference_model",
    "QuantParams",
    "calibrate",
    "QMIN",
    "QMAX",
    "SystolicArray",
    "PEFault",
    "PRODUCT_BITS",
    "random_pe_faults",
    "TiledAccelerator",
    "AcceleratorConfig",
    "Core",
    "CoreConfig",
    "FaultSweepResult",
    "SweepPoint",
    "accuracy_fault_sweep",
    "detect_faulty_pes",
    "detection_is_complete",
    "run_inference_on_array",
]
