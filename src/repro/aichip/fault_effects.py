"""Fault-effect analysis: how PE defects corrupt NN inference (E9).

The tutorial's "map out and degrade" case study in three steps:

1. **injection sweep** — increasing numbers of random PE faults, measuring
   quantized-inference accuracy on the systolic model after each;
2. **detection** — a functional MAC test (deterministic stimulus through
   every PE) flags the faulty PEs, standing in for the scan/ATPG result;
3. **degradation** — faulty rows are mapped out and accuracy is
   re-measured, trading throughput (extra tiles) for correctness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .nn import MLP, QuantizedMLP, trained_reference_model
from .systolic import SystolicArray, random_pe_faults

#: The E9 array geometry.
_ROWS, _COLS = 8, 8


@dataclass
class SweepPoint:
    """One point of the accuracy-vs-fault-count curve."""

    n_faults: int
    accuracy: float
    accuracy_after_mapout: float
    cycles: int
    cycles_after_mapout: int


@dataclass
class FaultSweepResult:
    """The E9 curve plus its fixture metadata."""

    baseline_accuracy: float
    quantized_accuracy: float
    points: List[SweepPoint] = field(default_factory=list)


def run_inference_on_array(
    quantized: QuantizedMLP, array: SystolicArray, inputs: np.ndarray
) -> np.ndarray:
    """Predictions with every matmul routed through ``array``."""
    hooked = QuantizedMLP(
        quantized.layers, quantized.input_params, matmul_hook=array.matmul
    )
    return hooked.predict(inputs)


def _attribute_errors(
    errors: np.ndarray, rows: int, suspects: set
) -> None:
    """Attribute an identity-stimulus error matrix to PE coordinates.

    With identity activations, sample *i* drives only array row *i*, so:

    * an error appearing in a few samples of column *c* points at the PEs
      ``(sample, c)`` whose activation was live (dead PE / weight fault);
    * an error appearing in (nearly) every sample of column *c* is a stuck
      product bit — it corrupts the column regardless of activation — and
      the PE's own row is the sample whose error *deviates* from the
      common offset.
    """
    n_samples = errors.shape[0]
    for col in range(errors.shape[1]):
        column = errors[:, col]
        nonzero = np.nonzero(column)[0]
        if len(nonzero) == 0:
            continue
        if len(nonzero) <= rows // 2:
            for sample in nonzero:
                suspects.add((int(sample) % rows, col))
            continue
        # Stuck-type signature: find the common offset and flag deviants.
        values, counts = np.unique(column, return_counts=True)
        common = values[np.argmax(counts)]
        deviants = np.nonzero(column != common)[0]
        for sample in deviants:
            suspects.add((int(sample) % rows, col))


def detect_faulty_pes(array: SystolicArray) -> List[Tuple[int, int]]:
    """Functional MAC screen: exercise and localize faulty PEs.

    Identity activation batches make each sample exercise exactly one array
    row; comparing against a golden array yields an error matrix that
    :func:`_attribute_errors` maps back to (row, col) suspects.  Several
    activation magnitudes and weight fills are needed so weight-register
    and stuck-bit faults (which are value-dependent) all manifest.  This is
    the functional analogue of the per-core scan test (the structural
    version lives in :mod:`repro.dft`).
    """
    rows, cols = array.rows, array.cols
    golden = SystolicArray(rows, cols)
    suspects: set = set()
    test_values = [1, -1, 3, -64, 85, -86]
    weight_fills = [
        np.full((rows, cols), 1, dtype=np.int64),
        np.fromfunction(lambda i, j: ((i * cols + j) % 127 + 1), (rows, cols)).astype(
            np.int64
        ),
        np.fromfunction(lambda i, j: (((i + 3) * (j + 7)) % 255 - 127), (rows, cols)).astype(
            np.int64
        ),
    ]
    for value in test_values:
        activations = np.eye(rows, dtype=np.int64) * value
        for weights in weight_fills:
            observed = array.matmul(activations, weights)
            expected = golden.matmul(activations, weights)
            _attribute_errors(observed - expected, rows, suspects)
    return sorted(suspects)


def accuracy_fault_sweep(
    fault_counts: Sequence[int] = (0, 1, 2, 4, 8, 16),
    seed: int = 3,
    model_fixture: Optional[Tuple[MLP, np.ndarray, np.ndarray]] = None,
) -> FaultSweepResult:
    """The full E9 sweep.

    For each fault count: inject, measure accuracy, run detection + map-out,
    re-measure.  The curve should show graceful degradation before map-out
    and near-baseline accuracy after, at a cycle cost.
    """
    rows, cols = _ROWS, _COLS
    model, test_x, test_y = model_fixture or trained_reference_model()
    quantized = QuantizedMLP.from_float(model, test_x)
    baseline = model.accuracy(test_x, test_y)
    clean_array = SystolicArray(rows, cols)
    q_acc = float(
        np.mean(run_inference_on_array(quantized, clean_array, test_x) == test_y)
    )
    n, k = test_x.shape
    m = quantized.layers[0].weights_q.shape[1]
    result = FaultSweepResult(baseline_accuracy=baseline, quantized_accuracy=q_acc)

    for count in fault_counts:
        faults = random_pe_faults(rows, cols, count, seed=seed + count)
        array = SystolicArray(rows, cols, faults=faults)
        predictions = run_inference_on_array(quantized, array, test_x)
        accuracy = float(np.mean(predictions == test_y))
        cycles = array.cycles_for_matmul(n, k, m)

        # Detect and map out.
        suspects = detect_faulty_pes(array)
        degraded = SystolicArray(rows, cols, faults=faults, mapped_out=suspects)
        if degraded.usable_rows():
            predictions2 = run_inference_on_array(quantized, degraded, test_x)
            accuracy2 = float(np.mean(predictions2 == test_y))
            cycles2 = degraded.cycles_for_matmul(n, k, m)
        else:
            accuracy2 = 0.0
            cycles2 = 0
        result.points.append(
            SweepPoint(
                n_faults=count,
                accuracy=accuracy,
                accuracy_after_mapout=accuracy2,
                cycles=cycles,
                cycles_after_mapout=cycles2,
            )
        )
    return result


def detection_is_complete(trials: int = 20, seed: int = 11) -> Dict[str, float]:
    """Measure the functional screen's per-fault detection rate.

    Weight-register faults only manifest under weights that use the flipped
    bit, so the screen's walking-weight pass matters; this metric quantifies
    residual escapes.
    """
    detected = 0
    total = 0
    for trial in range(trials):
        faults = random_pe_faults(_ROWS, _COLS, 1, seed=seed * 100 + trial)
        array = SystolicArray(_ROWS, _COLS, faults=faults)
        suspects = set(detect_faulty_pes(array))
        total += 1
        if (faults[0].row, faults[0].col) in suspects:
            detected += 1
    return {"detection_rate": detected / total if total else 1.0, "trials": total}
