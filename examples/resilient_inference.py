"""Fault-resilient inference: test, map out, keep shipping.

The tutorial's closing case study as a runnable story:

1. train a small classifier and lower it to int8;
2. run it on a clean systolic array — accuracy matches;
3. damage the array with random PE defects — accuracy drops;
4. run the PE screen, map out the faulty rows, re-run — accuracy
   recovers at a throughput cost;
5. show the chip-level yield uplift map-out buys across a lot of dies.

Run:  python examples/resilient_inference.py
"""

import numpy as np

from repro.aichip.accelerator import AcceleratorConfig, TiledAccelerator
from repro.aichip.fault_effects import detect_faulty_pes, run_inference_on_array
from repro.aichip.nn import QuantizedMLP, trained_reference_model
from repro.aichip.systolic import SystolicArray, random_pe_faults
from repro.dft.degrade import yield_with_degradation


def main() -> None:
    # 1-2. Clean baseline.
    model, test_x, test_y = trained_reference_model()
    quantized = QuantizedMLP.from_float(model, test_x)
    clean = SystolicArray(8, 8)
    base_acc = np.mean(run_inference_on_array(quantized, clean, test_x) == test_y)
    print(f"clean array accuracy: {base_acc:.3f}")

    # 3. Damaged array.
    faults = random_pe_faults(8, 8, 6, seed=42)
    damaged = SystolicArray(8, 8, faults=faults)
    hurt_acc = np.mean(run_inference_on_array(quantized, damaged, test_x) == test_y)
    print(f"\n6 random PE faults injected:")
    for fault in faults:
        print(f"  {fault.describe()}")
    print(f"damaged accuracy: {hurt_acc:.3f}")

    # 4. Screen, map out, recover.
    suspects = detect_faulty_pes(damaged)
    print(f"\nPE screen flags: {suspects}")
    degraded = SystolicArray(8, 8, faults=faults, mapped_out=suspects)
    n, k = test_x.shape
    m = quantized.layers[0].weights_q.shape[1]
    fixed_acc = np.mean(run_inference_on_array(quantized, degraded, test_x) == test_y)
    print(
        f"after map-out: accuracy {fixed_acc:.3f}, "
        f"{len(degraded.usable_rows())}/8 rows usable, "
        f"cycles {clean.cycles_for_matmul(n, k, m)} -> "
        f"{degraded.cycles_for_matmul(n, k, m)}"
    )

    # 5. Yield story over a lot of 40 chips.
    rng = np.random.default_rng(7)
    lot = []
    for die in range(40):
        core_faults = {}
        if rng.random() < 0.5:  # half the dies have a defect somewhere
            core = int(rng.integers(0, 4))
            core_faults[core] = random_pe_faults(8, 8, 1, seed=1000 + die)
        lot.append(
            TiledAccelerator(AcceleratorConfig(n_cores=4), core_pe_faults=core_faults)
        )
    report = yield_with_degradation(lot)
    print(
        f"\nlot of {report['chips']} dies: strict yield "
        f"{report['yield_strict']:.0%} -> with map-out "
        f"{report['yield_with_mapout']:.0%}  bins: {report['bins']}"
    )


if __name__ == "__main__":
    main()
