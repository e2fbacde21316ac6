"""AI-chip model: quantized NN, systolic array, tiled accelerator, faults."""
