"""Hierarchical DFT: wrapping, retargeting, scheduling, degradation, planning."""
