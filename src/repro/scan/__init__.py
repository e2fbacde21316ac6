"""Scan DFT: insertion, chain stitching, pattern scheduling, cost models."""
