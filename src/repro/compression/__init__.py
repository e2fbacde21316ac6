"""Test compression: GF(2) solving, linear generators, EDT, compactors, MISR."""

from .compactor import CompactorConfig, XorCompactor, greedy_x_mask
from .decompressor import (
    Decompressor,
    EdtConfig,
    LinearDecompressor,
    encoding_probability,
)
from .edt import EdtSystem, EncodedPattern
from .flow import CompressedAtpgResult, run_compressed_atpg
from .gf2 import GF2System, dot_bits, rank_of, solve_system
from .reseeding import ReseedingCompressor, ReseedingConfig
from .lfsr import LFSR, PhaseShifter, RingGenerator, primitive_taps
from .misr import MISR, measure_aliasing, theoretical_aliasing_probability

__all__ = [
    "GF2System",
    "solve_system",
    "dot_bits",
    "rank_of",
    "LFSR",
    "RingGenerator",
    "PhaseShifter",
    "primitive_taps",
    "EdtConfig",
    "LinearDecompressor",
    "Decompressor",
    "encoding_probability",
    "CompactorConfig",
    "XorCompactor",
    "greedy_x_mask",
    "MISR",
    "theoretical_aliasing_probability",
    "measure_aliasing",
    "EdtSystem",
    "CompressedAtpgResult",
    "run_compressed_atpg",
    "EncodedPattern",
    "ReseedingConfig",
    "ReseedingCompressor",
]
