"""Test generation: PODEM / D-algorithm / guided engines and their
per-fault portfolio, random/weighted patterns and compaction, all over
the full-scan combinational view."""

from .compaction import (
    care_bit_stats,
    cubes_compatible,
    merge_cubes,
    static_compact,
)
from .dalg import DAlgorithm
from .engine import AtpgResult, atpg_table_row, run_atpg, x_fill
from .guided import GuidedPodem
from .podem import Podem, PodemResult
from .portfolio import (
    ENGINE_NAMES,
    PORTFOLIO_MEMBERS,
    PortfolioAtpg,
    PortfolioResult,
    make_engine,
)
from .random_gen import exhaustive_patterns, random_patterns, weighted_random_patterns
from .scoap import Testability, compute_testability

__all__ = [
    "Podem",
    "PodemResult",
    "DAlgorithm",
    "GuidedPodem",
    "PortfolioAtpg",
    "PortfolioResult",
    "make_engine",
    "ENGINE_NAMES",
    "PORTFOLIO_MEMBERS",
    "run_atpg",
    "AtpgResult",
    "atpg_table_row",
    "x_fill",
    "random_patterns",
    "weighted_random_patterns",
    "exhaustive_patterns",
    "static_compact",
    "cubes_compatible",
    "merge_cubes",
    "care_bit_stats",
    "compute_testability",
    "Testability",
]
