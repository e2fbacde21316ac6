"""Stuck-at fault model: enumeration and collapsing."""

from .collapse import collapse_faults, line_fault
from .model import OUTPUT_PIN, StuckAtFault
from .stuck_at import fault_sites, full_fault_list

__all__ = [
    "OUTPUT_PIN",
    "StuckAtFault",
    "fault_sites",
    "full_fault_list",
    "collapse_faults",
    "line_fault",
]
