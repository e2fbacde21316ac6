"""Fault models: stuck-at, transition-delay; collapsing."""

from .collapse import collapse_faults, line_fault
from .model import OUTPUT_PIN, StuckAtFault, TransitionFault
from .stuck_at import fault_sites, full_fault_list
from .transition import full_transition_list

__all__ = [
    "OUTPUT_PIN",
    "StuckAtFault",
    "TransitionFault",
    "fault_sites",
    "full_fault_list",
    "full_transition_list",
    "collapse_faults",
    "line_fault",
]
