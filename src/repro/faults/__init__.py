"""Fault models: stuck-at, transition-delay, bridging; collapsing."""

from .bridging import sample_bridging_faults
from .collapse import collapse_faults, collapse_ratio, line_fault
from .model import OUTPUT_PIN, BridgingFault, StuckAtFault, TransitionFault
from .stuck_at import fault_sites, full_fault_list
from .transition import full_transition_list

__all__ = [
    "OUTPUT_PIN",
    "StuckAtFault",
    "TransitionFault",
    "BridgingFault",
    "fault_sites",
    "full_fault_list",
    "full_transition_list",
    "sample_bridging_faults",
    "collapse_faults",
    "collapse_ratio",
    "line_fault",
]
