"""Fault diagnosis: dictionaries, effect-cause, compactor-aware."""
