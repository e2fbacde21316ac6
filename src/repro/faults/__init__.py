"""Stuck-at fault model: enumeration and collapsing."""
