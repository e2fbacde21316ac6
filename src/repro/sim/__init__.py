"""Simulation engines: 4-valued event-driven, bit-parallel, fault simulation."""
