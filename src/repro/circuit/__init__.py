"""Gate-level circuit substrate: values, gates, netlists, generators, I/O."""
