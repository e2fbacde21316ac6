"""Test compression: GF(2) solving, linear generators, EDT, compactors, MISR."""
