"""Built-in self test: STUMPS logic BIST, test points, memory BIST, March."""
