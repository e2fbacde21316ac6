"""Shared fixtures: small circuits every test layer reuses."""

import pytest

from repro.circuit import benchmarks, generators
from repro.circuit.builder import NetlistBuilder


@pytest.fixture
def c17():
    return benchmarks.c17()


@pytest.fixture
def s27():
    return benchmarks.s27()


@pytest.fixture
def adder4():
    return generators.adder(4)


@pytest.fixture
def mac4():
    return generators.mac_unit(4)


@pytest.fixture
def alu4():
    return generators.alu(4)


@pytest.fixture
def small_seq():
    """A small sequential circuit for scan tests."""
    return generators.random_sequential(6, 80, 10, seed=2)


@pytest.fixture
def tiny_mux():
    """Single 2:1 mux netlist (exercises the MUX2 code paths)."""
    builder = NetlistBuilder("tiny_mux")
    select = builder.input("s")
    a = builder.input("a")
    b = builder.input("b")
    builder.output("y", builder.mux(select, a, b))
    return builder.build()
