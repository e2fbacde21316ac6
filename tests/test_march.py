"""March algorithm definitions and notation."""

from repro.bist.march import (
    ALL_MARCH_TESTS,
    MARCH_A,
    MARCH_B,
    MARCH_C_MINUS,
    MATS,
    MATS_PLUS,
    Direction,
    MarchElement,
    Operation,
    operation_count,
    r0,
    r1,
    w0,
    w1,
)


class TestDefinitions:
    def test_complexities_match_literature(self):
        expected = {
            "MATS": 4,
            "MATS+": 5,
            "MATS++": 6,
            "March X": 6,
            "March Y": 8,
            "March C-": 10,
            "March A": 15,
            "March B": 17,
        }
        for test in ALL_MARCH_TESTS:
            assert test.complexity == expected[test.name], test.name

    def test_march_c_minus_structure(self):
        assert len(MARCH_C_MINUS.elements) == 6
        directions = [e.direction for e in MARCH_C_MINUS.elements]
        assert directions[1] == Direction.UP
        assert directions[3] == Direction.DOWN

    def test_every_test_starts_with_w0(self):
        for test in ALL_MARCH_TESTS:
            first = test.elements[0].operations[0]
            assert first == w0()

    def test_reads_follow_writes_consistently(self):
        """Within an element, a read expects the value last written (or the
        value established by the previous element)."""
        for test in ALL_MARCH_TESTS:
            value = None
            for element in test.elements:
                for op in element.operations:
                    if op.kind == "w":
                        value = op.value
            # Final state after the full test is deterministic.
            assert value in (0, 1)


class TestNotation:
    def test_operation_str(self):
        assert str(r0()) == "r0"
        assert str(w1()) == "w1"

    def test_element_str_arrows(self):
        element = MarchElement(Direction.UP, (r0(), w1()))
        assert str(element) == "⇑(r0,w1)"
        assert "⇓" in str(MarchElement(Direction.DOWN, (r1(),)))
        assert "⇕" in str(MarchElement(Direction.EITHER, (w0(),)))

    def test_test_str(self):
        text = str(MATS_PLUS)
        assert text.startswith("MATS+:")
        assert text.count(";") == 2


class TestLookup:
    def test_operation_count(self):
        assert operation_count(MARCH_C_MINUS, 1024) == 10 * 1024
        assert operation_count(MATS, 64) == 4 * 64
