"""Plain-text pattern file I/O (STIL-flavoured tester handoff).

A minimal, diff-friendly interchange format for pattern sets::

    # repro pattern file v1
    circuit mac4
    inputs a[0] a[1] ... acc11
    patterns 24
    pattern 0 0110X1...   # 0/1/X per view input
    ...

Responses (when included) follow each pattern line as ``expect`` rows.
The format survives hand editing and keeps the experiment artifacts
reviewable in version control — the role STIL/WGL files play between ATPG
and the test floor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..circuit.values import X
from ..sim.parallel import PackedPatterns

_CHAR = {0: "0", 1: "1", X: "X"}
_VALUE = {"0": 0, "1": 1, "X": X, "x": X}
#: ``str.translate`` tables: one deletes every valid bit character, the
#: other fills X as 0.
_NOT_BITS = str.maketrans("", "", "01Xx")
_X_AS_ZERO = str.maketrans("Xx", "00")


@dataclass
class PatternFile:
    """A parsed pattern file.

    ``bits`` holds each pattern's text as written (one ``0``/``1``/``X``
    character per input); :attr:`patterns` and :meth:`packed` are derived
    from it.
    """

    circuit: str
    input_names: List[str]
    bits: List[str] = field(default_factory=list)
    expects: List[Optional[List[int]]] = field(default_factory=list)

    @property
    def patterns(self) -> List[List[int]]:
        """Each pattern as a row of 0/1/X values."""
        return [[_VALUE[c] for c in text] for text in self.bits]

    def packed(self, n_inputs: int) -> PackedPatterns:
        """The patterns packed one word per input, each X filled as 0.

        Raises ``ValueError`` unless every pattern has ``n_inputs`` bits.
        """
        return PackedPatterns.from_text(
            [text.translate(_X_AS_ZERO) for text in self.bits], n_inputs
        )


class PatternFormatError(ValueError):
    """Raised when a pattern file cannot be parsed."""


def format_patterns(
    circuit: str,
    input_names: Sequence[str],
    patterns: Sequence[Sequence[int]],
    expects: Optional[Sequence[Sequence[int]]] = None,
) -> str:
    """Serialize a pattern set (optionally with expected responses)."""
    lines = [
        "# repro pattern file v1",
        f"circuit {circuit}",
        f"inputs {' '.join(input_names)}",
        f"patterns {len(patterns)}",
    ]
    for index, pattern in enumerate(patterns):
        if len(pattern) != len(input_names):
            raise PatternFormatError(
                f"pattern {index} width {len(pattern)} != {len(input_names)} inputs"
            )
        bits = "".join(_CHAR[v] for v in pattern)
        lines.append(f"pattern {index} {bits}")
        if expects is not None:
            expected = expects[index]
            lines.append(
                "expect " + "".join(_CHAR[v] for v in expected)
            )
    return "\n".join(lines) + "\n"


def _bits(text: str, line_number: int) -> List[int]:
    try:
        return [_VALUE[c] for c in text]
    except KeyError as exc:
        raise PatternFormatError(
            f"line {line_number}: bad bit {exc.args[0]!r}"
        ) from None


def parse_patterns(text: str) -> PatternFile:
    """Parse pattern-file text back into structured form."""
    circuit = ""
    input_names: List[str] = []
    declared = -1
    bits: List[str] = []
    expects: List[Optional[List[int]]] = []
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        keyword = fields[0]
        if keyword == "circuit":
            circuit = fields[1] if len(fields) > 1 else ""
        elif keyword == "inputs":
            input_names = fields[1:]
        elif keyword == "patterns":
            if len(fields) != 2 or not fields[1].isdecimal():
                raise PatternFormatError(
                    f"line {line_number}: patterns needs a non-negative count"
                )
            declared = int(fields[1])
        elif keyword == "pattern":
            if len(fields) != 3:
                raise PatternFormatError(
                    f"line {line_number}: pattern needs index and bits"
                )
            if fields[1] != str(len(bits)):
                raise PatternFormatError(
                    f"line {line_number}: pattern index {fields[1]!r}, "
                    f"expected {len(bits)}"
                )
            row = fields[2]
            bad = row.translate(_NOT_BITS)
            if bad:
                raise PatternFormatError(
                    f"line {line_number}: bad bit {bad[0]!r}"
                )
            if input_names and len(row) != len(input_names):
                raise PatternFormatError(
                    f"line {line_number}: width {len(row)} != "
                    f"{len(input_names)} declared inputs"
                )
            bits.append(row)
            expects.append(None)
        elif keyword == "expect":
            if not bits:
                raise PatternFormatError(
                    f"line {line_number}: expect before any pattern"
                )
            if len(fields) != 2:
                raise PatternFormatError(f"line {line_number}: expect needs bits")
            expects[-1] = _bits(fields[1], line_number)
        else:
            raise PatternFormatError(
                f"line {line_number}: unknown keyword {keyword!r}"
            )
    if declared >= 0 and declared != len(bits):
        raise PatternFormatError(
            f"declared {declared} patterns, found {len(bits)}"
        )
    return PatternFile(
        circuit=circuit,
        input_names=input_names,
        bits=bits,
        expects=expects,
    )


def load_patterns(path: str) -> PatternFile:
    """Read and parse a pattern file from disk."""
    with open(path) as handle:
        return parse_patterns(handle.read())
