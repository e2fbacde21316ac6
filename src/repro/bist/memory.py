"""Behavioral SRAM model with injectable memory faults.

AI chips devote most of their area to on-chip SRAM (weight and activation
buffers), so memory BIST carries a large share of the test burden.  The
model here is a bit-oriented array (one bit per address — word-oriented
arrays run one bit-slice at a time, exactly how March tests treat them)
with the classic functional fault models injected as read/write hooks:

=========  ======================================================
``SAF``    stuck-at fault: the cell always holds 0 or 1
``TF``     transition fault: the cell cannot make one transition
``CFin``   inversion coupling: an aggressor *transition* inverts the victim
``CFid``   idempotent coupling: an aggressor transition forces the victim
``CFst``   state coupling: while the aggressor holds a state, the victim
           is forced to a value (checked on victim reads)
``AF``     address-decoder fault: two addresses select the same cell
``SOF``    stuck-open fault: reading the cell returns the previous read
=========  ======================================================
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Dict, List, Sequence


@dataclass(frozen=True)
class MemoryFault:
    """One injected functional fault.

    Field meaning depends on ``kind``:

    * ``SAF``: ``cell``, ``value`` (stuck value)
    * ``TF``: ``cell``, ``value`` (the unreachable target: 1 = can't rise)
    * ``CFin``: ``cell`` (victim), ``aggressor``, ``value`` (aggressor
      transition direction: 1 = rising)
    * ``CFid``: victim ``cell``, ``aggressor``, ``value`` (forced victim
      value), ``aggressor_transition`` (1 = rising)
    * ``CFst``: victim ``cell``, ``aggressor``, ``value`` (forced victim
      value), ``aggressor_state``
    * ``AF``: ``cell`` (the shadowed address), ``aggressor`` (the address it
      aliases to)
    * ``SOF``: ``cell``
    """

    kind: str
    cell: int
    aggressor: int = -1
    value: int = 0
    aggressor_transition: int = 1
    aggressor_state: int = 1

    def describe(self) -> str:
        if self.kind == "SAF":
            return f"SAF cell {self.cell} stuck-at-{self.value}"
        if self.kind == "TF":
            direction = "rise" if self.value else "fall"
            return f"TF cell {self.cell} cannot {direction}"
        if self.kind == "CFin":
            edge = "rising" if self.value else "falling"
            return f"CFin victim {self.cell} flips on {edge} write to {self.aggressor}"
        if self.kind == "CFid":
            edge = "rising" if self.aggressor_transition else "falling"
            return (
                f"CFid victim {self.cell} forced to {self.value} on {edge} "
                f"write to {self.aggressor}"
            )
        if self.kind == "CFst":
            return (
                f"CFst victim {self.cell} reads {self.value} while "
                f"{self.aggressor}=={self.aggressor_state}"
            )
        if self.kind == "AF":
            return f"AF address {self.cell} aliases to {self.aggressor}"
        if self.kind == "SOF":
            return f"SOF cell {self.cell} (read returns previous read)"
        return f"{self.kind}?"


#: All supported fault kinds, in the order the E7 matrix reports them.
FAULT_KINDS = ("SAF", "TF", "CFin", "CFid", "CFst", "AF", "SOF")


class Memory:
    """Bit-oriented SRAM with optional injected faults."""

    def __init__(self, n_cells: int, faults: Sequence[MemoryFault] = ()):
        if n_cells < 2:
            raise ValueError("memory needs at least two cells")
        self.n_cells = n_cells
        self.cells: List[int] = [0] * n_cells
        self.faults = list(faults)
        self._last_read: Dict[int, int] = {}
        for fault in self.faults:
            self._check_fault(fault)

    def _check_fault(self, fault: MemoryFault) -> None:
        if fault.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {fault.kind!r}")
        if not 0 <= fault.cell < self.n_cells:
            raise ValueError(f"fault cell {fault.cell} out of range")
        if fault.kind in ("CFin", "CFid", "CFst", "AF"):
            if not 0 <= fault.aggressor < self.n_cells:
                raise ValueError(f"aggressor {fault.aggressor} out of range")
            if fault.aggressor == fault.cell:
                raise ValueError("aggressor and victim must differ")

    def _effective_address(self, address: int) -> int:
        """Apply address-decoder faults."""
        for fault in self.faults:
            if fault.kind == "AF" and fault.cell == address:
                return fault.aggressor
        return address

    def write(self, address: int, value: int) -> None:
        """Write one bit, honouring every injected fault."""
        if not 0 <= address < self.n_cells:
            raise IndexError(f"address {address} out of range")
        value &= 1
        address = self._effective_address(address)
        old = self.cells[address]
        new = value
        for fault in self.faults:
            if fault.kind == "SAF" and fault.cell == address:
                new = fault.value
            elif fault.kind == "TF" and fault.cell == address:
                if old != fault.value and new == fault.value:
                    new = old  # the transition does not happen
        self.cells[address] = new

        # Coupling effects triggered by an aggressor transition.
        if new != old:
            rising = 1 if new == 1 else 0
            for fault in self.faults:
                if fault.aggressor != address:
                    continue
                if fault.kind == "CFin" and fault.value == rising:
                    victim = fault.cell
                    self.cells[victim] = self._apply_cell_faults(
                        victim, 1 - self.cells[victim]
                    )
                elif fault.kind == "CFid" and fault.aggressor_transition == rising:
                    victim = fault.cell
                    self.cells[victim] = self._apply_cell_faults(victim, fault.value)

    def _apply_cell_faults(self, cell: int, value: int) -> int:
        """SAF/TF constraints on a coupling-forced victim value."""
        old = self.cells[cell]
        for fault in self.faults:
            if fault.kind == "SAF" and fault.cell == cell:
                return fault.value
            if fault.kind == "TF" and fault.cell == cell:
                if old != fault.value and value == fault.value:
                    return old
        return value

    def read(self, address: int) -> int:
        """Read one bit, honouring every injected fault."""
        if not 0 <= address < self.n_cells:
            raise IndexError(f"address {address} out of range")
        address = self._effective_address(address)
        value = self.cells[address]
        for fault in self.faults:
            if fault.kind == "SAF" and fault.cell == address:
                value = fault.value
            elif fault.kind == "CFst" and fault.cell == address:
                if self.cells[fault.aggressor] == fault.aggressor_state:
                    value = fault.value
            elif fault.kind == "SOF" and fault.cell == address:
                value = self._last_read.get(address, value)
        self._last_read[address] = value
        return value


def sample_faults(
    n_cells: int,
    kind: str,
    count: int,
    seed: int = 0,
) -> List[MemoryFault]:
    """Draw ``count`` random single faults of one kind (for E7).

    The stream depends only on the arguments: the per-kind seed uses a
    stable hash of ``kind``, never the process-salted ``hash(str)``.
    """
    if n_cells < 2:
        raise ValueError(f"need at least 2 memory cells, got {n_cells}")
    if count < 1:
        raise ValueError(f"need at least 1 fault sample, got {count}")
    rng = random.Random(seed ^ zlib.crc32(kind.encode()) & 0xFFFF)
    faults: List[MemoryFault] = []
    for _ in range(count):
        cell = rng.randrange(n_cells)
        aggressor = rng.randrange(n_cells)
        while aggressor == cell:
            aggressor = rng.randrange(n_cells)
        if kind == "SAF":
            faults.append(MemoryFault("SAF", cell, value=rng.randint(0, 1)))
        elif kind == "TF":
            faults.append(MemoryFault("TF", cell, value=rng.randint(0, 1)))
        elif kind == "CFin":
            faults.append(
                MemoryFault("CFin", cell, aggressor=aggressor, value=rng.randint(0, 1))
            )
        elif kind == "CFid":
            faults.append(
                MemoryFault(
                    "CFid",
                    cell,
                    aggressor=aggressor,
                    value=rng.randint(0, 1),
                    aggressor_transition=rng.randint(0, 1),
                )
            )
        elif kind == "CFst":
            faults.append(
                MemoryFault(
                    "CFst",
                    cell,
                    aggressor=aggressor,
                    value=rng.randint(0, 1),
                    aggressor_state=rng.randint(0, 1),
                )
            )
        elif kind == "AF":
            faults.append(MemoryFault("AF", cell, aggressor=aggressor))
        elif kind == "SOF":
            faults.append(MemoryFault("SOF", cell))
        else:
            raise ValueError(f"unknown fault kind {kind!r}")
    return faults
