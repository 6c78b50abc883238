"""Operand rename table (paper, Figure 3).

Similar to a register renamer but tracking *both* registers and memory
addresses.  Each live entry records the most recent producer of a
location, the value it wrote, and whether the value has been referenced.
It performs the data-dependence checks needed to merge instructions
into R-DFGs and detects the two ineffectual-write triggers:

* **non-modifying write (SV)** — the new value equals the entry's value;
* **unreferenced write (WW)** — the old producer is overwritten with its
  ref bit still clear.

The table is agnostic to the operand encoding: any hashable key works,
as long as register and memory keys cannot collide.  The readable
``("r", reg)``/``("m", addr)`` tuples (the :func:`reg_operand` /
:func:`mem_operand` helpers) are one such encoding; the IR-detector's
hot path uses disjoint integer ranges instead, which allocate nothing
and hash faster.  Entries are invalidated when their producer's trace
leaves the IR-detector's analysis scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Tuple

Operand = Hashable


def reg_operand(reg: int) -> Tuple[str, int]:
    return ("r", reg)


def mem_operand(addr: int) -> Tuple[str, int]:
    return ("m", addr)


#: An entry is a list ``[value, trace, index, ref, last_write_seq]``
#: (valid = present in the table).  ``trace``/``index`` are the handle of
#: the live producer: its trace's R-DFG (:class:`repro.core.rdfg.TraceGraph`
#: or any object with a ``seq``) and its node index there.  ``ref`` says
#: the value has been read.  ``last_write_seq`` is the trace of the most
#: recent write *including non-modifying writes*: an entry is invalidated
#: only when its last writer leaves the analysis scope, so a location kept
#: fresh by an ongoing stream of silent writes stays tracked (its live
#: producer may be older than the scope — selection decisions for that
#: producer have already been emitted, which is exactly the paper's scope
#: limitation).  A list rather than an object because one is allocated
#: per retired write; the IR-detector inlines this protocol against
#: :attr:`OperandRenameTable._entries` with these positions.
VALUE, TRACE, INDEX, REF, LAST_WRITE = range(5)

Handle = Tuple[object, int]


@dataclass
class WriteOutcome:
    """Result of recording a write.

    ``silent`` — the write was non-modifying (SV trigger; the old
    producer remains live).
    ``killed`` — the handle of the old producer whose value this write
    overwrote, or None.
    ``killed_unreferenced`` — the killed producer's ref bit was clear
    (WW trigger).
    """

    silent: bool = False
    killed: Optional[Handle] = None
    killed_unreferenced: bool = False


#: Shared immutable-by-convention outcomes for the two cases that carry
#: no per-write payload; one write per dynamic instruction makes the
#: allocation measurable.  Callers only ever read outcome fields.
_SILENT_OUTCOME = WriteOutcome(silent=True)
_FRESH_OUTCOME = WriteOutcome()


class OperandRenameTable:
    """Tracks the most recent producer of every live location."""

    def __init__(self) -> None:
        self._entries: Dict[Operand, list] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def read(self, operand: Operand) -> Optional[Handle]:
        """Record a read; returns the live producer's handle or None.

        Sets the entry's ref bit (the value has been used).
        """
        entry = self._entries.get(operand)
        if entry is None:
            return None
        entry[REF] = True
        return entry[TRACE], entry[INDEX]

    def peek_value(self, operand: Operand) -> Optional[int]:
        entry = self._entries.get(operand)
        return entry[VALUE] if entry is not None else None

    def write(
        self, operand: Operand, value: int, trace, index: int,
        detect_silent: bool = True,
    ) -> WriteOutcome:
        """Record a write by node ``index`` of ``trace``; detects SV/WW
        triggers and kills old values.

        On a non-modifying write the table keeps the old producer live
        (paper, section 2.1.2) and only refreshes the entry's scope
        lifetime.  With ``detect_silent=False`` (branch-only removal
        mode) equal values still replace the producer.
        """
        entry = self._entries.get(operand)
        if entry is not None:
            if detect_silent and entry[VALUE] == value:
                entry[LAST_WRITE] = trace.seq
                return _SILENT_OUTCOME
            outcome = WriteOutcome(killed=(entry[TRACE], entry[INDEX]),
                                   killed_unreferenced=not entry[REF])
            self._entries[operand] = [value, trace, index, False, trace.seq]
            return outcome
        self._entries[operand] = [value, trace, index, False, trace.seq]
        return _FRESH_OUTCOME

    def invalidate_if_stale(self, operand: Operand, trace_seq: int) -> None:
        """Drop the entry if its most recent writer belongs to the trace
        leaving the analysis scope (no newer write refreshed it)."""
        entry = self._entries.get(operand)
        if entry is not None and entry[LAST_WRITE] == trace_seq:
            del self._entries[operand]
