"""Instruction-removal detector (paper, section 2.1.2, Figure 3).

The IR-detector monitors the R-stream as it retires instructions.
Retired instructions and values construct per-trace reverse dataflow
graphs over an operand rename table, and three triggering conditions
select instructions for removal:

* unreferenced writes (WW),
* non-modifying writes (SV),
* branch instructions (BR — all conditional branches are candidates;
  the IR-predictor's confidence counter makes the final decision).

Selection back-propagates to producers whose consumers are all known
(value killed) and all selected.  The analysis scope is
``scope_traces`` (8) traces: back-propagation is confined to a single
trace, but value-kill detection spans the whole scope.  When a trace
becomes the oldest in the scope it retires: its instruction-removal bit
vector (ir-vec) is formed from the selected nodes and handed to the
IR-predictor.

The in-stream analysis is exact — WW/SV/propagation facts are true of
the observed dynamic instance; the *speculation* lies in predicting
that future instances of the trace behave identically.

``triggers`` restricts the trigger set; passing ``{"BR"}`` reproduces
the paper's branch-only removal experiment (Figure 8, bottom), where
ineffectual writes are not candidates and propagation flows only from
branches.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, FrozenSet, Iterable, List, Tuple

from repro.core.rdfg import BR, SV, TraceGraph, kill
from repro.core.removal import RemovalKind
from repro.core.rename_table import OperandRenameTable
from repro.isa.instructions import InstrClass, Instruction
from repro.trace.selection import CompletedTrace
from repro.trace.trace_id import TraceId

DEFAULT_SCOPE_TRACES = 8
ALL_TRIGGERS = frozenset({"BR", "WW", "SV"})

#: The rename table accepts any hashable operand key.  The detector
#: encodes operands as ints — register number for registers, address
#: offset past 2^32 for memory — instead of ``("r", n)``/``("m", a)``
#: tuples: int keys allocate nothing for registers and hash in one
#: operation, and this loop touches every retired instruction's
#: operands.  Addresses are < 2^32 (wrap32), so the spaces are disjoint.
_MEM_BASE = 1 << 32

#: Instruction classes that must never be removed: indirect jumps steer
#: control through dynamic targets, OUT is architectural program output,
#: HALT terminates the program.
_NEVER_REMOVABLE = (InstrClass.JUMP_INDIRECT, InstrClass.OUT, InstrClass.HALT)

#: Kind bits -> ``RemovalKind``, for every combination of the four bits.
_KINDS = tuple(RemovalKind(bits) for bits in range(16))


def _static_record(instr: Instruction) -> Tuple[Tuple[int, ...], bool, bool, bool, bool]:
    """What the detector needs of one static instruction: its source
    registers without r0, whether it loads, stores or branches, and
    whether it may ever be removed."""
    return (tuple(reg for reg in instr.srcs if reg), instr.is_load,
            instr.is_store, instr.is_branch, instr.klass not in _NEVER_REMOVABLE)


@dataclass
class TraceAnalysis:
    """The detector's verdict for one retired trace."""

    trace_seq: int
    trace_id: TraceId
    ir_vec: Tuple[bool, ...]
    kinds: Tuple[RemovalKind, ...]
    #: Per-instruction PCs (used by the per-instruction IR mechanism).
    pcs: Tuple[int, ...] = ()

    @property
    def removed_count(self) -> int:
        return sum(self.ir_vec)


class _ScopedTrace(TraceGraph):
    """A trace in the analysis scope: its R-DFG plus what the analysis
    reports and what leaving the scope invalidates."""

    __slots__ = ("trace_id", "touched", "pcs")

    def __init__(self, seq: int, trace_id: TraceId, size: int):
        super().__init__(seq, size)
        self.trace_id = trace_id
        #: Operands written by the trace (rename entries it may own).
        self.touched: List[int] = []
        self.pcs: List[int] = []


class IRDetector:
    """Monitors retired R-stream traces and emits removal analyses."""

    def __init__(
        self,
        scope_traces: int = DEFAULT_SCOPE_TRACES,
        triggers: Iterable[str] = ALL_TRIGGERS,
    ):
        if scope_traces < 1:
            raise ValueError("scope must hold at least one trace")
        self.scope_traces = scope_traces
        self.triggers: FrozenSet[str] = frozenset(triggers)
        unknown = self.triggers - ALL_TRIGGERS
        if unknown:
            raise ValueError(f"unknown triggers: {sorted(unknown)}")
        self._table = OperandRenameTable()
        #: PC -> :func:`_static_record` of the instruction there, resolved
        #: on first retirement (a detector watches one program's text).
        self._static: Dict[int, tuple] = {}
        self._scope: Deque[_ScopedTrace] = deque()
        self._next_seq = 0
        #: Observability tallies (:mod:`repro.obs`): retired analyses
        #: and total instructions they selected for removal.
        self.analyses = 0
        self.selected_total = 0
        # Trigger membership hoisted out of the per-instruction path.
        self._br_trigger = "BR" in self.triggers
        self._ww_trigger = "WW" in self.triggers
        self._sv_trigger = "SV" in self.triggers

    # ------------------------------------------------------------------

    def feed_trace(self, trace: CompletedTrace) -> List[TraceAnalysis]:
        """Merge one retired trace; returns analyses of traces that left
        the scope as a result (usually zero or one).

        The per-instruction merge is inlined with hoisted locals: this
        loop runs once per retired R-stream instruction.  It reads and
        writes the rename table's entry lists directly, with the same
        semantics as :meth:`OperandRenameTable.read`/``write``, which
        define the protocol and the entry layout
        ``[value, trace, index, ref, last_write_seq]``.
        """
        seq = self._next_seq
        self._next_seq += 1
        instructions = trace.instructions
        scoped = _ScopedTrace(seq, trace.trace_id, len(instructions))
        self._scope.append(scoped)
        pcs_append = scoped.pcs.append
        touched_append = scoped.touched.append
        kinds = scoped.kinds
        removable = scoped.removable
        consumers = scoped.consumers
        producers = scoped.producers
        entries = self._table._entries
        entries_get = entries.get
        static = self._static
        static_get = static.get
        br_trigger = self._br_trigger
        ww_trigger = self._ww_trigger
        sv_trigger = self._sv_trigger
        mem_base = _MEM_BASE
        for index, dyn in enumerate(instructions):
            pc = dyn.pc
            pcs_append(pc)
            record = static_get(pc)
            if record is None:
                record = static[pc] = _static_record(dyn.instr)
            srcs, is_load, is_store, is_branch, may_remove = record
            if not may_remove:
                removable[index] = False
            mem_addr = dyn.mem_addr
            # Source operands: same-trace producers gain an edge, others
            # an external reference disqualifying back-propagation.
            for reg in srcs:
                entry = entries_get(reg)
                if entry is not None:
                    entry[3] = True
                    if entry[1] is scoped:
                        producer = entry[2]
                        consumers[producer].append(index)
                        producers[index].append(producer)
                    else:
                        entry[1].external_ref[entry[2]] = True
            if is_load and mem_addr is not None:
                entry = entries_get(mem_addr + mem_base)
                if entry is not None:
                    entry[3] = True
                    if entry[1] is scoped:
                        producer = entry[2]
                        consumers[producer].append(index)
                        producers[index].append(producer)
                    else:
                        entry[1].external_ref[entry[2]] = True

            # Trigger: branch instructions are always selected at merge.
            # A merging node's producers are all live (none is killed
            # yet), so a trigger at merge cannot cascade and sets the
            # kind without ``select``.
            if is_branch and br_trigger:
                kinds[index] = BR

            # Destination operand: SV/WW detection and value kills.
            if is_store and mem_addr is not None:
                operand = mem_addr + mem_base
            elif dyn.dest_reg is not None and dyn.value is not None:
                operand = dyn.dest_reg
            else:
                continue
            value = dyn.value
            entry = entries_get(operand)
            if entry is None:
                entries[operand] = [value, scoped, index, False, seq]
            elif sv_trigger and entry[0] == value:
                # Non-modifying write: select; the old producer stays
                # live, but the write refreshes the entry's lifetime.
                entry[4] = seq
                if may_remove:
                    kinds[index] = SV
            else:
                entries[operand] = [value, scoped, index, False, seq]
                kill(entry[1], entry[2], ww_trigger and not entry[3])
            touched_append(operand)
        retired: List[TraceAnalysis] = []
        while len(self._scope) > self.scope_traces:
            retired.append(self._retire_oldest())
        return retired

    def drain(self) -> List[TraceAnalysis]:
        """Retire every trace still in the scope (end of program)."""
        retired = []
        while self._scope:
            retired.append(self._retire_oldest())
        return retired

    # ------------------------------------------------------------------

    def _retire_oldest(self) -> TraceAnalysis:
        scoped = self._scope.popleft()
        # OperandRenameTable.invalidate_if_stale, inlined.
        seq = scoped.seq
        entries = self._table._entries
        entries_get = entries.get
        for operand in scoped.touched:
            entry = entries_get(operand)
            if entry is not None and entry[4] == seq:
                del entries[operand]
        bits = scoped.kinds
        kinds = tuple(map(_KINDS.__getitem__, bits))
        ir_vec = tuple(map(bool, bits))
        self.analyses += 1
        self.selected_total += len(bits) - bits.count(0)
        return TraceAnalysis(scoped.seq, scoped.trace_id, ir_vec, kinds,
                             tuple(scoped.pcs))

    def snapshot(self) -> dict:
        """Observability tallies (:mod:`repro.obs`)."""
        return {
            "analyses": self.analyses,
            "selected_total": self.selected_total,
        }
