"""Static trace selection policy.

Traces are the unit of prediction, instruction removal and IR-detector
analysis (the paper uses length-32 traces throughout).  The policy must
be *consistent* — the same dynamic path always chunks into the same
traces — or trace prediction cannot learn (paper, section 2.1.3).

Policy: a trace accumulates dynamic instructions and terminates at

* 32 instructions (``TRACE_LENGTH``),
* an indirect jump (``jalr``) — its target is data-dependent and cannot
  be embedded in a trace id, so it ends the trace, or
* ``halt``.

Conditional branches are *embedded*: their taken/not-taken outcomes are
encoded in the trace id.  Direct jumps (``j``/``jal``) are embedded but
contribute no outcome bit (their targets are static).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

from repro.arch.executor import DynInstr
from repro.isa.instructions import InstrClass, Instruction, WORD
from repro.isa.program import Program
from repro.trace.trace_id import TraceId

TRACE_LENGTH = 32


@dataclass
class CompletedTrace:
    """A finished dynamic trace: its instructions and canonical id."""

    instructions: List[DynInstr]
    trace_id: TraceId

    def __len__(self) -> int:
        return len(self.instructions)

    @property
    def start_pc(self) -> int:
        return self.trace_id.start_pc

    @property
    def next_pc(self) -> int:
        """PC of the instruction following this trace."""
        return self.instructions[-1].next_pc


def trace_id_of(instructions: List[DynInstr]) -> TraceId:
    """Compute the canonical id of a completed dynamic trace."""
    outcomes = tuple([d.taken for d in instructions if d.instr.is_branch])
    return TraceId(start_pc=instructions[0].pc, outcomes=outcomes)


class TraceSelector:
    """Streaming trace chunker over a dynamic instruction stream."""

    def __init__(self, trace_length: int = TRACE_LENGTH):
        if trace_length < 1:
            raise ValueError("trace_length must be positive")
        self.trace_length = trace_length
        self._pending: List[DynInstr] = []

    def feed(self, dyn: DynInstr) -> Optional[CompletedTrace]:
        """Add one retired instruction; return a trace when one completes."""
        self._pending.append(dyn)
        if len(self._pending) >= self.trace_length or dyn.instr.ends_trace:
            return self._complete()
        return None

    def flush(self) -> Optional[CompletedTrace]:
        """Complete any partial trace (end of stream)."""
        if self._pending:
            return self._complete()
        return None

    def _complete(self) -> CompletedTrace:
        trace = CompletedTrace(self._pending, trace_id_of(self._pending))
        self._pending = []
        return trace

    def chunk(self, stream: Iterator[DynInstr]) -> Iterator[CompletedTrace]:
        """Chunk an entire stream into traces.

        Gives the same traces as :meth:`feed` per instruction then
        :meth:`flush`, and resumes from anything ``feed`` left pending.
        """
        trace_length = self.trace_length
        pending = self._pending
        outcomes = [d.taken for d in pending if d.instr.is_branch]
        for dyn in stream:
            pending.append(dyn)
            instr = dyn.instr
            if instr.is_branch:
                outcomes.append(dyn.taken)
            if instr.ends_trace or len(pending) >= trace_length:
                trace = CompletedTrace(
                    pending, TraceId(pending[0].pc, tuple(outcomes))
                )
                pending = self._pending = []
                outcomes = []
                yield trace
        tail = self.flush()
        if tail is not None:
            yield tail


@dataclass
class PredictedStep:
    """One instruction along a predicted trace path."""

    pc: int
    instr: Instruction
    #: Predicted taken-ness (meaningful for control instructions).
    taken: bool
    #: Predicted next PC (None after an indirect jump — unknown statically).
    next_pc: Optional[int]


class TraceExpansionError(Exception):
    """A trace id does not correspond to a walkable static path."""


class StaticTraceWalker:
    """Expands trace ids into predicted instruction sequences.

    The A-stream fetches along the *predicted* path: given a trace id it
    needs the concrete instructions (and their predicted next-PCs)
    without executing anything.  This walker reconstructs that path from
    the static program text.
    """

    def __init__(self, program: Program, trace_length: int = TRACE_LENGTH):
        self.program = program
        self.trace_length = trace_length

    def expand(self, trace_id: TraceId) -> List[PredictedStep]:
        """Expand a trace id into its predicted steps.

        Raises :class:`TraceExpansionError` if the id is inconsistent
        with the program text (wrong branch count, PC off the text
        segment) — a corrupted prediction a real front end would squash.
        """
        steps: List[PredictedStep] = []
        pc = trace_id.start_pc
        outcome_iter = iter(trace_id.outcomes)
        for _ in range(self.trace_length):
            if not self.program.contains_pc(pc):
                raise TraceExpansionError(f"predicted PC {pc:#x} outside text")
            instr = self.program.at(pc)
            if instr.is_branch:
                try:
                    taken = next(outcome_iter)
                except StopIteration:
                    raise TraceExpansionError(
                        f"trace id {trace_id} has too few branch outcomes"
                    ) from None
                next_pc = instr.target if taken else pc + WORD
                steps.append(PredictedStep(pc, instr, taken, next_pc))
            elif instr.klass is InstrClass.JUMP:
                steps.append(PredictedStep(pc, instr, True, instr.target))
            elif instr.klass is InstrClass.JUMP_INDIRECT:
                steps.append(PredictedStep(pc, instr, True, None))
                break
            elif instr.klass is InstrClass.HALT:
                steps.append(PredictedStep(pc, instr, False, pc))
                break
            else:
                steps.append(PredictedStep(pc, instr, False, pc + WORD))
            next_pc = steps[-1].next_pc
            assert next_pc is not None
            pc = next_pc
        remaining = sum(1 for _ in outcome_iter)
        if remaining:
            raise TraceExpansionError(
                f"trace id {trace_id} has {remaining} unused branch outcomes"
            )
        return steps
