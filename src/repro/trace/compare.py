"""Comparison of trace predictions against actual traces.

Determines, for each actual trace, whether the front end's prediction
was correct and — if not — at which instruction the redirect anchors.
All three processor models charge branch mispredictions this way, so the
comparison lives in one place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.isa.instructions import InstrClass
from repro.trace.selection import CompletedTrace
from repro.trace.trace_id import TraceId


@dataclass(frozen=True)
class Divergence:
    """Where a trace prediction went wrong.

    kind:
        ``"boundary"`` — the predicted trace starts at the wrong PC; the
        redirect anchors at the *previous* trace's last instruction
        (``index == -1``).
        ``"outcome"`` — an embedded branch outcome is wrong; ``index``
        is the offending instruction's position within the actual trace.
    """

    kind: str
    index: int


def first_divergence(
    predicted: Optional[TraceId], actual: CompletedTrace
) -> Optional[Divergence]:
    """First point at which ``predicted`` diverges from ``actual``.

    With no prediction (cold predictor), the front end falls back to
    not-taken/sequential fetch with BTB-predicted direct jumps: the
    first taken conditional branch or indirect jump diverges.

    Returns None if the prediction matches the actual trace completely;
    an exactly matching id (the common case) is answered without
    walking the trace.
    """
    if predicted is None:
        return _fallback_divergence(actual)
    if predicted == actual.trace_id:
        return None
    if predicted.start_pc != actual.start_pc:
        return Divergence("boundary", -1)
    outcomes = predicted.outcomes
    position = 0
    for index, dyn in enumerate(actual.instructions):
        if not dyn.instr.is_branch:
            continue
        if position >= len(outcomes) or outcomes[position] != dyn.taken:
            return Divergence("outcome", index)
        position += 1
    return None


def _fallback_divergence(actual: CompletedTrace) -> Optional[Divergence]:
    for index, dyn in enumerate(actual.instructions):
        instr = dyn.instr
        if instr.is_branch and dyn.taken:
            return Divergence("outcome", index)
        if instr.klass is InstrClass.JUMP_INDIRECT:
            return Divergence("outcome", index)
    return None
