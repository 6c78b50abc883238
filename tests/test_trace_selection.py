"""Unit tests for trace selection, trace ids, and static trace expansion."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.functional import FunctionalSimulator
from repro.isa.assembler import assemble
from repro.isa.instructions import InstrClass
from repro.trace.compare import Divergence, first_divergence
from repro.trace.selection import (
    StaticTraceWalker,
    TraceExpansionError,
    TraceSelector,
    TRACE_LENGTH,
    trace_id_of,
)
from repro.trace.trace_id import TraceId


LOOP_PROGRAM = """
main:
    addi r1, r0, 100
loop:
    addi r2, r2, 1
    addi r1, r1, -1
    bne  r1, r0, loop
    halt
"""


@st.composite
def _call_loop_text(draw):
    """Random loop mixing ALU ops, LCG-driven conditional branches,
    direct jumps and ``jal``/``jalr`` calls, ending in ``halt``: every
    way a trace can grow or end under the selection policy."""
    lines = [
        "main:",
        f"    addi r5, r0, {draw(st.integers(1, 60000))}",
        f"    addi r1, r0, {draw(st.integers(2, 12))}",
        "loop:",
    ]
    for i in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["alu", "branch", "jump", "call"]))
        if kind == "alu":
            lines.append(f"    add r{draw(st.integers(2, 4))}, r2, r3")
        elif kind == "branch":
            lines += ["    lui  r6, 0x41c6",
                      "    ori  r6, r6, 0x4e6d",
                      "    mul  r5, r5, r6",
                      "    addi r5, r5, 12345",
                      f"    srli r7, r5, {draw(st.integers(20, 28))}",
                      "    andi r7, r7, 1",
                      f"    beq  r7, r0, skip{i}",
                      "    addi r2, r2, 1",
                      f"skip{i}:"]
        elif kind == "jump":
            lines += [f"    j over{i}", "    nop", f"over{i}:"]
        else:
            lines.append("    jal r31, func")
    lines += ["    addi r1, r1, -1",
              "    bne  r1, r0, loop",
              "    halt",
              "func:",
              "    addi r9, r9, 1",
              "    jalr r0, r31"]
    return "\n".join(lines)


def _reference_traces(stream, trace_length):
    """Chunk a stream one ``feed`` at a time, then ``flush``."""
    selector = TraceSelector(trace_length)
    traces = [t for t in map(selector.feed, stream) if t is not None]
    tail = selector.flush()
    return traces + ([tail] if tail is not None else [])


def _walk_divergence(predicted, actual):
    """``first_divergence`` without the exact-match shortcut: every
    prediction is answered by walking the actual trace."""
    if predicted is None:
        for index, dyn in enumerate(actual.instructions):
            if dyn.instr.is_branch and dyn.taken:
                return Divergence("outcome", index)
            if dyn.instr.klass is InstrClass.JUMP_INDIRECT:
                return Divergence("outcome", index)
        return None
    if predicted.start_pc != actual.start_pc:
        return Divergence("boundary", -1)
    position = 0
    for index, dyn in enumerate(actual.instructions):
        if not dyn.instr.is_branch:
            continue
        if (position >= len(predicted.outcomes)
                or predicted.outcomes[position] != dyn.taken):
            return Divergence("outcome", index)
        position += 1
    return None


def traces_of(source, trace_length=TRACE_LENGTH):
    program = assemble(source)
    sim = FunctionalSimulator(program)
    selector = TraceSelector(trace_length)
    return program, list(selector.chunk(sim.steps()))


class TestTraceSelector:
    def test_traces_cover_whole_stream(self):
        program, traces = traces_of(LOOP_PROGRAM)
        total = sum(len(t) for t in traces)
        count = FunctionalSimulator(program).run().instruction_count
        assert total == count

    def test_length_limit_respected(self):
        _, traces = traces_of(LOOP_PROGRAM, trace_length=8)
        assert all(len(t) <= 8 for t in traces)

    def test_halt_terminates_trace(self):
        _, traces = traces_of("nop\nnop\nhalt")
        assert len(traces) == 1
        assert traces[-1].instructions[-1].instr.opcode.mnemonic == "halt"

    def test_jalr_terminates_trace(self):
        source = """
        main:
            jal r31, func
            halt
        func:
            nop
            jalr r0, r31
        """
        _, traces = traces_of(source, trace_length=32)
        # jal..func..jalr is one trace (jalr cuts it), halt is the next.
        assert len(traces) == 2
        assert traces[0].instructions[-1].instr.opcode.mnemonic == "jalr"

    def test_trace_id_outcomes_match_branches(self):
        _, traces = traces_of(LOOP_PROGRAM, trace_length=6)
        for trace in traces:
            branch_count = sum(1 for d in trace.instructions if d.is_branch)
            assert trace.trace_id.branch_count == branch_count

    def test_same_path_same_ids(self):
        """Determinism: two identical runs chunk identically."""
        _, t1 = traces_of(LOOP_PROGRAM, trace_length=8)
        _, t2 = traces_of(LOOP_PROGRAM, trace_length=8)
        assert [t.trace_id for t in t1] == [t.trace_id for t in t2]

    def test_bad_trace_length_rejected(self):
        with pytest.raises(ValueError):
            TraceSelector(0)

    def test_flush_returns_partial(self):
        selector = TraceSelector(32)
        program = assemble("nop\nnop\nhalt")
        stream = list(FunctionalSimulator(program).steps())
        for dyn in stream[:-1]:
            assert selector.feed(dyn) is None
        # Stream ended without a terminator: flush yields the remainder.
        selector2 = TraceSelector(32)
        for dyn in stream[:2]:
            selector2.feed(dyn)
        tail = selector2.flush()
        assert tail is not None and len(tail) == 2


class TestChunkMatchesFeed:
    """``chunk`` is the ``feed``/``flush`` loop, trace for trace."""

    @given(_call_loop_text(), st.sampled_from([1, 5, 32]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_chunk_equals_feed_reference(self, source, trace_length, data):
        stream = list(FunctionalSimulator(assemble(source)).steps())
        assert stream[-1].instr.klass is InstrClass.HALT
        # The full stream ends in halt; a shorter one is cut mid-trace.
        cut = data.draw(st.integers(1, len(stream)), label="cut")
        got = list(TraceSelector(trace_length).chunk(iter(stream[:cut])))
        want = _reference_traces(stream[:cut], trace_length)
        assert [t.trace_id for t in got] == [t.trace_id for t in want]
        assert [t.instructions for t in got] == [t.instructions for t in want]

    def test_chunk_resumes_after_feed(self):
        stream = list(FunctionalSimulator(assemble(LOOP_PROGRAM)).steps())
        whole = list(TraceSelector(32).chunk(iter(stream)))
        # Stop feeding right after the first bne, so a branch is pending.
        first_branch = next(i for i, d in enumerate(stream) if d.is_branch)
        for split in (1, first_branch + 1, first_branch + 3):
            selector = TraceSelector(32)
            for dyn in stream[:split]:
                assert selector.feed(dyn) is None
            resumed = list(selector.chunk(iter(stream[split:])))
            assert [t.trace_id for t in resumed] == [t.trace_id for t in whole]
            assert ([t.instructions for t in resumed]
                    == [t.instructions for t in whole])

    def test_ends_trace_flag(self):
        program = assemble("main: jal r31, f\nhalt\nf: jalr r0, r31")
        assert [i.ends_trace for i in program.instructions] == [
            False, True, True]


class TestDivergenceFastPath:
    """The exact-match shortcut answers as the full walk would."""

    @given(_call_loop_text(), st.sampled_from([1, 5, 32]))
    @settings(max_examples=25, deadline=None)
    def test_matches_full_walk(self, source, trace_length):
        _, traces = traces_of(source, trace_length)
        for trace in traces:
            tid = trace.trace_id
            outcomes = tid.outcomes
            candidates = [
                None,
                tid,
                TraceId(tid.start_pc, outcomes),
                TraceId(tid.start_pc + 4, outcomes),
                TraceId(tid.start_pc, outcomes + (True,)),
                TraceId(tid.start_pc, outcomes[:-1]),
            ]
            candidates += [
                TraceId(tid.start_pc,
                        outcomes[:k] + (not outcomes[k],) + outcomes[k + 1:])
                for k in range(len(outcomes))
            ]
            for predicted in candidates:
                assert (first_divergence(predicted, trace)
                        == _walk_divergence(predicted, trace))


class TestTraceId:
    def test_mix_is_deterministic(self):
        tid = TraceId(0x1000, (True, False, True))
        assert tid.mix() == TraceId(0x1000, (True, False, True)).mix()

    def test_mix_differs_on_outcomes(self):
        a = TraceId(0x1000, (True,))
        b = TraceId(0x1000, (False,))
        assert a.mix() != b.mix()

    def test_str_encodes_path(self):
        assert str(TraceId(0x1000, (True, False))) == "0x1000:TN"


class TestStaticTraceWalker:
    def test_expansion_matches_dynamic_trace(self):
        program, traces = traces_of(LOOP_PROGRAM, trace_length=8)
        walker = StaticTraceWalker(program, trace_length=8)
        for trace in traces:
            steps = walker.expand(trace.trace_id)
            assert [s.pc for s in steps] == [d.pc for d in trace.instructions]
            assert [s.instr for s in steps] == [d.instr for d in trace.instructions]

    def test_expansion_follows_direct_jumps(self):
        source = "main:\n j skip\nnever: nop\nskip: nop\nhalt"
        program, traces = traces_of(source)
        walker = StaticTraceWalker(program)
        steps = walker.expand(traces[0].trace_id)
        pcs = [s.pc for s in steps]
        assert program.labels["never"] not in pcs
        assert program.labels["skip"] in pcs

    def test_indirect_jump_has_unknown_next_pc(self):
        source = "main: jal r31, f\nhalt\nf: jalr r0, r31"
        program, traces = traces_of(source)
        walker = StaticTraceWalker(program)
        steps = walker.expand(traces[0].trace_id)
        assert steps[-1].instr.opcode.mnemonic == "jalr"
        assert steps[-1].next_pc is None

    def test_too_few_outcomes_raises(self):
        program, traces = traces_of(LOOP_PROGRAM, trace_length=8)
        tid = traces[0].trace_id
        if tid.branch_count == 0:
            pytest.skip("first trace embeds no branch")
        bad = TraceId(tid.start_pc, tid.outcomes[:-1])
        with pytest.raises(TraceExpansionError):
            StaticTraceWalker(program, trace_length=8).expand(bad)

    def test_bad_start_pc_raises(self):
        program, _ = traces_of(LOOP_PROGRAM)
        with pytest.raises(TraceExpansionError):
            StaticTraceWalker(program).expand(TraceId(0xDEAD0, ()))

    def test_trace_id_of_roundtrip(self):
        _, traces = traces_of(LOOP_PROGRAM, trace_length=8)
        for trace in traces:
            assert trace_id_of(trace.instructions) == trace.trace_id
