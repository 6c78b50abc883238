"""Tests for the trace timing engine (:mod:`repro.uarch.compiled_timing`).

The engine schedules a trace at a time, optionally replaying memoized
per-trace timing deltas with integer adds; its whole contract is
*bit-identity* with the per-instruction :meth:`OoOScheduler.add_args`
semantics.  These tests check that contract four ways: differentially
on random traces against an ``add_args`` loop (in the three call shapes
the models use), property-based over random programs (superscalar
timestamps and full slipstream results), through the timeline recorder
(tracing must compose with, not bypass, the engine), and through
observability (instrumentation stays neutral while the
hit/miss/fallback counters surface in snapshots and RunReports).
"""

import os
from contextlib import contextmanager
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.slipstream import SlipstreamProcessor
from repro.isa.assembler import assemble
from repro.obs import Observability
from repro.obs.report import build_report
from repro.uarch.cache import Cache
from repro.uarch.compiled_timing import (
    TIMING_ENV,
    TraceTimingEngine,
    compiled_timing_enabled,
)
from repro.uarch.config import CacheConfig, SS_64x4
from repro.uarch.core import SuperscalarCore
from repro.uarch.scheduler import OoOScheduler
from repro.uarch.timeline import trace_core_timeline


@contextmanager
def _timing_mode(flag):
    """Force the compiled-timing mode for the enclosed construction."""
    old = os.environ.get(TIMING_ENV)
    os.environ[TIMING_ENV] = flag
    try:
        yield
    finally:
        if old is None:
            os.environ.pop(TIMING_ENV, None)
        else:
            os.environ[TIMING_ENV] = old


# A loop long enough that trace signatures recur, so the engine records
# deltas (second sight) and replays them — without hits these tests
# would only exercise the scalar fallback.
REPLAY_LOOP = """
main:
    addi r1, r0, 600
    addi r5, r0, 12345
    addi r20, r0, 512
loop:
    lui  r6, 0x41c6
    ori  r6, r6, 0x4e6d
    mul  r5, r5, r6
    addi r5, r5, 12345
    srli r7, r5, 27
    andi r7, r7, 1
    andi r21, r5, 252
    add  r21, r21, r20
    lw   r8, 0(r21)
    add  r8, r8, r7
    sw   r8, 0(r21)
    beq  r7, r0, skip
    addi r2, r2, 1
skip:
    addi r1, r1, -1
    bne  r1, r0, loop
    out  r2
    halt
"""


@st.composite
def _program_text(draw):
    """Random looped program mixing ALU ops, long-latency multiplies,
    masked (always aligned, non-negative) loads/stores, and
    LCG-driven data-dependent branches — enough entropy to exercise
    redirects, i/d-cache penalties and store-forwarding mixes, enough
    repetition that the memoized engine actually gets hits."""
    lines = [
        "main:",
        "    addi r20, r0, 512",
        f"    addi r5, r0, {draw(st.integers(1, 60000))}",
        f"    addi r1, r0, {draw(st.integers(30, 120))}",
        "loop:",
    ]
    for i in range(draw(st.integers(2, 10))):
        kind = draw(st.sampled_from(
            ["alu", "alu", "mul", "load", "store", "branch"]))
        d = draw(st.sampled_from([2, 3, 4, 8]))
        a = draw(st.sampled_from([2, 3, 4, 5, 8]))
        b = draw(st.sampled_from([2, 3, 4, 5, 8]))
        if kind == "alu":
            op = draw(st.sampled_from(["add", "xor"]))
            lines.append(f"    {op} r{d}, r{a}, r{b}")
        elif kind == "mul":
            lines.append(f"    mul r{d}, r{a}, r{b}")
        elif kind == "load":
            lines += ["    andi r21, r5, 252",
                      "    add  r21, r21, r20",
                      f"    lw   r{d}, 0(r21)"]
        elif kind == "store":
            lines += ["    andi r21, r5, 252",
                      "    add  r21, r21, r20",
                      f"    sw   r{a}, 0(r21)"]
        else:
            lines += ["    lui  r6, 0x41c6",
                      "    ori  r6, r6, 0x4e6d",
                      "    mul  r5, r5, r6",
                      "    addi r5, r5, 12345",
                      f"    srli r7, r5, {draw(st.integers(20, 28))}",
                      "    andi r7, r7, 1",
                      f"    beq  r7, r0, skip{i}",
                      f"    addi r{d}, r{d}, 1",
                      f"skip{i}:"]
    lines += ["    addi r1, r1, -1",
              "    bne  r1, r0, loop",
              "    out  r2",
              "    halt"]
    return "\n".join(lines)


class TestTimestampIdentity:
    """The engine's output is the scalar scheduler's, bit for bit."""

    @given(_program_text())
    @settings(max_examples=25, deadline=None)
    def test_superscalar_timestamps_match_scalar_scheduler(self, source):
        """Every pipeline stamp of every instruction is identical
        whether the core schedules through memoized deltas or through
        per-instruction ``OoOScheduler.add`` calls."""
        program = assemble(source, name="prop")
        stamps = {}
        results = {}
        for flag in ("1", "0"):
            with _timing_mode(flag):
                core = SuperscalarCore(SS_64x4, program)
                timeline = trace_core_timeline(core, limit=1 << 30)
                results[flag] = core.run()
                stamps[flag] = [e.stamps for e in timeline.entries]
        assert stamps["1"] == stamps["0"]
        assert results["1"] == results["0"]

    @given(_program_text())
    @settings(max_examples=12, deadline=None)
    def test_slipstream_result_identical(self, source):
        """The full co-simulation (A-stream redirects, R-phase
        ready-override mixes, recovery) is the same with a pass-through
        fault hook as without one: the hooked path is the unhooked one."""
        program = assemble(source, name="prop")
        plain = SlipstreamProcessor(program).run()
        hooked = SlipstreamProcessor(
            program, fault_hook=lambda s, d, st, c: d).run()
        assert hooked == plain

    def test_env_opt_out(self):
        with _timing_mode("0"):
            assert not compiled_timing_enabled()
        with _timing_mode("1"):
            assert compiled_timing_enabled()


class TestTimelineComposition:
    """trace_core_timeline must compose with the engine, not bypass it."""

    def test_traced_equals_untraced_with_engine(self):
        program = assemble(REPLAY_LOOP, name="replay")
        with _timing_mode("1"):
            plain = SuperscalarCore(SS_64x4, program).run()
            core = SuperscalarCore(SS_64x4, program)
            timeline = trace_core_timeline(core, limit=1 << 30)
            traced = core.run()
        assert traced == plain
        assert len(timeline.entries) == plain.retired
        # The recorder wraps the scheduler; the engine must have bound
        # to the real one underneath and kept replaying blocks.
        assert core.scheduler.timing_block_hit > 0

    def test_traced_stamps_match_scalar_traced_stamps(self):
        program = assemble(REPLAY_LOOP, name="replay")
        stamps = {}
        for flag in ("1", "0"):
            with _timing_mode(flag):
                core = SuperscalarCore(SS_64x4, program)
                timeline = trace_core_timeline(core, limit=1 << 30)
                core.run()
                stamps[flag] = [e.stamps for e in timeline.entries]
        assert stamps["1"] == stamps["0"]

    def test_recording_limit_still_respected(self):
        program = assemble(REPLAY_LOOP, name="replay")
        with _timing_mode("1"):
            core = SuperscalarCore(SS_64x4, program)
            timeline = trace_core_timeline(core, limit=16)
            core.run()
        assert len(timeline.entries) == 16


class TestObservability:
    """Hit/miss/fallback tallies are visible, and observing is free."""

    def test_scheduler_snapshot_has_timing_counters(self):
        program = assemble(REPLAY_LOOP, name="replay")
        with _timing_mode("1"):
            core = SuperscalarCore(SS_64x4, program)
            core.run()
        snap = core.scheduler.snapshot()
        for name in ("timing_block_hit", "timing_block_miss",
                     "timing_fallback"):
            assert name in snap
        assert snap["timing_block_hit"] > 0
        assert snap["timing_block_miss"] > 0

    def test_obs_on_off_bit_identity_and_report_rows(self):
        """The slipstream engines never memoize: every trace of both
        streams counts as a fallback to the exact pass."""
        program = assemble(REPLAY_LOOP, name="replay")
        plain = SlipstreamProcessor(program).run()
        obs = Observability()
        observed = SlipstreamProcessor(program, obs=obs).run()
        assert observed == plain
        report = build_report("cmp/replay@1", "cmp", "replay", observed, obs)
        for prefix in ("a_sched.", "r_sched."):
            for name in ("timing_block_hit", "timing_block_miss",
                         "timing_fallback"):
                assert prefix + name in report.counters
            assert report.counters[prefix + "timing_block_hit"] == 0
            assert report.counters[prefix + "timing_block_miss"] == 0
            assert report.counters[prefix + "timing_fallback"] > 0

    def test_scalar_mode_counts_nothing(self):
        program = assemble(REPLAY_LOOP, name="replay")
        with _timing_mode("0"):
            core = SuperscalarCore(SS_64x4, program)
            core.run()
        snap = core.scheduler.snapshot()
        assert snap["timing_block_hit"] == 0
        assert snap["timing_block_miss"] == 0
        assert snap["timing_fallback"] == 0


# ----------------------------------------------------------------------
# Differential test: TraceTimingEngine.schedule vs an add_args loop.
# ----------------------------------------------------------------------

#: A paper core and a tiny one whose caches, ROB and widths bind often.
_DIFF_CORES = (
    SS_64x4,
    replace(SS_64x4, name="tiny", fetch_width=4, dispatch_width=2,
            issue_width=2, retire_width=2, rob_size=6,
            icache=CacheConfig(256, 2, 64, 12),
            dcache=CacheConfig(128, 2, 32, 14)),
)
_DIFF_ADDRS = (0x8000, 0x8004, 0x8020, 0x8040, 0x8080, 0x80C0)


def _draw_traces(data):
    """Random static instructions (per-PC timing metadata plus a
    destination register) and 1-3 static traces over them, each slot a
    (pc, taken) pair."""
    meta, dests = {}, {}
    for slot in data.draw(st.lists(st.integers(0, 127), min_size=3,
                                   max_size=20, unique=True)):
        pc = 0x1000 + 4 * slot
        kind = data.draw(st.sampled_from(
            ("alu", "alu", "load", "store", "branch", "jump")))
        srcs = tuple(data.draw(st.lists(st.integers(1, 6), min_size=1,
                                        max_size=2)))
        meta[pc] = (srcs, data.draw(st.integers(1, 12)), kind == "load",
                    kind == "store", kind in ("branch", "jump"),
                    kind == "branch")
        dests[pc] = (data.draw(st.integers(1, 6))
                     if kind in ("alu", "load") else None)
    traces = []
    for _ in range(data.draw(st.integers(1, 3))):
        slots = []
        for pc in data.draw(st.lists(st.sampled_from(sorted(meta)),
                                     min_size=1, max_size=12)):
            taken = data.draw(st.booleans()) if meta[pc][5] else meta[pc][4]
            slots.append((pc, taken))
        traces.append(slots)
    return meta, dests, traces


def _reference(sched, icache, dcache, cfg, meta, dyns, block_count,
               block_pending, overrides, pre_breaks, redirect_at):
    """Schedule ``dyns`` one ``add_args`` call at a time, forming fetch
    blocks and probing caches the way the models do around it."""
    retires = []
    last_complete = 0
    new_blocks = 0
    for i, dyn in enumerate(dyns):
        srcs, latency, is_load, is_store, is_control, _ = meta[dyn.pc]
        icache_penalty = 0
        if not icache.probe(dyn.pc):
            icache_penalty = cfg.icache.miss_penalty
            block_pending = True
        if pre_breaks is not None and pre_breaks[i]:
            block_pending = True
        new_block = block_pending or block_count >= cfg.fetch_width
        if new_block:
            block_count = 0
            block_pending = False
            new_blocks += 1
        block_count += 1
        if is_control and dyn.taken:
            block_pending = True
        dcache_penalty = 0
        if dyn.mem_addr is not None and not dcache.probe(dyn.mem_addr):
            dcache_penalty = cfg.dcache.miss_penalty
        ts = sched.add_args(
            new_block, icache_penalty, srcs, dyn.dest_reg, latency,
            is_load, is_store, dyn.mem_addr, dcache_penalty,
            overrides[i] if overrides is not None else None, 0, True,
        )
        retires.append(ts.retire)
        last_complete = ts.complete
        if i == redirect_at:
            sched.redirect(ts.complete)
            block_pending = True
    return last_complete, retires, block_count, block_pending, new_blocks


def _sched_state(sched):
    return {name: getattr(sched, name) for name in OoOScheduler.__slots__
            if name != "config" and not name.startswith("timing_")}


def _cache_state(cache):
    return (cache._sets, cache._stamp, cache.accesses, cache.misses)


def _differential(data, shape, memoize):
    """Feed one random trace sequence to a fresh engine-driven scheduler
    and a fresh add_args-driven one; after every trace, results and all
    scheduler and cache state must agree.  ``shape`` is the caller's
    call pattern: "R" (delay-buffer overrides on a merge-port
    scheduler), "A" (pre-breaks, a redirect, per-slot retires) or "S"
    (the superscalar baseline: a redirect)."""
    cfg = data.draw(st.sampled_from(_DIFF_CORES))
    meta, dests, traces = _draw_traces(data)

    merge_width = data.draw(st.integers(1, 3))

    def new_sched():
        if shape == "R":
            return OoOScheduler(cfg, block_overhead=(1, 2),
                                merge_width=merge_width)
        return OoOScheduler(cfg)

    eng_sched, ref_sched = new_sched(), new_sched()
    eng_caches = (Cache(cfg.icache), Cache(cfg.dcache))
    ref_caches = (Cache(cfg.icache), Cache(cfg.dcache))
    engine = TraceTimingEngine(eng_sched, *eng_caches, meta, cfg,
                               memoize=memoize)
    eng_blocks = ref_blocks = (0, True)
    last_complete = 0
    for _ in range(data.draw(st.integers(1, 12))):
        t = data.draw(st.integers(0, len(traces) - 1))
        slots = traces[t]
        n = len(slots)
        dyns = [
            SimpleNamespace(
                pc=pc, taken=taken, dest_reg=dests[pc],
                mem_addr=(data.draw(st.sampled_from(_DIFF_ADDRS))
                          if meta[pc][2] or meta[pc][3] else None),
            )
            for pc, taken in slots
        ]
        between = data.draw(st.sampled_from(("none", "stall", "redirect")))
        if between == "stall":
            cycle = ref_sched.total_cycles + data.draw(st.integers(0, 30))
            eng_sched.stall_fetch_until(cycle)
            ref_sched.stall_fetch_until(cycle)
        elif between == "redirect":
            eng_sched.redirect(last_complete)
            ref_sched.redirect(last_complete)
            eng_blocks = (eng_blocks[0], True)
            ref_blocks = (ref_blocks[0], True)
        overrides = pre_breaks = None
        redirect_at = -1
        if shape == "R":
            base = ref_sched.total_cycles
            overrides = [
                None if data.draw(st.integers(0, 3)) == 0
                else base + data.draw(st.integers(-30, 10))
                for _ in range(n)
            ]
            key = t
        else:
            redirect_at = data.draw(st.integers(-1, n - 1))
            if shape == "A":
                pre_breaks = tuple(data.draw(st.booleans())
                                   for _ in range(n))
                key = (t, pre_breaks, redirect_at)
            else:
                key = (t, redirect_at)
        want_retires = shape == "A"
        # Back-to-back repeats of one trace drive the pipe toward a
        # steady state, where memoized deltas replay.
        for _ in range(data.draw(st.integers(1, 6))):
            got = engine.schedule(
                key, dyns, n, *eng_blocks, overrides=overrides,
                pre_breaks=pre_breaks, redirect_at=redirect_at,
                want_retires=want_retires,
            )
            want = _reference(ref_sched, *ref_caches, cfg, meta, dyns,
                              *ref_blocks, overrides, pre_breaks,
                              redirect_at)
            assert got[0] == want[0]
            if want_retires:
                assert got[1] == want[1]
            assert got[2:] == want[2:]
            assert _sched_state(eng_sched) == _sched_state(ref_sched)
            for eng_cache, ref_cache in zip(eng_caches, ref_caches):
                assert _cache_state(eng_cache) == _cache_state(ref_cache)
            eng_blocks, ref_blocks = got[2:4], want[2:4]
            last_complete = got[0]
    return eng_sched


class TestEngineMatchesAddArgs:
    """The engine's exact pass (and, memoized, its replays) against a
    per-instruction ``OoOScheduler.add_args`` loop on random traces."""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_rstream_overrides(self, data):
        _differential(data, "R", memoize=False)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_astream_pre_breaks_redirect_retires(self, data):
        _differential(data, "A", memoize=False)

    @pytest.mark.parametrize("memoize", [True, False])
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_baseline_redirect(self, memoize, data):
        sched = _differential(data, "S", memoize=memoize)
        if not memoize:
            assert sched.timing_block_hit == sched.timing_block_miss == 0

    def test_memoizing_engine_rejects_overrides(self):
        sched = OoOScheduler(SS_64x4)
        engine = TraceTimingEngine(
            sched, Cache(SS_64x4.icache), Cache(SS_64x4.dcache),
            {0x1000: ((), 1, False, False, False, False)}, SS_64x4,
            memoize=True,
        )
        dyn = SimpleNamespace(pc=0x1000, taken=False, dest_reg=None,
                              mem_addr=None)
        with pytest.raises(ValueError):
            engine.schedule(0, [dyn], 1, 0, True, overrides=[5])
