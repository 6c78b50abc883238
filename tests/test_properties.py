"""Property-based tests (hypothesis) on core data structures."""

from hypothesis import given, settings, strategies as st

from repro.core.delay_buffer import DelayBuffer
from repro.core.rdfg import BR, P, SV, WW, TraceGraph, kill, select, try_propagate
from repro.uarch.config import CoreConfig
from repro.uarch.scheduler import InstrTiming, OoOScheduler


# ----------------------------------------------------------------------
# Scheduler invariants.
# ----------------------------------------------------------------------

def _timing_strategy():
    regs = st.integers(min_value=0, max_value=63)
    return st.builds(
        InstrTiming,
        new_block=st.booleans(),
        icache_penalty=st.sampled_from([0, 0, 0, 12]),
        srcs=st.tuples(regs, regs),
        dest=st.one_of(st.none(), regs),
        latency=st.integers(min_value=1, max_value=6),
        is_load=st.booleans(),
        is_store=st.booleans(),
        mem_addr=st.one_of(st.none(), st.integers(0, 64).map(lambda a: a * 4)),
        dcache_penalty=st.sampled_from([0, 0, 14]),
        ready_override=st.one_of(st.none(), st.integers(0, 50)),
        fetch_floor=st.integers(0, 20),
        merged=st.booleans(),
    )


class TestSchedulerProperties:
    @given(st.lists(_timing_strategy(), min_size=1, max_size=120))
    @settings(max_examples=60, deadline=None)
    def test_pipeline_stage_ordering(self, timings):
        """fetch <= dispatch <= issue < complete < retire, always."""
        sched = OoOScheduler(CoreConfig(name="prop"))
        first = True
        for timing in timings:
            ts = sched.add(timing._replace(new_block=timing.new_block or first))
            first = False
            assert ts.fetch <= ts.dispatch <= ts.issue < ts.complete < ts.retire

    @given(st.lists(_timing_strategy(), min_size=2, max_size=120))
    @settings(max_examples=60, deadline=None)
    def test_inorder_dispatch_and_retire(self, timings):
        sched = OoOScheduler(CoreConfig(name="prop"))
        last_dispatch = last_retire = 0
        first = True
        for timing in timings:
            ts = sched.add(timing._replace(new_block=timing.new_block or first))
            first = False
            assert ts.dispatch >= last_dispatch
            assert ts.retire >= last_retire
            last_dispatch, last_retire = ts.dispatch, ts.retire

    @given(st.lists(_timing_strategy(), min_size=1, max_size=120))
    @settings(max_examples=40, deadline=None)
    def test_width_limits_hold(self, timings):
        config = CoreConfig(name="prop")
        sched = OoOScheduler(config, merge_width=2)
        dispatches = {}
        retires = {}
        first = True
        for timing in timings:
            ts = sched.add(timing._replace(new_block=timing.new_block or first))
            first = False
            dispatches[ts.dispatch] = dispatches.get(ts.dispatch, 0) + 1
            retires[ts.retire] = retires.get(ts.retire, 0) + 1
        assert max(dispatches.values()) <= config.dispatch_width
        assert max(retires.values()) <= config.retire_width

    @given(st.lists(_timing_strategy(), min_size=1, max_size=80), st.integers(0, 200))
    @settings(max_examples=40, deadline=None)
    def test_redirect_monotonic_fetch(self, timings, redirect_at):
        """After a redirect, no later block fetches before the floor."""
        sched = OoOScheduler(CoreConfig(name="prop"))
        sched.add(timings[0]._replace(new_block=True))
        sched.redirect(redirect_at)
        floor = redirect_at + 1
        for timing in timings[1:]:
            ts = sched.add(timing)
            if timing.new_block:
                assert ts.fetch >= min(floor, ts.fetch + 1) - 1  # non-strict sanity
                assert ts.fetch >= floor or timing.new_block is False


# ----------------------------------------------------------------------
# Delay buffer invariants.
# ----------------------------------------------------------------------

class TestDelayBufferProperties:
    @given(
        st.lists(
            st.tuples(st.integers(1, 32), st.integers(0, 50)),
            min_size=1, max_size=60,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_occupancy_never_exceeds_capacity_and_pushes_monotone(self, groups):
        buf = DelayBuffer(capacity=64)
        clock = 0
        last_push = 0
        for count, delta in groups:
            clock += delta
            push = buf.push(count, clock)
            assert push >= clock
            assert buf.occupancy <= buf.capacity
            buf.mark_popped(push + 5)
            last_push = push

    @given(st.lists(st.integers(1, 16), min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_flush_resets(self, counts):
        buf = DelayBuffer(capacity=1024)
        for count in counts:
            buf.push(count, 0)
        buf.flush()
        assert buf.occupancy == 0


# ----------------------------------------------------------------------
# R-DFG invariants.
# ----------------------------------------------------------------------

def _chain(n, trace_seq=0):
    graph = TraceGraph(trace_seq, n)
    for producer in range(n - 1):
        graph.connect(producer, producer + 1)
    return graph


@st.composite
def _dag_events(draw):
    """A random same-trace R-DFG plus the trigger and kill events the
    detector could deliver for it, in a random order.

    Triggered nodes are never killed (a branch writes nothing, and a
    silent write leaves the old producer live), and a kill is
    unreferenced exactly when the node has no consumers.
    """
    n = draw(st.integers(min_value=1, max_value=16))
    edges = draw(st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        .filter(lambda e: e[0] < e[1]),
        max_size=3 * n,
    ))
    removable = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    external = draw(st.sets(st.integers(0, n - 1), max_size=n // 3))
    roles = draw(st.lists(st.sampled_from(["trigger", "kill", "none"]),
                          min_size=n, max_size=n))
    trigger_kinds = draw(st.lists(st.sampled_from([BR, WW, SV]),
                                  min_size=n, max_size=n))
    events = [(role, node) for node, role in enumerate(roles) if role != "none"]
    order = draw(st.permutations(events))
    return n, sorted(edges), removable, external, trigger_kinds, order


def _replay(n, edges, removable, external, trigger_kinds, events):
    graph = TraceGraph(0, n)
    graph.removable[:] = removable
    for producer, consumer in edges:
        graph.connect(producer, consumer)
    for node in external:
        graph.external_ref[node] = True
    for role, node in events:
        if role == "trigger":
            select(graph, node, trigger_kinds[node])
        else:
            kill(graph, node, unreferenced=not graph.consumers[node])
    return graph.kinds


class TestRDFGProperties:
    @given(st.integers(min_value=2, max_value=20))
    def test_selecting_tail_and_killing_selects_whole_chain(self, n):
        graph = _chain(n)
        select(graph, n - 1, BR)
        for node in range(n - 1):
            kill(graph, node, unreferenced=False)
        assert all(graph.kinds)
        for node in range(n - 1):
            assert graph.kinds[node] & P

    @given(st.integers(min_value=2, max_value=20), st.integers(0, 18))
    def test_external_ref_blocks_propagation(self, n, external_at):
        external_at = min(external_at, n - 2)
        graph = _chain(n)
        # A consumer in a different trace only marks the producer.
        graph.external_ref[external_at] = True
        select(graph, n - 1, BR)
        for node in range(n - 1):
            kill(graph, node, unreferenced=False)
        assert not graph.kinds[external_at]
        # Everything strictly between the externally-referenced node and
        # the tail still propagates.
        for node in range(external_at + 1, n - 1):
            assert graph.kinds[node]

    @given(st.integers(min_value=1, max_value=20))
    def test_unkilled_nodes_never_propagate(self, n):
        graph = _chain(n)
        select(graph, n - 1, BR)
        for node in range(n - 1):
            try_propagate(graph, node)
        assert not any(graph.kinds[:-1])

    @given(_dag_events())
    @settings(max_examples=150, deadline=None)
    def test_final_kinds_independent_of_event_order(self, case):
        n, edges, removable, external, trigger_kinds, order = case
        canonical = sorted(order, key=lambda event: event[1])
        assert (_replay(n, edges, removable, external, trigger_kinds, order)
                == _replay(n, edges, removable, external, trigger_kinds, canonical))
