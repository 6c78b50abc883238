"""Per-trace reverse dataflow graph (R-DFG) with back-propagation.

Each trace in the IR-detector's scope owns an R-DFG over its own
instructions.  Edges connect consumers to producers *within the same
trace only* (paper: "If the producer is not in the same trace, no
connection is made"); consumption from another trace merely marks the
producer as externally referenced, which disqualifies it from
back-propagated removal.

The graph is integer-coded: a :class:`TraceGraph` holds one parallel
list per node attribute, a node is its index in the trace, and a kind is
a plain int over the bits :data:`BR`, :data:`WW`, :data:`SV` and
:data:`P` (the values of the matching :class:`RemovalKind` flags; 0
means unselected).  Kinds become ``RemovalKind`` only when the detector
emits a trace's analysis.

Selection rules:

* a node is selected directly by a trigger (BR at merge, SV at merge,
  WW at kill);
* a killed, unselected node with at least one consumer, all consumers
  in the same trace and all selected, is selected with
  ``P | union(consumer base bits)``.

Selection cascades: selecting a node may complete the conditions for
its producers.  A node's propagated kind depends only on its consumers'
kinds, which never change once set, so the cascade reaches the same
fixpoint in any order; :func:`select` walks it with a worklist.
"""

from __future__ import annotations

from typing import List

from repro.core.removal import RemovalKind

BR = int(RemovalKind.BR)
WW = int(RemovalKind.WW)
SV = int(RemovalKind.SV)
P = int(RemovalKind.PROPAGATED)
_BASE = BR | WW | SV


class TraceGraph:
    """The R-DFG of one trace: parallel per-node lists, indexed by the
    node's position in the trace."""

    __slots__ = ("seq", "kinds", "killed", "external_ref", "removable",
                 "consumers", "producers")

    def __init__(self, seq: int, size: int) -> None:
        self.seq = seq
        #: Selection kind bits; 0 while unselected.
        self.kinds: List[int] = [0] * size
        #: The node's value has been overwritten: all consumers are known.
        self.killed: List[bool] = [False] * size
        #: A later trace consumed the node's value.
        self.external_ref: List[bool] = [False] * size
        #: False for instructions that must never be removed (indirect
        #: jumps, program output, halt) regardless of dataflow.
        self.removable: List[bool] = [True] * size
        #: Same-trace dataflow edges, as node indices.
        self.consumers: List[List[int]] = [[] for _ in range(size)]
        self.producers: List[List[int]] = [[] for _ in range(size)]

    def connect(self, producer: int, consumer: int) -> None:
        """Record a same-trace dependence."""
        self.consumers[producer].append(consumer)
        self.producers[consumer].append(producer)


def select(graph: TraceGraph, index: int, kind: int) -> bool:
    """Select a node for removal; cascades to its producers.

    Returns True if the node was newly selected.
    """
    kinds = graph.kinds
    if kinds[index] or not graph.removable[index]:
        return False
    kinds[index] = kind
    producers = graph.producers
    pending = list(producers[index])
    while pending:
        node = pending.pop()
        inherited = _propagated_kind(graph, node)
        if inherited:
            kinds[node] = inherited
            pending.extend(producers[node])
    return True


def kill(graph: TraceGraph, index: int, unreferenced: bool) -> None:
    """The node's value has been overwritten; all consumers are known.

    An unreferenced kill is the WW trigger; otherwise the node may now
    satisfy the back-propagation condition.
    """
    graph.killed[index] = True
    if unreferenced and not graph.kinds[index]:
        select(graph, index, WW)
    else:
        try_propagate(graph, index)


def try_propagate(graph: TraceGraph, index: int) -> None:
    """Select the node if killed, unselected, and all consumers (same
    trace, at least one) are selected."""
    inherited = _propagated_kind(graph, index)
    if inherited:
        select(graph, index, inherited)


def _propagated_kind(graph: TraceGraph, index: int) -> int:
    """The kind back-propagation selects the node with now, or 0."""
    kinds = graph.kinds
    if (kinds[index] or not graph.killed[index] or graph.external_ref[index]
            or not graph.removable[index]):
        return 0
    consumers = graph.consumers[index]
    if not consumers:
        return 0
    inherited = P
    for consumer in consumers:
        consumer_kind = kinds[consumer]
        if not consumer_kind:
            return 0
        inherited |= consumer_kind & _BASE
    return inherited
