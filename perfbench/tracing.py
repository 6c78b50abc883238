"""Span recording around calls into the ``repro`` layers.

The traced run patches each layer's public entry points with a wrapper
that records one span per call: name, start, end, parent span and
request id.  Spans live in parallel in-memory arrays and are written
out once, when the run ends.  A layer's *self* time is its spans'
duration minus the part covered by their child spans on the same
thread.

Only calls made once per trace, per job or per request are wrapped,
never per-instruction ones, so tracing stays a small share of the run.
Each wrapper replaces the name its caller actually looks up: a method
on its class, or a function in the namespace of the module that calls
it (``repro.uarch.core.first_divergence``, not
``repro.trace.compare.first_divergence``).
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import json
import threading
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

#: (module, class or None, attribute, span name, kind, request resolver).
#: ``kind`` is "call" (time the call), "each" (a generator: time every
#: ``next``, i.e. one span per yielded trace) or "drain" (a generator of
#: one instruction per item: time draining one copy of the stream, then
#: hand the caller a second, untimed copy; see :data:`NET_OF`).  The
#: resolver names the argument that identifies the request on the
#: daemon's threads ("key", "spec" or "payload").
TARGETS: Tuple[Tuple[str, Optional[str], str, str, str, Optional[str]], ...] = (
    ("repro.core.slipstream", "SlipstreamProcessor", "run",
     "core.slipstream.self", "call", None),
    ("repro.core.ir_detector", "IRDetector", "feed_trace",
     "core.ir_detector.feed_trace", "call", None),
    ("repro.core.ir_detector", "IRDetector", "drain",
     "core.ir_detector.drain", "call", None),
    ("repro.core.ir_predictor", "IRPredictor", "predict",
     "core.ir_predictor.predict", "call", None),
    ("repro.core.ir_predictor", "IRPredictor", "update_path",
     "core.ir_predictor.update", "call", None),
    ("repro.core.ir_predictor", "IRPredictor", "train_removal",
     "core.ir_predictor.update", "call", None),
    ("repro.core.delay_buffer", "DelayBuffer", "push",
     "core.delay_buffer.push", "call", None),
    ("repro.core.recovery", "RecoveryController", "recover",
     "core.recovery.recover", "call", None),
    ("repro.core.nstream", "TMRProcessor", "run",
     "core.nstream.tmr.run", "call", None),
    ("repro.core.nstream", "ReplayWindowProcessor", "run",
     "core.nstream.replay.run", "call", None),
    ("repro.trace.selection", "StaticTraceWalker", "expand",
     "trace.walker.expand", "call", None),
    ("repro.trace.selection", "TraceSelector", "chunk",
     "trace.selection.chunk", "each", None),
    ("repro.trace.predictor", "TracePredictor", "predict",
     "trace.predictor.predict", "call", None),
    ("repro.trace.predictor", "TracePredictor", "update",
     "trace.predictor.update", "call", None),
    ("repro.uarch.core", None, "first_divergence",
     "trace.compare.first_divergence", "call", None),
    ("repro.arch.functional", "FunctionalSimulator", "steps",
     "arch.functional.steps", "drain", None),
    ("repro.uarch.compiled_timing", "TraceTimingEngine", "schedule",
     "uarch.timing_engine.schedule", "call", None),
    ("repro.uarch.core", "SuperscalarCore", "run",
     "uarch.core.self", "call", None),
    ("repro.eval.jobs", None, "inject_one",
     "fault.inject_one", "call", None),
    ("repro.eval.jobs", None, "inject_one_nstream",
     "fault.inject_one_nstream", "call", None),
    ("repro.eval.runner", "ExperimentRunner", "run",
     "eval.runner.self", "call", None),
    ("repro.eval.serve", None, "spec_from_json",
     "eval.serve.spec_from_json", "call", "payload"),
    ("repro.eval.serve", None, "result_payload",
     "eval.serve.result_payload", "call", "key"),
    ("repro.eval.jobs", "DiskCache", "load",
     "eval.jobs.disk_load", "call", "key"),
    ("repro.eval.jobs", "DiskCache", "store",
     "eval.jobs.disk_store", "call", "key"),
    ("repro.eval.jobs", None, "simulate",
     "eval.jobs.simulate", "call", "spec"),
    ("repro.eval.models", None, "simulate",
     "eval.jobs.simulate", "call", "spec"),
)

#: Span names in report order (``eval.serve.http_self`` is derived from
#: the client spans, see :meth:`Tracer.summary`).
SPAN_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(
    [t[3] for t in TARGETS] + ["eval.serve.http_self"]
))

#: Spans whose self time is reported net of another span's: the chunker
#: drives the untimed copy of the functional stream, so its spans also
#: cover the functional engine, whose cost the drained copy measured.
NET_OF = {"trace.selection.chunk": "arch.functional.steps"}

#: Client-side span of one daemon request (benchmark code, not a layer).
CLIENT_SPAN = "client.request"


def _arg(args: tuple, kwargs: dict, position: int, name: str):
    if name in kwargs:
        return kwargs[name]
    return args[position] if len(args) > position else None


class Tracer:
    """Append-only span store shared by every thread of the run."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.request = array("i")
        self._lock = threading.Lock()
        self._local = threading.local()
        #: Request id by job identity, filled by the serving clients so
        #: spans on the daemon's threads join their request.
        self.request_of: Dict[tuple, int] = {}

    def intern(self, name: str) -> int:
        found = self._name_ids.get(name)
        if found is None:
            found = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return found

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, request: int) -> None:
        """Request id given to spans this thread opens from now on."""
        self._local.request = request

    def begin(self, name_id: int, request: Optional[int] = None) -> int:
        stack = self._stack()
        if request is None:
            request = getattr(self._local, "request", -1)
        with self._lock:
            index = len(self.start)
            self.name_id.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.request.append(request)
            self.end.append(0)
            self.start.append(time.perf_counter_ns())
        stack.append(index)
        return index

    def finish(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        self._stack().pop()

    # -- analysis ---------------------------------------------------------

    def summary(self) -> Dict[str, Tuple[int, int]]:
        """``{span name: (calls, self nanoseconds)}``.

        ``eval.serve.http_self`` is the client-observed request time not
        covered by any daemon-side span: summed client request spans
        minus summed root spans on the other threads.
        """
        n = len(self.start)
        child = [0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls: Dict[str, int] = {}
        self_ns: Dict[str, int] = {}
        client = self._name_ids.get(CLIENT_SPAN)
        client_ns = server_roots_ns = requests = 0
        for i in range(n):
            nid = self.name_id[i]
            duration = end[i] - start[i]
            if nid == client:
                client_ns += duration
                requests += 1
                continue
            name = self.names[nid]
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + duration - child[i]
            if client is not None and parent[i] < 0 and name.startswith("eval."):
                server_roots_ns += duration
        for name, other in NET_OF.items():
            if name in self_ns and other in self_ns:
                self_ns[name] = max(0, self_ns[name] - self_ns[other])
        out = {name: (calls[name], self_ns[name]) for name in calls}
        if requests:
            out["eval.serve.http_self"] = (
                requests, max(0, client_ns - server_roots_ns)
            )
        return out

    def write(self, path) -> None:
        """Write every span as gzip-compressed JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for i in range(len(self.start)):
                out.write(json.dumps({
                    "id": i,
                    "name": self.names[self.name_id[i]],
                    "start_ns": self.start[i],
                    "end_ns": self.end[i],
                    "parent": self.parent[i],
                    "request": self.request[i],
                }, separators=(",", ":")))
                out.write("\n")


def _request_resolver(tracer: Tracer, how: Optional[str]) -> Optional[Callable]:
    """Map a daemon-side call's arguments to the client request id."""
    if how is None:
        return None
    lookup = tracer.request_of

    def of_key(key) -> int:
        if key is None:
            return -1
        return lookup.get((key.model, key.benchmark, key.scale), -1)

    if how == "payload":
        def resolve(args, kwargs):
            payload = _arg(args, kwargs, 0, "payload")
            if not isinstance(payload, dict):
                return -1
            return lookup.get((payload.get("model"), payload.get("benchmark"),
                               payload.get("scale", 1)), -1)
    elif how == "spec":
        def resolve(args, kwargs):
            spec = _arg(args, kwargs, 0, "spec")
            return of_key(getattr(spec, "key", None))
    else:  # "key": result_payload(index, key, ...) / DiskCache.load(self, key)
        def resolve(args, kwargs):
            return of_key(_arg(args, kwargs, 1, "key"))
    return resolve


def _wrap(tracer: Tracer, original: Callable, name: str, kind: str,
          resolver: Optional[Callable]) -> Callable:
    name_id = tracer.intern(name)
    begin, finish = tracer.begin, tracer.finish

    if kind == "each":
        def each(*args, **kwargs):
            inner = original(*args, **kwargs)

            def timed():
                while True:
                    span = begin(name_id)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        finish(span)
                    yield item
            return timed()
        return each

    if kind == "drain":
        def drain(*args, **kwargs):
            span = begin(name_id)
            try:
                for _ in original(*args, **kwargs):
                    pass
            finally:
                finish(span)
            return original(*args, **kwargs)
        return drain

    def call(*args, **kwargs):
        span = begin(name_id,
                     resolver(args, kwargs) if resolver is not None else None)
        try:
            return original(*args, **kwargs)
        finally:
            finish(span)
    return call


@contextlib.contextmanager
def instrumented(tracer: Optional[Tracer]):
    """Every :data:`TARGETS` entry patched for the duration of the block
    and restored on exit; a no-op without a tracer."""
    undo: List[Tuple[object, str, object]] = []
    try:
        for module_name, owner_name, attr, name, kind, how in (
                TARGETS if tracer is not None else ()):
            owner = importlib.import_module(module_name)
            if owner_name is not None:
                owner = getattr(owner, owner_name)
            original = owner.__dict__[attr]
            undo.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, original, name, kind,
                                       _request_resolver(tracer, how)))
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
