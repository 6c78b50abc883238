"""Remote execution and daemon federation: the eval stack as a fleet.

The slipstream paper scales throughput by spreading redundant contexts
over a CMP's processing elements; this module lets the eval stack
spread jobs over *machines*.  Two layers:

* :class:`RemoteBackend` — a :class:`~repro.eval.backends.WorkerBackend`
  whose "pool" is an eval daemon (:mod:`repro.eval.serve`) somewhere
  else.  Submitted :class:`~repro.eval.jobs.JobSpec`s are encoded with
  :func:`~repro.eval.serve.spec_to_json`, coalesced into pipelined
  ``/v1/submit`` batches over one persistent keep-alive
  :class:`~repro.eval.serve.ServeClient` connection, and resolved as
  the daemon streams result lines back.  Each line carries the result
  both as canonical JSON + sha256 digest and as a base64 pickle; the
  backend unpickles, *recomputes* the canonical digest locally and
  compares it to the wire digest — the cross-machine correctness gate.
  A mismatch raises :class:`WorkerDigestError` naming the worker.  A
  version gate runs at :meth:`RemoteBackend.start`: the worker's
  ``/v1/health`` code fingerprint must equal ours, because neither
  pickles nor digests are comparable across simulator versions.

* :class:`FederationBackend` — a front daemon's backend routing jobs
  over N :class:`RemoteBackend` workers plus a local fallback pool.
  Each job goes straight to its *home* worker, picked by
  :func:`~repro.eval.jobs.cache_entry_digest` — the *same* digest that
  shards the disk cache — so a job always lands on the worker whose
  disk cache is warm for it; a dead home falls through in ring order.
  The federation keeps no queue and starts no thread: batching is the
  remote backend's, and a done-callback forwards each outcome.  A
  worker that fails a job un-acked (``BrokenExecutor``, or a stream
  that closed without its result line) is marked dead and the job
  moves to the next live worker, each move counting against the
  :class:`~repro.eval.resilience.RetryPolicy`'s retry budget.  A job
  whose result line already streamed back resolved its future and is
  never moved, so no result is lost or double-counted.  With zero live
  workers the federation degrades to the local backend.

Everything is observable through the shared obs
:class:`~repro.obs.registry.MetricsRegistry` (``federation.*``
counters and the live-worker gauge), surfaced by the front daemon's
``/v1/metrics`` endpoint.
"""

from __future__ import annotations

import base64
import http.client
import os
import pickle
import threading
import time
from collections import deque
from concurrent.futures import BrokenExecutor, Future
from concurrent.futures import CancelledError as FutureCancelledError
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple, Union

from repro.eval.backends import WorkerBackend, resolve_backend
from repro.eval.jobs import JobSpec, cache_entry_digest, code_fingerprint, job_label
from repro.eval.resilience import RetryPolicy
from repro.eval.serve import (
    ServeClient,
    ServeError,
    SpecError,
    canonical_result_blob,
    spec_to_json,
)
from repro.obs.registry import MetricsRegistry

#: Jobs coalesced into one pipelined ``/v1/submit`` round trip.
PIPELINE_DEPTH = 64
#: Environment variable naming the default remote daemon (HOST:PORT).
REMOTE_ENV = "REPRO_EVAL_REMOTE"


class RemoteError(RuntimeError):
    """Base of every remote/federation transport error."""


class RemoteVersionError(RemoteError):
    """Worker daemon runs a different simulator version than we do;
    neither its pickles nor its digests are comparable to ours."""


class RemoteProtocolError(RemoteError):
    """A worker daemon violated the wire protocol (missing pickle
    payload, stream closed without a result, unparseable line)."""


class RemoteJobError(RemoteError):
    """A job attempt failed *on* the worker (its own retries included);
    the transport itself is fine."""


class WorkerDigestError(RemoteError):
    """A worker's result does not hash to the digest it claimed — the
    cross-machine correctness gate tripped.  Structured: carries the
    offending worker's URL and the job label."""

    def __init__(self, worker: str, job: str, expected: Optional[str],
                 actual: str):
        super().__init__(
            f"digest mismatch from worker {worker} for job {job}: "
            f"wire digest {expected!r}, unpickled result hashes to "
            f"{actual!r}"
        )
        self.worker = worker
        self.job = job
        self.expected = expected
        self.actual = actual


def parse_worker_url(url: str) -> Tuple[str, int]:
    """(host, port) from ``HOST:PORT`` or ``http://HOST:PORT``."""
    trimmed = url.strip()
    for prefix in ("http://", "https://"):
        if trimmed.startswith(prefix):
            trimmed = trimmed[len(prefix):]
            break
    trimmed = trimmed.rstrip("/")
    host, sep, port = trimmed.rpartition(":")
    if not sep or not host or not port.isdigit():
        raise ValueError(f"worker URL {url!r} is not HOST:PORT")
    return host, int(port)


def decode_result_line(line: Any, spec: JobSpec,
                       worker: str) -> Tuple[object, float, float]:
    """(result object, wall seconds, cpu seconds) from one wire line.

    Verifies the cross-machine correctness gate: the base64 pickle is
    decoded and the canonical-JSON sha256 of the *reconstructed* object
    must equal the digest the worker sent.  Raises the structured
    :class:`WorkerDigestError` (naming ``worker``) on mismatch,
    :class:`RemoteJobError` when the worker reports the job failed, and
    :class:`RemoteProtocolError` on malformed lines.
    """
    job = job_label(spec.key)
    if not isinstance(line, dict):
        raise RemoteProtocolError(
            f"worker {worker}: non-object result line for {job}"
        )
    if not line.get("ok", False):
        raise RemoteJobError(
            f"worker {worker}: job {job} failed remotely: "
            f"{line.get('error', 'unknown error')}"
        )
    encoded = line.get("pickle")
    if not isinstance(encoded, str):
        raise RemoteProtocolError(
            f"worker {worker}: result line for {job} carries no pickle "
            f"payload (daemon too old?)"
        )
    try:
        result = pickle.loads(base64.b64decode(encoded.encode("ascii")))
    except Exception as exc:  # noqa: BLE001 - any decode failure
        raise RemoteProtocolError(
            f"worker {worker}: unpicklable result for {job}: {exc}"
        ) from exc
    _body, digest = canonical_result_blob(result)
    wire_digest = line.get("digest")
    if digest != wire_digest:
        raise WorkerDigestError(worker=worker, job=job,
                                expected=wire_digest, actual=digest)
    try:
        wall = float(line.get("wall_seconds") or 0.0)
        cpu = float(line.get("cpu_seconds") or 0.0)
    except (TypeError, ValueError):
        wall = cpu = 0.0
    return result, wall, cpu


@dataclass
class _RemoteItem:
    """One queued (spec, payload, future) awaiting a wire round trip."""

    spec: JobSpec
    payload: Dict[str, Any]
    future: "Future"


class RemoteBackend(WorkerBackend):
    """A worker pool that lives behind an eval daemon's HTTP API.

    The five :class:`~repro.eval.backends.WorkerBackend` methods over
    the wire: :meth:`start` connects and version-gates, :meth:`submit`
    enqueues and returns a future, a dispatcher thread coalesces the
    queue into pipelined batches over one keep-alive connection and
    resolves futures as result lines stream back.  A connection lost
    mid-stream marks the backend ``broken()`` and fails the un-acked
    futures with ``BrokenExecutor`` — exactly the crash contract the
    runner and the federation layer already handle (shutdown, restart,
    or migrate).
    """

    name = "remote"
    can_crash = True

    def __init__(self, url: Optional[str] = None, timeout: float = 600.0):
        super().__init__()
        self.url = url if url is not None else os.environ.get(REMOTE_ENV)
        self.timeout = timeout
        self.remote_fingerprint: Optional[str] = None
        self._client: Optional[ServeClient] = None
        self._queue: Deque[_RemoteItem] = deque()
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._thread: Optional[threading.Thread] = None
        self._running = False
        self._broken = False

    @property
    def running(self) -> bool:
        return self._running

    def broken(self) -> bool:
        return self._broken

    def start(self, workers: int) -> None:
        """Connect, health-probe, and version-gate the worker daemon.

        The effective pool width is the *daemon's* worker count, not
        the caller's ``workers`` argument — parallelism lives on the
        far side.
        """
        if self._running:
            raise RuntimeError("remote backend already running")
        if not self.url:
            raise ValueError(
                "remote backend needs a worker URL: use "
                f"'remote:HOST:PORT' or set ${REMOTE_ENV}"
            )
        host, port = parse_worker_url(self.url)
        client = ServeClient(host=host, port=port, timeout=self.timeout)
        health = client.health()
        theirs = health.get("code_fingerprint")
        ours = code_fingerprint()
        if theirs != ours:
            client.close()
            raise RemoteVersionError(
                f"worker {self.url} runs code fingerprint {theirs!r}, "
                f"this process runs {ours!r}: results are not comparable"
            )
        self.remote_fingerprint = theirs
        self._client = client
        self._workers = max(1, int(health.get("workers")
                                   or health.get("jobs") or 1))
        self._broken = False
        self._running = True
        self._thread = threading.Thread(
            target=self._dispatch_loop,
            name=f"repro-remote-{host}-{port}", daemon=True,
        )
        self._thread.start()

    def submit(self, spec: JobSpec,
               timeout_seconds: Optional[float] = None) -> "Future":
        future: Future = Future()
        if not self._running:
            raise RuntimeError("remote backend is not running")
        if self._broken:
            raise BrokenExecutor(f"worker {self.url} connection is broken")
        try:
            payload = spec_to_json(spec)
        except SpecError as exc:
            # Not remotable (chaos jobs, non-whitelisted configs):
            # fail the attempt, never ship a lossy encoding.
            future.set_exception(exc)
            return future
        with self._wake:
            self._queue.append(_RemoteItem(spec, payload, future))
            self._wake.notify()
        return future

    def shutdown(self, wait: bool = False) -> None:
        with self._wake:
            self._running = False
            leftovers = list(self._queue)
            self._queue.clear()
            self._wake.notify_all()
        for item in leftovers:
            item.future.cancel()
        thread, self._thread = self._thread, None
        if not wait and self._client is not None:
            # Interrupt a dispatcher blocked mid-stream.
            self._client.close()
        if thread is not None and wait:
            thread.join(timeout=self.timeout)
        if self._client is not None:
            self._client.close()
            self._client = None
        self._workers = 0

    # ------------------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            with self._wake:
                while self._running and not self._queue:
                    self._wake.wait(timeout=0.5)
                if not self._running:
                    return
                items = [self._queue.popleft()
                         for _ in range(min(len(self._queue),
                                            PIPELINE_DEPTH))]
                broken = self._broken
            if broken:
                err = BrokenExecutor(
                    f"worker {self.url} connection is broken"
                )
                for item in items:
                    if not item.future.done():
                        item.future.set_exception(err)
                continue
            self._send_batch(items)

    def _send_batch(self, items: List[_RemoteItem]) -> None:
        """One pipelined round trip: N jobs out, N result lines back,
        futures resolved in the daemon's completion order."""
        assert self._client is not None
        pending = {index: item for index, item in enumerate(items)}
        started = time.monotonic()
        try:
            for line in self._client.submit(
                [item.payload for item in items], include_pickle=True
            ):
                item = pending.pop(line.get("index"), None)  # type: ignore[arg-type]
                if item is None:
                    continue
                try:
                    result, wall, cpu = decode_result_line(
                        line, item.spec, self.url or "?"
                    )
                except RemoteError as exc:
                    if not item.future.done():
                        item.future.set_exception(exc)
                    continue
                if not item.future.done():
                    item.future.set_result(
                        (result, wall, cpu, started, None)
                    )
            for item in pending.values():
                if not item.future.done():
                    item.future.set_exception(RemoteProtocolError(
                        f"worker {self.url} closed the stream without a "
                        f"result for {job_label(item.spec.key)}"
                    ))
        except (ServeError, http.client.HTTPException, ConnectionError,
                OSError, AttributeError, ValueError) as exc:
            # The daemon died or the connection dropped mid-stream:
            # every un-acked future fails broken; already-streamed
            # lines already resolved theirs (exactly-once).
            # (AttributeError/ValueError are how http.client surfaces a
            # socket closed under it — e.g. shutdown(wait=False) racing
            # a dispatcher still draining the chunked-stream trailer.)
            if not self._running:
                for item in pending.values():
                    item.future.cancel()
                return
            self._broken = True
            err = BrokenExecutor(
                f"worker {self.url} failed mid-batch: "
                f"{type(exc).__name__}: {exc}"
            )
            for item in pending.values():
                if not item.future.done():
                    item.future.set_exception(err)


@dataclass
class _FedWorker:
    """One remote worker daemon and its liveness state."""

    url: str
    backend: RemoteBackend
    alive: bool = False
    error: Optional[str] = None
    dispatched: int = 0


class FederationBackend(WorkerBackend):
    """Route jobs to worker daemons by cache digest; survive their deaths.

    Composes N :class:`RemoteBackend` workers behind the one
    :class:`~repro.eval.backends.WorkerBackend` surface the eval
    service already drives:

    * **Home worker by cache digest.**  ``cache_entry_digest(key)`` —
      the digest that shards the disk cache — picks the home worker,
      so re-runs of a grid land each job back on the worker whose
      cache already holds it.  A dead home falls through to the next
      live worker in ring order.  The job is submitted to that
      worker's backend at once; the backend does the batching.
    * **Moving off a dead worker.**  A job failed un-acked by its
      worker (``BrokenExecutor`` or :class:`RemoteProtocolError`)
      marks the worker dead and is sent to the next live worker, each
      move counting against the retry policy's budget; with no live
      worker left it runs on the local fallback backend.  Per-job
      outcomes (:class:`RemoteJobError`, :class:`WorkerDigestError`,
      codec errors) reach the caller and are never moved.

    ``can_crash`` is False: worker death is handled *inside* the
    backend; the service never sees a broken pool.
    """

    name = "federation"
    can_crash = False

    def __init__(
        self,
        urls: Sequence[str],
        local: Union[str, WorkerBackend, None] = None,
        policy: Optional[RetryPolicy] = None,
        metrics: Optional[MetricsRegistry] = None,
        timeout: float = 600.0,
    ):
        super().__init__()
        if not urls:
            raise ValueError("federation needs at least one worker URL")
        self.policy = policy if policy is not None else RetryPolicy()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._fleet = [_FedWorker(url, RemoteBackend(url, timeout=timeout))
                       for url in urls]
        self._local = resolve_backend(local, default="thread")
        self._local_jobs = 1
        self._local_lock = threading.Lock()
        self._lock = threading.Lock()
        self._running = False
        for counter in ("federation.jobs_forwarded", "federation.jobs_local",
                        "federation.jobs_migrated",
                        "federation.worker_failures"):
            self.metrics.counter(counter)
        self.metrics.gauge("federation.workers_alive")

    # -- lifecycle ------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._running

    @property
    def workers(self) -> int:
        """Effective fleet width: live remote workers' pool sizes, or
        the local fallback width when the whole fleet is dead."""
        if not self._running:
            return 0
        with self._lock:
            width = sum(max(1, w.backend.workers)
                        for w in self._fleet if w.alive)
        return width or self._local_jobs

    def start(self, workers: int) -> None:
        """Probe every worker daemon; dead ones are recorded, not
        fatal — a fully-dead fleet degrades to local execution."""
        if self._running:
            raise RuntimeError("federation backend already running")
        self._local_jobs = max(1, workers)
        for worker in self._fleet:
            try:
                worker.backend.start(1)
            except Exception as exc:  # noqa: BLE001 - recorded, not fatal
                worker.alive = False
                worker.error = f"{type(exc).__name__}: {exc}"
                self.metrics.counter("federation.worker_failures").inc()
            else:
                worker.alive = True
                worker.error = None
        self.metrics.gauge("federation.workers_alive").set(
            sum(1 for w in self._fleet if w.alive)
        )
        self._running = True

    def shutdown(self, wait: bool = False) -> None:
        """Stop every worker backend (their pending futures cancel, and
        so do the callers') and the local pool."""
        with self._lock:
            self._running = False
        for worker in self._fleet:
            if worker.backend.running:
                worker.backend.shutdown(wait=wait)
        with self._local_lock:
            if self._local.running:
                self._local.shutdown(wait=wait)
        self._workers = 0

    # -- routing --------------------------------------------------------

    def submit(self, spec: JobSpec,
               timeout_seconds: Optional[float] = None) -> "Future":
        if not self._running:
            raise RuntimeError("federation backend is not running")
        try:
            spec_to_json(spec)
        except SpecError:
            # Not expressible on the wire: the local pool runs it.
            return self._submit_local(spec, timeout_seconds)
        outer: Future = Future()
        self._send(spec, outer, timeout_seconds, moves=0)
        return outer

    def _home_worker(self, spec: JobSpec) -> Optional[_FedWorker]:
        """The job's digest-sharded home, or the next live worker in
        ring order when the home is dead (lock held)."""
        home = int(cache_entry_digest(spec.key)[:2], 16) % len(self._fleet)
        for offset in range(len(self._fleet)):
            worker = self._fleet[(home + offset) % len(self._fleet)]
            if worker.alive:
                return worker
        return None

    def _send(self, spec: JobSpec, outer: "Future",
              timeout_seconds: Optional[float], moves: int) -> None:
        """Submit ``spec`` to its live home (the local pool when the
        fleet is dead) and forward the outcome to ``outer``."""
        with self._lock:
            worker = self._home_worker(spec)
            if worker is not None:
                worker.dispatched += 1
                self.metrics.counter("federation.jobs_forwarded").inc()
        try:
            if worker is None:
                inner = self._submit_local(spec, timeout_seconds)
            else:
                inner = worker.backend.submit(spec, None)
        except Exception as exc:  # noqa: BLE001 - forwarded or moved
            if worker is None:
                outer.set_exception(exc)
            else:
                self._move(worker, spec, outer, timeout_seconds, moves, exc)
            return
        inner.add_done_callback(
            lambda done: self._settle(done, outer, worker, spec,
                                      timeout_seconds, moves)
        )

    def _settle(self, done: "Future", outer: "Future",
                worker: Optional[_FedWorker], spec: JobSpec,
                timeout_seconds: Optional[float], moves: int) -> None:
        """Done-callback of one attempt: forward its outcome, or move
        the job on when a remote worker failed it un-acked."""
        if outer.done():
            return
        try:
            value = done.result()
        except FutureCancelledError:
            outer.cancel()
        except (BrokenExecutor, RemoteProtocolError) as exc:
            if worker is None:
                outer.set_exception(exc)
            else:
                self._move(worker, spec, outer, timeout_seconds, moves, exc)
        except BaseException as exc:  # noqa: BLE001 - a per-job outcome
            # RemoteJobError / WorkerDigestError / codec errors are the
            # job's own result: never moved (a digest mismatch retried
            # on another worker would mask the bug).
            outer.set_exception(exc)
        else:
            outer.set_result(value)

    def _move(self, worker: _FedWorker, spec: JobSpec, outer: "Future",
              timeout_seconds: Optional[float], moves: int,
              cause: BaseException) -> None:
        """Mark ``worker`` dead and send ``spec`` to the next live
        worker (or the local pool), within the retry budget."""
        reason = f"{type(cause).__name__}: {cause}"
        exhausted = moves >= self.policy.max_retries
        with self._lock:
            if worker.alive:
                worker.alive = False
                worker.error = reason
                self.metrics.counter("federation.worker_failures").inc()
                self.metrics.gauge("federation.workers_alive").set(
                    sum(1 for w in self._fleet if w.alive)
                )
            running = self._running
            if running and not exhausted:
                self.metrics.counter("federation.jobs_migrated").inc()
        if not running:
            outer.cancel()
        elif exhausted:
            outer.set_exception(BrokenExecutor(
                f"job {job_label(spec.key)} exhausted "
                f"{self.policy.max_retries} migrations; last worker "
                f"failure: {reason}"
            ))
        else:
            self._send(spec, outer, timeout_seconds, moves + 1)

    def _submit_local(self, spec: JobSpec,
                      timeout_seconds: Optional[float]) -> "Future":
        with self._local_lock:
            if not self._running:
                raise RuntimeError("federation backend is not running")
            self.metrics.counter("federation.jobs_local").inc()
            if not self._local.running:
                self._local.start(self._local_jobs)
            return self._local.submit(spec, timeout_seconds)

    # -- introspection --------------------------------------------------

    def worker_states(self) -> List[Dict[str, Any]]:
        """Per-worker fleet state, reported by the front daemon's
        ``/v1/health`` under ``"federation"``."""
        with self._lock:
            return [
                {
                    "url": worker.url,
                    "alive": worker.alive,
                    "dispatched": worker.dispatched,
                    "error": worker.error,
                }
                for worker in self._fleet
            ]


__all__ = [
    "FederationBackend",
    "PIPELINE_DEPTH",
    "REMOTE_ENV",
    "RemoteBackend",
    "RemoteError",
    "RemoteJobError",
    "RemoteProtocolError",
    "RemoteVersionError",
    "WorkerDigestError",
    "decode_result_line",
    "parse_worker_url",
]
