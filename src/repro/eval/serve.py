"""Eval-as-a-service: a local HTTP/JSON daemon over the job machinery.

``python -m repro.eval serve`` starts an asyncio daemon (stdlib only)
that accepts batched job submissions, runs them through the same
cache/retry machinery as the inline runner, and streams per-job results
back as JSONL while they land.  The point is *multi-tenancy*: many
clients — sweep scripts, fault campaigns, a notebook — share one
daemon, one worker pool, and one sharded disk-cache root, instead of
each paying cold simulations for overlapping grids.

Three properties carry the design:

* **In-flight dedup.**  Every submitted job is keyed by its
  :class:`~repro.eval.jobs.JobKey`; a key already being computed for
  one tenant is *joined*, not recomputed, by every other tenant that
  asks for it before it lands (``source: "inflight"`` in their result
  line).  Combined with the memory/disk caches this makes N clients
  sweeping the same grid cost one client's simulations.
* **Byte-identical results.**  A result line carries the job's result
  as :func:`repro.fingerprint.canonical` JSON plus a sha256 digest of
  that JSON, so clients can assert — and the tests/benchmarks do —
  that daemon results are identical to inline execution.  Simulations
  are deterministic; where they ran must not matter.
* **Graceful degradation.**  The worker pool is a pluggable
  :class:`~repro.eval.backends.WorkerBackend`.  On a 1-CPU box the
  daemon still wins through dedup and cache hits (run ``--jobs 1
  --backend thread``); on multi-core the spawned pool gives real
  parallelism.  All service state (in-flight table, counters) lives
  on the single event loop thread, so no locks are needed around it.

Wire protocol (HTTP/1.1, persistent ``keep-alive`` connections; the
daemon answers every well-formed request with ``Connection:
keep-alive`` and serves the next request on the same socket, closing
only on client request, protocol errors, or the idle timeout):

* ``POST /v1/submit`` with ``{"jobs": [{...}, ...]}`` — responds
  ``200`` with chunked ``application/x-ndjson``: one JSON line per job
  *in completion order*, each carrying the submission ``index``, the
  result digest, and the measured ``cpu_seconds``/``wall_seconds``.
  With ``{"jobs": [...], "pickle": true}`` each line also carries the
  base64-pickled result object, which is how a
  :class:`~repro.eval.remote.RemoteBackend` reconstructs real result
  objects on the far side (the digest over the canonical JSON is
  recomputed from the unpickled object — the cross-machine
  correctness gate).  Malformed requests get a ``400`` with
  ``{"ok": false, "error": ...}``.
* ``GET /v1/health`` — backend, worker count, in-flight size, the
  code fingerprint (version gate for federation), per-worker
  federation state when the daemon fronts a fleet, and ``"stats"``:
  eight job counters read from the ``serve.*`` registry counters
  (``submitted`` is ``serve.jobs_submitted``, ``deduped`` is
  ``serve.dedup_joins``, the rest share their names).
* ``GET /v1/metrics`` — the obs :class:`~repro.obs.registry.MetricsRegistry`
  snapshot (``serve.*`` service counters plus ``federation.*`` fleet
  counters) as canonical JSON.  Each event is counted once, there.
* ``POST /v1/shutdown`` — acknowledge, then stop the daemon.

**Federation**: started with ``--worker URL`` (repeatable), the daemon
becomes a *front*: each submitted job is routed to a worker daemon by
the same key digest that shards the disk cache, results stream back
merged in completion order, and a job a dying worker never answered
moves to the next live worker (see :mod:`repro.eval.remote`).

:class:`ServeClient` is the stdlib (``http.client``) client used by the
tests, the stress benchmark, CI's serve-smoke job, and the remote
backend.  It holds one persistent keep-alive connection and reconnects
transparently when the daemon (or the idle timeout) dropped it —
every API request is idempotent, so a replay after a stale socket is
safe.
"""

from __future__ import annotations

import argparse
import asyncio
import base64
import contextlib
import http.client
import json
import os
import pickle
import signal
import sys
import threading
from dataclasses import dataclass, field
from hashlib import sha256
from pathlib import Path
from typing import (
    Any, AsyncIterator, Dict, Iterator, List, Optional, Sequence, Tuple,
    Union,
)

from repro.core.modes import CAMPAIGN_MODES
from repro.core.slipstream import SlipstreamConfig
from repro.eval import models
from repro.eval.backends import BACKENDS, WorkerBackend, resolve_backend
from repro.eval.jobs import (
    MISS,
    JobKey,
    JobSpec,
    baseline_spec,
    big_core_spec,
    ceiling_spec,
    code_fingerprint,
    count_spec,
    crosscheck_spec,
    fault_spec,
    injection_spec,
    job_label,
    mode_reference_spec,
    slipstream_spec,
)
from repro.eval.oracle import DurationOracle
from repro.eval.resilience import RetryPolicy
from repro.fault.injector import FaultSite
from repro.fingerprint import canonical
from repro.obs.registry import MetricsRegistry
from repro.workloads.suite import benchmark_suite

#: Upper bound on a submit body; a full artifact grid is ~kilobytes.
MAX_BODY_BYTES = 8 * 1024 * 1024
#: Upper bound on jobs per batch (matches the runner's practical scale).
MAX_BATCH_JOBS = 4096
#: asyncio stream limit: caps request-line/header length.
_STREAM_LIMIT = 1024 * 1024

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
}


# ----------------------------------------------------------------------
# JSON job codec.
# ----------------------------------------------------------------------


class SpecError(ValueError):
    """A malformed job object in a submit payload (maps to HTTP 400)."""


#: Scalar SlipstreamConfig fields a "cmp" job may override over the
#: wire.  Whitelisted: nested objects (cores, predictor) stay
#: server-side defaults so a request can never smuggle arbitrary
#: structure into the simulator.
CONFIG_FIELDS: Dict[str, type] = {
    "trace_length": int,
    "ir_scope_traces": int,
    "confidence_threshold": int,
    "delay_buffer_capacity": int,
    "transfer_latency": int,
    "delay_merge_width": int,
    "max_instructions": int,
    "removal_mechanism": str,
    "static_hints": bool,
    "decorrelated": bool,
}

_REMOVAL_TRIGGERS = ("BR", "WW", "SV")

_BASE_KEYS = frozenset({"model", "benchmark", "scale"})
_ALLOWED_KEYS = {
    "count": _BASE_KEYS,
    "ss64": _BASE_KEYS,
    "ss128": _BASE_KEYS,
    "xcheck": _BASE_KEYS,
    "ceiling": _BASE_KEYS,
    "cmp": _BASE_KEYS | {"removal_triggers", "config"},
    "fault": _BASE_KEYS | {"points", "sites"},
    "finj": _BASE_KEYS | {"site", "target_seq", "bit", "ecc", "mode"},
    "nref": _BASE_KEYS | {"mode"},
}

#: N-stream fault-free references the daemon will simulate on request;
#: the pairwise modes reuse the existing "cmp" model instead.
_NREF_MODES = ("tmr", "replay")

_BENCHMARK_NAMES: Optional[Tuple[str, ...]] = None


def _benchmark_names() -> Tuple[str, ...]:
    global _BENCHMARK_NAMES
    if _BENCHMARK_NAMES is None:
        _BENCHMARK_NAMES = tuple(b.name for b in benchmark_suite())
    return _BENCHMARK_NAMES


def _require_int(payload: Dict[str, Any], key: str, default: int,
                 minimum: int, maximum: int) -> int:
    value = payload.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(f"{key!r} must be an integer, got {value!r}")
    if not minimum <= value <= maximum:
        raise SpecError(f"{key!r} must be in [{minimum}, {maximum}], "
                        f"got {value}")
    return value


def _parse_triggers(raw: Any) -> Tuple[str, ...]:
    if raw is None:
        return _REMOVAL_TRIGGERS
    if (not isinstance(raw, list)
            or not all(isinstance(t, str) for t in raw)):
        raise SpecError("'removal_triggers' must be a list of strings")
    bad = [t for t in raw if t not in _REMOVAL_TRIGGERS]
    if bad:
        raise SpecError(f"unknown removal triggers {bad}; "
                        f"expected a subset of {list(_REMOVAL_TRIGGERS)}")
    return tuple(raw)


def _parse_config(raw: Any, triggers: Tuple[str, ...]) -> SlipstreamConfig:
    if not isinstance(raw, dict):
        raise SpecError("'config' must be an object")
    fields: Dict[str, Any] = {}
    for name in sorted(raw):
        expected = CONFIG_FIELDS.get(name)
        if expected is None:
            raise SpecError(
                f"unknown config field {name!r}; "
                f"expected a subset of {sorted(CONFIG_FIELDS)}"
            )
        value = raw[name]
        if expected is int:
            if isinstance(value, bool) or not isinstance(value, int):
                raise SpecError(f"config field {name!r} must be an integer")
            if value < 1:
                raise SpecError(f"config field {name!r} must be >= 1")
        elif not isinstance(value, expected):
            raise SpecError(
                f"config field {name!r} must be {expected.__name__}"
            )
        fields[name] = value
    if fields.get("removal_mechanism", "trace") not in ("trace", "pc"):
        raise SpecError("config field 'removal_mechanism' must be "
                        "'trace' or 'pc'")
    return SlipstreamConfig(removal_triggers=triggers, **fields)


def _parse_sites(raw: Any) -> Tuple[FaultSite, ...]:
    if raw is None:
        return (FaultSite.A_RESULT, FaultSite.R_TRANSIENT)
    if (not isinstance(raw, list) or not raw
            or not all(isinstance(s, str) for s in raw)):
        raise SpecError("'sites' must be a non-empty list of strings")
    sites = []
    for name in raw:
        try:
            sites.append(FaultSite[name])
        except KeyError:
            raise SpecError(
                f"unknown fault site {name!r}; expected a subset of "
                f"{sorted(FaultSite.__members__)}"
            ) from None
    return tuple(sites)


def _parse_site(raw: Any) -> FaultSite:
    if not isinstance(raw, str):
        raise SpecError(f"'site' must be a string, got {raw!r}")
    try:
        return FaultSite[raw]
    except KeyError:
        raise SpecError(
            f"unknown fault site {raw!r}; expected one of "
            f"{sorted(FaultSite.__members__)}"
        ) from None


def _parse_mode(raw: Any, allowed: Tuple[str, ...],
                default: Optional[str] = None) -> str:
    if raw is None:
        if default is None:
            raise SpecError(f"'mode' is required; "
                            f"expected one of {list(allowed)}")
        return default
    if not isinstance(raw, str) or raw not in allowed:
        raise SpecError(f"unknown mode {raw!r}; "
                        f"expected one of {list(allowed)}")
    return raw


def _require_bool(payload: Dict[str, Any], key: str) -> bool:
    value = payload.get(key, False)
    if not isinstance(value, bool):
        raise SpecError(f"{key!r} must be a boolean, got {value!r}")
    return value


def spec_from_json(payload: Any) -> JobSpec:
    """Decode one job object from a submit payload into a
    :class:`~repro.eval.jobs.JobSpec`; :class:`SpecError` on anything
    malformed (unknown model/benchmark/field, wrong types, bad ranges).
    """
    if not isinstance(payload, dict):
        raise SpecError(f"job must be an object, got {type(payload).__name__}")
    model = payload.get("model")
    allowed = _ALLOWED_KEYS.get(model) if isinstance(model, str) else None
    if allowed is None:
        raise SpecError(f"unknown model {model!r}; "
                        f"expected one of {sorted(_ALLOWED_KEYS)}")
    unexpected = sorted(set(payload) - allowed)
    if unexpected:
        raise SpecError(f"unexpected fields {unexpected} for model "
                        f"{model!r}; allowed: {sorted(allowed)}")
    benchmark = payload.get("benchmark")
    if benchmark not in _benchmark_names():
        raise SpecError(f"unknown benchmark {benchmark!r}; "
                        f"expected one of {list(_benchmark_names())}")
    scale = _require_int(payload, "scale", default=1, minimum=1, maximum=4096)
    if model == "count":
        return count_spec(benchmark, scale)
    if model == "ss64":
        return baseline_spec(benchmark, scale)
    if model == "ss128":
        return big_core_spec(benchmark, scale)
    if model == "xcheck":
        return crosscheck_spec(benchmark, scale)
    if model == "ceiling":
        return ceiling_spec(benchmark, scale)
    if model == "cmp":
        triggers = _parse_triggers(payload.get("removal_triggers"))
        if "config" in payload:
            config = _parse_config(payload["config"], triggers)
            return slipstream_spec(benchmark, scale, config=config)
        return slipstream_spec(benchmark, scale, triggers)
    if model == "finj":
        site = _parse_site(payload.get("site"))
        if "target_seq" not in payload:
            raise SpecError("'target_seq' is required for model 'finj'")
        target_seq = _require_int(payload, "target_seq", default=0,
                                  minimum=0, maximum=2 ** 31)
        bit = _require_int(payload, "bit", default=7, minimum=0, maximum=31)
        ecc = _require_bool(payload, "ecc")
        mode = _parse_mode(payload.get("mode"), CAMPAIGN_MODES,
                           default="slipstream")
        return injection_spec(benchmark, site, target_seq, bit, scale,
                              ecc, mode)
    if model == "nref":
        mode = _parse_mode(payload.get("mode"), _NREF_MODES)
        return mode_reference_spec(benchmark, mode, scale)
    # model == "fault"
    points = _require_int(payload, "points", default=6, minimum=1,
                          maximum=1024)
    return fault_spec(benchmark, scale, points,
                      _parse_sites(payload.get("sites")))


def spec_to_json(spec: JobSpec) -> Dict[str, Any]:
    """Encode a :class:`~repro.eval.jobs.JobSpec` as a submit-payload
    job object — the inverse of :func:`spec_from_json`, used by the
    remote backend to forward specs over the wire.

    Every encoding is *verified* by decoding it back and comparing job
    keys, so a spec the codec cannot faithfully express — a chaos job,
    or a cmp config with non-whitelisted structure (core overrides, a
    custom predictor) — raises :class:`SpecError` instead of silently
    computing the wrong job on the far side.  Federation routes such
    jobs to the local backend.
    """
    key = spec.key
    model = key.model
    if model not in _ALLOWED_KEYS:
        raise SpecError(f"model {model!r} is not remotable")
    payload: Dict[str, Any] = {"model": model, "benchmark": key.benchmark}
    if key.scale != 1:
        payload["scale"] = key.scale
    if model == "cmp":
        config = spec.config if spec.config is not None else SlipstreamConfig(
            removal_triggers=key.removal_triggers
        )
        payload["removal_triggers"] = list(config.removal_triggers)
        defaults = SlipstreamConfig()
        overrides = {
            name: getattr(config, name)
            for name in sorted(CONFIG_FIELDS)
            if getattr(config, name) != getattr(defaults, name)
        }
        if overrides:
            payload["config"] = overrides
    elif model == "fault":
        payload["points"] = spec.points
        payload["sites"] = [site.name for site in spec.sites]
    elif model == "finj":
        if spec.fault is None:
            raise SpecError("finj spec carries no fault")
        payload["site"] = spec.fault.site.name
        payload["target_seq"] = spec.fault.target_seq
        payload["bit"] = spec.fault.bit
        payload["ecc"] = spec.ecc
        payload["mode"] = spec.mode
    elif model == "nref":
        payload["mode"] = spec.mode
    try:
        decoded = spec_from_json(payload)
    except SpecError as exc:
        raise SpecError(
            f"job {job_label(key)} is not remotable: {exc}"
        ) from exc
    if decoded.key != key:
        raise SpecError(
            f"job {job_label(key)} does not survive the wire codec "
            f"(decoded as {job_label(decoded.key)}); not remotable"
        )
    return payload


def canonical_result_blob(result: object) -> Tuple[Any, str]:
    """(canonical JSON body, sha256 hex digest) of one job result — the
    byte identity every transport (daemon, federation, remote backend)
    must preserve bit-for-bit."""
    try:
        body: Any = canonical(result)
    except TypeError:
        body = {"repr": repr(result)}
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return body, sha256(blob.encode("utf-8")).hexdigest()


def result_payload(index: int, key: JobKey, source: str,
                   result: object, cpu_seconds: float = 0.0,
                   wall_seconds: float = 0.0,
                   include_pickle: bool = False) -> Dict[str, Any]:
    """One JSONL result line: the canonical result body plus a sha256
    digest of its sorted-key JSON, the identity clients compare against
    inline runs.  ``include_pickle`` adds the base64-pickled result
    object for remote backends that need to reconstruct it; the digest
    stays over the canonical JSON either way."""
    body, digest = canonical_result_blob(result)
    line = {
        "index": index,
        "job": job_label(key),
        "ok": True,
        "source": source,
        "digest": digest,
        "result": body,
        "cpu_seconds": cpu_seconds,
        "wall_seconds": wall_seconds,
    }
    if include_pickle:
        line["pickle"] = base64.b64encode(
            pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        ).decode("ascii")
    return line


def error_payload(index: int, key: JobKey, exc: BaseException) -> Dict[str, Any]:
    return {
        "index": index,
        "job": job_label(key),
        "ok": False,
        "error": f"{type(exc).__name__}: {exc}",
    }


# ----------------------------------------------------------------------
# The service: dedup + caches + backend, all on one event loop.
# ----------------------------------------------------------------------


#: ``/v1/health`` ``"stats"`` key -> the ``serve.*`` counter it reads.
HEALTH_STATS = {
    "batches": "serve.batches",
    "submitted": "serve.jobs_submitted",
    "memory_hits": "serve.memory_hits",
    "disk_hits": "serve.disk_hits",
    "deduped": "serve.dedup_joins",
    "simulated": "serve.simulated",
    "retries": "serve.retries",
    "failures": "serve.failures",
}


class EvalService:
    """Job execution shared by every connection of one daemon.

    All mutable state (the in-flight table, the ``serve.*`` counters,
    the memory cache adoption) is touched only from the event loop thread;
    worker attempts run on the backend and blocking disk I/O on
    ``asyncio.to_thread``, both rejoined via await.
    """

    def __init__(
        self,
        jobs: int = 1,
        backend: Union[str, WorkerBackend, None] = None,
        policy: Optional[RetryPolicy] = None,
        use_disk_cache: bool = True,
        workers: Optional[Sequence[str]] = None,
    ):
        self.jobs = max(1, jobs)
        self.policy = policy if policy is not None else RetryPolicy()
        self.disk = models.disk_cache() if use_disk_cache else None
        self.oracle = DurationOracle.for_cache_root(
            self.disk.root if self.disk is not None else None
        )
        self.metrics = MetricsRegistry()
        for name in ("serve.connections", "serve.requests",
                     "serve.jobs_served", *HEALTH_STATS.values()):
            self.metrics.counter(name)
        self.metrics.gauge("serve.inflight")
        if workers:
            # Federation front: route jobs to worker daemons; the
            # requested backend becomes the local fallback pool for
            # non-remotable jobs and dead-fleet degradation.
            from repro.eval.remote import FederationBackend

            self.backend: WorkerBackend = FederationBackend(
                workers,
                local=resolve_backend(backend, default="thread"),
                policy=self.policy,
                metrics=self.metrics,
            )
        else:
            self.backend = resolve_backend(backend, default="thread")
        self._inflight: Dict[
            JobKey, "asyncio.Task[Tuple[str, object, float, float]]"
        ] = {}

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        if not self.backend.running:
            self.backend.start(self.jobs)

    def close(self) -> None:
        if self.backend.running:
            self.backend.shutdown(wait=False)
        self.oracle.save()

    # -- execution ------------------------------------------------------

    def submit(self, spec: JobSpec) -> Tuple[
        "asyncio.Task[Tuple[str, object, float, float]]", bool
    ]:
        """The in-flight task computing ``spec`` and whether this caller
        *joined* an existing one (the dedup path) instead of starting it."""
        key = spec.key
        existing = self._inflight.get(key)
        if existing is not None:
            self.metrics.counter("serve.dedup_joins").inc()
            return existing, True
        task = asyncio.ensure_future(self._compute(spec))
        self._inflight[key] = task
        task.add_done_callback(
            lambda _t, key=key: self._job_done(key)
        )
        self.metrics.gauge("serve.inflight").set(len(self._inflight))
        return task, False

    def _job_done(self, key: JobKey) -> None:
        self._inflight.pop(key, None)
        self.metrics.gauge("serve.inflight").set(len(self._inflight))

    async def _compute(
        self, spec: JobSpec
    ) -> Tuple[str, object, float, float]:
        """memory cache -> disk cache -> backend attempt(s) with the
        policy's retries; stores fresh results at both cache levels.
        Returns (source, result, cpu seconds, wall seconds); cache hits
        report zero cost."""
        key = spec.key
        cached = models._CACHE.get(key)
        if cached is not None:
            self.metrics.counter("serve.memory_hits").inc()
            return "memory", cached, 0.0, 0.0
        if self.disk is not None:
            hit = await asyncio.to_thread(self.disk.load, key)
            if hit is not MISS:
                models._CACHE[key] = hit
                self.metrics.counter("serve.disk_hits").inc()
                return "disk", hit, 0.0, 0.0
        attempt = 0
        while True:
            self.start()
            try:
                future = self.backend.submit(spec, self.policy.timeout_seconds)
                (result, wall, cpu, _started,
                 _report) = await asyncio.wrap_future(future)
            except Exception:
                # JobTimeout, BrokenExecutor, or whatever the attempt
                # raised: all retryable up to the policy's budget.
                if self.backend.can_crash and self.backend.broken():
                    self.backend.shutdown(wait=False)
                if attempt >= self.policy.max_retries:
                    self.metrics.counter("serve.failures").inc()
                    raise
                attempt += 1
                self.metrics.counter("serve.retries").inc()
                await asyncio.sleep(self.policy.backoff_seconds(attempt))
                continue
            models._CACHE[key] = result
            if self.disk is not None:
                await asyncio.to_thread(self.disk.store, key, result)
            self.oracle.observe(key, cpu)
            self.metrics.counter("serve.simulated").inc()
            return "fresh", result, cpu, wall

    async def stream_batch(
        self, specs: Sequence[JobSpec], include_pickle: bool = False
    ) -> AsyncIterator[Dict[str, Any]]:
        """Result lines for one batch, yielded in completion order.

        Shared in-flight tasks are shielded: a tenant disconnecting
        mid-batch never cancels a computation other tenants may be
        waiting on (or would benefit from via the cache).
        """
        self.metrics.counter("serve.batches").inc()
        self.metrics.counter("serve.jobs_submitted").inc(len(specs))

        async def finish(
            index: int, spec: JobSpec,
            task: "asyncio.Task[Tuple[str, object, float, float]]",
            joined: bool,
        ) -> Dict[str, Any]:
            try:
                source, result, cpu, wall = await asyncio.shield(task)
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # noqa: BLE001 - reported per-job
                return error_payload(index, spec.key, exc)
            return result_payload(
                index, spec.key, "inflight" if joined else source, result,
                cpu_seconds=cpu, wall_seconds=wall,
                include_pickle=include_pickle,
            )

        waiters = []
        for index, spec in enumerate(specs):
            task, joined = self.submit(spec)
            waiters.append(finish(index, spec, task, joined))
        try:
            for done in asyncio.as_completed(waiters):
                line = await done
                self.metrics.counter("serve.jobs_served").inc()
                yield line
        finally:
            await asyncio.to_thread(self.oracle.save)

    # -- introspection --------------------------------------------------

    def health_payload(self) -> Dict[str, Any]:
        payload = {
            "ok": True,
            "backend": self.backend.name,
            "workers": self.backend.workers,
            "jobs": self.jobs,
            "inflight": len(self._inflight),
            "cache_root": str(self.disk.root) if self.disk is not None
            else None,
            "code_fingerprint": code_fingerprint(),
            "stats": {key: self.metrics.counter(name).value
                      for key, name in HEALTH_STATS.items()},
        }
        # Federation fronts report per-worker fleet state.
        worker_states = getattr(self.backend, "worker_states", None)
        if worker_states is not None:
            payload["federation"] = worker_states()
        return payload


# ----------------------------------------------------------------------
# The HTTP layer.
# ----------------------------------------------------------------------


class _HttpError(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


#: Default seconds an idle keep-alive connection is held open before
#: the daemon reclaims it; clients reconnect transparently.
KEEPALIVE_IDLE_SECONDS = 120.0


class EvalServer:
    """One listening daemon bound to an :class:`EvalService`.

    Connections are persistent: each handler loops over requests on
    its socket (``Connection: keep-alive``) until the client closes,
    asks to close, errors, or sits idle past
    ``keepalive_idle_seconds``.  Open connections are tracked so
    shutdown can reclaim idle keep-alive sockets instead of waiting
    on them.
    """

    def __init__(self, service: EvalService, host: str = "127.0.0.1",
                 port: int = 0,
                 keepalive_idle_seconds: float = KEEPALIVE_IDLE_SECONDS):
        self.service = service
        self.host = host
        self.requested_port = port
        self.keepalive_idle_seconds = keepalive_idle_seconds
        self.port: Optional[int] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._stop: Optional[asyncio.Event] = None
        self._writers: set = set()

    async def start(self) -> None:
        self._stop = asyncio.Event()
        self.service.start()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.requested_port,
            limit=_STREAM_LIMIT,
        )
        self.port = self._server.sockets[0].getsockname()[1]

    def request_stop(self) -> None:
        if self._stop is not None:
            self._stop.set()

    async def serve_until_stopped(self) -> None:
        """Block until :meth:`request_stop` (or ``POST /v1/shutdown``),
        then tear down the listener and the service."""
        assert self._server is not None and self._stop is not None
        try:
            await self._stop.wait()
        finally:
            self._server.close()
            # Reclaim lingering keep-alive connections so shutdown is
            # never held hostage by an idle client socket.
            for writer in list(self._writers):
                with contextlib.suppress(ConnectionError, OSError):
                    writer.close()
            await self._server.wait_closed()
            self.service.close()

    # -- request plumbing ----------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        """One connection: serve requests until close/idle/error.

        Well-formed requests are answered ``Connection: keep-alive``
        and the loop reads the next request off the same socket; error
        responses close the connection so framing stays unambiguous.
        """
        self.service.metrics.counter("serve.connections").inc()
        self._writers.add(writer)
        headers_sent = False
        try:
            while True:
                headers_sent = False
                try:
                    request = await asyncio.wait_for(
                        self._read_request(reader),
                        timeout=self.keepalive_idle_seconds,
                    )
                except asyncio.TimeoutError:
                    break  # idle keep-alive connection: reclaim it
                if request is None:
                    break
                method, path, headers, body = request
                self.service.metrics.counter("serve.requests").inc()
                keep_alive = headers.get("connection", "").lower() != "close"
                stopping = False
                try:
                    if path == "/v1/health":
                        if method != "GET":
                            raise _HttpError(405, "use GET /v1/health")
                        self._plain(writer, 200,
                                    self.service.health_payload(),
                                    keep_alive=keep_alive)
                    elif path == "/v1/metrics":
                        if method != "GET":
                            raise _HttpError(405, "use GET /v1/metrics")
                        self._plain(writer, 200, {
                            "ok": True,
                            "metrics": self.service.metrics.snapshot(),
                        }, keep_alive=keep_alive)
                    elif path == "/v1/shutdown":
                        if method != "POST":
                            raise _HttpError(405, "use POST /v1/shutdown")
                        self._plain(writer, 200,
                                    {"ok": True, "stopping": True},
                                    keep_alive=False)
                        stopping = True
                    elif path == "/v1/submit":
                        if method != "POST":
                            raise _HttpError(405, "use POST /v1/submit")
                        specs, want_pickle = self._parse_submit(body)
                        headers_sent = True
                        await self._stream_submit(writer, specs, want_pickle,
                                                  keep_alive=keep_alive)
                    else:
                        raise _HttpError(404, f"no such endpoint: {path}")
                    await writer.drain()
                except _HttpError as err:
                    if not headers_sent:
                        self._plain(writer, err.status,
                                    {"ok": False, "error": err.message},
                                    keep_alive=False)
                        await writer.drain()
                    break
                if stopping:
                    self.request_stop()
                    break
                if not keep_alive:
                    break
        except _HttpError as err:
            # Malformed framing from _read_request: answer and close.
            if not headers_sent:
                with contextlib.suppress(ConnectionError, OSError):
                    self._plain(writer, err.status,
                                {"ok": False, "error": err.message},
                                keep_alive=False)
                    await writer.drain()
        except asyncio.CancelledError:
            # Daemon teardown cancelled this handler (keep-alive
            # handlers outlive requests): close the connection quietly
            # instead of surfacing a cancellation traceback.
            pass
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            pass  # client went away; in-flight jobs keep running
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            if not headers_sent:
                with contextlib.suppress(ConnectionError, OSError):
                    self._plain(writer, 500, {
                        "ok": False,
                        "error": f"{type(exc).__name__}: {exc}",
                    }, keep_alive=False)
                    await writer.drain()
        finally:
            self._writers.discard(writer)
            with contextlib.suppress(ConnectionError, OSError):
                writer.close()
                await writer.wait_closed()

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        try:
            request_line = await reader.readline()
        except (ValueError, asyncio.LimitOverrunError) as exc:
            raise _HttpError(400, "request line too long") from exc
        if not request_line:
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _HttpError(400, "malformed request line")
        method, target = parts[0], parts[1]
        headers: Dict[str, str] = {}
        for _ in range(100):
            try:
                line = await reader.readline()
            except (ValueError, asyncio.LimitOverrunError) as exc:
                raise _HttpError(400, "header line too long") from exc
            if line in (b"\r\n", b"\n", b""):
                break
            name, _sep, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        else:
            raise _HttpError(400, "too many headers")
        raw_length = headers.get("content-length", "0") or "0"
        try:
            length = int(raw_length)
        except ValueError:
            raise _HttpError(400, "bad Content-Length") from None
        if length < 0:
            raise _HttpError(400, "bad Content-Length")
        if length > MAX_BODY_BYTES:
            raise _HttpError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
        body = await reader.readexactly(length) if length else b""
        return method, target, headers, body

    def _parse_submit(self, body: bytes) -> Tuple[List[JobSpec], bool]:
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError, RecursionError) as exc:
            # RecursionError: nesting too deep for the decoder.
            raise _HttpError(400, f"body is not JSON: {exc}") from exc
        if not isinstance(payload, dict) or "jobs" not in payload:
            raise _HttpError(400, 'body must be {"jobs": [...]}')
        want_pickle = payload.get("pickle", False)
        if not isinstance(want_pickle, bool):
            raise _HttpError(400, "'pickle' must be a boolean")
        jobs = payload["jobs"]
        if not isinstance(jobs, list):
            raise _HttpError(400, "'jobs' must be a list")
        if len(jobs) > MAX_BATCH_JOBS:
            raise _HttpError(413, f"batch exceeds {MAX_BATCH_JOBS} jobs")
        specs = []
        for position, job in enumerate(jobs):
            try:
                specs.append(spec_from_json(job))
            except SpecError as exc:
                raise _HttpError(400, f"jobs[{position}]: {exc}") from exc
        return specs, want_pickle

    async def _stream_submit(self, writer: asyncio.StreamWriter,
                             specs: List[JobSpec], want_pickle: bool,
                             keep_alive: bool = True) -> None:
        connection = "keep-alive" if keep_alive else "close"
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n"
            + f"Connection: {connection}\r\n\r\n".encode("latin-1")
        )
        await writer.drain()
        async for line in self.service.stream_batch(
            specs, include_pickle=want_pickle
        ):
            data = (json.dumps(line, sort_keys=True) + "\n").encode("utf-8")
            writer.write(f"{len(data):x}\r\n".encode("latin-1")
                         + data + b"\r\n")
            await writer.drain()
        writer.write(b"0\r\n\r\n")
        await writer.drain()

    @staticmethod
    def _plain(writer: asyncio.StreamWriter, status: int,
               payload: Dict[str, Any], keep_alive: bool = False) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        connection = "keep-alive" if keep_alive else "close"
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {connection}\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + body)


# ----------------------------------------------------------------------
# Embedded server (tests, benchmarks) and CLI entry point.
# ----------------------------------------------------------------------


@dataclass
class ServerHandle:
    """A daemon running on a background thread of this process."""

    host: str
    port: int
    thread: threading.Thread
    _loop: asyncio.AbstractEventLoop
    _server: EvalServer
    service: EvalService = field(init=False)

    def __post_init__(self) -> None:
        self.service = self._server.service

    def stop(self, timeout: float = 30.0) -> None:
        self._loop.call_soon_threadsafe(self._server.request_stop)
        self.thread.join(timeout=timeout)


def start_server_thread(
    service: Optional[EvalService] = None,
    host: str = "127.0.0.1",
    port: int = 0,
    keepalive_idle_seconds: float = KEEPALIVE_IDLE_SECONDS,
    **service_kwargs: Any,
) -> ServerHandle:
    """Run a daemon on a dedicated thread with its own event loop; used
    by the tests and the ``--serve`` stress benchmark to self-host.
    ``service_kwargs`` construct the :class:`EvalService` when none is
    supplied."""
    svc = service if service is not None else EvalService(**service_kwargs)
    ready = threading.Event()
    box: Dict[str, Any] = {}

    async def amain() -> None:
        server = EvalServer(svc, host=host, port=port,
                            keepalive_idle_seconds=keepalive_idle_seconds)
        await server.start()
        box["server"] = server
        box["loop"] = asyncio.get_running_loop()
        ready.set()
        await server.serve_until_stopped()

    def run() -> None:
        try:
            asyncio.run(amain())
        except BaseException as exc:  # noqa: BLE001 - surfaced to starter
            box["error"] = exc
            ready.set()

    thread = threading.Thread(target=run, name="repro-eval-serve",
                              daemon=True)
    thread.start()
    ready.wait(timeout=30.0)
    if "error" in box:
        raise RuntimeError("eval server failed to start") from box["error"]
    if "server" not in box:
        raise RuntimeError("eval server did not come up within 30s")
    server: EvalServer = box["server"]
    assert server.port is not None
    return ServerHandle(host=host, port=server.port, thread=thread,
                        _loop=box["loop"], _server=server)


class ServeError(RuntimeError):
    """A non-200 daemon response."""

    def __init__(self, status: int, detail: str):
        super().__init__(f"HTTP {status}: {detail}")
        self.status = status
        self.detail = detail


class ServeClient:
    """Minimal stdlib client for the daemon's API.

    One persistent keep-alive connection serves every request —
    pipelined batches over a warm socket instead of a TCP+parse
    handshake per call.  A stale socket (daemon restarted, idle
    timeout fired, connection dropped) is detected on the next request
    and replayed once over a fresh connection; every daemon API
    request is idempotent (submits are deduped/cached server-side), so
    the transparent replay is safe.

    :meth:`submit` is a generator yielding result lines as the daemon
    streams them — iterate promptly.  Draining the stream fully keeps
    the connection reusable; abandoning the generator mid-stream
    closes it (the socket holds unread data).
    """

    #: A request over a previously-good connection that fails with one
    #: of these gets one transparent replay on a fresh connection.
    _STALE_ERRORS = (http.client.HTTPException, ConnectionError,
                     BrokenPipeError, OSError)

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 timeout: float = 600.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._conn: Optional[http.client.HTTPConnection] = None

    def close(self) -> None:
        """Drop the persistent connection (safe to call any time; the
        next request reconnects)."""
        conn, self._conn = self._conn, None
        if conn is not None:
            with contextlib.suppress(OSError):
                conn.close()

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def _request(self, method: str, path: str,
                 payload: Optional[Dict[str, Any]] = None):
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        response = None
        for attempt in (0, 1):
            conn = self._connection()
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                break
            except TimeoutError:
                # A genuine deadline, not a stale socket: don't double
                # the caller's wait with a replay.
                self.close()
                raise
            except self._STALE_ERRORS:
                self.close()
                if attempt:
                    raise
        assert response is not None
        if response.status != 200:
            raw = response.read().decode("utf-8", "replace")
            if response.will_close:
                self.close()
            try:
                detail = json.loads(raw).get("error", raw)
            except ValueError:
                detail = raw
            raise ServeError(response.status, detail)
        return response

    def _json_body(self, response) -> Dict[str, Any]:
        try:
            raw = response.read()
        except self._STALE_ERRORS:
            self.close()
            raise
        if response.will_close:
            self.close()
        return json.loads(raw.decode("utf-8"))

    def health(self) -> Dict[str, Any]:
        return self._json_body(self._request("GET", "/v1/health"))

    def metrics(self) -> Dict[str, Any]:
        return self._json_body(self._request("GET", "/v1/metrics"))

    def shutdown(self) -> Dict[str, Any]:
        try:
            return self._json_body(
                self._request("POST", "/v1/shutdown", payload={})
            )
        finally:
            self.close()  # the daemon is going away; don't reuse

    def submit(self, jobs: Sequence[Dict[str, Any]],
               include_pickle: bool = False) -> Iterator[Dict[str, Any]]:
        """Yield one result line per job, in the daemon's completion
        order (``http.client`` de-chunks the stream transparently).
        ``include_pickle`` asks the daemon for base64-pickled result
        objects on every line (the remote backend's transport)."""
        payload: Dict[str, Any] = {"jobs": list(jobs)}
        if include_pickle:
            payload["pickle"] = True
        response = self._request("POST", "/v1/submit", payload=payload)
        drained = False
        try:
            while True:
                try:
                    line = response.readline()
                except self._STALE_ERRORS:
                    self.close()
                    raise
                if not line:
                    drained = True
                    break
                yield json.loads(line.decode("utf-8"))
        finally:
            if not drained or response.will_close:
                # Abandoned mid-stream (or the daemon is closing): the
                # socket holds unread data and cannot be reused.
                self.close()

    def submit_all(self, jobs: Sequence[Dict[str, Any]],
                   include_pickle: bool = False) -> List[Dict[str, Any]]:
        return list(self.submit(jobs, include_pickle=include_pickle))


def default_backend_name() -> str:
    """"spawn" where parallelism can pay, "thread" on a 1-CPU box (the
    graceful degradation: dedup + cache hits, no process overhead)."""
    return "spawn" if (os.cpu_count() or 1) > 1 else "thread"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval serve",
        description="Serve the evaluation job API over local HTTP.",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: loopback only)")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port; 0 picks a free one (default)")
    parser.add_argument("--port-file", default=None, metavar="PATH",
                        help="write the bound port here once listening")
    parser.add_argument("--jobs", type=int,
                        default=max(1, min(4, os.cpu_count() or 1)),
                        help="worker pool size")
    parser.add_argument("--backend", choices=sorted(BACKENDS), default=None,
                        help="worker backend (default: spawn on multi-core, "
                             "thread on 1 CPU)")
    parser.add_argument("--timeout", type=float, default=None, metavar="SEC",
                        help="per-attempt wall-clock budget")
    parser.add_argument("--retries", type=int, default=2,
                        help="re-attempts per failed job")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="disk-cache root to serve from")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the persistent disk cache")
    parser.add_argument("--worker", action="append", default=None,
                        metavar="URL",
                        help="federate: shard submitted jobs across these "
                             "worker daemons (host:port, repeatable); the "
                             "local backend then only runs non-remotable "
                             "jobs and dead-fleet fallbacks")
    parser.add_argument("--keepalive-idle", type=float,
                        default=KEEPALIVE_IDLE_SECONDS, metavar="SEC",
                        help="seconds an idle keep-alive connection is "
                             "held open")
    return parser


async def _amain(service: EvalService, args: argparse.Namespace) -> int:
    server = EvalServer(service, host=args.host, port=args.port,
                        keepalive_idle_seconds=args.keepalive_idle)
    await server.start()
    loop = asyncio.get_running_loop()
    for signame in ("SIGINT", "SIGTERM"):
        signum = getattr(signal, signame, None)
        if signum is None:
            continue
        with contextlib.suppress(NotImplementedError):
            loop.add_signal_handler(signum, server.request_stop)
    if args.port_file:
        Path(args.port_file).write_text(f"{server.port}\n", encoding="utf-8")
    print(
        f"repro-eval serve: http://{args.host}:{server.port} "
        f"(backend={service.backend.name}, jobs={service.jobs}, "
        f"cache={'off' if service.disk is None else service.disk.root})",
        file=sys.stderr, flush=True,
    )
    await server.serve_until_stopped()
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.no_cache:
        models.configure_disk_cache(enabled=False)
    elif args.cache_dir:
        models.configure_disk_cache(enabled=True, cache_dir=args.cache_dir)
    policy = RetryPolicy(timeout_seconds=args.timeout,
                         max_retries=max(0, args.retries))
    service = EvalService(
        jobs=args.jobs,
        backend=args.backend or default_backend_name(),
        policy=policy,
        use_disk_cache=not args.no_cache,
        workers=args.worker,
    )
    try:
        return asyncio.run(_amain(service, args))
    except KeyboardInterrupt:
        return 130


__all__ = [
    "CONFIG_FIELDS",
    "EvalServer",
    "EvalService",
    "HEALTH_STATS",
    "KEEPALIVE_IDLE_SECONDS",
    "MAX_BATCH_JOBS",
    "MAX_BODY_BYTES",
    "ServeClient",
    "ServeError",
    "ServerHandle",
    "SpecError",
    "canonical_result_blob",
    "default_backend_name",
    "error_payload",
    "main",
    "result_payload",
    "spec_from_json",
    "spec_to_json",
    "start_server_thread",
]
