"""The remote backend and the digest-sharded daemon federation.

Four tiers, matching what each failure mode needs:

* codec/decode tests run with no server at all;
* the federation's router runs against stub workers, which pin where
  each job is sent and which failures move it;
* :class:`~repro.eval.remote.RemoteBackend` tests run against an
  in-thread daemon (cheap, same-process);
* federation tests run against **subprocess** worker daemons — the
  in-process model memo (``models._CACHE``) is process-global, so
  exactly-once-fleet-wide can only be observed across real process
  boundaries, and killing a worker mid-batch needs a process to kill.
"""

import os
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import BrokenExecutor, Future
from concurrent.futures import wait as wait_futures
from pathlib import Path

import pytest

from repro.eval import jobs, models
from repro.eval.backends import WorkerBackend, resolve_backend
from repro.eval.jobs import (
    baseline_spec,
    cache_entry_digest,
    chaos_spec,
    count_spec,
    fault_spec,
    injection_spec,
    job_label,
    mode_reference_spec,
    slipstream_spec,
)
from repro.eval.models import run_cached
from repro.eval.remote import (
    FederationBackend,
    RemoteBackend,
    RemoteJobError,
    RemoteProtocolError,
    RemoteVersionError,
    WorkerDigestError,
    decode_result_line,
    parse_worker_url,
)
import repro.eval.remote as remote_mod
from repro.eval.resilience import ChaosPlan, RetryPolicy
from repro.eval.serve import (
    ServeClient,
    SpecError,
    canonical_result_blob,
    result_payload,
    spec_from_json,
    spec_to_json,
    start_server_thread,
)
from repro.fault.injector import FaultSite
from repro.obs.registry import MetricsRegistry

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


# ----------------------------------------------------------------------
# Fixtures and helpers.
# ----------------------------------------------------------------------


@pytest.fixture
def fresh_caches():
    """Disable the disk cache and clear the in-process memo, so every
    comparison against inline execution starts cold."""
    saved = (models._DISK, models._DISK_ENABLED)
    models._DISK = None
    models._DISK_ENABLED = False
    models.clear_cache()
    jobs.reset_simulation_count()
    yield
    models.clear_cache()
    models._DISK, models._DISK_ENABLED = saved


@pytest.fixture
def daemon(fresh_caches):
    """An in-thread daemon for the RemoteBackend transport tests."""
    handle = start_server_thread(jobs=2, backend="thread",
                                 use_disk_cache=False)
    yield handle
    handle.stop()


def _spawn_worker(tmp_path, tag):
    """One worker daemon subprocess; returns (process, port)."""
    port_file = tmp_path / f"{tag}.port"
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.eval", "serve", "--port", "0",
         "--port-file", str(port_file), "--jobs", "2",
         "--backend", "thread", "--cache-dir", str(tmp_path / f"c-{tag}")],
        env=env, stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 60.0
    while not port_file.exists() or not port_file.read_text().strip():
        if proc.poll() is not None:
            raise RuntimeError(f"worker {tag} exited {proc.returncode}")
        if time.monotonic() > deadline:
            proc.kill()
            raise RuntimeError(f"worker {tag} never bound a port")
        time.sleep(0.05)
    return proc, int(port_file.read_text().strip())


def _reap(procs):
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
        proc.wait(timeout=30)


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    """Two worker daemon subprocesses shared by the healthy-path
    federation tests (each test uses its own disjoint spec set and
    asserts on counter *deltas*)."""
    tmp = tmp_path_factory.mktemp("fleet")
    workers = [_spawn_worker(tmp, f"w{i}") for i in range(2)]
    yield workers
    _reap([proc for proc, _ in workers])


def _digest(result):
    return canonical_result_blob(result)[1]


def _inline_digest(spec):
    """The spec's digest under inline execution, forced cold."""
    models.clear_cache()
    return _digest(run_cached(spec))


def _worker_sims(port):
    client = ServeClient(port=port)
    try:
        return client.health()["stats"]["simulated"]
    finally:
        client.close()


# ----------------------------------------------------------------------
# Wire codec: spec encoding and result decoding (no server).
# ----------------------------------------------------------------------


class TestParseWorkerUrl:
    def test_host_port(self):
        assert parse_worker_url("127.0.0.1:8736") == ("127.0.0.1", 8736)

    def test_http_prefix_and_trailing_slash(self):
        assert parse_worker_url("http://worker-3:99/") == ("worker-3", 99)

    @pytest.mark.parametrize("bad", ["worker", ":8736", "host:", "host:x"])
    def test_invalid(self, bad):
        with pytest.raises(ValueError):
            parse_worker_url(bad)


class TestSpecToJson:
    """spec_to_json is the inverse of spec_from_json; every encoding is
    roundtrip-verified by construction, so equality on keys is the
    whole contract."""

    @pytest.mark.parametrize("spec", [
        count_spec("jpeg"),
        baseline_spec("go", 2),
        slipstream_spec("jpeg", 1, ("BR",)),
        fault_spec("jpeg", 1, 3, (FaultSite.A_RESULT,)),
        injection_spec("li", FaultSite.R_TRANSIENT, 123, bit=30,
                       scale=2, ecc=True, mode="tmr"),
        mode_reference_spec("jpeg", "tmr"),
    ])
    def test_roundtrip(self, spec):
        assert spec_from_json(spec_to_json(spec)).key == spec.key

    def test_chaos_is_not_remotable(self):
        spec = chaos_spec("boom", ChaosPlan(behavior="raise"))
        with pytest.raises(SpecError, match="not remotable"):
            spec_to_json(spec)


class TestDecodeResultLine:
    def _line(self, spec, **kwargs):
        models.clear_cache()
        result = run_cached(spec)
        return result, result_payload(0, spec.key, "fresh", result,
                                      include_pickle=True, **kwargs)

    def test_roundtrip(self, fresh_caches):
        spec = count_spec("jpeg")
        result, line = self._line(spec, cpu_seconds=1.5, wall_seconds=2.5)
        decoded, wall, cpu = decode_result_line(line, spec, "w:1")
        assert _digest(decoded) == _digest(result)
        assert (wall, cpu) == (2.5, 1.5)

    def test_digest_mismatch_names_the_worker(self, fresh_caches):
        spec = count_spec("jpeg")
        _result, line = self._line(spec)
        line["digest"] = "0" * 24
        with pytest.raises(WorkerDigestError) as excinfo:
            decode_result_line(line, spec, "badhost:17")
        err = excinfo.value
        assert err.worker == "badhost:17"
        assert err.expected == "0" * 24
        assert "badhost:17" in str(err)
        assert err.actual in str(err)

    def test_remote_failure_line(self):
        spec = count_spec("jpeg")
        line = {"ok": False, "error": "JobTimeout: too slow"}
        with pytest.raises(RemoteJobError, match="too slow"):
            decode_result_line(line, spec, "w:1")

    def test_missing_pickle_is_protocol_error(self, fresh_caches):
        spec = count_spec("jpeg")
        _result, line = self._line(spec)
        del line["pickle"]
        with pytest.raises(RemoteProtocolError, match="no pickle"):
            decode_result_line(line, spec, "w:1")


# ----------------------------------------------------------------------
# RemoteBackend against an in-thread daemon.
# ----------------------------------------------------------------------


class TestRemoteBackend:
    def test_resolve_backend_names(self):
        backend = resolve_backend("remote:10.0.0.7:8736")
        assert isinstance(backend, RemoteBackend)
        assert backend.url == "10.0.0.7:8736"
        with pytest.raises(ValueError, match="remote"):
            resolve_backend("bogus")

    def test_results_identical_to_inline(self, daemon):
        backend = RemoteBackend(url=f"127.0.0.1:{daemon.port}")
        backend.start(4)
        try:
            # Pool width comes from the daemon, not the caller.
            assert backend.workers == 2
            specs = [count_spec(b) for b in ("li", "jpeg", "compress")]
            futures = [backend.submit(spec, None) for spec in specs]
            for spec, future in zip(specs, futures):
                result, wall, cpu, started, report = future.result(timeout=60)
                assert _digest(result) == _inline_digest(spec)
                assert cpu > 0.0 and wall > 0.0
                assert report is None
            assert not backend.broken()
        finally:
            backend.shutdown(wait=True)

    def test_not_remotable_spec_fails_its_future(self, daemon):
        backend = RemoteBackend(url=f"127.0.0.1:{daemon.port}")
        backend.start(1)
        try:
            future = backend.submit(
                chaos_spec("boom", ChaosPlan(behavior="raise")), None
            )
            with pytest.raises(SpecError, match="not remotable"):
                future.result(timeout=10)
        finally:
            backend.shutdown(wait=True)

    def test_version_gate(self, daemon, monkeypatch):
        monkeypatch.setattr(remote_mod, "code_fingerprint",
                            lambda: "someone-elses-simulator")
        backend = RemoteBackend(url=f"127.0.0.1:{daemon.port}")
        with pytest.raises(RemoteVersionError, match="not comparable"):
            backend.start(1)
        assert not backend.running

    def test_daemon_death_breaks_the_backend(self, fresh_caches):
        handle = start_server_thread(jobs=1, backend="thread",
                                     use_disk_cache=False)
        backend = RemoteBackend(url=f"127.0.0.1:{handle.port}")
        backend.start(1)
        try:
            handle.stop()
            future = backend.submit(count_spec("jpeg"), None)
            with pytest.raises(BrokenExecutor):
                future.result(timeout=30)
            assert backend.broken()
        finally:
            backend.shutdown(wait=True)

    def test_restart_after_shutdown(self, daemon):
        backend = RemoteBackend(url=f"127.0.0.1:{daemon.port}")
        backend.start(1)
        backend.shutdown(wait=True)
        assert not backend.running and backend.workers == 0
        backend.start(1)
        try:
            future = backend.submit(count_spec("jpeg"), None)
            result, *_ = future.result(timeout=60)
            assert _digest(result) == _inline_digest(count_spec("jpeg"))
        finally:
            backend.shutdown(wait=True)


# ----------------------------------------------------------------------
# The federation's router against stub workers (no subprocess).
# ----------------------------------------------------------------------


class _StubWorker(WorkerBackend):
    """Stands in for one worker daemon's RemoteBackend: records every
    job it is sent and answers it at once, or fails it with
    ``failure(url, spec)`` when one is set."""

    name = "stub"

    def __init__(self, url, timeout=600.0):
        super().__init__()
        self.url = url
        self.failure = None
        self.received = []
        self._running = False

    @property
    def running(self):
        return self._running

    def start(self, workers):
        self._running = True
        self._workers = 1

    def submit(self, spec, timeout_seconds=None):
        self.received.append(spec.key)
        future = Future()
        if self.failure is not None:
            future.set_exception(self.failure(self.url, spec))
        else:
            future.set_result((self.url, 0.0, 0.0, 0.0, None))
        return future

    def shutdown(self, wait=False):
        self._running = False
        self._workers = 0


def _home(spec, fleet_size):
    return int(cache_entry_digest(spec.key)[:2], 16) % fleet_size


def _broken(url, spec):
    return BrokenExecutor(f"worker {url} failed mid-batch")


def _unacked(url, spec):
    return RemoteProtocolError(f"worker {url} closed the stream")


#: 32 specs: homes move with the code fingerprint, and this many keep
#: every worker of a 3-fleet home to at least two of them.
_ROUTER_SPECS = [count_spec(b, scale=s)
                 for b in ("li", "jpeg", "compress", "gcc",
                           "go", "perl", "m88ksim", "vortex")
                 for s in (1, 2, 3, 4)]


@pytest.fixture
def stub_fleet(monkeypatch):
    """build(n, policy) -> (started FederationBackend over n stub
    workers with an inline local pool, its stubs, its registry)."""
    started = []

    def build(size, policy=None):
        stubs = []

        def make(url, timeout=600.0):
            stubs.append(_StubWorker(url, timeout))
            return stubs[-1]

        monkeypatch.setattr(remote_mod, "RemoteBackend", make)
        metrics = MetricsRegistry()
        fed = FederationBackend([f"stub:{i}" for i in range(size)],
                                local="inline", policy=policy,
                                metrics=metrics)
        fed.start(1)
        started.append(fed)
        return fed, stubs, metrics

    yield build
    for fed in started:
        fed.shutdown(wait=True)


class TestFederationRouter:
    def test_jobs_land_on_their_digest_home(self, stub_fleet):
        threads = threading.active_count()
        fed, stubs, metrics = stub_fleet(3)
        assert threading.active_count() == threads  # a router, no pumps
        for spec in _ROUTER_SPECS:
            result, *_ = fed.submit(spec, None).result(timeout=10)
            assert result == stubs[_home(spec, 3)].url
        for index, stub in enumerate(stubs):
            assert stub.received == [spec.key for spec in _ROUTER_SPECS
                                     if _home(spec, 3) == index]
        assert [s["dispatched"] for s in fed.worker_states()] == [
            len(stub.received) for stub in stubs]
        snapshot = metrics.snapshot()
        assert snapshot["federation.jobs_forwarded"] == len(_ROUTER_SPECS)
        assert snapshot["federation.jobs_migrated"] == 0

    @pytest.mark.parametrize("failure", [_broken, _unacked])
    def test_unacked_failure_moves_to_next_live_worker(self, stub_fleet,
                                                       failure):
        fed, stubs, metrics = stub_fleet(3)
        spec, again = [s for s in _ROUTER_SPECS if _home(s, 3) == 0][:2]
        stubs[0].failure = failure
        result, *_ = fed.submit(spec, None).result(timeout=10)
        assert result == stubs[1].url  # ring order: 0 -> 1
        states = fed.worker_states()
        assert states[0]["alive"] is False
        assert type(failure("x", spec)).__name__ in states[0]["error"]
        # The dead home is skipped from now on, not tried again.
        result, *_ = fed.submit(again, None).result(timeout=10)
        assert result == stubs[1].url
        assert stubs[0].received == [spec.key]
        snapshot = metrics.snapshot()
        assert snapshot["federation.worker_failures"] == 1
        assert snapshot["federation.jobs_migrated"] == 1
        assert snapshot["federation.workers_alive.last"] == 2

    def test_exhausted_migration_budget_names_the_job(self, stub_fleet):
        fed, stubs, metrics = stub_fleet(3, RetryPolicy(max_retries=1))
        for stub in stubs:
            stub.failure = _broken
        spec = _ROUTER_SPECS[0]
        with pytest.raises(BrokenExecutor) as excinfo:
            fed.submit(spec, None).result(timeout=10)
        assert job_label(spec.key) in str(excinfo.value)
        assert "exhausted 1 migrations" in str(excinfo.value)
        # The home plus one move: the third worker and the local pool
        # never see the job.
        assert sum(len(stub.received) for stub in stubs) == 2
        snapshot = metrics.snapshot()
        assert snapshot["federation.jobs_migrated"] == 1
        assert snapshot["federation.jobs_local"] == 0

    def test_dead_fleet_moves_the_job_to_local(self, stub_fleet,
                                               fresh_caches):
        fed, stubs, metrics = stub_fleet(2, RetryPolicy(max_retries=5))
        for stub in stubs:
            stub.failure = _broken
        spec = count_spec("jpeg")
        result, *_ = fed.submit(spec, None).result(timeout=60)
        assert _digest(result) == _inline_digest(spec)
        snapshot = metrics.snapshot()
        assert snapshot["federation.jobs_migrated"] == 2
        assert snapshot["federation.jobs_local"] == 1
        assert snapshot["federation.workers_alive.last"] == 0

    def test_digest_error_reaches_the_caller_unmoved(self, stub_fleet):
        fed, stubs, metrics = stub_fleet(3)
        spec = _ROUTER_SPECS[0]
        home = stubs[_home(spec, 3)]
        home.failure = lambda url, spec: WorkerDigestError(
            worker=url, job=job_label(spec.key), expected="0" * 64,
            actual="1" * 64)
        with pytest.raises(WorkerDigestError) as excinfo:
            fed.submit(spec, None).result(timeout=10)
        assert excinfo.value.worker == home.url
        assert [len(stub.received) for stub in stubs].count(1) == 1
        assert all(s["alive"] for s in fed.worker_states())
        snapshot = metrics.snapshot()
        assert snapshot["federation.jobs_migrated"] == 0
        assert snapshot["federation.worker_failures"] == 0


# ----------------------------------------------------------------------
# Federation across subprocess workers.
# ----------------------------------------------------------------------


class TestFederation:
    def test_exactly_once_fleet_wide(self, fleet, fresh_caches):
        """A cold batch (with a duplicated spec) across two workers:
        every unique job simulates exactly once *fleet-wide*, and every
        digest equals inline execution."""
        urls = [f"127.0.0.1:{port}" for _, port in fleet]
        specs = [count_spec(b, scale=s)
                 for b in ("li", "jpeg", "compress", "gcc")
                 for s in (1, 2)]
        submitted = specs + [specs[0]]  # a duplicate must dedup remotely
        sims_before = sum(_worker_sims(port) for _, port in fleet)
        metrics = MetricsRegistry()
        fed = FederationBackend(urls, local="inline", metrics=metrics)
        fed.start(2)
        try:
            futures = [fed.submit(spec, None) for spec in submitted]
            for spec, future in zip(submitted, futures):
                result, *_ = future.result(timeout=300)
                assert _digest(result) == _inline_digest(spec)
        finally:
            fed.shutdown(wait=True)
        sims_after = sum(_worker_sims(port) for _, port in fleet)
        assert sims_after - sims_before == len(specs)
        snapshot = metrics.snapshot()
        assert snapshot["federation.jobs_forwarded"] == len(submitted)
        assert snapshot["federation.worker_failures"] == 0
        assert snapshot["federation.jobs_local"] == 0

    def test_front_daemon_end_to_end(self, fleet, fresh_caches):
        """An HTTP front started with worker URLs shards a batch over
        the fleet, streams identical-to-inline results, dedups a warm
        replay without re-simulating, and exposes federation state on
        /v1/health and /v1/metrics."""
        urls = [f"127.0.0.1:{port}" for _, port in fleet]
        specs = [count_spec(b, scale=5)
                 for b in ("li", "jpeg", "compress", "gcc")]
        payload = [spec_to_json(spec) for spec in specs]
        sims_before = sum(_worker_sims(port) for _, port in fleet)
        front = start_server_thread(jobs=2, backend="inline",
                                    use_disk_cache=False, workers=urls)
        try:
            client = ServeClient(port=front.port)
            cold = client.submit_all(payload)
            warm = client.submit_all(payload)
            health = client.health()
            metrics = client.metrics()["metrics"]
            client.close()
        finally:
            front.stop()
        sims_after = sum(_worker_sims(port) for _, port in fleet)

        assert all(line["ok"] for line in cold + warm)
        by_index = {line["index"]: line for line in cold}
        for index, spec in enumerate(specs):
            assert by_index[index]["digest"] == _inline_digest(spec)
        warm_by_index = {line["index"]: line for line in warm}
        for index in range(len(specs)):
            assert warm_by_index[index]["digest"] == by_index[index]["digest"]
        # The warm replay was served from the front's memory, not
        # re-simulated: the fleet ran each unique job exactly once.
        assert sims_after - sims_before == len(specs)
        states = health["federation"]
        assert [s["alive"] for s in states] == [True, True]
        assert health["backend"] == "federation"
        assert metrics["federation.jobs_forwarded"] == len(specs)
        assert metrics["serve.jobs_served"] == 2 * len(specs)

    def test_worker_killed_mid_batch_migrates(self, tmp_path, fresh_caches):
        """SIGKILL one worker while its batch is in flight: un-acked
        jobs migrate to the survivor; nothing is lost, every result
        still matches inline execution."""
        workers = [_spawn_worker(tmp_path, f"k{i}") for i in range(2)]
        try:
            urls = [f"127.0.0.1:{port}" for _, port in workers]
            candidates = [
                count_spec(b, scale=s)
                for b in ("li", "jpeg", "compress", "gcc",
                          "go", "perl", "m88ksim", "vortex")
                for s in (6, 7, 8)
            ]
            victim = int(cache_entry_digest(candidates[0].key)[:2], 16) % 2
            specs = [
                spec for spec in candidates
                if int(cache_entry_digest(spec.key)[:2], 16) % 2 == victim
            ][:6]
            assert len(specs) == 6

            metrics = MetricsRegistry()
            fed = FederationBackend(urls, local="inline", metrics=metrics,
                                    policy=RetryPolicy(max_retries=2))
            fed.start(2)
            try:
                futures = [fed.submit(spec, None) for spec in specs]
                # Kill the victim as soon as its first result lands.
                wait_futures(futures, return_when="FIRST_COMPLETED")
                workers[victim][0].send_signal(signal.SIGKILL)
                for spec, future in zip(specs, futures):
                    result, *_ = future.result(timeout=300)
                    assert _digest(result) == _inline_digest(spec)
                states = fed.worker_states()
                assert states[victim]["alive"] is False
                assert states[victim]["error"]
                assert states[1 - victim]["alive"] is True
            finally:
                fed.shutdown(wait=True)
            snapshot = metrics.snapshot()
            assert snapshot["federation.worker_failures"] == 1
            assert snapshot["federation.jobs_migrated"] >= 1
        finally:
            _reap([proc for proc, _ in workers])

    def test_zero_live_workers_degrades_to_local(self, fresh_caches):
        """Nothing listening on any worker URL: the federation starts
        anyway, records the failures, and serves jobs from the local
        fallback backend with correct results."""
        metrics = MetricsRegistry()
        fed = FederationBackend(["127.0.0.1:1", "127.0.0.1:9"],
                                local="inline", metrics=metrics)
        fed.start(1)
        try:
            assert fed.workers == 1  # the local fallback's width
            assert all(not s["alive"] for s in fed.worker_states())
            spec = count_spec("jpeg")
            result, *_ = fed.submit(spec, None).result(timeout=60)
            assert _digest(result) == _inline_digest(spec)
        finally:
            fed.shutdown(wait=True)
        snapshot = metrics.snapshot()
        assert snapshot["federation.worker_failures"] == 2
        assert snapshot["federation.jobs_local"] == 1
        assert snapshot["federation.jobs_forwarded"] == 0
