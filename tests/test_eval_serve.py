"""The eval daemon: HTTP API, streaming, in-flight dedup, and identity
with inline execution.

One module-scoped daemon (thread backend — the 1-CPU degradation mode)
serves every test; assertions use counter deltas, not absolutes.  The
codec tests run without the server.
"""

import http.client
import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.slipstream import SlipstreamConfig
from repro.eval import jobs, models
from repro.eval.jobs import (
    baseline_spec,
    count_spec,
    fault_spec,
    injection_spec,
    mode_reference_spec,
    slipstream_spec,
)
from repro.eval.models import run_cached
from repro.eval.serve import (
    CONFIG_FIELDS,
    HEALTH_STATS,
    ServeClient,
    ServeError,
    SpecError,
    result_payload,
    spec_from_json,
    start_server_thread,
)
from repro.fault.injector import FaultSite
from repro.workloads.suite import benchmark_suite


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    saved = (models._DISK, models._DISK_ENABLED)
    models.clear_cache()
    jobs.reset_simulation_count()
    cache_dir = tmp_path_factory.mktemp("serve-cache")
    models.configure_disk_cache(enabled=True, cache_dir=str(cache_dir))
    handle = start_server_thread(jobs=2, backend="thread")
    yield handle
    handle.stop()
    models.clear_cache()
    models._DISK, models._DISK_ENABLED = saved


@pytest.fixture
def client(server):
    return ServeClient(port=server.port)


# ----------------------------------------------------------------------
# The JSON job codec (no server needed).
# ----------------------------------------------------------------------

#: Any JSON value: what ``json.loads`` can hand the codec.
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=8), children,
                                        max_size=4)),
    max_leaves=12,
)
_JOB_FIELDS = ("scale", "removal_triggers", "points", "sites", "site",
               "target_seq", "bit", "ecc", "mode", "extra")
#: Job-shaped objects: real model and benchmark names, every field the
#: codec knows (plus a stray one) holding an arbitrary JSON value, and
#: config objects over the whitelisted fields, so the fuzzer reaches
#: each model's parser instead of stopping at "unknown model".
_JOB_LIKE = st.fixed_dictionaries(
    {
        "model": st.sampled_from(["count", "ss64", "ss128", "xcheck",
                                  "ceiling", "cmp", "fault", "finj",
                                  "nref", "nope"]),
        "benchmark": st.sampled_from(
            [b.name for b in benchmark_suite()] + ["nope"]),
    },
    optional={
        **{name: _JSON_VALUES | st.integers(-2, 40)
           for name in _JOB_FIELDS},
        "config": st.dictionaries(
            st.sampled_from(sorted(CONFIG_FIELDS) + ["core"]),
            _JSON_VALUES | st.integers(-2, 40) | st.sampled_from(
                ["trace", "pc", "BR"]),
            max_size=4,
        ) | _JSON_VALUES,
    },
)


class TestSpecCodec:
    def test_simple_models_roundtrip(self):
        assert spec_from_json(
            {"model": "count", "benchmark": "jpeg"}
        ).key == count_spec("jpeg").key
        assert spec_from_json(
            {"model": "ss64", "benchmark": "go", "scale": 2}
        ).key == baseline_spec("go", 2).key

    def test_cmp_with_triggers(self):
        decoded = spec_from_json({
            "model": "cmp", "benchmark": "jpeg",
            "removal_triggers": ["BR"],
        })
        assert decoded.key == slipstream_spec("jpeg", 1, ("BR",)).key

    def test_cmp_with_config_fields(self):
        decoded = spec_from_json({
            "model": "cmp", "benchmark": "jpeg",
            "config": {"confidence_threshold": 4, "static_hints": True},
        })
        expected = slipstream_spec("jpeg", config=SlipstreamConfig(
            confidence_threshold=4, static_hints=True
        ))
        assert decoded.key == expected.key

    def test_fault_with_sites(self):
        decoded = spec_from_json({
            "model": "fault", "benchmark": "jpeg",
            "points": 3, "sites": ["A_RESULT"],
        })
        expected = fault_spec("jpeg", 1, 3, (FaultSite.A_RESULT,))
        assert decoded.key == expected.key

    def test_finj_defaults_to_slipstream(self):
        decoded = spec_from_json({
            "model": "finj", "benchmark": "jpeg",
            "site": "R_ARCH", "target_seq": 4000,
        })
        expected = injection_spec("jpeg", FaultSite.R_ARCH, 4000)
        assert decoded.key == expected.key
        assert decoded.mode == "slipstream"

    def test_finj_with_every_field(self):
        decoded = spec_from_json({
            "model": "finj", "benchmark": "li", "scale": 2,
            "site": "R_TRANSIENT", "target_seq": 123, "bit": 30,
            "ecc": True, "mode": "tmr",
        })
        expected = injection_spec("li", FaultSite.R_TRANSIENT, 123,
                                  bit=30, scale=2, ecc=True, mode="tmr")
        assert decoded.key == expected.key
        assert decoded.mode == "tmr"

    def test_nref_roundtrip(self):
        decoded = spec_from_json({
            "model": "nref", "benchmark": "jpeg", "mode": "replay",
        })
        assert decoded.key == mode_reference_spec("jpeg", "replay").key

    def test_decorrelated_config_field(self):
        decoded = spec_from_json({
            "model": "cmp", "benchmark": "jpeg",
            "config": {"decorrelated": True},
        })
        expected = slipstream_spec("jpeg", config=SlipstreamConfig(
            decorrelated=True
        ))
        assert decoded.key == expected.key

    @pytest.mark.parametrize("payload", [
        "not an object",
        {"benchmark": "jpeg"},
        {"model": "nope", "benchmark": "jpeg"},
        {"model": "count", "benchmark": "nope"},
        {"model": "count", "benchmark": "jpeg", "scale": 0},
        {"model": "count", "benchmark": "jpeg", "scale": "big"},
        {"model": "count", "benchmark": "jpeg", "scale": True},
        {"model": "count", "benchmark": "jpeg", "points": 3},
        {"model": "cmp", "benchmark": "jpeg", "removal_triggers": ["XX"]},
        {"model": "cmp", "benchmark": "jpeg", "config": {"core": {}}},
        {"model": "cmp", "benchmark": "jpeg",
         "config": {"confidence_threshold": "low"}},
        {"model": "cmp", "benchmark": "jpeg",
         "config": {"removal_mechanism": "magic"}},
        {"model": "fault", "benchmark": "jpeg", "sites": ["NOPE"]},
        {"model": "fault", "benchmark": "jpeg", "points": 0},
        {"model": "finj", "benchmark": "jpeg", "site": "R_ARCH"},
        {"model": "finj", "benchmark": "jpeg", "target_seq": 1},
        {"model": "finj", "benchmark": "jpeg", "site": "r_arch",
         "target_seq": 1},
        {"model": "finj", "benchmark": "jpeg", "site": "R_ARCH",
         "target_seq": 1, "bit": 32},
        {"model": "finj", "benchmark": "jpeg", "site": "R_ARCH",
         "target_seq": 1, "ecc": "yes"},
        {"model": "finj", "benchmark": "jpeg", "site": "R_ARCH",
         "target_seq": 1, "mode": "reliable"},
        {"model": "nref", "benchmark": "jpeg"},
        {"model": "nref", "benchmark": "jpeg", "mode": "slipstream"},
        {"model": "nref", "benchmark": "jpeg", "mode": "tmr", "bit": 3},
    ])
    def test_malformed_payloads_rejected(self, payload):
        with pytest.raises(SpecError):
            spec_from_json(payload)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_JSON_VALUES, _JOB_LIKE))
    def test_any_json_value_decodes_or_is_spec_error(self, payload):
        """Whatever JSON a tenant sends as a job, the codec answers with
        a JobSpec or a SpecError (HTTP 400), never another exception."""
        try:
            spec = spec_from_json(payload)
        except SpecError:
            return
        assert spec.key.model == payload["model"]


# ----------------------------------------------------------------------
# The HTTP API.
# ----------------------------------------------------------------------


class TestServeAPI:
    def test_health(self, client, server):
        health = client.health()
        assert health["ok"] is True
        assert health["backend"] == "thread"
        assert health["workers"] == 2
        assert set(health["stats"]) >= {"simulated", "deduped", "submitted"}

    def test_batch_streams_every_job_with_digest(self, client):
        batch = [
            {"model": "count", "benchmark": "jpeg"},
            {"model": "count", "benchmark": "go"},
        ]
        lines = client.submit_all(batch)
        assert sorted(line["index"] for line in lines) == [0, 1]
        for line in lines:
            assert line["ok"] is True
            assert line["source"] in ("fresh", "memory", "disk", "inflight")
            assert len(line["digest"]) == 64
            json.dumps(line["result"])  # canonical body is pure JSON

    def test_results_identical_to_inline(self, client):
        spec = count_spec("jpeg")
        served = client.submit_all([{"model": "count", "benchmark": "jpeg"}])
        inline = result_payload(0, spec.key, "inline", run_cached(spec))
        assert served[0]["digest"] == inline["digest"]
        assert served[0]["result"] == inline["result"]

    def test_intra_batch_dedup_simulates_once(self, client):
        before = jobs.simulation_count()
        batch = [{"model": "count", "benchmark": "compress"}] * 3
        lines = client.submit_all(batch)
        assert len(lines) == 3
        assert {line["digest"] for line in lines} == {lines[0]["digest"]}
        assert jobs.simulation_count() - before <= 1

    def test_warm_cache_requests_do_zero_simulation(self, client):
        batch = [{"model": "count", "benchmark": "jpeg"},
                 {"model": "count", "benchmark": "go"}]
        client.submit_all(batch)  # ensure warm
        before = jobs.simulation_count()
        lines = client.submit_all(batch)
        assert jobs.simulation_count() == before
        assert all(line["source"] in ("memory", "disk", "inflight")
                   for line in lines)

    def test_concurrent_clients_share_inflight_work(self, client, server):
        # 4 clients race the same cold grid; the daemon must simulate
        # each unique job at most once (dedup or cache, either path).
        batch = [{"model": "count", "benchmark": "jpeg", "scale": 2},
                 {"model": "count", "benchmark": "go", "scale": 2}]
        before = jobs.simulation_count()
        results = [None] * 4
        errors = []

        def tenant(slot):
            try:
                results[slot] = ServeClient(port=server.port).submit_all(batch)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=tenant, args=(slot,))
                   for slot in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert jobs.simulation_count() - before <= len(batch)
        digests = {
            line["job"]: line["digest"] for line in results[0]
        }
        for outcome in results:
            assert len(outcome) == len(batch)
            for line in outcome:
                assert line["ok"] is True
                assert line["digest"] == digests[line["job"]]

    def test_malformed_submit_is_400(self, client):
        for jobs_payload in ([{"model": "nope", "benchmark": "jpeg"}],
                             [{"model": "count", "benchmark": "jpeg",
                               "extra": 1}],
                             "not a list"):
            with pytest.raises(ServeError) as err:
                client.submit_all(jobs_payload)  # type: ignore[arg-type]
            assert err.value.status == 400

    def test_nstream_campaign_jobs_submit_over_http(self, client):
        """Satellite: N-stream campaign jobs are first-class daemon
        submissions; a malformed mode is a 400, never a daemon
        exception."""
        lines = client.submit_all([
            {"model": "finj", "benchmark": "jpeg", "site": "R_ARCH",
             "target_seq": 4000, "mode": "tmr"},
            {"model": "nref", "benchmark": "jpeg", "mode": "replay"},
        ])
        assert len(lines) == 2
        assert all(line["ok"] for line in lines)
        with pytest.raises(ServeError) as err:
            client.submit_all([
                {"model": "finj", "benchmark": "jpeg", "site": "R_ARCH",
                 "target_seq": 1, "mode": "quadruple"},
            ])
        assert err.value.status == 400
        assert "mode" in err.value.detail
        assert client.health()["ok"]  # daemon survived

    def test_non_json_body_is_400(self, client, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        conn.request("POST", "/v1/submit", body=b"{not json")
        response = conn.getresponse()
        assert response.status == 400
        conn.close()

    def test_deeply_nested_body_is_400(self, client, server):
        """50k nested lists (~100 KB, far under the body limit) exceed
        the JSON decoder's recursion depth: a 400, not a 500."""
        depth = 50_000
        body = b'{"jobs": ' + b"[" * depth + b"]" * depth + b"}"
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        conn.request("POST", "/v1/submit", body=body)
        response = conn.getresponse()
        detail = json.loads(response.read())
        conn.close()
        assert response.status == 400
        assert "not JSON" in detail["error"]
        assert client.health()["ok"]  # daemon survived

    def test_health_stats_are_the_metrics_counters(self, client, server):
        """After one batch mixing memory, disk, in-flight-dedup and
        fresh jobs, every /v1/health stat equals its /v1/metrics
        counter: each event is counted once."""
        memory = {"model": "count", "benchmark": "li", "scale": 3}
        disk = {"model": "count", "benchmark": "m88ksim", "scale": 3}
        fresh = {"model": "count", "benchmark": "vortex", "scale": 3}
        client.submit_all([memory, disk])
        models._CACHE.pop(spec_from_json(disk).key)  # disk copy only
        before = client.health()["stats"]
        lines = client.submit_all([memory, disk, fresh, fresh])
        assert sorted(line["source"] for line in lines) == [
            "disk", "fresh", "inflight", "memory"]
        stats = client.health()["stats"]
        metrics = client.metrics()["metrics"]
        assert {key: stats[key] - before[key] for key in stats} == {
            "batches": 1, "submitted": 4, "memory_hits": 1, "disk_hits": 1,
            "deduped": 1, "simulated": 1, "retries": 0, "failures": 0,
        }
        assert HEALTH_STATS == {
            "batches": "serve.batches",
            "submitted": "serve.jobs_submitted",
            "memory_hits": "serve.memory_hits",
            "disk_hits": "serve.disk_hits",
            "deduped": "serve.dedup_joins",
            "simulated": "serve.simulated",
            "retries": "serve.retries",
            "failures": "serve.failures",
        }
        for key, name in HEALTH_STATS.items():
            assert stats[key] == metrics[name], key

    def test_unknown_path_is_404(self, client):
        with pytest.raises(ServeError) as err:
            client._request("GET", "/v1/nope")
        assert err.value.status == 404

    def test_wrong_method_is_405(self, client):
        with pytest.raises(ServeError) as err:
            client._request("GET", "/v1/submit")
        assert err.value.status == 405
        with pytest.raises(ServeError) as err:
            client._request("POST", "/v1/health", payload={})
        assert err.value.status == 405

    def test_metrics_endpoint_snapshots_counters(self, client):
        payload = client.metrics()
        assert payload["ok"] is True
        metrics = payload["metrics"]
        assert metrics["serve.requests"] >= 1
        assert set(metrics) >= {"serve.connections", "serve.batches",
                                "serve.jobs_submitted", "serve.jobs_served",
                                "serve.simulated"}
        before = metrics["serve.jobs_served"]
        client.submit_all([{"model": "count", "benchmark": "jpeg"}])
        after = client.metrics()["metrics"]["serve.jobs_served"]
        assert after == before + 1

    def test_keepalive_reuses_one_connection(self, server):
        """Health, metrics, and a fully-drained streamed submit all
        ride one TCP connection: the daemon's connection counter moves
        by exactly one for the whole client session."""
        client = ServeClient(port=server.port)
        before = client.metrics()["metrics"]["serve.connections"]
        client.health()
        client.submit_all([{"model": "count", "benchmark": "jpeg"},
                           {"model": "count", "benchmark": "go"}])
        after = client.metrics()["metrics"]["serve.connections"]
        client.close()
        assert after == before

    def test_pickle_flag_roundtrips_result_objects(self, client):
        import base64
        import pickle

        spec = count_spec("jpeg")
        line = client.submit_all(
            [{"model": "count", "benchmark": "jpeg"}], include_pickle=True
        )[0]
        restored = pickle.loads(base64.b64decode(line["pickle"]))
        inline = result_payload(0, spec.key, "inline", restored)
        assert inline["digest"] == line["digest"]
        # cpu/wall accounting always rides the line (0.0 on cache hits).
        assert "cpu_seconds" in line and "wall_seconds" in line


class TestServeLifecycle:
    def test_client_reconnects_after_idle_timeout(self, tmp_path):
        """The daemon reclaims a keep-alive socket idle past the
        timeout; the client's next request transparently reconnects
        (every daemon API request is idempotent, so replay is safe)."""
        saved = (models._DISK, models._DISK_ENABLED)
        models._DISK, models._DISK_ENABLED = None, False
        try:
            handle = start_server_thread(jobs=1, backend="inline",
                                         use_disk_cache=False,
                                         keepalive_idle_seconds=0.2)
            try:
                client = ServeClient(port=handle.port)
                assert client.health()["ok"]
                import time

                time.sleep(0.6)  # daemon drops the idle connection
                assert client.health()["ok"]  # replayed on a fresh socket
                connections = client.metrics()["metrics"]["serve.connections"]
                client.close()
                assert connections == 2
            finally:
                handle.stop()
        finally:
            models.clear_cache()
            models._DISK, models._DISK_ENABLED = saved

    def test_shutdown_endpoint_stops_daemon(self, tmp_path):
        saved = (models._DISK, models._DISK_ENABLED)
        models.configure_disk_cache(enabled=True,
                                    cache_dir=str(tmp_path / "cache"))
        try:
            handle = start_server_thread(jobs=1, backend="inline")
            client = ServeClient(port=handle.port)
            assert client.health()["backend"] == "inline"
            assert client.shutdown() == {"ok": True, "stopping": True}
            handle.thread.join(timeout=30)
            assert not handle.thread.is_alive()
        finally:
            models.clear_cache()
            models._DISK, models._DISK_ENABLED = saved
