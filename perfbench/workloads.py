"""The four benchmark workloads.

Each workload runs *passes*: one pass is the workload's fixed job set
(all eight analogs, both campaigns, or one daemon session), run in an
order drawn from the benchmark seed.  Every pass therefore does the
same work, so figures from runs with different seeds or pass counts
compare directly.  A pass returns a :class:`Pass` holding its timings,
its outputs (checked against ``goldens.json``) and its deterministic
counts.

Every pass starts with empty modelled caches: fresh processor objects,
an empty in-process result cache, and no disk cache except the
serving workload's private root, which is restored to its set-up
state before each pass.
"""

from __future__ import annotations

import contextlib
import gc
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from tracing import CLIENT_SPAN, instrumented

#: The eight SPEC95-integer analogs, in the paper's Table 1 order.
ANALOGS = ("compress", "gcc", "go", "jpeg", "li", "m88ksim", "perl", "vortex")

#: Per-job simulation clock: this thread's CPU time.
cpu_clock = time.thread_time


def digest(result: object) -> str:
    """The eval daemon's sha256 digest of a result's canonical JSON."""
    from repro.eval.serve import canonical_result_blob

    return canonical_result_blob(result)[1]


def job_label(model: str, benchmark: str, scale: int = 1) -> str:
    return f"{model}/{benchmark}@{scale}"


#: A ``(start, end)`` interval on the ``time.perf_counter`` clock.
Span = Tuple[float, float]


@dataclass
class Pass:
    """What one pass did.  Times are kept as wall-clock spans so that
    ``run.py`` can scale each by the host's speed at that moment
    (``probe.py``)."""

    #: Spans of the measured work (jobs, campaigns or the client request
    #: loop), without the harness's checks between them.
    segments: List[Span] = field(default_factory=list)
    #: Span of each operation (job, injection or request).
    spans: List[Span] = field(default_factory=list)
    #: Retired instructions simulated, and ``(start, end, cpu_s)`` of the
    #: simulations that retired them.
    retired: int = 0
    sims: List[Tuple[float, float, float]] = field(default_factory=list)
    #: Comparable outputs by label (golden-checked, and compared
    #: between traced and untraced passes).
    outputs: Dict[str, object] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)
    #: Deterministic counts (same value in every pass).
    counters: Dict[str, float] = field(default_factory=dict)
    #: Per-job rows for the result file.
    rows: List[dict] = field(default_factory=list)

    @property
    def ops(self) -> int:
        return len(self.spans)

    @property
    def wall_s(self) -> float:
        return sum(end - start for start, end in self.segments)

    @property
    def sim_cpu_s(self) -> float:
        return sum(cpu for _, _, cpu in self.sims)

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value


#: Every deterministic count a pass can report; a workload that does not
#: exercise a layer reports 0 for its counts.
COUNTER_NAMES = (
    "core.slipstream.traces",
    "uarch.timing_engine.block_hit", "uarch.timing_engine.block_miss",
    "uarch.timing_engine.fallback",
    "core.delay_buffer.pushes", "core.delay_buffer.backpressure_events",
    "core.recovery.recoveries",
    "core.ir_predictor.predictions", "core.ir_predictor.removal_predictions",
    "core.ir_predictor.confidence_resets", "core.ir_predictor.trainings",
    "core.ir_detector.analyses", "core.ir_detector.selected_total",
    "eval.jobs.submitted", "eval.jobs.memory_hits", "eval.jobs.disk_hits",
    "eval.jobs.deduped", "eval.jobs.simulated",
    "fault.injections", "fault.harmful", "fault.handled",
)


def _fold_obs(p: Pass, snapshot: Dict[str, float]) -> None:
    """Sum one run's obs registry counters into the pass's counts."""
    for name, value in snapshot.items():
        prefix, _, counter = name.partition(".")
        if counter.startswith("timing_block_") or counter == "timing_fallback":
            p.count("uarch.timing_engine." + counter.replace("timing_", ""),
                    value)
        elif prefix in ("delay_buffer", "recovery", "ir_predictor",
                        "ir_detector"):
            if counter in ("max_occupancy", "max_outstanding", "outstanding"):
                continue
            p.count(f"core.{prefix}.{counter}", value)
        elif name == "slip.traces":
            p.count("core.slipstream.traces", value)


class Workload:
    """Interface: ``setup()`` once, then passes."""

    name = "?"
    #: Whether the measured work runs on threads other than the main
    #: one (then the pass samples the host probe itself).
    threaded = False
    #: Span names whose wrapper must fire in a traced pass.
    expected_spans: Tuple[str, ...] = ()

    @property
    def params(self) -> dict:
        """The pass shape, recorded with every result."""
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, rng, tracer=None, probe=None) -> Pass:
        """One pass; with a tracer, its measured part runs instrumented.
        A threaded workload samples ``probe`` while it waits."""
        raise NotImplementedError

    def close(self) -> None:
        """Release what set-up created."""


# ----------------------------------------------------------------------
# cmp-suite and ss-suite: the processor models on all eight analogs.
# ----------------------------------------------------------------------


class _SuiteWorkload(Workload):
    models: Tuple[str, ...] = ()

    def __init__(self, goldens: dict):
        self.goldens = goldens["jobs"]
        self.programs: Dict[str, object] = {}
        #: First-call compile seconds per analog.
        self.compile_s: Dict[str, float] = {}

    def setup(self) -> None:
        from repro.arch.compiled import compiled_for
        from repro.uarch.compiled_timing import timing_meta_for
        from repro.workloads.suite import get_benchmark

        for name in ANALOGS:
            program = get_benchmark(name).program(1)
            t0 = time.perf_counter()
            compiled_for(program)
            timing_meta_for(program)
            self.compile_s[name] = time.perf_counter() - t0
            self.programs[name] = program

    @property
    def params(self) -> dict:
        return {"models": self.models, "analogs": ANALOGS, "scale": 1}

    def _simulate(self, model: str, program, obs):
        raise NotImplementedError

    def _check(self, p: Pass, label: str, result, fields: Dict[str, object]):
        golden = self.goldens.get(label)
        observed = dict(fields, digest=digest(result))
        p.outputs[label] = observed
        if golden is None:
            p.failures.append(f"{label}: no golden")
        elif golden != observed:
            diff = sorted(k for k in golden if golden[k] != observed.get(k))
            p.failures.append(f"{label}: golden mismatch in {diff}")

    def run_pass(self, rng, tracer=None, probe=None) -> Pass:
        from repro.obs.session import Observability

        jobs = [(model, name) for model in self.models for name in ANALOGS]
        p = Pass()
        with instrumented(tracer):
            for model, name in rng.sample(jobs, len(jobs)):
                self._job(p, model, name,
                          Observability() if tracer is not None else None)
        return p

    def _job(self, p: Pass, model: str, name: str, obs) -> None:
        label = job_label(model, name)
        gc.collect()
        jw, jc = time.perf_counter(), cpu_clock()
        try:
            result = self._simulate(model, self.programs[name], obs)
        except Exception as exc:  # noqa: BLE001 - counted as failed
            p.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            p.spans.append((jw, time.perf_counter()))
            return
        cpu = cpu_clock() - jc
        span = (jw, time.perf_counter())
        p.spans.append(span)
        p.segments.append(span)
        p.retired += result.retired
        p.sims.append((*span, cpu))
        p.rows.append({"job": label, "cpu_s": cpu,
                       "retired": result.retired})
        self._check(p, label, result, self._fields(result))
        if obs is not None:
            _fold_obs(p, obs.registry.snapshot())

    def compile_rows(self, job_cpu: Dict[str, float]) -> List[dict]:
        """First-call compile cost per analog, as a share of its job."""
        rows = []
        for name in ANALOGS:
            compile_s = self.compile_s[name]
            cpu = job_cpu.get(name)
            rows.append({
                "analog": name,
                "compile_s": compile_s,
                "job_cpu_s": cpu,
                "share_pct": 100.0 * compile_s / cpu if cpu else None,
            })
        return rows


class CmpSuite(_SuiteWorkload):
    """CMP(2x64x4) slipstream processor, default config."""

    name = "cmp-suite"
    models = ("cmp",)
    expected_spans = (
        "core.slipstream.self", "core.ir_detector.feed_trace",
        "core.ir_detector.drain", "core.ir_predictor.predict",
        "core.ir_predictor.update", "core.delay_buffer.push",
        "trace.walker.expand", "uarch.timing_engine.schedule",
        "core.recovery.recover",
    )

    def setup(self) -> None:
        super().setup()
        from repro.core.slipstream import SlipstreamProcessor

        self._processor = SlipstreamProcessor

    def _simulate(self, model, program, obs):
        return self._processor(program, obs=obs).run()

    @staticmethod
    def _fields(result) -> Dict[str, object]:
        return {
            "retired": result.retired,
            "cycles": result.cycles,
            "ipc": result.ipc,
            "removal_fraction": result.removal_fraction,
            "ir_mispredictions": result.ir_mispredictions,
        }


class SsSuite(_SuiteWorkload):
    """SS(64x4) and SS(128x8) superscalar baselines."""

    name = "ss-suite"
    models = ("ss64", "ss128")
    expected_spans = (
        "uarch.core.self", "arch.functional.steps", "trace.selection.chunk",
        "trace.predictor.predict", "trace.predictor.update",
        "trace.compare.first_divergence", "uarch.timing_engine.schedule",
    )

    def setup(self) -> None:
        super().setup()
        from repro.uarch.config import SS_128x8, SS_64x4
        from repro.uarch.core import SuperscalarCore

        self._core = SuperscalarCore
        self._configs = {"ss64": SS_64x4, "ss128": SS_128x8}

    def _simulate(self, model, program, obs):
        return self._core(self._configs[model], program, obs=obs).run()

    @staticmethod
    def _fields(result) -> Dict[str, object]:
        return {
            "retired": result.retired,
            "cycles": result.cycles,
            "ipc": result.ipc,
            "branch_mispredictions": result.branch_mispredictions,
        }


# ----------------------------------------------------------------------
# fault-modes: seeded multi-mode campaigns through the runner.
# ----------------------------------------------------------------------

#: Campaign shape: the cheapest analog, every redundancy mode, four
#: strike points per mode (enough to reach every mode's fault sites).
FAULT_BENCHMARKS = ("jpeg",)
FAULT_POINTS = 4
#: The campaign's default seed and one held-out seed; every pass runs
#: both, in seeded order.
FAULT_SEEDS = (2000, 7919)


def outcome_table(result) -> Dict[str, Dict[str, Dict[str, int]]]:
    """``mode -> site -> outcome -> n`` for one campaign."""
    table: Dict[str, Dict[str, Dict[str, int]]] = {}
    for injection in result.results:
        cell = table.setdefault(injection.mode, {}).setdefault(
            injection.fault.site.value, {})
        name = injection.outcome.value
        cell[name] = cell.get(name, 0) + 1
    return {
        mode: {site: dict(sorted(c.items())) for site, c in sorted(s.items())}
        for mode, s in sorted(table.items())
    }


@contextlib.contextmanager
def attempt_spans(spans: Dict[object, Span]):
    """Record the span of each job attempt the runner makes, by job key
    (wraps ``run_attempt`` where ``repro.eval.runner`` looks it up)."""
    from repro.eval import runner

    inner = runner.run_attempt

    def recorded(spec, timeout_seconds=None):
        start = time.perf_counter()
        try:
            return inner(spec, timeout_seconds)
        finally:
            spans[spec.key] = (start, time.perf_counter())

    runner.run_attempt = recorded
    try:
        yield spans
    finally:
        runner.run_attempt = inner


def campaign_config(seed: int):
    from repro.core.modes import CAMPAIGN_MODES
    from repro.fault.campaign import CampaignConfig

    return CampaignConfig(benchmarks=FAULT_BENCHMARKS,
                          points_per_benchmark=FAULT_POINTS, seed=seed,
                          modes=CAMPAIGN_MODES)


class FaultModes(Workload):
    """``run_scaled_campaign`` over all four redundancy modes."""

    name = "fault-modes"
    expected_spans = (
        "eval.runner.self", "eval.jobs.simulate", "fault.inject_one",
        "fault.inject_one_nstream", "core.nstream.tmr.run",
        "core.nstream.replay.run", "core.slipstream.self",
        "core.recovery.recover",
    )

    def __init__(self, goldens: dict):
        self.goldens = goldens["fault"]

    @property
    def params(self) -> dict:
        return {"benchmarks": FAULT_BENCHMARKS, "points": FAULT_POINTS,
                "campaign_seeds": FAULT_SEEDS, "runner_jobs": 1,
                "disk_cache": False}

    def setup(self) -> None:
        from repro.arch.compiled import compiled_for
        from repro.eval import jobs, models
        from repro.uarch.compiled_timing import timing_meta_for
        from repro.workloads.suite import get_benchmark

        models.configure_disk_cache(False)
        for name in FAULT_BENCHMARKS:
            program = get_benchmark(name).program(1)
            compiled_for(program)
            timing_meta_for(program)
            # The campaign's jobs look programs up through this memo.
            jobs._PROGRAM_MEMO[(name, 1)] = program

    def run_pass(self, rng, tracer=None, probe=None) -> Pass:
        p = Pass()
        with instrumented(tracer):
            for seed in rng.sample(FAULT_SEEDS, len(FAULT_SEEDS)):
                self._campaign(p, seed)
        return p

    def _campaign(self, p: Pass, seed: int) -> None:
        from repro.eval import models
        from repro.eval.jobs import simulation_count
        from repro.fault.campaign import run_scaled_campaign
        from repro.fault.coverage import HANDLED_OUTCOMES, HARMFUL_OUTCOMES

        label = f"campaign/seed{seed}"
        models.clear_cache()
        gc.collect()
        attempts: Dict[object, Span] = {}
        sims, w0, c0 = simulation_count(), time.perf_counter(), cpu_clock()
        try:
            with attempt_spans(attempts):
                result, stats = run_scaled_campaign(
                    campaign_config(seed), jobs=1, use_disk_cache=False)
        except Exception as exc:  # noqa: BLE001 - counted as failed
            p.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return
        cpu = cpu_clock() - c0
        segment = (w0, time.perf_counter())
        p.segments.append(segment)
        simulated = simulation_count() - sims
        program_len = sum(
            models.run_slipstream_model(name).retired
            for name in FAULT_BENCHMARKS) // len(FAULT_BENCHMARKS)
        p.retired += simulated * program_len
        p.sims.append((*segment, cpu))
        p.spans.extend(attempts[r.key] for r in stats.records
                       if r.source == "simulated")
        table = outcome_table(result)
        observed = {"table": table,
                    "failed_points": len(result.failed_points)}
        p.outputs[label] = observed
        if self.goldens.get(str(seed)) != observed:
            p.failures.append(f"{label}: outcome table differs from golden")
        injections = result.results
        harmful = [r for r in injections if r.outcome in HARMFUL_OUTCOMES]
        p.count("fault.injections", len(injections))
        p.count("fault.harmful", len(harmful))
        p.count("fault.handled", sum(
            1 for r in harmful if r.outcome in HANDLED_OUTCOMES))
        p.count("eval.jobs.simulated", simulated)
        p.rows.append({"job": label, "cpu_s": cpu,
                       "injections": len(injections),
                       "simulated": simulated})


# ----------------------------------------------------------------------
# serve-mixed: two closed-loop clients against an in-process daemon.
# ----------------------------------------------------------------------


def _job(model: str, benchmark: str, scale: int) -> dict:
    return {"model": model, "benchmark": benchmark, "scale": scale}


#: Memory-warm repeats, per client (disjoint, so no accidental dedup).
SERVE_HOT = (
    (_job("count", "jpeg", 1), _job("ss64", "jpeg", 1), _job("count", "li", 1)),
    (_job("count", "go", 1), _job("ss128", "jpeg", 1), _job("count", "perl", 1)),
)
#: Disk-warm tier: filled during set-up, each read once per pass.
SERVE_DISK = (
    tuple(_job("count", "jpeg", s) for s in (2, 4, 6)),
    tuple(_job("count", "jpeg", s) for s in (3, 5, 7)),
)
#: Cold cheap jobs at unfilled scales, each simulated once per pass.
SERVE_COLD = (
    (_job("count", "go", 2), _job("count", "go", 4), _job("count", "jpeg", 10),
     _job("count", "jpeg", 12), _job("ss64", "jpeg", 2),
     _job("count", "li", 2)),
    (_job("count", "go", 3), _job("count", "go", 5), _job("count", "jpeg", 11),
     _job("count", "jpeg", 13), _job("ss64", "jpeg", 3),
     _job("count", "perl", 2)),
)
#: Cold jobs both clients request at once (in-flight dedup).
SERVE_SHARED = (_job("count", "go", 6), _job("count", "jpeg", 14))
#: Seconds between host-probe samples while the clients run.
PROBE_SLICE_S = 0.005
#: Requests per client per pass.
SERVE_REQUESTS = 500
#: Where each tier's result must come from.  A shared job is simulated
#: once and joined by the other client, or served from memory if the
#: join came too late.
SERVE_SOURCES = {"hot": ("memory",), "disk": ("disk",), "cold": ("fresh",),
                 "shared": ("fresh", "inflight", "memory")}


def serve_keys() -> List[dict]:
    """Every job the serving workload can request."""
    keys = [job for tier in (SERVE_HOT, SERVE_DISK, SERVE_COLD)
            for client in tier for job in client]
    return keys + list(SERVE_SHARED)


def serve_label(job: dict) -> str:
    return job_label(job["model"], job["benchmark"], job["scale"])


def _retired_of(body) -> int:
    """Instructions a result line's canonical body accounts for."""
    if isinstance(body, int):
        return body
    return int(body["retired"])


class ServeMixed(Workload):
    """A ``start_server_thread`` daemon (thread backend, one worker,
    private cache root) under two closed-loop ``ServeClient``s."""

    name = "serve-mixed"
    threaded = True
    expected_spans = (
        "eval.serve.spec_from_json", "eval.serve.result_payload",
        "eval.serve.http_self", "eval.jobs.disk_load", "eval.jobs.disk_store",
        "eval.jobs.simulate", "uarch.core.self",
    )

    def __init__(self, goldens: dict, workdir: Path):
        self.goldens = goldens["serve"]
        self.workdir = workdir
        self.template = workdir / "serve-root"
        self.setup_failures: List[str] = []

    @property
    def params(self) -> dict:
        return {"clients": 2, "requests_per_client": SERVE_REQUESTS,
                "backend": "thread", "workers": 1,
                "hot": SERVE_HOT, "disk": SERVE_DISK, "cold": SERVE_COLD,
                "shared": SERVE_SHARED}

    def _start(self, root: Path):
        from repro.eval import models
        from repro.eval.serve import start_server_thread

        models.clear_cache()
        models.configure_disk_cache(True, str(root))
        return start_server_thread(jobs=1, backend="thread")

    def setup(self) -> None:
        """Fill a fresh cache root inline with the hot and disk tiers
        (checking each inline digest against the golden), and bring a
        daemon up and down on it."""
        from repro.eval import models
        from repro.eval.serve import spec_from_json

        root = self.template
        shutil.rmtree(root, ignore_errors=True)
        models.clear_cache()
        models.configure_disk_cache(True, str(root))
        for tier in (SERVE_HOT, SERVE_DISK):
            for job in (j for client in tier for j in client):
                result = models.run_cached(spec_from_json(job))
                if digest(result) != self.goldens.get(serve_label(job)):
                    self.setup_failures.append(
                        f"{serve_label(job)}: inline digest differs from golden")
        self._start(root).stop()

    def close(self) -> None:
        from repro.eval import models

        models.configure_disk_cache(False)
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _streams(self, rng) -> List[List[Tuple[str, dict]]]:
        """Each client's seeded request stream of (tier, job)."""
        n = SERVE_REQUESTS
        shared_at = sorted(rng.sample(range(n // 10, n), len(SERVE_SHARED)))
        streams = []
        for client in range(2):
            slots: List[Optional[Tuple[str, dict]]] = [None] * n
            for index, job in zip(shared_at, SERVE_SHARED):
                slots[index] = ("shared", job)
            free = [i for i in range(n) if slots[i] is None]
            special = ([("disk", j) for j in SERVE_DISK[client]]
                       + [("cold", j) for j in SERVE_COLD[client]])
            for index, entry in zip(rng.sample(free, len(special)), special):
                slots[index] = entry
            hot = SERVE_HOT[client]
            streams.append([
                slot if slot is not None else ("hot", rng.choice(hot))
                for slot in slots
            ])
        return streams

    def run_pass(self, rng, tracer=None, probe=None) -> Pass:
        from repro.eval.serve import ServeClient

        p = Pass()
        root = self.workdir / "serve-pass"
        shutil.rmtree(root, ignore_errors=True)
        shutil.copytree(self.template, root)
        streams = self._streams(rng)
        handle = self._start(root)
        gc.collect()
        try:
            control = ServeClient(handle.host, handle.port)
            for job in (j for client in SERVE_HOT for j in client):
                self._check_line(p, "warmup", job,
                                 control.submit_all([job]), ("disk",))
            before = control.health()["stats"]
            barrier = threading.Barrier(2)
            lock = threading.Lock()
            errors: List[str] = []
            client_span = (tracer.intern(CLIENT_SPAN) if tracer is not None
                           else None)

            def client(index: int) -> None:
                conn = ServeClient(handle.host, handle.port, timeout=60.0)
                try:
                    for n, (tier, job) in enumerate(streams[index]):
                        if tier == "shared":
                            barrier.wait(timeout=60.0)
                        span = None
                        if tracer is not None:
                            rid = index * SERVE_REQUESTS + n
                            tracer.request_of[(job["model"], job["benchmark"],
                                               job["scale"])] = rid
                            tracer.set_request(rid)
                            span = tracer.begin(client_span)
                        t0 = time.perf_counter()
                        lines = conn.submit_all([job])
                        request = (t0, time.perf_counter())
                        if span is not None:
                            tracer.finish(span)
                        with lock:
                            p.spans.append(request)
                            self._check_line(p, tier, job, lines,
                                             SERVE_SOURCES[tier], request)
                except Exception as exc:  # noqa: BLE001 - reported below
                    errors.append(f"client {index}: {type(exc).__name__}: {exc}")
                    barrier.abort()
                finally:
                    conn.close()

            with instrumented(tracer):
                threads = [threading.Thread(target=client, args=(i,))
                           for i in range(2)]
                w0 = time.perf_counter()
                for thread in threads:
                    thread.start()
                # Wait in short slices, sampling the host probe between
                # them (always sliced, so traced passes wait the same way).
                deadline = w0 + 60.0
                for thread in threads:
                    while thread.is_alive() and time.perf_counter() < deadline:
                        thread.join(PROBE_SLICE_S)
                        if probe is not None:
                            probe.sample()
                p.segments.append((w0, time.perf_counter()))
            if any(thread.is_alive() for thread in threads):
                errors.append("a client did not finish within 60 s")
            p.failures.extend(errors)
            after = control.health()["stats"]
            control.close()
        finally:
            handle.stop()
        for name in ("submitted", "memory_hits", "disk_hits", "deduped",
                     "simulated"):
            p.count(f"eval.jobs.{name}", after[name] - before[name])
        return p

    def _check_line(self, p: Pass, tier: str, job: dict, lines: list,
                    sources: Tuple[str, ...],
                    request: Optional[Span] = None) -> None:
        label = serve_label(job)
        if len(lines) != 1 or not lines[0].get("ok"):
            p.failures.append(f"{tier} {label}: {lines!r:.200}")
            return
        line = lines[0]
        if line["digest"] != self.goldens.get(label):
            p.failures.append(f"{tier} {label}: digest differs from golden")
        if line["source"] not in sources:
            p.failures.append(
                f"{tier} {label}: served from {line['source']}, "
                f"expected {'/'.join(sources)}")
        if tier == "warmup":
            return
        p.outputs[label] = line["digest"]
        if line["source"] == "fresh":
            p.retired += _retired_of(line["result"])
            p.sims.append((*request, line["cpu_seconds"]))
