#!/usr/bin/env python3
"""The repository benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload cmp-suite --seed 1 --seconds 15 --trace 0

Workloads: ``cmp-suite``, ``ss-suite``, ``fault-modes``, ``serve-mixed``
(see README.md).  ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` runs untraced passes, then traced passes, checks that
both produced identical outputs, and reports the per-layer metrics and
the tracing overhead.  Every output is checked against
``goldens.json``.  A human-readable report goes first; the last line
of standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``).  Result and span files go to
``perfbench/out/``.

End-to-end times are scaled to nominal host speed by the host probe
(``probe.py``), which divides out the varying load of a shared host;
the result file also keeps the same figures on the raw clock.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Cold set-ups, each in a fresh interpreter; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Stop starting passes after this many seconds, whatever --seconds says,
#: so a slow host still finishes well inside the three-minute limit.
PASS_BUDGET_CAP_S = 110.0

#: Modules each workload imports (timed as part of set-up).
IMPORTS = {
    "cmp-suite": ("repro.core.slipstream", "repro.workloads.suite",
                  "repro.obs.session"),
    "ss-suite": ("repro.uarch.core", "repro.workloads.suite",
                 "repro.obs.session"),
    "fault-modes": ("repro.fault.campaign", "repro.eval.models",
                    "repro.eval.runner"),
    "serve-mixed": ("repro.eval.serve", "repro.eval.models"),
}


#: Units of the unbounded figures printed after the bounded metrics.
EXTRA_UNITS = {"removal_err_pp": "pp", "ipc_err_pct": "%",
               "injections_per_s": "1/s (CPU)", "failed_frac": "failed/attempted"}


def percentile(values: List[float], q: float) -> float:
    """Interpolated percentile (``statistics.quantiles``, inclusive)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[
        round(q * 100) - 1]


def make_workload(name: str, goldens: dict, workdir: Path):
    import workloads

    if name == "cmp-suite":
        return workloads.CmpSuite(goldens)
    if name == "ss-suite":
        return workloads.SsSuite(goldens)
    if name == "fault-modes":
        return workloads.FaultModes(goldens)
    return workloads.ServeMixed(goldens, workdir)


class RawClock:
    """The unscaled clock, for the raw figures in the result file."""

    @staticmethod
    def normalise(w0: float, w1: float, own: bool = True) -> float:
        return w1 - w0


def setup_once(name: str) -> Tuple[float, float]:
    """``(normalised, raw)`` seconds for imports plus one ``setup()``,
    in this (fresh) process."""
    import goldens
    from probe import HostProbe

    golden = goldens.load()
    host = HostProbe()
    with host.cpu_timer():
        t0 = time.perf_counter()
        for module in IMPORTS[name]:
            importlib.import_module(module)
        workload = make_workload(name, golden, OUT / f"setup-{os.getpid()}")
        workload.setup()
        t1 = time.perf_counter()
    workload.close()
    return host.normalise(t0, t1), t1 - t0


def cold_setup_seconds(name: str) -> List[Tuple[float, float]]:
    """:func:`setup_once` in :data:`SETUP_REPEATS` fresh interpreters."""
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True)
        normalised, raw = map(float, done.stdout.split()[-2:])
        samples.append((normalised, raw))
    return samples


def run_passes(workload, rng, seconds: float, tracer=None,
               host=None) -> list:
    """Whole passes until the next one would end further from
    ``seconds`` than stopping now (at least one pass).  With a host
    probe, a single-threaded workload is sampled from a CPU timer."""
    passes = []
    t0 = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        if host is not None and not workload.threaded:
            with host.cpu_timer():
                passes.append(workload.run_pass(rng, tracer))
        else:
            passes.append(workload.run_pass(rng, tracer, host))
        now = time.perf_counter()
        elapsed, duration = now - t0, now - p0
        if elapsed + duration / 2 >= min(seconds, PASS_BUDGET_CAP_S):
            return passes


def end_to_end(passes, clock, own: bool):
    """``(metrics, per-pass rows)`` with every span measured on
    ``clock`` (a :class:`~probe.HostProbe` or :class:`RawClock`); ``own``
    says whether the probe sampled inside the measured thread.  Each
    timing is computed per pass; a run reports the median over its
    passes."""
    def seconds(span) -> float:
        return clock.normalise(span[0], span[1], own)

    def per_pass(p) -> Dict[str, float]:
        # A simulation's CPU time, scaled like the wall span it ran in.
        sim_s = sum(cpu * seconds((w0, w1)) / (w1 - w0)
                    for w0, w1, cpu in p.sims if w1 > w0)
        wall_s = sum(seconds(span) for span in p.segments)
        latencies = [seconds(span) for span in p.spans]
        return {
            "sim_kips": p.retired / sim_s / 1000 if sim_s else 0.0,
            "jobs_per_s": p.ops / wall_s if wall_s else 0.0,
            "req_p50_ms": 1e3 * percentile(latencies, 0.50),
            "req_p99_ms": 1e3 * percentile(latencies, 0.99),
        }

    rows = [per_pass(p) for p in passes]
    metrics = {name: statistics.median(row[name] for row in rows)
               for name in rows[0]}
    return metrics, rows


def accuracy(name: str, passes) -> Dict[str, float]:
    """Distance from the paper (deterministic; locked by the goldens)."""
    from repro.eval.experiments import PAPER

    outputs = passes[0].outputs

    def mean(values: List[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    if name == "cmp-suite":
        return {"removal_err_pp": 100.0 * mean([
            abs(outputs[f"cmp/{b}@1"]["removal_fraction"] - paper)
            for b, paper in PAPER["removal_fraction"].items()
            if f"cmp/{b}@1" in outputs])}
    if name == "ss-suite":
        return {"ipc_err_pct": 100.0 * mean([
            abs(outputs[f"ss64/{b}@1"]["ipc"] - paper) / paper
            for b, paper in PAPER["base_ipc"].items()
            if f"ss64/{b}@1" in outputs])}
    if name == "fault-modes":
        injections = sum(p.counters.get("fault.injections", 0) for p in passes)
        cpu = sum(p.sim_cpu_s for p in passes)
        return {"injections_per_s": injections / cpu if cpu else 0.0}
    return {}


def per_layer(workload, traced, untraced, tracer) -> Dict[str, float]:
    import tracing
    import workloads

    n = len(traced)
    base = max(1, sum(p.ops if workload.name == "serve-mixed" else p.retired
                      for p in traced))
    summary = tracer.summary()
    metrics: Dict[str, float] = {}
    for name in tracing.SPAN_NAMES:
        calls, self_ns = summary.get(name, (0, 0))
        metrics[f"{name}.us_per_instr"] = self_ns / 1e3 / base
        metrics[f"{name}.calls"] = calls / n
    counts = dict.fromkeys(workloads.COUNTER_NAMES, 0.0)
    for p in traced:
        for key, value in p.counters.items():
            counts[key] = counts.get(key, 0) + value / n
    metrics.update(counts)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    traces = counts["core.slipstream.traces"]
    metrics["trace.walker.expand_per_trace"] = ratio(
        metrics["trace.walker.expand.calls"], traces)
    blocks = sum(counts[f"uarch.timing_engine.{k}"]
                 for k in ("block_hit", "block_miss", "fallback"))
    metrics["uarch.timing_engine.blocks"] = blocks
    metrics["uarch.timing_engine.hit_ratio"] = ratio(
        counts["uarch.timing_engine.block_hit"], blocks)
    metrics["eval.jobs.hit_ratio"] = ratio(
        counts["eval.jobs.memory_hits"] + counts["eval.jobs.disk_hits"],
        counts["eval.jobs.submitted"])
    metrics["fault.coverage"] = ratio(counts["fault.handled"],
                                      counts["fault.harmful"])
    metrics["base.ops_per_pass"] = base / n
    traced_wall = sum(p.wall_s for p in traced) / n
    untraced_wall = sum(p.wall_s for p in untraced) / len(untraced)
    metrics["trace.overhead_pct"] = 100.0 * (traced_wall / untraced_wall - 1)
    # Layer shares of the traced passes' time, less the drained copies
    # of the functional stream (work only the traced run does).  On
    # serve-mixed the requests overlap, so the base is the summed client
    # request time, which the daemon-side spans plus
    # ``eval.serve.http_self`` cover.
    if workload.name == "serve-mixed":
        total_ns = sum(ns for _, ns in summary.values())
    else:
        total_ns = 1e9 * traced_wall * n - sum(
            summary.get(name, (0, 0))[1] for name in tracing.NET_OF.values())
    covered = 0.0
    for layer in ("arch", "trace", "uarch", "core", "fault", "eval"):
        layer_ns = sum(ns for name, (_, ns) in summary.items()
                       if name.startswith(layer + "."))
        covered += layer_ns
        metrics[f"layer.{layer}.share_pct"] = 100.0 * layer_ns / total_ns
    metrics["layer.untraced.share_pct"] = 100.0 * (1 - covered / total_ns)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=sorted(IMPORTS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one cold set-up and print its seconds")
    args = parser.parse_args(argv)
    if not args.setup_only and (args.seed is None or args.seconds is None):
        parser.error("--seed and --seconds are required")

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    if args.setup_only:
        print(*setup_once(args.workload))
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    setups = [] if args.trace else cold_setup_seconds(args.workload)

    import goldens
    import tracing
    from probe import HostProbe

    for module in IMPORTS[args.workload]:
        importlib.import_module(module)
    workload = make_workload(args.workload, goldens.load(), OUT / "serve-work")
    workload.setup()

    rng = random.Random(args.seed)
    failures: List[str] = list(getattr(workload, "setup_failures", []))
    tracer = None
    host = None
    pass_rows: List[Dict[str, float]] = []
    raw_metrics: Dict[str, float] = {}
    try:
        if args.trace:
            untraced = run_passes(workload, rng, args.seconds / 2)
            tracer = tracing.Tracer()
            traced = run_passes(workload, rng, args.seconds / 2, tracer)
            passes = untraced + traced
            for label, value in traced[0].outputs.items():
                if untraced[0].outputs.get(label) != value:
                    failures.append(f"{label}: traced output differs")
            fired = tracer.summary()
            failures.extend(f"wrapper {name} never fired"
                            for name in workload.expected_spans
                            if name not in fired)
            metrics = per_layer(workload, traced, untraced, tracer)
            wanted = spec["per_layer"]
        else:
            host = HostProbe()
            passes = run_passes(workload, rng, args.seconds, host=host)
            own = not workload.threaded
            metrics, pass_rows = end_to_end(passes, host, own)
            raw_metrics, _ = end_to_end(passes, RawClock, own)
            metrics["setup_s"] = statistics.median(s for s, _ in setups)
            raw_metrics["setup_s"] = statistics.median(r for _, r in setups)
            metrics["peak_rss_mb"] = raw_metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
            wanted = spec["end_to_end"]
    finally:
        workload.close()
    for p in passes:
        failures.extend(p.failures)
    attempted = sum(p.ops for p in passes)
    failed = min(len(failures), attempted)
    extras = accuracy(args.workload, passes)
    extras["failed_frac"] = failed / attempted if attempted else 1.0

    from repro.eval.jobs import code_fingerprint

    stem = f"{args.workload}.seed{args.seed}.trace{args.trace}"
    job_cpu: Dict[str, float] = {}
    for row in passes[0].rows:
        analog = row["job"].split("/")[1].split("@")[0]
        job_cpu[analog] = min(row["cpu_s"], job_cpu.get(analog, math.inf))
    compile_rows = (workload.compile_rows(job_cpu)
                    if hasattr(workload, "compile_rows") else [])
    if args.trace:
        shares = [r["share_pct"] for r in compile_rows if r["share_pct"]]
        metrics["arch.compile.share_pct"] = max(shares, default=0.0)
        tracer.write(OUT / f"{stem}.spans.jsonl.gz")
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": {
            "code_fingerprint": code_fingerprint(),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "seed": args.seed,
            "seconds": args.seconds,
            "passes": len(passes),
            "setup_repeats": SETUP_REPEATS,
            "workload_params": workload.params,
        },
        "metrics": metrics,
        "raw_metrics": raw_metrics,
        "host_slowdown": host.median_slowdown() if host else None,
        "extras": extras,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:50],
        "setup_samples_s": setups,
        "pass_metrics": pass_rows,
        "compile_rows": compile_rows,
        "job_rows": passes[0].rows,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n",
                                      encoding="utf-8")

    units = {m["name"]: m["unit"] for m in wanted}
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"perfbench: metrics not produced: {missing}", file=sys.stderr)
        return 3
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} code={record['provenance']['code_fingerprint']} "
          f"cpus={os.cpu_count()} python={platform.python_version()}")
    for name, unit in units.items():
        print(f"  {name:<44} {metrics[name]:>14.6g} {unit}")
    for name, value in extras.items():
        print(f"  {name:<44} {value:>14.6g} {EXTRA_UNITS[name]}")
    print(f"  attempted {attempted}, failed {failed}")
    for line in failures[:10]:
        print(f"  FAILED {line}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
