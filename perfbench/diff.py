#!/usr/bin/env python3
"""Compare two sets of benchmark results.

    python3 perfbench/diff.py A B

``A`` and ``B`` are result files written by ``run.py`` (``*.json``
under ``perfbench/out/``) or directories holding them; ``A`` is the
baseline.  For every workload and end-to-end metric it prints A's and
B's median with quartiles and flags B as worse when its median is
worse than A's by more than the metric's bound in BENCHMARK.json.  A
metric whose own spread in A is wider than the bound is reported as
unresolved.  From traced results it names, per workload, the layer
whose self time per operation moved most.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent


def load(raw: str) -> Dict[Tuple[str, int], List[dict]]:
    """Result records grouped by (workload, trace flag)."""
    path = Path(raw)
    groups: Dict[Tuple[str, int], List[dict]] = {}
    for file in sorted(path.glob("*.json")) if path.is_dir() else [path]:
        record = json.loads(file.read_text(encoding="utf-8"))
        if "workload" in record and "metrics" in record:
            groups.setdefault((record["workload"], record["trace"]),
                              []).append(record)
    return groups


def spread(values: List[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("a", help="baseline: a result file or a directory")
    parser.add_argument("b", help="candidate: a result file or a directory")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    a, b = load(args.a), load(args.b)
    status = 0
    header = f"{'workload':<12} {'metric':<12} {'A median [q1, q3]':>30} " \
             f"{'B median [q1, q3]':>30} {'change':>8}  verdict"
    print(header)
    for workload in sorted({w for w, t in a if t == 0} & {w for w, t in b if t == 0}):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            va = [r["metrics"][name] for r in a[(workload, 0)]]
            vb = [r["metrics"][name] for r in b[(workload, 0)]]
            (a1, am, a3), (b1, bm, b3) = spread(va), spread(vb)
            change = (bm - am) / am if am else 0.0
            worse = -change if metric["better"] == "higher" else change
            if am and (a3 - a1) / am > metric["bound"]:
                verdict = "unresolved"
            elif worse > metric["bound"]:
                verdict = f"WORSE (bound {metric['bound']:.0%})"
                status = 1
            elif worse < -metric["bound"]:
                verdict = "better"
            else:
                verdict = "within bound"
            print(f"{workload:<12} {name:<12} "
                  f"{am:>12.5g} [{a1:.5g}, {a3:.5g}]".ljust(56)
                  + f" {bm:>12.5g} [{b1:.5g}, {b3:.5g}]".ljust(31)
                  + f" {change:>+8.1%}  {verdict}")
    for workload in sorted({w for w, t in a if t == 1} & {w for w, t in b if t == 1}):
        moves = []
        for metric in spec["per_layer"]:
            name = metric["name"]
            if not name.endswith(".us_per_instr"):
                continue
            am = statistics.median(r["metrics"][name] for r in a[(workload, 1)])
            bm = statistics.median(r["metrics"][name] for r in b[(workload, 1)])
            moves.append((abs(bm - am), name, am, bm))
        _, name, am, bm = max(moves)
        layer = name[:-len(".us_per_instr")]
        print(f"{workload}: self time moved most in {layer}: "
              f"{am:.4g} -> {bm:.4g} us/op")
    return status


if __name__ == "__main__":
    sys.exit(main())
