"""Regenerate ``goldens.json``: the outputs every benchmark run is checked
against.

Run from the repository root::

    python3 perfbench/goldens.py

It simulates every cmp-suite and ss-suite job once, runs both fault-modes
campaigns, and computes every serve-mixed job inline through
``repro.eval.models.run_cached`` with the disk cache off.  Regenerate
only when a change is meant to alter simulated results, and review the
diff: a speed-only change must leave this file byte-identical.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "goldens.json"


def load() -> dict:
    with open(GOLDENS, encoding="utf-8") as handle:
        return json.load(handle)


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    from repro.eval import models
    from repro.eval.serve import spec_from_json

    from workloads import (
        FAULT_SEEDS, CmpSuite, FaultModes, SsSuite, digest, serve_keys,
        serve_label,
    )

    empty = {"jobs": {}, "fault": {}, "serve": {}}
    rng = random.Random(0)
    jobs = {}
    for cls in (CmpSuite, SsSuite):
        workload = cls(empty)
        workload.setup()
        jobs.update(workload.run_pass(rng).outputs)
    fault = FaultModes(empty)
    fault.setup()
    outputs = fault.run_pass(rng).outputs
    fault_goldens = {str(seed): outputs[f"campaign/seed{seed}"]
                     for seed in FAULT_SEEDS}
    models.configure_disk_cache(False)
    models.clear_cache()
    serve = {serve_label(job): digest(models.run_cached(spec_from_json(job)))
             for job in serve_keys()}
    payload = {"jobs": dict(sorted(jobs.items())), "fault": fault_goldens,
               "serve": dict(sorted(serve.items()))}
    GOLDENS.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
    print(f"wrote {GOLDENS.relative_to(HERE.parent)}: {len(jobs)} jobs, "
          f"{len(fault_goldens)} campaigns, {len(serve)} serve keys")
    return 0


if __name__ == "__main__":
    sys.exit(main())
