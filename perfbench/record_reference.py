#!/usr/bin/env python3
"""Record the reference results every benchmark run is checked against.

    python3 perfbench/record_reference.py

Runs each workload at both scales on the reference seed, traced, one
process per task as the benchmark does, and rewrites perfbench/reference.json
with the results, the artifact digests and the repeatable counts.  Rerun it
only when a change is meant to alter results, and say why in the change.
"""

from __future__ import annotations

import json
import shutil
import sys

import check
import probes
import run
import workloads


def main() -> int:
    workloads.import_program()
    run.STATE.mkdir(parents=True, exist_ok=True)
    reference: dict = {"seed": workloads.REFERENCE_SEED}
    for scale in workloads.SCALES:
        reference[scale] = {}
        for name in workloads.WORKLOADS:
            session = run.Session(name, workloads.REFERENCE_SEED, scale)
            shutil.rmtree(session.workdir, ignore_errors=True)
            try:
                setup = session.task("setup", trace=True)
                payload = session.task("run", trace=True)
            finally:
                shutil.rmtree(session.workdir, ignore_errors=True)
            metrics = probes.layer_metrics(*probes.merge([setup, payload]))
            reference[scale][name] = {
                "results": payload["results"],
                "artifacts": payload["artifacts"],
                "counts": {count: metrics[count] for count in probes.REPEATABLE_COUNTS},
            }
            print(f"{scale} {name}: run_s {payload['run_s']:.2f}", file=sys.stderr)
    check.REFERENCE_PATH.write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
