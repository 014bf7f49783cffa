"""One benchmark task in its own process, so each timed run has its own peak
memory and the traced run's probes never leak into an untimed one.

    python3 perfbench/worker.py TASK WORKLOAD SEED SCALE TRACE WORKDIR RESULT

TASK is ``setup`` (build the inputs), ``run`` (one timed run on those
inputs) or ``canary`` (set-up and run of the tiny scale on the reference
seed).  The task works inside WORKDIR and writes a JSON object to RESULT.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter

import check
import probes
import workloads
from spans import Tracer, spans_to_json


def _traced(trace: bool) -> Tracer | None:
    if not trace:
        return None
    tracer = Tracer()
    probes.install(tracer)
    return tracer


def _trace_payload(tracer: Tracer | None) -> dict:
    if tracer is None:
        return {}
    tracer.close()
    return {"spans": spans_to_json(tracer.finished()), "counts": probes.counts_of(tracer)}


def task_setup(workload, seed: int, scale: str, trace: bool) -> dict:
    inputs = workloads.reset_dir(Path("inputs"))
    tracer = _traced(trace)
    start = perf_counter()
    workload.setup(seed, scale, inputs)
    return {"build_s": perf_counter() - start, **_trace_payload(tracer)}


def task_run(workload, seed: int, scale: str, trace: bool) -> dict:
    loaded = workload.load(Path("inputs"))
    out = workloads.reset_dir(Path("out"))
    tracer = _traced(trace)
    gc.collect()
    # Files earlier tasks wrote go to disk now, not during the timed call.
    os.sync()
    start = perf_counter()
    value = workload.run(seed, scale, loaded, out)
    run_s = perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    traced = _trace_payload(tracer)
    results, artifacts = workload.results(value, out)
    return {
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
        "results": check.normalized(results),
        "artifacts": artifacts,
        **traced,
    }


def task_canary(workload, seed: int, scale: str, trace: bool) -> dict:
    inputs = workloads.reset_dir(Path("inputs"))
    out = workloads.reset_dir(Path("out"))
    workload.setup(workloads.REFERENCE_SEED, "tiny", inputs)
    value = workload.run(workloads.REFERENCE_SEED, "tiny", workload.load(inputs), out)
    results, artifacts = workload.results(value, out)
    return {"results": check.normalized(results), "artifacts": artifacts}


TASKS = {"setup": task_setup, "run": task_run, "canary": task_canary}


def main(argv: list[str]) -> int:
    task, name, seed, scale, trace, workdir, result_path = argv
    result_path = Path(result_path).resolve()
    os.chdir(workdir)
    # The interpreter's and numpy's own start-up are not the program's, so
    # the clock starts after them and before the program is loaded.
    import numpy

    start = perf_counter()
    workloads.import_program()
    import_s = perf_counter() - start
    payload = TASKS[task](workloads.WORKLOADS[name], int(seed), scale, trace == "1")
    payload["import_s"] = import_s
    payload["numpy"] = numpy.__version__
    result_path.write_text(json.dumps(payload), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
