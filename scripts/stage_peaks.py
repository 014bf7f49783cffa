#!/usr/bin/env python3
"""Wall time and peak memory after each stage of one pipeline run.

    python3 scripts/stage_peaks.py CONFIG [--seed S]

Runs CONFIG through ``run_pipeline`` into a temporary directory, removed
afterwards, and prints one line per stage that ran: its wall time and the
process's ``ru_maxrss`` (its peak resident memory so far, in MB) and its
current resident memory (``VmRSS`` of ``/proc/self/status``, in MB; ``-``
where that file is missing) when the stage returned; then the same for the
manifest that ends the run.  The last line whose peak rises names the part
of the run that sets its high-water mark; the current figure tells what a
stage leaves resident from what it needs only while it runs.  Relative
paths in CONFIG (``raw_dir``) are read from the current directory.  Imports
affectpipe from this checkout's ``src``.
"""

from __future__ import annotations

import argparse
import resource
import sys
import tempfile
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from affectpipe import pipeline  # noqa: E402


def peak_mb() -> float:
    """The process's peak resident memory so far (ru_maxrss is in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def resident_mb() -> str:
    """The process's current resident memory in MB (VmRSS is in kB), or "-"
    where /proc/self/status is missing."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    return f"{int(line.split()[1]) / 1024.0:.1f}"
    except OSError:
        pass
    return "-"


def memory() -> tuple[float, str]:
    """The peak and the current resident memory."""
    return peak_mb(), resident_mb()


def time_stages(rows: list) -> None:
    """Make each PipelineRun stage append (stage, seconds, peak MB, current
    MB) to rows."""
    for stage in pipeline.STAGES:
        name = f"stage_{stage}"

        def timed(run, stage=stage, method=getattr(pipeline.PipelineRun, name)):
            start = perf_counter()
            method(run)
            rows.append((stage, perf_counter() - start, *memory()))

        setattr(pipeline.PipelineRun, name, timed)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config", type=Path, help="run config (JSON)")
    parser.add_argument("--seed", type=int, default=None, help="seed in place of the config's")
    args = parser.parse_args(argv)
    rows = [("start", 0.0, *memory())]
    time_stages(rows)
    with tempfile.TemporaryDirectory() as tmp:
        start = perf_counter()
        pipeline.run_pipeline(args.config, seed_override=args.seed, out_dir_override=Path(tmp) / "run")
        total = perf_counter() - start
    rows.append(("manifest", total - sum(row[1] for row in rows), *memory()))
    rows.append(("total", total, *memory()))
    print(f"{'stage':<10} {'wall_s':>8} {'peak_rss_mb':>12} {'rss_mb':>8}")
    for stage, seconds, peak, resident in rows:
        print(f"{stage:<10} {seconds:>8.3f} {peak:>12.1f} {resident:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
