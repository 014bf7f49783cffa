#!/usr/bin/env python3
"""affectpipe benchmark: time one workload end to end, or per layer.

    python3 perfbench/run.py --workload default_run --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from its ``src``.
With ``--trace 0`` the workload's inputs are set up several times and then
run for ``--seconds`` seconds (at least once), each run in a fresh process,
and the end-to-end metrics are printed.  With ``--trace 1`` one untraced and
one traced run give the per-layer metrics.  Every run's results are checked:
against the recorded reference on the reference seed, otherwise against the
first run of the same program and seed in this checkout; a tiny canary
cohort is checked against its reference on every call.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Sequence

import check
import probes
import workloads
from spans import spans_to_json

HERE = Path(__file__).resolve().parent
STATE = workloads.ROOT / ".bench_build" / "perfbench"
# Stop starting runs once this much of the call's time is gone; the call
# must end within 180 s.
DEADLINE_S = 150.0
TASK_TIMEOUT_S = 170.0
# Set-up runs at least SETUP_MIN_RUNS times, then again until SETUP_BUDGET_S
# seconds of wall time have passed, at most SETUP_MAX_RUNS times.
SETUP_MIN_RUNS = 1
SETUP_MAX_RUNS = 25
SETUP_BUDGET_S = 2.5
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
END_TO_END_UNITS = workloads.declared_units("end_to_end")


class TaskFailed(RuntimeError):
    pass


class Session:
    """One call of the benchmark: its work directory, clock and tasks."""

    def __init__(self, workload: str, seed: int, scale: str) -> None:
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.started = perf_counter()
        self.workdir = STATE / "work" / workload
        self.numpy = None

    def elapsed(self) -> float:
        return perf_counter() - self.started

    def task(self, task: str, trace: bool = False, workdir: Path | None = None) -> dict:
        workdir = workdir or self.workdir
        workdir.mkdir(parents=True, exist_ok=True)
        with tempfile.NamedTemporaryFile(dir=STATE, suffix=".json", delete=False) as tmp:
            result_path = Path(tmp.name)
        command = [
            sys.executable,
            str(HERE / "worker.py"),
            task,
            self.workload,
            str(self.seed),
            self.scale,
            "1" if trace else "0",
            str(workdir),
            str(result_path),
        ]
        timeout = max(1.0, TASK_TIMEOUT_S - self.elapsed())
        try:
            proc = subprocess.run(command, timeout=timeout, stdout=subprocess.DEVNULL)
            if proc.returncode != 0:
                raise TaskFailed(f"{task} task exited with code {proc.returncode}")
            payload = json.loads(result_path.read_text(encoding="utf-8"))
        except subprocess.TimeoutExpired as exc:
            raise TaskFailed(f"{task} task timed out after {timeout:.0f} s") from exc
        finally:
            result_path.unlink(missing_ok=True)
        self.numpy = payload.get("numpy", self.numpy)
        return payload


def environment(numpy_version: str | None) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=workloads.ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        git_commit = commit.stdout.strip() if commit.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        git_commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_commit": git_commit,
    }


class Verdicts:
    """Checks every run's results against what is expected for its seed."""

    def __init__(self, session: Session, reference: dict) -> None:
        self.session = session
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.artifacts_changed = 0
        self.messages: list[str] = []
        s = session
        # Kept results and counts belong to one version of the program, so a
        # checkout measured at two commits never compares one with the other.
        key = f"{s.workload}-{s.scale}-{s.seed}-{workloads.program_digest()[:16]}"
        self.seen_path = STATE / "seen" / f"{key}.json"
        self.seen_counts_path = STATE / "seen" / f"{key}-counts.json"
        recorded = None
        if s.seed == workloads.REFERENCE_SEED:
            recorded = reference.get(s.scale, {}).get(s.workload)
        self.reference_counts = recorded["counts"] if recorded else None
        if recorded:
            self.expected = recorded
        elif self.seen_path.exists():
            self.expected = json.loads(self.seen_path.read_text(encoding="utf-8"))
        else:
            self.expected = None

    def record(
        self,
        label: str,
        payload: dict | None,
        expected: dict | None = None,
        count_diffs: Sequence[str] = (),
    ) -> bool:
        """Count one attempted run; return whether it passed."""
        self.attempted += 1
        if payload is None:
            self.failed += 1
            return False
        if expected is None:
            if self.expected is None:
                self.expected = {"results": payload["results"], "artifacts": payload["artifacts"]}
                self.seen_path.parent.mkdir(parents=True, exist_ok=True)
                self.seen_path.write_text(json.dumps(self.expected), encoding="utf-8")
            expected = self.expected
        self.artifacts_changed += check.artifacts_changed(expected["artifacts"], payload["artifacts"])
        diffs = check.result_diffs(expected["results"], payload["results"])
        problems = [f"results differ at {', '.join(diffs[:5])}"] if diffs else []
        problems.extend(count_diffs)
        if problems:
            self.failed += 1
            self.messages.extend(f"{label}: {problem}" for problem in problems)
            return False
        return True

    def count_diffs(self, metrics: dict) -> list[str]:
        """Why the traced run's counts fail it: one differs from an earlier
        traced run of the same program and seed, or, on the reference seed,
        a count that follows from the results differs from the reference.
        A format count that differs from the reference is only reported."""
        mine = {name: metrics[name] for name in probes.REPEATABLE_COUNTS}
        failures = []
        if self.reference_counts is not None:
            for name in probes.REPEATABLE_COUNTS:
                want = self.reference_counts[name]
                if mine[name] == want:
                    continue
                message = f"{name} is {mine[name]}, the reference {want}"
                if name in probes.RESULT_COUNTS:
                    failures.append(message)
                else:
                    self.messages.append(f"{message} (reported, not failed)")
        path = self.seen_counts_path
        if path.exists():
            earlier = json.loads(path.read_text(encoding="utf-8"))
            diffs = check.result_diffs(earlier, mine)
            if diffs:
                failures.append(f"counts differ from an earlier run at {', '.join(diffs)}")
        else:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(mine), encoding="utf-8")
        return failures


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def set_up(session: Session) -> list[float]:
    """Build the inputs in fresh processes, several times.  Each time covers
    loading the program and building the inputs, so work the program does
    on import shows too."""
    times: list[float] = []
    started = perf_counter()
    while len(times) < SETUP_MIN_RUNS or (
        len(times) < SETUP_MAX_RUNS and perf_counter() - started < SETUP_BUDGET_S
    ):
        shutil.rmtree(session.workdir / "inputs", ignore_errors=True)
        payload = session.task("setup")
        times.append(payload["import_s"] + payload["build_s"])
    return times


def measure(session: Session, seconds: float, verdicts: Verdicts) -> tuple[dict, dict]:
    setup_s = set_up(session)
    runs = []
    attempts = 0
    run_started = perf_counter()
    last = 0.0
    while attempts == 0 or (
        perf_counter() - run_started < seconds and session.elapsed() + last < DEADLINE_S
    ):
        attempts += 1
        began = perf_counter()
        try:
            payload = session.task("run")
        except TaskFailed as exc:
            verdicts.messages.append(str(exc))
            payload = None
        last = perf_counter() - began
        verdicts.record(f"run {attempts}", payload)
        if payload is not None:
            runs.append(payload)
    if not runs:
        raise TaskFailed("no run completed")
    run_s = [r["run_s"] for r in runs]
    samples = {
        "run_s": run_s,
        "setup_s": setup_s,
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
    }
    metrics = {
        "run_s": statistics.median(run_s),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
        "macro_accuracy": runs[0]["results"]["macro_accuracy"],
    }
    return metrics, samples


def measure_layers(session: Session, verdicts: Verdicts) -> tuple[dict, dict]:
    setup = session.task("setup", trace=True)
    untraced = traced = None
    try:
        untraced = session.task("run")
        traced = session.task("run", trace=True)
    except TaskFailed as exc:
        verdicts.messages.append(str(exc))
    verdicts.record("untraced run", untraced)
    if untraced is None or traced is None:
        verdicts.record("traced run", traced)
        raise TaskFailed("traced or untraced run did not complete")
    spans, counts = probes.merge([setup, traced])
    trace_path = STATE / "traces" / f"{session.workload}-{session.scale}-{session.seed}.json"
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(
        json.dumps({"spans": spans_to_json(spans), "counts": counts}),
        encoding="utf-8",
    )
    metrics = probes.layer_metrics(spans, counts)
    verdicts.record("traced run", traced, count_diffs=verdicts.count_diffs(metrics))
    metrics["trace.overhead_s"] = traced["run_s"] - untraced["run_s"]
    samples = {"run_s": [untraced["run_s"]], "traced_run_s": [traced["run_s"]]}
    return metrics, samples


def print_summary(session: Session, trace: bool, metrics: dict, samples: dict, verdicts: Verdicts, env: dict) -> None:
    print(f"workload {session.workload} seed {session.seed} scale {session.scale} trace {int(trace)}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, values in samples.items():
        q1, q2, q3 = quartiles(values)
        print(f"  {name:<16} median {q2:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}")
    rate = verdicts.failed / verdicts.attempted
    print(f"  {'error_rate':<16} {rate:.6g} ({verdicts.failed} failed of {verdicts.attempted} attempted)")
    for name, value in metrics.items():
        unit = END_TO_END_UNITS.get(name) or probes.UNITS[name]
        print(f"  {name:<36} {value:.6g} {unit}")
    for message in verdicts.messages:
        print(f"  check: {message}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--scale",
        choices=workloads.SCALES,
        default="full",
        help="tiny: a 3-participant cohort for a quick check of the harness",
    )
    args = ap.parse_args(argv)

    try:
        workloads.import_program()
    except workloads.ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    STATE.mkdir(parents=True, exist_ok=True)
    with (STATE / "lock").open("w") as lock:
        # One workload at a time: a second call waits for the first.
        fcntl.flock(lock, fcntl.LOCK_EX)
        session = Session(args.workload, args.seed, args.scale)
        shutil.rmtree(session.workdir, ignore_errors=True)
        verdicts = Verdicts(session, check.load_reference())
        trace = args.trace == 1
        try:
            if trace:
                metrics, samples = measure_layers(session, verdicts)
            else:
                metrics, samples = measure(session, args.seconds, verdicts)
            canary_dir = session.workdir / "canary"
            try:
                canary = session.task("canary", workdir=canary_dir)
            except TaskFailed as exc:
                verdicts.messages.append(str(exc))
                canary = None
            verdicts.record("canary", canary, expected=verdicts.reference["tiny"][args.workload])
        except TaskFailed as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            for message in verdicts.messages:
                print(f"perfbench: {message}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(session.workdir, ignore_errors=True)

        if trace:
            metrics = {"pipeline.artifacts_changed": verdicts.artifacts_changed, **metrics}
            units = probes.UNITS
        else:
            units = END_TO_END_UNITS
        env = environment(session.numpy)
        print_summary(session, trace, metrics, samples, verdicts, env)
        result = {
            "correct": verdicts.failed == 0,
            "attempted": verdicts.attempted,
            "failed": verdicts.failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        }
        results_path = STATE / "results" / f"{args.workload}-{args.scale}-{args.seed}-trace{args.trace}.json"
        results_path.parent.mkdir(parents=True, exist_ok=True)
        results_path.write_text(
            json.dumps({**result, "env": env, "samples": samples, "checks": verdicts.messages}, indent=1),
            encoding="utf-8",
        )
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
