"""The benchmark's own tests, on the tiny cohort (3 participants x 70 days,
no planted shift, 3-tree forests).

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import probes  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, self_time, total_time  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SEED = workloads.REFERENCE_SEED


def bench(*args: str, cwd: Path = ROOT, script: Path = BENCH / "run.py") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def tiny_default_run(tmp_path: Path, tracer: Tracer | None = None) -> dict:
    """Set up and run the tiny default_run in this process."""
    workloads.import_program()
    workload = workloads.WORKLOADS["default_run"]
    inputs = workloads.reset_dir(tmp_path / "inputs")
    out = workloads.reset_dir(tmp_path / "out")
    workload.setup(SEED, "tiny", inputs)
    if tracer is not None:
        probes.install(tracer)
    try:
        workload.run(SEED, "tiny", workload.load(inputs), out)
    finally:
        if tracer is not None:
            tracer.close()
    results, artifacts = workload.results(None, out)
    return {"results": check.normalized(results), "artifacts": artifacts}


def test_workload_names_match_the_registry():
    assert WORKLOADS == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = bench(
        "--workload", workload, "--seed", str(SEED), "--seconds", "1",
        "--trace", str(trace), "--scale", "tiny",
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1

    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    summary = "\n".join(lines[:-1])
    for m in declared:
        value = result["metrics"][m["name"]]["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool)
        assert f"{m['name']} " in summary and f" {m['unit']}\n" in summary + "\n"
    if not trace:
        assert "error_rate" in summary
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


def test_changing_one_stored_result_fails_the_check(tmp_path):
    reference = check.load_reference()
    session = run.Session("default_run", SEED, "tiny")
    payload = tiny_default_run(tmp_path)

    verdicts = run.Verdicts(session, reference)
    assert verdicts.record("as recorded", payload)
    assert (verdicts.failed, verdicts.artifacts_changed) == (0, 0)

    changed = copy.deepcopy(reference)
    participant = next(iter(changed["tiny"]["default_run"]["results"]["per_participant"].values()))
    participant["auc"] = participant["auc"] + 1e-12
    verdicts = run.Verdicts(session, changed)
    assert not verdicts.record("one auc changed", payload)
    assert verdicts.failed == 1
    assert "auc" in verdicts.messages[0]


def test_changing_only_a_digest_is_counted_not_failed(tmp_path):
    reference = check.load_reference()
    payload = tiny_default_run(tmp_path)
    changed = copy.deepcopy(reference)
    artifacts = changed["tiny"]["default_run"]["artifacts"]
    artifacts["report.json"] = "0" * 64
    verdicts = run.Verdicts(run.Session("default_run", SEED, "tiny"), changed)
    assert verdicts.record("digest changed", payload)
    assert (verdicts.failed, verdicts.artifacts_changed) == (0, 1)


def test_self_time_on_a_hand_built_span_tree():
    spans = [
        Span(0, None, "run", 0.0, 10.0),
        Span(1, 0, "stage.a", 1.0, 4.0),
        Span(2, 1, "dump", 2.0, 3.0),  # grandchild: covered by its stage
        Span(3, 0, "stage.b", 5.0, 7.0),
        Span(4, 0, "dump", 8.0, 9.0),  # direct child, not a stage
        Span(5, None, "run", 20.0, 21.0),
    ]
    assert self_time(spans, "run", "stage.") == pytest.approx(10 - 3 - 2 + 1)
    assert self_time(spans, "run") == pytest.approx(10 - 3 - 2 - 1 + 1)
    assert self_time(spans, "stage.a") == pytest.approx(2.0)
    assert total_time(spans, "dump") == pytest.approx(2.0)


def test_nested_spans_of_one_name_count_once():
    spans = [
        Span(0, None, "tvalues", 0.0, 4.0),
        Span(1, 0, "tvalues", 1.0, 2.0),
    ]
    assert total_time(spans, "tvalues") == pytest.approx(4.0)


def traced_tiny_counts(tmp_path: Path) -> dict:
    tracer = Tracer()
    tiny_default_run(tmp_path, tracer)
    metrics = probes.layer_metrics(tracer.finished(), probes.counts_of(tracer))
    return {name: metrics[name] for name in probes.REPEATABLE_COUNTS}


def test_counts_repeat_exactly_between_two_runs(tmp_path):
    counts = [traced_tiny_counts(tmp_path / str(attempt)) for attempt in range(2)]
    assert counts[0] == counts[1]
    assert all(value > 0 for value in counts[0].values())


def test_a_result_count_off_the_reference_fails_a_format_count_is_reported(tmp_path):
    counts = traced_tiny_counts(tmp_path)
    session = run.Session("default_run", SEED, "tiny")
    reference = check.load_reference()
    assert run.Verdicts(session, reference).count_diffs(counts) == []

    changed = copy.deepcopy(reference)
    changed["tiny"]["default_run"]["counts"]["learners.forest.nodes_grown"] += 1
    changed["tiny"]["default_run"]["counts"]["core.bytes_written"] += 1
    verdicts = run.Verdicts(session, changed)
    failures = verdicts.count_diffs(counts)
    assert len(failures) == 1 and "nodes_grown" in failures[0]
    assert len(verdicts.messages) == 1 and "bytes_written" in verdicts.messages[0]


def test_traced_run_on_the_reference_seed_in_a_fresh_checkout(tmp_path):
    for name in ("src", "configs", "perfbench"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench(
        "--workload", "default_run", "--seed", str(SEED), "--seconds", "1",
        "--trace", "1", "--scale", "tiny", cwd=tmp_path, script=tmp_path / "perfbench" / "run.py",
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True


def test_probes_are_removed_after_the_traced_run(tmp_path):
    workloads.import_program()
    from affectpipe import pipeline
    from affectpipe.learners.forest import DecisionTree

    before = (pipeline.run_pipeline, DecisionTree.fit)
    tiny_default_run(tmp_path, Tracer())
    assert (pipeline.run_pipeline, DecisionTree.fit) == before


def test_fails_without_a_result_where_there_is_no_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "default_run", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
