"""Run orchestration: manifest digests, determinism, preflight, CLI codes."""

from __future__ import annotations

import csv
import hashlib
import importlib.util
import json
import os
import random
import re
import shutil
import subprocess
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import get_type_hints

import pytest

from affectpipe.cli import main
from affectpipe.core import default_schema, dump_json, read_json, to_json
from affectpipe.errors import ConfigError, InsufficientDataError, MissingInputError
from affectpipe.pipeline import STAGES, AnalyzeConfig, PipelineRun, RunConfig, file_digest, preflight, run_pipeline
from affectpipe.synth import CohortConfig, save_cohort_config

SYNTH_SECTION = {
    "n_participants": 3,
    "n_days": 90,
    "n_eligible": 2,
    "report_prob_eligible": 0.95,
    "report_prob_other": 0.30,
}


# Run configs that used to run on regardless, fail late or crash with a
# traceback, and the message each now fails with in preflight.
BAD_CONFIGS = (
    ({"label": {"targt": "na"}}, r"config\.label: unknown keys \['targt'\]"),
    ({"evaluate": {"stratified": "no"}}, r"evaluate\.stratified: expected bool"),
    ({"analyze": {"baseline_months": "2020-01"}}, r"analyze\.baseline_months: expected a list"),
    # months that matched no score, so tvalues.csv had no month column, and
    # one that was pooled twice
    ({"analyze": {"baseline_months": ["2020-13"]}}, r"analyze\.baseline_months: '2020-13' is not a YYYY-MM month"),
    ({"analyze": {"baseline_months": ["nope"]}}, r"analyze\.baseline_months: 'nope' is not a YYYY-MM month"),
    ({"analyze": {"baseline_months": [""]}}, r"analyze\.baseline_months: '' is not a YYYY-MM month"),
    ({"analyze": {"baseline_months": ["2020-01", "2020-01"]}}, r"analyze\.baseline_months: '2020-01' is listed twice"),
    ({"evaluate": {"folds": "3"}}, r"evaluate\.folds: expected int"),
    ({"eligibility": {"min_days": -1}}, r"eligibility\.min_days must be at least 0"),
    ({"eligibility": {"min_days": "x"}}, r"eligibility\.min_days: expected int"),
    ({"seed": "x"}, r"config\.seed: expected int"),
    ({"seed": True}, r"config\.seed: expected int"),
    ({"evaluate": [1]}, r"config\.evaluate: expected an object"),
    ({"label": None}, r"config\.label: expected an object"),
    ({"synth": [1]}, r"config\.synth: expected an object"),
    ({"out_dir": 5}, r"config\.out_dir: expected str"),
    ({"raw_dir": 5}, r"config\.raw_dir: expected str"),
    ({"raw_dir": "."}, r"synth section or raw_dir, and not both"),
    ({"label": {"middle_band": 1.5}}, r"label\.middle_band must be in \[0, 1\)"),
    ({"evaluate": {"folds": 1}}, r"evaluate\.folds must be at least 2"),
    ({"synth": {"n_dayz": 5}}, r"config\.synth: unknown keys \['n_dayz'\]"),
    ({"synth": {"config_path": 5}}, r"config\.synth\.config_path: expected str"),
    ({"synth": {"config_path": "x.json", "n_days": 40}}, r"config_path takes no other keys"),
    ({"evaluate": {"model": "knn", "hyperparameters": {"k": 0}}}, r"k must be at least 1"),
    ({"evaluate": {"model": "mlp", "hyperparameters": {"n_hidden": 0}}}, r"n_hidden must be at least 1"),
    ({"evaluate": {"model": "mlp", "hyperparameters": {"epochs": 0}}}, r"epochs must be at least 1"),
    ({"evaluate": {"model": "mlp", "hyperparameters": {"learning_rate": 0}}}, r"learning_rate must be positive"),
    ({"evaluate": {"model": "svm", "hyperparameters": {"C": 0}}}, r"C must be positive"),
    ({"evaluate": {"model": "svm", "hyperparameters": {"C": -1}}}, r"C must be positive"),
    ({"evaluate": {"model": "svm", "hyperparameters": {"epochs": 0}}}, r"epochs must be at least 1"),
    # stage lists a run cannot serve: a KeyError traceback, and two exits 0
    # with nan-filled or no artifacts
    ({"stages": ["synth", "ingest", "impute", "label", "analyze"]}, r"config\.stages: 'analyze' needs 'dataset'"),
    ({"stages": ["analyze"]}, r"config\.stages: 'analyze' needs 'label'"),
    ({"stages": []}, r"config\.stages: no stage to run"),
)


def run_config(out_dir, **overrides):
    cfg = {
        "seed": 7,
        "synth": dict(SYNTH_SECTION),
        "eligibility": {"min_days": 45},
        "impute": {"fallback": "participant-mean"},
        "evaluate": {"model": "knn", "hyperparameters": {"k": 5}, "folds": 4},
        "analyze": {"correlations": True, "tvalues": True},
    }
    cfg.update(overrides)
    path = Path(out_dir) / "run_config.json"
    dump_json(path, cfg)
    return path, cfg


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("pipeline")
    config_path, cfg = run_config(base)
    out = base / "out"
    manifest = run_pipeline(config_path, out_dir_override=out)
    return cfg, out, manifest


# ---------------------------------------------------------------------------
# artifacts and manifest


def test_all_stage_artifacts_exist(finished_run):
    _, out, manifest = finished_run
    assert manifest.stages == STAGES
    for rel in (
        "raw/ground_truth.json",
        "timelines/p01.json",
        "timelines/p03.json",
        "imputed/p01.json",
        "labels.json",
        "dataset.json",
        "report.json",
        "accuracy_table.csv",
        "roc_points.csv",
        "correlations.csv",
        "tvalues.csv",
        "analyze.json",
        "manifest.json",
    ):
        assert (out / rel).is_file(), rel


def test_manifest_digests_match_disk(finished_run):
    _, out, manifest = finished_run
    assert "manifest.json" not in manifest.outputs
    assert manifest.outputs  # non-empty
    for rel, digest in manifest.outputs.items():
        assert file_digest(out / rel) == digest, rel
    on_disk = {
        str(p.relative_to(out))
        for p in out.rglob("*")
        if p.is_file() and p.name != "manifest.json"
    }
    assert set(manifest.outputs) == on_disk


def test_manifest_digests_equal_sha256_of_whole_files(tmp_path):
    config_path, _ = run_config(tmp_path, stages=["synth", "ingest"])
    out = tmp_path / "out"
    out.mkdir()
    # A file the run finds in its directory is listed too; this one is
    # forty full 64 KiB read blocks.
    (out / "large.bin").write_bytes(os.urandom((5 << 20) // 2))
    outputs = run_pipeline(config_path, out_dir_override=out).outputs
    assert "large.bin" in outputs and "timelines/p01.json" in outputs
    for rel, digest in outputs.items():
        assert hashlib.sha256((out / rel).read_bytes()).hexdigest() == digest, rel


@pytest.mark.parametrize("size", [0, 1, 65_535, 65_536, 65_537, 3 << 20])
def test_file_digest_is_the_sha256_of_the_whole_file(tmp_path, size):
    path = tmp_path / "blob"
    path.write_bytes(random.Random(size).randbytes(size))
    assert file_digest(path) == hashlib.sha256(path.read_bytes()).hexdigest()


def test_the_run_keeps_only_the_eligible_timelines(tmp_path):
    _, cfg = run_config(tmp_path, evaluate={"model": "baseline", "folds": 4},
                        analyze={"correlations": True, "tvalues": False})
    out = tmp_path / "out"
    out.mkdir()
    run = PipelineRun(cfg, preflight(cfg), out, cfg["seed"])
    ingested = []
    for stage in run.config.stages_to_run():
        getattr(run, f"stage_{stage}")()
        if stage == "impute":
            ingested = [t.participant_id for t in run.timelines]
    assert ingested == ["p01", "p02", "p03"]
    assert [t.participant_id for t in run.timelines] == read_json(out / "labels.json")["eligible_ids"] == ["p01", "p02"]
    assert list(run.datasets) == ["p01", "p02"]


def test_run_id_is_config_hash_and_embedded_everywhere(finished_run):
    cfg, out, manifest = finished_run
    effective = dict(cfg)
    effective["seed"] = 7
    canon = json.dumps(effective, sort_keys=True, separators=(",", ":")).encode()
    assert manifest.run_id == hashlib.sha256(canon).hexdigest()[:16]
    config_canon = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    assert manifest.config_sha256 == hashlib.sha256(config_canon).hexdigest()
    for rel in manifest.outputs:
        if rel.endswith(".json"):
            assert read_json(out / rel)["run_id"] == manifest.run_id, rel
    saved = read_json(out / "manifest.json")
    assert saved["run_id"] == manifest.run_id
    assert saved["seed"] == 7
    assert saved["outputs"] == manifest.outputs


def test_only_eligible_participants_are_labeled(finished_run):
    _, out, _ = finished_run
    labels = read_json(out / "labels.json")
    assert labels["eligible_ids"] == ["p01", "p02"]
    report = read_json(out / "report.json")
    assert sorted(report["per_participant"]) == ["p01", "p02"]


# ---------------------------------------------------------------------------
# determinism and seed override


def test_identical_runs_differ_only_in_manifest(tmp_path):
    config_path, _ = run_config(tmp_path)
    m1 = run_pipeline(config_path, out_dir_override=tmp_path / "a")
    m2 = run_pipeline(config_path, out_dir_override=tmp_path / "b")
    assert m1.run_id == m2.run_id
    assert m1.outputs == m2.outputs
    for rel in m1.outputs:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


def test_seed_override_changes_run_id_and_data(tmp_path):
    config_path, _ = run_config(tmp_path)
    m1 = run_pipeline(config_path, out_dir_override=tmp_path / "a")
    m2 = run_pipeline(config_path, seed_override=8, out_dir_override=tmp_path / "b")
    assert m2.seed == 8
    assert m1.run_id != m2.run_id
    assert m1.outputs["report.json"] != m2.outputs["report.json"]


def test_compare_runs_lists_each_differing_artifact(tmp_path):
    script = Path(__file__).resolve().parent.parent / "scripts" / "compare_runs.py"
    outputs = {"a": {"x.json": "1", "y.csv": "2"}, "b": {"x.json": "1", "y.csv": "3", "z": "4"}}
    for run, digests in outputs.items():
        (tmp_path / run).mkdir()
        dump_json(tmp_path / run / "manifest.json", {"outputs": digests})

    def compare(a, b):
        done = subprocess.run([sys.executable, str(script), str(tmp_path / a), str(tmp_path / b)],
                              capture_output=True, text=True)
        return done.returncode, done.stdout.splitlines()

    assert compare("a", "a") == (0, ["2 artifacts identical"])
    assert compare("a", "b") == (1, ["differs: y.csv", "only in B: z"])


# Stands in for perfbench/run.py: logs its checkout and arguments, then
# prints a line of noise and the next canned result of its checkout.
FAKE_RUN = """
import json, sys
from pathlib import Path
here = Path.cwd()
with open(here.parent / "calls.log", "a") as log:
    log.write(here.name + " " + " ".join(sys.argv[1:]) + "\\n")
calls = sum(1 for line in open(here.parent / "calls.log") if line.startswith(here.name + " "))
print("workload demo")
print(json.dumps(json.loads((here / "canned.json").read_text())[calls - 1]))
"""


def test_ab_pairs_verdicts_follow_the_acceptance_rule():
    spec = importlib.util.spec_from_file_location(
        "ab_pairs", Path(__file__).resolve().parent.parent / "scripts" / "ab_pairs.py"
    )
    ab_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab_pairs)
    run_s = {"name": "run_s", "better": "lower", "bound": 0.25}
    accuracy = {"name": "acc", "better": "higher", "bound": 0.15}
    parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.3, 9.7, 10.0, 10.4, 9.6]
    # 10 of 10 wins, median gap 2.0 against the parent's q3 - q1 of 0.35
    assert ab_pairs.verdict(run_s, parent, [v - 2.0 for v in parent]).startswith(
        "run_s: gain (better in 10 of 10, median gap 2 above the parent's q3 - q1 0.35)"
    )
    # 9 of 10 wins is still a gain, 8 of 10 is not
    nine = [v - 2.0 for v in parent[:9]] + [parent[9] + 0.1]
    assert ab_pairs.verdict(run_s, parent, nine).startswith("run_s: gain (better in 9 of 10")
    eight = [v - 2.0 for v in parent[:8]] + [v + 0.1 for v in parent[8:]]
    assert ab_pairs.verdict(run_s, parent, eight) == "run_s: no regression (median better by 0.195, within the bound 0.25)"
    # every pair won, but by less than the parent's own spread
    assert ab_pairs.verdict(run_s, parent, [v - 0.1 for v in parent]).startswith("run_s: no regression")
    # worse by 30% of the parent's median is beyond the 0.25 bound
    assert ab_pairs.verdict(run_s, parent, [v * 1.3 for v in parent]).startswith(
        "run_s: regression (median worse by 0.3, above the bound 0.25)"
    )
    assert ab_pairs.verdict(run_s, parent, [v * 1.2 for v in parent]).startswith(
        "run_s: no regression (median worse by 0.2,"
    )
    # a side whose q3 - q1 is over a quarter of its median cannot be told
    wide = [6.0, 14.0, 8.0, 12.0, 10.0, 6.0, 14.0, 8.0, 12.0, 10.0]
    assert ab_pairs.verdict(run_s, parent, wide) == "run_s: unresolved (spread 0.4 above the bound 0.25)"
    # higher is better, and a constant metric
    assert ab_pairs.verdict(accuracy, [0.7] * 10, [0.7] * 10) == (
        "acc: no regression (median unchanged, within the bound 0.15)"
    )
    assert ab_pairs.verdict(accuracy, [0.7] * 10, [0.5] * 10).startswith("acc: regression")
    assert ab_pairs.verdict(accuracy, [0.7] * 10, [0.8] * 10).startswith("acc: gain (better in 10 of 10")


def test_ab_pairs_alternates_and_counts_wins(tmp_path):
    script = Path(__file__).resolve().parent.parent / "scripts" / "ab_pairs.py"
    spec = {
        "run_seconds": 20,
        "end_to_end": [
            {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25},
            {"name": "macro_accuracy", "unit": "fraction", "better": "higher", "bound": 0.15},
        ],
    }

    def result(run_s, accuracy=0.5, correct=True, failed=0):
        metrics = {"run_s": {"value": run_s, "unit": "s"},
                   "macro_accuracy": {"value": accuracy, "unit": "fraction"}}
        return {"correct": correct, "attempted": 3, "failed": failed, "metrics": metrics}

    def checkout(name, canned):
        root = tmp_path / name
        (root / "perfbench").mkdir(parents=True, exist_ok=True)
        (root / "perfbench" / "run.py").write_text(FAKE_RUN)
        (root / "BENCHMARK.json").write_text(json.dumps(spec))
        (root / "canned.json").write_text(json.dumps(canned))
        return root

    def ab(pairs):
        (tmp_path / "calls.log").unlink(missing_ok=True)
        done = subprocess.run(
            [sys.executable, str(script), "--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
             "--workload", "cohort_etl", "--seed", "7", "--pairs", str(pairs)],
            capture_output=True, text=True, timeout=60,
        )
        return done.returncode, done.stdout.splitlines()

    checkout("parent", [result(10.0), result(9.0), result(11.0, 0.4)])
    checkout("change", [result(8.0), result(9.0), result(7.0, 0.6)])
    code, out = ab(3)
    assert code == 0
    assert out == [
        "pair 1 (parent first): run_s 10/8  macro_accuracy 0.5/0.5",
        "pair 2 (change first): run_s 9/9  macro_accuracy 0.5/0.5",
        "pair 3 (parent first): run_s 11/7  macro_accuracy 0.4/0.6",
        "run_s (s, lower is better): parent median 10 [q1 9.5, q3 10.5]; "
        "change median 8 [q1 7.5, q3 8.5]; change better in 2 of 3",
        "run_s: no regression (median better by 0.2, within the bound 0.25)",
        "macro_accuracy (fraction, higher is better): parent median 0.5 [q1 0.45, q3 0.5]; "
        "change median 0.5 [q1 0.5, q3 0.55]; change better in 1 of 3",
        "macro_accuracy: no regression (median unchanged, within the bound 0.15)",
    ]
    calls = (tmp_path / "calls.log").read_text().splitlines()
    arguments = "--workload cohort_etl --seed 7 --seconds 20 --trace 0"
    assert calls == [f"{side} {arguments}" for side in ("parent", "change", "change", "parent", "parent", "change")]

    # an incorrect result or a failed run on either side is exit 1
    checkout("change", [result(8.0), result(9.0, correct=False), result(7.0)])
    code, out = ab(3)
    assert code == 1 and "pair 2 change: correct False, failed 0" in out
    checkout("change", [result(8.0, failed=1)])
    assert ab(1)[0] == 1
    # different benchmarks are not compared
    (tmp_path / "change" / "perfbench" / "run.py").write_text(FAKE_RUN + "\n")
    assert ab(1) == (2, [])


def test_stage_peaks_prints_each_stage_that_ran(tmp_path):
    script = Path(__file__).resolve().parent.parent / "scripts" / "stage_peaks.py"
    tiny = {"synth": dict(SYNTH_SECTION, n_days=70), "eligibility": {"min_days": 40},
            "evaluate": {"model": "rf", "hyperparameters": {"n_trees": 3}, "folds": 3}}
    for stages in (["synth", "ingest", "impute", "label", "dataset"], list(STAGES)):
        config_path, _ = run_config(tmp_path, stages=stages, **tiny)
        done = subprocess.run([sys.executable, str(script), str(config_path), "--seed", "3"],
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        lines = [line.split() for line in done.stdout.splitlines()]
        assert lines[0] == ["stage", "wall_s", "peak_rss_mb"]
        assert [line[0] for line in lines[1:]] == ["start", *stages, "manifest", "total"]
        peaks = [float(line[2]) for line in lines[1:]]
        assert peaks == sorted(peaks) and peaks[0] > 0
        assert list(tmp_path.iterdir()) == [config_path]


# ---------------------------------------------------------------------------
# preflight


def test_preflight_rejects_unknown_keys_before_output(tmp_path):
    config_path, _ = run_config(tmp_path, bogus=1)
    out = tmp_path / "never"
    with pytest.raises(ConfigError, match="bogus"):
        run_pipeline(config_path, out_dir_override=out)
    assert not out.exists()


def assert_cohort_key_exits_2_before_any_output(tmp_path, capsys, key, cohort_changes):
    """synth and run refuse a cohort config with `key`, from a synth section
    or from config_path, with one line and no output."""
    cohort = tmp_path / "cohort.json"
    dump_json(cohort, dict(SYNTH_SECTION, shift=None, **cohort_changes))
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    inline, _ = run_config(tmp_path / "a", synth=read_json(cohort))
    by_path, _ = run_config(tmp_path / "b", synth={"config_path": str(cohort)})
    out = tmp_path / "out"
    for argv, where in (
        (["synth", "--config", str(cohort)], "cohort config"),
        (["run", "--config", str(inline)], "config.synth"),
        (["run", "--config", str(by_path)], str(cohort)),
    ):
        capsys.readouterr()
        assert main([*argv, "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {where}: unknown keys [{key!r}]\n"
        assert not out.exists()


def test_a_cohort_config_with_polarity_exits_2_before_any_output(tmp_path, capsys):
    """The survey items are fixed.  A cohort config that set its own
    polarity used to synthesise (exit 0) and then fail its run at ingest
    (exit 4)."""
    polarity = {"positive": [f"p{i}" for i in range(10)], "negative": [f"n{i}" for i in range(10)]}
    assert_cohort_key_exits_2_before_any_output(
        tmp_path, capsys, "polarity", dict(n_participants=2, n_days=30, n_eligible=1, polarity=polarity)
    )


def test_a_cohort_config_with_a_schema_exits_2_before_any_output(tmp_path, capsys):
    """A run reads default_schema().  A cohort config that set its own
    feature schema used to synthesise, ingest, impute and label, and then
    fail its run at the dataset stage (exit 6) with every row dropped."""
    weights = {"sleep_deep": 0.55, "walk_steps": 0.45, "main_activity": 0.30}
    schema = to_json(default_schema())
    schema["entries"] = [e for e in schema["entries"] if e["id"] in weights]
    signal = {"pa_weights": weights, "na_weights": {fid: -0.6 * w for fid, w in weights.items()}}
    assert_cohort_key_exits_2_before_any_output(
        tmp_path, capsys, "schema", dict(n_participants=2, n_days=60, n_eligible=2, schema=schema, signal=signal)
    )


def assert_evaluate_section_exits_2_before_any_output(tmp_path, capsys, evaluate, message):
    """run refuses a config with this evaluate section with one line and no output."""
    config_path, _ = run_config(tmp_path, synth=dict(SYNTH_SECTION, n_days=70), evaluate=evaluate)
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["run", "--config", str(config_path), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_tune_with_hyperparameters_exits_2_before_any_output(tmp_path, capsys):
    """Tuning takes every hyperparameter from the family's grid.  Given
    values used to pass and then be ignored: a tuned rf section with
    n_trees 3 fitted 100-tree forests."""
    assert_evaluate_section_exits_2_before_any_output(
        tmp_path, capsys, {"model": "rf", "tune": True, "hyperparameters": {"n_trees": 3, "max_depth": 2}},
        "evaluate.hyperparameters: a tuned section takes none (evaluate.tune picks them)",
    )
    preflight({"synth": {}, "evaluate": {"model": "rf", "tune": True, "hyperparameters": {}}})


def test_an_empty_modality_subset_exits_2_before_any_output(tmp_path, capsys):
    """An empty subset, or an ablation with no subsets, used to pass and end
    the run at the evaluate stage (exit 5) after its other files were written."""
    for evaluate, message in (
        ({"ablation": True, "subsets": {"none": []}}, "evaluate.subsets: subset 'none' has no modalities"),
        ({"subsets": {"ring": ["ring"], "none": []}}, "evaluate.subsets: subset 'none' has no modalities"),
        ({"ablation": True, "subsets": {}}, "evaluate.subsets: ablation needs at least one subset"),
    ):
        assert_evaluate_section_exits_2_before_any_output(tmp_path, capsys, evaluate, message)
    preflight({"synth": {}, "evaluate": {"subsets": {}}})


def test_preflight_rejects_unknown_stage_and_model():
    with pytest.raises(ConfigError, match="stage"):
        preflight({"synth": {}, "stages": ["synth", "deploy"]})
    for model in ("xgboost", ["rf"]):
        with pytest.raises(ConfigError, match="model"):
            preflight({"synth": {}, "evaluate": {"model": model}})
    for target in ("bogus", "item:", 5, "item:bogus"):
        with pytest.raises(ConfigError, match="target"):
            preflight({"synth": {}, "label": {"target": target}})
    for section in (
        {"dataset": {"modalities": ["bogus"]}},
        {"dataset": {"modalities": "ring"}},
        {"evaluate": {"ablation": True, "subsets": {"all": ["ring", "bogus"]}}},
    ):
        with pytest.raises(ConfigError, match="modalities"):
            preflight({"synth": {}, **section})
    with pytest.raises(ConfigError, match="subsets"):
        preflight({"synth": {}, "evaluate": {"subsets": ["ring"]}})
    for section in ("impute", "dataset"):
        with pytest.raises(ConfigError, match=f"{section}.fallback"):
            preflight({"synth": {}, section: {"fallback": "participant_mean"}})
    for hyperparameters, message in (
        ({"max_features": "bogus"}, "max_features"),
        ({"max_features": -1}, "max_features"),
        ({"max_features": 0}, "max_features"),
        ({"n_trees": 0}, "n_trees"),
        ({"max_depth": 0}, "max_depth"),
        ({"n_trees": "100"}, "n_trees"),
        ({"bogus": 1}, "bogus"),
        ([1], "hyperparameters"),
    ):
        with pytest.raises(ConfigError, match=message):
            preflight({"synth": {}, "evaluate": {"hyperparameters": hyperparameters}})
    with pytest.raises(ConfigError, match="hyperparameters.k"):
        preflight({"synth": {}, "evaluate": {"model": "knn", "hyperparameters": {"k": "x"}}})
    for fragment, message in BAD_CONFIGS:
        with pytest.raises(ConfigError, match=message):
            preflight({"synth": {}, **fragment})
    with pytest.raises(ConfigError, match="synth section or raw_dir"):
        preflight({})


def test_baseline_months_are_distinct_calendar_months():
    for months in (None, [], ["2020-01"], ["2021-12", "2020-01", "0000-10"]):
        assert AnalyzeConfig(baseline_months=months).baseline_months == months
        assert preflight({"synth": {}, "analyze": {"baseline_months": months}}).analyze.baseline_months == months
    for month in ("2020-00", "2020-1", "20-01", "2020-01-01", " 2020-01", "2020_01", "２０２０-01"):
        with pytest.raises(ConfigError, match=f"'{month}' is not a YYYY-MM month"):
            AnalyzeConfig(baseline_months=[month])


@pytest.mark.parametrize("months, message", [
    ("2020-13", "'2020-13' is not a YYYY-MM month"),
    ("nope", "'nope' is not a YYYY-MM month"),
    ("2020-01,", "'' is not a YYYY-MM month"),
    ("2020-01,2020-02,2020-01", "'2020-01' is listed twice"),
])
def test_cli_tvalues_refuses_a_bad_baseline_month_before_reading_input(tmp_path, capsys, months, message):
    out = tmp_path / "tvalues.csv"
    argv = ["analyze", "tvalues", "--model", str(tmp_path / "no_model.json"), "--in", str(tmp_path / "no.json"),
            "--baseline-months", months, "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: analyze.baseline_months: {message}\n"
    assert not out.exists()


def test_preflight_refuses_every_stage_list_a_run_cannot_serve(tmp_path):
    """All 128 subsets of the stages, checked by preflight alone: a list is
    accepted when it runs something and every stage in it has the stages
    it reads from."""

    def serviceable(to_run, needs):
        return bool(to_run) and all(needs.get(stage, set()) <= to_run for stage in to_run)

    synth_needs = {"ingest": {"synth"}, "impute": {"ingest"}, "label": {"ingest"}, "dataset": {"label"},
                   "evaluate": {"dataset"}, "analyze": {"label", "dataset"}}
    variants = (
        ({"synth": {}}, synth_needs, 13),
        # a raw_dir run skips synth and ingests what is there
        ({"raw_dir": str(tmp_path)}, {**synth_needs, "ingest": set()}, 2 * 12),
        # without t-values, analyze reads only the labels
        ({"synth": {}, "analyze": {"tvalues": False}}, {**synth_needs, "analyze": {"label"}}, 15),
    )
    for base, needs, n_accepted in variants:
        accepted = 0
        for mask in range(2 ** len(STAGES)):
            stages = [s for i, s in enumerate(STAGES) if mask >> i & 1]
            to_run = set(stages) - ({"synth"} if "raw_dir" in base else set())
            if serviceable(to_run, needs):
                assert preflight({**base, "stages": stages}).stages_to_run() == tuple(s for s in STAGES if s in to_run)
                accepted += 1
            else:
                with pytest.raises(ConfigError, match=r"^config\.stages: [^\n]+$"):
                    preflight({**base, "stages": stages})
        assert accepted == n_accepted


def test_every_stage_list_preflight_accepts_runs(tmp_path, capsys):
    """Each of the 13 lists preflight accepts with a synth section runs to
    exit 0 on a tiny cohort, and a refused list exits 2 before any output."""
    overrides = {
        "synth": dict(SYNTH_SECTION, n_days=70),
        "evaluate": {"model": "rf", "hyperparameters": {"n_trees": 3}, "folds": 3},
    }
    config_path, cfg = run_config(tmp_path, **overrides)
    accepted = 0
    for mask in range(2 ** len(STAGES)):
        stages = [s for i, s in enumerate(STAGES) if mask >> i & 1]
        try:
            preflight({**cfg, "stages": stages})
        except ConfigError:
            continue
        dump_json(config_path, {**cfg, "stages": stages})
        out = tmp_path / f"run_{mask}"
        assert main(["run", "--config", str(config_path), "--out-dir", str(out)]) == 0, stages
        assert (out / "manifest.json").exists()
        accepted += 1
    assert accepted == 13
    for stages in (["synth", "ingest", "impute", "label", "analyze"], ["analyze"], []):
        dump_json(config_path, {**cfg, "stages": stages})
        out = tmp_path / "refused"
        capsys.readouterr()
        assert main(["run", "--config", str(config_path), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: config.stages: ")
        assert not out.exists()


def test_preflight_requires_existing_inputs(tmp_path):
    with pytest.raises(MissingInputError):
        preflight({"synth": {"config_path": str(tmp_path / "nope.json")}})
    with pytest.raises(MissingInputError):
        preflight({"raw_dir": str(tmp_path / "nodir")})


def test_stage_errors_carry_the_stage_name(tmp_path, capsys):
    config_path, _ = run_config(tmp_path, eligibility={"min_days": 10000})
    with pytest.raises(InsufficientDataError, match="stage label:"):
        run_pipeline(config_path, out_dir_override=tmp_path / "out")
    # nobody eligible is insufficient data
    capsys.readouterr()
    assert main(["run", "--config", str(config_path), "--out-dir", str(tmp_path / "cli")]) == 6
    assert capsys.readouterr().err == "error: stage label: no participant exceeds 10000 valid affect days\n"


def test_report_names_the_configured_modalities(tmp_path):
    config_path, _ = run_config(
        tmp_path, dataset={"modalities": ["ring"]}, stages=list(STAGES[:-1])
    )
    out = tmp_path / "out"
    run_pipeline(config_path, out_dir_override=out)
    report = read_json(out / "report.json")
    assert report["per_participant"]
    for r in report["per_participant"].values():
        assert r["modalities"] == ["ring"]
    with (out / "accuracy_table.csv").open(newline="") as handle:
        assert {row["modalities"] for row in csv.DictReader(handle)} == {"ring"}


# ---------------------------------------------------------------------------
# stage subsets and pre-generated raw data


def test_stage_subset_runs_only_requested_stages(tmp_path):
    config_path, _ = run_config(tmp_path, stages=["synth", "ingest"])
    out = tmp_path / "out"
    manifest = run_pipeline(config_path, out_dir_override=out)
    assert manifest.stages == ("synth", "ingest")
    assert (out / "timelines" / "p01.json").is_file()
    assert not (out / "labels.json").exists()
    assert not (out / "report.json").exists()


def test_raw_dir_mode_skips_synthesis(tmp_path):
    from affectpipe.synth import write_cohort

    raw = tmp_path / "raw"
    write_cohort(
        CohortConfig(
            n_participants=3,
            n_days=90,
            n_eligible=2,
            report_prob_eligible=0.95,
            report_prob_other=0.30,
            shift=None,
            seed=7,
        ),
        raw,
    )
    cfg = {
        "seed": 7,
        "raw_dir": str(raw),
        "eligibility": {"min_days": 45},
        "impute": {"fallback": "participant-mean"},
        "evaluate": {"model": "knn", "hyperparameters": {"k": 5}, "folds": 4},
        "analyze": {"correlations": True, "tvalues": False},
    }
    config_path = tmp_path / "cfg.json"
    dump_json(config_path, cfg)
    manifest = run_pipeline(config_path, out_dir_override=tmp_path / "out")
    assert "synth" not in manifest.stages
    assert manifest.stages[0] == "ingest"
    assert "report.json" in manifest.outputs


# ---------------------------------------------------------------------------
# command line


@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    """Raw cohort plus the artifact chain the subcommands build from it."""
    base = tmp_path_factory.mktemp("cli")
    cohort = CohortConfig(
        n_participants=2,
        n_days=70,
        n_eligible=2,
        report_prob_eligible=0.95,
        report_prob_other=0.95,
        shift=None,
        seed=21,
    )
    cfg_path = base / "cohort.json"
    save_cohort_config(cfg_path, cohort)
    return base, cfg_path


def test_cli_chain_end_to_end(cli_workspace, capsys):
    base, cfg_path = cli_workspace
    raw = base / "raw"
    assert main(["synth", "--config", str(cfg_path), "--out-dir", str(raw)]) == 0
    assert "wrote cohort of 2 participants" in capsys.readouterr().out

    timelines = []
    for pid in ("p01", "p02"):
        tl = base / f"{pid}.json"
        code = main(
            [
                "ingest",
                "--participant", pid,
                "--ring", str(raw / f"{pid}_ring.csv"),
                "--watch", str(raw / f"{pid}_watch.csv"),
                "--phone", str(raw / f"{pid}_phone.csv"),
                "--affect", str(raw / f"{pid}_affect.csv"),
                "--out", str(tl),
            ]
        )
        assert code == 0
        imputed = base / f"{pid}_imputed.json"
        assert main(
            ["impute", "--in", str(tl), "--out", str(imputed), "--fallback", "participant-mean"]
        ) == 0
        timelines.append(str(imputed))

    labels = base / "labels.json"
    assert main(["label", "--in", *timelines, "--target", "pa", "--out", str(labels)]) == 0
    assert "wrote" in capsys.readouterr().out

    dataset = base / "dataset.json"
    assert main(
        ["dataset", "--in", *timelines, "--labels", str(labels), "--out", str(dataset)]
    ) == 0

    model = base / "model.json"
    assert main(
        ["train", "--data", str(dataset), "--model", "knn", "--tune", "--out", str(model)]
    ) == 0

    report = base / "report.json"
    assert main(
        ["evaluate", "--data", str(dataset), "--model", "knn", "--folds", "4",
         "--out", str(report)]
    ) == 0
    out = capsys.readouterr().out
    assert "mean accuracy" in out and "AUC" in out and "vs reference" not in out
    assert report.with_suffix(".roc.csv").is_file()
    assert report.with_suffix(".accuracy.csv").is_file()

    corr = base / "corr.csv"
    assert main(["analyze", "corr", "--in", *timelines, "--out", str(corr)]) == 0
    assert corr.is_file()

    tv = base / "tvalues.csv"
    assert main(
        ["analyze", "tvalues", "--model", str(model), "--in", *timelines, "--out", str(tv)]
    ) == 0
    lines = tv.read_text().splitlines()
    header = lines[0].split(",")
    assert header[0] == "participant_id"
    assert "2020-01" in header and "2020-02" in header
    assert [line.split(",")[0] for line in lines[1:]] == ["p01", "p02", "pooled"]

    # one timeline still gets a pooled row, equal to its own
    tv_one = base / "tvalues_one.csv"
    assert main(
        ["analyze", "tvalues", "--model", str(model), "--in", timelines[0], "--out", str(tv_one)]
    ) == 0
    own, pooled = (line.split(",") for line in tv_one.read_text().splitlines()[1:])
    assert own[0] == "p01" and pooled[0] == "pooled"
    assert own[1:] == pooled[1:]


def test_cli_chain_writes_what_the_run_writes(tmp_path):
    """The subcommands run the run's stage steps: on one raw cohort, with the
    same sections, they write the same timelines, labels, dataset and
    correlations."""
    from affectpipe.synth import write_cohort

    raw, run, cli = tmp_path / "raw", tmp_path / "run", tmp_path / "cli"
    cohort = CohortConfig(n_participants=2, n_days=70, n_eligible=1, shift=None, seed=5)
    write_cohort(cohort, raw)
    config_path = tmp_path / "run.json"
    dump_json(config_path, {
        "raw_dir": str(raw),
        "stages": ["ingest", "impute", "label", "dataset", "analyze"],
        "eligibility": {"min_days": 0},
        "impute": {"fallback": "participant-mean"},
        "label": {"target": "na", "pooled": True, "middle_band": 0.3, "same_day": True},
        "dataset": {"fallback": "participant-mean", "modalities": ["ring", "phone"]},
        "analyze": {"correlations": True, "tvalues": False},
    })
    assert main(["run", "--config", str(config_path), "--out-dir", str(run)]) == 0

    cli.mkdir()
    pids = ("p01", "p02")
    for pid in pids:
        files = [f"--{name}={raw / f'{pid}_{name}.csv'}" for name in ("ring", "watch", "phone", "affect")]
        assert main(["ingest", "--participant", pid, *files, "--out", str(cli / f"{pid}.json")]) == 0
        assert main(["impute", "--in", str(cli / f"{pid}.json"), "--fallback", "participant-mean",
                     "--out", str(cli / f"{pid}_imputed.json")]) == 0
    imputed = [str(cli / f"{pid}_imputed.json") for pid in pids]
    assert main(["label", "--in", *imputed, "--target", "na", "--pooled", "--middle-band", "0.3", "--same-day",
                 "--out", str(cli / "labels.json")]) == 0
    assert main(["dataset", "--in", *imputed, "--labels", str(cli / "labels.json"), "--fallback", "participant-mean",
                 "--modalities", "ring,phone", "--out", str(cli / "dataset.json")]) == 0
    assert main(["analyze", "corr", "--in", *imputed, "--same-day", "--out", str(cli / "correlations.csv")]) == 0

    def document(path, *run_only):
        doc = read_json(path)
        for key in ("run_id", *run_only):
            del doc[key]
        return doc

    for pid in pids:
        assert document(run / "timelines" / f"{pid}.json") == read_json(cli / f"{pid}.json")
        assert document(run / "imputed" / f"{pid}.json") == read_json(cli / f"{pid}_imputed.json")
    labels = document(run / "labels.json", "eligibility_min_days", "eligible_ids")
    assert [p["participant_id"] for p in labels["participants"]] == list(pids)
    assert labels == read_json(cli / "labels.json")
    assert document(run / "dataset.json") == read_json(cli / "dataset.json")
    assert (run / "correlations.csv").read_bytes() == (cli / "correlations.csv").read_bytes()


def write_ramp_inputs(tmp_path):
    """Timeline whose day-4 heart_rate is missing, its pa labels, and a
    schema file for its four features."""
    from affectpipe.core import save_timeline, to_json
    from conftest import TINY_SCHEMA, make_timeline

    rows = [
        {"sleep_deep": float(i), "heart_rate": 60.0, "walk_steps": 100.0, "main_activity": 0.5}
        for i in range(14)
    ]
    rows[4] = dict(rows[4], heart_rate=None)
    timeline = tmp_path / "p01.json"
    save_timeline(
        timeline,
        make_timeline("p01", rows, affect_by_index={i: (float(5 * i), 20.0) for i in range(14)}),
    )
    schema = tmp_path / "schema.json"
    dump_json(schema, to_json(TINY_SCHEMA))
    labels = tmp_path / "labels.json"
    assert main(["label", "--in", str(timeline), "--target", "pa", "--out", str(labels)]) == 0
    return timeline, labels, schema


def test_cli_dataset_participant_mean_fallback(tmp_path):
    from affectpipe.labels import load_dataset

    timeline, labels, schema = write_ramp_inputs(tmp_path)
    n_rows = {}
    for fallback in ("drop", "participant-mean"):
        out = tmp_path / f"{fallback}.json"
        assert main(
            ["dataset", "--in", str(timeline), "--labels", str(labels), "--schema", str(schema),
             "--fallback", fallback, "--out", str(out)]
        ) == 0
        n_rows[fallback] = load_dataset(out).n_rows
    # the row fed by the day with missing heart_rate is filled, not dropped
    assert n_rows["participant-mean"] == n_rows["drop"] + 1


def test_cli_evaluate_names_the_dataset_modalities(tmp_path):
    timeline, labels, schema = write_ramp_inputs(tmp_path)
    dataset = tmp_path / "ring.json"
    assert main(
        ["dataset", "--in", str(timeline), "--labels", str(labels), "--schema", str(schema),
         "--modalities", "ring", "--out", str(dataset)]
    ) == 0
    report = tmp_path / "report.json"
    assert main(
        ["evaluate", "--data", str(dataset), "--model", "knn", "--folds", "2",
         "--stratified", "--out", str(report)]
    ) == 0
    assert read_json(report)["modalities"] == ["ring"]
    with report.with_suffix(".accuracy.csv").open(newline="") as handle:
        assert [row["modalities"] for row in csv.DictReader(handle)] == ["ring"]


def test_cli_run_subcommand(tmp_path, capsys):
    config_path, _ = run_config(
        tmp_path, analyze={"correlations": True, "tvalues": False}
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out-dir", str(out)]) == 0
    assert "complete" in capsys.readouterr().out
    assert (out / "manifest.json").is_file()


def test_stratified_ablation_uses_the_main_reports_folds(tmp_path):
    """With evaluate.stratified on, each participant's `all` subset is
    cross-validated on the main report's folds, and so scores the same."""
    evaluate = {"model": "knn", "hyperparameters": {"k": 5}, "folds": 4, "stratified": True, "ablation": True}
    config_path, _ = run_config(tmp_path, evaluate=evaluate, stages=list(STAGES[:-1]))
    out = tmp_path / "out"
    run_pipeline(config_path, out_dir_override=out)
    report = read_json(out / "report.json")
    assert report["per_participant"]
    for pid, main_report in report["per_participant"].items():
        every = report["ablation"][pid]["all"]
        assert every["fold_hash"] == main_report["fold_hash"]
        assert every["mean_accuracy"] == main_report["mean_accuracy"]


def test_cli_ingest_of_affect_alone_keeps_the_participant(tmp_path):
    from affectpipe.core import load_timeline

    affect = tmp_path / "affect.csv"
    affect.write_text("date,item_id,rating\n2020-03-01,proud,50\n")
    out = tmp_path / "t.json"
    assert main(["ingest", "--participant", "p01", "--affect", str(affect), "--out", str(out)]) == 0
    assert load_timeline(out).participant_id == "p01"


def test_cli_train_and_evaluate_refuse_a_negative_seed(tmp_path, capsys):
    ds = save_four_row_dataset(tmp_path / "ds.json", [1, 0, 1, 0])
    out = tmp_path / "o.json"
    for command in ("train", "evaluate"):
        capsys.readouterr()
        assert main([command, "--data", str(ds), "--model", "knn", "--seed", "-1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: seed must be at least 0, got -1\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ds.json"]


def save_four_row_dataset(path, y):
    """A one-feature dataset of four days labelled ``y``, saved to ``path``."""
    from datetime import timedelta

    import numpy as np

    from affectpipe.labels import Dataset, TargetSpec, save_dataset
    from conftest import D0

    save_dataset(path, Dataset(
        feature_ids=("f0",),
        X=np.array([[0.0], [1.0], [2.0], [3.0]]),
        y=np.array(y, dtype=np.int8),
        dates=tuple(D0 + timedelta(days=i) for i in range(4)),
        participant_ids=("p",) * 4,
        target=TargetSpec(kind="pa"),
    ))
    return path


def test_cli_exit_codes(tmp_path, capsys):
    # 3: input file does not exist
    assert main(["impute", "--in", str(tmp_path / "nope.json"), "--out", str(tmp_path / "x")]) == 3
    # 2: bad target name (timeline itself is valid)
    from affectpipe.core import save_timeline
    from conftest import make_timeline

    tl = tmp_path / "tl.json"
    rows = [{"sleep_deep": 30.0, "heart_rate": 60.0, "walk_steps": 10.0, "main_activity": 0.5}] * 14
    save_timeline(tl, make_timeline("p01", rows, affect_by_index={i: (float(5 * i), 20.0) for i in range(14)}))
    assert main(["label", "--in", str(tl), "--target", "bogus", "--out", str(tmp_path / "l")]) == 2
    assert main(["label", "--in", str(tl), "--target", "item:bogus", "--out", str(tmp_path / "l")]) == 2
    # 2: a value a run config refuses, with the message naming its key
    ds = save_four_row_dataset(tmp_path / "ds.json", [1, 0, 1, 0])
    label = ["label", "--in", str(tl), "--target", "pa", "--middle-band"]
    for argv, message in (
        ([*label, "1.5"], "label.middle_band must be in [0, 1), got 1.5"),
        ([*label, "-0.5"], "label.middle_band must be in [0, 1), got -0.5"),
        (["evaluate", "--data", str(ds), "--model", "knn", "--folds", "1"], "evaluate.folds must be at least 2, got 1"),
    ):
        capsys.readouterr()
        assert main([*argv, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    # 2: unknown modality, named before any input is read
    assert main(
        ["dataset", "--in", str(tl), "--labels", str(tmp_path / "nope.json"),
         "--modalities", "ring,bogus", "--out", str(tmp_path / "d")]
    ) == 2
    # 4: malformed CSV
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,header\n1,2,3\n")
    assert main(
        ["ingest", "--participant", "p01", "--ring", str(bad), "--out", str(tmp_path / "t")]
    ) == 4
    # 4: a raw CSV that is not UTF-8, or whose field csv.reader refuses as too
    # long, is one error line naming the file
    affect = tmp_path / "affect.csv"
    affect.write_text("date,item_id,rating\n2020-03-01,proud,50\n")
    not_utf8 = tmp_path / "not_utf8.csv"
    not_utf8.write_bytes(b"date,feature_id,value,duration_min\n2020-03-01,heart_rate,6\xff,5\n")
    long_id = tmp_path / "long_id.csv"
    long_id.write_text(f"date,feature_id,value,duration_min\n2020-03-01,{'x' * 140_000},6,5\n")
    affect_not_utf8 = tmp_path / "affect_not_utf8.csv"
    affect_not_utf8.write_bytes(b"date,item_id,rating\n2020-03-01,proud,5\xff\n")
    for named, args in (
        (not_utf8, ["--ring", str(not_utf8), "--affect", str(affect)]),
        (long_id, ["--ring", str(long_id), "--affect", str(affect)]),
        (affect_not_utf8, ["--affect", str(affect_not_utf8)]),
    ):
        capsys.readouterr()
        assert main(["ingest", "--participant", "p01", *args, "--out", str(tmp_path / "t")]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"error: {named}") and err.count("\n") == 1, err
    # 2: pipeline run with an unknown config key
    cfg = tmp_path / "cfg.json"
    dump_json(cfg, {"bogus": 1, "synth": dict(SYNTH_SECTION)})
    assert main(["run", "--config", str(cfg)]) == 2
    # 2: a bad name in a nested section, before any output exists
    for section in (
        {"label": {"target": "item:bogus"}},
        {"dataset": {"modalities": ["bogus"]}},
        {"evaluate": {"ablation": True, "subsets": {"x": ["bogus"]}}},
        {"evaluate": {"hyperparameters": {"n_trees": 3, "max_features": "bogus"}}},
        {"evaluate": {"hyperparameters": {"max_features": 0}}},
        {"evaluate": {"hyperparameters": {"n_trees": 0}}},
    ):
        run_out = tmp_path / "run_out"
        dump_json(cfg, {"synth": dict(SYNTH_SECTION), **section})
        assert main(["run", "--config", str(cfg), "--out-dir", str(run_out)]) == 2
        assert not run_out.exists()
    # 2: each bad config, with one error line and no output
    for fragment, _ in BAD_CONFIGS:
        capsys.readouterr()
        dump_json(cfg, {"synth": dict(SYNTH_SECTION), **fragment})
        assert main(["run", "--config", str(cfg), "--out-dir", str(run_out)]) == 2
        assert not run_out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
    # 2: an output path that cannot be written, before any output exists
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    cohort = tmp_path / "cohort.json"
    dump_json(cohort, {"n_participants": 2})
    assert main(["synth", "--config", str(cohort), "--out-dir", str(a_file)]) == 2
    assert main(["synth", "--config", str(cohort), "--out-dir", str(a_file / "sub")]) == 2
    assert main(["impute", "--in", str(tl), "--out", str(tmp_path / "nodir" / "x.json")]) == 2
    assert main(["impute", "--in", str(tl), "--out", str(tmp_path)]) == 2
    dump_json(cfg, {"synth": dict(SYNTH_SECTION), "out_dir": str(a_file)})
    assert main(["run", "--config", str(cfg)]) == 2
    assert a_file.read_text() == ""
    assert not (tmp_path / "nodir").exists()
    err = capsys.readouterr().err
    assert "error:" in err


def test_non_finite_timeline_value_is_one_error_line(tmp_path, capsys, monkeypatch):
    import numpy as np

    from affectpipe import pipeline
    from affectpipe.core import save_timeline
    from conftest import make_timeline

    rows = [{"sleep_deep": 30.0, "heart_rate": 60.0}] * 3
    tl = tmp_path / "tl.json"
    save_timeline(tl, make_timeline("p01", rows))
    planted = make_timeline("p01", rows)
    planted.values[1, 0] = np.nan  # measured, after the timeline checked itself
    monkeypatch.setattr(pipeline, "impute_all", lambda timeline: planted)
    capsys.readouterr()
    assert main(["impute", "--in", str(tl), "--out", str(tmp_path / "out.json")]) == 1
    err = capsys.readouterr().err
    assert err == "error: timeline p01: 2020-01-02 'sleep_deep': nan is not a finite number\n"
    assert not (tmp_path / "out.json").exists()


def remove_day(doc):
    del doc["days"][3]


def alter_date(doc):
    doc["days"][3]["date"] = doc["days"][4]["date"]


def add_day(doc):
    doc["days"].append(doc["days"][-1])


@pytest.mark.parametrize("change, where", [
    (remove_day, "day 4 is not 2020-01-04 as written"),
    (alter_date, "day 4 is not 2020-01-04 as written"),
    (add_day, "more days than its 90"),
])
def test_impute_refuses_an_ingested_document_changed_after_ingest(tmp_path, capsys, monkeypatch, change, where):
    from affectpipe.pipeline import PipelineRun

    ingest = PipelineRun.stage_ingest

    def ingest_then_change(run):
        ingest(run)
        path = run.out_dir / "timelines" / "p01.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        change(doc)
        path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n", encoding="utf-8")

    monkeypatch.setattr(PipelineRun, "stage_ingest", ingest_then_change)
    config, _ = run_config(tmp_path, stages=["synth", "ingest", "impute"])
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["run", "--config", str(config), "--out-dir", str(out)]) == 1
    document = out / "timelines" / "p01.json"
    err = capsys.readouterr().err
    assert err == f"error: stage impute: {document}: not the document of timeline p01 as ingested: {where}\n"
    assert list((out / "imputed").iterdir()) == []


def test_cli_insufficient_data_exit_code(tmp_path, capsys):
    # one positive row cannot be split into two folds even after reseeding
    path = save_four_row_dataset(tmp_path / "ds.json", [1, 0, 0, 0])
    code = main(
        ["evaluate", "--data", str(path), "--model", "knn", "--folds", "2",
         "--out", str(tmp_path / "r.json")]
    )
    assert code == 6
    assert "resample" in capsys.readouterr().err


def test_cli_schema_error_exit_code(tmp_path):
    path = save_four_row_dataset(tmp_path / "ds.json", [1, 0, 1, 0])
    payload = read_json(path)
    payload["rows"][0]["label"] = 2
    dump_json(path, payload)
    code = main(
        ["evaluate", "--data", str(path), "--model", "knn", "--folds", "2",
         "--out", str(tmp_path / "r.json")]
    )
    assert code == 5


REPO_ROOT = Path(__file__).resolve().parents[1]

def test_readme_lists_every_run_config_key():
    """The README's run-config table names each RunConfig field, section by
    section, and nothing else."""
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    table = text.split("\n## Run config\n", 1)[1].split("\n## ", 1)[0]
    listed: dict[str, set[str]] = {}
    for key in re.findall(r"^\| `([a-z_.]+)` \|", table, re.M):
        section, _, name = key.rpartition(".")
        listed.setdefault(section, set()).add(name)
    declared: dict[str, set[str]] = {"": set()}
    for name, tp in get_type_hints(RunConfig).items():
        if is_dataclass(tp):
            declared[name] = {f.name for f in fields(tp)}
        else:
            declared[""].add(name)
    assert listed == declared


def run_cli_process(tmp_path, *argv):
    """The CLI in a process of its own, so stderr is what a user sees
    (pytest would catch warnings instead)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-m", "affectpipe.cli", *argv],
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=120,
    )


def test_diverging_mlp_fails_with_one_error_line(tmp_path):
    path, _ = run_config(
        tmp_path,
        synth={"n_participants": 3, "n_days": 70, "n_eligible": 2, "shift": None},
        eligibility={"min_days": 40},
        evaluate={"model": "mlp", "hyperparameters": {"learning_rate": 1000}},
        analyze={"correlations": False, "tvalues": False},
    )
    proc = run_cli_process(tmp_path, "run", "--config", str(path), "--out-dir", str(tmp_path / "out"))
    assert proc.returncode == 1
    assert proc.stderr == "error: stage evaluate: the learner returned 44 non-finite scores of 44\n"


# What a pip-generated console-script wrapper does: import the entry point's
# module, resolve its attribute, name the program, and exit with its result.
_ENTRY_POINT_WRAPPER = """\
import importlib, sys
module, attr = sys.argv[1].split(":")
func = getattr(importlib.import_module(module), attr)
sys.argv = ["affectpipe", *sys.argv[2:]]
sys.exit(func())
"""


def assert_help_lists_stages(proc):
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: affectpipe")
    assert "synth" in proc.stdout and "evaluate" in proc.stdout


def test_console_script_help_runs(tmp_path):
    """The entry point declared in pyproject.toml runs `--help` from this
    checkout, with nothing installed."""
    tomllib = pytest.importorskip("tomllib")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["affectpipe"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", _ENTRY_POINT_WRAPPER, entry, "--help"],
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=60,
    )
    assert_help_lists_stages(proc)


@pytest.mark.skipif(
    shutil.which("affectpipe") is None, reason="no affectpipe executable on PATH"
)
def test_installed_console_script_help_runs(tmp_path):
    proc = subprocess.run(
        ["affectpipe", "--help"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert_help_lists_stages(proc)
