"""Run orchestration: manifest digests, determinism, preflight, CLI codes."""

from __future__ import annotations

import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from affectpipe.cli import main
from affectpipe.core import dump_json, read_json
from affectpipe.errors import ConfigError, MissingInputError, PipelineError
from affectpipe.pipeline import STAGES, file_digest, preflight, run_pipeline
from affectpipe.synth import CohortConfig, save_cohort_config

SYNTH_SECTION = {
    "n_participants": 3,
    "n_days": 90,
    "n_eligible": 2,
    "report_prob_eligible": 0.95,
    "report_prob_other": 0.30,
}


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


# ---------------------------------------------------------------------------
# preflight


def test_preflight_rejects_unknown_keys_before_output(tmp_path):
    config_path, _ = run_config(tmp_path, bogus=1)
    out = tmp_path / "never"
    with pytest.raises(ConfigError, match="bogus"):
        run_pipeline(config_path, out_dir_override=out)
    assert not out.exists()


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
    with pytest.raises(ConfigError, match="synth section or raw_dir"):
        preflight({})


def test_preflight_requires_existing_inputs(tmp_path):
    with pytest.raises(MissingInputError):
        preflight({"synth": {"config_path": str(tmp_path / "nope.json")}})
    with pytest.raises(MissingInputError):
        preflight({"raw_dir": str(tmp_path / "nodir")})


def test_stage_errors_carry_the_stage_name(tmp_path):
    config_path, _ = run_config(tmp_path, eligibility={"min_days": 10000})
    with pytest.raises(PipelineError, match="stage label:"):
        run_pipeline(config_path, out_dir_override=tmp_path / "out")


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
    assert "mean accuracy" in out and "vs reference: accuracy" in out and "AUC" in out
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


def test_cli_exit_codes(tmp_path, capsys):
    # 3: input file does not exist
    assert main(["impute", "--in", str(tmp_path / "nope.json"), "--out", str(tmp_path / "x")]) == 3
    # 2: bad target name (timeline itself is valid)
    from affectpipe.core import save_timeline
    from conftest import make_timeline

    tl = tmp_path / "tl.json"
    rows = [{"sleep_deep": 30.0, "heart_rate": 60.0, "walk_steps": 10.0, "main_activity": 0.5}] * 3
    save_timeline(tl, make_timeline("p01", rows))
    assert main(["label", "--in", str(tl), "--target", "bogus", "--out", str(tmp_path / "l")]) == 2
    assert main(["label", "--in", str(tl), "--target", "item:bogus", "--out", str(tmp_path / "l")]) == 2
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


def test_cli_insufficient_data_exit_code(tmp_path, capsys):
    # one positive row cannot be split into two folds even after reseeding
    from datetime import timedelta

    from affectpipe.labels import Dataset, TargetSpec, save_dataset
    import numpy as np
    from conftest import D0

    ds = Dataset(
        feature_ids=("f0",),
        X=np.array([[0.0], [1.0], [2.0], [3.0]]),
        y=np.array([1, 0, 0, 0], dtype=np.int8),
        dates=tuple(D0 + timedelta(days=i) for i in range(4)),
        participant_ids=("p",) * 4,
        target=TargetSpec(kind="pa"),
    )
    path = tmp_path / "ds.json"
    save_dataset(path, ds)
    code = main(
        ["evaluate", "--data", str(path), "--model", "knn", "--folds", "2",
         "--out", str(tmp_path / "r.json")]
    )
    assert code == 6
    assert "resample" in capsys.readouterr().err


def test_cli_schema_error_exit_code(tmp_path):
    from datetime import timedelta

    from affectpipe.labels import Dataset, TargetSpec, save_dataset
    import numpy as np
    from conftest import D0

    ds = Dataset(
        feature_ids=("f0",),
        X=np.array([[0.0], [1.0], [2.0], [3.0]]),
        y=np.array([1, 0, 1, 0], dtype=np.int8),
        dates=tuple(D0 + timedelta(days=i) for i in range(4)),
        participant_ids=("p",) * 4,
        target=TargetSpec(kind="pa"),
    )
    path = tmp_path / "ds.json"
    save_dataset(path, ds)
    payload = read_json(path)
    payload["rows"][0]["label"] = 2
    dump_json(path, payload)
    code = main(
        ["evaluate", "--data", str(path), "--model", "knn", "--folds", "2",
         "--out", str(tmp_path / "r.json")]
    )
    assert code == 5


REPO_ROOT = Path(__file__).resolve().parents[1]

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
