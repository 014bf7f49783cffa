"""The benchmark's three workloads: input set-up, the timed call, and the
results each run is checked on.

Every workload takes the workload seed and a scale.  ``full`` is what the
benchmark times; ``tiny`` is a cohort of a few participants that finishes in
about a second and serves as the canary every run is checked on, and as the
input of the benchmark's own tests.

Workload code calls the program through module attributes (``synth.generate``,
not a name imported from it), so the traced run's probes see these calls too.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFAULT_CONFIG = ROOT / "configs" / "default_run.json"
BENCHMARK = ROOT / "BENCHMARK.json"

REFERENCE_SEED = 1234
SCALES = ("full", "tiny")

# Cohort shape of the tiny scale: 3 participants x 70 days, 2 of them
# eligible, no planted shift (70 days span too few months for one).
TINY_COHORT = {"n_participants": 3, "n_days": 70, "n_eligible": 2, "shift": None}
TINY_MIN_DAYS = 40
TINY_TREES = 3
TINY_FOLDS = 3

ABLATION_SUBSETS = {
    "ring": ("ring",),
    "watch": ("watch",),
    "phone": ("phone",),
    "all": ("ring", "watch", "phone"),
}
ABLATION_TREES = 25


class ProgramMissing(RuntimeError):
    """The checkout holds no affectpipe sources to benchmark."""


def import_program():
    """Import affectpipe, every layer of it, from this checkout's ``src``
    and never from elsewhere."""
    init = SRC / "affectpipe" / "__init__.py"
    if not init.is_file() or not DEFAULT_CONFIG.is_file():
        raise ProgramMissing(f"no affectpipe sources under {ROOT}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import affectpipe
    import affectpipe.pipeline  # noqa: F401  (imports every layer)

    if Path(affectpipe.__file__).resolve() != init.resolve():
        raise ProgramMissing(f"affectpipe imported from {affectpipe.__file__}, not {SRC}")
    return affectpipe


def declared_units(section: str) -> dict:
    """Metric name -> unit of one section of BENCHMARK.json
    (``end_to_end`` or ``per_layer``)."""
    declared = json.loads(BENCHMARK.read_text(encoding="utf-8"))[section]
    return {m["name"]: m["unit"] for m in declared}


def program_digest() -> str:
    """sha256 over the program's sources and shipped configs, so results
    kept from earlier calls are compared only with runs of the same code."""
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *DEFAULT_CONFIG.parent.rglob("*.json")]):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def _rf(n_trees: int) -> dict:
    return {"n_trees": n_trees, "max_depth": None, "max_features": "sqrt"}


def _write_config(path: Path, config: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(config, sort_keys=True) + "\n", encoding="utf-8")


# -- default_run ------------------------------------------------------------
# The shipped config through run_pipeline; every stage runs.


def setup_default_run(seed: int, scale: str, inputs: Path) -> None:
    config = json.loads(DEFAULT_CONFIG.read_text(encoding="utf-8"))
    if scale == "tiny":
        config["synth"] = dict(TINY_COHORT)
        config["eligibility"] = {"min_days": TINY_MIN_DAYS}
        config["evaluate"] = {
            "model": "rf",
            "folds": TINY_FOLDS,
            "hyperparameters": _rf(TINY_TREES),
        }
    _write_config(inputs / "config.json", config)


def run_pipeline_workload(seed: int, scale: str, inputs: Path, out: Path) -> None:
    from affectpipe import pipeline

    pipeline.run_pipeline(inputs / "config.json", seed_override=seed, out_dir_override=out)


def pipeline_results(out: Path) -> tuple[dict, dict]:
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    analyze = json.loads((out / "analyze.json").read_text(encoding="utf-8"))
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    results = {
        "macro_accuracy": report["macro_mean_accuracy"],
        "per_participant": {
            pid: {
                "mean_accuracy": r["mean_accuracy"],
                "auc": r["auc"],
                "fold_hash": r["fold_hash"],
            }
            for pid, r in report["per_participant"].items()
        },
        "correlations": analyze.get("correlations"),
        "tvalues": analyze.get("tvalues"),
    }
    return results, manifest["outputs"]


# -- cohort_etl -------------------------------------------------------------
# Raw CSVs of a 40 x 400 cohort; the run ingests, imputes and writes JSON,
# and the learners do almost nothing (majority baseline, no t-values).


def setup_cohort_etl(seed: int, scale: str, inputs: Path) -> None:
    from affectpipe import synth

    if scale == "tiny":
        cohort = dict(TINY_COHORT, seed=seed)
        min_days, folds = TINY_MIN_DAYS, TINY_FOLDS
    else:
        cohort = {"n_participants": 40, "n_days": 400, "n_eligible": 20, "seed": seed}
        min_days, folds = 200, 5
    synth.write_cohort(synth.cohort_config_from_dict(cohort), inputs / "raw")
    # raw_dir is relative: the run process works inside the run directory,
    # so the config (and with it the run_id in every artifact) does not
    # depend on where the checkout lives.
    _write_config(
        inputs / "config.json",
        {
            "seed": seed,
            "raw_dir": "inputs/raw",
            "eligibility": {"min_days": min_days},
            "impute": {"fallback": "participant-mean"},
            "label": {"target": "pa", "middle_band": 0.20},
            "dataset": {"fallback": "drop"},
            "evaluate": {"model": "baseline", "folds": folds},
            "analyze": {"correlations": True, "tvalues": False},
        },
    )


# -- pooled_ablation --------------------------------------------------------
# The pooled PA dataset of the eligible participants, cross-validated on
# row-identical ring / watch / phone / all subsets with a 25-tree forest.


def setup_pooled_ablation(seed: int, scale: str, inputs: Path) -> None:
    from affectpipe import core, impute, labels, synth

    if scale == "tiny":
        cohort = synth.cohort_config_from_dict(dict(TINY_COHORT, seed=seed))
        min_days = TINY_MIN_DAYS
    else:
        cohort = synth.CohortConfig(seed=seed)
        min_days = 200
    schema = core.default_schema()
    timelines, _ = synth.generate(cohort)
    timelines = [
        impute.fill_residual_with_participant_mean(impute.impute_all(t)) for t in timelines
    ]
    eligible = core.filter_eligible_participants(timelines, min_days)
    label_sets = labels.build_labels_cohort(eligible, labels.TargetSpec(kind="pa"))
    pooled = labels.concat_datasets(
        [labels.build_dataset(t, l, schema) for t, l in zip(eligible, label_sets)]
    )
    inputs.mkdir(parents=True, exist_ok=True)
    labels.save_dataset(inputs / "dataset.json", pooled)


def load_ablation_dataset(inputs: Path):
    from affectpipe import labels

    return labels.load_dataset(inputs / "dataset.json")


def run_pooled_ablation(seed: int, scale: str, dataset, out: Path) -> dict:
    from affectpipe import core, evaluate, learners

    schema = core.default_schema()
    n_trees, folds = (TINY_TREES, TINY_FOLDS) if scale == "tiny" else (ABLATION_TREES, 5)
    spec = learners.ModelSpec(
        family=learners.ModelFamily.RF, hyperparameters=_rf(n_trees), seed=seed
    )
    subsets = evaluate.paired_subsets(
        dataset,
        schema,
        {name: tuple(core.Modality(m) for m in mods) for name, mods in ABLATION_SUBSETS.items()},
    )
    return evaluate.ablation_run(subsets, spec, k=folds, seed=seed, schema=schema)


def ablation_results(reports: dict) -> tuple[dict, dict]:
    results = {
        "macro_accuracy": reports["all"].mean_accuracy,
        "subsets": {
            name: {
                "mean_accuracy": r.mean_accuracy,
                "auc": r.auc,
                "fold_hash": r.fold_hash,
                "n_rows": r.n_rows,
            }
            for name, r in reports.items()
        },
    }
    return results, {}


# -- registry ---------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, str, Path], None]
    # Untimed: turns the set-up inputs into the argument of the timed call.
    load: Callable[[Path], object]
    # Timed: (seed, scale, loaded inputs, output dir) -> value for `results`.
    run: Callable[[int, str, object, Path], object]
    # Untimed: (value of `run`, output dir) -> (results, artifact digests).
    results: Callable[[object, Path], tuple[dict, dict]]


WORKLOADS = {
    "default_run": Workload(
        "default_run",
        setup_default_run,
        lambda inputs: inputs,
        run_pipeline_workload,
        lambda _, out: pipeline_results(out),
    ),
    "cohort_etl": Workload(
        "cohort_etl",
        setup_cohort_etl,
        lambda inputs: inputs,
        run_pipeline_workload,
        lambda _, out: pipeline_results(out),
    ),
    "pooled_ablation": Workload(
        "pooled_ablation",
        setup_pooled_ablation,
        load_ablation_dataset,
        run_pooled_ablation,
        lambda reports, _: ablation_results(reports),
    ),
}


def reset_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
