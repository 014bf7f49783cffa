"""End-to-end run orchestration with a single reproducibility manifest.

One JSON run-config drives synth -> ingest -> impute -> label -> dataset ->
evaluate -> analyze.  Every JSON artifact embeds the run_id (a hash of the
effective config), and the manifest records a sha256 digest of every output,
so reruns with unchanged inputs are verifiable byte-for-byte.  Timestamps
appear only in the manifest, never in stage outputs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from . import __version__
from .analysis import (
    feature_affect_correlations,
    monthly_scores,
    pooled_monthly_tvalues,
    tvalues_from_scores,
    write_correlation_csv,
    write_tvalues_csv,
)
from .core import (
    FORMAT_VERSION,
    Modality,
    ParticipantTimeline,
    default_polarity,
    default_schema,
    dump_json,
    filter_eligible_participants,
    read_json,
    timeline_to_dict,
)
from .errors import ConfigError, MissingInputError, PipelineError
from .evaluate import (
    ablation_run,
    cross_validate,
    macro_average,
    paired_subsets,
    report_to_dict,
    subset_modalities,
    write_accuracy_table_csv,
)
from .impute import fill_residual_with_participant_mean, impute_all
from .ingest import parse_affect_file, parse_modality_file, build_timeline
from .labels import (
    FALLBACKS,
    build_dataset,
    build_labels_cohort,
    concat_datasets,
    dataset_to_dict,
    labels_to_dict,
    parse_target,
)
from .learners import MODEL_NAMES, ModelFamily, ModelSpec, default_grid, train
from .synth import cohort_config_from_dict, write_cohort

STAGES = ("synth", "ingest", "impute", "label", "dataset", "evaluate", "analyze")


@dataclass(frozen=True)
class RunManifest:
    run_id: str
    created_utc: str
    package_version: str
    seed: int
    config_sha256: str
    stages: tuple[str, ...]
    outputs: dict


def _canonical(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class PipelineRun:
    """Executes the configured stages in order against one output directory."""

    def __init__(self, config: dict, out_dir: Path, seed: int):
        self.config = config
        self.out_dir = out_dir
        self.seed = seed
        self.schema = default_schema()
        self.polarity = default_polarity()
        effective = dict(config)
        effective["seed"] = seed
        self.run_id = hashlib.sha256(_canonical(effective)).hexdigest()[:16]
        self.config_sha = hashlib.sha256(_canonical(config)).hexdigest()
        self.timelines: list[ParticipantTimeline] = []
        self.eligible: list[ParticipantTimeline] = []
        self.labels = []
        self.datasets = {}
        self.pooled = None

    # -- helpers ---------------------------------------------------------

    def _write_json(self, rel: str, payload: dict) -> None:
        payload = dict(payload)
        payload["run_id"] = self.run_id
        path = self.out_dir / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        dump_json(path, payload)

    # -- stages ----------------------------------------------------------

    def stage_synth(self) -> None:
        section = self.config.get("synth")
        if section is None:
            raise ConfigError("run config has no synth section and no raw_dir")
        if "config_path" in section:
            payload = read_json(section["config_path"])
        else:
            payload = dict(section)
        payload.setdefault("seed", self.seed)
        cohort = cohort_config_from_dict(payload)
        truth = write_cohort(cohort, self.out_dir / "raw")
        # write_cohort already wrote ground_truth.json; rewrite with run_id.
        self._write_json("raw/ground_truth.json", truth)
        self._cohort = cohort

    def stage_ingest(self) -> None:
        raw_dir = Path(self.config.get("raw_dir", self.out_dir / "raw"))
        if not raw_dir.exists():
            raise MissingInputError(f"raw data directory missing: {raw_dir}")
        pids = sorted(
            {p.name.rsplit("_", 1)[0] for p in raw_dir.glob("*_affect.csv")}
        )
        if not pids:
            raise MissingInputError(f"no *_affect.csv files under {raw_dir}")
        self.timelines = []
        for pid in pids:
            files = []
            for modality in Modality:
                path = raw_dir / f"{pid}_{modality.value}.csv"
                if path.exists():
                    files.append(
                        parse_modality_file(path, self.schema, modality, pid)
                    )
            reports = parse_affect_file(
                raw_dir / f"{pid}_affect.csv", self.polarity, pid
            ).values()
            timeline = build_timeline(files, list(reports), self.schema)
            self.timelines.append(timeline)
            self._write_json(
                f"timelines/{pid}.json", timeline_to_dict(timeline)
            )

    def stage_impute(self) -> None:
        section = self.config.get("impute", {})
        fallback = section.get("fallback", "drop")
        imputed = []
        for timeline in self.timelines:
            out = impute_all(timeline)
            if fallback == "participant-mean":
                out = fill_residual_with_participant_mean(out)
            imputed.append(out)
            self._write_json(
                f"imputed/{out.participant_id}.json", timeline_to_dict(out)
            )
        self.timelines = imputed

    def stage_label(self) -> None:
        section = self.config.get("label", {})
        min_days = int(self.config.get("eligibility", {}).get("min_days", 200))
        self.eligible = filter_eligible_participants(self.timelines, min_days)
        if not self.eligible:
            raise PipelineError(
                f"no participant exceeds {min_days} valid affect days"
            )
        target = parse_target(section.get("target", "pa"), bool(section.get("pooled")))
        self.labels = build_labels_cohort(
            self.eligible,
            target,
            middle_band=float(section.get("middle_band", 0.20)),
            alignment="same_day" if section.get("same_day") else "next_day",
        )
        self._write_json(
            "labels.json",
            {
                "format_version": FORMAT_VERSION,
                "eligibility_min_days": min_days,
                "eligible_ids": [t.participant_id for t in self.eligible],
                "participants": [labels_to_dict(l) for l in self.labels],
            },
        )

    def stage_dataset(self) -> None:
        section = self.config.get("dataset", {})
        fallback = section.get("fallback", "drop")
        modalities = tuple(
            Modality(m) for m in section.get("modalities", [m.value for m in Modality])
        )
        per_participant = {}
        for timeline, labels in zip(self.eligible, self.labels):
            per_participant[timeline.participant_id] = build_dataset(
                timeline, labels, self.schema, modalities, fallback=fallback
            )
        self.datasets = per_participant
        self.pooled = concat_datasets(list(per_participant.values()))
        self._write_json("dataset.json", dataset_to_dict(self.pooled))

    def stage_evaluate(self) -> None:
        section = self.config.get("evaluate", {})
        family = MODEL_NAMES[section.get("model", "rf")]
        spec = ModelSpec(
            family=family,
            hyperparameters=section.get("hyperparameters", {}),
            seed=self.seed,
        )
        k = int(section.get("folds", 5))
        grid = default_grid(family) if section.get("tune") else None
        stratified = bool(section.get("stratified", False))

        reports = {}
        for pid, ds in self.datasets.items():
            reports[pid] = cross_validate(
                ds,
                spec,
                k=k,
                seed=self.seed,
                grid=grid,
                stratified=stratified,
                modalities=subset_modalities(ds, self.schema),
            )
        macro = macro_average(list(reports.values()))
        macro_baseline = float(
            np.mean([r.baseline_accuracy for r in reports.values()])
        )

        ablation = {}
        if section.get("ablation"):
            subset_spec = section.get(
                "subsets",
                {
                    "ring": ["ring"],
                    "watch": ["watch"],
                    "phone": ["phone"],
                    "all": ["ring", "watch", "phone"],
                },
            )
            for pid, ds in self.datasets.items():
                subsets = paired_subsets(
                    ds, self.schema, {k_: tuple(Modality(m) for m in v) for k_, v in subset_spec.items()}
                )
                ablation[pid] = ablation_run(
                    subsets, spec, k=k, seed=self.seed, grid=grid, schema=self.schema
                )

        doc = {
            "format_version": FORMAT_VERSION,
            "model": spec.family.value,
            "seed": self.seed,
            "folds": k,
            "macro_mean_accuracy": macro,
            "macro_baseline_accuracy": macro_baseline,
            "per_participant": {pid: report_to_dict(r) for pid, r in reports.items()},
            "ablation": {
                pid: {name: report_to_dict(r) for name, r in by_subset.items()}
                for pid, by_subset in ablation.items()
            },
        }
        self._write_json("report.json", doc)

        table = {pid: r for pid, r in reports.items()}
        for pid, by_subset in ablation.items():
            for name, r in by_subset.items():
                table[f"{pid}.{name}"] = r
        write_accuracy_table_csv(self.out_dir / "accuracy_table.csv", table)
        with (self.out_dir / "roc_points.csv").open("w", encoding="utf-8") as handle:
            handle.write("participant_id,fpr,tpr\n")
            for pid in sorted(reports):
                for x, y in reports[pid].roc_points:
                    handle.write(f"{pid},{x!r},{y!r}\n")
        self._reports = reports

    def stage_analyze(self) -> None:
        section = self.config.get("analyze", {})
        alignment = "same_day" if self.config.get("label", {}).get("same_day") else "next_day"
        doc: dict = {"format_version": FORMAT_VERSION}

        if section.get("correlations", True):
            corr = feature_affect_correlations(
                self.eligible, self.schema, alignment=alignment
            )
            write_correlation_csv(
                self.out_dir / "correlations.csv", corr, self.schema.feature_ids()
            )
            doc["correlations"] = {
                f"{fid}:{target}": r for (fid, target), r in sorted(corr.items())
            }

        if section.get("tvalues", True):
            # The scores come from a default 100-tree RF whatever evaluate.model is.
            spec = ModelSpec(family=ModelFamily.RF, seed=self.seed)
            scored = []
            for timeline in self.eligible:
                ds = self.datasets[timeline.participant_id]
                model = train(spec, ds.X, ds.y, feature_ids=ds.feature_ids)
                scored.append(
                    (timeline.participant_id, monthly_scores(model, timeline, alignment=alignment))
                )
            rows, warnings = tvalue_table(scored, section.get("baseline_months"))
            write_tvalues_csv(self.out_dir / "tvalues.csv", rows)
            doc["tvalues"] = rows
            doc["tvalue_warnings"] = warnings

        self._write_json("analyze.json", doc)


def tvalue_table(
    scored: Iterable[tuple[str, Mapping[str, np.ndarray]]],
    baseline_months: Sequence[str] | None,
) -> tuple[dict[str, dict[str, float]], dict[str, list[str]]]:
    """Monthly |t| rows from (participant_id, monthly scores) pairs.

    The rows always include a "pooled" row over every participant's scores.
    Warnings are keyed like the rows and name each month left out.
    """
    rows: dict[str, dict[str, float]] = {}
    warnings: dict[str, list[str]] = {}
    all_scores = []
    for pid, scores in scored:
        all_scores.append(scores)
        rows[pid], warns = tvalues_from_scores(scores, baseline_months)
        if warns:
            warnings[pid] = list(warns)
    rows["pooled"], warns = pooled_monthly_tvalues(all_scores, baseline_months)
    if warns:
        warnings["pooled"] = list(warns)
    return rows, warnings


def preflight(config: dict) -> None:
    """Validate the config before any output is created."""
    if not isinstance(config, dict):
        raise ConfigError("run config must be a JSON object")
    unknown = set(config) - {
        "seed",
        "out_dir",
        "stages",
        "raw_dir",
        "synth",
        "impute",
        "label",
        "dataset",
        "evaluate",
        "analyze",
        "eligibility",
    }
    if unknown:
        raise ConfigError(f"unknown run-config keys: {sorted(unknown)}")
    for stage in config.get("stages", STAGES):
        if stage not in STAGES:
            raise ConfigError(f"unknown stage {stage!r}")
    synth = config.get("synth")
    if synth is not None and "config_path" in synth:
        path = Path(synth["config_path"])
        if not path.exists():
            raise MissingInputError(f"synth config not found: {path}")
    if synth is None:
        raw_dir = config.get("raw_dir")
        if raw_dir is None:
            raise ConfigError("config needs either a synth section or raw_dir")
        if not Path(raw_dir).exists():
            raise MissingInputError(f"raw_dir not found: {raw_dir}")
    model = config.get("evaluate", {}).get("model", "rf")
    if not isinstance(model, str) or model not in MODEL_NAMES:
        raise ConfigError(f"unknown model {model!r} (expected {'|'.join(MODEL_NAMES)})")
    label = config.get("label", {})
    parse_target(label.get("target", "pa"), bool(label.get("pooled")))
    for section in ("impute", "dataset"):
        fallback = config.get(section, {}).get("fallback", "drop")
        if fallback not in FALLBACKS:
            raise ConfigError(
                f"unknown {section}.fallback {fallback!r} (expected {'|'.join(FALLBACKS)})"
            )


def run_pipeline(
    config_path: Path | str,
    seed_override: int | None = None,
    out_dir_override: Path | str | None = None,
) -> RunManifest:
    config = read_json(config_path)
    preflight(config)
    seed = int(seed_override if seed_override is not None else config.get("seed", 0))
    out_dir = Path(out_dir_override or config.get("out_dir", "run_output"))
    stages = tuple(config.get("stages", STAGES))
    run = PipelineRun(config, out_dir, seed)
    out_dir.mkdir(parents=True, exist_ok=True)

    stage_fns: dict[str, Callable[[], None]] = {
        "synth": run.stage_synth,
        "ingest": run.stage_ingest,
        "impute": run.stage_impute,
        "label": run.stage_label,
        "dataset": run.stage_dataset,
        "evaluate": run.stage_evaluate,
        "analyze": run.stage_analyze,
    }
    executed = []
    for stage in STAGES:
        if stage not in stages:
            continue
        if stage == "synth" and "synth" not in config:
            continue
        try:
            stage_fns[stage]()
        except PipelineError as exc:
            raise type(exc)(f"stage {stage}: {exc}") from exc
        executed.append(stage)

    outputs = {
        str(p.relative_to(out_dir)): file_digest(p)
        for p in sorted(out_dir.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }
    manifest = RunManifest(
        run_id=run.run_id,
        created_utc=datetime.now(timezone.utc).isoformat(),
        package_version=__version__,
        seed=seed,
        config_sha256=run.config_sha,
        stages=tuple(executed),
        outputs=outputs,
    )
    dump_json(
        out_dir / "manifest.json",
        {
            "format_version": FORMAT_VERSION,
            "run_id": manifest.run_id,
            "created_utc": manifest.created_utc,
            "package_version": manifest.package_version,
            "seed": manifest.seed,
            "config_sha256": manifest.config_sha256,
            "stages": list(manifest.stages),
            "outputs": manifest.outputs,
        },
    )
    return manifest
