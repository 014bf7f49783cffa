"""End-to-end run orchestration with a single reproducibility manifest.

One JSON run-config drives synth -> ingest -> impute -> label -> dataset ->
evaluate -> analyze.  Every JSON artifact embeds the run_id (a hash of the
effective config), and the manifest records a sha256 digest of every output,
so reruns with unchanged inputs are verifiable byte-for-byte.  Timestamps
appear only in the manifest, never in stage outputs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import ClassVar, Iterable, Mapping, Sequence

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
    FeatureSchema,
    Modality,
    ParticipantTimeline,
    canonical_json,
    check_output,
    default_polarity,
    default_schema,
    dump_json,
    filter_eligible_participants,
    parse_modalities,
    read_config,
    read_json,
    timeline_to_dict,
    to_json,
)
from .errors import ConfigError, InsufficientDataError, MissingInputError, PipelineError, SchemaError
from .evaluate import (
    EvaluationReport,
    ablation_run,
    cross_validate,
    macro_average,
    paired_subsets,
    subset_modalities,
    write_accuracy_table_csv,
)
from .impute import fill_residual_with_participant_mean, impute_all
from .ingest import parse_affect_file, parse_modality_file, build_timeline
from .labels import (
    FALLBACKS,
    Dataset,
    LabelSet,
    LabelsDocument,
    build_dataset,
    build_labels_cohort,
    concat_datasets,
    dataset_to_dict,
    parse_target,
)
from .learners import MODEL_NAMES, ModelFamily, ModelSpec, TrainedModel, _build, default_grid, train
from .synth import CohortConfig, cohort_config_from_dict, write_cohort

STAGES = ("synth", "ingest", "impute", "label", "dataset", "evaluate", "analyze")


# The run config, one dataclass per section; the codec reads it (see
# preflight), so every key, its type and its default are stated here once.
# Each section checks its own values, so a bad value is the same ConfigError
# whether it comes from a run config or from a subcommand's flags.
@dataclass
class EligibilityConfig:
    min_days: int = 200

    def __post_init__(self) -> None:
        if self.min_days < 0:
            raise ConfigError(f"eligibility.min_days must be at least 0, got {self.min_days}")


def _check_fallback(section: str, fallback: str) -> None:
    if fallback not in FALLBACKS:
        raise ConfigError(f"unknown {section}.fallback {fallback!r} (expected {'|'.join(FALLBACKS)})")


@dataclass
class ImputeConfig:
    fallback: str = "drop"

    def __post_init__(self) -> None:
        _check_fallback("impute", self.fallback)


@dataclass
class LabelConfig:
    target: str = "pa"
    pooled: bool = False
    middle_band: float = 0.20
    same_day: bool = False

    def __post_init__(self) -> None:
        parse_target(self.target, self.pooled)
        if not 0 <= self.middle_band < 1:
            raise ConfigError(f"label.middle_band must be in [0, 1), got {self.middle_band}")

    @property
    def alignment(self) -> str:
        return "same_day" if self.same_day else "next_day"


@dataclass
class DatasetConfig:
    fallback: str = "drop"
    modalities: tuple[str, ...] = tuple(m.value for m in Modality)

    def __post_init__(self) -> None:
        _check_fallback("dataset", self.fallback)
        parse_modalities(self.modalities)


@dataclass
class EvaluateConfig:
    model: str = "rf"
    hyperparameters: dict[str, object] = field(default_factory=dict)
    folds: int = 5
    tune: bool = False
    stratified: bool = False
    ablation: bool = False
    subsets: dict[str, tuple[str, ...]] = field(
        default_factory=lambda: {**{m.value: (m.value,) for m in Modality}, "all": DatasetConfig.modalities})

    def __post_init__(self) -> None:
        if self.model not in MODEL_NAMES:
            raise ConfigError(f"unknown model {self.model!r} (expected {'|'.join(MODEL_NAMES)})")
        try:
            spec = self.spec(0)
        except SchemaError as exc:
            raise ConfigError(str(exc)) from exc
        _build(spec.family, spec.resolved())
        if self.folds < 2:
            raise ConfigError(f"evaluate.folds must be at least 2, got {self.folds}")
        for names in self.subsets.values():
            parse_modalities(names)

    def spec(self, seed: int) -> ModelSpec:
        return ModelSpec(family=MODEL_NAMES[self.model], hyperparameters=self.hyperparameters, seed=seed)

    def grid(self) -> list[dict] | None:
        """The family's tuning grid when the section tunes."""
        return default_grid(MODEL_NAMES[self.model]) if self.tune else None


@dataclass
class AnalyzeConfig:
    correlations: bool = True
    tvalues: bool = True
    baseline_months: list[str] | None = None


@dataclass
class RunConfig:
    seed: int = 0
    out_dir: str = "run_output"
    stages: tuple[str, ...] = STAGES
    # A cohort config, or {"config_path": <its file>}; see cohort_of.
    synth: dict | None = None
    raw_dir: str | None = None
    eligibility: EligibilityConfig = field(default_factory=EligibilityConfig)
    impute: ImputeConfig = field(default_factory=ImputeConfig)
    label: LabelConfig = field(default_factory=LabelConfig)
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    evaluate: EvaluateConfig = field(default_factory=EvaluateConfig)
    analyze: AnalyzeConfig = field(default_factory=AnalyzeConfig)

    def stages_to_run(self) -> tuple[str, ...]:
        """The listed stages in run order; synth runs only with a synth section."""
        return tuple(s for s in STAGES if s in self.stages and not (s == "synth" and self.synth is None))

    def stage_needs(self) -> dict[str, tuple[str, ...]]:
        """The stages whose output each stage reads.  Stages hand it on in
        memory only, so a run must list them too."""
        return {
            "synth": (),
            "ingest": () if self.synth is None else ("synth",),
            "impute": ("ingest",),
            "label": ("ingest",),
            "dataset": ("label",),
            "evaluate": ("dataset",),
            "analyze": ("label", "dataset") if self.analyze.tvalues else ("label",),
        }


@dataclass(frozen=True)
class RunManifest:
    json_document: ClassVar[bool] = True
    run_id: str
    created_utc: str
    package_version: str
    seed: int
    config_sha256: str
    stages: tuple[str, ...]
    outputs: dict


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# The steps of each stage, which PipelineRun and the subcommands share.


def ingest_participant(
    participant_id: str,
    modality_files: Mapping[Modality, Path | str],
    affect_file: Path | str | None,
    schema: FeatureSchema,
) -> ParticipantTimeline:
    """One participant's timeline from their modality CSVs and, when there
    is one, their affect CSV."""
    files = [parse_modality_file(path, schema, m, participant_id) for m, path in modality_files.items()]
    reports = {} if affect_file is None else parse_affect_file(affect_file, default_polarity(), participant_id)
    return build_timeline(files, list(reports.values()), schema)


def impute_timeline(timeline: ParticipantTimeline, section: ImputeConfig) -> ParticipantTimeline:
    """Window imputation, then the section's fallback for what is left."""
    out = impute_all(timeline)
    return fill_residual_with_participant_mean(out) if section.fallback == "participant-mean" else out


def label_timelines(timelines: Sequence[ParticipantTimeline], section: LabelConfig) -> list[LabelSet]:
    target = parse_target(section.target, section.pooled)
    return build_labels_cohort(timelines, target, middle_band=section.middle_band, alignment=section.alignment)


def build_datasets(
    timelines: Iterable[ParticipantTimeline],
    label_sets: Iterable[LabelSet],
    schema: FeatureSchema,
    section: DatasetConfig,
) -> dict[str, Dataset]:
    """One dataset per label set, from the timeline of its participant."""
    modalities = parse_modalities(section.modalities)
    by_id = {t.participant_id: t for t in timelines}
    datasets = {}
    for labels in label_sets:
        pid = labels.participant_id
        if pid not in by_id:
            raise MissingInputError(f"no timeline supplied for participant {pid!r}")
        datasets[pid] = build_dataset(by_id[pid], labels, schema, modalities, fallback=section.fallback)
    return datasets


def evaluate_dataset(ds: Dataset, section: EvaluateConfig, seed: int, schema: FeatureSchema) -> EvaluationReport:
    spec, modalities = section.spec(seed), subset_modalities(ds, schema)
    return cross_validate(
        ds, spec, k=section.folds, seed=seed, grid=section.grid(), stratified=section.stratified, modalities=modalities
    )


def analyze_correlations(
    path: Path | str, timelines: Sequence[ParticipantTimeline], schema: FeatureSchema, alignment: str
) -> dict[tuple[str, str], float | None]:
    """Feature-affect correlations, also written to ``path`` as a CSV."""
    corr = feature_affect_correlations(timelines, schema, alignment=alignment)
    write_correlation_csv(path, corr, schema.feature_ids())
    return corr


def analyze_tvalues(
    path: Path | str,
    scored: Iterable[tuple[TrainedModel, ParticipantTimeline]],
    baseline_months: Sequence[str] | None,
    alignment: str,
) -> tuple[dict[str, dict[str, float]], dict[str, list[str]]]:
    """Monthly |t| rows of each timeline's scores under its model, also
    written to ``path`` as a CSV.

    The rows always include a "pooled" row over every participant's scores.
    Warnings are keyed like the rows and name each month left out.
    """
    rows: dict[str, dict[str, float]] = {}
    warnings: dict[str, list[str]] = {}
    all_scores = []
    for model, timeline in scored:
        pid = timeline.participant_id
        scores = monthly_scores(model, timeline, alignment=alignment)
        all_scores.append(scores)
        rows[pid], warns = tvalues_from_scores(scores, baseline_months)
        if warns:
            warnings[pid] = list(warns)
    rows["pooled"], warns = pooled_monthly_tvalues(all_scores, baseline_months)
    if warns:
        warnings["pooled"] = list(warns)
    write_tvalues_csv(path, rows)
    return rows, warnings


class PipelineRun:
    """Executes the configured stages in order against one output directory."""

    def __init__(self, raw: dict, config: RunConfig, out_dir: Path, seed: int):
        self.config = config
        self.out_dir = out_dir
        self.seed = seed
        self.schema = default_schema()
        # Both hashes cover the config as written, before defaults fill it in.
        effective = dict(raw)
        effective["seed"] = seed
        self.run_id = hashlib.sha256(canonical_json(effective).encode()).hexdigest()[:16]
        self.config_sha = hashlib.sha256(canonical_json(raw).encode()).hexdigest()
        self.timelines: list[ParticipantTimeline] = []
        self.eligible: list[ParticipantTimeline] = []
        self.labels = []
        self.datasets = {}

    # -- helpers ---------------------------------------------------------

    def _write_json(self, rel: str, payload: dict) -> None:
        payload = dict(payload)
        payload["run_id"] = self.run_id
        path = self.out_dir / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        dump_json(path, payload)

    # -- stages ----------------------------------------------------------

    def stage_synth(self) -> None:
        truth = write_cohort(cohort_of(self.config.synth, self.seed), self.out_dir / "raw")
        # write_cohort already wrote ground_truth.json; rewrite with run_id.
        self._write_json("raw/ground_truth.json", truth)

    def stage_ingest(self) -> None:
        raw_dir = self.out_dir / "raw" if self.config.raw_dir is None else Path(self.config.raw_dir)
        if not raw_dir.exists():
            raise MissingInputError(f"raw data directory missing: {raw_dir}")
        pids = sorted({p.name.rsplit("_", 1)[0] for p in raw_dir.glob("*_affect.csv")})
        if not pids:
            raise MissingInputError(f"no *_affect.csv files under {raw_dir}")
        self.timelines = []
        for pid in pids:
            paths = {m: raw_dir / f"{pid}_{m.value}.csv" for m in Modality}
            found = {m: path for m, path in paths.items() if path.exists()}
            timeline = ingest_participant(pid, found, raw_dir / f"{pid}_affect.csv", self.schema)
            self.timelines.append(timeline)
            self._write_json(f"timelines/{pid}.json", timeline_to_dict(timeline))

    def stage_impute(self) -> None:
        imputed = []
        for timeline in self.timelines:
            out = impute_timeline(timeline, self.config.impute)
            imputed.append(out)
            self._write_json(f"imputed/{out.participant_id}.json", timeline_to_dict(out))
        self.timelines = imputed

    def stage_label(self) -> None:
        min_days = self.config.eligibility.min_days
        self.eligible = filter_eligible_participants(self.timelines, min_days)
        if not self.eligible:
            raise InsufficientDataError(f"no participant exceeds {min_days} valid affect days")
        self.labels = label_timelines(self.eligible, self.config.label)
        eligible_ids = tuple(t.participant_id for t in self.eligible)
        self._write_json("labels.json", to_json(LabelsDocument(tuple(self.labels), min_days, eligible_ids)))

    def stage_dataset(self) -> None:
        self.datasets = build_datasets(self.eligible, self.labels, self.schema, self.config.dataset)
        self._write_json("dataset.json", dataset_to_dict(concat_datasets(list(self.datasets.values()))))

    def stage_evaluate(self) -> None:
        section = self.config.evaluate
        spec = section.spec(self.seed)
        reports = {
            pid: evaluate_dataset(ds, section, self.seed, self.schema) for pid, ds in self.datasets.items()
        }
        macro = macro_average(list(reports.values()))
        macro_baseline = float(np.mean([r.baseline_accuracy for r in reports.values()]))

        ablation = {}
        if section.ablation:
            subsets_by_name = {name: parse_modalities(names) for name, names in section.subsets.items()}
            for pid, ds in self.datasets.items():
                subsets = paired_subsets(ds, self.schema, subsets_by_name)
                ablation[pid] = ablation_run(
                    subsets, spec, k=section.folds, seed=self.seed, grid=section.grid(), schema=self.schema
                )

        doc = {
            "format_version": FORMAT_VERSION,
            "model": spec.family.value,
            "seed": self.seed,
            "folds": section.folds,
            "macro_mean_accuracy": macro,
            "macro_baseline_accuracy": macro_baseline,
            "per_participant": to_json(reports),
            "ablation": to_json(ablation),
        }
        self._write_json("report.json", doc)

        table = dict(reports)
        for pid, by_subset in ablation.items():
            for name, r in by_subset.items():
                table[f"{pid}.{name}"] = r
        write_accuracy_table_csv(self.out_dir / "accuracy_table.csv", table)
        with (self.out_dir / "roc_points.csv").open("w", encoding="utf-8") as handle:
            handle.write("participant_id,fpr,tpr\n")
            for pid in sorted(reports):
                for x, y in reports[pid].roc_points:
                    handle.write(f"{pid},{x!r},{y!r}\n")

    def stage_analyze(self) -> None:
        section = self.config.analyze
        alignment = self.config.label.alignment
        doc: dict = {"format_version": FORMAT_VERSION}

        if section.correlations:
            corr = analyze_correlations(self.out_dir / "correlations.csv", self.eligible, self.schema, alignment)
            doc["correlations"] = {
                f"{fid}:{target}": r for (fid, target), r in sorted(corr.items())
            }

        if section.tvalues:
            # The scores come from a default 100-tree RF whatever evaluate.model is.
            spec = ModelSpec(family=ModelFamily.RF, seed=self.seed)

            def scored():
                for timeline in self.eligible:
                    ds = self.datasets[timeline.participant_id]
                    yield train(spec, ds.X, ds.y, feature_ids=ds.feature_ids), timeline

            rows, warnings = analyze_tvalues(self.out_dir / "tvalues.csv", scored(), section.baseline_months, alignment)
            doc["tvalues"] = rows
            doc["tvalue_warnings"] = warnings

        self._write_json("analyze.json", doc)


def cohort_of(synth: dict, seed: int) -> CohortConfig:
    """The cohort a run config's synth section stands for: the section
    itself, or the file its only key, config_path, names.  The cohort takes
    the run's seed unless it states its own."""
    payload, path = synth, "config.synth"
    if "config_path" in synth:
        if len(synth) > 1:
            raise ConfigError(f"config.synth: config_path takes no other keys, got {sorted(synth)}")
        path = read_config(str, synth["config_path"], "config.synth.config_path")
        payload = read_json(path)
    cohort = cohort_config_from_dict(payload, path)
    return cohort if "seed" in payload else replace(cohort, seed=seed)


def preflight(config: dict) -> RunConfig:
    """The run config, read and checked before any output is created."""
    run = read_config(RunConfig, config, "config")
    for stage in run.stages:
        if stage not in STAGES:
            raise ConfigError(f"unknown stage {stage!r}")
    # Ingest reads raw_dir when it is set, so a cohort synthesised next to
    # it would never be read.
    if (run.synth is None) == (run.raw_dir is None):
        raise ConfigError("config needs a synth section or raw_dir, and not both")
    if run.raw_dir is not None and not Path(run.raw_dir).exists():
        raise MissingInputError(f"raw_dir not found: {run.raw_dir}")
    to_run = run.stages_to_run()
    if not to_run:
        raise ConfigError("config.stages: no stage to run")
    needs = run.stage_needs()
    for stage in to_run:
        for need in needs[stage]:
            if need not in to_run:
                raise ConfigError(f"config.stages: {stage!r} needs {need!r} in the same run")
    if run.synth is not None:
        cohort_of(run.synth, run.seed)
    return run


def run_pipeline(
    config_path: Path | str,
    seed_override: int | None = None,
    out_dir_override: Path | str | None = None,
) -> RunManifest:
    raw = read_json(config_path)
    config = preflight(raw)
    seed = config.seed if seed_override is None else seed_override
    out_dir = Path(out_dir_override or config.out_dir)
    check_output(out_dir, directory=True)
    run = PipelineRun(raw, config, out_dir, seed)
    out_dir.mkdir(parents=True, exist_ok=True)

    for stage in config.stages_to_run():
        try:
            getattr(run, f"stage_{stage}")()
        except PipelineError as exc:
            raise type(exc)(f"stage {stage}: {exc}") from exc

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
        stages=config.stages_to_run(),
        outputs=outputs,
    )
    dump_json(out_dir / "manifest.json", to_json(manifest))
    return manifest
