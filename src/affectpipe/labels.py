"""Binary target construction: median-split labels and compiled mood.

Median split removes the middle band (default 20%) of the target distribution
and keeps strictly-above / strictly-below days.  Compiled mood picks, per day,
whichever of the PA/NA deviations from the participant medians is larger in
magnitude (ties go to PA) and maps its sign to Happy/Sad.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, timedelta
from enum import Enum
from pathlib import Path
from typing import ClassVar, Iterable, Mapping, Sequence

import numpy as np

from .core import (
    FORMAT_VERSION,
    FeatureSchema,
    Modality,
    ParticipantTimeline,
    default_polarity,
    dump_json,
    from_json,
    read_json,
    to_json,
)
from .errors import ConfigError, InputFormatError, InsufficientDataError, NoDataError, SchemaError

TARGET_KINDS = ("single_item", "pa", "na", "compiled_mood")
# The target names a run config and the CLI accept (see parse_target).
TARGET_NAMES = "pa|na|item:<id>|mood"
# Policies for feature values still missing after window imputation.
FALLBACKS = ("drop", "participant-mean")
SCOPES = ("per_participant", "pooled")
ALIGNMENTS = ("next_day", "same_day")
EXCLUDE_MIDDLE_BAND = "middle_band"
EXCLUDE_MISSING_AFFECT = "missing_affect"


class Label(str, Enum):
    HIGH = "High"
    LOW = "Low"
    # Compiled-mood vocabulary; aliases of the same two members.
    HAPPY = "High"
    SAD = "Low"


@dataclass(frozen=True)
class TargetSpec:
    kind: str
    item_id: str | None = None
    scope: str = "per_participant"

    def __post_init__(self) -> None:
        if self.kind not in TARGET_KINDS:
            raise SchemaError(f"unknown target kind {self.kind!r}")
        if self.scope not in SCOPES:
            raise SchemaError(f"unknown scope {self.scope!r}")
        if self.kind == "single_item" and not self.item_id:
            raise SchemaError("single_item target needs an item_id")
        if self.kind != "single_item" and self.item_id is not None:
            raise SchemaError(f"item_id only valid for single_item, not {self.kind!r}")


def parse_target(name: str, pooled: bool) -> TargetSpec:
    """The TargetSpec a target name stands for (see TARGET_NAMES)."""
    scope = "pooled" if pooled else "per_participant"
    if name in ("pa", "na"):
        return TargetSpec(kind=name, scope=scope)
    if name == "mood":
        return TargetSpec(kind="compiled_mood", scope=scope)
    if isinstance(name, str) and name[len("item:"):] in default_polarity().all_items():
        return TargetSpec(kind="single_item", item_id=name[len("item:"):], scope=scope)
    raise ConfigError(f"unknown target {name!r} (expected {TARGET_NAMES})")


@dataclass(frozen=True)
class LabelSet:
    json_document: ClassVar[bool] = True
    participant_id: str
    target: TargetSpec
    entries: Mapping[date, Label]
    excluded: Mapping[date, str]
    middle_band: float = 0.20
    alignment: str = "next_day"

    def __post_init__(self) -> None:
        overlap = set(self.entries) & set(self.excluded)
        if overlap:
            raise SchemaError(f"dates both labeled and excluded: {sorted(overlap)}")
        if self.alignment not in ALIGNMENTS:
            raise SchemaError(f"unknown alignment {self.alignment!r}")
        bad = {r for r in self.excluded.values()} - {
            EXCLUDE_MIDDLE_BAND,
            EXCLUDE_MISSING_AFFECT,
        }
        if bad:
            raise SchemaError(f"unknown exclusion reasons: {sorted(bad)}")


def percentile_thresholds(
    values: Sequence[float], middle_band: float = 0.20
) -> tuple[float, float]:
    """Lower/upper cut points bracketing the middle band of the multiset.

    Percentiles use linear interpolation between closest ranks.
    """
    if not 0.0 <= middle_band < 1.0:
        raise SchemaError(f"middle_band must be in [0, 1), got {middle_band}")
    arr = np.asarray(list(values), dtype=float)
    half = 100.0 * middle_band / 2.0
    lo, hi = np.percentile(arr, [50.0 - half, 50.0 + half])
    return float(lo), float(hi)


def apply_thresholds(
    values: Mapping[date, float], lo: float, hi: float
) -> tuple[dict[date, Label], dict[date, str]]:
    entries: dict[date, Label] = {}
    excluded: dict[date, str] = {}
    for day, value in values.items():
        if value > hi:
            entries[day] = Label.HIGH
        elif value < lo:
            entries[day] = Label.LOW
        else:
            excluded[day] = EXCLUDE_MIDDLE_BAND
    return entries, excluded


def median_split_labels(
    values: Mapping[date, float],
    middle_band: float = 0.20,
    thresholds: tuple[float, float] | None = None,
) -> tuple[dict[date, Label], dict[date, str]]:
    """High/Low split with the middle band excluded.

    `thresholds` overrides the per-call percentile computation (pooled mode).
    """
    if len(values) < 10:
        raise InsufficientDataError("insufficient label data")
    if thresholds is None:
        thresholds = percentile_thresholds(list(values.values()), middle_band)
    return apply_thresholds(values, *thresholds)


def compiled_mood_labels(
    pa: Mapping[date, float],
    na: Mapping[date, float],
    medians: tuple[float, float] | None = None,
) -> tuple[dict[date, Label], dict[date, str]]:
    """Happy/Sad by the dominant (larger |deviation|) composite per day.

    |dev_pa| >= |dev_na| defers to PA (sign > 0 -> Happy); otherwise NA decides
    with the opposite sign convention.  A dominant deviation of exactly 0 means
    both are 0; the day is excluded.
    """
    if set(pa) != set(na):
        raise SchemaError("pa and na date sets differ")
    if not pa:
        raise NoDataError("no days to label")
    if medians is None:
        med_pa = float(np.median(list(pa.values())))
        med_na = float(np.median(list(na.values())))
    else:
        med_pa, med_na = medians
    entries: dict[date, Label] = {}
    excluded: dict[date, str] = {}
    for day in pa:
        dev_pa = pa[day] - med_pa
        dev_na = na[day] - med_na
        if abs(dev_pa) >= abs(dev_na):
            if dev_pa > 0:
                entries[day] = Label.HAPPY
            elif dev_pa < 0:
                entries[day] = Label.SAD
            else:
                excluded[day] = EXCLUDE_MIDDLE_BAND
        else:
            entries[day] = Label.SAD if dev_na > 0 else Label.HAPPY
    return entries, excluded


def target_values(
    timeline: ParticipantTimeline, target: TargetSpec
) -> tuple[dict[date, float], dict[date, str]]:
    """Per-day target values plus days excluded for missing affect.

    Days without any affect report are skipped entirely; partial reports that
    cannot supply the target value are excluded with reason missing_affect.
    """
    values: dict[date, float] = {}
    excluded: dict[date, str] = {}
    for day in timeline.days:
        report = day.affect
        if report is None:
            continue
        if target.kind == "pa":
            value = report.pa
        elif target.kind == "na":
            value = report.na
        else:
            value = report.items.get(target.item_id)  # type: ignore[arg-type]
        if value is None:
            excluded[day.day] = EXCLUDE_MISSING_AFFECT
        else:
            values[day.day] = float(value)
    return values, excluded


def composite_values(
    timeline: ParticipantTimeline,
) -> tuple[dict[date, float], dict[date, float], dict[date, str]]:
    """(pa, na) maps over days where both composites exist."""
    pa: dict[date, float] = {}
    na: dict[date, float] = {}
    excluded: dict[date, str] = {}
    for day in timeline.days:
        report = day.affect
        if report is None:
            continue
        if report.pa is None or report.na is None:
            excluded[day.day] = EXCLUDE_MISSING_AFFECT
        else:
            pa[day.day] = report.pa
            na[day.day] = report.na
    return pa, na, excluded


def build_labels(
    timeline: ParticipantTimeline,
    target: TargetSpec,
    middle_band: float = 0.20,
    alignment: str = "next_day",
    thresholds: tuple[float, float] | None = None,
    medians: tuple[float, float] | None = None,
) -> LabelSet:
    """Label one participant's timeline for the given target."""
    if target.kind == "compiled_mood":
        pa, na, missing = composite_values(timeline)
        entries, excluded = compiled_mood_labels(pa, na, medians=medians)
    else:
        values, missing = target_values(timeline, target)
        entries, excluded = median_split_labels(values, middle_band, thresholds=thresholds)
    excluded.update(missing)
    return LabelSet(
        participant_id=timeline.participant_id,
        target=target,
        entries=entries,
        excluded=excluded,
        middle_band=middle_band,
        alignment=alignment,
    )


def build_labels_cohort(
    timelines: Sequence[ParticipantTimeline],
    target: TargetSpec,
    middle_band: float = 0.20,
    alignment: str = "next_day",
) -> list[LabelSet]:
    """Label every timeline; pooled scope shares cut points across the cohort."""
    thresholds = None
    medians = None
    if target.scope == "pooled":
        if target.kind == "compiled_mood":
            all_pa: list[float] = []
            all_na: list[float] = []
            for tl in timelines:
                pa, na, _ = composite_values(tl)
                all_pa.extend(pa.values())
                all_na.extend(na.values())
            if not all_pa:
                raise NoDataError("no complete composite days in cohort")
            medians = (float(np.median(all_pa)), float(np.median(all_na)))
        else:
            pooled: list[float] = []
            for tl in timelines:
                values, _ = target_values(tl, target)
                pooled.extend(values.values())
            if len(pooled) < 10:
                raise InsufficientDataError("insufficient label data")
            thresholds = percentile_thresholds(pooled, middle_band)
    return [
        build_labels(
            tl,
            target,
            middle_band=middle_band,
            alignment=alignment,
            thresholds=thresholds,
            medians=medians,
        )
        for tl in timelines
    ]


# ---------------------------------------------------------------------------
# Datasets

@dataclass(frozen=True, eq=False)
class Dataset:
    """Pooled design matrix with per-row provenance for grouped metrics."""

    feature_ids: tuple[str, ...]
    X: np.ndarray
    y: np.ndarray
    dates: tuple[date, ...]
    participant_ids: tuple[str, ...]
    target: TargetSpec
    alignment: str = "next_day"

    def __post_init__(self) -> None:
        n, d = self.X.shape
        if d != len(self.feature_ids):
            raise SchemaError("X width does not match feature_ids")
        if not (len(self.y) == len(self.dates) == len(self.participant_ids) == n):
            raise SchemaError("row-aligned fields have inconsistent lengths")
        if self.y.size and not np.isin(self.y, (0, 1)).all():
            raise SchemaError("labels must be 0/1")

    @property
    def n_rows(self) -> int:
        return int(self.X.shape[0])

    def project(self, schema: FeatureSchema, modalities: Iterable[Modality]) -> "Dataset":
        keep = [fid for fid in schema.features_for(modalities) if fid in set(self.feature_ids)]
        idx = [self.feature_ids.index(fid) for fid in keep]
        return Dataset(
            feature_ids=tuple(keep),
            X=self.X[:, idx],
            y=self.y,
            dates=self.dates,
            participant_ids=self.participant_ids,
            target=self.target,
            alignment=self.alignment,
        )

    def restrict_dates(self, keep: Iterable[tuple[str, date]]) -> "Dataset":
        """Keep rows whose (participant, feature-date) pair is in `keep`."""
        wanted = set(keep)
        mask = np.array(
            [
                (pid, day) in wanted
                for pid, day in zip(self.participant_ids, self.dates)
            ],
            dtype=bool,
        )
        return Dataset(
            feature_ids=self.feature_ids,
            X=self.X[mask],
            y=self.y[mask],
            dates=tuple(d for d, m in zip(self.dates, mask) if m),
            participant_ids=tuple(p for p, m in zip(self.participant_ids, mask) if m),
            target=self.target,
            alignment=self.alignment,
        )

    def row_keys(self) -> tuple[tuple[str, date], ...]:
        return tuple(zip(self.participant_ids, self.dates))


def build_dataset(
    timeline: ParticipantTimeline,
    labels: LabelSet,
    schema: FeatureSchema,
    modalities: Iterable[Modality] = tuple(Modality),
    fallback: str = "drop",
) -> Dataset:
    """One row per labeled day, using the aligned feature vector.

    next_day alignment pairs the features of day t with the label of day t+1.
    Rows with residual missing features are dropped under the default policy;
    fallback="participant-mean" fills them from the timeline's non-missing
    values first.
    """
    if labels.participant_id != timeline.participant_id:
        raise SchemaError(
            f"labels for {labels.participant_id!r} do not match "
            f"timeline {timeline.participant_id!r}"
        )
    if fallback not in FALLBACKS:
        raise SchemaError(f"unknown fallback policy {fallback!r}")
    feature_ids = tuple(schema.features_for(modalities))
    if not feature_ids:
        raise SchemaError("no features selected")
    lag = timedelta(days=1) if labels.alignment == "next_day" else timedelta(0)
    day_map = timeline.day_map()

    means: dict[str, float] = {}
    if fallback == "participant-mean":
        sums: dict[str, float] = {}
        counts: dict[str, int] = {}
        for day in timeline.days:
            for fid in feature_ids:
                value = day.features.values.get(fid)
                if value is not None:
                    sums[fid] = sums.get(fid, 0.0) + value
                    counts[fid] = counts.get(fid, 0) + 1
        means = {fid: sums[fid] / counts[fid] for fid in sums}

    rows: list[list[float]] = []
    ys: list[int] = []
    dates: list[date] = []
    for label_day in sorted(labels.entries):
        feature_day = day_map.get(label_day - lag)
        if feature_day is None:
            continue
        row: list[float] = []
        ok = True
        for fid in feature_ids:
            value = feature_day.features.values.get(fid)
            if value is None and fallback == "participant-mean":
                value = means.get(fid)
            if value is None:
                ok = False
                break
            row.append(float(value))
        if not ok:
            continue
        rows.append(row)
        ys.append(1 if labels.entries[label_day] is Label.HIGH else 0)
        dates.append(feature_day.day)
    if not rows:
        raise NoDataError("no labeled days align with feature days")
    return Dataset(
        feature_ids=feature_ids,
        X=np.array(rows, dtype=float),
        y=np.array(ys, dtype=np.int8),
        dates=tuple(dates),
        participant_ids=tuple([timeline.participant_id] * len(rows)),
        target=labels.target,
        alignment=labels.alignment,
    )


def concat_datasets(parts: Sequence[Dataset]) -> Dataset:
    if not parts:
        raise NoDataError("no datasets to concatenate")
    first = parts[0]
    for part in parts[1:]:
        if part.feature_ids != first.feature_ids:
            raise SchemaError("datasets disagree on feature columns")
        if part.target != first.target or part.alignment != first.alignment:
            raise SchemaError("datasets disagree on target/alignment")
    return Dataset(
        feature_ids=first.feature_ids,
        X=np.concatenate([p.X for p in parts], axis=0),
        y=np.concatenate([p.y for p in parts], axis=0),
        dates=tuple(d for p in parts for d in p.dates),
        participant_ids=tuple(pid for p in parts for pid in p.participant_ids),
        target=first.target,
        alignment=first.alignment,
    )


# ---------------------------------------------------------------------------
# Serialization


@dataclass(frozen=True)
class LabelsDocument:
    """A labels file; a run's labels.json also names the eligible cohort."""

    json_document: ClassVar[bool] = True
    participants: tuple[LabelSet, ...]
    eligibility_min_days: int | None = None
    eligible_ids: tuple[str, ...] | None = None


def save_labels(path: Path | str, labels: Sequence[LabelSet]) -> None:
    dump_json(path, {"format_version": FORMAT_VERSION, "participants": [to_json(l) for l in labels]})


def load_labels(path: Path | str) -> list[LabelSet]:
    return list(from_json(LabelsDocument, read_json(path), "labels").participants)


@dataclass(frozen=True)
class _DatasetRow:
    participant_id: str
    date: date
    label: int
    # Read for all rows at once in dataset_from_dict.
    features: list


@dataclass(frozen=True)
class _DatasetDocument:
    """A dataset as stored: row-major, each row with its provenance."""

    json_document: ClassVar[bool] = True
    feature_ids: tuple[str, ...]
    target: TargetSpec
    rows: tuple[_DatasetRow, ...]
    alignment: str = "next_day"


def dataset_to_dict(ds: Dataset) -> dict:
    rows = zip(ds.participant_ids, ds.dates, ds.y.tolist(), ds.X)
    return to_json(
        _DatasetDocument(ds.feature_ids, ds.target, tuple(_DatasetRow(*r) for r in rows), ds.alignment)
    )


def dataset_from_dict(payload: dict) -> Dataset:
    doc = from_json(_DatasetDocument, payload, "dataset")
    shape = (len(doc.rows), len(doc.feature_ids))
    path = "dataset.rows[].features"
    X = from_json(np.ndarray, [r.features for r in doc.rows], path) if doc.rows else np.empty(shape)
    if X.shape != shape:
        raise InputFormatError(f"{path}: expected {shape[0]} rows of {shape[1]} numbers")
    return Dataset(
        feature_ids=doc.feature_ids,
        X=X.astype(float, copy=False),
        y=np.array([r.label for r in doc.rows], dtype=np.int64),
        dates=tuple(r.date for r in doc.rows),
        participant_ids=tuple(r.participant_id for r in doc.rows),
        target=doc.target,
        alignment=doc.alignment,
    )


def save_dataset(path: Path | str, ds: Dataset) -> None:
    dump_json(path, dataset_to_dict(ds))


def load_dataset(path: Path | str) -> Dataset:
    return dataset_from_dict(read_json(path))
