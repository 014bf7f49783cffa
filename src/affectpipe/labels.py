"""Binary target construction: median-split labels and compiled mood.

Median split removes the middle band (default 20%) of the target distribution
and keeps strictly-above / strictly-below days.  Compiled mood takes, per day,
whichever of the PA/NA deviations from the participant medians is larger in
magnitude (ties go to PA, and NA's counts with its sign flipped) and splits
that dominant deviation at zero: above is High, below Low.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from datetime import date
from enum import Enum
from pathlib import Path
from typing import ClassVar, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .core import (
    FORMAT_VERSION,
    SURVEY_ITEMS,
    FeatureSchema,
    Modality,
    ParticipantTimeline,
    RawJSONPieces,
    dump_json,
    from_json,
    ordinals,
    read_json,
    to_json,
)
from .errors import ConfigError, InputFormatError, InsufficientDataError, PipelineError, SchemaError
from .impute import fill_residual_with_participant_mean

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
    if isinstance(name, str) and name[len("item:"):] in SURVEY_ITEMS:
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
        if not 0.0 <= self.middle_band < 1.0:
            raise SchemaError(f"labels {self.participant_id}: middle_band must be in [0, 1), got {self.middle_band}")
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
    ordered = sorted(map(float, values))
    half = 100.0 * middle_band / 2.0
    return _percentile(ordered, 50.0 - half), _percentile(ordered, 50.0 + half)


# np.percentile and np.median import numpy.ma (about 2 MB resident).  These
# two take numpy's IEEE steps on a sorted list instead, so they hold its bits,
# except that a zero may differ in sign (numpy may order 0.0 and -0.0 either
# way), which no comparison sees.


def _percentile(ordered: Sequence[float], q: float) -> float:
    """np.percentile(ordered, q): at rank v = (n - 1) * (q / 100), between
    a = ordered[floor(v)] and the next value b, with t = v - floor(v) and
    d = b - a, a + d * t below t = 0.5 and b - d * (1 - t) from there."""
    last = len(ordered) - 1
    v = last * (q / 100)
    i = math.floor(v)
    a, b = ordered[i], ordered[min(i + 1, last)]
    t, d = v - i, b - a
    return a + d * t if t < 0.5 else b - d * (1 - t)


def _median(values: Iterable[float]) -> float:
    """np.median: the middle sorted value, or the mean of the middle two."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def median_split_labels(
    values: Mapping[date, float],
    middle_band: float = 0.20,
    thresholds: tuple[float, float] | None = None,
) -> tuple[dict[date, Label], dict[date, str]]:
    """High/Low split with the middle band excluded: a value strictly above
    the upper cut point is High, strictly below the lower one Low.

    `thresholds` overrides the per-call percentile computation (pooled mode).
    """
    if len(values) < 10:
        raise InsufficientDataError("insufficient label data")
    if thresholds is None:
        thresholds = percentile_thresholds(list(values.values()), middle_band)
    return _split(values, *thresholds)


def _split(values: Mapping[date, float], lo: float, hi: float) -> tuple[dict[date, Label], dict[date, str]]:
    """High above ``hi``, Low below ``lo``, and the rest excluded as middle_band."""
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


def compiled_mood_labels(
    pa: Mapping[date, float],
    na: Mapping[date, float],
    medians: tuple[float, float] | None = None,
) -> tuple[dict[date, Label], dict[date, str]]:
    """High/Low by a split at zero of each day's dominant deviation.

    The dominant deviation is PA's when |dev_pa| >= |dev_na|, else NA's with
    its sign flipped; above zero is High, below Low.  A dominant deviation of
    exactly 0 means both are 0; the day is excluded as middle_band.
    """
    if set(pa) != set(na):
        raise SchemaError("pa and na date sets differ")
    if not pa:
        raise InsufficientDataError("no days to label")
    if medians is None:
        med_pa, med_na = _median(pa.values()), _median(na.values())
    else:
        med_pa, med_na = medians
    dominant: dict[date, float] = {}
    for day in pa:
        dev_pa, dev_na = pa[day] - med_pa, na[day] - med_na
        dominant[day] = dev_pa if abs(dev_pa) >= abs(dev_na) else -dev_na
    return _split(dominant, 0.0, 0.0)


def _target_values(
    timeline: ParticipantTimeline, target: TargetSpec
) -> tuple[list[dict[date, float]], dict[date, str]]:
    """The target's per-day values, one map per composite it needs (PA and
    NA for compiled mood, else its one composite or item), over the days
    that have all of them; plus the reported days that lack one, excluded
    as missing_affect.  Days without a report are in neither.
    """
    affect = timeline.affect
    composites = {"pa": [affect.pa], "na": [affect.na], "compiled_mood": [affect.pa, affect.na]}
    columns = composites.get(target.kind) or [affect.column(target.item_id)]  # type: ignore[arg-type]
    # Column by column: a days x columns array here raised the peak memory
    # of a cohort run's label stage (scripts/stage_peaks.py).
    has = ~np.isnan(columns[0])
    for column in columns[1:]:
        has &= ~np.isnan(column)
    days = [timeline.dates[i] for i in np.flatnonzero(has)]
    missing = [timeline.dates[i] for i in np.flatnonzero(affect.reported & ~has)]
    return [dict(zip(days, column[has].tolist())) for column in columns], dict.fromkeys(missing, EXCLUDE_MISSING_AFFECT)


def build_labels(
    timeline: ParticipantTimeline,
    target: TargetSpec,
    middle_band: float = 0.20,
    alignment: str = "next_day",
) -> LabelSet:
    """Label one participant's timeline for the given target."""
    return build_labels_cohort([timeline], target, middle_band, alignment)[0]


def build_labels_cohort(
    timelines: Sequence[ParticipantTimeline],
    target: TargetSpec,
    middle_band: float = 0.20,
    alignment: str = "next_day",
) -> list[LabelSet]:
    """Label every timeline; pooled scope shares cut points across the cohort:
    the PA and NA medians for compiled mood, else percentile_thresholds."""
    mood = target.kind == "compiled_mood"
    read = [_target_values(tl, target) for tl in timelines]
    cuts = None
    if target.scope == "pooled":
        pooled = [[v for maps, _ in read for v in maps[side].values()] for side in range(2 if mood else 1)]
        if mood:
            if not pooled[0]:
                raise InsufficientDataError("no complete composite days in cohort")
            cuts = (_median(pooled[0]), _median(pooled[1]))
        else:
            if len(pooled[0]) < 10:
                raise InsufficientDataError("insufficient label data")
            cuts = percentile_thresholds(pooled[0], middle_band)
    label_sets = []
    for tl, (maps, missing) in zip(timelines, read):
        if mood:
            entries, excluded = compiled_mood_labels(*maps, medians=cuts)
        else:
            entries, excluded = median_split_labels(*maps, middle_band, thresholds=cuts)
        excluded.update(missing)
        label_sets.append(
            LabelSet(
                participant_id=tl.participant_id,
                target=target,
                entries=entries,
                excluded=excluded,
                middle_band=middle_band,
                alignment=alignment,
            )
        )
    return label_sets


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
    fallback="participant-mean" first runs the impute stage's participant-mean
    fallback (fill_residual_with_participant_mean) over the whole timeline.
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
    lag = 1 if labels.alignment == "next_day" else 0
    label_days = sorted(labels.entries)
    rows = timeline.rows_at(ordinals(label_days) - lag)
    y = np.array([labels.entries[d] is Label.HIGH for d in label_days], dtype=np.int8)[rows >= 0]
    rows = rows[rows >= 0]
    if fallback == "participant-mean":
        timeline = fill_residual_with_participant_mean(timeline)
    X = timeline.columns(feature_ids)[rows]
    keep = ~np.isnan(X).any(axis=1)
    if not keep.any():
        raise InsufficientDataError("no labeled days align with feature days")
    return Dataset(
        feature_ids=feature_ids,
        X=X[keep],
        y=y[keep],
        dates=tuple(timeline.dates[r] for r in rows[keep]),
        participant_ids=tuple([timeline.participant_id] * int(keep.sum())),
        target=labels.target,
        alignment=labels.alignment,
    )


def _agreeing(parts: Sequence[Dataset]) -> Dataset:
    """The first of ``parts``, once every part has its feature columns,
    target and alignment."""
    if not parts:
        raise InsufficientDataError("no datasets to concatenate")
    first = parts[0]
    for part in parts[1:]:
        if part.feature_ids != first.feature_ids:
            raise SchemaError("datasets disagree on feature columns")
        if part.target != first.target or part.alignment != first.alignment:
            raise SchemaError("datasets disagree on target/alignment")
    return first


def concat_datasets(parts: Sequence[Dataset]) -> Dataset:
    first = _agreeing(parts)
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


def dataset_to_dict(*parts: Dataset) -> dict:
    """The document of the dataset ``parts`` make in order, the same as
    that of concat_datasets(parts) but with no pooled copy: its ``rows``
    are rendered as canonical JSON text one row at a time while it is
    written (see RawJSONPieces).

    A row is one % template: its date, its features as %r of Python floats,
    its label and its participant id as JSON.  Parts that concat_datasets
    refuses, or a non-finite feature value, raise PipelineError here,
    before any text is rendered.
    """
    first = _agreeing(parts)
    for ds in parts:
        finite = np.isfinite(ds.X)
        if not finite.all():
            row, col = np.argwhere(~finite)[0]
            raise PipelineError(
                f"dataset {ds.participant_ids[row]}: {ds.dates[row]} {ds.feature_ids[col]!r}: "
                f"{ds.X[row, col]} is not a finite number"
            )
    features = ",".join(["%r"] * len(first.feature_ids))
    row_template = '{"date":"%s","features":[' + features + '],"label":%d,"participant_id":%s}'

    def rows() -> Iterator[str]:
        yield "["
        pid, pid_text, opening = None, "", ""
        for ds in parts:
            for values, day, label, participant in zip(ds.X, ds.dates, ds.y.tolist(), ds.participant_ids):
                if participant != pid:
                    pid, pid_text = participant, json.dumps(participant)
                yield opening + row_template % (day.isoformat(), *values.tolist(), label, pid_text)
                opening = ","
        yield "]"

    doc = to_json(_DatasetDocument(first.feature_ids, first.target, (), first.alignment))
    doc["rows"] = RawJSONPieces(rows)
    return doc


def dataset_from_dict(payload: dict) -> Dataset:
    doc = from_json(_DatasetDocument, payload, "dataset")
    shape = (len(doc.rows), len(doc.feature_ids))
    path = "dataset.rows[].features"
    X = from_json(np.ndarray, [r.features for r in doc.rows], path) if doc.rows else np.empty(shape)
    if X.shape != shape:
        raise InputFormatError(f"{path}: expected {shape[0]} rows of {shape[1]} numbers")
    seen = set()
    for row in doc.rows:
        if (row.participant_id, row.date) in seen:
            raise InputFormatError(f"dataset: participant {row.participant_id!r} has a second row on {row.date}")
        seen.add((row.participant_id, row.date))
    return Dataset(
        feature_ids=doc.feature_ids,
        X=X.astype(float, copy=False),
        y=np.array([r.label for r in doc.rows], dtype=np.int64),
        dates=tuple(r.date for r in doc.rows),
        participant_ids=tuple(r.participant_id for r in doc.rows),
        target=doc.target,
        alignment=doc.alignment,
    )


def save_dataset(path: Path | str, *parts: Dataset) -> None:
    """Write the dataset ``parts`` make in order (see dataset_to_dict)."""
    dump_json(path, dataset_to_dict(*parts))


def load_dataset(path: Path | str) -> Dataset:
    return dataset_from_dict(read_json(path))
