"""File-based ingestion: per-modality CSV parsing and daily aggregation.

Raw files carry one row per intraday sample.  Features reported once per day
are encoded as a single row with duration 1440.  Values observed several times
a day are combined by a duration-weighted average.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .core import (
    CODE_MEASURED,
    CODE_MISSING,
    AffectReport,
    FeatureSchema,
    ItemPolarity,
    Modality,
    ParticipantTimeline,
)
from .errors import InputFormatError, MissingInputError, SchemaError

MODALITY_HEADER = ["date", "feature_id", "value", "duration_min"]
AFFECT_HEADER = ["date", "item_id", "rating"]


@dataclass(frozen=True)
class RawSampleRow:
    day: date
    feature_id: str
    value: float
    duration_min: float


@dataclass(frozen=True)
class RawSampleFile:
    participant_id: str
    modality: Modality
    rows: tuple[RawSampleRow, ...]


def parse_modality_file(
    path: Path | str,
    schema: FeatureSchema,
    modality: Modality,
    participant_id: str,
) -> RawSampleFile:
    """Parse one modality CSV, validating every row against the schema.

    Raises InputFormatError with the offending line number for malformed rows,
    SchemaError for unknown features or features of a different modality.
    """
    path = Path(path)
    if not path.exists():
        raise MissingInputError(f"no such file: {path}")
    rows: list[RawSampleRow] = []
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != MODALITY_HEADER:
            raise InputFormatError(f"{path}: expected header {','.join(MODALITY_HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise InputFormatError(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
            try:
                day = date.fromisoformat(row[0])
                value = float(row[2])
                duration = float(row[3])
            except ValueError as exc:
                raise InputFormatError(f"{path}:{lineno}: {exc}") from exc
            if not (math.isfinite(value) and math.isfinite(duration)):
                raise InputFormatError(f"{path}:{lineno}: value and duration must be finite")
            fid = row[1]
            if not schema.has(fid):
                raise SchemaError(f"{path}:{lineno}: unknown feature id {fid!r}")
            spec = schema.spec_of(fid)
            if spec.modality is not modality:
                raise SchemaError(
                    f"{path}:{lineno}: feature {fid!r} belongs to {spec.modality.value}, "
                    f"file declared {modality.value}"
                )
            if not duration > 0:
                raise InputFormatError(f"{path}:{lineno}: duration must be > 0, got {duration}")
            if spec.kind == "boolean" and value not in (0.0, 1.0):
                raise InputFormatError(
                    f"{path}:{lineno}: boolean feature {fid!r} must be 0 or 1, got {value}"
                )
            rows.append(RawSampleRow(day, fid, value, duration))
    return RawSampleFile(participant_id=participant_id, modality=modality, rows=tuple(rows))


def parse_affect_file(
    path: Path | str, polarity: ItemPolarity, participant_id: str
) -> dict[date, AffectReport]:
    """Parse an affect CSV into per-day reports (possibly partial)."""
    path = Path(path)
    if not path.exists():
        raise MissingInputError(f"no such file: {path}")
    known = set(polarity.all_items())
    by_day: dict[date, dict[str, float]] = {}
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != AFFECT_HEADER:
            raise InputFormatError(f"{path}: expected header {','.join(AFFECT_HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise InputFormatError(f"{path}:{lineno}: expected 3 fields, got {len(row)}")
            try:
                day = date.fromisoformat(row[0])
                rating = float(row[2])
            except ValueError as exc:
                raise InputFormatError(f"{path}:{lineno}: {exc}") from exc
            item_id = row[1]
            if item_id not in known:
                raise InputFormatError(f"{path}:{lineno}: unknown affect item {item_id!r}")
            if not 0.0 <= rating <= 100.0:
                raise InputFormatError(
                    f"{path}:{lineno}: rating out of [0, 100]: {rating}"
                )
            items = by_day.setdefault(day, {})
            if item_id in items:
                raise InputFormatError(f"{path}:{lineno}: duplicate rating for {item_id!r} on {day}")
            items[item_id] = rating
    return {
        day: AffectReport.from_items(day, items, polarity) for day, items in by_day.items()
    }


def build_timeline(
    files: Sequence[RawSampleFile],
    affect_reports: Iterable[AffectReport],
    schema: FeatureSchema,
) -> ParticipantTimeline:
    """Merge modality files and affect reports into one participant timeline.

    Every date seen in any input gets a row; a feature's daily value is the
    duration-weighted mean of its samples that day, and features without
    samples on a day are marked missing so imputation can consider them later.
    """
    if not files and not affect_reports:
        raise InputFormatError("nothing to build a timeline from")
    pids = {f.participant_id for f in files}
    if len(pids) > 1:
        raise SchemaError(f"files span multiple participants: {sorted(pids)}")
    participant_id = next(iter(pids)) if pids else ""

    affect_by_day: dict[date, AffectReport] = {}
    for report in affect_reports:
        if report.day in affect_by_day:
            raise InputFormatError(f"duplicate affect report for {report.day}")
        affect_by_day[report.day] = report

    feature_ids = schema.feature_ids()
    column = {fid: j for j, fid in enumerate(feature_ids)}
    sample_days = [[row.day for row in f.rows] for f in files]
    dates = sorted(set(affect_by_day).union(*sample_days))
    row_of = {day: i for i, day in enumerate(dates)}
    shape = (len(dates), len(feature_ids))
    # Sums in sample order, as the per-cell sum of value * duration over the
    # sum of durations; a cell sampled in two files is ambiguous and rejected.
    weighted, duration, measured = np.zeros(shape), np.zeros(shape), np.zeros(shape, dtype=bool)
    for f, days in zip(files, sample_days):
        try:
            cell = (
                np.array([row_of[day] for day in days], dtype=np.intp),
                np.array([column[row.feature_id] for row in f.rows], dtype=np.intp),
            )
        except KeyError as exc:
            raise SchemaError(f"unknown feature id {exc.args[0]!r}") from None
        clash = np.flatnonzero(measured[cell])
        if clash.size:
            row = f.rows[clash[0]]
            raise InputFormatError(
                f"duplicate samples for {row.feature_id!r} on {row.day} across {f.modality.value} files"
            )
        minutes = np.array([row.duration_min for row in f.rows], dtype=float)
        np.add.at(weighted, cell, np.array([row.value for row in f.rows], dtype=float) * minutes)
        np.add.at(duration, cell, minutes)
        measured[cell] = True
    return ParticipantTimeline(
        participant_id=participant_id,
        feature_ids=feature_ids,
        dates=tuple(dates),
        values=np.divide(weighted, duration, out=np.full(shape, np.nan), where=measured),
        provenance=np.where(measured, CODE_MEASURED, CODE_MISSING).astype(np.int8),
        affect=tuple(affect_by_day.get(day) for day in dates),
    )


def write_modality_csv(path: Path | str, rows: Iterable[RawSampleRow]) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(MODALITY_HEADER)
        for row in rows:
            writer.writerow([row.day.isoformat(), row.feature_id, repr(row.value), repr(row.duration_min)])


def write_affect_csv(path: Path | str, reports: Iterable[AffectReport]) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(AFFECT_HEADER)
        for report in reports:
            for item_id in sorted(report.items):
                writer.writerow([report.day.isoformat(), item_id, repr(report.items[item_id])])
