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

from .core import (
    AffectReport,
    DailyFeatureVector,
    FeatureSchema,
    ItemPolarity,
    Modality,
    ParticipantTimeline,
    Provenance,
    TimelineDay,
)
from .errors import InputFormatError, MissingInputError, NoDataError, SchemaError

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


def aggregate_day(samples: Sequence) -> float:
    """Duration-weighted average of one feature's samples for one day."""
    if not samples:
        raise NoDataError("no samples to aggregate")
    fids = {s.feature_id for s in samples}
    if len(fids) != 1:
        raise SchemaError(f"aggregate_day got mixed features: {sorted(fids)}")
    total = sum(s.duration_min for s in samples)
    return sum(s.value * s.duration_min for s in samples) / total


def build_timeline(
    files: Sequence[RawSampleFile],
    affect_reports: Iterable[AffectReport],
    schema: FeatureSchema,
) -> ParticipantTimeline:
    """Merge modality files and affect reports into one participant timeline.

    Every date seen in any input is materialized; features without samples on
    a day are marked missing so imputation can consider them later.
    """
    if not files and not affect_reports:
        raise InputFormatError("nothing to build a timeline from")
    pids = {f.participant_id for f in files}
    if len(pids) > 1:
        raise SchemaError(f"files span multiple participants: {sorted(pids)}")
    participant_id = next(iter(pids)) if pids else ""

    # (date, feature) -> samples; a pair sourced from two files of the same
    # modality is ambiguous and rejected.
    samples: dict[tuple[date, str], list[RawSampleRow]] = {}
    origin: dict[tuple[date, str], int] = {}
    for idx, f in enumerate(files):
        for row in f.rows:
            key = (row.day, row.feature_id)
            if key in origin and origin[key] != idx:
                raise InputFormatError(
                    f"duplicate samples for {row.feature_id!r} on {row.day} "
                    f"across {f.modality.value} files"
                )
            origin[key] = idx
            samples.setdefault(key, []).append(row)

    affect_by_day: dict[date, AffectReport] = {}
    for report in affect_reports:
        if report.day in affect_by_day:
            raise InputFormatError(f"duplicate affect report for {report.day}")
        affect_by_day[report.day] = report

    all_dates = sorted({d for d, _ in samples} | set(affect_by_day))
    feature_ids = schema.feature_ids()
    days = []
    for day in all_dates:
        values: dict[str, float | None] = {}
        provenance: dict[str, Provenance] = {}
        for fid in feature_ids:
            rows = samples.get((day, fid))
            if rows:
                values[fid] = aggregate_day(rows)
                provenance[fid] = Provenance.MEASURED
            else:
                values[fid] = None
                provenance[fid] = Provenance.MISSING
        days.append(
            TimelineDay(
                day=day,
                features=DailyFeatureVector(day=day, values=values, provenance=provenance),
                affect=affect_by_day.get(day),
            )
        )
    return ParticipantTimeline(participant_id=participant_id, days=tuple(days))


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
