"""File-based ingestion: per-modality CSV parsing and daily aggregation.

Raw files carry one row per intraday sample.  Features reported once per day
are encoded as a single row with duration 1440.  Values observed several times
a day are combined by a duration-weighted average.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from datetime import date
from itertools import repeat
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .core import (
    CODE_MEASURED,
    CODE_MISSING,
    SURVEY_ITEMS,
    AffectReport,
    DailyAffect,
    FeatureSchema,
    Modality,
    ParticipantTimeline,
    iso_date,
)
from .errors import InputFormatError, MissingInputError, SchemaError

MODALITY_HEADER = ["date", "feature_id", "value", "duration_min"]
AFFECT_HEADER = ["date", "item_id", "rating"]


# One record per raw sample; feature ids are str objects.
SAMPLE_DTYPE = np.dtype(
    [("day", "datetime64[D]"), ("feature_id", object), ("value", float), ("duration_min", float)]
)


@dataclass(frozen=True, eq=False)
class RawSampleFile:
    """One modality file of a participant; ``rows`` holds one SAMPLE_DTYPE
    record per sample, in file order."""

    participant_id: str
    modality: Modality
    rows: np.ndarray


def sample_rows(day, feature_id, value, duration_min) -> np.ndarray:
    """A SAMPLE_DTYPE array from its four columns."""
    # np.empty fills the object field item by item, np.zeros at once.
    rows = np.zeros(len(value), SAMPLE_DTYPE)
    rows["day"], rows["feature_id"], rows["value"], rows["duration_min"] = (
        day, feature_id, value, duration_min
    )
    return rows


def _distinct(texts: Sequence[str]) -> tuple[list[str], np.ndarray]:
    """The distinct texts in the order first seen, and the index of each
    text into them."""
    index = {text: k for k, text in enumerate(dict.fromkeys(texts))}
    return list(index), np.fromiter(map(index.__getitem__, texts), np.intp, len(texts))


def _attempt(parse, text: str):
    """parse(text), or the ValueError it raises."""
    try:
        return parse(text)
    except ValueError as exc:
        return exc


def _floats(texts: Sequence[str]) -> tuple[np.ndarray, dict[int, str]]:
    """float() of each text, NaN where it refuses one, and the message of
    each refusal by row."""
    try:
        return np.fromiter(map(float, texts), float, len(texts)), {}
    except ValueError:
        parsed = [_attempt(float, text) for text in texts]
    refused = {i: str(p) for i, p in enumerate(parsed) if isinstance(p, ValueError)}
    return np.array([np.nan if i in refused else p for i, p in enumerate(parsed)], dtype=float), refused


def _plain_fields(text: str, header: list[str]) -> list[str] | None:
    """The fields of the data lines of a plain CSV text, line by line; None
    when ``text`` is not plain.

    Plain means: the exact header, every line ending in \\n, or every one in
    \\r\\n, no quote, lone \\r or NUL, and every line with the header's field
    count and no more characters than csv.reader takes in one field.
    csv.reader reads such a text as these fields.
    """
    if '"' in text or "\0" in text:
        return None
    returns = text.count("\r")
    lines = text.split("\r\n" if returns else "\n")
    if (returns and not returns == len(lines) - 1 == text.count("\n")) or lines[0] != ",".join(header):
        return None
    del lines[0]
    if lines and not lines[-1]:
        lines.pop()
    if set(map(str.count, lines, repeat(","))) - {len(header) - 1} or (
        max(map(len, lines), default=0) > csv.field_size_limit()
    ):
        return None
    if not lines:
        return []
    # Let the lines go before the joined text is split.
    joined = ",".join(lines)
    del lines
    return joined.split(",")


def _read_columns(path: Path, header: list[str]) -> tuple[np.ndarray, np.ndarray, tuple[Sequence[str], ...]]:
    """The width and line number of each non-blank record of a CSV file
    after its header, and its columns (a record of another width stands in
    as empty fields).  A plain file is split directly, any other goes
    through csv.reader; both give the same records.  A file that is not
    UTF-8, has another header or that csv.reader refuses raises
    InputFormatError naming the file."""
    if not path.exists():
        raise MissingInputError(f"no such file: {path}")
    try:
        with path.open(newline="", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{path}: not UTF-8 text ({exc})") from None
    width = len(header)
    fields = _plain_fields(text, header)
    if fields is not None:
        n = len(fields) // width
        columns = tuple(fields[k::width] for k in range(width))
        return np.full(n, width), np.arange(2, n + 2), columns
    reader = csv.reader(io.StringIO(text, newline=""))
    records, ends = [], []
    try:
        if next(reader, None) != header:
            raise InputFormatError(f"{path}: expected header {','.join(header)}")
        # The line each record ends on; a quoted field may span lines.
        ends.append(reader.line_num)
        for record in reader:
            records.append(record)
            ends.append(reader.line_num)
    except csv.Error as exc:
        raise InputFormatError(f"{path}:{reader.line_num}: {exc}") from None
    # Blank lines are skipped; they count in the line numbers.  A record
    # starts on the line after the one before it ends.
    widths = np.fromiter(map(len, records), np.intp, len(records))
    lines = np.array(ends[:-1], dtype=np.intp)[widths > 0] + 1
    columns = tuple(zip(*(r if len(r) == width else [""] * width for r in records if r)))
    return widths[widths > 0], lines, columns or ((),) * width


def parse_modality_file(
    path: Path | str,
    schema: FeatureSchema,
    modality: Modality,
    participant_id: str,
) -> RawSampleFile:
    """Parse one modality CSV, validating every row against the schema.

    Raises InputFormatError with the offending line number for malformed rows,
    SchemaError for unknown features or features of a different modality.
    The checks run over whole columns and report what a row-by-row reading
    meets first: the earliest bad line, and on it the earliest check.
    """
    path = Path(path)
    widths, lines, (day_texts, fids, value_texts, duration_texts) = _read_columns(path, MODALITY_HEADER)

    # Dates, schema and modality once per distinct text; numbers by column.
    distinct_days, day_codes = _distinct(day_texts)
    days = [_attempt(iso_date, text) for text in distinct_days]
    day_refused = np.array([isinstance(d, ValueError) for d in days], dtype=bool)
    values, value_refused = _floats(value_texts)
    durations, duration_refused = _floats(duration_texts)
    distinct_fids, codes = _distinct(fids)
    specs = [schema.spec_of(fid) if schema.has(fid) else None for fid in distinct_fids]

    def per_row(flags: list[bool]) -> np.ndarray:
        return np.array(flags, dtype=bool)[codes]

    # (rows failing, error class, message) in the order each row is checked
    checks = [
        (widths != 4, InputFormatError, lambda i: f"expected 4 fields, got {widths[i]}"),
        (day_refused[day_codes], InputFormatError, lambda i: str(days[day_codes[i]])),
        (_refused_rows(value_refused, len(fids)), InputFormatError, value_refused.get),
        (_refused_rows(duration_refused, len(fids)), InputFormatError, duration_refused.get),
        (
            ~(np.isfinite(values) & np.isfinite(durations)),
            InputFormatError,
            lambda i: "value and duration must be finite",
        ),
        (per_row([spec is None for spec in specs]), SchemaError, lambda i: f"unknown feature id {fids[i]!r}"),
        (
            per_row([spec is not None and spec.modality is not modality for spec in specs]),
            SchemaError,
            lambda i: f"feature {fids[i]!r} belongs to {specs[codes[i]].modality.value}, "
            f"file declared {modality.value}",
        ),
        (~(durations > 0), InputFormatError, lambda i: f"duration must be > 0, got {float(durations[i])}"),
        (
            per_row([spec is not None and spec.kind == "boolean" for spec in specs])
            & (values != 0.0)
            & (values != 1.0),
            InputFormatError,
            lambda i: f"boolean feature {fids[i]!r} must be 0 or 1, got {float(values[i])}",
        ),
    ]
    _raise_first(path, lines, checks)
    day_array = np.array(days, dtype="datetime64[D]")[day_codes]
    rows = sample_rows(day_array, np.array(distinct_fids, dtype=object)[codes], values, durations)
    return RawSampleFile(participant_id=participant_id, modality=modality, rows=rows)


def _refused_rows(refused: dict[int, str], n: int) -> np.ndarray:
    """A mask of the n rows, true at each refused row."""
    rows = np.zeros(n, dtype=bool)
    rows[list(refused)] = True
    return rows


def _raise_first(path: Path, lines: np.ndarray, checks: list) -> None:
    """Raise the error of the earliest failing row, and on it of the
    earliest failing check, with its line number; checks holds (rows
    failing, error class, message of a row) in the order each row is checked."""
    failed = np.array([rows for rows, _, _ in checks])
    bad = np.flatnonzero(failed.any(axis=0))
    if bad.size:
        i = bad[0]
        _, error, message = checks[np.argmax(failed[:, i])]
        raise error(f"{path}:{lines[i]}: {message(i)}")


def parse_affect_file(path: Path | str) -> dict[date, AffectReport]:
    """Parse an affect CSV into per-day reports (possibly partial), one per
    date in the order first seen, its items in file order.  The checks run
    over whole columns, as in parse_modality_file."""
    path = Path(path)
    widths, lines, (day_texts, item_ids, rating_texts) = _read_columns(path, AFFECT_HEADER)
    distinct_days, day_codes = _distinct(day_texts)
    days = [_attempt(iso_date, text) for text in distinct_days]
    day_refused = np.array([isinstance(d, ValueError) for d in days], dtype=bool)
    ratings, rating_refused = _floats(rating_texts)
    distinct_items, item_codes = _distinct(item_ids)
    unknown = np.array([item_id not in SURVEY_ITEMS for item_id in distinct_items], dtype=bool)[item_codes]
    # A rating repeats an earlier one when its date and item are the same;
    # a date has one spelling, so one text.
    pairs = day_codes * len(distinct_items) + item_codes
    order = np.argsort(pairs, kind="stable")
    repeated = np.zeros(len(pairs), dtype=bool)
    repeated[order[1:]] = pairs[order[1:]] == pairs[order[:-1]]
    checks = [
        (widths != 3, InputFormatError, lambda i: f"expected 3 fields, got {widths[i]}"),
        (day_refused[day_codes], InputFormatError, lambda i: str(days[day_codes[i]])),
        (_refused_rows(rating_refused, len(item_ids)), InputFormatError, rating_refused.get),
        (unknown, InputFormatError, lambda i: f"unknown affect item {item_ids[i]!r}"),
        (~((ratings >= 0.0) & (ratings <= 100.0)), InputFormatError,
         lambda i: f"rating out of [0, 100]: {float(ratings[i])}"),
        (repeated, InputFormatError,
         lambda i: f"duplicate rating for {item_ids[i]!r} on {days[day_codes[i]]}"),
    ]
    _raise_first(path, lines, checks)
    # The rows of each date together, dates in the order first seen; every
    # report holds the one str object of each item id.
    order = np.argsort(day_codes, kind="stable")
    bounds = np.searchsorted(day_codes[order], np.arange(len(days) + 1)).tolist()
    items = np.array(distinct_items, dtype=object)[item_codes[order]].tolist()
    rated = ratings[order].tolist()
    return {
        day: AffectReport(day, dict(zip(items[a:b], rated[a:b])))
        for day, a, b in zip(days, bounds, bounds[1:])
    }


def build_timeline(
    files: Sequence[RawSampleFile],
    participant_id: str,
    affect_reports: Iterable[AffectReport],
    schema: FeatureSchema,
) -> ParticipantTimeline:
    """Merge one participant's modality files and affect reports into their
    timeline; a file of another participant is refused.

    Every date seen in any input gets a row; a feature's daily value is the
    duration-weighted mean of its samples that day, and features without
    samples on a day are marked missing so imputation can consider them later.
    """
    reports = list(affect_reports)
    if not files and not reports:
        raise InputFormatError("nothing to build a timeline from")
    pids = {participant_id, *(f.participant_id for f in files)}
    if len(pids) > 1:
        raise SchemaError(f"files span multiple participants: {sorted(pids)}")

    affect_by_day: dict[date, AffectReport] = {}
    for report in reports:
        if report.day in affect_by_day:
            raise InputFormatError(f"duplicate affect report for {report.day}")
        affect_by_day[report.day] = report

    feature_ids = schema.feature_ids()
    column = {fid: j for j, fid in enumerate(feature_ids)}
    # The distinct days by sorting: np.unique would import numpy.ma (about
    # 1.7 MB), which no stage of a run needs.
    report_days = np.array(list(affect_by_day), dtype="datetime64[D]")
    days = np.sort(np.concatenate([report_days] + [f.rows["day"] for f in files]))
    first = np.ones(days.size, dtype=bool)
    first[1:] = days[1:] != days[:-1]
    days = days[first]
    dates = tuple(days.tolist())
    shape = (len(dates), len(feature_ids))
    # Sums in sample order, as the per-cell sum of value * duration over the
    # sum of durations; a cell sampled in two files is ambiguous and rejected.
    weighted, duration, measured = np.zeros(shape), np.zeros(shape), np.zeros(shape, dtype=bool)
    for f in files:
        fids = f.rows["feature_id"]
        try:
            columns = np.fromiter(map(column.__getitem__, fids), np.intp, len(fids))
        except KeyError as exc:
            raise SchemaError(f"unknown feature id {exc.args[0]!r}") from None
        cell = (np.searchsorted(days, f.rows["day"]), columns)
        clash = np.flatnonzero(measured[cell])
        if clash.size:
            raise InputFormatError(
                f"duplicate samples for {fids[clash[0]]!r} on {dates[cell[0][clash[0]]]} "
                f"across {f.modality.value} files"
            )
        minutes = f.rows["duration_min"]
        np.add.at(weighted, cell, f.rows["value"] * minutes)
        np.add.at(duration, cell, minutes)
        measured[cell] = True
    return ParticipantTimeline(
        participant_id=participant_id,
        feature_ids=feature_ids,
        dates=dates,
        values=np.divide(weighted, duration, out=np.full(shape, np.nan), where=measured),
        provenance=np.where(measured, CODE_MEASURED, CODE_MISSING).astype(np.int8),
        affect=DailyAffect.from_reports(len(dates), np.searchsorted(days, report_days), reports),
    )


def _csv_field(text: str) -> str:
    """``text`` as csv.writer writes it inside a row (quoted if it must be)."""
    buffer = io.StringIO()
    csv.writer(buffer).writerow(["", text, ""])
    return buffer.getvalue()[1:-3]


def write_modality_csv(path: Path | str, rows: np.ndarray) -> None:
    """Write samples as csv.writer writes them, each feature id encoded once."""
    fids = rows["feature_id"].tolist()
    encoded = {fid: _csv_field(fid) for fid in dict.fromkeys(fids)}
    lines = zip(
        np.datetime_as_string(rows["day"]).tolist(),
        map(encoded.__getitem__, fids),
        map(repr, rows["value"].tolist()),
        map(repr, rows["duration_min"].tolist()),
    )
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        handle.write("\r\n".join([",".join(MODALITY_HEADER), *map(",".join, lines), ""]))


def write_affect_csv(path: Path | str, reports: Iterable[AffectReport]) -> None:
    """Write one row per rating, as csv.writer writes them, items sorted within a day."""
    lines = [",".join(AFFECT_HEADER)]
    encoded: dict[str, str] = {}
    for report in reports:
        day = report.day.isoformat()
        for item_id in sorted(report.items):
            if item_id not in encoded:
                encoded[item_id] = _csv_field(item_id)
            lines.append(f"{day},{encoded[item_id]},{report.items[item_id]!r}")
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        handle.write("\r\n".join([*lines, ""]))
