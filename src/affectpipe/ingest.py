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
from functools import partial
from itertools import chain, islice, repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TextIO

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

# CSV text is read, checked and converted about this many characters at a
# time, and written this many lines at a time (a sample's line is under 64
# characters); no stage holds a whole file's text or a str per field.
_BLOCK_CHARS = 1 << 16
_BLOCK_LINES = _BLOCK_CHARS // 64


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


class _Distinct:
    """Distinct texts in the order first seen, each with parse(text) at the
    same index in ``parsed``."""

    def __init__(self, parse: Callable[[str], object]) -> None:
        self.parse, self.index, self.parsed = parse, {}, []

    def codes(self, texts: Sequence[str]) -> np.ndarray:
        """The index of each text, those not seen before added in order."""
        for text in dict.fromkeys(texts):
            if text not in self.index:
                self.index[text] = len(self.parsed)
                self.parsed.append(self.parse(text))
        return np.fromiter(map(self.index.__getitem__, texts), np.intp, len(texts))

    def objects(self, codes: np.ndarray) -> np.ndarray:
        """The text of each code, one str object per distinct text."""
        return np.array(list(self.index), dtype=object)[codes]


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


def _plain_lines(text: str, width: int) -> list[str] | None:
    """The fields of the lines of a plain CSV text, line by line; None when
    ``text`` is not plain.

    Plain means: every line ending in \\n, or every one in \\r\\n (the last
    may end the text instead), no quote, lone \\r or NUL, and every line with
    ``width`` fields and no more characters than csv.reader takes in one
    field.  csv.reader reads such lines as these fields.
    """
    if '"' in text or "\0" in text:
        return None
    returns = text.count("\r")
    lines = text.split("\r\n" if returns else "\n")
    if returns and not returns == len(lines) - 1 == text.count("\n"):
        return None
    if lines and not lines[-1]:
        lines.pop()
    if set(map(str.count, lines, repeat(","))) - {width - 1} or (
        max(map(len, lines), default=0) > csv.field_size_limit()
    ):
        return None
    if not lines:
        return []
    # Let the lines go before the joined text is split.
    joined = ",".join(lines)
    del lines
    return joined.split(",")


def _plain_fields(text: str, header: list[str]) -> list[str] | None:
    """The fields of the data lines of a plain CSV text (see _plain_lines)
    that starts with the exact header; None when ``text`` is not that."""
    fields = _plain_lines(text, len(header))
    if fields is None or fields[:len(header)] != header:
        return None
    del fields[:len(header)]
    return fields


def _chunks(handle: TextIO) -> Iterator[str]:
    """The text ``handle`` reads, in pieces of about _BLOCK_CHARS characters
    that each end at a line end (\\n), but the last; a line longer than that
    is one piece."""
    pending: list[str] = []
    while piece := handle.read(_BLOCK_CHARS):
        cut = piece.rfind("\n") + 1
        if cut:
            pending.append(piece[:cut])
            yield "".join(pending)
            pending = []
        pending.append(piece[cut:])
    if tail := "".join(pending):
        yield tail


def _refusal(rest: Iterator[str], message: str) -> InputFormatError:
    """InputFormatError(message), once the rest of the text has been read:
    a file that is not UTF-8 is refused as such first, as when it is read
    whole."""
    for _ in rest:
        pass
    return InputFormatError(message)


def _decode_error(path: Path) -> UnicodeDecodeError | None:
    """What decoding the whole file at once raises: its position counts
    from the file's first byte, not from that of a piece.  None where a
    second reading gives other bytes, as a pipe does."""
    try:
        path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        return exc
    return None


_Block = tuple[np.ndarray, np.ndarray, tuple[Sequence[str], ...]]


def _read_blocks(path: Path, header: list[str]) -> Iterator[_Block]:
    """The width and line number of each non-blank record of a CSV file
    after its header, and its columns (a record of another width stands in
    as empty fields), a block of about _BLOCK_CHARS characters at a time.

    A plain block (see _plain_lines) is split directly; from the first that
    is not, the rest of the file goes through csv.reader; both give the
    same records.  A missing file or a directory raises MissingInputError.
    A file that is not UTF-8, has another header or that csv.reader refuses
    raises InputFormatError naming the file.
    """
    if not path.exists():
        raise MissingInputError(f"no such file: {path}")
    if path.is_dir():
        raise MissingInputError(f"not a file: {path}")
    width = len(header)
    try:
        with path.open(newline="", encoding="utf-8") as handle:
            chunks = _chunks(handle)
            chunk = next(chunks, "")
            fields = _plain_fields(chunk, header)
            # The lines of the file before the chunk's first record: none
            # when csv.reader is to read the header.
            read = 0 if fields is None else 1
            while fields is not None:
                n = len(fields) // width
                columns = tuple(fields[k::width] for k in range(width))
                del chunk, fields  # not held while the block is converted
                yield np.full(n, width), np.arange(read + 1, read + n + 1), columns
                read += n
                chunk = next(chunks, None)
                if chunk is None:
                    return
                fields = _plain_lines(chunk, width)
            yield from _csv_blocks(path, chain([chunk], chunks), header, read)
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{path}: not UTF-8 text ({_decode_error(path) or exc})") from None


def _csv_blocks(path: Path, rest: Iterator[str], header: list[str], read: int) -> Iterator[_Block]:
    """The blocks of _read_blocks from csv.reader over the rest of the text,
    which begins after line ``read`` of the file: at the header when it is 0."""
    reader = csv.reader(line for piece in rest for line in io.StringIO(piece, newline=""))
    try:
        if not read and next(reader, None) != header:
            raise _refusal(rest, f"{path}: expected header {','.join(header)}")
        # The line each record ends on; a quoted field may span lines.
        records, ends, size = [], [read + reader.line_num], 0
        for record in reader:
            records.append(record)
            ends.append(read + reader.line_num)
            size += 1 + sum(map(len, record))
            if size >= _BLOCK_CHARS:
                yield _records_block(records, ends, len(header))
                records, ends, size = [], ends[-1:], 0
    except csv.Error as exc:
        raise _refusal(rest, f"{path}:{read + reader.line_num}: {exc}") from None
    yield _records_block(records, ends, len(header))


def _records_block(records: list[list[str]], ends: list[int], width: int) -> _Block:
    """The block of _read_blocks of csv.reader's records; ends holds the
    line the record before them ends on, then the line each ends on."""
    # Blank lines are skipped; they count in the line numbers.  A record
    # starts on the line after the one before it ends.
    widths = np.fromiter(map(len, records), np.intp, len(records))
    lines = np.array(ends[:-1], dtype=np.intp)[widths > 0] + 1
    columns = tuple(zip(*(r if len(r) == width else [""] * width for r in records if r)))
    return widths[widths > 0], lines, columns or ((),) * width


def _parse_blocks(path: Path, header: list[str], parse_block) -> tuple[list, tuple[int, Exception] | None]:
    """What parse_block(widths, lines, columns) gives for each block of the
    CSV file, up to the first block whose rows fail a check, and the line
    and error of that row (see _first_error).  The rest of the file is read
    all the same: what _read_blocks refuses in it (text that is not UTF-8, a
    record csv.reader refuses) comes first, as when the file is read whole."""
    parsed, first = [], None
    for block in _read_blocks(path, header):
        if first is None:
            result, first = parse_block(*block)
            parsed.append(result)
    return parsed, first


def parse_modality_file(
    path: Path | str,
    schema: FeatureSchema,
    modality: Modality,
    participant_id: str,
) -> RawSampleFile:
    """Parse one modality CSV, validating every row against the schema.

    Raises InputFormatError with the offending line number for malformed rows,
    SchemaError for unknown features or features of a different modality.
    The checks run over whole columns of a block and report what a
    row-by-row reading meets first: the earliest bad line, and on it the
    earliest check.
    """
    path = Path(path)

    def parse_block(widths, lines, columns):
        # Dates, schema and modality once per distinct text of the block;
        # numbers by column.
        days = _Distinct(partial(_attempt, iso_date))
        features = _Distinct(lambda fid: schema.spec_of(fid) if schema.has(fid) else None)
        day_texts, fids, value_texts, duration_texts = columns
        day_codes, codes = days.codes(day_texts), features.codes(fids)
        day_refused = np.array([isinstance(d, ValueError) for d in days.parsed], dtype=bool)
        values, value_refused = _floats(value_texts)
        durations, duration_refused = _floats(duration_texts)
        specs = features.parsed

        def per_row(flags: list[bool]) -> np.ndarray:
            return np.array(flags, dtype=bool)[codes]

        # (rows failing, error class, message) in the order each row is checked
        checks = [
            (widths != 4, InputFormatError, lambda i: f"expected 4 fields, got {widths[i]}"),
            (day_refused[day_codes], InputFormatError, lambda i: str(days.parsed[day_codes[i]])),
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
        first = _first_error(path, lines, checks)
        if first:
            return None, first
        day_array = np.array(days.parsed, dtype="datetime64[D]")[day_codes]
        return sample_rows(day_array, features.objects(codes), values, durations), None

    blocks, first = _parse_blocks(path, MODALITY_HEADER, parse_block)
    if first:
        raise first[1]
    return RawSampleFile(participant_id=participant_id, modality=modality, rows=np.concatenate(blocks))


def _refused_rows(refused: dict[int, str], n: int) -> np.ndarray:
    """A mask of the n rows, true at each refused row."""
    rows = np.zeros(n, dtype=bool)
    rows[list(refused)] = True
    return rows


def _first_error(path: Path, lines: np.ndarray, checks: list) -> tuple[int, Exception] | None:
    """The line and error of the earliest failing row, and on it of the
    earliest failing check, or None; checks holds (rows failing, error
    class, message of a row) in the order each row is checked."""
    failed = np.array([rows for rows, _, _ in checks])
    bad = np.flatnonzero(failed.any(axis=0))
    if not bad.size:
        return None
    i = bad[0]
    _, error, message = checks[np.argmax(failed[:, i])]
    return lines[i], error(f"{path}:{lines[i]}: {message(i)}")


def parse_affect_file(path: Path | str) -> dict[date, AffectReport]:
    """Parse an affect CSV into per-day reports (possibly partial), one per
    date in the order first seen, its items in file order.  The checks run
    over whole columns, as in parse_modality_file."""
    path = Path(path)
    days = _Distinct(partial(_attempt, iso_date))
    items = _Distinct(SURVEY_ITEMS.__contains__)

    def parse_block(widths, lines, columns):
        day_texts, item_ids, rating_texts = columns
        day_codes, item_codes = days.codes(day_texts), items.codes(item_ids)
        day_refused = np.array([isinstance(d, ValueError) for d in days.parsed], dtype=bool)
        ratings, rating_refused = _floats(rating_texts)
        checks = [
            (widths != 3, InputFormatError, lambda i: f"expected 3 fields, got {widths[i]}"),
            (day_refused[day_codes], InputFormatError, lambda i: str(days.parsed[day_codes[i]])),
            (_refused_rows(rating_refused, len(item_ids)), InputFormatError, rating_refused.get),
            (~np.array(items.parsed, dtype=bool)[item_codes], InputFormatError,
             lambda i: f"unknown affect item {item_ids[i]!r}"),
            (~((ratings >= 0.0) & (ratings <= 100.0)), InputFormatError,
             lambda i: f"rating out of [0, 100]: {float(ratings[i])}"),
        ]
        return (day_codes, item_codes, ratings, lines), _first_error(path, lines, checks)

    blocks, first = _parse_blocks(path, AFFECT_HEADER, parse_block)
    day_codes, item_codes, ratings, lines = map(np.concatenate, zip(*blocks))
    # A rating repeats an earlier one when its date and item are the same (a
    # date has one spelling, so one text); its row fails that check last.
    pairs = day_codes * len(items.parsed) + item_codes
    order = np.argsort(pairs, kind="stable")
    repeated = np.zeros(len(pairs), dtype=bool)
    repeated[order[1:]] = pairs[order[1:]] == pairs[order[:-1]]
    if repeated.any() and (first is None or lines[repeated.argmax()] < first[0]):
        i = repeated.argmax()
        day, item_id = days.parsed[day_codes[i]], items.objects(item_codes[i])
        raise InputFormatError(f"{path}:{lines[i]}: duplicate rating for {item_id!r} on {day}")
    if first:
        raise first[1]
    # The rows of each date together, dates in the order first seen; every
    # report holds the one str object of each item id.
    order = np.argsort(day_codes, kind="stable")
    bounds = np.searchsorted(day_codes[order], np.arange(len(days.parsed) + 1)).tolist()
    item_ids = items.objects(item_codes[order]).tolist()
    rated = ratings[order].tolist()
    return {
        day: AffectReport(day, dict(zip(item_ids[a:b], rated[a:b])))
        for day, a, b in zip(days.parsed, bounds, bounds[1:])
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


class _CsvFields(dict):
    """Each text as csv.writer writes it inside a row (quoted if it must
    be), encoded once."""

    def __missing__(self, text: str) -> str:
        buffer = io.StringIO()
        csv.writer(buffer).writerow(["", text, ""])
        self[text] = field = buffer.getvalue()[1:-3]
        return field


def _write_csv(path: Path | str, header: list[str], blocks: Iterable[list[str]]) -> None:
    """Write the header and then each block of lines, every line ended by
    \r\n as csv.writer ends it."""
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\r\n")
        for lines in blocks:
            handle.write("\r\n".join([*lines, ""]))


def write_modality_csv(path: Path | str, rows: np.ndarray) -> None:
    """Write samples as csv.writer writes them, _BLOCK_LINES at a time."""
    encoded = _CsvFields()

    def blocks() -> Iterator[list[str]]:
        for start in range(0, len(rows), _BLOCK_LINES):
            block = rows[start:start + _BLOCK_LINES]
            yield list(map(",".join, zip(
                np.datetime_as_string(block["day"]).tolist(),
                map(encoded.__getitem__, block["feature_id"].tolist()),
                map(repr, block["value"].tolist()),
                map(repr, block["duration_min"].tolist()),
            )))

    _write_csv(path, MODALITY_HEADER, blocks())


def write_affect_csv(path: Path | str, reports: Iterable[AffectReport]) -> None:
    """Write one row per rating, as csv.writer writes them, items sorted
    within a day, _BLOCK_LINES at a time."""
    encoded = _CsvFields()
    lines = (
        f"{day},{encoded[item_id]},{items[item_id]!r}"
        for day, items in ((report.day.isoformat(), report.items) for report in reports)
        for item_id in sorted(items)
    )
    _write_csv(path, AFFECT_HEADER, iter(lambda: list(islice(lines, _BLOCK_LINES)), []))
