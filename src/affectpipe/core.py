"""Shared domain vocabulary: modalities, feature schemas, affect reports and
participant timelines, plus the JSON codec.

A participant timeline holds a days x features matrix: one row per calendar
day (dates strictly increasing), one column per feature id.  ``values`` is a
float matrix with NaN where a value is missing; ``provenance`` is an int8
matrix of codes into ``PROVENANCES`` (measured, imputed or missing).  Its
``affect`` holds the end-of-day survey as arrays aligned with the same dates
(see DailyAffect): a days x items matrix of 0-100 ratings with NaN where an
item was not answered, a flag for each day that has a report, and the
positive/negative composites (PA, NA), NaN where a day has none.
``timeline.days`` shows the features day by day, as dicts.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
from collections import abc
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from datetime import date
from enum import Enum
from pathlib import Path
from types import UnionType
from typing import Any, Callable, ClassVar, Iterable, Iterator, Mapping, NoReturn, Sequence, TextIO, Union, get_args, get_origin, get_type_hints

import numpy as np

from .errors import ConfigError, InputFormatError, MissingInputError, PipelineError, SchemaError

FORMAT_VERSION = 1

FEATURE_KINDS = ("continuous", "boolean")


class Modality(str, Enum):
    RING = "ring"
    WATCH = "watch"
    PHONE = "phone"


def parse_modalities(names: Iterable[str]) -> tuple[Modality, ...]:
    """The modalities a list of names stands for; ConfigError for an unknown one."""
    try:
        return tuple(Modality(name) for name in names)
    except (TypeError, ValueError) as exc:
        expected = "|".join(m.value for m in Modality)
        raise ConfigError(f"unknown modalities {names!r} (expected {expected})") from exc


class Provenance(str, Enum):
    MEASURED = "measured"
    IMPUTED = "imputed"
    MISSING = "missing"


@dataclass(frozen=True)
class FeatureSpec:
    """One named daily feature tied to the device that produces it."""

    feature_id: str = field(metadata={"json_key": "id"})
    modality: Modality
    kind: str = "continuous"
    units: str = ""

    def __post_init__(self) -> None:
        if self.kind not in FEATURE_KINDS:
            raise SchemaError(f"feature {self.feature_id!r}: unknown kind {self.kind!r}")


@dataclass(frozen=True)
class FeatureSchema:
    """Registry of features; ids are unique and each belongs to one modality."""

    json_document: ClassVar[bool] = True
    entries: tuple[FeatureSpec, ...]

    def __post_init__(self) -> None:
        by_id: dict[str, FeatureSpec] = {}
        for spec in self.entries:
            if spec.feature_id in by_id:
                raise SchemaError(f"duplicate feature id {spec.feature_id!r}")
            by_id[spec.feature_id] = spec
        object.__setattr__(self, "_by_id", by_id)

    def feature_ids(self) -> tuple[str, ...]:
        return tuple(s.feature_id for s in self.entries)

    def spec_of(self, feature_id: str) -> FeatureSpec:
        try:
            return self._by_id[feature_id]
        except KeyError:
            raise SchemaError(f"unknown feature id {feature_id!r}") from None

    def has(self, feature_id: str) -> bool:
        return feature_id in self._by_id

    def features_for(self, modalities: Iterable[Modality]) -> tuple[str, ...]:
        wanted = set(modalities)
        return tuple(s.feature_id for s in self.entries if s.modality in wanted)


@dataclass(frozen=True)
class AffectReport:
    """One day's emotion ratings by item id; ``items`` may be partial.  The
    timeline's affect arrays compute the composites (DailyAffect.from_reports)."""

    day: date
    items: dict[str, float]


def iso_date(text: str) -> date:
    """The date a YYYY-MM-DD text names; ValueError for any other text, on
    every Python (from 3.11 on, date.fromisoformat also reads 20200103 and
    2020-W01-5)."""
    day = date.fromisoformat(text)
    if day.isoformat() != text:
        raise ValueError(f"Invalid isoformat string: {text!r}")
    return day


def ordinals(dates: Sequence[date]) -> np.ndarray:
    """The dates as day numbers (date.toordinal)."""
    return np.fromiter((d.toordinal() for d in dates), np.int64, len(dates))


# A provenance matrix holds indexes into PROVENANCES.
PROVENANCES = tuple(Provenance)
CODE_MEASURED, CODE_IMPUTED, CODE_MISSING = range(len(PROVENANCES))


@dataclass(frozen=True)
class DailyFeatureVector:
    """One day of a timeline as dicts; None marks a missing value."""

    day: date
    values: dict[str, float | None]
    provenance: dict[str, Provenance]


@dataclass(frozen=True)
class TimelineDay:
    day: date
    features: DailyFeatureVector


@dataclass(frozen=True, eq=False)
class DailyAffect:
    """A timeline's end-of-day surveys, one row per date of the timeline.

    ``ratings`` has one column per item id (``item_ids``, sorted), NaN where
    the item was not answered; ``reported`` is true on the days with a
    report; ``pa`` and ``na`` are the composites (see from_reports), NaN
    where a day has none.  A day without a report holds no rating and no
    composite.
    """

    item_ids: tuple[str, ...]
    ratings: np.ndarray
    reported: np.ndarray
    pa: np.ndarray
    na: np.ndarray

    @classmethod
    def from_reports(cls, n_days: int, rows: Sequence[int] | np.ndarray, reports: Sequence[AffectReport]) -> DailyAffect:
        """The arrays of ``n_days`` days with one report on each of ``rows``.

        A composite is its side's ratings added one by one in the order of
        POSITIVE_ITEMS or NEGATIVE_ITEMS, starting from 0.0, and divided by
        the side's size.  NaN carries through, so a day that left an item of
        a side unanswered has no composite on that side.
        """
        item_ids = tuple(sorted(set().union(*(report.items for report in reports))))
        ratings = np.full((n_days, len(item_ids)), np.nan)
        reported = np.zeros(n_days, dtype=bool)
        if reports:
            # A float array reads None, what dict.get gives for an item not
            # answered, as NaN.
            ratings[rows] = np.array([list(map(r.items.get, item_ids)) for r in reports], dtype=float)
            reported[rows] = True
        affect = cls(item_ids, ratings, reported, np.zeros(n_days), np.zeros(n_days))
        for total, side in ((affect.pa, POSITIVE_ITEMS), (affect.na, NEGATIVE_ITEMS)):
            for item in side:
                total += affect.column(item)
            total /= len(side)
        return affect

    @property
    def complete(self) -> np.ndarray:
        """The days with both composites, so with all twenty items answered."""
        return ~np.isnan(self.pa) & ~np.isnan(self.na)

    def column(self, item_id: str) -> np.ndarray:
        """The ratings of one item; all NaN for an item no report has."""
        if item_id not in self.item_ids:
            return np.full(len(self.reported), np.nan)
        return self.ratings[:, self.item_ids.index(item_id)]


@dataclass(frozen=True, eq=False)
class ParticipantTimeline:
    """One participant's days as a days x features matrix and their affect
    as arrays on the same days (see the module docstring)."""

    participant_id: str
    feature_ids: tuple[str, ...]
    dates: tuple[date, ...]
    values: np.ndarray
    provenance: np.ndarray
    affect: DailyAffect

    def __post_init__(self) -> None:
        pid, shape = self.participant_id, (len(self.dates), len(self.feature_ids))
        if self.values.shape != shape or self.provenance.shape != shape:
            raise SchemaError(f"{pid}: arrays do not match {shape[0]} dates x {shape[1]} features")
        affect = self.affect
        if affect.ratings.shape != (shape[0], len(affect.item_ids)) or affect.reported.dtype != bool or any(
            column.shape != shape[:1] for column in (affect.reported, affect.pa, affect.na)
        ):
            raise SchemaError(f"{pid}: affect arrays do not match {shape[0]} dates x {len(affect.item_ids)} items")
        if list(affect.item_ids) != sorted(set(affect.item_ids)):
            raise SchemaError(f"{pid}: affect item ids are not sorted and distinct")
        later = np.flatnonzero(np.diff(ordinals(self.dates)) <= 0)
        if later.size:
            raise SchemaError(f"{pid}: dates not strictly increasing at {self.dates[later[0] + 1]}")
        rows, cols = np.nonzero(np.isfinite(self.values) == (self.provenance == CODE_MISSING))
        if rows.size:
            raise SchemaError(
                f"{self.dates[rows[0]]}: {self.feature_ids[cols[0]]!r} value/provenance disagree on missingness"
            )
        held = ~np.isnan(affect.ratings).all(axis=1) | ~np.isnan(affect.pa) | ~np.isnan(affect.na)
        stray = np.flatnonzero(held & ~affect.reported)
        if stray.size:
            raise SchemaError(f"{pid}: {self.dates[stray[0]]}: affect values on a day without a report")

    def rows_at(self, days: np.ndarray) -> np.ndarray:
        """The row of each day number (see ordinals), -1 where the timeline
        has no such day."""
        own = ordinals(self.dates)
        if not own.size:
            return np.full(np.shape(days), -1)
        rows = np.minimum(np.searchsorted(own, days), own.size - 1)
        return np.where(own[rows] == days, rows, -1)

    def columns(self, feature_ids: Iterable[str]) -> np.ndarray:
        """The values of ``feature_ids`` in that order, a row per date; NaN
        for a feature the timeline does not have."""
        index = {fid: j for j, fid in enumerate(self.feature_ids)}
        padded = np.column_stack([self.values, np.full(len(self.dates), np.nan)])
        return padded[:, [index.get(fid, -1) for fid in feature_ids]]

    @property
    def days(self) -> tuple[TimelineDay, ...]:
        """The features day by day, built from the arrays on each access."""
        fids = self.feature_ids
        values = np.where(self.provenance == CODE_MISSING, None, self.values).tolist()
        provenance = np.array(PROVENANCES, dtype=object)[self.provenance].tolist()
        return tuple(
            TimelineDay(day, DailyFeatureVector(day, dict(zip(fids, v)), dict(zip(fids, p))))
            for day, v, p in zip(self.dates, values, provenance)
        )


def valid_affect_day_count(timeline: ParticipantTimeline) -> int:
    """Number of days with a complete (all twenty items answered) affect report."""
    return int(np.count_nonzero(timeline.affect.complete))


def filter_eligible_participants(
    timelines: list[ParticipantTimeline], threshold: int
) -> list[ParticipantTimeline]:
    """Keep timelines with strictly more than ``threshold`` valid affect days."""
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    return [t for t in timelines if valid_affect_day_count(t) > threshold]


# ---------------------------------------------------------------------------
# Default schema and survey items
# ---------------------------------------------------------------------------

_RING_FEATURES = [
    # sleep stage durations
    ("sleep_awake", "min"),
    ("sleep_rem", "min"),
    ("sleep_light", "min"),
    ("sleep_deep", "min"),
    ("sleep_total", "min"),
    # activity contributors
    ("stay_active", "score"),
    ("meet_daily_activity_target", "score"),
    ("move_every_hour", "score"),
    ("training_frequency", "score"),
    ("training_volume", "score"),
    ("recovery_time", "score"),
    ("daily_movement", "m"),
    ("inactivity_alerts", "count"),
    # metabolic load
    ("met_avg", "MET"),
    ("met_inactive", "min"),
    ("met_low", "min"),
    ("met_medium", "min"),
    ("met_high", "min"),
    ("minutes_low_activity", "min"),
    ("minutes_med_activity", "min"),
    ("minutes_high_activity", "min"),
    # calories
    ("calorie_active", "kcal"),
    ("calorie_total", "kcal"),
    ("target_calories", "kcal"),
    ("target_miles", "mi"),
    # cardiac
    ("heart_rate", "bpm"),
    ("heart_rate_std", "bpm"),
    ("heart_rate_variability", "ms"),
    ("heart_rate_variability_std", "ms"),
]

_WATCH_FEATURES = [
    ("distance", "m"),
    ("run_steps", "count"),
    ("remains", "count"),
    ("walk_steps", "count"),
    ("pressure", "hPa"),
    ("pressure_min", "hPa"),
    ("pressure_max", "hPa"),
]

# Detected phone activities enter as booleans; the daily value is the
# duration-weighted fraction of the day the activity was detected.
_PHONE_FEATURES = [
    ("main_activity", "fraction"),
    ("key_activity", "fraction"),
    ("location_change", "fraction"),
]


def default_schema() -> FeatureSchema:
    """Schema shipped with the package: 39 named ring/watch/phone features."""
    entries = [
        FeatureSpec(fid, Modality.RING, "continuous", units) for fid, units in _RING_FEATURES
    ]
    entries += [
        FeatureSpec(fid, Modality.WATCH, "continuous", units) for fid, units in _WATCH_FEATURES
    ]
    entries += [
        FeatureSpec(fid, Modality.PHONE, "boolean", units) for fid, units in _PHONE_FEATURES
    ]
    return FeatureSchema(tuple(entries))


# The daily survey is the twenty PANAS items (Watson, Clark & Tellegen, 1988),
# each side in the order its composite adds it.
POSITIVE_ITEMS = (
    "interested",
    "excited",
    "strong",
    "enthusiastic",
    "proud",
    "alert",
    "inspired",
    "determined",
    "attentive",
    "active",
)
NEGATIVE_ITEMS = (
    "distressed",
    "upset",
    "guilty",
    "scared",
    "hostile",
    "irritable",
    "ashamed",
    "nervous",
    "jittery",
    "afraid",
)
SURVEY_ITEMS = POSITIVE_ITEMS + NEGATIVE_ITEMS


# ---------------------------------------------------------------------------
# JSON codec


class RawJSON(str):
    """Canonical JSON text already rendered.  canonical_json writes a
    top-level value of this type as it stands, and so does %r."""

    __repr__ = str.__str__


@dataclass(frozen=True)
class RawJSONPieces:
    """Canonical JSON text rendered piece by piece: each iteration calls
    ``render`` afresh, so a payload can be written more than once and the
    whole text never exists at once.  canonical_json joins the pieces of a
    top-level value of this type; dump_json writes each as it comes."""

    render: Callable[[], Iterable[str]]

    def __iter__(self) -> Iterator[str]:
        return iter(self.render())


def _canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _json_pieces(payload: dict) -> Iterator[str]:
    """The canonical JSON text of ``payload`` in order, in pieces."""
    if not any(isinstance(value, (RawJSON, RawJSONPieces)) for value in payload.values()):
        yield _canonical(payload)
        return
    opening = "{"
    for key, value in sorted(payload.items()):
        yield opening + json.dumps(key) + ":"
        opening = ","
        if isinstance(value, RawJSONPieces):
            yield from value
        else:
            yield value if isinstance(value, RawJSON) else _canonical(value)
    yield "}"


def canonical_json(payload: dict) -> str:
    """Canonical JSON text (sorted keys, fixed separators); NaN and Infinity
    are refused.  A top-level value that is RawJSON is written as it stands,
    and one that is RawJSONPieces as its pieces joined."""
    return "".join(_json_pieces(payload))


def dump_json(path: Path | str, payload: dict) -> None:
    """Write a canonical JSON document piece by piece (see canonical_json).

    The pieces go to a temporary file beside the file ``path`` names (a
    symlink's target), which replaces it only once the whole document is
    written: a write that fails leaves no file, and an older file as it
    was.  A device or pipe, such as /dev/stdout, is written in place.
    """
    path = Path(path)
    if path.exists() and not path.is_file():
        with path.open("w", encoding="utf-8") as handle:
            _write_pieces(handle, path, payload)
        return
    target = path.resolve()
    partial = target.with_name(f".{target.name}.partial")
    try:
        with partial.open("w", encoding="utf-8") as handle:
            _write_pieces(handle, path, payload)
        os.replace(partial, target)
    finally:
        partial.unlink(missing_ok=True)


def _write_pieces(handle: TextIO, path: Path, payload: dict) -> None:
    try:
        for piece in _json_pieces(payload):
            handle.write(piece)
    except ValueError as exc:
        raise PipelineError(f"{path}: {exc}") from exc
    handle.write("\n")


def check_output(path: Path | str, directory: bool = False) -> None:
    """Refuse, with ConfigError, an output that cannot be written: a file that
    names a directory or whose directory does not exist, or a directory with a
    file in its place or in the place of one of its parents."""
    p = Path(path)
    if directory:
        existing = next(q for q in (p, *p.parents) if q.exists())
        if not existing.is_dir():
            raise ConfigError(f"cannot create output directory {p}: {existing} is not a directory")
    elif p.is_dir():
        raise ConfigError(f"output path is a directory: {p}")
    elif not p.parent.is_dir():
        raise ConfigError(f"output directory does not exist: {p.parent}")


def read_json(path: Path | str) -> dict:
    p = Path(path)
    if not p.exists():
        raise MissingInputError(f"no such file: {p}")
    try:
        text = p.read_text(encoding="utf-8")
        return json.loads(text, parse_constant=lambda token: _fail(str(p), f"{token} is not a JSON number"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputFormatError(f"{p}: invalid JSON ({exc})") from exc


@functools.cache
def _fields_of(cls: type) -> tuple[tuple[str, str, Any, bool], ...]:
    """(name, JSON key, type, required) of each field of a dataclass."""
    hints = get_type_hints(cls)
    return tuple(
        (f.name, f.metadata.get("json_key", f.name), hints[f.name],
         f.default is MISSING and f.default_factory is MISSING)
        for f in fields(cls)
    )


def to_json(obj: Any) -> Any:
    """The JSON value of a dataclass, enum, date, array, sequence or mapping.

    A dataclass is an object of its fields, each under its name or under the
    key its metadata gives as "json_key"; a class whose ``json_document`` is
    true also writes FORMAT_VERSION.
    """
    if isinstance(obj, Enum):
        return obj.value
    if obj is None or isinstance(obj, (str, int, float)):
        return obj
    if isinstance(obj, (list, tuple)):
        return [to_json(v) for v in obj]
    if isinstance(obj, Mapping):
        return {to_json(k): to_json(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, date):
        return obj.isoformat()
    doc = {key: to_json(getattr(obj, name)) for name, key, _, _ in _fields_of(type(obj))}
    if getattr(obj, "json_document", False):
        doc["format_version"] = FORMAT_VERSION
    return doc


def _fail(path: str, message: str) -> NoReturn:
    raise InputFormatError(f"{path}: {message}")


# Keys a stored document carries besides its fields.
_DOCUMENT_KEYS = frozenset({"format_version", "run_id"})
# What a value of each scalar type but an enum must be.
_EXPECTED = {float: "a finite number", date: "a YYYY-MM-DD date", int: "int", str: "str", bool: "bool"}


def _finite_float(value: Any) -> float:
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ValueError(value)
    return float(value)


@functools.cache
def _scalar_reader(tp: Any) -> Any:
    """For a scalar type (a number, str, bool, date, enum, Any, or one of
    these or None), a function that returns from_json(tp, value) for a good
    value and raises TypeError or ValueError for a bad one; None for any
    other type."""
    if tp is float:
        return _finite_float
    if tp in (int, str, bool):
        def read(value: Any) -> Any:
            if type(value) is not tp:
                raise TypeError(value)
            return value
        return read
    if tp is date:
        return iso_date
    if isinstance(tp, type) and issubclass(tp, Enum):
        return tp
    if tp is Any or tp is object:
        return lambda value: value
    args = get_args(tp)
    if get_origin(tp) in (Union, UnionType) and len(args) == 2 and type(None) in args:
        inner = _scalar_reader(next(a for a in args if a is not type(None)))
        return inner and (lambda value: None if value is None else inner(value))
    return None


def _scalars(tp: Any, values: Iterable) -> list | None:
    """from_json(tp, v) of each value in one pass, with no path built, when
    ``tp`` is a scalar type and every value is good; None otherwise, and the
    caller reads value by value to name the bad one."""
    read = _scalar_reader(tp)
    if read is not None:
        with contextlib.suppress(TypeError, ValueError):
            return list(map(read, values))
    return None


def from_json(tp: Any, value: Any, path: str | None = None) -> Any:
    """Read a JSON value as type ``tp`` (a type annotation), the inverse of to_json.

    A missing key takes its field's default, and fails without one; a key the
    class does not have fails, except format_version and run_id on a class
    whose ``json_document`` is true.  Every failure is one InputFormatError
    naming the path of the bad value.
    """
    path = path or tp.__name__
    if tp in (float, int, str, bool, date) or isinstance(tp, type) and issubclass(tp, Enum):
        try:
            return _scalar_reader(tp)(value)
        except (TypeError, ValueError):
            if tp in _EXPECTED:
                _fail(path, f"expected {_EXPECTED[tp]}")
            _fail(path, f"expected one of {[m.value for m in tp]}")
    origin, args = get_origin(tp), get_args(tp)
    if is_dataclass(tp):
        if not isinstance(value, dict):
            _fail(path, "expected an object")
        spec = _fields_of(tp)
        unknown = set(value) - {key for _, key, _, _ in spec}
        if getattr(tp, "json_document", False):
            unknown -= _DOCUMENT_KEYS
        if unknown:
            _fail(path, f"unknown keys {sorted(unknown)}")
        kwargs = {}
        for name, key, field_type, required in spec:
            if key in value:
                kwargs[name] = from_json(field_type, value[key], f"{path}.{key}")
            elif required:
                _fail(f"{path}.{key}", "missing")
        return tp(**kwargs)
    if origin in (Union, UnionType):
        if value is None and type(None) in args:
            return None
        options = [a for a in args if a is not type(None)]
        for option in options[:-1]:
            with contextlib.suppress(InputFormatError):
                return from_json(option, value, path)
        return from_json(options[-1], value, path)
    if tp is Any or tp is object:
        return value
    if tp in (list, tuple) or origin in (list, tuple, abc.Sequence):
        if not isinstance(value, list):
            _fail(path, "expected a list")
        if origin is tuple and args[-1] is not Ellipsis:
            if len(value) != len(args):
                _fail(path, f"expected {len(args)} items")
            return tuple(from_json(a, v, f"{path}[{i}]") for i, (a, v) in enumerate(zip(args, value)))
        items = _scalars(args[0], value) if args else value
        if items is None:
            items = [from_json(args[0], v, f"{path}[{i}]") for i, v in enumerate(value)]
        return tuple(items) if tuple in (tp, origin) else items
    if tp is dict or origin in (dict, abc.Mapping):
        if not isinstance(value, dict):
            _fail(path, "expected an object")
        key_type, value_type = args or (str, Any)
        keys, values = _scalars(key_type, value), _scalars(value_type, value.values())
        if keys is not None and values is not None:
            return dict(zip(keys, values))
        entries = ((f"{path}.{k}", k, v) for k, v in value.items())
        return {from_json(key_type, k, p): from_json(value_type, v, p) for p, k, v in entries}
    if tp is np.ndarray:
        # One array for the whole list, in the number type the JSON has.
        if not isinstance(value, list):
            _fail(path, "expected a list")
        try:
            arr = np.array(value)
        except ValueError:
            _fail(path, "expected a rectangular array")
        if arr.dtype.kind not in "iuf" or not np.isfinite(arr).all():
            _fail(path, "expected finite numbers")
        return arr
    raise TypeError(f"{path}: no JSON reading for {tp!r}")


def read_config(tp: Any, value: Any, path: str | None = None) -> Any:
    """from_json for a configuration: a value the codec refuses is a
    ConfigError (exit 2), not malformed input."""
    try:
        return from_json(tp, value, path)
    except InputFormatError as exc:
        raise ConfigError(str(exc)) from exc


def load_schema(path: Path | str) -> FeatureSchema:
    return from_json(FeatureSchema, read_json(path))


@dataclass(frozen=True)
class _AffectEntry:
    items: dict[str, float]
    pa: float | None = None
    na: float | None = None


@dataclass(frozen=True)
class _DayEntry:
    date: date
    features: dict[str, float | None]
    provenance: dict[str, Provenance]
    affect: _AffectEntry | None = None


@dataclass(frozen=True)
class _TimelineDocument:
    """A timeline as stored: one entry per day, each with the same feature
    keys in its features and its provenance."""

    json_document: ClassVar[bool] = True
    participant_id: str
    days: tuple[_DayEntry, ...]


_NULL = RawJSON("null")


def _members(keys: Iterable[str]) -> list[str]:
    """Each key as JSON text followed by a colon."""
    return [json.dumps(key) + ":" for key in keys]


def _template(members: list[str]) -> str:
    """The inside of a JSON object whose values %r writes."""
    return ",".join(member.replace("%", "%%") + "%r" for member in members)


def _pattern_bytes(matrix: np.ndarray) -> Callable[[int], bytes]:
    """The bytes of row i of ``matrix``, by i."""
    width, data = matrix.shape[1] * matrix.itemsize, np.ascontiguousarray(matrix).tobytes()
    return lambda i: data[i * width:(i + 1) * width]


def _check_timeline_numbers(timeline: ParticipantTimeline) -> None:
    """Refuse, with PipelineError, a non-finite value outside a missing cell
    and an infinite rating or composite: text canonical JSON cannot hold."""
    pid, dates, values, affect = timeline.participant_id, timeline.dates, timeline.values, timeline.affect
    bad = np.argwhere(~((timeline.provenance == CODE_MISSING) | np.isfinite(values)))
    if bad.size:
        row, col = bad[0]
        raise PipelineError(
            f"timeline {pid}: {dates[row]} {timeline.feature_ids[col]!r}: {values[row, col]} is not a finite number"
        )
    # NaN marks what a day does not have, so only an infinity is refused.
    numbers = np.column_stack([affect.ratings, affect.pa, affect.na])
    bad = np.argwhere(np.isinf(numbers))
    if bad.size:
        row, col = bad[0]
        name = (*affect.item_ids, "pa", "na")[col]
        raise PipelineError(f"timeline {pid}: {dates[row]} affect: {name!r}: {numbers[row, col]} is not a finite number")


def _feature_order(timeline: ParticipantTimeline) -> tuple[list[str], list[int]]:
    """The document's feature members (see _members), in sorted key order,
    and the column each one writes.  A repeated feature id keeps its last
    column, as a dict would."""
    column = {fid: j for j, fid in enumerate(timeline.feature_ids)}
    fids = sorted(column)
    return _members(fids), [column[fid] for fid in fids]


def _cells_by_day(mask: np.ndarray) -> tuple[list[int], list[int]]:
    """The columns of the cells ``mask`` marks, day by day: those of day i
    are cells[bounds[i]:bounds[i + 1]]."""
    rows, cells = np.nonzero(mask)
    return cells.tolist(), np.searchsorted(rows, np.arange(mask.shape[0] + 1)).tolist()


_PROVENANCE_TEXTS = np.array([_canonical(p.value) for p in PROVENANCES], dtype=object)


def _provenance_texts(members: list[str], patterns: np.ndarray) -> Callable[[int], str]:
    """The provenance object text of day i, whose codes are row i of
    ``patterns`` (one column per member); built once per distinct pattern."""
    pattern_of = _pattern_bytes(patterns)
    texts: dict[bytes, str] = {}

    def text(i: int) -> str:
        key = pattern_of(i)
        found = texts.get(key)
        if found is None:
            found = "{" + ",".join(map(str.__add__, members, _PROVENANCE_TEXTS[patterns[i]])) + "}"
            texts[key] = found
        return found

    return text


def timeline_to_dict(timeline: ParticipantTimeline) -> dict:
    """The timeline document, its ``days`` rendered as canonical JSON text
    one day at a time while it is written (see RawJSONPieces).

    A day is one % template over Python floats, with features and provenance
    in sorted key order; provenance text is built once per distinct day
    pattern and affect text from one template per answered-item pattern.  A
    non-finite value outside a missing cell, rating or composite raises
    PipelineError here, before any text is rendered.
    """
    _check_timeline_numbers(timeline)
    dates, values, codes, affect = timeline.dates, timeline.values, timeline.provenance, timeline.affect
    members, order = _feature_order(timeline)
    day_template = '{"affect":%s,"date":"%s","features":{' + _template(members) + '},"provenance":%s}'

    def days() -> Iterator[str]:
        ordered, patterns = values[:, order], codes[:, order]
        provenance_of = _provenance_texts(members, patterns)
        cells, bounds = _cells_by_day(patterns == CODE_MISSING)
        answered = ~np.isnan(affect.ratings)
        answered_of = _pattern_bytes(answered)
        composites = [[_NULL if v != v else v for v in c.tolist()] for c in (affect.na, affect.pa)]
        affect_templates: dict[bytes, tuple[list[int], str]] = {}
        yield "["
        for i, (day, reported, na, pa) in enumerate(zip(dates, affect.reported.tolist(), *composites)):
            row = ordered[i].tolist()
            for j in cells[bounds[i]:bounds[i + 1]]:
                row[j] = _NULL
            text = "null"
            if reported:
                key = answered_of(i)
                if key not in affect_templates:
                    items = np.flatnonzero(answered[i]).tolist()
                    item_members = _members(affect.item_ids[j] for j in items)
                    affect_templates[key] = items, '{"items":{' + _template(item_members) + '},"na":%r,"pa":%r}'
                items, template = affect_templates[key]
                ratings = affect.ratings[i].tolist()
                text = template % (*map(ratings.__getitem__, items), na, pa)
            yield ("," if i else "") + day_template % (text, day.isoformat(), *row, provenance_of(i))
        yield "]"

    return {"format_version": FORMAT_VERSION, "participant_id": timeline.participant_id, "days": RawJSONPieces(days)}


def patched_timeline_to_dict(source: Path | str, timeline: ParticipantTimeline, filled: np.ndarray) -> dict:
    """timeline_to_dict(timeline), its ``days`` written from the text of the
    document in ``source``: the canonical document (timeline_to_dict) of
    the same timeline before the cells ``filled`` marks gained their values.

    A day with no filled cell is copied as it stands.  A day with some gets
    new text for those cells, which its document has as null, and for its
    provenance object; its affect text and every other value are copied.
    So no measured value or rating is formatted again, and the document
    holds the same bytes as timeline_to_dict(timeline) gives.  The checks
    of timeline_to_dict run first.  Where the text read back is not that
    document, by its days' dates or the text around what is replaced,
    writing stops with PipelineError.
    """
    _check_timeline_numbers(timeline)
    path = Path(source)
    pid, dates = timeline.participant_id, timeline.dates
    members, order = _feature_order(timeline)
    # A missing cell's text: its member, after "{" for the first and ","
    # for any other, then null.  '{"' and ',"' cannot occur inside a JSON
    # string, so a day's features hold it only where that cell is null.
    nulls = [("," if j else "{") + member + "null" for j, member in enumerate(members)]
    # Where in its missing cell's text each fill begins.
    starts = [len(text) - len("null") for text in nulls]
    patterns, filled = timeline.provenance[:, order], filled[:, order]
    cells, bounds = _cells_by_day(filled)
    fills = list(map(repr, timeline.values[:, order][filled].tolist()))
    provenance_of = _provenance_texts(members, patterns)
    provenance_before = _provenance_texts(members, np.where(filled, CODE_MISSING, patterns))

    def mismatch(where: str) -> PipelineError:
        return PipelineError(f"{path}: not the document of timeline {pid} as ingested: {where}")

    def days() -> Iterator[str]:
        # Read as bytes when written, each day decoded as it goes: canonical
        # JSON text is ASCII, and the whole text is never held twice.
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            raise MissingInputError(f"no such file: {path}") from None
        if not data.startswith(b'{"days":['):
            raise mismatch("no days list first")
        yield "["
        # Day i's text, the "," before it first, is data[begin:end];
        # positions within it count from begin.
        end = len('{"days":[')
        for i, day in enumerate(dates):
            begin = end
            at = data.find(b',"date":"', begin) + len(',"date":"') - begin
            features = at + len('YYYY-MM-DD","features":{')
            ends = data.find(b'},"provenance":', begin + features) - begin
            before = provenance_before(i)
            end = begin + ends + len('},"provenance":') + len(before) + 1
            try:
                text = data[begin:end].decode("ascii")
            except UnicodeDecodeError:
                text = ""
            if not (
                text.startswith(',{"affect":' if i else '{"affect":')
                and at > 0
                and text.startswith(day.isoformat(), at)
                and text.startswith('","features":{', at + 10)
                and ends >= features
                and text.startswith(before, ends + len('},"provenance":'))
                and text.endswith("}")
            ):
                raise mismatch(f"day {i + 1} is not {day} as written")
            if bounds[i] == bounds[i + 1]:
                yield text
                continue
            parts, cursor = [text[:features]], features
            for j, fill in zip(cells[bounds[i]:bounds[i + 1]], fills[bounds[i]:bounds[i + 1]]):
                found = text.find(nulls[j], cursor - 1, ends)
                if found < 0:
                    raise mismatch(f"{day}: {members[j][:-1]} is not null")
                found += starts[j]
                parts += (text[cursor:found], fill)
                cursor = found + 4  # past "null"
            parts += (text[cursor:ends], '},"provenance":', provenance_of(i), "}")
            yield "".join(parts)
        if not data.startswith(b"]", end):
            raise mismatch(f"more days than its {len(dates)}")
        yield "]"

    return {"format_version": FORMAT_VERSION, "participant_id": pid, "days": RawJSONPieces(days)}


def _check_affect(pid: str, dates: Sequence[date], affect: DailyAffect, stored: np.ndarray) -> None:
    """Refuse affect an affect CSV could not give: an unknown item, a rating
    or stored composite outside [0, 100], a stored composite whose ten items
    were not all answered, or one that differs from the composite ``affect``
    computed.  ``stored`` holds the document's PA and NA, NaN for null.
    InputFormatError names the earliest such day, and on it the first check
    that fails."""
    # One column per item, then PA and NA (columns n and n + 1).
    n = len(affect.item_ids)
    names = (*affect.item_ids, "pa", "na")
    numbers = np.column_stack([affect.ratings, stored])
    given = ~np.isnan(numbers)
    known = np.array([name in SURVEY_ITEMS for name in affect.item_ids] + [True, True])
    sides = (POSITIVE_ITEMS, NEGATIVE_ITEMS)
    # The derived composite is NaN where its side has an unanswered item;
    # a stored null (NaN) agrees only with NaN.
    derived = np.column_stack([affect.pa, affect.na])
    orphan, differs = np.zeros_like(given), np.zeros_like(given)
    orphan[:, n:] = given[:, n:] & np.isnan(derived)
    differs[:, n:] = (stored != derived) & ~(np.isnan(stored) & np.isnan(derived))

    def unanswered(i: int, j: int) -> str:
        """The first item of composite j's side not answered on day i."""
        return next(item for item in sides[j - n] if np.isnan(affect.column(item)[i]))

    def text(value: float) -> str:
        return "null" if value != value else repr(float(value))

    messages = (
        lambda i, j: f"unknown affect item {names[j]!r}",
        lambda i, j: f"{names[j]!r} out of [0, 100]: {float(numbers[i, j])!r}",
        lambda i, j: f"{names[j]!r} given without every item of its side ({unanswered(i, j)!r} missing)",
        lambda i, j: f"{names[j]!r} is {text(stored[i, j - n])}, not the mean of its side's items "
        f"({text(derived[i, j - n])})",
    )
    failed = np.stack([given & ~known, given & ~((numbers >= 0.0) & (numbers <= 100.0)), orphan, differs], axis=1)
    bad = np.argwhere(failed)
    if bad.size:
        i, check, j = bad[0]
        raise InputFormatError(f"timeline {pid}: {dates[i]} affect: {messages[check](i, j)}")


def timeline_from_dict(payload: dict) -> ParticipantTimeline:
    """The timeline a document holds, its composites computed from its
    ratings and its affect checked as the affect CSV parser checks it (see
    _check_affect)."""
    doc = from_json(_TimelineDocument, payload, "timeline")
    fids = tuple(doc.days[0].features) if doc.days else ()
    for entry in doc.days:
        if entry.features.keys() != set(fids) or entry.provenance.keys() != entry.features.keys():
            raise SchemaError(f"timeline {entry.date}: feature or provenance keys differ from the first day's")
    codes = {p: code for code, p in enumerate(PROVENANCES)}
    shape = (len(doc.days), len(fids))
    dates = tuple(entry.date for entry in doc.days)
    reported = [i for i, entry in enumerate(doc.days) if entry.affect is not None]
    entries = [doc.days[i].affect for i in reported]
    reports = [AffectReport(dates[i], entry.items) for i, entry in zip(reported, entries)]
    stored = np.full((len(dates), 2), np.nan)
    stored[reported] = np.array([(entry.pa, entry.na) for entry in entries], dtype=float).reshape(-1, 2)
    affect = DailyAffect.from_reports(len(dates), reported, reports)
    _check_affect(doc.participant_id, dates, affect, stored)
    return ParticipantTimeline(
        doc.participant_id,
        fids,
        dates,
        np.array([[e.features[f] for f in fids] for e in doc.days], dtype=float).reshape(shape),
        np.array([[codes[e.provenance[f]] for f in fids] for e in doc.days], dtype=np.int8).reshape(shape),
        affect,
    )


def save_timeline(path: Path | str, timeline: ParticipantTimeline) -> None:
    dump_json(path, timeline_to_dict(timeline))


def load_timeline(path: Path | str) -> ParticipantTimeline:
    return timeline_from_dict(read_json(path))
