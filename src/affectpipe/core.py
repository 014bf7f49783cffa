"""Shared domain vocabulary: modalities, feature schemas, affect reports and
participant timelines, plus the JSON codec.

A participant timeline holds a days x features matrix: one row per calendar
day (dates strictly increasing), one column per feature id.  ``values`` is a
float matrix with NaN where a value is missing; ``provenance`` is an int8
matrix of codes into ``PROVENANCES`` (measured, imputed or missing).  Each
row also carries the day's affect report, when the participant answered the
end-of-day survey: twenty 0-100 emotion ratings and their positive/negative
composites.  ``timeline.days`` shows the same data day by day, as dicts.
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
class ItemPolarity:
    """The ten positively and ten negatively valenced survey item ids;
    ``known`` is the set of all twenty."""

    positive: tuple[str, ...]
    negative: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.positive) != 10 or len(set(self.positive)) != 10:
            raise SchemaError("polarity requires exactly 10 unique positive item ids")
        if len(self.negative) != 10 or len(set(self.negative)) != 10:
            raise SchemaError("polarity requires exactly 10 unique negative item ids")
        if set(self.positive) & set(self.negative):
            raise SchemaError("positive and negative item sets overlap")
        object.__setattr__(self, "known", frozenset(self.all_items()))

    def all_items(self) -> tuple[str, ...]:
        return self.positive + self.negative


@dataclass(frozen=True)
class AffectReport:
    """One day's emotion ratings plus PA/NA composites.

    ``items`` may be partial; a composite is None unless all ten items on its
    side were answered.  Reports missing any item never become labels.
    """

    day: date
    items: dict[str, float]
    pa: float | None
    na: float | None

    def __post_init__(self) -> None:
        for item_id, rating in self.items.items():
            if not 0.0 <= rating <= 100.0:
                raise InputFormatError(f"{self.day}: rating for {item_id!r} out of [0, 100]: {rating}")

    @property
    def complete(self) -> bool:
        return self.pa is not None and self.na is not None

    @classmethod
    def from_items(cls, day: date, items: dict[str, float], polarity: ItemPolarity) -> AffectReport:
        if not polarity.known.issuperset(items):
            unknown = next(item_id for item_id in items if item_id not in polarity.known)
            raise InputFormatError(f"{day}: unknown affect item {unknown!r}")
        pa = _side_mean(items, polarity.positive)
        na = _side_mean(items, polarity.negative)
        return cls(day=day, items=dict(items), pa=pa, na=na)


def _side_mean(items: dict[str, float], side: tuple[str, ...]) -> float | None:
    if not all(map(items.__contains__, side)):
        return None
    return sum(map(items.__getitem__, side)) / len(side)


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
    affect: AffectReport | None = None


@dataclass(frozen=True, eq=False)
class ParticipantTimeline:
    """One participant's days as a days x features matrix (see the module
    docstring); ``affect`` holds one report or None per date."""

    participant_id: str
    feature_ids: tuple[str, ...]
    dates: tuple[date, ...]
    values: np.ndarray
    provenance: np.ndarray
    affect: tuple[AffectReport | None, ...]

    def __post_init__(self) -> None:
        pid, shape = self.participant_id, (len(self.dates), len(self.feature_ids))
        if self.values.shape != shape or self.provenance.shape != shape or len(self.affect) != shape[0]:
            raise SchemaError(f"{pid}: arrays do not match {shape[0]} dates x {shape[1]} features")
        later = np.flatnonzero(np.diff(ordinals(self.dates)) <= 0)
        if later.size:
            raise SchemaError(f"{pid}: dates not strictly increasing at {self.dates[later[0] + 1]}")
        rows, cols = np.nonzero(np.isfinite(self.values) == (self.provenance == CODE_MISSING))
        if rows.size:
            raise SchemaError(
                f"{self.dates[rows[0]]}: {self.feature_ids[cols[0]]!r} value/provenance disagree on missingness"
            )
        for day, report in zip(self.dates, self.affect):
            if report is not None and report.day != day:
                raise SchemaError(f"affect report dated {report.day} attached to {day}")

    def rows_at(self, days: np.ndarray) -> np.ndarray:
        """The row of each day number (see ordinals), -1 where the timeline
        has no such day."""
        own = ordinals(self.dates)
        if not own.size:
            return np.full(np.shape(days), -1)
        rows = np.minimum(np.searchsorted(own, days), own.size - 1)
        return np.where(own[rows] == days, rows, -1)

    def columns(self, feature_ids: Iterable[str]) -> np.ndarray:
        """The value columns of ``feature_ids`` in that order; NaN for a
        feature the timeline does not have."""
        index = {fid: j for j, fid in enumerate(self.feature_ids)}
        padded = np.column_stack([self.values, np.full(len(self.dates), np.nan)])
        return padded[:, [index.get(fid, -1) for fid in feature_ids]]

    @property
    def days(self) -> tuple[TimelineDay, ...]:
        """The timeline day by day, built from the arrays on each access."""
        fids = self.feature_ids
        values = np.where(self.provenance == CODE_MISSING, None, self.values).tolist()
        provenance = np.array(PROVENANCES, dtype=object)[self.provenance].tolist()
        return tuple(
            TimelineDay(day, DailyFeatureVector(day, dict(zip(fids, v)), dict(zip(fids, p))), report)
            for day, v, p, report in zip(self.dates, values, provenance, self.affect)
        )


def column_means(values: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Each column's mean over the cells marked true, NaN for a column with
    none.  The sum is added day by day from 0.0, as a loop over the days
    adds it; np.sum may add in another order."""
    stacked = np.vstack([np.zeros(values.shape[1]), np.where(cells, values, 0.0)])
    with np.errstate(invalid="ignore"):
        return np.cumsum(stacked, axis=0)[-1] / cells.sum(axis=0)


def valid_affect_day_count(timeline: ParticipantTimeline) -> int:
    """Number of days with a complete (all twenty items answered) affect report."""
    return sum(1 for a in timeline.affect if a is not None and a.complete)


def filter_eligible_participants(
    timelines: list[ParticipantTimeline], threshold: int
) -> list[ParticipantTimeline]:
    """Keep timelines with strictly more than ``threshold`` valid affect days."""
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    return [t for t in timelines if valid_affect_day_count(t) > threshold]


# ---------------------------------------------------------------------------
# Default schema and polarity
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


def default_polarity() -> ItemPolarity:
    """Default 10+10 survey item split (PANAS-style wording)."""
    return ItemPolarity(
        positive=(
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
        ),
        negative=(
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
        ),
    )


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
_EXPECTED = {float: "a finite number", date: "an ISO date", int: "int", str: "str", bool: "bool"}


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
        return date.fromisoformat
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


def _json_number(value: Any) -> Any:
    """What %r must get to write ``value`` as JSON: a finite float as itself,
    null for None, and any other value as json.dumps writes it."""
    if type(value) is float and math.isfinite(value):
        return value
    return _NULL if value is None else RawJSON(_canonical(value))


def _members(keys: Iterable[str]) -> list[str]:
    """Each key as JSON text followed by a colon."""
    return [json.dumps(key) + ":" for key in keys]


def _template(members: list[str]) -> str:
    """The inside of a JSON object whose values %r writes."""
    return ",".join(member.replace("%", "%%") + "%r" for member in members)


def timeline_to_dict(timeline: ParticipantTimeline) -> dict:
    """The timeline document, its ``days`` rendered as canonical JSON text.

    A day is one % template over Python floats, with features and provenance
    in sorted key order; provenance text is built once per distinct day
    pattern and affect text from one template per item-key set.  A
    non-finite value outside a missing cell raises PipelineError.
    """
    pid, values, codes = timeline.participant_id, timeline.values, timeline.provenance
    missing = codes == CODE_MISSING
    bad = np.argwhere(~(missing | np.isfinite(values)))
    if bad.size:
        row, col = bad[0]
        raise PipelineError(
            f"timeline {pid}: {timeline.dates[row]} {timeline.feature_ids[col]!r}: "
            f"{values[row, col]} is not a finite number"
        )
    # A repeated feature id keeps its last column, as a dict would.
    column = {fid: j for j, fid in enumerate(timeline.feature_ids)}
    fids = sorted(column)
    order = [column[fid] for fid in fids]
    members = _members(fids)
    day_template = '{"affect":%s,"date":"%s","features":{' + _template(members) + '},"provenance":%s}'
    rows = values[:, order].tolist()
    for i, j in zip(*np.nonzero(missing[:, order])):
        rows[i][j] = _NULL
    names = np.array([_canonical(p.value) for p in PROVENANCES], dtype=object)
    patterns = np.ascontiguousarray(codes[:, order])
    width = patterns.shape[1] * patterns.itemsize
    pattern_bytes = patterns.tobytes()
    provenance_texts: dict[bytes, str] = {}
    affect_templates: dict[frozenset[str], tuple[list[str], str]] = {}
    days = []
    for i, (day, row, report) in enumerate(zip(timeline.dates, rows, timeline.affect)):
        pattern = pattern_bytes[i * width:(i + 1) * width]
        provenance = provenance_texts.get(pattern)
        if provenance is None:
            provenance = "{" + ",".join(map(str.__add__, members, names[patterns[i]])) + "}"
            provenance_texts[pattern] = provenance
        affect = "null"
        if report is not None:
            item_set = frozenset(report.items)
            if item_set not in affect_templates:
                items = sorted(item_set)
                template = '{"items":{' + _template(_members(items)) + '},"na":%r,"pa":%r}'
                affect_templates[item_set] = items, template
            items, template = affect_templates[item_set]
            numbers = [*map(report.items.__getitem__, items), report.na, report.pa]
            try:
                affect = template % tuple(map(_json_number, numbers))
            except ValueError as exc:
                raise PipelineError(f"timeline {pid}: {day} affect: {exc}") from exc
        days.append(day_template % (affect, day.isoformat(), *row, provenance))
    # Brackets on the end days, so the long text is built once.
    if days:
        days[0] = "[" + days[0]
        days[-1] += "]"
    return {
        "format_version": FORMAT_VERSION,
        "participant_id": pid,
        "days": RawJSON(",".join(days) if days else "[]"),
    }


def timeline_from_dict(payload: dict) -> ParticipantTimeline:
    doc = from_json(_TimelineDocument, payload, "timeline")
    fids = tuple(doc.days[0].features) if doc.days else ()
    for entry in doc.days:
        if entry.features.keys() != set(fids) or entry.provenance.keys() != entry.features.keys():
            raise SchemaError(f"timeline {entry.date}: feature or provenance keys differ from the first day's")
    codes = {p: code for code, p in enumerate(PROVENANCES)}
    shape = (len(doc.days), len(fids))
    return ParticipantTimeline(
        doc.participant_id,
        fids,
        tuple(entry.date for entry in doc.days),
        np.array([[e.features[f] for f in fids] for e in doc.days], dtype=float).reshape(shape),
        np.array([[codes[e.provenance[f]] for f in fids] for e in doc.days], dtype=np.int8).reshape(shape),
        tuple(e.affect and AffectReport(e.date, e.affect.items, e.affect.pa, e.affect.na) for e in doc.days),
    )


def save_timeline(path: Path | str, timeline: ParticipantTimeline) -> None:
    dump_json(path, timeline_to_dict(timeline))


def load_timeline(path: Path | str) -> ParticipantTimeline:
    return timeline_from_dict(read_json(path))
