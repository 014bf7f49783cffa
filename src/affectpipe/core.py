"""Shared domain vocabulary: modalities, feature schemas, daily vectors, affect reports.

A participant timeline is an ordered sequence of calendar days.  Each day holds
one aggregated value per schema feature (or a missing marker) and, when the
participant answered the end-of-day survey, an affect report with twenty 0-100
emotion ratings and their positive/negative composites.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
from collections import abc
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from datetime import date
from enum import Enum
from pathlib import Path
from types import UnionType
from typing import Any, ClassVar, Iterable, Mapping, NoReturn, Union, get_args, get_origin, get_type_hints

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
    """The ten positively and ten negatively valenced survey item ids."""

    positive: tuple[str, ...]
    negative: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.positive) != 10 or len(set(self.positive)) != 10:
            raise SchemaError("polarity requires exactly 10 unique positive item ids")
        if len(self.negative) != 10 or len(set(self.negative)) != 10:
            raise SchemaError("polarity requires exactly 10 unique negative item ids")
        if set(self.positive) & set(self.negative):
            raise SchemaError("positive and negative item sets overlap")

    def all_items(self) -> tuple[str, ...]:
        return self.positive + self.negative


@dataclass(frozen=True)
class DailyFeatureVector:
    """Aggregated feature values for one day; None marks a missing feature."""

    day: date
    values: dict[str, float | None]
    provenance: dict[str, Provenance]

    def __post_init__(self) -> None:
        if set(self.values) != set(self.provenance):
            raise SchemaError(f"{self.day}: provenance keys differ from value keys")
        for fid, val in self.values.items():
            missing = self.provenance[fid] is Provenance.MISSING
            if missing != (val is None):
                raise SchemaError(f"{self.day}: {fid!r} value/provenance disagree on missingness")

    def is_missing(self, feature_id: str) -> bool:
        return self.provenance.get(feature_id, Provenance.MISSING) is Provenance.MISSING


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
        known = set(polarity.all_items())
        for item_id in items:
            if item_id not in known:
                raise InputFormatError(f"{day}: unknown affect item {item_id!r}")
        pa = _side_mean(items, polarity.positive)
        na = _side_mean(items, polarity.negative)
        return cls(day=day, items=dict(items), pa=pa, na=na)


def _side_mean(items: dict[str, float], side: tuple[str, ...]) -> float | None:
    if any(item_id not in items for item_id in side):
        return None
    return sum(items[item_id] for item_id in side) / len(side)


@dataclass(frozen=True)
class TimelineDay:
    day: date
    features: DailyFeatureVector
    affect: AffectReport | None = None

    def __post_init__(self) -> None:
        if self.features.day != self.day:
            raise SchemaError(f"feature vector dated {self.features.day} attached to {self.day}")
        if self.affect is not None and self.affect.day != self.day:
            raise SchemaError(f"affect report dated {self.affect.day} attached to {self.day}")


@dataclass(frozen=True)
class ParticipantTimeline:
    """Ordered per-participant day sequence; dates strictly increasing."""

    participant_id: str
    days: tuple[TimelineDay, ...]

    def __post_init__(self) -> None:
        for prev, cur in zip(self.days, self.days[1:]):
            if cur.day <= prev.day:
                raise SchemaError(
                    f"{self.participant_id}: dates not strictly increasing at {cur.day}"
                )

    def dates(self) -> tuple[date, ...]:
        return tuple(d.day for d in self.days)

    def day_map(self) -> dict[date, TimelineDay]:
        return {d.day: d for d in self.days}

    def with_days(self, days: Iterable[TimelineDay]) -> ParticipantTimeline:
        return ParticipantTimeline(self.participant_id, tuple(days))


def valid_affect_day_count(timeline: ParticipantTimeline) -> int:
    """Number of days with a complete (all twenty items answered) affect report."""
    return sum(1 for d in timeline.days if d.affect is not None and d.affect.complete)


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


def canonical_json(payload: dict) -> str:
    """Canonical JSON text (sorted keys, fixed separators); NaN and Infinity are refused."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)


def dump_json(path: Path | str, payload: dict) -> None:
    """Write a canonical JSON document."""
    try:
        text = canonical_json(payload)
    except ValueError as exc:
        raise PipelineError(f"{path}: {exc}") from exc
    Path(path).write_text(text + "\n", encoding="utf-8")


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


def from_json(tp: Any, value: Any, path: str | None = None) -> Any:
    """Read a JSON value as type ``tp`` (a type annotation), the inverse of to_json.

    A missing key takes its field's default, and fails without one; a key the
    class does not have fails, except format_version and run_id.  Every
    failure is one InputFormatError naming the path of the bad value.
    """
    path = path or tp.__name__
    if tp is float:
        if type(value) not in (int, float) or not math.isfinite(value):
            _fail(path, "expected a finite number")
        return float(value)
    if tp in (int, str, bool):
        if type(value) is not tp:
            _fail(path, f"expected {tp.__name__}")
        return value
    if tp is date or isinstance(tp, type) and issubclass(tp, Enum):
        try:
            return date.fromisoformat(value) if tp is date else tp(value)
        except (TypeError, ValueError):
            _fail(path, "expected an ISO date" if tp is date else f"expected one of {[m.value for m in tp]}")
    origin, args = get_origin(tp), get_args(tp)
    if is_dataclass(tp):
        if not isinstance(value, dict):
            _fail(path, "expected an object")
        spec = _fields_of(tp)
        unknown = set(value) - {key for _, key, _, _ in spec} - {"format_version", "run_id"}
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
        items = [from_json(args[0], v, f"{path}[{i}]") for i, v in enumerate(value)] if args else value
        return tuple(items) if tuple in (tp, origin) else items
    if tp is dict or origin in (dict, abc.Mapping):
        if not isinstance(value, dict):
            _fail(path, "expected an object")
        key_type, value_type = args or (str, Any)
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

    def to_day(self) -> TimelineDay:
        affect = self.affect and AffectReport(self.date, self.affect.items, self.affect.pa, self.affect.na)
        return TimelineDay(self.date, DailyFeatureVector(self.date, self.features, self.provenance), affect)


@dataclass(frozen=True)
class _TimelineDocument:
    """A timeline as stored: each day's vector and report flattened into it."""

    participant_id: str
    days: tuple[_DayEntry, ...]


def timeline_to_dict(timeline: ParticipantTimeline) -> dict:
    days = []
    for d in timeline.days:
        days.append(
            {
                "date": d.day.isoformat(),
                "features": d.features.values,
                "provenance": {k: v.value for k, v in d.features.provenance.items()},
                "affect": d.affect and {"items": d.affect.items, "pa": d.affect.pa, "na": d.affect.na},
            }
        )
    return {
        "format_version": FORMAT_VERSION,
        "participant_id": timeline.participant_id,
        "days": days,
    }


def timeline_from_dict(payload: dict) -> ParticipantTimeline:
    doc = from_json(_TimelineDocument, payload, "timeline")
    return ParticipantTimeline(doc.participant_id, tuple(entry.to_day() for entry in doc.days))


def save_timeline(path: Path | str, timeline: ParticipantTimeline) -> None:
    dump_json(path, timeline_to_dict(timeline))


def load_timeline(path: Path | str) -> ParticipantTimeline:
    return timeline_from_dict(read_json(path))
