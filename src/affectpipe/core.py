"""Shared domain vocabulary: modalities, feature schemas, daily vectors, affect reports.

A participant timeline is an ordered sequence of calendar days.  Each day holds
one aggregated value per schema feature (or a missing marker) and, when the
participant answered the end-of-day survey, an affect report with twenty 0-100
emotion ratings and their positive/negative composites.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import date
from enum import Enum
from pathlib import Path
from typing import Iterable

from .errors import InputFormatError, SchemaError

FORMAT_VERSION = 1

FEATURE_KINDS = ("continuous", "boolean")


class Modality(str, Enum):
    RING = "ring"
    WATCH = "watch"
    PHONE = "phone"


class Provenance(str, Enum):
    MEASURED = "measured"
    IMPUTED = "imputed"
    MISSING = "missing"


@dataclass(frozen=True)
class FeatureSpec:
    """One named daily feature tied to the device that produces it."""

    feature_id: str
    modality: Modality
    kind: str = "continuous"
    units: str = ""

    def __post_init__(self) -> None:
        if self.kind not in FEATURE_KINDS:
            raise SchemaError(f"feature {self.feature_id!r}: unknown kind {self.kind!r}")


@dataclass(frozen=True)
class FeatureSchema:
    """Registry of features; ids are unique and each belongs to one modality."""

    entries: tuple[FeatureSpec, ...]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for spec in self.entries:
            if spec.feature_id in seen:
                raise SchemaError(f"duplicate feature id {spec.feature_id!r}")
            seen.add(spec.feature_id)

    def feature_ids(self) -> tuple[str, ...]:
        return tuple(s.feature_id for s in self.entries)

    def spec_of(self, feature_id: str) -> FeatureSpec:
        for spec in self.entries:
            if spec.feature_id == feature_id:
                return spec
        raise SchemaError(f"unknown feature id {feature_id!r}")

    def has(self, feature_id: str) -> bool:
        return any(s.feature_id == feature_id for s in self.entries)

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

    @property
    def complete(self) -> bool:
        return self.pa is not None and self.na is not None

    @classmethod
    def from_items(cls, day: date, items: dict[str, float], polarity: ItemPolarity) -> AffectReport:
        known = set(polarity.all_items())
        for item_id, rating in items.items():
            if item_id not in known:
                raise InputFormatError(f"{day}: unknown affect item {item_id!r}")
            if not 0.0 <= rating <= 100.0:
                raise InputFormatError(
                    f"{day}: rating for {item_id!r} out of [0, 100]: {rating}"
                )
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
# JSON serialization
# ---------------------------------------------------------------------------


def dump_json(path: Path | str, payload: dict) -> None:
    """Write a canonical JSON document (sorted keys, fixed separators)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    Path(path).write_text(text + "\n", encoding="utf-8")


def read_json(path: Path | str) -> dict:
    p = Path(path)
    if not p.exists():
        from .errors import MissingInputError

        raise MissingInputError(f"no such file: {p}")
    try:
        return json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{p}: invalid JSON ({exc})") from exc


def schema_to_dict(schema: FeatureSchema) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "entries": [
            {"id": s.feature_id, "modality": s.modality.value, "kind": s.kind, "units": s.units}
            for s in schema.entries
        ],
    }


def schema_from_dict(payload: dict) -> FeatureSchema:
    try:
        entries = tuple(
            FeatureSpec(e["id"], Modality(e["modality"]), e.get("kind", "continuous"), e.get("units", ""))
            for e in payload["entries"]
        )
    except (KeyError, ValueError) as exc:
        raise InputFormatError(f"bad schema document: {exc}") from exc
    return FeatureSchema(entries)


def load_schema(path: Path | str) -> FeatureSchema:
    return schema_from_dict(read_json(path))


def _affect_to_dict(report: AffectReport) -> dict:
    return {"items": report.items, "pa": report.pa, "na": report.na}


def _affect_from_dict(day: date, payload: dict) -> AffectReport:
    items = {str(k): float(v) for k, v in payload["items"].items()}
    for item_id, rating in items.items():
        if not 0.0 <= rating <= 100.0:
            raise InputFormatError(f"{day}: rating for {item_id!r} out of [0, 100]: {rating}")
    pa = payload.get("pa")
    na = payload.get("na")
    return AffectReport(day=day, items=items, pa=None if pa is None else float(pa),
                        na=None if na is None else float(na))


def timeline_to_dict(timeline: ParticipantTimeline) -> dict:
    days = []
    for d in timeline.days:
        days.append(
            {
                "date": d.day.isoformat(),
                "features": d.features.values,
                "provenance": {k: v.value for k, v in d.features.provenance.items()},
                "affect": None if d.affect is None else _affect_to_dict(d.affect),
            }
        )
    return {
        "format_version": FORMAT_VERSION,
        "participant_id": timeline.participant_id,
        "days": days,
    }


def timeline_from_dict(payload: dict) -> ParticipantTimeline:
    try:
        pid = payload["participant_id"]
        days = []
        for entry in payload["days"]:
            day = date.fromisoformat(entry["date"])
            values = {
                str(k): (None if v is None else float(v)) for k, v in entry["features"].items()
            }
            provenance = {str(k): Provenance(v) for k, v in entry["provenance"].items()}
            affect = entry.get("affect")
            days.append(
                TimelineDay(
                    day=day,
                    features=DailyFeatureVector(day=day, values=values, provenance=provenance),
                    affect=None if affect is None else _affect_from_dict(day, affect),
                )
            )
    except (KeyError, ValueError) as exc:
        raise InputFormatError(f"bad timeline document: {exc}") from exc
    return ParticipantTimeline(participant_id=pid, days=tuple(days))


def save_timeline(path: Path | str, timeline: ParticipantTimeline) -> None:
    dump_json(path, timeline_to_dict(timeline))


def load_timeline(path: Path | str) -> ParticipantTimeline:
    return timeline_from_dict(read_json(path))
