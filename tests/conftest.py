"""Shared builders for hand-sized timelines used across the suite."""

from __future__ import annotations

import json
from datetime import date, timedelta

import numpy as np
import pytest

from affectpipe.core import (
    CODE_MEASURED,
    CODE_MISSING,
    AffectReport,
    FeatureSchema,
    FeatureSpec,
    Modality,
    ParticipantTimeline,
    canonical_json,
    default_polarity,
    default_schema,
    timeline_to_dict,
)

D0 = date(2020, 1, 1)

# Four features, one per texture we care about: two ring columns, one watch,
# one phone boolean.  Small enough that expected matrices fit in a docstring.
TINY_SCHEMA = FeatureSchema(
    (
        FeatureSpec("sleep_deep", Modality.RING, "continuous", "min"),
        FeatureSpec("heart_rate", Modality.RING, "continuous", "bpm"),
        FeatureSpec("walk_steps", Modality.WATCH, "continuous", "count"),
        FeatureSpec("main_activity", Modality.PHONE, "boolean", "fraction"),
    )
)


def timeline_document(timeline):
    """The timeline document as written: timeline_to_dict, whose days are
    JSON text, through canonical_json and decoded."""
    return json.loads(canonical_json(timeline_to_dict(timeline)))


def make_report(day, pa=50.0, na=20.0, polarity=None):
    """Complete 20-item report whose composites equal pa/na exactly."""
    polarity = polarity or default_polarity()
    items = {item: float(pa) for item in polarity.positive}
    items.update({item: float(na) for item in polarity.negative})
    return AffectReport.from_items(day, items, polarity)


def make_timeline(
    pid,
    values_by_day,
    schema=TINY_SCHEMA,
    affect_by_index=None,
    start=D0,
    dates=None,
):
    """Timeline from a list of per-day value dicts (index i -> start + i days);
    a feature left out or None is missing, every other value measured.

    ``dates`` overrides the consecutive-day default so calendar gaps can be
    constructed.  ``affect_by_index`` maps list index -> AffectReport factory
    args (pa, na) or a prebuilt report.
    """
    affect_by_index = affect_by_index or {}
    fids = schema.feature_ids()
    if dates is None:
        dates = [start + timedelta(days=i) for i in range(len(values_by_day))]
    values = np.array([[row.get(fid) for fid in fids] for row in values_by_day], dtype=float)
    values = values.reshape(len(values_by_day), len(fids))
    affect = [affect_by_index.get(i) for i in range(len(dates))]
    return ParticipantTimeline(
        pid,
        fids,
        tuple(dates),
        values,
        np.where(np.isnan(values), CODE_MISSING, CODE_MEASURED).astype(np.int8),
        tuple(make_report(d, *a) if isinstance(a, tuple) else a for d, a in zip(dates, affect)),
    )


def series_timeline(pid, series, fid="sleep_deep", schema=TINY_SCHEMA, **kw):
    """Timeline varying one feature; the other columns stay measured constants."""
    rows = []
    for v in series:
        base = {"sleep_deep": 30.0, "heart_rate": 60.0, "walk_steps": 5000.0, "main_activity": 0.5}
        base[fid] = v
        rows.append(base)
    return make_timeline(pid, rows, schema=schema, **kw)


@pytest.fixture
def schema():
    return default_schema()


@pytest.fixture
def polarity():
    return default_polarity()


@pytest.fixture
def tiny_schema():
    return TINY_SCHEMA
