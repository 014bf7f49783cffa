"""Schema, affect-report, and eligibility contracts."""

from __future__ import annotations

from datetime import date, timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affectpipe.core import (
    AffectReport,
    DailyFeatureVector,
    FeatureSchema,
    FeatureSpec,
    ItemPolarity,
    Modality,
    ParticipantTimeline,
    Provenance,
    TimelineDay,
    default_polarity,
    default_schema,
    dump_json,
    filter_eligible_participants,
    from_json,
    read_json,
    timeline_from_dict,
    timeline_to_dict,
    to_json,
    valid_affect_day_count,
)
from affectpipe.errors import SchemaError

from conftest import D0, make_day, make_report, make_timeline


# ---------------------------------------------------------------------------
# schema


def test_default_schema_inventory(schema):
    ids = schema.feature_ids()
    assert len(ids) == 39
    assert len(set(ids)) == 39
    by_mod = {m: schema.features_for([m]) for m in Modality}
    assert len(by_mod[Modality.RING]) == 29
    assert len(by_mod[Modality.WATCH]) == 7
    assert len(by_mod[Modality.PHONE]) == 3
    # phone activities are boolean fractions of the day
    for fid in by_mod[Modality.PHONE]:
        spec = schema.spec_of(fid)
        assert spec.kind == "boolean"
        assert spec.units == "fraction"
    # the headline sleep and cardiac columns exist under their plain names
    for fid in ("sleep_deep", "sleep_light", "heart_rate_variability", "met_high"):
        assert schema.has(fid)


def test_features_for_preserves_schema_order(schema):
    ring_watch = schema.features_for([Modality.RING, Modality.WATCH])
    assert ring_watch == schema.feature_ids()[:36]
    assert schema.features_for([Modality.PHONE]) == schema.feature_ids()[36:]


def test_schema_rejects_duplicates():
    spec = FeatureSpec("x", Modality.RING)
    with pytest.raises(SchemaError, match="duplicate"):
        FeatureSchema((spec, spec))


def test_feature_spec_rejects_unknown_kind():
    with pytest.raises(SchemaError, match="kind"):
        FeatureSpec("x", Modality.RING, kind="categorical")


def test_spec_of_unknown_feature(schema):
    with pytest.raises(SchemaError, match="unknown feature"):
        schema.spec_of("nope")


# ---------------------------------------------------------------------------
# polarity and affect reports


def test_default_polarity_shape(polarity):
    assert len(polarity.positive) == 10
    assert len(polarity.negative) == 10
    assert not set(polarity.positive) & set(polarity.negative)
    assert len(polarity.all_items()) == 20


def test_polarity_rejects_overlap():
    pos = tuple(f"p{i}" for i in range(10))
    neg = ("p0",) + tuple(f"n{i}" for i in range(9))
    with pytest.raises(SchemaError, match="overlap"):
        ItemPolarity(pos, neg)


def test_polarity_rejects_wrong_count():
    with pytest.raises(SchemaError):
        ItemPolarity(tuple(f"p{i}" for i in range(9)), tuple(f"n{i}" for i in range(10)))


def test_composites_are_side_means(polarity):
    # positives 30,35,...,75 mean 52.5; negatives 10,...,55 mean 32.5
    items = {item: 30.0 + 5 * i for i, item in enumerate(polarity.positive)}
    items.update({item: 10.0 + 5 * i for i, item in enumerate(polarity.negative)})
    report = AffectReport.from_items(D0, items, polarity)
    assert report.pa == 52.5
    assert report.na == 32.5
    assert report.complete


def test_partial_side_gives_none_composite(polarity):
    items = {item: 50.0 for item in polarity.positive[1:]}  # one positive missing
    items.update({item: 20.0 for item in polarity.negative})
    report = AffectReport.from_items(D0, items, polarity)
    assert report.pa is None
    assert report.na == 20.0
    assert not report.complete


def test_rating_out_of_range_rejected(polarity):
    with pytest.raises(Exception, match="out of"):
        AffectReport.from_items(D0, {polarity.positive[0]: 101.0}, polarity)


def test_unknown_item_rejected(polarity):
    with pytest.raises(Exception, match="unknown affect item"):
        AffectReport.from_items(D0, {"serene": 50.0}, polarity)


@settings(max_examples=50)
@given(
    pos=st.lists(st.floats(0, 100, allow_nan=False), min_size=10, max_size=10),
    neg=st.lists(st.floats(0, 100, allow_nan=False), min_size=10, max_size=10),
)
def test_composites_equal_means_property(pos, neg):
    polarity = default_polarity()
    items = dict(zip(polarity.positive, pos))
    items.update(zip(polarity.negative, neg))
    report = AffectReport.from_items(D0, items, polarity)
    assert report.pa == pytest.approx(sum(pos) / 10, abs=1e-9)
    assert report.na == pytest.approx(sum(neg) / 10, abs=1e-9)
    assert 0.0 <= report.pa <= 100.0 and 0.0 <= report.na <= 100.0


# ---------------------------------------------------------------------------
# day vectors and timelines


def test_vector_provenance_must_match_missingness(tiny_schema):
    values = {fid: 1.0 for fid in tiny_schema.feature_ids()}
    prov = {fid: Provenance.MEASURED for fid in tiny_schema.feature_ids()}
    bad = dict(prov, sleep_deep=Provenance.MISSING)
    with pytest.raises(SchemaError, match="disagree"):
        DailyFeatureVector(day=D0, values=values, provenance=bad)
    none_values = dict(values, sleep_deep=None)
    with pytest.raises(SchemaError, match="disagree"):
        DailyFeatureVector(day=D0, values=none_values, provenance=prov)


def test_vector_key_sets_must_match(tiny_schema):
    with pytest.raises(SchemaError, match="keys"):
        DailyFeatureVector(day=D0, values={"a": 1.0}, provenance={})


def test_timeline_day_date_mismatch(tiny_schema):
    vec = make_day(tiny_schema, D0, {"sleep_deep": 1.0}).features
    with pytest.raises(SchemaError, match="attached"):
        TimelineDay(day=D0 + timedelta(days=1), features=vec)


def test_timeline_dates_strictly_increasing(tiny_schema):
    d = make_day(tiny_schema, D0, {})
    with pytest.raises(SchemaError, match="increasing"):
        ParticipantTimeline("p", (d, d))


def test_valid_day_count_ignores_partial_reports(tiny_schema, polarity):
    partial = AffectReport.from_items(
        D0 + timedelta(days=1), {polarity.positive[0]: 50.0}, polarity
    )
    tl = make_timeline(
        "p",
        [{}, {}, {}],
        affect_by_index={0: (40.0, 20.0), 1: partial},
    )
    assert valid_affect_day_count(tl) == 1


def test_eligibility_is_strictly_greater():
    def with_reports(pid, n):
        return make_timeline(
            pid, [{} for _ in range(n)], affect_by_index={i: (50.0, 20.0) for i in range(n)}
        )

    a, b, c = with_reports("a", 6), with_reports("b", 5), with_reports("c", 2)
    kept = filter_eligible_participants([a, b, c], 5)
    assert [t.participant_id for t in kept] == ["a"]  # 5 valid days is not > 5
    with pytest.raises(ValueError):
        filter_eligible_participants([a], -1)


@settings(max_examples=30)
@given(
    counts=st.lists(st.integers(0, 8), min_size=1, max_size=5),
    t1=st.integers(0, 8),
    t2=st.integers(0, 8),
)
def test_eligibility_monotone_in_threshold(counts, t1, t2):
    lo, hi = sorted((t1, t2))
    tls = [
        make_timeline(
            f"p{j}", [{} for _ in range(max(n, 1))],
            affect_by_index={i: (50.0, 20.0) for i in range(n)},
        )
        for j, n in enumerate(counts)
    ]
    strict = {t.participant_id for t in filter_eligible_participants(tls, hi)}
    loose = {t.participant_id for t in filter_eligible_participants(tls, lo)}
    assert strict <= loose


# ---------------------------------------------------------------------------
# serialization


def test_dump_json_is_key_order_invariant(tmp_path) -> None:
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    dump_json(a, {"x": 1, "y": {"b": 2, "a": 3}})
    dump_json(b, {"y": {"a": 3, "b": 2}, "x": 1})
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().endswith(b"\n")
    assert read_json(a) == {"x": 1, "y": {"a": 3, "b": 2}}


def test_schema_round_trip(schema):
    assert from_json(FeatureSchema, to_json(schema)) == schema


def test_timeline_round_trip(tiny_schema):
    tl = make_timeline(
        "p7",
        [{"sleep_deep": 30.0, "heart_rate": None}, {"sleep_deep": None}],
        affect_by_index={0: (45.0, 25.0)},
    )
    payload = timeline_to_dict(tl)
    back = timeline_from_dict(payload)
    assert back == tl
    assert timeline_to_dict(back) == payload
