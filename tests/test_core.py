"""Schema, affect-report, and eligibility contracts."""

from __future__ import annotations

import json
import os
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affectpipe.core import (
    CODE_IMPUTED,
    CODE_MEASURED,
    CODE_MISSING,
    AffectReport,
    FeatureSchema,
    FeatureSpec,
    ItemPolarity,
    Modality,
    ParticipantTimeline,
    PROVENANCES,
    Provenance,
    RawJSON,
    RawJSONPieces,
    canonical_json,
    default_polarity,
    default_schema,
    dump_json,
    filter_eligible_participants,
    from_json,
    read_json,
    save_timeline,
    timeline_from_dict,
    timeline_to_dict,
    to_json,
    valid_affect_day_count,
)
from affectpipe.errors import PipelineError, SchemaError

from conftest import D0, make_report, make_timeline, timeline_document


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


def timeline_of(values, provenance, dates=(D0,), affect=(None,), feature_ids=("a", "b")):
    return ParticipantTimeline(
        "p", feature_ids, dates, np.array(values, dtype=float), np.array(provenance, dtype=np.int8), affect
    )


def test_vector_provenance_must_match_missingness():
    timeline_of([[1.0, np.nan]], [[CODE_MEASURED, CODE_MISSING]])
    with pytest.raises(SchemaError, match="'b' value/provenance disagree"):
        timeline_of([[1.0, 2.0]], [[CODE_MEASURED, CODE_MISSING]])
    with pytest.raises(SchemaError, match="'a' value/provenance disagree"):
        timeline_of([[np.nan, 2.0]], [[CODE_IMPUTED, CODE_MEASURED]])
    with pytest.raises(SchemaError, match="'a' value/provenance disagree"):
        timeline_of([[np.inf, 2.0]], [[CODE_MEASURED, CODE_MEASURED]])


def test_vector_key_sets_must_match():
    day = {"date": "2020-01-01", "features": {"a": 1.0}, "provenance": {"a": "measured"}}
    other = {"date": "2020-01-02", "features": {"b": 1.0}, "provenance": {"b": "measured"}}
    payload = {"participant_id": "p", "days": [day]}
    assert timeline_from_dict(payload).feature_ids == ("a",)
    for second in (other, dict(day, date="2020-01-02", provenance={"b": "measured"})):
        with pytest.raises(SchemaError, match="2020-01-02: feature or provenance keys differ"):
            timeline_from_dict(dict(payload, days=[day, second]))


def test_timeline_shapes_must_match_dates_and_features():
    with pytest.raises(SchemaError, match="1 dates x 2 features"):
        timeline_of([[1.0]], [[CODE_MEASURED]])
    with pytest.raises(SchemaError, match="1 dates x 2 features"):
        timeline_of([[1.0, 2.0]], [[CODE_MEASURED, CODE_MEASURED]], affect=())


def test_timeline_day_date_mismatch():
    with pytest.raises(SchemaError, match="attached"):
        timeline_of([[1.0, 2.0]], [[0, 0]], affect=(make_report(D0 + timedelta(days=1)),))


def test_timeline_dates_strictly_increasing():
    with pytest.raises(SchemaError, match="increasing at 2020-01-01"):
        timeline_of([[1.0, 2.0]] * 2, [[0, 0]] * 2, dates=(D0, D0), affect=(None, None))


def test_days_view_yields_dicts_and_provenance_members():
    tl = make_timeline("p", [{"sleep_deep": 3.0}], affect_by_index={0: (45.0, 25.0)})
    (day,) = tl.days
    assert day.day == D0 and day.affect is tl.affect[0]
    assert day.features.values == {"sleep_deep": 3.0, "heart_rate": None, "walk_steps": None,
                                   "main_activity": None}
    assert day.features.provenance["sleep_deep"] is Provenance.MEASURED
    assert day.features.provenance["heart_rate"] is Provenance.MISSING


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


def test_a_failed_write_leaves_no_file(tmp_path) -> None:
    def pieces():
        yield "["
        raise ValueError("Out of range float values are not JSON compliant")

    path = tmp_path / "doc.json"
    for _ in range(2):
        with pytest.raises(PipelineError, match="doc.json: Out of range float"):
            dump_json(path, {"rows": RawJSONPieces(pieces), "x": 1})
        assert list(tmp_path.iterdir()) == []
    dump_json(path, {"x": 1})
    before = path.read_bytes()
    with pytest.raises(PipelineError):
        dump_json(path, {"rows": RawJSONPieces(pieces)})
    with pytest.raises(PipelineError):
        dump_json(path, {"x": float("nan")})
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_dump_json_writes_pieces_as_canonical_json_joins_them(tmp_path) -> None:
    payload = {"b": RawJSONPieces(lambda: ["[", "1", ",", "2", "]"]), "a": RawJSON('{"k":true}'), "c": [3]}
    text = canonical_json(payload)
    assert text == '{"a":{"k":true},"b":[1,2],"c":[3]}'
    for name in ("first.json", "second.json"):
        dump_json(tmp_path / name, payload)
        assert (tmp_path / name).read_text(encoding="utf-8") == text + "\n"


def test_dump_json_replaces_a_link_target_and_writes_a_device_in_place(tmp_path) -> None:
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text("old\n")
    link.symlink_to(target)
    dump_json(link, {"x": 1})
    assert link.is_symlink() and target.read_text() == '{"x":1}\n'
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "target.json"]
    dump_json(os.devnull, {"x": 1})
    assert Path(os.devnull).is_char_device()


def test_schema_round_trip(schema):
    assert from_json(FeatureSchema, to_json(schema)) == schema


def test_timeline_round_trip(tiny_schema):
    tl = make_timeline(
        "p7",
        [{"sleep_deep": 30.0, "heart_rate": None}, {"sleep_deep": None}],
        affect_by_index={0: (45.0, 25.0)},
    )
    payload = timeline_document(tl)
    back = timeline_from_dict(payload)
    assert timeline_document(back) == payload


def reference_document(timeline):
    """The dict the timeline renderer replaced, for json.dumps to write."""
    fids = timeline.feature_ids
    values = np.where(timeline.provenance == CODE_MISSING, None, timeline.values).tolist()
    names = np.array([p.value for p in PROVENANCES], dtype=object)[timeline.provenance].tolist()
    days = [
        {
            "date": day.isoformat(),
            "features": dict(zip(fids, v)),
            "provenance": dict(zip(fids, p)),
            "affect": report and {"items": report.items, "pa": report.pa, "na": report.na},
        }
        for day, v, p, report in zip(timeline.dates, values, names, timeline.affect)
    ]
    return {"format_version": 1, "participant_id": timeline.participant_id, "days": days}


# Keys that JSON escapes, that a % template must escape, that sort in
# another order than they are listed, and that are not ASCII.
KEYS = st.text(st.sampled_from(["a", "b", "Z", "_", " ", '"', "\\", "%", "é", "中", "\x01", "\u2028"]), max_size=4)
NUMBERS = st.sampled_from([-0.0, 0.0, 5e-324, 1e-5, 1e16, 0.1, 100.0]) | st.floats(
    allow_nan=False, allow_infinity=False
)
RATINGS = st.sampled_from([-0.0, 0.0, 5e-324, 1e-5, 50.0, 100.0]) | st.floats(0.0, 100.0)


@st.composite
def timelines(draw):
    fids = tuple(draw(st.lists(KEYS, max_size=5)))
    gaps = draw(st.lists(st.integers(1, 3), max_size=5))
    dates = tuple(D0 + timedelta(days=sum(gaps[:k])) for k in range(len(gaps)))
    shape = (len(dates), len(fids))
    n = shape[0] * shape[1]
    codes = np.array(
        draw(st.lists(st.sampled_from([CODE_MEASURED, CODE_IMPUTED, CODE_MISSING]), min_size=n, max_size=n)),
        dtype=np.int8,
    ).reshape(shape)
    numbers = draw(st.lists(NUMBERS, min_size=n, max_size=n))
    values = np.where(codes == CODE_MISSING, np.nan, np.array(numbers, dtype=float).reshape(shape))
    polarity = default_polarity()
    reports = []
    for day in dates:
        kind = draw(st.sampled_from(["absent", "any items", "survey"]))
        if kind == "absent":
            reports.append(None)
        elif kind == "any items":
            items = draw(st.dictionaries(KEYS, RATINGS, max_size=4))
            pa, na = draw(st.none() | NUMBERS), draw(st.none() | NUMBERS)
            reports.append(AffectReport(day, items, pa, na))
        else:
            answered = draw(st.lists(st.sampled_from(polarity.all_items()), unique=True, min_size=1))
            ratings = draw(st.lists(RATINGS, min_size=len(answered), max_size=len(answered)))
            reports.append(AffectReport.from_items(day, dict(zip(answered, ratings)), polarity))
    return ParticipantTimeline(draw(KEYS), fids, dates, values, codes, tuple(reports))


@settings(max_examples=200, deadline=None)
@given(timeline=timelines(), run_id=st.none() | KEYS)
def test_timeline_text_equals_the_dict_written_by_json(timeline, run_id):
    expected, payload = reference_document(timeline), timeline_to_dict(timeline)
    if run_id is not None:
        expected["run_id"] = payload["run_id"] = run_id
    written = json.dumps(expected, sort_keys=True, separators=(",", ":"), allow_nan=False)
    assert canonical_json(payload) == written


def test_timeline_text_refuses_a_planted_non_finite_value(tmp_path):
    tl = make_timeline("p01", [{"sleep_deep": 30.0, "heart_rate": None}, {"sleep_deep": 31.0}])
    tl.values[0, 1] = np.inf  # a missing cell is written as null whatever it holds
    assert timeline_document(tl)["days"][0]["features"]["heart_rate"] is None
    tl.values[1, 0] = np.nan
    with pytest.raises(PipelineError, match="timeline p01: 2020-01-02 'sleep_deep': nan is not a finite number"):
        save_timeline(tmp_path / "tl.json", tl)
    tl = make_timeline("p01", [{"sleep_deep": 30.0}], affect_by_index={0: (50.0, 20.0)})
    tl.affect[0].items["proud"] = float("nan")
    with pytest.raises(PipelineError, match="timeline p01: 2020-01-01 affect: Out of range float"):
        save_timeline(tmp_path / "tl.json", tl)
    assert not (tmp_path / "tl.json").exists()
