"""Schema, affect-report, and eligibility contracts."""

from __future__ import annotations

import json
import os
import tempfile
import tracemalloc
from dataclasses import replace
from datetime import date, timedelta
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affectpipe import core
from affectpipe.core import (
    CODE_IMPUTED,
    CODE_MEASURED,
    CODE_MISSING,
    AffectReport,
    DailyAffect,
    FeatureSchema,
    FeatureSpec,
    NEGATIVE_ITEMS,
    POSITIVE_ITEMS,
    SURVEY_ITEMS,
    Modality,
    ParticipantTimeline,
    PROVENANCES,
    Provenance,
    RawJSON,
    RawJSONPieces,
    canonical_json,
    default_schema,
    dump_json,
    filter_eligible_participants,
    from_json,
    patched_timeline_to_dict,
    read_json,
    save_timeline,
    timeline_from_dict,
    timeline_to_dict,
    to_json,
    valid_affect_day_count,
)
from affectpipe.errors import InputFormatError, MissingInputError, PipelineError, SchemaError
from affectpipe.impute import fill_residual_with_participant_mean, impute_all

from conftest import D0, KEYS, RATINGS, make_affect, make_timeline, report_timelines, side_mean, timeline_document


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
# survey items and affect reports


def test_survey_items_shape():
    assert len(POSITIVE_ITEMS) == len(set(POSITIVE_ITEMS)) == 10
    assert len(NEGATIVE_ITEMS) == len(set(NEGATIVE_ITEMS)) == 10
    assert not set(POSITIVE_ITEMS) & set(NEGATIVE_ITEMS)
    assert SURVEY_ITEMS == POSITIVE_ITEMS + NEGATIVE_ITEMS


def composites_of(items):
    """The PA and NA a timeline computes for one day rated ``items``."""
    affect = DailyAffect.from_reports(1, [0], [AffectReport(D0, items)])
    return affect.pa[0], affect.na[0]


def test_composites_are_side_means():
    # positives 30,35,...,75 mean 52.5; negatives 10,...,55 mean 32.5
    items = {item: 30.0 + 5 * i for i, item in enumerate(POSITIVE_ITEMS)}
    items.update({item: 10.0 + 5 * i for i, item in enumerate(NEGATIVE_ITEMS)})
    pa, na = composites_of(items)
    assert pa == 52.5
    assert na == 32.5


def test_partial_side_gives_none_composite():
    items = {item: 50.0 for item in POSITIVE_ITEMS[1:]}  # one positive missing
    items.update({item: 20.0 for item in NEGATIVE_ITEMS})
    pa, na = composites_of(items)
    assert np.isnan(pa)
    assert na == 20.0


def one_day_document(items):
    """A timeline document of one day without features, rated ``items``."""
    day = {"date": D0.isoformat(), "features": {}, "provenance": {}, "affect": {"items": items}}
    return {"participant_id": "p", "days": [day]}


def test_rating_out_of_range_rejected():
    with pytest.raises(InputFormatError, match="out of"):
        timeline_from_dict(one_day_document({POSITIVE_ITEMS[0]: 101.0}))


def test_unknown_item_rejected():
    with pytest.raises(InputFormatError, match="unknown affect item"):
        timeline_from_dict(one_day_document({"serene": 50.0}))


@settings(max_examples=50)
@given(
    pos=st.lists(st.floats(0, 100, allow_nan=False), min_size=10, max_size=10),
    neg=st.lists(st.floats(0, 100, allow_nan=False), min_size=10, max_size=10),
)
def test_composites_equal_means_property(pos, neg):
    items = dict(zip(POSITIVE_ITEMS, pos))
    items.update(zip(NEGATIVE_ITEMS, neg))
    pa, na = composites_of(items)
    assert pa == pytest.approx(sum(pos) / 10, abs=1e-9)
    assert na == pytest.approx(sum(neg) / 10, abs=1e-9)
    assert 0.0 <= pa <= 100.0 and 0.0 <= na <= 100.0


def bits(value):
    """The float's bytes; None for no composite, as None or NaN."""
    return None if value is None or value != value else np.float64(value).tobytes()


@settings(max_examples=100, deadline=None)
@given(
    surveys=st.lists(
        st.dictionaries(st.sampled_from(SURVEY_ITEMS), RATINGS, min_size=17),
        min_size=1, max_size=6,
    )
)
def test_composites_equal_the_side_sum_in_polarity_order(surveys):
    """Each composite is the ratings of its side added in the order of
    POSITIVE_ITEMS or NEGATIVE_ITEMS and divided by 10, bit for bit; a side
    with an unanswered item has none."""
    reports = [AffectReport(D0 + timedelta(days=k), items) for k, items in enumerate(surveys)]
    affect = DailyAffect.from_reports(len(reports), range(len(reports)), reports)
    for k, items in enumerate(surveys):
        assert bits(affect.pa[k]) == bits(side_mean(items, POSITIVE_ITEMS))
        assert bits(affect.na[k]) == bits(side_mean(items, NEGATIVE_ITEMS))


# ---------------------------------------------------------------------------
# day vectors and timelines


def timeline_of(values, provenance, dates=(D0,), affect=None, feature_ids=("a", "b")):
    affect = make_affect(len(dates)) if affect is None else affect
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
    with pytest.raises(SchemaError, match="affect arrays do not match 1 dates x 0 items"):
        timeline_of([[1.0, 2.0]], [[CODE_MEASURED, CODE_MEASURED]], affect=make_affect(0))
    with pytest.raises(SchemaError, match="affect arrays do not match 1 dates x 20 items"):
        timeline_of([[1.0, 2.0]], [[CODE_MEASURED, CODE_MEASURED]], affect=make_affect(2, {1: (50.0, 20.0)}))
    unsorted = DailyAffect(
        ("b", "a"), np.full((1, 2), np.nan), np.zeros(1, dtype=bool), np.full(1, np.nan), np.full(1, np.nan)
    )
    with pytest.raises(SchemaError, match="affect item ids are not sorted"):
        timeline_of([[1.0, 2.0]], [[0, 0]], affect=unsorted)


def test_timeline_day_date_mismatch():
    """Affect belongs to the day of its row: a day without a report holds
    no rating and no composite."""
    affect = make_affect(2, {1: (50.0, 20.0)})
    timeline_of([[1.0, 2.0]] * 2, [[0, 0]] * 2, dates=(D0, D0 + timedelta(days=1)), affect=affect)
    affect.reported[1], affect.reported[0] = False, True
    with pytest.raises(SchemaError, match="2020-01-02: affect values on a day without a report"):
        timeline_of([[1.0, 2.0]] * 2, [[0, 0]] * 2, dates=(D0, D0 + timedelta(days=1)), affect=affect)


def test_timeline_dates_strictly_increasing():
    with pytest.raises(SchemaError, match="increasing at 2020-01-01"):
        timeline_of([[1.0, 2.0]] * 2, [[0, 0]] * 2, dates=(D0, D0), affect=make_affect(2))


def test_days_view_yields_dicts_and_provenance_members():
    tl = make_timeline("p", [{"sleep_deep": 3.0}], affect_by_index={0: (45.0, 25.0)})
    (day,) = tl.days
    assert day.day == D0 and tl.affect.reported[0] and (tl.affect.pa[0], tl.affect.na[0]) == (45.0, 25.0)
    assert day.features.values == {"sleep_deep": 3.0, "heart_rate": None, "walk_steps": None,
                                   "main_activity": None}
    assert day.features.provenance["sleep_deep"] is Provenance.MEASURED
    assert day.features.provenance["heart_rate"] is Provenance.MISSING


def test_valid_day_count_ignores_partial_reports(tiny_schema):
    partial = (None, None, {POSITIVE_ITEMS[0]: 50.0})
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


def reference_document(timeline, reports):
    """The dict the timeline renderer replaced, for json.dumps to write, its
    affect from the per-day reports the arrays were built from."""
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
        for day, v, p, report in zip(timeline.dates, values, names, reports)
    ]
    return {"format_version": 1, "participant_id": timeline.participant_id, "days": days}


@settings(max_examples=200, deadline=None)
@given(drawn=report_timelines(), run_id=st.none() | KEYS)
def test_timeline_text_equals_the_dict_written_by_json(drawn, run_id):
    timeline, reports = drawn
    expected, payload = reference_document(timeline, reports), timeline_to_dict(timeline)
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
    proud = tl.affect.item_ids.index("proud")
    tl.affect.ratings[0, proud] = np.nan  # NaN marks an item not answered
    assert "proud" not in timeline_document(tl)["days"][0]["affect"]["items"]
    tl.affect.ratings[0, proud] = np.inf
    with pytest.raises(PipelineError, match="timeline p01: 2020-01-01 affect: 'proud': inf is not a finite number"):
        save_timeline(tmp_path / "tl.json", tl)
    tl.affect.ratings[0, proud] = 50.0
    tl.affect.pa[0] = -np.inf
    # refused when the document is made, before any text is rendered
    with pytest.raises(PipelineError, match="timeline p01: 2020-01-01 affect: 'pa': -inf is not a finite number"):
        timeline_to_dict(tl)
    assert not (tmp_path / "tl.json").exists()


def patched_text(path, ingested, out):
    """The canonical JSON text of out's document written from ingested's
    document in ``path``."""
    return canonical_json(patched_timeline_to_dict(path, out, out.provenance != ingested.provenance))


def imputed(timeline, residual):
    """Window imputation, then the participant-mean fallback when ``residual``."""
    out = impute_all(timeline)
    return fill_residual_with_participant_mean(out) if residual else out


@settings(max_examples=200, deadline=None)
@given(drawn=report_timelines(max_days=8), residual=st.booleans(), run_id=st.none() | KEYS)
def test_patched_document_equals_the_full_render(drawn, residual, run_id):
    timeline, _ = drawn
    # Values small enough that no window or column sum overflows.
    ingested = replace(timeline, values=np.clip(timeline.values, -1e300, 1e300))
    out = imputed(ingested, residual)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ingested.json"
        doc = timeline_to_dict(ingested)
        if run_id is not None:
            doc["run_id"] = run_id
        dump_json(path, doc)
        assert patched_text(path, ingested, out) == canonical_json(timeline_to_dict(out))


@pytest.mark.parametrize("residual", [False, True])
def test_patched_document_covers_every_kind_of_gap(tmp_path, residual):
    # sleep_deep is missing on the first and last day; the ring is missing
    # as a whole on days 4-8, so day 6 has no window donor; main_activity is
    # never measured.  Days 2 and 9 have no report, day 3 answers one side
    # only (no NA), day 5 only some items (no composite).
    rows = [{"sleep_deep": 30.0 + i, "heart_rate": 60.0 - i / 3, "walk_steps": 1e4 / (i + 1)} for i in range(12)]
    for i in (0, 11):
        del rows[i]["sleep_deep"]
    for i in range(4, 9):
        del rows[i]["sleep_deep"], rows[i]["heart_rate"]
    affect = {i: (40.0 + i, 20.0) for i in (0, 1, 4, 6, 7, 8, 10, 11)}
    affect[3] = (50.0, None, {item: 50.0 for item in POSITIVE_ITEMS})
    affect[5] = (None, None, {"proud": 12.5, "upset": 3.0})
    ingested = make_timeline("p01", rows, affect_by_index=affect)
    out = imputed(ingested, residual)
    filled = (out.provenance != ingested.provenance).any(axis=1)
    assert filled.any() and not filled.all()  # days patched and days copied
    assert np.isnan(out.columns(["main_activity"])).all()
    path = tmp_path / "ingested.json"
    dump_json(path, {**timeline_to_dict(ingested), "run_id": "0123abcd"})
    assert patched_text(path, ingested, out) == canonical_json(timeline_to_dict(out))


def test_patched_document_refuses_text_that_is_not_the_timeline(tmp_path):
    ingested = make_timeline("p01", [{"sleep_deep": 30.0}, {}, {"sleep_deep": 32.0}])
    out = impute_all(ingested)
    path = tmp_path / "ingested.json"
    text = canonical_json(timeline_to_dict(ingested))
    day = D0 + timedelta(days=1)
    for changed, where in [
        (text.replace("2020-01-02", "2020-01-04"), f"day 2 is not {day} as written"),
        (text.replace('"sleep_deep":null', '"sleep_deep":31.0'), f'{day}: "sleep_deep" is not null'),
        (text.replace("]", ',{"affect":null}]', 1), "more days than its 3"),
        ("[]", "no days list first"),
    ]:
        path.write_text(changed, encoding="utf-8")
        with pytest.raises(PipelineError, match=f"not the document of timeline p01 as ingested: {where}"):
            patched_text(path, ingested, out)
    path.unlink()
    with pytest.raises(MissingInputError, match="no such file"):
        patched_text(path, ingested, out)
    # the checks of timeline_to_dict come first
    out.values[1, 0] = np.inf
    with pytest.raises(PipelineError, match="2020-01-02 'sleep_deep': inf is not a finite number"):
        patched_timeline_to_dict(path, out, out.provenance != ingested.provenance)


@settings(max_examples=100, deadline=None)
@given(drawn=report_timelines(max_days=8), window=st.integers(1, 300))
def test_patched_document_reads_through_any_window(drawn, window):
    timeline, _ = drawn
    ingested = replace(timeline, values=np.clip(timeline.values, -1e300, 1e300))
    out = imputed(ingested, residual=True)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ingested.json"
        dump_json(path, {**timeline_to_dict(ingested), "run_id": "0123abcd"})
        with mock.patch.object(core, "_WINDOW_BYTES", window):
            assert patched_text(path, ingested, out) == canonical_json(timeline_to_dict(out))


@pytest.mark.parametrize("window", [1, 5, 64])
def test_patched_document_refuses_the_same_text_through_a_small_window(tmp_path, monkeypatch, window):
    monkeypatch.setattr(core, "_WINDOW_BYTES", window)
    test_patched_document_refuses_text_that_is_not_the_timeline(tmp_path)


def test_patched_document_holds_a_window_of_its_source(tmp_path):
    rows = [{"sleep_deep": 30.0 + i / 7, "heart_rate": 60.0 - i / 3} for i in range(3000)]
    for i in range(0, 3000, 5):
        del rows[i]["sleep_deep"]
    ingested = make_timeline("p01", rows, affect_by_index={i: (40.0 + i % 50, 20.0) for i in range(3000)})
    out = impute_all(ingested)
    source, target = tmp_path / "ingested.json", tmp_path / "imputed.json"
    save_timeline(source, ingested)
    dump_json(target, timeline_to_dict(out))  # a first write outside the trace
    doc = patched_timeline_to_dict(source, out, out.provenance != ingested.provenance)
    tracemalloc.start()
    try:
        dump_json(target, doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the source is about 1.8 MB; read whole, it was held for the whole write
    assert source.stat().st_size > 1_500_000
    assert target.read_bytes() == canonical_json(timeline_to_dict(out)).encode() + b"\n"
    assert peak < 400_000


def test_read_json_refuses_a_directory(tmp_path):
    with pytest.raises(MissingInputError, match=f"^not a file: {tmp_path}$"):
        read_json(tmp_path)


def assert_same_affect(a, b):
    """Equal affect arrays, an item column that one side lacks reading as
    all NaN (never answered)."""
    np.testing.assert_array_equal(a.reported, b.reported)
    np.testing.assert_array_equal(a.pa, b.pa)
    np.testing.assert_array_equal(a.na, b.na)
    for item in set(a.item_ids) | set(b.item_ids):
        np.testing.assert_array_equal(a.column(item), b.column(item))


@settings(max_examples=100, deadline=None)
@given(drawn=report_timelines(kinds=("absent", "some items", "all items")))
def test_timeline_document_round_trips_the_arrays(drawn):
    timeline, reports = drawn
    back = timeline_from_dict(timeline_document(timeline))
    assert (back.participant_id, back.dates) == (timeline.participant_id, timeline.dates)
    # a repeated feature id keeps its last column
    column = {fid: j for j, fid in enumerate(timeline.feature_ids)}
    np.testing.assert_array_equal(back.values, timeline.values[:, [column[f] for f in back.feature_ids]])
    np.testing.assert_array_equal(back.provenance, timeline.provenance[:, [column[f] for f in back.feature_ids]])
    assert_same_affect(back.affect, timeline.affect)
    assert back.affect.item_ids == tuple(sorted({item for r in reports if r for item in r.items}))


@settings(max_examples=100, deadline=None)
@given(drawn=report_timelines())
def test_valid_day_count_equals_the_per_report_count(drawn):
    timeline, reports = drawn
    expected = sum(1 for r in reports if r is not None and r.pa is not None and r.na is not None)
    assert valid_affect_day_count(timeline) == expected
