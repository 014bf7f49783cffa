"""Median-split and compiled-mood labeling, plus dataset assembly."""

from __future__ import annotations

from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affectpipe.core import Modality, from_json, to_json
from affectpipe.errors import InsufficientDataError, NoDataError, SchemaError
from affectpipe.labels import (
    EXCLUDE_MIDDLE_BAND,
    EXCLUDE_MISSING_AFFECT,
    Label,
    LabelSet,
    TargetSpec,
    apply_thresholds,
    build_dataset,
    build_labels,
    build_labels_cohort,
    compiled_mood_labels,
    concat_datasets,
    dataset_from_dict,
    dataset_to_dict,
    median_split_labels,
    percentile_thresholds,
)

from conftest import D0, TINY_SCHEMA, make_report, make_timeline, series_timeline


def days(n, start=D0):
    return [start + timedelta(days=i) for i in range(n)]


def value_map(values, start=D0):
    return {d: float(v) for d, v in zip(days(len(values), start), values)}


def rank_interpolated(sorted_vals, q):
    """Independent closest-ranks percentile with linear interpolation."""
    pos = q / 100.0 * (len(sorted_vals) - 1)
    lo = int(np.floor(pos))
    hi = int(np.ceil(pos))
    frac = pos - lo
    return sorted_vals[lo] + frac * (sorted_vals[hi] - sorted_vals[lo])


# ---------------------------------------------------------------------------
# thresholds and median split


def test_label_enum_aliases():
    assert Label.HAPPY is Label.HIGH
    assert Label.SAD is Label.LOW
    assert Label.HIGH.value == "High" and Label.LOW.value == "Low"


def test_percentile_thresholds_one_to_ten():
    lo, hi = percentile_thresholds(list(range(1, 11)))
    assert lo == pytest.approx(4.6, abs=1e-12)
    assert hi == pytest.approx(6.4, abs=1e-12)


@settings(max_examples=50)
@given(
    values=st.lists(st.floats(-1e4, 1e4, allow_nan=False), min_size=2, max_size=60),
    band=st.floats(0.0, 0.8),
)
def test_percentile_thresholds_match_rank_oracle(values, band):
    lo, hi = percentile_thresholds(values, band)
    s = sorted(values)
    half = 100.0 * band / 2.0
    assert lo == pytest.approx(rank_interpolated(s, 50.0 - half), rel=1e-9, abs=1e-9)
    assert hi == pytest.approx(rank_interpolated(s, 50.0 + half), rel=1e-9, abs=1e-9)


def test_median_split_one_to_ten():
    entries, excluded = median_split_labels(value_map(range(1, 11)))
    got = {d.day: label for d, label in [(k, v) for k, v in entries.items()]}
    assert {k.day for k, v in entries.items() if v is Label.LOW} == {1, 2, 3, 4}
    assert {k.day for k, v in entries.items() if v is Label.HIGH} == {7, 8, 9, 10}
    assert {k.day for k in excluded} == {5, 6}
    assert set(excluded.values()) == {EXCLUDE_MIDDLE_BAND}


def test_median_split_identical_values_all_excluded():
    entries, excluded = median_split_labels(value_map([5.0] * 12))
    assert entries == {}
    assert len(excluded) == 12


def test_median_split_needs_ten_days():
    with pytest.raises(InsufficientDataError, match="insufficient label data"):
        median_split_labels(value_map(range(9)))


def test_threshold_boundaries_are_strict():
    values = value_map([1.9, 2.0, 3.0, 4.0, 4.0001])
    entries, excluded = apply_thresholds(values, 2.0, 4.0)
    labels = {values[k]: v for k, v in entries.items()}
    assert labels == {1.9: Label.LOW, 4.0001: Label.HIGH}
    assert {values[k] for k in excluded} == {2.0, 3.0, 4.0}


@settings(max_examples=40)
@given(
    st.lists(
        st.floats(-1e5, 1e5, allow_nan=False), min_size=10, max_size=120, unique=True
    )
)
def test_median_split_balance_on_distinct_values(values):
    entries, excluded = median_split_labels(value_map(values))
    n_high = sum(1 for v in entries.values() if v is Label.HIGH)
    n_low = sum(1 for v in entries.values() if v is Label.LOW)
    assert abs(n_high - n_low) <= 1
    assert len(entries) + len(excluded) == len(values)
    if len(values) >= 50:
        frac = len(excluded) / len(values)
        assert 0.15 <= frac <= 0.25


@settings(max_examples=40)
@given(
    values=st.lists(st.integers(-10000, 10000), min_size=10, max_size=60, unique=True),
    a=st.integers(1, 50),
    b=st.integers(-1000, 1000),
)
def test_labels_invariant_under_increasing_affine_map(values, a, b):
    # integer inputs keep the affine image exact in float64, so the rank
    # structure (and hence every label) must carry over unchanged
    base, base_exc = median_split_labels(value_map(values))
    mapped, mapped_exc = median_split_labels(value_map([a * v + b for v in values]))
    assert dict(base) == dict(mapped)
    assert set(base_exc) == set(mapped_exc)


def test_labels_invariant_under_cubic_map():
    values = [3.0, -8.0, 1.5, 12.0, -2.0, 7.0, 0.5, -11.0, 5.0, 9.0, -4.0, 2.5]
    base, _ = median_split_labels(value_map(values))
    cubed, _ = median_split_labels(value_map([v**3 for v in values]))
    assert base == cubed


# ---------------------------------------------------------------------------
# compiled mood


def test_compiled_mood_dominant_rules():
    d1, d2, d3, d4 = days(4)
    pa = {d1: 10.0, d2: -2.0, d3: 0.0, d4: -5.0}
    na = {d1: 3.0, d2: 8.0, d3: 0.0, d4: -5.0}
    entries, excluded = compiled_mood_labels(pa, na, medians=(0.0, 0.0))
    assert entries[d1] is Label.HAPPY  # PA dominates, positive
    assert entries[d2] is Label.SAD  # NA dominates, positive
    assert d3 in excluded  # both deviations zero
    assert entries[d4] is Label.SAD  # tie defers to PA, negative


def test_compiled_mood_low_na_reads_happy():
    d1 = D0
    entries, _ = compiled_mood_labels({d1: 1.0}, {d1: -9.0}, medians=(0.0, 0.0))
    assert entries[d1] is Label.HAPPY


def test_compiled_mood_default_medians_match_numpy():
    pa = value_map([10, 20, 30, 40, 50])
    na = value_map([5, 5, 25, 45, 45])
    entries, excluded = compiled_mood_labels(pa, na)
    med_pa, med_na = np.median(list(pa.values())), np.median(list(na.values()))
    for d in pa:
        dev_pa, dev_na = pa[d] - med_pa, na[d] - med_na
        if abs(dev_pa) >= abs(dev_na):
            expect = None if dev_pa == 0 else (Label.HAPPY if dev_pa > 0 else Label.SAD)
        else:
            expect = Label.SAD if dev_na > 0 else Label.HAPPY
        if expect is None:
            assert d in excluded
        else:
            assert entries[d] is expect


def test_compiled_mood_date_mismatch():
    with pytest.raises(SchemaError, match="date sets"):
        compiled_mood_labels({D0: 1.0}, {D0 + timedelta(days=1): 1.0})


@settings(max_examples=60)
@given(
    devs=st.lists(
        st.tuples(st.floats(-50, 50, allow_nan=False), st.floats(-50, 50, allow_nan=False)),
        min_size=1,
        max_size=20,
    )
)
def test_compiled_mood_swap_flips_labels(devs):
    dd = days(len(devs))
    pa = {d: a for d, (a, _) in zip(dd, devs)}
    na = {d: b for d, (_, b) in zip(dd, devs)}
    fwd, fwd_exc = compiled_mood_labels(pa, na, medians=(0.0, 0.0))
    rev, rev_exc = compiled_mood_labels(na, pa, medians=(0.0, 0.0))
    for d, (a, b) in zip(dd, devs):
        if a == b:
            continue  # the swap is a no-op on the diagonal
        if d in fwd_exc:
            assert d in rev_exc
        else:
            assert rev[d] is (Label.SAD if fwd[d] is Label.HAPPY else Label.HAPPY)


# ---------------------------------------------------------------------------
# build_labels over timelines


def affect_series(pa_values, na=20.0):
    return {i: (float(v), na) for i, v in enumerate(pa_values)}


def test_build_labels_pa_target():
    tl = make_timeline("p", [{}] * 10, affect_by_index=affect_series(range(10, 110, 10)))
    ls = build_labels(tl, TargetSpec(kind="pa"))
    assert ls.participant_id == "p"
    assert sum(1 for v in ls.entries.values() if v is Label.HIGH) == 4
    assert sum(1 for v in ls.entries.values() if v is Label.LOW) == 4
    assert set(ls.excluded.values()) == {EXCLUDE_MIDDLE_BAND}


def test_build_labels_missing_affect_days():
    polarity_affect = affect_series(range(10, 110, 10))
    tl = make_timeline("p", [{}] * 12, affect_by_index=polarity_affect)
    # day 10 has no report at all, day 11 gets a partial one
    partial = make_report(D0 + timedelta(days=11), 50.0, 20.0)
    partial = type(partial)(day=partial.day, items=partial.items, pa=None, na=20.0)
    tl = tl.with_days(
        list(tl.days[:11]) + [type(tl.days[11])(day=tl.days[11].day, features=tl.days[11].features, affect=partial)]
    )
    ls = build_labels(tl, TargetSpec(kind="pa"))
    assert ls.excluded[D0 + timedelta(days=11)] == EXCLUDE_MISSING_AFFECT
    assert D0 + timedelta(days=10) not in ls.entries
    assert D0 + timedelta(days=10) not in ls.excluded


def test_build_labels_single_item_target():
    tl = make_timeline("p", [{}] * 10, affect_by_index=affect_series(range(10, 110, 10)))
    ls = build_labels(tl, TargetSpec(kind="single_item", item_id="interested"))
    # every positive item was written with the pa value, so the split matches pa
    ref = build_labels(tl, TargetSpec(kind="pa"))
    assert ls.entries == ref.entries


def test_target_spec_validation():
    with pytest.raises(SchemaError):
        TargetSpec(kind="magic")
    with pytest.raises(SchemaError):
        TargetSpec(kind="single_item")  # needs item_id
    with pytest.raises(SchemaError):
        TargetSpec(kind="pa", scope="global")


def test_label_set_rejects_overlap_and_unknown_reason():
    with pytest.raises(SchemaError, match="both labeled"):
        LabelSet(
            participant_id="p",
            target=TargetSpec(kind="pa"),
            entries={D0: Label.HIGH},
            excluded={D0: EXCLUDE_MIDDLE_BAND},
        )
    with pytest.raises(SchemaError, match="reasons"):
        LabelSet(
            participant_id="p",
            target=TargetSpec(kind="pa"),
            entries={},
            excluded={D0: "eclipse"},
        )


def test_pooled_scope_shares_cut_points():
    t1 = make_timeline("p1", [{}] * 10, affect_by_index=affect_series(range(1, 11)))
    t2 = make_timeline("p2", [{}] * 10, affect_by_index=affect_series(range(11, 21)))
    pooled = build_labels_cohort([t1, t2], TargetSpec(kind="pa", scope="pooled"))
    lo = rank_interpolated(list(range(1, 21)), 40.0)
    hi = rank_interpolated(list(range(1, 21)), 60.0)
    assert (lo, hi) == (pytest.approx(8.6), pytest.approx(12.4))
    p1, p2 = pooled
    assert sum(1 for v in p1.entries.values() if v is Label.HIGH) == 0
    assert sum(1 for v in p1.entries.values() if v is Label.LOW) == 8  # 1..8
    assert sum(1 for v in p2.entries.values() if v is Label.HIGH) == 8  # 13..20
    assert sum(1 for v in p2.entries.values() if v is Label.LOW) == 0
    # per-participant scope splits each stream around its own median instead
    solo = build_labels_cohort([t1, t2], TargetSpec(kind="pa"))
    assert sum(1 for v in solo[0].entries.values() if v is Label.HIGH) == 4


def test_labels_round_trip():
    tl = make_timeline("p", [{}] * 10, affect_by_index=affect_series(range(10, 110, 10)))
    ls = build_labels(tl, TargetSpec(kind="pa"))
    assert from_json(LabelSet, to_json(ls)) == ls


# ---------------------------------------------------------------------------
# dataset assembly


def ramp_timeline(pid="p", n=14):
    """Feature ramps up with the day index; next-day pa tracks it."""
    rows = [
        {"sleep_deep": float(i), "heart_rate": 60.0, "walk_steps": 100.0, "main_activity": 0.5}
        for i in range(n)
    ]
    affect = {i: (float(5 * i), 20.0) for i in range(n)}
    return make_timeline(pid, rows, affect_by_index=affect)


def test_build_dataset_next_day_alignment():
    tl = ramp_timeline()
    ls = build_labels(tl, TargetSpec(kind="pa"))
    ds = build_dataset(tl, ls, TINY_SCHEMA)
    one = timedelta(days=1)
    # each row is dated by its feature day; the label lives one day later
    for row, feature_day in zip(ds.X, ds.dates):
        assert row[0] == float((feature_day - D0).days)
        assert feature_day + one in ls.entries
    # the earliest labeled day (day 0) has no previous feature row to sit on
    assert D0 in ls.entries and D0 - one not in ds.dates
    assert ds.y.tolist() == [
        1 if ls.entries[d + one] is Label.HIGH else 0 for d in ds.dates
    ]


def test_build_dataset_same_day_alignment():
    tl = ramp_timeline()
    ls = build_labels(tl, TargetSpec(kind="pa"), alignment="same_day")
    ds = build_dataset(tl, ls, TINY_SCHEMA)
    for row, feature_day in zip(ds.X, ds.dates):
        assert row[0] == float((feature_day - D0).days)
        assert feature_day in ls.entries


def test_build_dataset_drop_vs_mean_fallback():
    tl = ramp_timeline()
    # knock out one feature on day 4 (which feeds the day-5 label)
    days_list = list(tl.days)
    vec = days_list[4].features
    values = dict(vec.values, heart_rate=None)
    prov = dict(vec.provenance)
    prov["heart_rate"] = type(prov["heart_rate"]).MISSING
    days_list[4] = type(days_list[4])(
        day=days_list[4].day,
        features=type(vec)(day=vec.day, values=values, provenance=prov),
        affect=days_list[4].affect,
    )
    tl = tl.with_days(days_list)
    ls = build_labels(tl, TargetSpec(kind="pa"))
    feature_day = D0 + timedelta(days=4)
    assert feature_day + timedelta(days=1) in ls.entries  # day-5 label exists

    dropped = build_dataset(tl, ls, TINY_SCHEMA, fallback="drop")
    filled = build_dataset(tl, ls, TINY_SCHEMA, fallback="participant-mean")
    assert feature_day not in dropped.dates
    assert feature_day in filled.dates
    row = filled.X[filled.dates.index(feature_day)]
    assert row[1] == 60.0  # participant mean of the measured 60s
    assert filled.n_rows == dropped.n_rows + 1


def test_build_dataset_modalities_subset():
    tl = ramp_timeline()
    ls = build_labels(tl, TargetSpec(kind="pa"))
    ring_only = build_dataset(tl, ls, TINY_SCHEMA, modalities=[Modality.RING])
    assert ring_only.feature_ids == ("sleep_deep", "heart_rate")


def test_build_dataset_no_overlap():
    # labels exist but every aligned feature row is entirely missing
    rows = [{} for _ in range(11)]
    tl = make_timeline("p", rows, affect_by_index=affect_series(range(11)))
    ls = build_labels(tl, TargetSpec(kind="pa"))
    with pytest.raises(NoDataError, match="align"):
        build_dataset(tl, ls, TINY_SCHEMA)


def test_build_dataset_participant_mismatch():
    tl = ramp_timeline("p1")
    ls = build_labels(ramp_timeline("p2"), TargetSpec(kind="pa"))
    with pytest.raises(SchemaError, match="match"):
        build_dataset(tl, ls, TINY_SCHEMA)


def test_dataset_projection_and_row_keys():
    tl = ramp_timeline()
    ls = build_labels(tl, TargetSpec(kind="pa"))
    ds = build_dataset(tl, ls, TINY_SCHEMA)
    phone = ds.project(TINY_SCHEMA, [Modality.PHONE])
    assert phone.feature_ids == ("main_activity",)
    assert phone.n_rows == ds.n_rows
    keys = ds.row_keys()
    restricted = ds.restrict_dates(keys[:3])
    assert restricted.n_rows == 3
    assert restricted.row_keys() == keys[:3]


def test_concat_datasets_checks_columns():
    tl = ramp_timeline("p1")
    ls = build_labels(tl, TargetSpec(kind="pa"))
    ds = build_dataset(tl, ls, TINY_SCHEMA)
    both = concat_datasets([ds, ds])
    assert both.n_rows == 2 * ds.n_rows
    with pytest.raises(SchemaError, match="columns"):
        concat_datasets([ds, ds.project(TINY_SCHEMA, [Modality.RING])])


def test_dataset_round_trip():
    tl = ramp_timeline()
    ls = build_labels(tl, TargetSpec(kind="pa"))
    ds = build_dataset(tl, ls, TINY_SCHEMA)
    back = dataset_from_dict(dataset_to_dict(ds))
    assert back.feature_ids == ds.feature_ids
    assert np.array_equal(back.X, ds.X)
    assert np.array_equal(back.y, ds.y)
    assert back.dates == ds.dates
    assert back.participant_ids == ds.participant_ids
    assert back.target == ds.target


def test_dataset_label_codes_are_binary():
    tl = ramp_timeline()
    ls = build_labels(tl, TargetSpec(kind="pa"))
    ds = build_dataset(tl, ls, TINY_SCHEMA)
    with pytest.raises(SchemaError, match="0/1"):
        type(ds)(
            feature_ids=ds.feature_ids,
            X=ds.X,
            y=ds.y + 1,
            dates=ds.dates,
            participant_ids=ds.participant_ids,
            target=ds.target,
        )
