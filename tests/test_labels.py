"""Median-split and compiled-mood labeling, plus dataset assembly."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from dataclasses import replace
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affectpipe.core import CODE_IMPUTED, CODE_MISSING, SURVEY_ITEMS, FeatureSchema, Modality, canonical_json, default_schema, dump_json, from_json, to_json
import affectpipe
from affectpipe.errors import InputFormatError, InsufficientDataError, PipelineError, SchemaError
from affectpipe.impute import fill_residual_with_participant_mean, impute_all
from affectpipe.labels import (
    ALIGNMENTS,
    EXCLUDE_MIDDLE_BAND,
    EXCLUDE_MISSING_AFFECT,
    Dataset,
    Label,
    LabelSet,
    TargetSpec,
    _median,
    build_dataset,
    build_labels,
    build_labels_cohort,
    compiled_mood_labels,
    concat_datasets,
    dataset_from_dict,
    dataset_to_dict,
    median_split_labels,
    parse_target,
    percentile_thresholds,
    save_dataset,
)

from conftest import (
    D0,
    TINY_SCHEMA,
    compiled_mood_loop,
    make_affect,
    make_timeline,
    participant_mean_rows_loop,
    report_timelines,
    series_timeline,
    survey_items,
)


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


def test_percentiles_and_medians_hold_numpy_bits():
    """The sorted-list percentile and median equal np.percentile and
    np.median bit for bit; a zero may differ in sign only, as numpy may
    order 0.0 and -0.0 either way."""
    data = np.random.default_rng(8)
    for _ in range(400):
        n = int(data.integers(1, 400))
        values = data.normal(scale=float(data.choice([1e-3, 1.0, 1e6])), size=n)
        if data.random() < 0.5:  # ties, and zeros of both signs
            values = np.round(values, 1)
        band = float(data.choice([0.0, 0.2, float(data.uniform(0.0, 0.999))]))
        half = 100.0 * band / 2.0
        want = [*np.percentile(values, [50.0 - half, 50.0 + half]).tolist(), float(np.median(values))]
        got = [*percentile_thresholds(values.tolist(), band), _median(values.tolist())]
        assert got == want, (n, band)
        assert [x.hex() for x in got if x] == [x.hex() for x in want if x], (n, band)


_NO_NUMPY_MA = """
import sys
from affectpipe import labels, synth
timelines, _ = synth.generate(synth.CohortConfig(n_participants=3, n_days=40, n_eligible=3, seed=2, shift=None))
for kind in ("pa", "compiled_mood"):
    for scope in ("per_participant", "pooled"):
        labels.build_labels_cohort(timelines, labels.TargetSpec(kind=kind, scope=scope))
print("numpy.ma" in sys.modules)
"""


def test_labelling_leaves_numpy_ma_unimported():
    """np.percentile and np.median import numpy.ma, about 2 MB of resident
    memory that no later stage needs; the cut points must not pull it in."""
    src = str(Path(affectpipe.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_MA], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


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
    values = value_map([1.0, 1.9, 2.0, 2.5, 3.0, 3.5, 4.0, 4.0001, 5.0, 6.0])
    entries, excluded = median_split_labels(values, thresholds=(2.0, 4.0))
    labels = {values[k]: v for k, v in entries.items()}
    assert labels == {1.0: Label.LOW, 1.9: Label.LOW, 4.0001: Label.HIGH, 5.0: Label.HIGH, 6.0: Label.HIGH}
    assert {values[k] for k in excluded} == {2.0, 2.5, 3.0, 3.5, 4.0}


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
    assert entries[d1] is Label.HIGH  # PA dominates, positive
    assert entries[d2] is Label.LOW  # NA dominates, positive
    assert d3 in excluded  # both deviations zero
    assert entries[d4] is Label.LOW  # tie defers to PA, negative


def test_compiled_mood_low_na_reads_happy():
    d1 = D0
    entries, _ = compiled_mood_labels({d1: 1.0}, {d1: -9.0}, medians=(0.0, 0.0))
    assert entries[d1] is Label.HIGH


def test_compiled_mood_default_medians_match_numpy():
    pa = value_map([10, 20, 30, 40, 50])
    na = value_map([5, 5, 25, 45, 45])
    entries, excluded = compiled_mood_labels(pa, na)
    med_pa, med_na = np.median(list(pa.values())), np.median(list(na.values()))
    for d in pa:
        dev_pa, dev_na = pa[d] - med_pa, na[d] - med_na
        if abs(dev_pa) >= abs(dev_na):
            expect = None if dev_pa == 0 else (Label.HIGH if dev_pa > 0 else Label.LOW)
        else:
            expect = Label.LOW if dev_na > 0 else Label.HIGH
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
            assert rev[d] is (Label.LOW if fwd[d] is Label.HIGH else Label.HIGH)


# Zeros of both signs and small whole numbers, so that deviations of 0 and
# -0.0 and ties |dev_pa| == |dev_na| are common.
MOOD_VALUES = st.sampled_from([-0.0, 0.0, 1.0, -1.0, 2.0, -2.0, 2.5]) | st.floats(-100, 100)


@settings(max_examples=200)
@given(
    composites=st.lists(st.tuples(MOOD_VALUES, MOOD_VALUES), min_size=1, max_size=12),
    medians=st.none() | st.tuples(MOOD_VALUES, MOOD_VALUES),
)
def test_compiled_mood_equals_the_day_by_day_loop(composites, medians):
    dd = days(len(composites))
    pa = {d: a for d, (a, _) in zip(dd, composites)}
    na = {d: b for d, (_, b) in zip(dd, composites)}
    entries, excluded = compiled_mood_labels(pa, na, medians=medians)
    want_entries, want_excluded = compiled_mood_loop(pa, na, medians)
    assert list(entries.items()) == list(want_entries.items())
    assert list(excluded.items()) == list(want_excluded.items())


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
    partial = (None, 20.0, survey_items(50.0, 20.0))
    tl = replace(tl, affect=make_affect(12, {**polarity_affect, 11: partial}))
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


def reference_target_values(timeline, reports, target):
    """A target's per-day values and missing_affect exclusions, read from
    per-day reports."""
    values, excluded = {}, {}
    for day, report in zip(timeline.dates, reports):
        if report is None:
            continue
        if target.kind == "pa":
            value = report.pa
        elif target.kind == "na":
            value = report.na
        else:
            value = report.items.get(target.item_id)
        if value is None:
            excluded[day] = EXCLUDE_MISSING_AFFECT
        else:
            values[day] = float(value)
    return values, excluded


def reference_composite_values(timeline, reports):
    """The (pa, na) maps over days with both composites and the
    missing_affect exclusions, read from per-day reports."""
    pa, na, excluded = {}, {}, {}
    for day, report in zip(timeline.dates, reports):
        if report is None:
            continue
        if report.pa is None or report.na is None:
            excluded[day] = EXCLUDE_MISSING_AFFECT
        else:
            pa[day], na[day] = report.pa, report.na
    return pa, na, excluded


# Complete surveys often enough that most timelines can be labeled.
LABEL_KINDS = ("absent", "some items", "all items", "all items", "all items", "any items")


@settings(max_examples=100, deadline=None)
@given(
    drawn=report_timelines(kinds=LABEL_KINDS, min_days=10, max_days=24),
    item=st.sampled_from(SURVEY_ITEMS),
)
def test_label_values_equal_the_per_report_reference(drawn, item):
    timeline, reports = drawn
    for name in ("pa", "na", f"item:{item}", "mood"):
        target = parse_target(name, pooled=False)
        if name == "mood":
            *values, missing = reference_composite_values(timeline, reports)
            label = compiled_mood_labels
        else:
            values, missing = reference_target_values(timeline, reports, target)
            values, label = [values], median_split_labels
        try:
            entries, excluded = label(*values)
        except InsufficientDataError as exc:
            with pytest.raises(InsufficientDataError, match=f"^{exc}$"):
                build_labels(timeline, target)
            continue
        labels = build_labels(timeline, target)
        assert labels.entries == entries and labels.excluded == {**excluded, **missing}


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
    values, codes = tl.values.copy(), tl.provenance.copy()
    j = tl.feature_ids.index("heart_rate")
    values[4, j], codes[4, j] = np.nan, CODE_MISSING
    tl = replace(tl, values=values, provenance=codes)
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


def gap_timeline(sleep_deep):
    """A timeline whose sleep_deep is ``sleep_deep`` (None for missing),
    every other feature measured, and a report every day whose PA is the
    day's index, labelled on the same day."""
    rows = [{"sleep_deep": v, "heart_rate": 60.0, "walk_steps": 100.0, "main_activity": 0.5} for v in sleep_deep]
    affect = {i: (float(i), 20.0) for i in range(len(sleep_deep))}
    tl = make_timeline("p", rows, affect_by_index=affect)
    return tl, build_labels(tl, TargetSpec(kind="pa"), alignment="same_day")


def test_both_participant_mean_fallbacks_fill_from_measured_values():
    # Days 1, 7, 8, 10 and 11 are window-imputed; day 9 has no window donor.
    tl, ls = gap_timeline([10.0, None, 14.0, 20.0, 22.0, 24.0, 26.0, None, None, None, None, None, 41.0])
    window = impute_all(tl)
    assert window.provenance[[1, 7, 8, 10, 11], 0].tolist() == [CODE_IMPUTED] * 5
    assert np.isnan(window.values[9, 0])
    by_impute = fill_residual_with_participant_mean(window).values[9, 0]
    assert by_impute == (10.0 + 14.0 + 20.0 + 22.0 + 24.0 + 26.0 + 41.0) / 7
    ds = build_dataset(window, ls, TINY_SCHEMA, fallback="participant-mean")
    day = D0 + timedelta(days=9)
    assert ds.X[ds.dates.index(day), 0] == by_impute


def test_dataset_mean_overflow_is_an_input_error():
    tl, ls = gap_timeline([1e308, None, 1.0, 1.0, None, 1e308, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputFormatError, match=f"timeline p: {D0 + timedelta(days=1)} 'sleep_deep': the values"):
            build_dataset(tl, ls, TINY_SCHEMA, fallback="participant-mean")


def test_dataset_fallback_refuses_what_the_impute_fallback_refuses():
    """The dataset's participant-mean fallback is the impute stage's fill of
    the whole timeline, so a mean that overflows is refused also in a column
    outside the dataset's modalities and on a day that no row reads."""
    # Day 3 is labelled Low; day 5 falls in the middle band.
    for gap, modalities in ((3, [Modality.RING]), (5, tuple(Modality))):
        rows = [
            {"sleep_deep": 30.0, "heart_rate": 60.0, "walk_steps": None if i == gap else 1e308 if i < 2 else 1.0,
             "main_activity": 0.5}
            for i in range(12)
        ]
        tl = make_timeline("p", rows, affect_by_index={i: (float(i), 20.0) for i in range(12)})
        ls = build_labels(tl, TargetSpec(kind="pa"), alignment="same_day")
        assert build_dataset(tl, ls, TINY_SCHEMA, modalities, fallback="drop").n_rows == 10
        message = f"timeline p: {D0 + timedelta(days=gap)} 'walk_steps': the values its fill averages add up past"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputFormatError, match=message):
                build_dataset(tl, ls, TINY_SCHEMA, modalities, fallback="participant-mean")


# Values a timeline cell may hold: modest, so that no mean overflows.
CELL_VALUES = st.none() | st.sampled_from([-0.0, 0.0, 0.1, 1.0, 3.0]) | st.floats(-1e6, 1e6)


@st.composite
def labelled_timelines(draw):
    """A timeline of some of TINY_SCHEMA's features, in any order, over up
    to 10 days with calendar gaps, window-imputed or not, with columns that
    were never measured; and labels on some of its days, the day after, and
    days outside it."""
    # A row reads every feature of its modalities, so most draws keep them all.
    fids = tuple(draw(st.permutations(TINY_SCHEMA.feature_ids())))[: draw(st.sampled_from([4, 4, 4, 3, 1]))]
    gaps = draw(st.lists(st.integers(1, 3), min_size=1, max_size=10))
    dates = [D0 + timedelta(days=sum(gaps[:k])) for k in range(len(gaps))]
    never = draw(st.lists(st.sampled_from([False, False, False, True]), min_size=len(fids), max_size=len(fids)))
    rows = [
        {fid: None if skip else draw(CELL_VALUES) for fid, skip in zip(fids, never)}
        for _ in dates
    ]
    schema = FeatureSchema(tuple(TINY_SCHEMA.spec_of(fid) for fid in fids))
    tl = make_timeline("p", rows, schema=schema, dates=dates)
    tl = impute_all(tl) if draw(st.booleans()) else tl
    label_days = draw(st.sets(st.sampled_from(dates) | st.sampled_from(dates).map(lambda d: d + timedelta(days=1))
                              | st.just(D0 - timedelta(days=5))))
    entries = {d: draw(st.sampled_from(Label)) for d in sorted(label_days)}
    alignment = draw(st.sampled_from(ALIGNMENTS))
    return tl, LabelSet("p", TargetSpec(kind="pa"), entries, {}, alignment=alignment)


@settings(max_examples=200, deadline=None)
@given(drawn=labelled_timelines(), modalities=st.sets(st.sampled_from(Modality), min_size=1))
def test_participant_mean_dataset_equals_the_cell_by_cell_fill(drawn, modalities):
    tl, ls = drawn
    feature_ids = TINY_SCHEMA.features_for(modalities)
    want = participant_mean_rows_loop(tl, ls, feature_ids)
    if not want:
        with pytest.raises(InsufficientDataError):
            build_dataset(tl, ls, TINY_SCHEMA, modalities, fallback="participant-mean")
        return
    ds = build_dataset(tl, ls, TINY_SCHEMA, modalities, fallback="participant-mean")
    assert ds.dates == tuple(day for day, _, _ in want)
    assert [[repr(v) for v in row] for row in ds.X.tolist()] == [[repr(v) for v in f] for _, f, _ in want]
    assert ds.y.tolist() == [label for _, _, label in want]


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
    with pytest.raises(InsufficientDataError, match="align"):
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
    assert (phone.participant_ids, phone.dates) == (ds.participant_ids, ds.dates)


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
    back = dataset_from_dict(json.loads(canonical_json(dataset_to_dict(ds))))
    assert back.feature_ids == ds.feature_ids
    assert np.array_equal(back.X, ds.X)
    assert np.array_equal(back.y, ds.y)
    assert back.dates == ds.dates
    assert back.participant_ids == ds.participant_ids
    assert back.target == ds.target


def reference_dataset_document(ds):
    """The dict the dataset renderer replaced, for json.dumps to write."""
    target = {"kind": ds.target.kind, "item_id": ds.target.item_id, "scope": ds.target.scope}
    rows = [
        {"participant_id": pid, "date": day.isoformat(), "label": label, "features": values}
        for pid, day, label, values in zip(ds.participant_ids, ds.dates, ds.y.tolist(), ds.X.tolist())
    ]
    return {
        "format_version": 1,
        "feature_ids": list(ds.feature_ids),
        "target": target,
        "rows": rows,
        "alignment": ds.alignment,
    }


# Quotes, backslashes, control and non-ASCII characters.
NAMES = st.text(st.sampled_from('ab"\\\n\x00\u00e9\u4e2d\U0001f600%'), max_size=6)
TARGETS = st.sampled_from(["pa", "na", "compiled_mood"]).map(TargetSpec) | st.builds(
    TargetSpec, st.just("single_item"), st.sampled_from(SURVEY_ITEMS), st.sampled_from(["pooled"])
)


@st.composite
def datasets(draw, like=None):
    """A dataset; with ``like``, one with its feature ids, target and
    alignment."""
    fids = tuple(draw(st.lists(NAMES, unique=True, max_size=4))) if like is None else like.feature_ids
    n = draw(st.integers(0, 6))
    numbers = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([0.0, -0.0, 5e-324, 0.1])
    X = np.array(draw(st.lists(numbers, min_size=n * len(fids), max_size=n * len(fids))), dtype=float)
    return Dataset(
        feature_ids=fids,
        X=X.reshape(n, len(fids)),
        y=np.array(draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n)), dtype=np.int8),
        dates=tuple(draw(st.lists(st.dates(), min_size=n, max_size=n))),
        participant_ids=tuple(draw(st.lists(NAMES, min_size=n, max_size=n))),
        target=draw(TARGETS) if like is None else like.target,
        alignment=draw(st.sampled_from(ALIGNMENTS)) if like is None else like.alignment,
    )


@st.composite
def dataset_parts(draw):
    first = draw(datasets())
    return [first, *draw(st.lists(datasets(like=first), max_size=3))]


@settings(max_examples=200, deadline=None)
@given(ds=datasets(), run_id=st.none() | NAMES)
def test_dataset_text_equals_the_dict_written_by_json(ds, run_id):
    expected, payload = reference_dataset_document(ds), dataset_to_dict(ds)
    if run_id is not None:
        expected["run_id"] = payload["run_id"] = run_id
    written = json.dumps(expected, sort_keys=True, separators=(",", ":"), allow_nan=False)
    assert canonical_json(payload) == written
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / "first.json", Path(tmp) / "second.json"]
        for path in paths:
            dump_json(path, payload)
            assert path.read_bytes() == (written + "\n").encode("utf-8")


@settings(max_examples=100, deadline=None)
@given(parts=dataset_parts())
def test_dataset_written_from_parts_equals_the_concatenated_one(parts):
    with tempfile.TemporaryDirectory() as tmp:
        from_parts, pooled = Path(tmp) / "parts.json", Path(tmp) / "pooled.json"
        save_dataset(from_parts, *parts)
        save_dataset(pooled, concat_datasets(parts))
        assert from_parts.read_bytes() == pooled.read_bytes()


def test_dataset_parts_are_refused_as_concat_datasets_refuses_them(tmp_path):
    tl = ramp_timeline("p1")
    ds = build_dataset(tl, build_labels(tl, TargetSpec(kind="pa")), TINY_SCHEMA)
    for parts in (
        [ds, ds.project(TINY_SCHEMA, [Modality.RING])],
        [ds, replace(ds, target=TargetSpec(kind="na"))],
        [ds, replace(ds, alignment="same_day")],
        [],
    ):
        with pytest.raises((SchemaError, InsufficientDataError)) as refused:
            concat_datasets(parts)
        with pytest.raises(type(refused.value)) as caught:
            dataset_to_dict(*parts)
        assert str(caught.value) == str(refused.value)
        with pytest.raises(type(refused.value)):
            save_dataset(tmp_path / "ds.json", *parts)
        assert not (tmp_path / "ds.json").exists()


def test_a_non_finite_value_of_a_later_part_is_refused_before_any_text(tmp_path):
    tl = ramp_timeline("p01")
    ds = build_dataset(tl, build_labels(tl, TargetSpec(kind="pa")), TINY_SCHEMA)
    later = replace(ds, X=ds.X.copy(), participant_ids=("p02",) * ds.n_rows)
    later.X[2, 0] = np.inf
    with pytest.raises(PipelineError, match=f"^dataset p02: {ds.dates[2]} 'sleep_deep': inf is not a finite number$"):
        save_dataset(tmp_path / "ds.json", ds, later)
    assert not (tmp_path / "ds.json").exists()


def test_dataset_text_refuses_a_planted_non_finite_value(tmp_path):
    tl = ramp_timeline("p01")
    ds = build_dataset(tl, build_labels(tl, TargetSpec(kind="pa")), TINY_SCHEMA)
    for bad in (np.nan, -np.inf):
        ds.X[3, 1] = bad
        with pytest.raises(PipelineError) as caught:
            save_dataset(tmp_path / "ds.json", ds)
        assert str(caught.value) == f"dataset p01: {ds.dates[3]} 'heart_rate': {bad} is not a finite number"
        assert not (tmp_path / "ds.json").exists()


def test_writing_a_dataset_holds_one_row_at_a_time(tmp_path):
    n, fids = 5000, default_schema().feature_ids()
    ds = Dataset(
        feature_ids=fids,
        X=np.random.default_rng(0).normal(100.0, 30.0, size=(n, len(fids))),
        y=np.arange(n, dtype=np.int8) % 2,
        dates=tuple(D0 + timedelta(days=i % 400) for i in range(n)),
        participant_ids=tuple(f"p{i // 400:02d}" for i in range(n)),
        target=TargetSpec(kind="pa"),
    )
    tracemalloc.start()
    try:
        save_dataset(tmp_path / "ds.json", ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the text is about 3.9 MB; the whole document as dicts or text is 8-19 MB
    assert (tmp_path / "ds.json").stat().st_size > 3_500_000
    assert peak < 1_000_000


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
