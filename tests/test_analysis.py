"""Correlation, Welch t, and last-week monthly score analyses."""

from __future__ import annotations

import csv
import weakref
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affectpipe.analysis import (
    MIN_CORR_PAIRS,
    MIN_GROUP_SCORES,
    feature_affect_correlations,
    last_week_dates,
    monthly_scores,
    pearson_r,
    pooled_monthly_tvalues,
    tvalues_from_scores,
    welch_t,
    write_correlation_csv,
    write_tvalues_csv,
)
from affectpipe.core import FeatureSchema, FeatureSpec, Modality, ordinals
from affectpipe.errors import InsufficientDataError
from affectpipe.labels import TargetSpec, build_dataset, build_labels
from affectpipe.learners import ModelFamily, ModelSpec, train
from affectpipe.pipeline import analyze_tvalues

from conftest import D0, TINY_SCHEMA, make_timeline, pooled_matrix_correlations, report_timelines

# ---------------------------------------------------------------------------
# pearson_r


def test_pearson_perfect_lines():
    assert pearson_r([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)
    assert pearson_r([1, 2, 3], [9, 7, 5]) == pytest.approx(-1.0)


def test_pearson_half():
    # centered x = (-1, 0, 1), centered y = (-1, 1, 0): dot 1, norms sqrt(2) each
    assert pearson_r([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5)


def test_pearson_constant_side_is_undefined():
    assert pearson_r([1.0, 1.0, 1.0], [1, 2, 3]) is None
    assert pearson_r([1, 2, 3], [7.0, 7.0, 7.0]) is None


def test_pearson_shape_errors():
    with pytest.raises(ValueError):
        pearson_r([1, 2, 3], [1, 2])
    with pytest.raises(ValueError):
        pearson_r([[1, 2], [3, 4]], [[1, 2], [3, 4]])


pair_lists = st.lists(
    st.tuples(st.integers(-100, 100), st.integers(-100, 100)),
    min_size=3,
    max_size=15,
    unique_by=lambda t: t[0],
)


@given(pairs=pair_lists, a=st.integers(1, 20), b=st.integers(-50, 50))
@settings(max_examples=60, deadline=None)
def test_pearson_affine_invariance(pairs, a, b):
    xs = [p[0] for p in pairs]
    ys = [p[1] for p in pairs]
    r = pearson_r(xs, ys)
    if r is None:  # constant y
        assert len(set(ys)) == 1
        return
    assert -1.0 <= r <= 1.0
    shifted = [a * x + b for x in xs]
    assert pearson_r(shifted, ys) == pytest.approx(r, abs=1e-9)
    flipped = [-a * x + b for x in xs]
    assert pearson_r(flipped, ys) == pytest.approx(-r, abs=1e-9)


@given(pairs=pair_lists)
@settings(max_examples=30, deadline=None)
def test_pearson_self_correlation_is_one(pairs):
    xs = [p[0] for p in pairs]
    assert pearson_r(xs, xs) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# welch_t


def test_welch_unit_variance_fixture():
    # means 2 vs 5, both sample variances 1: t = -3 / sqrt(2/3)
    assert welch_t([1, 2, 3], [4, 5, 6]) == pytest.approx(
        -3.674234614174767, abs=1e-12
    )


def test_welch_identical_groups():
    assert welch_t([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0


def test_welch_zero_variance_limits():
    assert welch_t([5.0, 5.0], [3.0, 3.0]) == float("inf")
    assert welch_t([3.0, 3.0], [5.0, 5.0]) == float("-inf")
    assert welch_t([4.0, 4.0], [4.0, 4.0]) == 0.0


def test_welch_needs_two_per_group():
    with pytest.raises(InsufficientDataError):
        welch_t([1.0], [2.0, 3.0])
    with pytest.raises(InsufficientDataError):
        welch_t([1.0, 2.0], [3.0])


def test_welch_scale_invariance():
    a = [1.0, 2.0, 4.0, 8.0]
    b = [3.0, 3.5, 9.0]
    doubled = welch_t([2 * v for v in a], [2 * v for v in b])
    assert doubled == pytest.approx(welch_t(a, b), abs=1e-12)


@given(
    a=st.lists(st.integers(-100, 100), min_size=2, max_size=10),
    b=st.lists(st.integers(-100, 100), min_size=2, max_size=10),
)
@settings(max_examples=60, deadline=None)
def test_welch_antisymmetry(a, b):
    assert welch_t(a, b) == -welch_t(b, a)


# ---------------------------------------------------------------------------
# feature_affect_correlations


def corr_timeline(pid="p01", n=10):
    """Up-ramp in sleep_deep, down-ramp in walk_steps, constant heart_rate,
    next-day pa/na both increasing linearly."""
    rows = []
    for i in range(n):
        rows.append(
            {
                "sleep_deep": 10.0 + 5 * i,
                "heart_rate": 60.0,
                "walk_steps": 1000.0 - 10 * i,
                "main_activity": float(i % 2),
            }
        )
    affect = {i: (35.0 + 5 * i, 19.0 + i) for i in range(1, n)}
    return make_timeline(pid, rows, affect_by_index=affect)


def test_correlations_recover_planted_ramps():
    out = feature_affect_correlations([corr_timeline()], TINY_SCHEMA)
    assert set(out) == {
        (fid, t) for fid in TINY_SCHEMA.feature_ids() for t in ("pa", "na")
    }
    assert out[("sleep_deep", "pa")] == pytest.approx(1.0)
    assert out[("sleep_deep", "na")] == pytest.approx(1.0)
    assert out[("walk_steps", "pa")] == pytest.approx(-1.0)
    assert out[("walk_steps", "na")] == pytest.approx(-1.0)


def test_correlations_constant_feature_is_none():
    out = feature_affect_correlations([corr_timeline()], TINY_SCHEMA)
    assert out[("heart_rate", "pa")] is None
    assert out[("heart_rate", "na")] is None
    r = out[("main_activity", "pa")]
    assert r is not None and -1.0 <= r <= 1.0


def test_correlations_skip_missing_feature_days():
    rows = [
        {"sleep_deep": 40.0 + i, "heart_rate": 60.0, "walk_steps": 100.0, "main_activity": 0.5}
        for i in range(10)
    ]
    rows[4]["sleep_deep"] = None
    affect = {i: (40.0 + (i - 1), 20.0) for i in range(1, 10)}
    affect[5] = (95.0, 20.0)  # pairs with the missing day; must be dropped
    tl = make_timeline("p01", rows, affect_by_index=affect)
    out = feature_affect_correlations([tl], TINY_SCHEMA)
    assert out[("sleep_deep", "pa")] == pytest.approx(1.0)


def test_correlations_sparse_pairs_are_none():
    rows = [
        {"sleep_deep": 10.0 * i, "heart_rate": 60.0 + i, "walk_steps": 10.0, "main_activity": 0.0}
        for i in range(5)
    ]
    tl = make_timeline("p01", rows, affect_by_index={1: (40.0, 20.0), 2: (60.0, 25.0)})
    out = feature_affect_correlations([tl], TINY_SCHEMA)
    assert all(v is None for v in out.values())
    assert MIN_CORR_PAIRS == 3


def test_correlations_alignment_changes_pairing():
    series = [10.0, 50.0, 20.0, 60.0, 5.0, 45.0, 30.0, 70.0, 15.0, 55.0]
    rows = [
        {"sleep_deep": v, "heart_rate": 60.0, "walk_steps": 10.0, "main_activity": 0.0}
        for v in series
    ]
    affect = {i: (series[i], 20.0) for i in range(len(series))}
    tl = make_timeline("p01", rows, affect_by_index=affect)
    same = feature_affect_correlations([tl], TINY_SCHEMA, alignment="same_day")
    lagged = feature_affect_correlations([tl], TINY_SCHEMA, alignment="next_day")
    assert same[("sleep_deep", "pa")] == pytest.approx(1.0)
    oracle = np.corrcoef(series[:-1], series[1:])[0, 1]
    assert lagged[("sleep_deep", "pa")] == pytest.approx(oracle, abs=1e-9)
    assert abs(lagged[("sleep_deep", "pa")]) < 0.99


def reference_correlations(drawn, schema, alignment):
    """feature_affect_correlations from per-day reports: each timeline's
    columns and composites in lists, concatenated."""
    lag = 1 if alignment == "next_day" else 0
    fids = schema.feature_ids()
    targets = ("pa", "na")
    xs, ys = [np.empty((0, len(fids)))], [np.empty((0, len(targets)))]
    for timeline, reports in drawn:
        rows = timeline.rows_at(ordinals(timeline.dates) + lag)
        aligned = [reports[r] if r >= 0 else None for r in rows]
        composites = [
            [None if report is None else {"pa": report.pa, "na": report.na}.get(t) for t in targets]
            for report in aligned
        ]
        xs.append(timeline.columns(fids))
        ys.append(np.array(composites, dtype=float).reshape(len(rows), len(targets)))
    X, Y = np.concatenate(xs), np.concatenate(ys)
    out = {}
    for j, fid in enumerate(fids):
        for k, t in enumerate(targets):
            pair = ~np.isnan(X[:, j]) & ~np.isnan(Y[:, k])
            out[(fid, t)] = pearson_r(X[pair, j], Y[pair, k]) if pair.sum() >= MIN_CORR_PAIRS else None
    return out


@settings(max_examples=50, deadline=None)
@given(
    drawn=st.lists(report_timelines(fids=TINY_SCHEMA.feature_ids(), max_days=12), max_size=4),
    alignment=st.sampled_from(["next_day", "same_day"]),
)
def test_correlations_equal_the_per_report_reference(drawn, alignment):
    # Drawn values reach 1e308, where the products in pearson_r overflow.
    with np.errstate(over="ignore", invalid="ignore"):
        found = feature_affect_correlations([t for t, _ in drawn], TINY_SCHEMA, alignment)
        assert found == reference_correlations(drawn, TINY_SCHEMA, alignment)


def test_correlations_pool_across_participants():
    # each participant alone is constant in sleep_deep; pooled they form a line
    tls = []
    for j in range(3):
        rows = [
            {"sleep_deep": 10.0 * j, "heart_rate": 60.0, "walk_steps": 10.0, "main_activity": 0.0}
            for _ in range(2)
        ]
        tls.append(
            make_timeline(f"p{j:02d}", rows, affect_by_index={1: (30.0 + 10.0 * j, 20.0)})
        )
    out = feature_affect_correlations(tls, TINY_SCHEMA)
    assert out[("sleep_deep", "pa")] == pytest.approx(1.0)


def bits(correlations):
    """Each r as float.hex, so that two results are equal only bit for bit."""
    return {key: None if r is None else r.hex() for key, r in correlations.items()}


def shuffled_timeline(pid, n, seed):
    """Drawn values with NaN cells, over only some of TINY_SCHEMA's features
    (in another order) and one it does not have."""
    rng = np.random.default_rng(seed)
    schema = FeatureSchema((
        FeatureSpec("walk_steps", Modality.WATCH),
        FeatureSpec("other", Modality.PHONE),
        FeatureSpec("sleep_deep", Modality.RING),
    ))
    rows = [
        {fid: None if rng.random() < 0.2 else float(rng.normal(50.0, 10.0)) for fid in schema.feature_ids()}
        for _ in range(n)
    ]
    affect = {i: (float(rng.uniform(0, 100)), float(rng.uniform(0, 100))) for i in range(n) if rng.random() < 0.8}
    return make_timeline(pid, rows, schema=schema, affect_by_index=affect)


CORRELATION_CASES = {
    "ramps and a constant column": lambda: [corr_timeline()],
    "a timeline missing features": lambda: [corr_timeline("p01"), shuffled_timeline("p02", 30, 1)],
    "NaN cells on both sides": lambda: [shuffled_timeline("p01", 40, 2), shuffled_timeline("p02", 25, 3)],
    "fewer than 3 pairs": lambda: [corr_timeline("p01", n=3), shuffled_timeline("p02", 2, 4)],
    "no timeline": lambda: [],
}


@pytest.mark.parametrize("alignment", ["next_day", "same_day"])
@pytest.mark.parametrize("case", sorted(CORRELATION_CASES))
def test_correlations_equal_the_pooled_matrix_bit_for_bit(case, alignment):
    timelines = CORRELATION_CASES[case]()
    found = feature_affect_correlations(timelines, TINY_SCHEMA, alignment)
    expected = pooled_matrix_correlations(timelines, TINY_SCHEMA, alignment)
    assert bits(found) == bits(expected)
    if case == "ramps and a constant column":
        assert found[("heart_rate", "pa")] is None and found[("sleep_deep", "pa")] is not None
    if case == "fewer than 3 pairs":
        assert found[("heart_rate", "pa")] is None
    if case == "a timeline missing features":
        # heart_rate pools p01's constant column alone
        assert found[("heart_rate", "na")] is None and found[("walk_steps", "na")] is not None


@settings(max_examples=50, deadline=None)
@given(
    # Each timeline has some of the schema's features, in any order, and
    # maybe one it does not know.
    drawn=st.lists(
        st.lists(st.sampled_from([*TINY_SCHEMA.feature_ids(), "other"]), unique=True).flatmap(
            lambda fids: report_timelines(fids=tuple(fids), max_days=12)
        ),
        max_size=4,
    ),
    alignment=st.sampled_from(["next_day", "same_day"]),
)
def test_drawn_correlations_equal_the_pooled_matrix_bit_for_bit(drawn, alignment):
    timelines = [t for t, _ in drawn]
    # Drawn values reach 1e308, where the products in pearson_r overflow.
    with np.errstate(over="ignore", invalid="ignore"):
        found = feature_affect_correlations(timelines, TINY_SCHEMA, alignment)
        assert bits(found) == bits(pooled_matrix_correlations(timelines, TINY_SCHEMA, alignment))


# ---------------------------------------------------------------------------
# last_week_dates


def test_last_week_fixtures():
    assert last_week_dates(2020, 2) == [date(2020, 2, d) for d in range(23, 30)]
    assert last_week_dates(2021, 2) == [date(2021, 2, d) for d in range(22, 29)]
    assert last_week_dates(2020, 4) == [date(2020, 4, d) for d in range(24, 31)]
    assert last_week_dates(2020, 12) == [date(2020, 12, d) for d in range(25, 32)]


def test_last_week_shape_every_month():
    for year in (2019, 2020, 2021):
        for month in range(1, 13):
            week = last_week_dates(year, month)
            assert len(week) == 7
            assert all(d.month == month for d in week)
            assert all((b - a).days == 1 for a, b in zip(week, week[1:]))
            assert (week[-1] + timedelta(days=1)).month != month


# ---------------------------------------------------------------------------
# monthly scores and t-values


def scored_timeline(pid="p01", n=60, start=D0, knockout=None):
    """Bimodal sleep_deep drives next-day pa; other columns are noise."""
    rng = np.random.default_rng(7)
    rows = []
    for i in range(n):
        high = i % 2 == 1
        rows.append(
            {
                "sleep_deep": (90.0 if high else 10.0) + rng.normal(0, 0.5),
                "heart_rate": 60.0 + rng.normal(0, 1.0),
                "walk_steps": 5000.0 + rng.normal(0, 10.0),
                "main_activity": 0.5,
            }
        )
    if knockout is not None:
        rows[knockout]["sleep_deep"] = None
    affect = {}
    for i in range(1, n):
        prev = rows[i - 1]["sleep_deep"]
        base = 70.0 if (prev or 0.0) > 50.0 else 30.0
        affect[i] = (base + rng.normal(0, 1.0), 20.0)
    return make_timeline(pid, rows, affect_by_index=affect, start=start)


def fit_knn(tl):
    labels = build_labels(tl, TargetSpec(kind="pa"))
    ds = build_dataset(tl, labels, TINY_SCHEMA)
    spec = ModelSpec(family=ModelFamily.KNN, hyperparameters={"k": 1})
    return train(spec, ds.X, ds.y, feature_ids=ds.feature_ids), ds


def test_monthly_scores_counts_and_values():
    tl = scored_timeline()
    model, ds = fit_knn(tl)
    scores = monthly_scores(model, tl)
    assert set(scores) == {"2020-01", "2020-02"}
    assert scores["2020-01"].size == 7
    assert scores["2020-02"].size == 7
    days = tl.days
    expected = []
    for day in last_week_dates(2020, 1):
        fd = days[tl.dates.index(day - timedelta(days=1))]
        expected.append([fd.features.values[fid] for fid in ds.feature_ids])
    np.testing.assert_allclose(
        scores["2020-01"], model.predict_proba(np.asarray(expected))
    )


def test_analyze_tvalues_lets_each_model_go_before_the_next_fit(tmp_path):
    fitted, live_at_fit = [], []

    def fit(tl):
        live_at_fit.append(sum(ref() is not None for ref in fitted))
        model, _ = fit_knn(tl)
        fitted.append(weakref.ref(model))
        return model

    def scored():
        for pid in ("p01", "p02", "p03"):
            tl = scored_timeline(pid)
            yield fit(tl), tl

    rows, _ = analyze_tvalues(tmp_path / "tv.csv", scored(), None, "next_day")
    assert set(rows) == {"p01", "p02", "p03", "pooled"}
    assert live_at_fit == [0, 0, 0]


def test_monthly_scores_skip_incomplete_feature_days():
    # index 26 is 2020-01-27, the feature day for score day 2020-01-28
    tl = scored_timeline(knockout=26)
    model, _ = fit_knn(tl)
    scores = monthly_scores(model, tl)
    assert scores["2020-01"].size == 6
    assert scores["2020-02"].size == 7


def test_monthly_scores_same_day_alignment():
    tl = scored_timeline()
    model, ds = fit_knn(tl)
    scores = monthly_scores(model, tl, alignment="same_day")
    days = tl.days
    expected = []
    for day in last_week_dates(2020, 2):
        fd = days[tl.dates.index(day)]
        expected.append([fd.features.values[fid] for fid in ds.feature_ids])
    np.testing.assert_allclose(
        scores["2020-02"], model.predict_proba(np.asarray(expected))
    )


def test_monthly_scores_require_recorded_feature_ids():
    tl = scored_timeline()
    labels = build_labels(tl, TargetSpec(kind="pa"))
    ds = build_dataset(tl, labels, TINY_SCHEMA)
    spec = ModelSpec(family=ModelFamily.KNN, hyperparameters={"k": 1})
    anonymous = train(spec, ds.X, ds.y)
    with pytest.raises(InsufficientDataError):
        monthly_scores(anonymous, tl)


def test_tvalues_fixture_matches_welch():
    jan = np.array([0.1, 0.1, 0.2])
    feb = np.array([0.8, 0.9, 0.7])
    mar = np.array([0.1, 0.2, 0.15])
    tv, warnings = tvalues_from_scores({"2020-01": jan, "2020-02": feb, "2020-03": mar})
    assert warnings == ()
    assert set(tv) == {"2020-01", "2020-02", "2020-03"}
    assert tv["2020-02"] == pytest.approx(abs(welch_t(feb, np.concatenate([jan, mar]))))
    assert all(t >= 0.0 for t in tv.values())
    assert max(tv, key=tv.get) == "2020-02"


def test_tvalues_short_month_warns_and_is_excluded():
    jan = np.array([0.1, 0.1, 0.2])
    feb = np.array([0.8, 0.9, 0.7])
    mar = np.array([0.1, 0.2, 0.15])
    short = np.array([0.5, 0.5])
    tv, warnings = tvalues_from_scores(
        {"2020-01": jan, "2020-02": feb, "2020-03": mar, "2020-04": short}
    )
    assert "2020-04" not in tv
    assert any("2020-04" in w and "only 2 scores" in w for w in warnings)
    baseline_only, _ = tvalues_from_scores({"2020-01": jan, "2020-02": feb, "2020-03": mar})
    assert tv == baseline_only
    assert MIN_GROUP_SCORES == 3


def test_tvalues_explicit_baseline_months():
    jan = np.array([0.1, 0.1, 0.2])
    feb = np.array([0.8, 0.9, 0.7])
    mar = np.array([0.1, 0.2, 0.15])
    tv, warnings = tvalues_from_scores(
        {"2020-01": jan, "2020-02": feb, "2020-03": mar},
        baseline_months=["2020-01"],
    )
    assert tv["2020-02"] == pytest.approx(abs(welch_t(feb, jan)))
    assert tv["2020-03"] == pytest.approx(abs(welch_t(mar, jan)))
    # the baseline month itself has nothing left to compare against
    assert "2020-01" not in tv
    assert any("2020-01" in w and "no baseline" in w for w in warnings)


def test_pooled_tvalues_concatenate_participants():
    p1 = {"2020-01": np.array([0.1, 0.2, 0.3]), "2020-02": np.array([0.7, 0.8, 0.9])}
    p2 = {"2020-01": np.array([0.15, 0.25, 0.2]), "2020-03": np.array([0.4, 0.5, 0.6])}
    pooled, warnings = pooled_monthly_tvalues([p1, p2])
    merged = {
        "2020-01": np.concatenate([p1["2020-01"], p2["2020-01"]]),
        "2020-02": p1["2020-02"],
        "2020-03": p2["2020-03"],
    }
    expected, expected_warnings = tvalues_from_scores(merged)
    assert pooled == expected
    assert warnings == expected_warnings


# ---------------------------------------------------------------------------
# csv outputs


def test_correlation_csv_cells(tmp_path):
    path = tmp_path / "corr.csv"
    write_correlation_csv(
        path,
        {("a", "pa"): 0.5, ("a", "na"): None, ("b", "pa"): -0.25, ("b", "na"): 1.0},
        ["a", "b"],
    )
    with path.open() as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["feature_id", "pa", "na"]
    assert rows[1] == ["a", "0.5", "nan"]
    assert rows[2] == ["b", "-0.25", "1.0"]
    assert float(rows[1][2]) != float(rows[1][2])  # nan parses as nan


def test_tvalues_csv_matrix(tmp_path):
    path = tmp_path / "tv.csv"
    write_tvalues_csv(
        path,
        {"p02": {"2020-01": 1.5}, "p01": {"2020-02": 2.25}},
    )
    with path.open() as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["participant_id", "2020-01", "2020-02"]
    assert rows[1] == ["p01", "nan", "2.25"]
    assert rows[2] == ["p02", "1.5", "nan"]
