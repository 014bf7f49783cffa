"""Shared builders for hand-sized timelines used across the suite."""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import strategies as st

from affectpipe.analysis import MIN_CORR_PAIRS, TARGETS, pearson_r
from affectpipe.core import (
    CODE_IMPUTED,
    CODE_MEASURED,
    CODE_MISSING,
    AffectReport,
    DailyAffect,
    FeatureSchema,
    FeatureSpec,
    Modality,
    ParticipantTimeline,
    NEGATIVE_ITEMS,
    POSITIVE_ITEMS,
    SURVEY_ITEMS,
    canonical_json,
    default_schema,
    ordinals,
    timeline_to_dict,
)
from affectpipe.labels import EXCLUDE_MIDDLE_BAND, Label
from affectpipe.learners.forest import (
    _TABLE_ROWS,
    _WIDTH,
    DecisionTree,
    _CandidateDraws,
    _gini_table,
    _gini_terms,
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


def survey_items(pa=50.0, na=20.0):
    """The twenty ratings of a survey whose composites are pa/na: each item
    rated as its side's composite.  Exactly so when ten of them add without
    rounding, as whole numbers and sixteenths below 100 do."""
    items = {item: float(pa) for item in POSITIVE_ITEMS}
    items.update({item: float(na) for item in NEGATIVE_ITEMS})
    return items


def make_report(day, pa=50.0, na=20.0):
    """Complete 20-item report whose composites are pa/na (see survey_items)."""
    return AffectReport(day, survey_items(pa, na))


@dataclass(frozen=True)
class Survey:
    """A day's report as the per-report reference code reads it: its
    ratings by item id and its composites, None for none."""

    day: date
    items: dict
    pa: float | None
    na: float | None


def side_mean(items, side):
    """The composite rule, kept here apart from the code it checks: None
    unless every item of the side is answered, else the side's ratings
    added one by one in side order from 0.0 and divided by the side's
    size.  A loop, not sum(), which adds floats with compensation from
    Python 3.12 on."""
    if not all(item in items for item in side):
        return None
    total = 0.0
    for item in side:
        total += items[item]
    return total / len(side)


def survey(day, items):
    """The Survey of these ratings, its composites by side_mean."""
    return Survey(day, dict(items), side_mean(items, POSITIVE_ITEMS), side_mean(items, NEGATIVE_ITEMS))


def make_affect(n_days, affect_by_index=None):
    """Affect arrays of n_days days.  ``affect_by_index`` maps a day's index
    to (pa, na), a complete survey (see survey_items), or to (pa, na, items):
    those ratings with those composites, None for no composite."""
    surveys = {
        i: spec if len(spec) == 3 else (*spec, survey_items(*spec))
        for i, spec in (affect_by_index or {}).items()
    }
    item_ids = tuple(sorted({item for _, _, items in surveys.values() for item in items}))
    ratings = np.full((n_days, len(item_ids)), np.nan)
    reported = np.zeros(n_days, dtype=bool)
    pa, na = np.full(n_days, np.nan), np.full(n_days, np.nan)
    for i, (p, n, items) in surveys.items():
        ratings[i] = [items.get(item, np.nan) for item in item_ids]
        reported[i] = True
        pa[i] = np.nan if p is None else p
        na[i] = np.nan if n is None else n
    return DailyAffect(item_ids, ratings, reported, pa, na)


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
    constructed.  ``affect_by_index`` maps list index -> a survey as
    make_affect takes it.
    """
    fids = schema.feature_ids()
    if dates is None:
        dates = [start + timedelta(days=i) for i in range(len(values_by_day))]
    values = np.array([[row.get(fid) for fid in fids] for row in values_by_day], dtype=float)
    values = values.reshape(len(values_by_day), len(fids))
    return ParticipantTimeline(
        pid,
        fids,
        tuple(dates),
        values,
        np.where(np.isnan(values), CODE_MISSING, CODE_MEASURED).astype(np.int8),
        make_affect(len(dates), affect_by_index),
    )


# Keys that JSON escapes, that a % template must escape, that sort in
# another order than they are listed, and that are not ASCII.
KEYS = st.text(st.sampled_from(["a", "b", "Z", "_", " ", '"', "\\", "%", "é", "中", "\x01", "\u2028"]), max_size=4)
NUMBERS = st.sampled_from([-0.0, 0.0, 5e-324, 1e-5, 1e16, 0.1, 100.0]) | st.floats(
    allow_nan=False, allow_infinity=False
)
RATINGS = st.sampled_from([-0.0, 0.0, 5e-324, 1e-5, 50.0, 100.0]) | st.floats(0.0, 100.0)


REPORT_KINDS = ("absent", "some items", "all items", "any items")


@st.composite
def report_timelines(draw, fids=None, kinds=REPORT_KINDS, min_days=0, max_days=5):
    """A timeline and the per-day Surveys its affect arrays were built from
    (None for a day without one).  Each day draws one of ``kinds``: no
    report, a survey of some of the default items or of all of them, with
    composites by side_mean, or any items and any composites."""
    fids = tuple(draw(st.lists(KEYS, max_size=5))) if fids is None else fids
    gaps = draw(st.lists(st.integers(1, 3), min_size=min_days, max_size=max_days))
    dates = tuple(D0 + timedelta(days=sum(gaps[:k])) for k in range(len(gaps)))
    shape = (len(dates), len(fids))
    n = shape[0] * shape[1]
    codes = np.array(
        draw(st.lists(st.sampled_from([CODE_MEASURED, CODE_IMPUTED, CODE_MISSING]), min_size=n, max_size=n)),
        dtype=np.int8,
    ).reshape(shape)
    numbers = draw(st.lists(NUMBERS, min_size=n, max_size=n))
    values = np.where(codes == CODE_MISSING, np.nan, np.array(numbers, dtype=float).reshape(shape))
    reports = []
    for day in dates:
        kind = draw(st.sampled_from(kinds))
        if kind == "absent":
            reports.append(None)
        elif kind == "any items":
            items = draw(st.dictionaries(KEYS, RATINGS, max_size=4))
            pa, na = draw(st.none() | NUMBERS), draw(st.none() | NUMBERS)
            reports.append(Survey(day, items, pa, na))
        else:
            answered = SURVEY_ITEMS if kind == "all items" else draw(
                st.lists(st.sampled_from(SURVEY_ITEMS), unique=True, min_size=1)
            )
            ratings = draw(st.lists(RATINGS, min_size=len(answered), max_size=len(answered)))
            reports.append(survey(day, dict(zip(answered, ratings))))
    surveys = {i: (r.pa, r.na, r.items) for i, r in enumerate(reports) if r is not None}
    timeline = ParticipantTimeline(draw(KEYS), fids, dates, values, codes, make_affect(len(dates), surveys))
    return timeline, tuple(reports)


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
def tiny_schema():
    return TINY_SCHEMA


# The loop versions of evaluate's fold split, resample check and ROC
# stepping, kept as reference code for the array versions that replaced them.


def kfold_indices_loop(n, k, seed_seq, labels=None, stratified=False):
    """Folds dealt member by member: stratified, each class's permutation
    round-robin over the folds, continuing where the last class stopped;
    else consecutive slices of one permutation, the first n % k one longer."""
    rng = np.random.Generator(np.random.PCG64(seed_seq))
    if stratified and labels is not None:
        folds = [[] for _ in range(k)]
        offset = 0
        for cls in np.unique(labels):
            members = rng.permutation(np.nonzero(labels == cls)[0])
            for i, idx in enumerate(members):
                folds[(offset + i) % k].append(int(idx))
            offset += members.size
        return [np.sort(np.array(f, dtype=int)) for f in folds]
    perm = rng.permutation(n)
    base, extra = divmod(n, k)
    out, start = [], 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        out.append(np.sort(perm[start : start + size]))
        start += size
    return out


def partition_with_resample_loop(y, k, seed, stratified):
    """The first of two seeded partitions whose every training complement
    keeps both classes, checked by one mask per fold; None when neither does."""
    n = y.shape[0]
    for attempt in (0, 1):
        folds = kfold_indices_loop(n, k, np.random.SeedSequence([seed, attempt]), labels=y, stratified=stratified)
        ok = True
        for test_idx in folds:
            train_mask = np.ones(n, dtype=bool)
            train_mask[test_idx] = False
            if np.unique(y[train_mask]).size < 2:
                ok = False
                break
        if ok:
            return folds
    return None


def roc_auc_loop(scores, labels):
    """ROC points stepped over each run of equal scores in turn, and their
    trapezoid AUC."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels).astype(np.int8)
    n_pos, n_neg = int((labels == 1).sum()), int((labels == 0).sum())
    order = np.argsort(-scores, kind="stable")
    s, l = scores[order], labels[order]
    points = [(0.0, 0.0)]
    tp = fp = i = 0
    while i < s.shape[0]:
        j = i
        while j < s.shape[0] and s[j] == s[i]:
            j += 1
        tp += int((l[i:j] == 1).sum())
        fp += int((l[i:j] == 0).sum())
        points.append((fp / n_neg, tp / n_pos))
        i = j
    auc = 0.0
    for (x0, y0), (x1, y1) in zip(points[:-1], points[1:]):
        auc += 0.5 * (y0 + y1) * (x1 - x0)
    return points, float(auc)


# Compiled mood's own High/Low loop and the dataset fallback's own cell by
# cell participant mean, kept as reference code for the shared split and for
# the impute stage's fill that replaced them.


def compiled_mood_loop(pa, na, medians=None):
    """Compiled mood day by day: the dominant deviation is PA's when
    |dev_pa| >= |dev_na|, else NA's negated; above 0 High, below 0 Low,
    else excluded as middle_band.  The medians are numpy's unless given."""
    if medians is None:
        medians = (float(np.median(list(pa.values()))), float(np.median(list(na.values()))))
    med_pa, med_na = medians
    entries, excluded = {}, {}
    for day in pa:
        dev_pa = pa[day] - med_pa
        dev_na = na[day] - med_na
        dominant = dev_pa if abs(dev_pa) >= abs(dev_na) else -dev_na
        if dominant > 0:
            entries[day] = Label.HIGH
        elif dominant < 0:
            entries[day] = Label.LOW
        else:
            excluded[day] = EXCLUDE_MIDDLE_BAND
    return entries, excluded


def participant_mean_rows_loop(timeline, labels, feature_ids):
    """The participant-mean dataset's rows as (feature day, features, 0/1
    label), labelled day by labelled day: each missing cell of the aligned
    feature day takes the mean of the feature's measured values, added one
    by one from 0.0; a feature the timeline lacks or never measured stays
    NaN, and a row holding NaN is dropped."""
    lag = timedelta(days=1 if labels.alignment == "next_day" else 0)
    rows = []
    for day in sorted(labels.entries):
        if day - lag not in timeline.dates:
            continue
        i = timeline.dates.index(day - lag)
        features = []
        for fid in feature_ids:
            if fid not in timeline.feature_ids:
                features.append(float("nan"))
                continue
            j = timeline.feature_ids.index(fid)
            value = float(timeline.values[i, j])
            if timeline.provenance[i, j] == CODE_MISSING:
                total, count = 0.0, 0
                for k in range(len(timeline.dates)):
                    if timeline.provenance[k, j] == CODE_MEASURED:
                        total += float(timeline.values[k, j])
                        count += 1
                value = total / count if count else float("nan")
            features.append(value)
        if not any(np.isnan(features)):
            rows.append((day - lag, features, int(labels.entries[day] is Label.HIGH)))
    return rows


# The tree grower as it was when each tree fitted its own copy of the
# bootstrap rows, every row one step of _WIDTH plus its label, kept as
# reference code for the weighted grower that fits the distinct rows once.


def unit_weighted_gini(index, n):
    """Weighted Gini of cutting after each of the first n - 1 sorted rows,
    from the running side indices `index` (n x columns)."""
    left = index[:-1]
    right = index[-1] - left
    if n <= _TABLE_ROWS:
        table = _gini_table()
        return (table.take(left) + table.take(right)) / n
    n_left = np.arange(1.0, n)[:, None]
    pos_left = left - np.arange(_WIDTH, n * _WIDTH, _WIDTH)[:, None]
    pos_right = right - np.arange((n - 1) * _WIDTH, 0, -_WIDTH)[:, None]
    return (_gini_terms(n_left, pos_left) + _gini_terms(n - n_left, pos_right)) / n


def unit_best_split(X, steps, idx, feature_idx):
    """(impurity, feature, threshold, left rows, right rows, positives on
    the left) of the lowest weighted-Gini split of rows `idx`, or None."""
    n = idx.shape[0]
    xs = X.take(idx, 0).take(feature_idx, 1)
    order = xs.argsort(axis=0)
    xs.sort(axis=0)
    rows = idx.take(order)
    index = steps.take(rows).cumsum(axis=0)
    weighted = unit_weighted_gini(index, n)
    np.putmask(weighted, xs[1:] == xs[:-1], np.inf)
    ks = weighted.argmin(axis=0)
    best_score, c, k = np.inf, -1, -1
    for column, (row, score) in enumerate(zip(ks.tolist(), np.minimum.reduce(weighted).tolist())):
        if score < best_score - 1e-12:
            best_score, c, k = score, column, row
    if c < 0:
        return None
    feat = int(feature_idx[c])
    upper = xs.item(k + 1, c)
    thr = 0.5 * (xs.item(k, c) + upper)
    if thr < upper:
        return best_score, feat, thr, rows[: k + 1, c], rows[k + 1 :, c], index.item(k, c) - (k + 1) * _WIDTH
    go_left = X[idx, feat] <= thr
    left = idx[go_left]
    if left.shape[0] == n:
        return None
    return best_score, feat, thr, left, idx[~go_left], int(steps.take(left).sum()) - left.shape[0] * _WIDTH


def unit_tree_fit(X, y, rng, max_depth, max_features):
    """A tree grown on every row of X once, depth first, left child first."""
    tree = DecisionTree()
    n_features = X.shape[1]
    all_features = np.arange(n_features)
    draws = _CandidateDraws(rng, n_features, max_features) if max_features < n_features else None
    steps = y.astype(np.intp) + _WIDTH
    stack = [(np.arange(X.shape[0]), 0, int(np.count_nonzero(y)), -1)]
    while stack:
        idx, depth, n_pos, parent = stack.pop()
        node = len(tree.value)
        if parent >= 0:
            tree.right[parent] = node
        n = idx.shape[0]
        for nodes, blank in zip((tree.feature, tree.threshold, tree.left, tree.right), (-1, 0.0, -1, -1)):
            nodes.append(blank)
        tree.value.append(n_pos / n)
        if (max_depth is not None and depth >= max_depth) or n_pos in (0, n):
            continue
        split = unit_best_split(X, steps, idx, all_features if draws is None else draws.take())
        if split is None:
            continue
        _, tree.feature[node], tree.threshold[node], rows_left, rows_right, pos_left = split
        tree.left[node] = node + 1
        stack.append((rows_right, depth + 1, n_pos - pos_left, node))
        stack.append((rows_left, depth + 1, pos_left, -1))
    if draws is not None:
        draws.finish()
    return tree


def unit_forest_trees(X, y, seed_seq, n_trees, max_depth, max_features):
    """Each tree of a forest fitted on its own copy of its bootstrap rows."""
    trees = []
    for child in seed_seq.spawn(n_trees):
        rng = np.random.Generator(np.random.PCG64(child))
        bootstrap = rng.integers(0, X.shape[0], size=X.shape[0])
        trees.append(unit_tree_fit(X[bootstrap], y[bootstrap], rng, max_depth, max_features))
    return trees


# feature_affect_correlations as it was when every timeline's padded
# columns() went into one cohort-wide feature matrix, kept as reference code
# for the version that pools one feature column at a time.


def pooled_matrix_correlations(timelines, schema, alignment="next_day"):
    lag = 1 if alignment == "next_day" else 0
    fids = schema.feature_ids()
    n = sum(len(timeline.dates) for timeline in timelines)
    X, Y = np.empty((n, len(fids))), np.empty((n, len(TARGETS)))
    start = 0
    for timeline in timelines:
        stop = start + len(timeline.dates)
        rows = timeline.rows_at(ordinals(timeline.dates) + lag)
        X[start:stop] = timeline.columns(fids)
        for k, column in enumerate((timeline.affect.pa, timeline.affect.na)):
            Y[start:stop, k] = np.where(rows >= 0, column[rows], np.nan)
        start = stop
    out = {}
    for j, fid in enumerate(fids):
        for k, t in enumerate(TARGETS):
            pair = ~np.isnan(X[:, j]) & ~np.isnan(Y[:, k])
            out[(fid, t)] = pearson_r(X[pair, j], Y[pair, k]) if pair.sum() >= MIN_CORR_PAIRS else None
    return out
