"""Secondary analyses: feature-affect correlations and monthly t-values."""

from __future__ import annotations

import calendar
import csv
from datetime import date
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .core import FeatureSchema, ParticipantTimeline, ordinals
from .errors import InsufficientDataError
from .learners import TrainedModel

MIN_CORR_PAIRS = 3
MIN_GROUP_SCORES = 3
# The composites correlated with each feature, in column order.
TARGETS = ("pa", "na")


def pearson_r(x: Sequence[float], y: Sequence[float]) -> float | None:
    """Pearson correlation; None when either side is constant (undefined)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("pearson_r needs two equally long 1-d vectors")
    xc = x - x.mean()
    yc = y - y.mean()
    sx = float(np.sqrt((xc * xc).sum()))
    sy = float(np.sqrt((yc * yc).sum()))
    if sx == 0.0 or sy == 0.0:
        return None
    r = float((xc * yc).sum() / (sx * sy))
    return min(1.0, max(-1.0, r))


def welch_t(a: Sequence[float], b: Sequence[float]) -> float:
    """Welch's two-sample t statistic (unequal variances, ddof=1).

    Equal-mean groups with zero pooled variance give 0 rather than 0/0.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size < 2 or b.size < 2:
        raise InsufficientDataError("welch_t needs at least 2 values per group")
    se = float(np.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size))
    diff = float(a.mean() - b.mean())
    if se == 0.0:
        if diff == 0.0:
            return 0.0
        return float(np.inf) if diff > 0 else float(-np.inf)
    return diff / se


def feature_affect_correlations(
    timelines: Sequence[ParticipantTimeline],
    schema: FeatureSchema,
    alignment: str = "next_day",
) -> dict[tuple[str, str], float | None]:
    """Pooled Pearson r between each feature at day t and PA and NA at the
    aligned day, skipping missing values on either side.

    Sparse (< 3 pairs) or constant columns record None: undefined, not 0.
    """
    lag = 1 if alignment == "next_day" else 0
    # Every timeline's rows go into one Y, in order; the features are
    # pooled one column at a time, so no cohort-wide feature matrix exists.
    n = sum(len(timeline.dates) for timeline in timelines)
    Y, x = np.empty((n, len(TARGETS))), np.empty(n)
    spans, start = [], 0
    for timeline in timelines:
        stop = start + len(timeline.dates)
        rows = timeline.rows_at(ordinals(timeline.dates) + lag)
        for k, column in enumerate((timeline.affect.pa, timeline.affect.na)):
            Y[start:stop, k] = np.where(rows >= 0, column[rows], np.nan)
        spans.append((start, stop, timeline.values, {fid: j for j, fid in enumerate(timeline.feature_ids)}))
        start = stop
    out: dict[tuple[str, str], float | None] = {}
    for fid in schema.feature_ids():
        for start, stop, values, index in spans:
            x[start:stop] = values[:, index[fid]] if fid in index else np.nan
        for k, t in enumerate(TARGETS):
            pair = ~np.isnan(x) & ~np.isnan(Y[:, k])
            out[(fid, t)] = pearson_r(x[pair], Y[pair, k]) if pair.sum() >= MIN_CORR_PAIRS else None
    return out


def last_week_dates(year: int, month: int) -> list[date]:
    """The final 7 calendar days of a month."""
    last = calendar.monthrange(year, month)[1]
    return [date(year, month, day) for day in range(last - 6, last + 1)]


def monthly_scores(
    model: TrainedModel,
    timeline: ParticipantTimeline,
    alignment: str = "next_day",
) -> dict[str, np.ndarray]:
    """Predicted probabilities for the last 7 calendar days of each month.

    The score attributed to day d is the model output for d's aligned feature
    row (the previous day under next_day).  Days whose feature row is absent
    or incomplete contribute nothing.  The rows hold the model's own
    feature ids.
    """
    if model.feature_ids is None:
        raise InsufficientDataError("model does not record its feature ids")
    lag = 1 if alignment == "next_day" else 0
    columns = timeline.columns(model.feature_ids)
    months = sorted({(d.year, d.month) for d in timeline.dates})
    out: dict[str, np.ndarray] = {}
    for year, month in months:
        rows = timeline.rows_at(ordinals(last_week_dates(year, month)) - lag)
        X = columns[rows[rows >= 0]]
        X = X[~np.isnan(X).any(axis=1)]
        if len(X):
            out[f"{year:04d}-{month:02d}"] = model.predict_proba(X)
    return out


def tvalues_from_scores(
    scores_by_month: Mapping[str, np.ndarray],
    baseline_months: Sequence[str] | None = None,
) -> tuple[dict[str, float], tuple[str, ...]]:
    """|t| per month against the pooled last-week scores of the other months
    (or of an explicit baseline set, minus the month itself)."""
    usable = {m: s for m, s in scores_by_month.items() if s.size >= MIN_GROUP_SCORES}
    warnings = tuple(
        f"{m}: only {scores_by_month[m].size} scores, need {MIN_GROUP_SCORES}"
        for m in sorted(set(scores_by_month) - set(usable))
    )
    tvalues: dict[str, float] = {}
    for month, scores in sorted(usable.items()):
        if baseline_months is None:
            pool_months = [m for m in usable if m != month]
        else:
            pool_months = [m for m in baseline_months if m in usable and m != month]
        if not pool_months:
            warnings += (f"{month}: no baseline months available",)
            continue
        pooled = np.concatenate([usable[m] for m in pool_months])
        if pooled.size < MIN_GROUP_SCORES:
            warnings += (f"{month}: pooled baseline has {pooled.size} scores",)
            continue
        tvalues[month] = abs(welch_t(scores, pooled))
    return tvalues, warnings


def pooled_monthly_tvalues(
    per_participant_scores: Sequence[Mapping[str, np.ndarray]],
    baseline_months: Sequence[str] | None = None,
) -> tuple[dict[str, float], tuple[str, ...]]:
    """Cohort-level variant: concatenate every participant's scores per month
    before computing the same statistic."""
    merged: dict[str, list[np.ndarray]] = {}
    for scores in per_participant_scores:
        for month, arr in scores.items():
            merged.setdefault(month, []).append(arr)
    pooled = {m: np.concatenate(parts) for m, parts in merged.items()}
    return tvalues_from_scores(pooled, baseline_months)


# ---------------------------------------------------------------------------
# Heatmap-ready CSV outputs

def write_correlation_csv(
    path: Path | str,
    correlations: Mapping[tuple[str, str], float | None],
    feature_ids: Sequence[str],
) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["feature_id", *TARGETS])
        for fid in feature_ids:
            row: list[str] = [fid]
            for t in TARGETS:
                r = correlations.get((fid, t))
                row.append("nan" if r is None else repr(r))
            writer.writerow(row)


def write_tvalues_csv(
    path: Path | str, rows: Mapping[str, Mapping[str, float]]
) -> None:
    """participant x month matrix; blank-less nan cells for omitted months."""
    months = sorted({m for tv in rows.values() for m in tv})
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["participant_id", *months])
        for pid in sorted(rows):
            tv = rows[pid]
            writer.writerow(
                [pid, *("nan" if m not in tv else repr(tv[m]) for m in months)]
            )
