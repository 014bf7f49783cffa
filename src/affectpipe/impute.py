"""Window-based imputation of missing daily feature values.

A missing value on day d is replaced by the unweighted mean of the *measured*
values of the same feature on calendar days d-2, d-1, d+1, d+2 (those that
exist and were measured).  The pass is single-shot: values imputed in this
pass never serve as donors.  Affect reports are left untouched.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .core import CODE_IMPUTED, CODE_MEASURED, CODE_MISSING, ParticipantTimeline, ordinals
from .errors import InputFormatError

WINDOW_OFFSETS = (-2, -1, 1, 2)


def _fill(timeline: ParticipantTimeline, means: np.ndarray) -> ParticipantTimeline:
    """The timeline with each missing value whose mean is not NaN set to it
    and marked imputed.  An infinite mean is refused with InputFormatError:
    the values it averages are finite, but their sum overflowed."""
    fill = (timeline.provenance == CODE_MISSING) & ~np.isnan(means)
    values = np.where(fill, means, timeline.values)
    bad = np.argwhere(np.isinf(values))
    if bad.size:
        row, col = bad[0]
        raise InputFormatError(
            f"timeline {timeline.participant_id}: {timeline.dates[row]} {timeline.feature_ids[col]!r}: "
            "the values its fill averages add up past the largest float"
        )
    return replace(
        timeline,
        values=values,
        provenance=np.where(fill, CODE_IMPUTED, timeline.provenance).astype(np.int8),
    )


def impute_all(timeline: ParticipantTimeline) -> ParticipantTimeline:
    """Apply window imputation to every feature column.

    Donor lookup is by calendar date, not by row position: absent days in the
    timeline simply contribute no donors.
    """
    measured = timeline.provenance == CODE_MEASURED
    days = ordinals(timeline.dates)
    # Donors are added in offset order, an absent one as 0.0, which gives
    # the same sum as adding only the present ones.
    total = np.zeros(timeline.values.shape)
    count = np.zeros(timeline.values.shape, dtype=np.int64)
    # A sum past the largest float is an infinite mean, which _fill
    # refuses; 0 / 0 is NaN: no donors.
    with np.errstate(invalid="ignore", over="ignore"):
        for offset in WINDOW_OFFSETS:
            rows = timeline.rows_at(days + offset)
            donor = (rows >= 0)[:, None] & measured[rows]
            total += np.where(donor, timeline.values[rows], 0.0)
            count += donor
        means = total / count
    return _fill(timeline, means)


def _measured_means(timeline: ParticipantTimeline) -> np.ndarray:
    """Each feature's mean over its measured values, NaN for one with none;
    the sum is added day by day from 0.0, as a loop does (np.sum may not)."""
    measured = timeline.provenance == CODE_MEASURED
    stacked = np.vstack([np.zeros(len(timeline.feature_ids)), np.where(measured, timeline.values, 0.0)])
    # An overflowing sum is an infinite mean, which _fill refuses; 0 / 0 is NaN.
    with np.errstate(invalid="ignore", over="ignore"):
        return np.cumsum(stacked, axis=0)[-1] / measured.sum(axis=0)


def fill_residual_with_participant_mean(timeline: ParticipantTimeline) -> ParticipantTimeline:
    """Fill values still missing after window imputation with the participant
    mean of measured values for that feature.  Features with no measured value
    anywhere stay missing."""
    return _fill(timeline, _measured_means(timeline))
