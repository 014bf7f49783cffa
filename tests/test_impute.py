"""Window imputation: measured-donor means inside the 5-day window."""

from __future__ import annotations

import warnings
from dataclasses import replace
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affectpipe.cli import main
from affectpipe.core import (
    CODE_IMPUTED,
    CODE_MEASURED,
    CODE_MISSING,
    Modality,
    Provenance,
    canonical_json,
    default_schema,
    save_timeline,
    timeline_to_dict,
)
from affectpipe.errors import InputFormatError
from affectpipe.impute import (
    WINDOW_OFFSETS,
    fill_residual_with_participant_mean,
    impute_all,
)
from affectpipe.pipeline import ingest_participant
from affectpipe.synth import CohortConfig, write_cohort

from conftest import D0, make_timeline, series_timeline, timeline_document

FID = "sleep_deep"


def column(tl, fid=FID):
    return [d.features.values[fid] for d in tl.days]


def provenance(tl, fid=FID):
    return [d.features.provenance[fid] for d in tl.days]


def test_window_offsets_pinned():
    assert WINDOW_OFFSETS == (-2, -1, 1, 2)


# The three hand-built windows; acceptance re-asserts these exact values.


def test_two_neighbor_donors_average():
    tl = impute_all(series_timeline("p", [10.0, None, 20.0]))
    assert column(tl) == [10.0, 15.0, 20.0]
    assert provenance(tl)[1] is Provenance.IMPUTED


def test_full_window_average():
    tl = impute_all(series_timeline("p", [10.0, 20.0, None, 30.0, 40.0]))
    assert column(tl) == [10.0, 20.0, 25.0, 30.0, 40.0]


def test_single_distant_donor_copies():
    tl = impute_all(series_timeline("p", [8.0, None, None]))
    # middle day averages its one donor (8); last day sees only day 0 at -2
    assert column(tl) == [8.0, 8.0, 8.0]
    assert provenance(tl) == [Provenance.MEASURED, Provenance.IMPUTED, Provenance.IMPUTED]


def test_no_donor_stays_missing():
    tl = impute_all(series_timeline("p", [None, None, None, 10.0]))
    # day 0's window reaches day 2 only; the sole measured day is out of range
    assert column(tl)[0] is None
    assert provenance(tl)[0] is Provenance.MISSING


def test_window_is_calendar_based_not_positional():
    dates = [D0, D0 + timedelta(days=1), D0 + timedelta(days=5)]
    tl = series_timeline("p", [7.0, None, 9.0], dates=dates)
    out = impute_all(tl)
    # day 5 is outside the +-2 day window of day 1; only day 0 donates
    assert column(out) == [7.0, 7.0, 9.0]


def test_single_pass_imputed_days_never_donate():
    tl = impute_all(series_timeline("p", [10.0, 20.0, None, None, 50.0]))
    # both gaps are filled from the original measured values only
    assert column(tl)[2] == pytest.approx((10.0 + 20.0 + 50.0) / 3)
    assert column(tl)[3] == pytest.approx((20.0 + 50.0) / 2)


def test_measured_values_and_affect_untouched():
    tl = series_timeline(
        "p", [10.0, None, 20.0], affect_by_index={0: (44.0, 18.0), 2: (61.0, 30.0)}
    )
    out = impute_all(tl)
    assert [d.features.values["heart_rate"] for d in out.days] == [60.0, 60.0, 60.0]
    before = [d["affect"] for d in timeline_document(tl)["days"]]
    after = [d["affect"] for d in timeline_document(out)["days"]]
    assert before == after


def test_each_column_imputes_from_its_own_donors():
    tl = make_timeline("p", [{"sleep_deep": 1.0, "heart_rate": 50.0}, {}, {"sleep_deep": 3.0}])
    out = impute_all(tl)
    assert column(out) == [1.0, 2.0, 3.0]
    assert column(out, "heart_rate") == [50.0, 50.0, 50.0]
    assert column(out, "walk_steps") == [None, None, None]


def test_impute_all_is_idempotent():
    tl = impute_all(series_timeline("p", [10.0, None, None, None, None, None, 40.0]))
    again = impute_all(tl)
    assert canonical_json(timeline_to_dict(again)) == canonical_json(timeline_to_dict(tl))


@settings(max_examples=40)
@given(
    values=st.lists(
        st.one_of(st.none(), st.floats(-100, 100, allow_nan=False)), min_size=3, max_size=12
    )
)
def test_imputed_values_stay_within_measured_range(values):
    tl = impute_all(series_timeline("p", values))
    measured = [v for v in values if v is not None]
    for before, after, prov in zip(values, column(tl), provenance(tl)):
        if before is not None:
            assert after == before and prov is Provenance.MEASURED
        elif after is not None:
            assert prov is Provenance.IMPUTED
            assert min(measured) - 1e-9 <= after <= max(measured) + 1e-9
        else:
            assert prov is Provenance.MISSING


# ---------------------------------------------------------------------------
# residual fallback


def test_residual_fill_uses_participant_mean():
    tl = series_timeline("p", [10.0, None, 30.0])
    out = fill_residual_with_participant_mean(tl)
    assert column(out) == [10.0, 20.0, 30.0]
    assert provenance(out)[1] is Provenance.IMPUTED


def test_residual_fill_ignores_imputed_donors():
    # a previously imputed cell (value 1000) must not contaminate the mean
    tl = series_timeline("p", [10.0, None, 30.0, None])
    first = impute_all(tl)
    values, codes = first.values.copy(), first.provenance.copy()
    j = first.feature_ids.index(FID)
    values[3, j], codes[3, j] = 1000.0, CODE_IMPUTED
    # remove the window-imputed middle cell again so the fallback has work
    values[1, j], codes[1, j] = np.nan, CODE_MISSING
    out = fill_residual_with_participant_mean(replace(first, values=values, provenance=codes))
    assert out.days[1].features.values[FID] == 20.0  # mean of 10 and 30 only


def test_residual_fill_skips_never_measured_feature():
    tl = make_timeline("p", [{"heart_rate": 50.0}, {"heart_rate": 52.0}])
    out = fill_residual_with_participant_mean(tl)
    assert column(out) == [None, None]


# ---------------------------------------------------------------------------
# the array code against a day-by-day loop


def loop_window_then_mean(values, dates):
    """Window imputation, then the participant-mean fallback, one day at a
    time with Python sums: the reference the array code must equal bit for bit."""
    by_date = dict(zip(dates, values))
    window = []
    for day, value in zip(dates, values):
        donors = [by_date.get(day + timedelta(days=off)) for off in WINDOW_OFFSETS]
        donors = [v for v in donors if v is not None]
        window.append(value if value is not None or not donors else sum(donors) / len(donors))
    measured = [v for v in values if v is not None]
    mean = sum(measured, 0.0) / len(measured) if measured else None
    return window, [mean if v is None else v for v in window]


@settings(max_examples=60)
@given(
    cells=st.lists(
        st.tuples(st.integers(1, 3), st.one_of(st.none(), st.floats(-1e6, 1e6, allow_nan=False))),
        min_size=1,
        max_size=15,
    )
)
def test_array_imputation_equals_the_day_by_day_loop(cells):
    dates, day = [], D0
    for gap, _ in cells:
        day += timedelta(days=gap)
        dates.append(day)
    values = [v for _, v in cells]
    window, filled = loop_window_then_mean(values, dates)
    once = impute_all(series_timeline("p", values, dates=dates))
    assert column(once) == window
    assert column(fill_residual_with_participant_mean(once)) == filled


# ---------------------------------------------------------------------------
# means whose finite values add up past the largest float


def test_window_sum_overflow_is_one_input_error(tmp_path, capsys):
    raw = tmp_path / "raw"
    write_cohort(CohortConfig(n_participants=1, n_days=40, n_eligible=1, shift=None, seed=3), raw)
    paths = {m: raw / f"p01_{m.value}.csv" for m in Modality}
    timeline = ingest_participant("p01", paths, raw / "p01_affect.csv", default_schema())
    j = timeline.feature_ids.index("distance")
    # distance is missing on 2020-01-03 and measured on the days around it
    assert timeline.provenance[:5, j].tolist() == [CODE_MEASURED] * 2 + [CODE_MISSING] + [CODE_MEASURED] * 2
    timeline.values[[0, 1, 3, 4], j] = 1.7e308
    save_timeline(tmp_path / "tl.json", timeline)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["impute", "--in", str(tmp_path / "tl.json"), "--out", str(tmp_path / "out.json")]) == 4
    assert capsys.readouterr().err == (
        "error: timeline p01: 2020-01-03 'distance': the values its fill averages add up past the largest float\n"
    )
    assert not (tmp_path / "out.json").exists()


def test_residual_mean_overflow_is_an_input_error():
    # No window adds two of the large values, but the column does; day 4
    # has no window donor, so the participant mean would fill it.
    tl = impute_all(series_timeline("p", [1e308, 1.0, None, None, None, None, None, 1.0, 1e308]))
    assert column(tl)[4] is None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputFormatError, match=f"timeline p: {D0 + timedelta(days=4)} 'sleep_deep': the values"):
            fill_residual_with_participant_mean(tl)
