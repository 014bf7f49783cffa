"""Raw CSV parsing, duration-weighted aggregation, and timeline assembly."""

from __future__ import annotations

from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affectpipe.core import Modality, Provenance, default_polarity
from affectpipe.errors import (
    InputFormatError,
    MissingInputError,
    NoDataError,
    SchemaError,
)
from affectpipe.ingest import (
    RawSampleFile,
    RawSampleRow,
    aggregate_day,
    build_timeline,
    parse_affect_file,
    parse_modality_file,
    write_affect_csv,
    write_modality_csv,
)

from conftest import TINY_SCHEMA, make_report

D1 = date(2020, 3, 1)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


RING_OK = "date,feature_id,value,duration_min\n2020-03-01,heart_rate,62.0,5\n2020-03-01,heart_rate,70.0,15\n"


# ---------------------------------------------------------------------------
# modality parsing


def test_parse_modality_rows(tmp_path):
    path = write(tmp_path, "ring.csv", RING_OK)
    parsed = parse_modality_file(path, TINY_SCHEMA, Modality.RING, "p01")
    assert parsed.participant_id == "p01"
    assert parsed.modality is Modality.RING
    assert parsed.rows == (
        RawSampleRow(D1, "heart_rate", 62.0, 5.0),
        RawSampleRow(D1, "heart_rate", 70.0, 15.0),
    )


def test_parse_modality_header_required(tmp_path):
    path = write(tmp_path, "ring.csv", "day,feat,val,dur\n")
    with pytest.raises(InputFormatError, match="header"):
        parse_modality_file(path, TINY_SCHEMA, Modality.RING, "p01")


def test_parse_modality_missing_file(tmp_path):
    with pytest.raises(MissingInputError):
        parse_modality_file(tmp_path / "nope.csv", TINY_SCHEMA, Modality.RING, "p01")


def test_parse_modality_unknown_feature(tmp_path):
    path = write(
        tmp_path, "ring.csv", "date,feature_id,value,duration_min\n2020-03-01,blood_oxygen,1,5\n"
    )
    with pytest.raises(SchemaError, match="blood_oxygen"):
        parse_modality_file(path, TINY_SCHEMA, Modality.RING, "p01")


def test_parse_modality_wrong_device(tmp_path):
    path = write(
        tmp_path, "ring.csv", "date,feature_id,value,duration_min\n2020-03-01,walk_steps,100,5\n"
    )
    with pytest.raises(SchemaError, match="belongs to watch"):
        parse_modality_file(path, TINY_SCHEMA, Modality.RING, "p01")


def test_parse_modality_duration_positive_with_line_number(tmp_path):
    path = write(
        tmp_path,
        "ring.csv",
        "date,feature_id,value,duration_min\n"
        "2020-03-01,heart_rate,62.0,5\n"
        "2020-03-02,heart_rate,64.0,0\n",
    )
    with pytest.raises(InputFormatError, match=r":3.*duration"):
        parse_modality_file(path, TINY_SCHEMA, Modality.RING, "p01")


def test_parse_modality_boolean_values_binary(tmp_path):
    path = write(
        tmp_path,
        "phone.csv",
        "date,feature_id,value,duration_min\n2020-03-01,main_activity,0.5,30\n",
    )
    with pytest.raises(InputFormatError, match="0 or 1"):
        parse_modality_file(path, TINY_SCHEMA, Modality.PHONE, "p01")


def test_parse_modality_bad_number_and_date(tmp_path):
    for row in ("2020-03-99,heart_rate,62,5", "2020-03-01,heart_rate,sixty,5"):
        path = write(tmp_path, "ring.csv", f"date,feature_id,value,duration_min\n{row}\n")
        with pytest.raises(InputFormatError, match=":2"):
            parse_modality_file(path, TINY_SCHEMA, Modality.RING, "p01")


def test_parse_modality_rejects_non_finite_numbers(tmp_path):
    for row in ("heart_rate,nan,5", "heart_rate,inf,5", "heart_rate,62,inf", "heart_rate,-Infinity,5"):
        path = write(
            tmp_path,
            "ring.csv",
            f"date,feature_id,value,duration_min\n2020-03-01,heart_rate,62,5\n2020-03-02,{row}\n",
        )
        with pytest.raises(InputFormatError, match=":3.*finite"):
            parse_modality_file(path, TINY_SCHEMA, Modality.RING, "p01")


# ---------------------------------------------------------------------------
# affect parsing


def test_parse_affect_builds_reports(tmp_path, polarity):
    lines = ["date,item_id,rating"]
    for item in polarity.positive:
        lines.append(f"2020-03-01,{item},60")
    for item in polarity.negative:
        lines.append(f"2020-03-01,{item},20")
    path = write(tmp_path, "affect.csv", "\n".join(lines) + "\n")
    reports = parse_affect_file(path, polarity, "p01")
    assert list(reports) == [D1]
    assert reports[D1].pa == 60.0
    assert reports[D1].na == 20.0


def test_parse_affect_partial_day_kept_incomplete(tmp_path, polarity):
    lines = ["date,item_id,rating"] + [f"2020-03-01,{i},50" for i in polarity.positive]
    path = write(tmp_path, "affect.csv", "\n".join(lines) + "\n")
    report = parse_affect_file(path, polarity, "p01")[D1]
    assert report.pa == 50.0
    assert report.na is None


def test_parse_affect_rejects_out_of_range(tmp_path, polarity):
    path = write(
        tmp_path, "affect.csv", f"date,item_id,rating\n2020-03-01,{polarity.positive[0]},101\n"
    )
    with pytest.raises(InputFormatError, match="out of"):
        parse_affect_file(path, polarity, "p01")


def test_parse_affect_rejects_duplicate_item(tmp_path, polarity):
    item = polarity.positive[0]
    path = write(
        tmp_path,
        "affect.csv",
        f"date,item_id,rating\n2020-03-01,{item},40\n2020-03-01,{item},41\n",
    )
    with pytest.raises(InputFormatError, match="duplicate"):
        parse_affect_file(path, polarity, "p01")


def test_parse_affect_rejects_unknown_item(tmp_path, polarity):
    path = write(tmp_path, "affect.csv", "date,item_id,rating\n2020-03-01,serene,40\n")
    with pytest.raises(InputFormatError, match="serene"):
        parse_affect_file(path, polarity, "p01")


# ---------------------------------------------------------------------------
# aggregation


def test_aggregate_duration_weighted_mean():
    samples = [
        RawSampleRow(D1, "heart_rate", 10.0, 120.0),
        RawSampleRow(D1, "heart_rate", 20.0, 360.0),
    ]
    assert aggregate_day(samples) == 17.5


def test_aggregate_single_sample_is_identity():
    assert aggregate_day([RawSampleRow(D1, "heart_rate", 42.0, 5.0)]) == 42.0


def test_aggregate_boolean_gives_covered_fraction():
    samples = [
        RawSampleRow(D1, "main_activity", 1.0, 60.0),
        RawSampleRow(D1, "main_activity", 0.0, 180.0),
    ]
    assert aggregate_day(samples) == 0.25


def test_aggregate_empty_rejected():
    with pytest.raises(NoDataError):
        aggregate_day([])


def test_aggregate_mixed_features_rejected():
    samples = [
        RawSampleRow(D1, "heart_rate", 10.0, 5.0),
        RawSampleRow(D1, "sleep_deep", 10.0, 5.0),
    ]
    with pytest.raises(SchemaError, match="mixed"):
        aggregate_day(samples)


@settings(max_examples=60)
@given(
    pairs=st.lists(
        st.tuples(st.floats(-50, 50, allow_nan=False), st.floats(0.1, 500, allow_nan=False)),
        min_size=1,
        max_size=8,
    ),
    scale=st.floats(0.01, 100, allow_nan=False),
)
def test_aggregate_scale_invariance_and_bounds(pairs, scale):
    rows = [RawSampleRow(D1, "f", v, d) for v, d in pairs]
    scaled = [RawSampleRow(D1, "f", v, d * scale) for v, d in pairs]
    agg = aggregate_day(rows)
    assert aggregate_day(scaled) == pytest.approx(agg, rel=1e-9, abs=1e-9)
    values = [v for v, _ in pairs]
    assert min(values) - 1e-9 <= agg <= max(values) + 1e-9


# ---------------------------------------------------------------------------
# timeline assembly


def ring_file(rows, pid="p01"):
    return RawSampleFile(pid, Modality.RING, tuple(rows))


def test_build_timeline_materializes_all_dates():
    ring = ring_file(
        [
            RawSampleRow(date(2020, 3, 1), "heart_rate", 60.0, 60.0),
            RawSampleRow(date(2020, 3, 3), "heart_rate", 62.0, 60.0),
        ]
    )
    affect = [make_report(date(2020, 3, 2), 55.0, 15.0)]
    tl = build_timeline([ring], affect, TINY_SCHEMA)
    assert tl.dates() == (date(2020, 3, 1), date(2020, 3, 2), date(2020, 3, 3))
    # the affect-only day carries a fully missing feature vector
    mid = tl.days[1]
    assert all(mid.features.is_missing(fid) for fid in TINY_SCHEMA.feature_ids())
    assert mid.affect is not None and mid.affect.pa == 55.0
    # ring day: measured heart_rate, everything else missing
    first = tl.days[0]
    assert first.features.values["heart_rate"] == 60.0
    assert first.features.provenance["heart_rate"] is Provenance.MEASURED
    assert first.features.is_missing("walk_steps")


def test_build_timeline_aggregates_within_day():
    ring = ring_file(
        [
            RawSampleRow(D1, "heart_rate", 10.0, 120.0),
            RawSampleRow(D1, "heart_rate", 20.0, 360.0),
        ]
    )
    tl = build_timeline([ring], [], TINY_SCHEMA)
    assert tl.days[0].features.values["heart_rate"] == 17.5


def test_build_timeline_rejects_cross_file_duplicates():
    row = RawSampleRow(D1, "heart_rate", 60.0, 60.0)
    with pytest.raises(InputFormatError, match="duplicate"):
        build_timeline([ring_file([row]), ring_file([row])], [], TINY_SCHEMA)


def test_build_timeline_rejects_multiple_participants():
    a = ring_file([RawSampleRow(D1, "heart_rate", 60.0, 60.0)], pid="a")
    b = ring_file([RawSampleRow(D1, "sleep_deep", 30.0, 60.0)], pid="b")
    with pytest.raises(SchemaError, match="multiple participants"):
        build_timeline([a, b], [], TINY_SCHEMA)


def test_build_timeline_rejects_duplicate_affect():
    reports = [make_report(D1), make_report(D1)]
    with pytest.raises(InputFormatError, match="duplicate affect"):
        build_timeline([], reports, TINY_SCHEMA)


def test_build_timeline_requires_some_input():
    with pytest.raises(InputFormatError):
        build_timeline([], [], TINY_SCHEMA)


def test_csv_round_trips(tmp_path, polarity):
    rows = (
        RawSampleRow(D1, "heart_rate", 62.123456789012, 5.5),
        RawSampleRow(date(2020, 3, 2), "sleep_deep", 91.25, 480.0),
    )
    path = tmp_path / "ring.csv"
    write_modality_csv(path, rows)
    assert parse_modality_file(path, TINY_SCHEMA, Modality.RING, "p").rows == rows

    reports = [make_report(D1, 47.375, 21.0625, polarity)]
    apath = tmp_path / "affect.csv"
    write_affect_csv(apath, reports)
    parsed = parse_affect_file(apath, polarity, "p")
    assert parsed[D1] == reports[0]
