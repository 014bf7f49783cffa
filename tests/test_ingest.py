"""Raw CSV parsing, duration-weighted aggregation, and timeline assembly."""

from __future__ import annotations

import csv
import io
import math
import tracemalloc
from datetime import date
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affectpipe import ingest, synth
from affectpipe.core import (
    CODE_MISSING,
    NEGATIVE_ITEMS,
    POSITIVE_ITEMS,
    SURVEY_ITEMS,
    AffectReport,
    Modality,
    Provenance,
    default_schema,
)
from affectpipe.errors import (
    InputFormatError,
    MissingInputError,
    SchemaError,
)
from affectpipe.ingest import (
    AFFECT_HEADER,
    MODALITY_HEADER,
    SAMPLE_DTYPE,
    RawSampleFile,
    build_timeline,
    parse_affect_file,
    parse_modality_file,
    write_affect_csv,
    write_modality_csv,
)

from conftest import TINY_SCHEMA, make_report, report_timelines, side_mean

D1 = date(2020, 3, 1)


def samples(rows):
    """A samples array of (day, feature id, value, duration_min) tuples."""
    return np.array(list(rows), dtype=SAMPLE_DTYPE)


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
    assert parsed.rows.tolist() == [(D1, "heart_rate", 62.0, 5.0), (D1, "heart_rate", 70.0, 15.0)]


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


def test_parse_affect_builds_reports(tmp_path):
    lines = ["date,item_id,rating"]
    for item in POSITIVE_ITEMS:
        lines.append(f"2020-03-01,{item},60")
    for item in NEGATIVE_ITEMS:
        lines.append(f"2020-03-01,{item},20")
    path = write(tmp_path, "affect.csv", "\n".join(lines) + "\n")
    reports = parse_affect_file(path)
    assert list(reports) == [D1]
    affect = build_timeline([], "p01", reports.values(), TINY_SCHEMA).affect
    assert affect.pa[0] == 60.0
    assert affect.na[0] == 20.0


def test_parse_affect_partial_day_kept_incomplete(tmp_path):
    lines = ["date,item_id,rating"] + [f"2020-03-01,{i},50" for i in POSITIVE_ITEMS]
    path = write(tmp_path, "affect.csv", "\n".join(lines) + "\n")
    reports = parse_affect_file(path)
    affect = build_timeline([], "p01", reports.values(), TINY_SCHEMA).affect
    assert affect.pa[0] == 50.0
    assert np.isnan(affect.na[0])


def test_parse_affect_rejects_out_of_range(tmp_path):
    path = write(
        tmp_path, "affect.csv", f"date,item_id,rating\n2020-03-01,{POSITIVE_ITEMS[0]},101\n"
    )
    with pytest.raises(InputFormatError, match="out of"):
        parse_affect_file(path)


def test_parse_affect_rejects_duplicate_item(tmp_path):
    item = POSITIVE_ITEMS[0]
    path = write(
        tmp_path,
        "affect.csv",
        f"date,item_id,rating\n2020-03-01,{item},40\n2020-03-01,{item},41\n",
    )
    with pytest.raises(InputFormatError, match="duplicate"):
        parse_affect_file(path)


def test_parse_affect_rejects_duplicate_item_under_another_date_spelling(tmp_path):
    """A date has one spelling, YYYY-MM-DD, on every Python: the other
    spellings Python 3.11 reads are refused as dates."""
    item = POSITIVE_ITEMS[0]
    path = write(tmp_path, "affect.csv", f"date,item_id,rating\n2020-03-01,{item},40\n20200301,{item},41\n")
    with pytest.raises(InputFormatError, match=":3: Invalid isoformat string: '20200301'"):
        parse_affect_file(path)


@pytest.mark.parametrize("text", ["20200301", "2020-W09-7"])
def test_csv_dates_are_yyyy_mm_dd_on_every_python(tmp_path, text):
    """Python 3.11 reads these as 2020-03-01; both parsers refuse them, with
    the line of the first."""
    message = f":3: Invalid isoformat string: '{text}'"
    ring = write(tmp_path, "ring.csv", f"date,feature_id,value,duration_min\n2020-03-01,heart_rate,60,5\n"
                 f"{text},heart_rate,61,5\n")
    with pytest.raises(InputFormatError, match=message):
        parse_modality_file(ring, TINY_SCHEMA, Modality.RING, "p01")
    affect = write(tmp_path, "affect.csv", f"date,item_id,rating\n2020-03-01,proud,40\n{text},alert,41\n")
    with pytest.raises(InputFormatError, match=message):
        parse_affect_file(affect)


def test_parse_affect_rejects_unknown_item(tmp_path):
    path = write(tmp_path, "affect.csv", "date,item_id,rating\n2020-03-01,serene,40\n")
    with pytest.raises(InputFormatError, match="serene"):
        parse_affect_file(path)


# ---------------------------------------------------------------------------
# aggregation


def daily_value(rows):
    """The value build_timeline aggregates for the day of one feature's samples."""
    tl = build_timeline([ring_file(rows)], "p01", [], TINY_SCHEMA)
    return tl.values[0, tl.feature_ids.index(rows[0][1])]


def test_aggregate_duration_weighted_mean():
    assert daily_value([(D1, "heart_rate", 10.0, 120.0), (D1, "heart_rate", 20.0, 360.0)]) == 17.5


def test_aggregate_single_sample_is_identity():
    assert daily_value([(D1, "heart_rate", 42.0, 5.0)]) == 42.0


def test_aggregate_boolean_gives_covered_fraction():
    assert daily_value([(D1, "main_activity", 1.0, 60.0), (D1, "main_activity", 0.0, 180.0)]) == 0.25


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
    rows = [(D1, "heart_rate", v, d) for v, d in pairs]
    scaled = [(D1, "heart_rate", v, d * scale) for v, d in pairs]
    agg = daily_value(rows)
    # the sums are added in sample order, bit for bit
    assert agg == sum(v * d for v, d in pairs) / sum(d for _, d in pairs)
    assert daily_value(scaled) == pytest.approx(agg, rel=1e-9, abs=1e-9)
    values = [v for v, _ in pairs]
    assert min(values) - 1e-9 <= agg <= max(values) + 1e-9


# ---------------------------------------------------------------------------
# timeline assembly


def ring_file(rows, pid="p01"):
    return RawSampleFile(pid, Modality.RING, samples(rows))


def test_build_timeline_materializes_all_dates():
    ring = ring_file(
        [(date(2020, 3, 1), "heart_rate", 60.0, 60.0), (date(2020, 3, 3), "heart_rate", 62.0, 60.0)]
    )
    affect = [make_report(date(2020, 3, 2), 55.0, 15.0)]
    tl = build_timeline([ring], "p01", affect, TINY_SCHEMA)
    assert tl.dates == (date(2020, 3, 1), date(2020, 3, 2), date(2020, 3, 3))
    # the affect-only day carries a fully missing feature vector
    assert (tl.provenance[1] == CODE_MISSING).all() and np.isnan(tl.values[1]).all()
    assert tl.affect.reported.tolist() == [False, True, False] and tl.affect.pa[1] == 55.0
    # ring day: measured heart_rate, everything else missing
    first = tl.days[0]
    assert first.features.values["heart_rate"] == 60.0
    assert first.features.provenance["heart_rate"] is Provenance.MEASURED
    assert first.features.provenance["walk_steps"] is Provenance.MISSING


def test_build_timeline_aggregates_within_day():
    ring = ring_file([(D1, "heart_rate", 10.0, 120.0), (D1, "heart_rate", 20.0, 360.0)])
    tl = build_timeline([ring], "p01", [], TINY_SCHEMA)
    assert tl.days[0].features.values["heart_rate"] == 17.5


def test_build_timeline_rejects_cross_file_duplicates():
    row = (D1, "heart_rate", 60.0, 60.0)
    with pytest.raises(InputFormatError, match="duplicate"):
        build_timeline([ring_file([row]), ring_file([row])], "p01", [], TINY_SCHEMA)


def test_build_timeline_rejects_multiple_participants():
    a = ring_file([(D1, "heart_rate", 60.0, 60.0)], pid="a")
    b = ring_file([(D1, "sleep_deep", 30.0, 60.0)], pid="b")
    with pytest.raises(SchemaError, match="multiple participants"):
        build_timeline([a, b], "a", [], TINY_SCHEMA)
    # a file of another participant than the caller's
    with pytest.raises(SchemaError, match=r"multiple participants: \['a', 'b'\]"):
        build_timeline([b], "a", [], TINY_SCHEMA)


def test_build_timeline_rejects_duplicate_affect():
    reports = [make_report(D1), make_report(D1)]
    with pytest.raises(InputFormatError, match="duplicate affect"):
        build_timeline([], "p01", reports, TINY_SCHEMA)


def test_build_timeline_requires_some_input():
    with pytest.raises(InputFormatError):
        build_timeline([], "p01", [], TINY_SCHEMA)


def test_csv_round_trips(tmp_path):
    rows = [(D1, "heart_rate", 62.123456789012, 5.5), (date(2020, 3, 2), "sleep_deep", 91.25, 480.0)]
    path = tmp_path / "ring.csv"
    write_modality_csv(path, samples(rows))
    assert parse_modality_file(path, TINY_SCHEMA, Modality.RING, "p").rows.tolist() == rows

    reports = [make_report(D1, 47.375, 21.0625)]
    apath = tmp_path / "affect.csv"
    write_affect_csv(apath, reports)
    parsed = parse_affect_file(apath)
    assert parsed[D1] == reports[0]


@settings(max_examples=50, deadline=None)
@given(drawn=report_timelines(fids=()))
def test_build_timeline_affect_equals_the_per_cell_arrays(drawn):
    """One pass over the reports gives the arrays a per-cell fill gives."""
    expected, reports = drawn
    surveys = [r for r in reports if r is not None]
    found = build_timeline([ring_file([])], "p01", [AffectReport(r.day, r.items) for r in surveys], TINY_SCHEMA)
    rows = [expected.dates.index(r.day) for r in surveys]
    assert found.affect.item_ids == expected.affect.item_ids
    for name in ("ratings", "reported"):
        np.testing.assert_array_equal(getattr(found.affect, name), getattr(expected.affect, name)[rows])
    # the composites by the rule, also for a day drawn with any composites
    for side, name in ((POSITIVE_ITEMS, "pa"), (NEGATIVE_ITEMS, "na")):
        means = [side_mean(r.items, side) for r in surveys]
        np.testing.assert_array_equal(getattr(found.affect, name), np.array(means, dtype=float))


def test_build_timeline_refuses_an_empty_generator():
    with pytest.raises(InputFormatError, match="nothing to build"):
        build_timeline([], "p01", iter([]), TINY_SCHEMA)
    # an empty file is input, and gives a timeline without days
    assert build_timeline([ring_file([])], "p01", iter([]), TINY_SCHEMA).dates == ()


# ---------------------------------------------------------------------------
# column parser against the row-by-row reference


def reference_date(text):
    """date.fromisoformat of a YYYY-MM-DD text; ValueError for any other."""
    day = date.fromisoformat(text)
    if day.isoformat() != text:
        raise ValueError(f"Invalid isoformat string: {text!r}")
    return day


def reference_parse(path, schema, modality):
    """The row-by-row parser the column parser replaced: the samples as
    (day, feature id, value, duration) tuples, or the error it raises."""
    rows = []
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != MODALITY_HEADER:
            raise InputFormatError(f"{path}: expected header {','.join(MODALITY_HEADER)}")
        start = reader.line_num + 1
        for row in reader:
            # the file line the record starts on; a quoted field may span lines
            lineno, start = start, reader.line_num + 1
            if not row:
                continue
            if len(row) != 4:
                raise InputFormatError(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
            try:
                day = reference_date(row[0])
                value = float(row[2])
                duration = float(row[3])
            except ValueError as exc:
                raise InputFormatError(f"{path}:{lineno}: {exc}") from exc
            if not (math.isfinite(value) and math.isfinite(duration)):
                raise InputFormatError(f"{path}:{lineno}: value and duration must be finite")
            fid = row[1]
            if not schema.has(fid):
                raise SchemaError(f"{path}:{lineno}: unknown feature id {fid!r}")
            spec = schema.spec_of(fid)
            if spec.modality is not modality:
                raise SchemaError(
                    f"{path}:{lineno}: feature {fid!r} belongs to {spec.modality.value}, "
                    f"file declared {modality.value}"
                )
            if not duration > 0:
                raise InputFormatError(f"{path}:{lineno}: duration must be > 0, got {duration}")
            if spec.kind == "boolean" and value not in (0.0, 1.0):
                raise InputFormatError(
                    f"{path}:{lineno}: boolean feature {fid!r} must be 0 or 1, got {value}"
                )
            rows.append((day, fid, value, duration))
    return rows


def reference_affect_parse(path):
    """The row loop parse_affect_file replaced: each day's items in file
    order, or the error it raises."""
    known = set(SURVEY_ITEMS)
    by_day = {}
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != AFFECT_HEADER:
            raise InputFormatError(f"{path}: expected header {','.join(AFFECT_HEADER)}")
        start = reader.line_num + 1
        for row in reader:
            lineno, start = start, reader.line_num + 1
            if not row:
                continue
            if len(row) != 3:
                raise InputFormatError(f"{path}:{lineno}: expected 3 fields, got {len(row)}")
            try:
                day = reference_date(row[0])
                rating = float(row[2])
            except ValueError as exc:
                raise InputFormatError(f"{path}:{lineno}: {exc}") from exc
            item_id = row[1]
            if item_id not in known:
                raise InputFormatError(f"{path}:{lineno}: unknown affect item {item_id!r}")
            if not 0.0 <= rating <= 100.0:
                raise InputFormatError(f"{path}:{lineno}: rating out of [0, 100]: {rating}")
            items = by_day.setdefault(day, {})
            if item_id in items:
                raise InputFormatError(f"{path}:{lineno}: duplicate rating for {item_id!r} on {day}")
            items[item_id] = rating
    return by_day


BAD_DATES = ["2020-02-30", "2020-13-01", "yesterday", "", "2020-3-1", "20200301"]
NON_NUMBERS = ["sixty", "", "1e", "--1", "0x10", "1_000"]

# field index -> replacement texts, by mutation, for a modality file
MUTATIONS = {
    "bad date": (0, BAD_DATES),
    "non-number": (st.sampled_from([2, 3]), NON_NUMBERS),
    "non-finite": (st.sampled_from([2, 3]), ["nan", "inf", "-Infinity", "NaN"]),
    "unknown id": (1, ["blood_oxygen", "", "Heart_rate"]),
    "other modality": (1, ["walk_steps", "heart_rate", "main_activity"]),
    "duration <= 0": (3, ["0", "-5", "-0.0", "0.0"]),
    "boolean 0.5": (2, ["0.5"]),
}

# and for an affect file
AFFECT_MUTATIONS = {
    "bad date": (0, BAD_DATES),
    "non-number": (2, NON_NUMBERS),
    "rating range": (2, ["101", "-1", "100.000001", "nan", "inf", "-0.0", "1e2"]),
    "unknown item": (1, ["serene", "", "Interested", "proud "]),
    "same date": (0, ["2020-03-01", "2020-03-02", "20200301"]),
}

# Mutations of any line: the first four make a file that is not plain.
SHAPES = ["quoted field", "lone CR", "NUL", "blank line", "wrong field count"]


def mutate(data, lines, i, kind, mutations):
    """Apply one mutation of ``kind`` to line ``i`` of ``lines`` (in place)."""
    fields = lines[i].split(",")
    if kind == "wrong field count":
        fields = data.draw(st.sampled_from([fields[:-1], fields + ["1"], fields[:1]]))
    elif kind == "quoted field":
        j = data.draw(st.integers(0, len(fields) - 1))
        fields[j] = data.draw(st.sampled_from([f'"{fields[j]}"', f'"{fields[j]},x"', f'"{fields[j]}\n"']))
    elif kind in ("lone CR", "NUL"):
        k = data.draw(st.integers(0, len(lines[i])))
        lines[i] = lines[i][:k] + ("\r" if kind == "lone CR" else "\0") + lines[i][k:]
        return
    elif kind == "blank line":
        lines.insert(i, data.draw(st.sampled_from(["", " "])))
        return
    else:
        index, texts = mutations[kind]
        j = data.draw(index) if isinstance(index, st.SearchStrategy) else index
        fields[j] = data.draw(st.sampled_from(texts))
    lines[i] = ",".join(fields)


def mutated_file(data, path, header, rows, mutations):
    """Write ``rows`` under ``header`` after one or two mutations, on one line
    or two, and maybe another header; with \\n or \\r\\n line ends, mixed or
    not, and with or without a final one."""
    kinds = sorted(mutations) + SHAPES
    lines = [header] + rows
    # From the last line, so an inserted line moves no other target, and on
    # one line those that change its fields before those that change its shape.
    drawn = data.draw(st.lists(st.sampled_from(kinds), max_size=2))
    targets = data.draw(st.lists(st.integers(1, len(rows)), min_size=len(drawn), max_size=len(drawn)))
    for i, kind in sorted(zip(targets, drawn), key=lambda t: (-t[0], kinds.index(t[1]))):
        mutate(data, lines, i, kind, mutations)
    if data.draw(st.booleans()):
        lines[0] = data.draw(st.sampled_from([header.upper(), header + ",x", header[:-1], " " + header, ""]))
    endings = data.draw(st.sampled_from([["\n"], ["\r\n"], ["\n", "\r\n"]]))
    ends = [data.draw(st.sampled_from(endings)) for _ in lines]
    if data.draw(st.booleans()):
        ends[-1] = ""
    path.write_bytes("".join(map(str.__add__, lines, ends)).encode("utf-8"))
    return path


def outcome(parse):
    """What parse() returns, or the class and message of what it raises."""
    try:
        return parse()
    except (InputFormatError, SchemaError) as exc:
        return type(exc), str(exc)


def agree(reference, parse):
    """The reference's outcome; parse must give it on its own read path and
    on the csv path."""
    expected = outcome(reference)
    assert outcome(parse) == expected
    with mock.patch.object(ingest, "_plain_fields", return_value=None):
        assert outcome(parse) == expected
    return expected


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_column_parser_matches_the_row_reference(tmp_path_factory, data):
    modality = data.draw(st.sampled_from([Modality.RING, Modality.PHONE]))
    fids = TINY_SCHEMA.features_for([modality])
    n = data.draw(st.integers(1, 6))
    rows = [f"2020-03-0{1 + k % 3},{fids[k % len(fids)]},{k % 2}.0,{60 * (k + 1)}" for k in range(n)]
    path = mutated_file(data, tmp_path_factory.mktemp("parity") / "file.csv", ",".join(MODALITY_HEADER), rows,
                        MUTATIONS)
    agree(
        lambda: reference_parse(path, TINY_SCHEMA, modality),
        lambda: parse_modality_file(path, TINY_SCHEMA, modality, "p01").rows.tolist(),
    )


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_affect_column_parser_matches_the_row_reference(tmp_path_factory, data):
    items = SURVEY_ITEMS
    n = data.draw(st.integers(1, 8))
    # a few items on each of three days, some days out of order
    rows = [f"2020-03-0{1 + k % 3},{items[k // 3 % 20]},{(7 * k) % 101}.5" for k in range(n)]
    path = mutated_file(data, tmp_path_factory.mktemp("parity") / "affect.csv", ",".join(AFFECT_HEADER), rows,
                        AFFECT_MUTATIONS)

    def parsed():
        reports = parse_affect_file(path)
        assert all(r.day == day for day, r in reports.items())
        return [(day, list(r.items.items())) for day, r in reports.items()]

    agree(lambda: [(day, list(i.items())) for day, i in reference_affect_parse(path).items()], parsed)


def test_line_numbers_count_file_lines_past_a_quoted_line_break(tmp_path):
    """A quoted field spanning lines 2-3 moves the later records down a line:
    the error names the file's line 5, not the fourth record's number."""
    affect = write(tmp_path, "a.csv", 'date,item_id,rating\n2020-03-01,proud,"5\n"\n'
                   "2020-03-01,alert,5\n2020-03-01,bogus,5\n")
    ring = write(tmp_path, "r.csv", 'date,feature_id,value,duration_min\n2020-03-01,heart_rate,"6\n",5\n'
                 "2020-03-01,heart_rate,7,5\n2020-03-01,bogus,7,5\n")
    assert agree(
        lambda: reference_affect_parse(affect),
        lambda: parse_affect_file(affect),
    ) == (InputFormatError, f"{affect}:5: unknown affect item 'bogus'")
    assert agree(
        lambda: reference_parse(ring, TINY_SCHEMA, Modality.RING),
        lambda: parse_modality_file(ring, TINY_SCHEMA, Modality.RING, "p01"),
    ) == (SchemaError, f"{ring}:5: unknown feature id 'bogus'")


def test_plain_fields_splits_only_plain_text():
    header = ["date", "item_id", "rating"]
    plain = [
        "date,item_id,rating\n2020-03-01,a, 1\n2020-03-02,b,2\n",
        "date,item_id,rating\r\n2020-03-01,a,1\r\n2020-03-02,b,2\r\n",
        "date,item_id,rating\n2020-03-01,a,1\n2020-03-02,b,2",
        "date,item_id,rating\n,,\n",
        "date,item_id,rating\n",
        "date,item_id,rating",
        # a line as long as the longest field csv.reader takes
        "date,item_id,rating\n2020-03-01,a," + "9" * (csv.field_size_limit() - 13) + "\n",
    ]
    for text in plain:
        fields = [field for record in list(csv.reader(io.StringIO(text, newline="")))[1:] for field in record]
        assert ingest._plain_fields(text, header) == fields, text[:60]
    not_plain = [
        'date,item_id,rating\n2020-03-01,"a",1\n',
        "date,item_id,rating\n2020-03-01,a\0,1\n",
        "date,item_id,rating\n2020-03-01,a,1\r2020-03-02,b,2\n",
        "date,item_id,rating\r\n2020-03-01,a,1\n",
        "date,item_id,rating\n2020-03-01,a,1\r\n",
        "date,item_id,rating\n\n2020-03-01,a,1\n",
        "date,item_id,rating\n2020-03-01,a,1\n\n",
        "date,item,rating\n2020-03-01,a,1\n",
        "date,item_id,rating\n2020-03-01,a\n",
        "date,item_id,rating\n2020-03-01,a,1,\n",
        "date,item_id,rating\n2020-03-01,a," + "9" * (csv.field_size_limit() - 12) + "\n",
        "",
    ]
    for text in not_plain:
        assert ingest._plain_fields(text, header) is None, text[:60]


@settings(max_examples=60, deadline=None)
@given(
    fids=st.lists(st.text(st.characters(blacklist_categories=("Cs",)), max_size=6), min_size=1, max_size=4),
    numbers=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=8),
)
def test_modality_csv_is_what_csv_writer_writes(tmp_path_factory, fids, numbers):
    rows = [
        (date(2020, 3, 1 + k % 9), fids[k % len(fids)], numbers[k], numbers[k - 1]) for k in range(len(numbers))
    ]
    path = tmp_path_factory.mktemp("writer") / "file.csv"
    write_modality_csv(path, samples(rows))
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(MODALITY_HEADER)
    for day, fid, value, duration in rows:
        writer.writerow([day.isoformat(), fid, repr(value), repr(duration)])
    assert path.read_bytes() == expected.getvalue().encode("utf-8")


@settings(max_examples=30, deadline=None)
@given(
    items=st.dictionaries(
        st.text(st.characters(blacklist_categories=("Cs",)), max_size=6), st.floats(0, 100), min_size=1, max_size=4
    )
)
def test_affect_csv_is_what_csv_writer_writes(tmp_path_factory, items):
    reports = [AffectReport(D1, items), AffectReport(date(2020, 3, 2), items)]
    path = tmp_path_factory.mktemp("writer") / "affect.csv"
    write_affect_csv(path, reports)
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(AFFECT_HEADER)
    for report in reports:
        for item_id in sorted(report.items):
            writer.writerow([report.day.isoformat(), item_id, repr(report.items[item_id])])
    assert path.read_bytes() == expected.getvalue().encode("utf-8")


# ---------------------------------------------------------------------------
# block reading and writing


def parse_either(path, kind):
    """The rows of a modality file, or the reports of an affect file, as
    plain values."""
    if kind == "affect":
        return [(day, list(r.items.items())) for day, r in parse_affect_file(path).items()]
    return parse_modality_file(path, TINY_SCHEMA, kind, "p01").rows.tolist()


def reference_either(path, kind):
    if kind == "affect":
        return [(day, list(items.items())) for day, items in reference_affect_parse(path).items()]
    return reference_parse(path, TINY_SCHEMA, kind)


def by_blocks(chars, parse):
    """parse() read ``chars`` characters at a time."""
    with mock.patch.object(ingest, "_BLOCK_CHARS", chars):
        return outcome(parse)


WHOLE = 1 << 30  # more characters than any file here: one block


@settings(max_examples=300, deadline=None)
@given(data=st.data(), chars=st.integers(1, 96))
def test_block_parse_equals_the_whole_file_parse(tmp_path_factory, data, chars):
    # Up to 40 rows, mutated on any line: blank lines, \n, \r\n or both, no
    # final line end, quotes, NUL and lone \r in a late block, a bad row in
    # a later block, another header.
    kind = data.draw(st.sampled_from([Modality.RING, Modality.PHONE, "affect"]))
    n = data.draw(st.integers(1, 40))
    if kind == "affect":
        header, mutations = ",".join(AFFECT_HEADER), AFFECT_MUTATIONS
        rows = [f"2020-03-{1 + k // 20:02d},{SURVEY_ITEMS[k % 20]},{(7 * k) % 101}.5" for k in range(n)]
    else:
        header, mutations = ",".join(MODALITY_HEADER), MUTATIONS
        fids = TINY_SCHEMA.features_for([kind])
        rows = [f"2020-03-{1 + k // 4:02d},{fids[k % len(fids)]},{k % 2}.0,{60 * (k + 1)}" for k in range(n)]
    path = mutated_file(data, tmp_path_factory.mktemp("blocks") / "file.csv", header, rows, mutations)
    whole = by_blocks(WHOLE, lambda: parse_either(path, kind))
    assert whole == outcome(lambda: reference_either(path, kind))
    assert by_blocks(chars, lambda: parse_either(path, kind)) == whole
    with mock.patch.object(ingest, "_plain_fields", return_value=None):
        assert by_blocks(chars, lambda: parse_either(path, kind)) == whole


def ring_lines(n):
    return [f"2020-03-{1 + k // 10:02d},heart_rate,{60 + k % 7}.5,{5 + k % 3}" for k in range(n)]


@pytest.mark.parametrize("chars", [1, 7, 64, 1000])
def test_blocks_keep_line_numbers_and_the_earliest_bad_line(tmp_path, chars):
    header = ",".join(MODALITY_HEADER)
    lines = ring_lines(60)
    # A bad row in a late block: same line and message as read whole.
    lines[49] = "2020-03-05,heart_rate,6x,5"
    late = write(tmp_path, "late.csv", "\n".join([header, *lines]) + "\n")
    # A quote only in a late block sends the rest through csv.reader; the
    # quoted line break moves the later lines down one.
    quoted = lines[:]
    quoted[40] = '2020-03-05,heart_rate,"61\n",5'
    csv_path = write(tmp_path, "quoted.csv", "\r\n".join([header, *quoted]))
    # A NUL in a late block, after a bad row in an early one: the early row
    # is the one refused.
    nul = lines[:]
    nul[3], nul[45] = "2020-03-01,bogus,1.0,5", "2020-03-05,heart_rate,61\0,5"
    nul_path = write(tmp_path, "nul.csv", "\n".join([header, *nul, "", ""]))
    for path, expected in [
        (late, (InputFormatError, f"{late}:51: could not convert string to float: '6x'")),
        (csv_path, (InputFormatError, f"{csv_path}:52: could not convert string to float: '6x'")),
        (nul_path, (SchemaError, f"{nul_path}:5: unknown feature id 'bogus'")),
    ]:
        parse = lambda: parse_modality_file(path, TINY_SCHEMA, Modality.RING, "p01")  # noqa: E731
        assert by_blocks(chars, parse) == by_blocks(WHOLE, parse) == expected
    good = write(tmp_path, "good.csv", "\r\n".join([header, *lines[:49]]))
    parse = lambda: parse_modality_file(good, TINY_SCHEMA, Modality.RING, "p01").rows.tolist()  # noqa: E731
    assert by_blocks(chars, parse) == by_blocks(WHOLE, parse) == reference_parse(good, TINY_SCHEMA, Modality.RING)


@pytest.mark.parametrize("chars", [100, 4096, WHOLE])
def test_an_over_long_field_is_refused_from_any_block(tmp_path, chars):
    limit = csv.field_size_limit()
    header = ",".join(MODALITY_HEADER)
    lines = ring_lines(30)
    # a row with the longest field csv.reader takes is read, then refused by
    # the schema; one a character longer is refused by csv.reader, which
    # comes first though its line is later
    lines[20] = f"2020-03-03,{'x' * limit},60.0,5"
    lines[25] = f"2020-03-03,{'x' * (limit + 1)},60.0,5"
    path = write(tmp_path, "long.csv", "\n".join([header, *lines]) + "\n")
    assert by_blocks(chars, lambda: parse_modality_file(path, TINY_SCHEMA, Modality.RING, "p01")) == (
        InputFormatError, f"{path}:27: field larger than field limit ({limit})")
    del lines[25]
    path.write_text("\n".join([header, *lines]) + "\n")
    error, message = by_blocks(chars, lambda: parse_modality_file(path, TINY_SCHEMA, Modality.RING, "p01"))
    assert error is SchemaError and message.startswith(f"{path}:22: unknown feature id 'xxx")


@pytest.mark.parametrize("chars", [1, 50, WHOLE])
def test_text_that_is_not_utf8_is_refused_first_wherever_it_is(tmp_path, chars):
    header = ",".join(MODALITY_HEADER)
    lines = ring_lines(400)
    # before the bad byte, and more than a read-ahead of bytes before it, a
    # bad row on the plain path, a field csv.reader refuses as too long or
    # another header
    for k, (first, line) in enumerate([
        (header, "2020-03-01,bogus,1.0,5"),
        (header, f"2020-03-01,{'x' * (csv.field_size_limit() + 1)},1.0,5"),
        ("date,feature,value,duration_min", lines[2]),
    ]):
        path = tmp_path / f"ring{k}.csv"
        text = "\n".join([first, *lines[:2], line, *lines[3:]]) + "\n"
        path.write_bytes(text.encode() + b"2020-03-05,heart_rate,6\xff,5\n")
        with pytest.raises(UnicodeDecodeError) as whole:
            with path.open(newline="", encoding="utf-8") as handle:
                handle.read()
        assert by_blocks(chars, lambda: parse_modality_file(path, TINY_SCHEMA, Modality.RING, "p01")) == (
            InputFormatError, f"{path}: not UTF-8 text ({whole.value})")


@pytest.mark.parametrize("chars", [1, 30, WHOLE])
def test_a_repeated_rating_is_refused_at_its_line_across_blocks(tmp_path, chars):
    header = ",".join(AFFECT_HEADER)
    lines = [f"2020-03-{1 + k // 20:02d},{SURVEY_ITEMS[k % 20]},{k % 90}.5" for k in range(100)]
    repeat = lines[:]
    repeat[70] = lines[5]  # line 72 repeats line 7
    later_bad = repeat[:]
    later_bad[90] = "2020-03-05,proud,101"
    earlier_bad = repeat[:]
    earlier_bad[30] = "2020-03-02,proud,x"
    rows = lambda: [(day, list(r.items.items())) for day, r in parse_affect_file(path).items()]  # noqa: E731
    for changed, expected in [
        (repeat, (InputFormatError, "72: duplicate rating for 'alert' on 2020-03-01")),
        (later_bad, (InputFormatError, "72: duplicate rating for 'alert' on 2020-03-01")),
        (earlier_bad, (InputFormatError, "32: could not convert string to float: 'x'")),
        (lines, None),
    ]:
        path = write(tmp_path, "affect.csv", "\n".join([header, *changed]) + "\n")
        whole = by_blocks(WHOLE, rows)
        assert by_blocks(chars, rows) == whole == outcome(
            lambda: [(day, list(items.items())) for day, items in reference_affect_parse(path).items()])
        if expected:
            assert whole == (expected[0], f"{path}:{expected[1]}")


def test_a_directory_is_not_an_input_file(tmp_path):
    for parse in (
        lambda: parse_modality_file(tmp_path, TINY_SCHEMA, Modality.RING, "p01"),
        lambda: parse_affect_file(tmp_path),
    ):
        with pytest.raises(MissingInputError, match=f"^not a file: {tmp_path}$"):
            parse()


def test_parsing_holds_a_block_at_a_time(tmp_path):
    config = synth.cohort_config_from_dict({"n_participants": 1, "n_days": 400, "n_eligible": 1, "seed": 1234})
    synth.write_cohort(config, tmp_path)
    path = tmp_path / "p01_ring.csv"
    schema = default_schema()
    parse_modality_file(path, schema, Modality.RING, "p01")  # imports and caches outside the trace
    tracemalloc.start()
    try:
        rows = parse_modality_file(path, schema, Modality.RING, "p01").rows
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # about 11k rows and 0.58 MB of text; read whole, the text, a str per
    # field and the column lists peaked at about 4.2 MB, a block at a time
    # at about 1.4 MB
    assert len(rows) > 10_000 and path.stat().st_size > 500_000
    assert peak < 2_000_000


@settings(max_examples=40, deadline=None)
@given(
    fids=st.lists(st.text(st.characters(blacklist_categories=("Cs",)), max_size=6), min_size=1, max_size=4),
    numbers=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=0, max_size=9),
    lines=st.integers(1, 4),
)
def test_csv_writers_write_the_same_bytes_in_any_block(tmp_path_factory, fids, numbers, lines):
    rows = samples(
        (date(2020, 3, 1 + k % 9), fids[k % len(fids)], numbers[k], numbers[k - 1]) for k in range(len(numbers))
    )
    reports = [AffectReport(date(2020, 3, 1 + k), {fid: 50.0 + k for fid in fids}) for k in range(len(numbers))]
    written = []
    for block in (lines, 1 << 20):
        directory = tmp_path_factory.mktemp("blocks")
        with mock.patch.object(ingest, "_BLOCK_LINES", block):
            write_modality_csv(directory / "ring.csv", rows)
            write_affect_csv(directory / "affect.csv", iter(reports))
        written.append([(directory / name).read_bytes() for name in ("ring.csv", "affect.csv")])
    assert written[0] == written[1]
