"""The JSON codec: field-driven writing, checked reading, and the exit code
every malformed document ends in."""

from __future__ import annotations

import contextlib
import copy
import io
import json
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path
from typing import ClassVar

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affectpipe.cli import main
from affectpipe.core import (
    FeatureSchema,
    Modality,
    dump_json,
    from_json,
    read_json,
    save_timeline,
    to_json,
)
from affectpipe.errors import ConfigError, InputFormatError, MissingInputError, PipelineError, SchemaError
from affectpipe.labels import LabelSet, load_dataset
from affectpipe.learners import ModelFamily, ModelSpec, load_model, save_model, train
from affectpipe.pipeline import RunConfig, preflight
from affectpipe.synth import CohortConfig, cohort_config_from_dict

from conftest import TINY_SCHEMA, make_timeline


@dataclass(frozen=True, eq=False)
class Sample:
    json_document: ClassVar[bool] = True
    name: str = field(metadata={"json_key": "id"})
    when: date
    modality: Modality
    pair: tuple[int, int]
    values: np.ndarray
    weights: dict[str, float] = field(default_factory=dict)
    note: str | None = None


SAMPLE_JSON = {
    "id": "a",
    "when": "2020-01-02",
    "modality": "ring",
    "pair": [1, 2],
    "values": [1, 2],
    "weights": {"x": 0.5},
    "note": None,
    "format_version": 1,
}


# ---------------------------------------------------------------------------
# codec rules


def test_to_json_writes_fields_renamed_keys_and_format_version():
    sample = Sample("a", date(2020, 1, 2), Modality.RING, (1, 2), np.array([1, 2]), {"x": 0.5})
    assert to_json(sample) == SAMPLE_JSON


def test_from_json_reads_back_and_keeps_the_json_number_type():
    back = from_json(Sample, dict(SAMPLE_JSON, run_id="abc"))
    assert to_json(back) == SAMPLE_JSON
    assert back.pair == (1, 2) and back.modality is Modality.RING
    assert back.values.dtype.kind == "i"
    assert from_json(Sample, dict(SAMPLE_JSON, values=[1.5, 2])).values.dtype.kind == "f"


def test_from_json_fills_defaults_and_requires_the_rest():
    payload = {k: v for k, v in SAMPLE_JSON.items() if k not in ("weights", "note")}
    back = from_json(Sample, payload)
    assert back.weights == {} and back.note is None
    with pytest.raises(InputFormatError, match=r"^Sample\.when: missing$"):
        from_json(Sample, {k: v for k, v in SAMPLE_JSON.items() if k != "when"})
    with pytest.raises(InputFormatError, match=r"^Sample: unknown keys \['extra'\]$"):
        from_json(Sample, dict(SAMPLE_JSON, extra=1))


@pytest.mark.parametrize(
    "change, message",
    [
        ({"id": 5}, r"Sample\.id: expected str"),
        ({"when": "2020-13-01"}, r"Sample\.when: expected a YYYY-MM-DD date"),
        ({"modality": "ring2"}, r"Sample\.modality: expected one of"),
        ({"pair": [1, "2"]}, r"Sample\.pair\[1\]: expected int"),
        ({"pair": [1, True]}, r"Sample\.pair\[1\]: expected int"),
        ({"pair": [1]}, r"Sample\.pair: expected 2 items"),
        ({"values": [[1], [2, 3]]}, r"Sample\.values: expected a rectangular array"),
        ({"values": ["1"]}, r"Sample\.values: expected finite numbers"),
        ({"values": 3}, r"Sample\.values: expected a list"),
        ({"weights": {"x": True}}, r"Sample\.weights\.x: expected a finite number"),
        ({"weights": {"x": 1e999}}, r"Sample\.weights\.x: expected a finite number"),
        ({"weights": []}, r"Sample\.weights: expected an object"),
        ({"note": 5}, r"Sample\.note: expected str"),
    ],
)
def test_from_json_names_the_path_of_a_bad_value(change, message):
    with pytest.raises(InputFormatError, match=message):
        from_json(Sample, dict(SAMPLE_JSON, **change))


def test_from_json_document_errors():
    with pytest.raises(InputFormatError, match=r"^LabelSet\.entries: expected an object$"):
        from_json(
            LabelSet,
            {"participant_id": "p", "target": {"kind": "pa"}, "entries": 5, "excluded": {}},
        )
    # checks of the class itself keep their own error class
    spec = {"id": "a", "modality": "ring"}
    with pytest.raises(SchemaError, match="duplicate"):
        from_json(FeatureSchema, {"entries": [spec, spec]})


def test_cohort_config_documents_refuse_polarity():
    """The survey items are fixed, so a cohort config has no polarity and
    refuses one as an unknown key."""
    payload = to_json(CohortConfig())
    assert "polarity" not in payload
    assert cohort_config_from_dict(payload) == CohortConfig()
    payload["polarity"] = {"positive": ["interested"] * 10, "negative": ["afraid"] * 10}
    with pytest.raises(ConfigError, match=r"^cohort config: unknown keys \['polarity'\]$"):
        cohort_config_from_dict(payload)


@pytest.mark.parametrize("family", list(ModelFamily))
def test_resaved_models_are_byte_identical(tmp_path, family):
    rng = np.random.default_rng(3)
    X = rng.normal(size=(30, 3))
    y = (X[:, 0] > 0).astype(np.int8)
    hp = {"n_trees": 3} if family is ModelFamily.RF else {}
    model = train(ModelSpec(family=family, hyperparameters=hp), X, y, feature_ids=("a", "b", "c"))
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_model(first, model)
    back = load_model(first)
    save_model(second, back)
    assert first.read_bytes() == second.read_bytes()
    assert np.array_equal(back.predict_proba(X), model.predict_proba(X))


# ---------------------------------------------------------------------------
# non-finite numbers


def test_non_finite_numbers_are_refused_on_write_and_read(tmp_path):
    path = tmp_path / "doc.json"
    with pytest.raises(PipelineError, match="JSON compliant"):
        dump_json(path, {"x": float("nan")})
    for token in ("NaN", "Infinity", "-Infinity"):
        path.write_text(f'{{"x": {token}}}')
        with pytest.raises(InputFormatError, match=f"{token} is not a JSON number"):
            read_json(path)


# ---------------------------------------------------------------------------
# malformed documents through the CLI


def run_cli(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Valid documents of every kind plus the CLI call that reads each."""
    base = tmp_path_factory.mktemp("codec")
    rows = [
        {"sleep_deep": float(i % 7), "heart_rate": 60.0 + i % 5, "walk_steps": 100.0 + i,
         "main_activity": 0.5}
        for i in range(40)
    ]
    affect = {i: (float(5 * (i % 17)), 20.0) for i in range(40)}
    timeline = str(base / "p01.json")
    save_timeline(timeline, make_timeline("p01", rows, affect_by_index=affect))
    schema = str(base / "schema.json")
    dump_json(schema, to_json(TINY_SCHEMA))
    labels, dataset = str(base / "labels.json"), str(base / "dataset.json")
    assert run_cli(["label", "--in", timeline, "--target", "pa", "--out", labels])[0] == 0
    assert run_cli(
        ["dataset", "--in", timeline, "--labels", labels, "--schema", schema, "--out", dataset]
    )[0] == 0
    ds = load_dataset(dataset)
    ring = str(base / "ring.csv")
    Path(ring).write_text(
        "date,feature_id,value,duration_min\n"
        "2020-01-01,sleep_deep,30,1440\n2020-01-01,heart_rate,60,1440\n"
    )
    cohort = to_json(CohortConfig(n_participants=1, n_days=31, n_eligible=1, shift=None))
    # kind -> (valid document, argv reading the document from `doc`, writing to `out`)
    docs = {
        "timeline": (read_json(timeline), lambda doc, out: ["impute", "--in", doc, "--out", out]),
        "labels": (
            read_json(labels),
            lambda doc, out: ["dataset", "--in", timeline, "--labels", doc, "--schema", schema,
                              "--out", out],
        ),
        "dataset": (
            read_json(dataset),
            lambda doc, out: ["train", "--data", doc, "--model", "baseline", "--out", out],
        ),
        "schema": (
            read_json(schema),
            lambda doc, out: ["ingest", "--schema", doc, "--participant", "p01", "--ring", ring,
                              "--out", out],
        ),
        "cohort": (cohort, lambda doc, out: ["synth", "--config", doc, "--out-dir", out]),
    }
    # Run configs with every key set, one with a synth section and one with
    # raw_dir (a config may not have both); they are checked through preflight.
    every_key = {
        "seed": 3,
        "out_dir": str(base / "run"),
        "stages": ["synth", "ingest"],
        "eligibility": {"min_days": 10},
        "impute": {"fallback": "drop"},
        "label": {"target": "pa", "pooled": False, "middle_band": 0.2, "same_day": False},
        "dataset": {"fallback": "drop", "modalities": ["ring", "watch"]},
        "evaluate": {"model": "rf", "hyperparameters": {"n_trees": 3}, "folds": 3, "tune": False,
                     "stratified": False, "ablation": True, "subsets": {"ring": ["ring"]}},
        "analyze": {"correlations": True, "tvalues": False, "baseline_months": ["2020-01"]},
    }
    synth = {"n_participants": 1, "n_days": 31, "n_eligible": 1, "shift": None}
    docs["run_config"] = (dict(every_key, synth=synth), None)
    docs["run_config_raw_dir"] = (dict(every_key, raw_dir=str(base)), None)
    (base / "a_file").write_text("")
    for family in ModelFamily:
        hp = {"n_trees": 3} if family is ModelFamily.RF else {}
        path = base / f"model_{family.value}.json"
        spec = ModelSpec(family=family, hyperparameters=hp)
        save_model(path, train(spec, ds.X, ds.y, feature_ids=ds.feature_ids))
        docs[f"model_{family.value}"] = (
            read_json(path),
            lambda doc, out: ["analyze", "tvalues", "--model", doc, "--in", timeline, "--out", out],
        )
    return base, docs


def run_document(workspace, kind, doc, out=None):
    base, docs = workspace
    path = base / "mutated.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    if kind.startswith("run_config"):
        return run_cli(["run", "--config", str(path)])
    return run_cli(docs[kind][1](str(path), str(out or base / f"out_{kind}")))


def unwritable_outputs(base, directory):
    """Output paths that cannot be written: for a file, a directory, one in
    a missing directory and one under an existing file; for a directory, an
    existing file and paths under one (missing parents of a directory are
    created, so they are no fault)."""
    a_file = base / "a_file"
    if directory:
        return [a_file, a_file / "sub", a_file / "missing" / "sub"]
    return [base, base / "missing" / "out.json", a_file / "out.json"]


def assert_one_error_line(code, err):
    assert code in (2, 3, 4, 5, 6), err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def _edit(doc, edit):
    doc = copy.deepcopy(doc)
    edit(doc)
    return doc


def _first_affect(doc):
    return next(d["affect"] for d in doc["days"] if d["affect"])


def _drop_feature(doc, fid):
    day = doc["days"][1]
    day["features"].pop(fid)
    day["provenance"].pop(fid)


def _set_root(doc, **values):
    tree = doc["model"]["trees"][0]
    for key, value in values.items():
        tree[key][0] = value


MALFORMED_CASES = [
    ("dataset", lambda d: d["rows"][0].pop("features"), 4),
    ("labels", lambda d: d["participants"][0].pop("target"), 4),
    ("timeline", lambda d: _first_affect(d).update(items=3), 4),
    ("timeline", lambda d: d["days"][0].update(features=[1.0]), 4),
    # every day of a timeline carries the same feature keys, in both maps
    ("timeline", lambda d: _drop_feature(d, "sleep_deep"), 5),
    ("timeline", lambda d: d["days"][1]["provenance"].update(extra="measured"), 5),
    ("model_RF", lambda d: d.pop("seed"), 4),
    # a split whose child points back loops forever when scored; -1 reads as the last node
    ("model_RF", lambda d: _set_root(d, feature=0, left=0), 5),
    ("model_RF", lambda d: _set_root(d, feature=0, right=-1), 5),
    ("cohort", lambda d: d.update(n_participant=3), 2),
]


@pytest.mark.parametrize("kind, edit, code", MALFORMED_CASES)
def test_malformed_documents_exit_with_one_error_line(workspace, kind, edit, code):
    found, err = run_document(workspace, kind, _edit(workspace[1][kind][0], edit))
    assert found == code, err
    assert_one_error_line(found, err)


# Affect a timeline document may not hold because the affect CSV parser
# refuses it, and the end of the one error line each exits 4 with.
REFUSED_AFFECT = [
    (lambda a: a["items"].update(bogus=50.0), "unknown affect item 'bogus'"),
    (lambda a: a["items"].update(interested=101.0), "'interested' out of [0, 100]: 101.0"),
    (lambda a: a.update(pa=1e300), "'pa' out of [0, 100]: 1e+300"),
    (lambda a: a.update(pa=-5.0), "'pa' out of [0, 100]: -5.0"),
    # a positive item gone, its composite still there
    (lambda a: a["items"].pop("active"), "'pa' given without every item of its side ('active' missing)"),
    (lambda a: a["items"].pop("afraid"), "'na' given without every item of its side ('afraid' missing)"),
    # a stored composite other than the one its items give: the first day
    # rates every positive item 0.0 and every negative one 20.0
    (lambda a: a.update(pa=80.0), "'pa' is 80.0, not the mean of its side's items (0.0)"),
    (lambda a: a.update(pa=None), "'pa' is null, not the mean of its side's items (0.0)"),
    (lambda a: a.pop("na"), "'na' is null, not the mean of its side's items (20.0)"),
    (lambda a: a.update(na=20.000000000000004), "'na' is 20.000000000000004, not the mean of its side's items (20.0)"),
]


@pytest.mark.parametrize("edit, message", REFUSED_AFFECT)
def test_timeline_affect_the_csv_parser_refuses_exits_4(workspace, edit, message):
    doc = _edit(workspace[1]["timeline"][0], lambda d: edit(_first_affect(d)))
    assert run_document(workspace, "timeline", doc) == (4, f"error: timeline p01: 2020-01-01 affect: {message}\n")


# Values of the right type that no writer gives, and the one error line each
# exits with: a band outside [0, 1), a repeated dataset row, dates in an
# ISO 8601 spelling other than YYYY-MM-DD, which Python 3.11 reads, a
# negative seed, which numpy's seeding refuses with a traceback, and a KNN
# model with one training row more than it has labels.
REFUSED_VALUES = [
    ("labels", lambda d: d["participants"][0].update(middle_band=5.0),
     (5, "error: labels p01: middle_band must be in [0, 1), got 5.0\n")),
    ("labels", lambda d: d["participants"][0].update(middle_band=-0.25),
     (5, "error: labels p01: middle_band must be in [0, 1), got -0.25\n")),
    ("dataset", lambda d: d["rows"].append(d["rows"][0]),
     (4, "error: dataset: participant 'p01' has a second row on 2020-01-01\n")),
    ("timeline", lambda d: d["days"][2].update(date="20200103"),
     (4, "error: timeline.days[2].date: expected a YYYY-MM-DD date\n")),
    ("dataset", lambda d: d["rows"][1].update(date="2020-W01-4"),
     (4, "error: dataset.rows[1].date: expected a YYYY-MM-DD date\n")),
    ("cohort", lambda d: d.update(seed=-1), (2, "error: seed must be at least 0, got -1\n")),
    ("run_config", lambda d: d.update(seed=-1), (2, "error: seed must be at least 0, got -1\n")),
    ("run_config_raw_dir", lambda d: d.update(seed=-1), (2, "error: seed must be at least 0, got -1\n")),
    ("model_KNN", lambda d: d["model"]["X"].append(d["model"]["X"][0]),
     (4, "error: 31 training rows but 30 labels\n")),
]


@pytest.mark.parametrize("kind, edit, expected", REFUSED_VALUES)
def test_values_no_writer_gives_exit_with_one_error_line(workspace, kind, edit, expected):
    assert run_document(workspace, kind, _edit(workspace[1][kind][0], edit)) == expected


def test_document_keys_are_refused_outside_documents(workspace):
    """format_version and run_id belong to stored documents: a run config
    refuses them with exit 2, a document below its top level with exit 4."""
    with pytest.raises(ConfigError, match=r"^config: unknown keys \['run_id'\]$"):
        preflight({"synth": {}, "run_id": 5, "label": {"run_id": [1]}})
    docs = workspace[1]
    for kind, edit, code in [
        ("run_config", lambda d: d["label"].update(run_id=[1]), 2),
        ("timeline", lambda d: d["days"][0].update(run_id="abc"), 4),
        ("labels", lambda d: d["participants"][0]["target"].update(format_version=1), 4),
        ("model_RF", lambda d: d["model"].update(run_id="abc"), 4),
    ]:
        found, err = run_document(workspace, kind, _edit(docs[kind][0], edit))
        assert found == code and "unknown keys" in err, err
        assert_one_error_line(found, err)
    # a run's timelines carry both keys at the top
    assert run_document(workspace, "timeline", dict(docs["timeline"][0], run_id="abc"))[0] == 0


def test_evaluate_labels_list_non_finite_tokens_and_bad_bytes_exit_4(workspace):
    base, docs = workspace
    path = base / "mutated.json"
    path.write_text(json.dumps(_edit(docs["dataset"][0], MALFORMED_CASES[0][1])))
    code, err = run_cli(
        ["evaluate", "--data", str(path), "--model", "rf", "--out", str(base / "r.json")]
    )
    assert code == 4 and "features: missing" in err
    code, err = run_document(workspace, "labels", docs["labels"][0]["participants"])
    assert code == 4 and "labels: expected an object" in err
    for token in ("NaN", "Infinity"):
        path.write_text(json.dumps(docs["timeline"][0]).replace('"na": 20.0', f'"na": {token}', 1))
        code, err = run_cli(["impute", "--in", str(path), "--out", str(base / "x.json")])
        assert code == 4 and "is not a JSON number" in err
    path.write_bytes(b"\xff\xfe{")
    assert run_cli(["impute", "--in", str(path), "--out", str(base / "x.json")])[0] == 4


def _locations(doc, path=()):
    yield path, doc
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in children:
        yield from _locations(value, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


# One value of each JSON type; a retyped value gets one of another type.
REPLACEMENTS = (None, True, 7, 1.5, "x", [], {})
# Numbers just outside the ranges the documents state: below 0, a fraction
# or middle band of 1 and just above, a rating just above 100, and a count
# below its least value.
OUT_OF_RANGE = (-1e-14, 1.0, 1.0000000000000002, 100.00000000000001, 0, -1)


# The values each mutation applies to.
MUTABLE = {
    "drop": lambda v: True,
    "retype": lambda v: True,
    "add": lambda v: True,
    "repeat": lambda v: isinstance(v, list) and len(v) > 0,
    "swap": lambda v: isinstance(v, list) and len(v) > 1,
    "out_of_range": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
}


@pytest.mark.parametrize(
    "kind",
    ["timeline", "labels", "dataset", "schema", "cohort", "run_config", "run_config_raw_dir",
     *(f"model_{f.value}" for f in ModelFamily)],
)
# A warning would print a second line to stderr, so it fails the test.
@pytest.mark.filterwarnings("error")
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_mutated_documents_never_escape_the_exit_codes(workspace, kind, data):
    base_doc = workspace[1][kind][0]
    doc = copy.deepcopy(base_doc)
    locations = list(_locations(doc))
    ops = [op for op, mutable in MUTABLE.items() if any(mutable(value) for _, value in locations)]
    op = data.draw(st.sampled_from([*ops, "output"]), label="op")
    if op == "output":
        # --out, --out-dir (cohort) or the run config's out_dir
        directory = kind == "cohort" or kind.startswith("run_config")
        out = data.draw(st.sampled_from(unwritable_outputs(workspace[0], directory)), label="out")
        if kind.startswith("run_config"):
            doc["out_dir"] = str(out)
        code, err = run_document(workspace, kind, doc, out)
        assert code == 2, err
        assert_one_error_line(code, err)
        return
    by_depth: dict[int, list] = {}
    for path, value in locations:
        if MUTABLE[op](value):
            by_depth.setdefault(len(path), []).append((path, value))
    depth = data.draw(st.sampled_from(sorted(by_depth)), label="depth")
    path, value = data.draw(st.sampled_from(by_depth[depth]), label="location")
    if op == "repeat":
        i = data.draw(st.integers(0, len(value) - 1), label="index")
        value.insert(i, copy.deepcopy(value[i]))
    elif op == "swap":
        i, j = data.draw(st.lists(st.integers(0, len(value) - 1), min_size=2, max_size=2, unique=True), label="indices")
        value[i], value[j] = value[j], value[i]
    elif op == "out_of_range":
        _at(doc, path[:-1])[path[-1]] = data.draw(st.sampled_from(OUT_OF_RANGE), label="number")
    elif op == "retype" or not isinstance(value, dict) or (op == "drop" and not value):
        new = data.draw(st.sampled_from([r for r in REPLACEMENTS if type(r) is not type(value)]))
        if path:
            _at(doc, path[:-1])[path[-1]] = copy.deepcopy(new)
        else:
            doc = copy.deepcopy(new)
    elif op == "drop":
        del value[data.draw(st.sampled_from(sorted(value)), label="key")]
    else:
        value["unexpected_key"] = 1
    if kind.startswith("run_config"):
        try:
            outcome = preflight(doc)
        except (ConfigError, MissingInputError) as exc:
            outcome = exc
        assert isinstance(outcome, (RunConfig, ConfigError, MissingInputError))
        if op == "add" and isinstance(value, dict):
            assert isinstance(outcome, ConfigError), outcome
        return
    code, err = run_document(workspace, kind, doc)
    if code != 0:
        assert_one_error_line(code, err)
    if op == "add" and not path:
        assert code == (2 if kind == "cohort" else 4), err
