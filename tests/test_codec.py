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
from affectpipe.errors import InputFormatError, PipelineError, SchemaError
from affectpipe.labels import LabelSet, load_dataset
from affectpipe.learners import ModelFamily, ModelSpec, load_model, save_model, train
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
        ({"when": "2020-13-01"}, r"Sample\.when: expected an ISO date"),
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


def test_cohort_config_documents_carry_polarity():
    payload = to_json(CohortConfig())
    assert payload["polarity"]["positive"][0] == "interested"
    del payload["polarity"]
    assert cohort_config_from_dict(payload) == CohortConfig()


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


def run_document(workspace, kind, doc):
    base, docs = workspace
    path = base / "mutated.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return run_cli(docs[kind][1](str(path), str(base / f"out_{kind}")))


def assert_one_error_line(code, err):
    assert code in (2, 3, 4, 5, 6), err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def _edit(doc, edit):
    doc = copy.deepcopy(doc)
    edit(doc)
    return doc


def _first_affect(doc):
    return next(d["affect"] for d in doc["days"] if d["affect"])


MALFORMED_CASES = [
    ("dataset", lambda d: d["rows"][0].pop("features"), 4),
    ("labels", lambda d: d["participants"][0].pop("target"), 4),
    ("timeline", lambda d: _first_affect(d).update(items=3), 4),
    ("timeline", lambda d: d["days"][0].update(features=[1.0]), 4),
    ("model_RF", lambda d: d.pop("seed"), 4),
    ("cohort", lambda d: d.update(n_participant=3), 2),
]


@pytest.mark.parametrize("kind, edit, code", MALFORMED_CASES)
def test_malformed_documents_exit_with_one_error_line(workspace, kind, edit, code):
    found, err = run_document(workspace, kind, _edit(workspace[1][kind][0], edit))
    assert found == code, err
    assert_one_error_line(found, err)


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


@pytest.mark.parametrize(
    "kind",
    ["timeline", "labels", "dataset", "schema", "cohort", *(f"model_{f.value}" for f in ModelFamily)],
)
# A warning would print a second line to stderr, so it fails the test.
@pytest.mark.filterwarnings("error")
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_mutated_documents_never_escape_the_exit_codes(workspace, kind, data):
    base_doc = workspace[1][kind][0]
    doc = copy.deepcopy(base_doc)
    by_depth: dict[int, list] = {}
    for path, value in _locations(doc):
        by_depth.setdefault(len(path), []).append((path, value))
    depth = data.draw(st.sampled_from(sorted(by_depth)), label="depth")
    path, value = data.draw(st.sampled_from(by_depth[depth]), label="location")
    op = data.draw(st.sampled_from(["drop", "retype", "add"]), label="op")
    if op == "retype" or not isinstance(value, dict) or (op == "drop" and not value):
        new = data.draw(st.sampled_from([r for r in REPLACEMENTS if type(r) is not type(value)]))
        if path:
            _at(doc, path[:-1])[path[-1]] = copy.deepcopy(new)
        else:
            doc = copy.deepcopy(new)
    elif op == "drop":
        del value[data.draw(st.sampled_from(sorted(value)), label="key")]
    else:
        value["unexpected_key"] = 1
    code, err = run_document(workspace, kind, doc)
    if code != 0:
        assert_one_error_line(code, err)
    if op == "add" and not path:
        assert code == (2 if kind == "cohort" else 4), err
