"""ROC/AUC, seeded k-fold CV, and paired modality ablation."""

from __future__ import annotations

import csv
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affectpipe.core import Modality
from affectpipe.errors import InsufficientDataError, SchemaError
from affectpipe.core import from_json, to_json
from affectpipe.evaluate import (
    REFERENCE_RESULTS,
    EvaluationReport,
    ablation_run,
    cross_validate,
    fold_assignment_hash,
    kfold_indices,
    load_report,
    macro_average,
    paired_subsets,
    relative_improvement,
    roc_auc,
    save_report,
    write_accuracy_table_csv,
    write_roc_csv,
)
from affectpipe.labels import Dataset, TargetSpec, build_dataset, build_labels
from affectpipe.learners import ModelFamily, ModelSpec

from conftest import D0, TINY_SCHEMA, make_timeline


def concordance_oracle(scores, labels):
    """Brute-force pairwise Mann-Whitney statistic with half-credit ties."""
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            total += 1.0 if p > q else (0.5 if p == q else 0.0)
    return total / (len(pos) * len(neg))


def toy_dataset(X, y, start=D0, pid="p"):
    n = len(y)
    return Dataset(
        feature_ids=tuple(f"f{j}" for j in range(X.shape[1])),
        X=np.asarray(X, dtype=float),
        y=np.asarray(y, dtype=np.int8),
        dates=tuple(start + timedelta(days=i) for i in range(n)),
        participant_ids=(pid,) * n,
        target=TargetSpec(kind="pa"),
    )


# ---------------------------------------------------------------------------
# roc / auc


def test_roc_fixture_with_a_score_tie_shape():
    scores = np.array([0.9, 0.8, 0.1, 0.85])
    labels = np.array([1, 1, 0, 0])
    points, auc = roc_auc(scores, labels)
    assert points == [(0.0, 0.0), (0.0, 0.5), (0.5, 0.5), (0.5, 1.0), (1.0, 1.0)]
    assert auc == 0.75


def test_roc_perfect_and_inverted():
    labels = np.array([0, 0, 1, 1])
    assert roc_auc(np.array([0.1, 0.2, 0.8, 0.9]), labels)[1] == 1.0
    assert roc_auc(np.array([0.9, 0.8, 0.2, 0.1]), labels)[1] == 0.0


def test_roc_all_tied_is_chance():
    points, auc = roc_auc(np.full(6, 0.5), np.array([0, 1, 0, 1, 0, 1]))
    assert points == [(0.0, 0.0), (1.0, 1.0)]
    assert auc == 0.5


def test_roc_requires_both_classes():
    with pytest.raises(InsufficientDataError):
        roc_auc(np.array([0.1, 0.9]), np.array([1, 1]))


@settings(max_examples=80)
@given(
    n=st.integers(2, 50),
    seed=st.integers(0, 2**31 - 1),
    coarse=st.booleans(),
)
def test_auc_equals_pairwise_concordance(n, seed, coarse):
    rng = np.random.default_rng(seed)
    labels = np.zeros(n, dtype=np.int8)
    labels[rng.permutation(n)[: rng.integers(1, n)]] = 1
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    scores = rng.integers(0, 4, size=n) / 4.0 if coarse else rng.normal(size=n)
    points, auc = roc_auc(scores, labels)
    assert auc == pytest.approx(concordance_oracle(scores, labels), abs=1e-9)
    assert points[0] == (0.0, 0.0) and points[-1] == (1.0, 1.0)
    xs, ys = zip(*points)
    assert all(b >= a for a, b in zip(xs, xs[1:]))
    assert all(b >= a for a, b in zip(ys, ys[1:]))
    assert 0.0 <= auc <= 1.0


# ---------------------------------------------------------------------------
# fold construction


@settings(max_examples=40)
@given(n=st.integers(4, 60), k=st.integers(2, 8), seed=st.integers(0, 1000))
def test_kfold_partitions_exactly(n, k, seed):
    if k > n:
        k = n
    folds = kfold_indices(n, k, np.random.SeedSequence(seed))
    flat = np.concatenate(folds)
    assert sorted(flat.tolist()) == list(range(n))
    sizes = [f.size for f in folds]
    assert max(sizes) - min(sizes) <= 1


def test_kfold_is_seed_deterministic():
    a = kfold_indices(20, 4, np.random.SeedSequence(9))
    b = kfold_indices(20, 4, np.random.SeedSequence(9))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    c = kfold_indices(20, 4, np.random.SeedSequence(10))
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def test_kfold_rejects_bad_k():
    with pytest.raises(InsufficientDataError):
        kfold_indices(3, 4, np.random.SeedSequence(0))
    with pytest.raises(InsufficientDataError):
        kfold_indices(3, 1, np.random.SeedSequence(0))


def test_stratified_folds_preserve_class_ratio():
    y = np.array([1] * 20 + [0] * 40)
    folds = kfold_indices(60, 5, np.random.SeedSequence(3), labels=y, stratified=True)
    for f in folds:
        assert (y[f] == 1).sum() == 4  # 20 positives over 5 folds


def test_fold_hash_tracks_assignment():
    folds = kfold_indices(16, 4, np.random.SeedSequence(1))
    again = kfold_indices(16, 4, np.random.SeedSequence(1))
    other = kfold_indices(16, 4, np.random.SeedSequence(2))
    assert fold_assignment_hash(folds, 16) == fold_assignment_hash(again, 16)
    assert fold_assignment_hash(folds, 16) != fold_assignment_hash(other, 16)


# ---------------------------------------------------------------------------
# cross_validate


def test_leave_one_out_knn_enumerated_by_hand():
    # nearest-neighbor chains: 0<-1 and 1<-1.8 disagree with the labels, so
    # exactly the two middle points misclassify under leave-one-out
    ds = toy_dataset(np.array([[0.0], [1.0], [1.8], [4.0]]), [0, 0, 1, 1])
    spec = ModelSpec(family=ModelFamily.KNN, hyperparameters={"k": 1}, seed=0)
    report = cross_validate(ds, spec, k=4, seed=5)
    assert report.mean_accuracy == 0.5
    assert sorted(report.fold_accuracies) == [0.0, 0.0, 1.0, 1.0]
    assert report.confusion == {"tp": 1, "fp": 1, "tn": 1, "fn": 1}
    assert report.auc == 0.5
    # every 3-row training complement majority-votes against its test row
    assert report.baseline_accuracy == 0.0
    assert report.k == 4 and report.n_rows == 4


def test_leave_one_out_knn_clean_clusters():
    ds = toy_dataset(np.array([[0.0], [1.0], [3.0], [4.0]]), [0, 0, 1, 1])
    spec = ModelSpec(family=ModelFamily.KNN, hyperparameters={"k": 1}, seed=0)
    report = cross_validate(ds, spec, k=4, seed=5)
    assert report.mean_accuracy == 1.0
    assert report.auc == 1.0
    assert report.baseline_accuracy == 0.0


def test_majority_model_equals_reported_baseline():
    rng = np.random.default_rng(21)
    ds = toy_dataset(rng.normal(size=(40, 3)), rng.integers(0, 2, size=40))
    report = cross_validate(ds, ModelSpec(family=ModelFamily.MAJORITY, seed=0), k=5, seed=2)
    assert report.mean_accuracy == report.baseline_accuracy


def test_cross_validate_requires_two_classes():
    ds = toy_dataset(np.zeros((10, 2)), [1] * 10)
    with pytest.raises(InsufficientDataError):
        cross_validate(ds, ModelSpec(family=ModelFamily.KNN), k=5, seed=0)


def test_lone_positive_fails_even_after_resample():
    # whichever fold holds the only positive, its complement is single-class
    ds = toy_dataset(np.arange(8.0).reshape(4, 2), [1, 0, 0, 0])
    with pytest.raises(InsufficientDataError, match="resample"):
        cross_validate(ds, ModelSpec(family=ModelFamily.KNN), k=2, seed=0)


def test_one_resample_rescues_a_bad_first_partition():
    # find a seed whose first seeded partition clusters both positives into
    # one fold; the documented second attempt must then succeed
    y = np.array([1, 1, 0, 0, 0, 0], dtype=np.int8)
    chosen = None
    for seed in range(200):
        folds = kfold_indices(6, 2, np.random.SeedSequence([seed, 0]))
        bad = any(np.unique(y[np.setdiff1d(np.arange(6), f)]).size < 2 for f in folds)
        retry = kfold_indices(6, 2, np.random.SeedSequence([seed, 1]))
        retry_ok = all(
            np.unique(y[np.setdiff1d(np.arange(6), f)]).size == 2 for f in retry
        )
        if bad and retry_ok:
            chosen = (seed, retry)
            break
    assert chosen is not None
    seed, retry = chosen
    ds = toy_dataset(np.arange(12.0).reshape(6, 2), y)
    report = cross_validate(ds, ModelSpec(family=ModelFamily.KNN), k=2, seed=seed)
    assert report.fold_hash == fold_assignment_hash(retry, 6)


def test_cross_validate_records_tuning_choices():
    rng = np.random.default_rng(31)
    X = np.vstack([rng.normal(0, 1, (20, 2)), rng.normal(6, 1, (20, 2))])
    y = np.array([0] * 20 + [1] * 20, dtype=np.int8)
    ds = toy_dataset(X, y)
    grid = [{"k": 3}, {"k": 7}]
    report = cross_validate(ds, ModelSpec(family=ModelFamily.KNN, seed=1), k=4, seed=1, grid=grid)
    assert len(report.chosen_hyperparameters) == 4
    assert all(hp["k"] in (3, 7) for hp in report.chosen_hyperparameters)


def test_report_round_trip(tmp_path):
    ds = toy_dataset(np.array([[0.0], [1.0], [3.0], [4.0]]), [0, 0, 1, 1])
    report = cross_validate(ds, ModelSpec(family=ModelFamily.KNN, hyperparameters={"k": 1}), k=4, seed=5)
    path = tmp_path / "report.json"
    save_report(path, report)
    assert load_report(path) == report
    assert from_json(EvaluationReport, to_json(report)) == report


def test_csv_outputs_parse_back(tmp_path):
    ds = toy_dataset(np.array([[0.0], [1.0], [3.0], [4.0]]), [0, 0, 1, 1])
    report = cross_validate(ds, ModelSpec(family=ModelFamily.KNN, hyperparameters={"k": 1}), k=4, seed=5)
    roc_path, table_path = tmp_path / "roc.csv", tmp_path / "table.csv"
    write_roc_csv(roc_path, report)
    write_accuracy_table_csv(table_path, {"knn": report})
    with roc_path.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["fpr", "tpr"]
    assert [(float(a), float(b)) for a, b in rows[1:]] == list(report.roc_points)
    with table_path.open() as fh:
        table = list(csv.DictReader(fh))
    assert table[0]["name"] == "knn"
    assert float(table[0]["mean_accuracy"]) == report.mean_accuracy


def test_macro_average_and_relative_improvement():
    assert relative_improvement(0.9, 0.75) == pytest.approx(0.2)
    with pytest.raises(InsufficientDataError):
        macro_average([])


def test_reference_constants_are_the_published_numbers():
    assert REFERENCE_RESULTS["mean_accuracy"] == 0.81
    assert REFERENCE_RESULTS["auc"] == 0.82
    assert REFERENCE_RESULTS["multimodal_relative_gain"] == 0.218


# ---------------------------------------------------------------------------
# paired ablation


def ramp_dataset(pid, n=30, start=D0):
    """Dataset whose ring column carries all the signal."""
    rng = np.random.default_rng(sum(map(ord, pid)))
    rows = []
    for i in range(n):
        sig = float(i % 2)
        rows.append(
            {
                "sleep_deep": 10 * sig + rng.normal(0, 0.1),
                "heart_rate": 60.0 + rng.normal(0, 1),
                "walk_steps": 100.0 + rng.normal(0, 1),
                "main_activity": 0.5,
            }
        )
    affect = {
        i: (30 * (rows[i - 1]["sleep_deep"] > 5) + 30 + rng.normal(0, 2), 20.0)
        for i in range(1, n)
    }
    tl = make_timeline(pid, rows, affect_by_index=affect, start=start)
    labels = build_labels(tl, TargetSpec(kind="pa"))
    return build_dataset(tl, labels, TINY_SCHEMA)


def test_paired_subsets_share_rows_and_hash():
    ds = ramp_dataset("p1")
    subsets = paired_subsets(
        ds,
        TINY_SCHEMA,
        {
            "ring": (Modality.RING,),
            "watch": (Modality.WATCH,),
            "all": tuple(Modality),
        },
    )
    assert subsets["ring"].feature_ids == ("sleep_deep", "heart_rate")
    assert subsets["watch"].feature_ids == ("walk_steps",)
    assert all(s.row_keys() == ds.row_keys() for s in subsets.values())

    spec = ModelSpec(family=ModelFamily.KNN, hyperparameters={"k": 3}, seed=0)
    reports = ablation_run(subsets, spec, k=3, seed=4, schema=TINY_SCHEMA)
    hashes = {r.fold_hash for r in reports.values()}
    assert len(hashes) == 1
    assert reports["ring"].modalities == ("ring",)
    assert reports["all"].modalities == ("ring", "watch", "phone")
    # the planted signal lives in the ring column
    assert reports["ring"].mean_accuracy > reports["watch"].mean_accuracy


def test_ablation_restricts_to_common_rows():
    full = ramp_dataset("p1")
    trimmed = full.restrict_dates(full.row_keys()[2:])
    reports = ablation_run(
        {"full": full, "trimmed": trimmed},
        ModelSpec(family=ModelFamily.KNN, hyperparameters={"k": 1}, seed=0),
        k=3,
        seed=1,
    )
    assert reports["full"].n_rows == reports["trimmed"].n_rows == full.n_rows - 2
    assert reports["full"].fold_hash == reports["trimmed"].fold_hash


def test_ablation_requires_overlap():
    a = ramp_dataset("p1")
    b = ramp_dataset("p1", start=D0 + timedelta(days=400))
    with pytest.raises(InsufficientDataError, match="share no rows"):
        ablation_run({"a": a, "b": b}, ModelSpec(family=ModelFamily.KNN), k=2, seed=0)
