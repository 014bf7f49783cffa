"""Acceptance gate: ten end-to-end checks with pinned tolerances and budgets.

Each test prints one ``ACCEPTANCE <n> <name>: PASS`` line with its measured
runtime; a failed assertion in any body is the corresponding FAIL.
"""

from __future__ import annotations

import json
import time
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

from affectpipe.analysis import monthly_scores, pooled_monthly_tvalues, welch_t
from affectpipe.core import (
    Modality,
    Provenance,
    default_schema,
    filter_eligible_participants,
    valid_affect_day_count,
)
from affectpipe.evaluate import ablation_run, cross_validate, paired_subsets, roc_auc
from affectpipe.impute import impute_all
from affectpipe.impute import fill_residual_with_participant_mean
from affectpipe.labels import (
    Dataset,
    TargetSpec,
    build_dataset,
    build_labels,
    build_labels_cohort,
    concat_datasets,
    median_split_labels,
)
from affectpipe.learners import ModelFamily, ModelSpec, train
from affectpipe.learners.mlp import init_params, loss_and_grads
from affectpipe.learners.standardize import fit_standardizer
from affectpipe.pipeline import run_pipeline
from affectpipe.synth import (
    CohortConfig,
    MissingnessSpec,
    PlantedShift,
    bayes_accuracy,
    generate,
)

from conftest import D0, series_timeline, timeline_document

RF_DEFAULTS = {"n_trees": 100, "max_depth": None, "max_features": "sqrt"}
NO_MISSING = MissingnessSpec(
    day_prob={"ring": 0.0, "watch": 0.0, "phone": 0.0}, block_prob=0.0
)


def toy_dataset(X, y):
    n = len(y)
    return Dataset(
        feature_ids=tuple(f"f{j}" for j in range(X.shape[1])),
        X=np.asarray(X, dtype=float),
        y=np.asarray(y, dtype=np.int8),
        dates=tuple(D0 + timedelta(days=i) for i in range(n)),
        participant_ids=("p",) * n,
        target=TargetSpec(kind="pa"),
    )


@pytest.fixture(scope="module")
def default_cohort():
    """Default synthetic cohort taken through imputation, eligibility,
    per-participant labeling, and dataset assembly."""
    schema = default_schema()
    timelines, truth = generate(CohortConfig())
    timelines = [fill_residual_with_participant_mean(impute_all(t)) for t in timelines]
    eligible = filter_eligible_participants(timelines, 200)
    labels = build_labels_cohort(eligible, TargetSpec(kind="pa"))
    datasets = [
        build_dataset(t, l, schema) for t, l in zip(eligible, labels)
    ]
    return schema, truth, eligible, datasets


# ---------------------------------------------------------------------------


def test_acceptance_1_imputation_window_fixtures():
    t0 = time.perf_counter()

    def impute_series(series):
        tl = series_timeline(
            "p01", series, affect_by_index={i: (50.0, 20.0) for i in range(len(series))}
        )
        affect_before = json.dumps(
            [d["affect"] for d in timeline_document(tl)["days"]], sort_keys=True
        )
        out = impute_all(tl)
        affect_after = json.dumps(
            [d["affect"] for d in timeline_document(out)["days"]], sort_keys=True
        )
        assert affect_after == affect_before  # byte-identical affect
        return out

    out = impute_series([None, 10.0, None, 20.0, None])
    assert out.days[2].features.values["sleep_deep"] == 15.0
    assert out.days[2].features.provenance["sleep_deep"] is Provenance.IMPUTED

    out = impute_series([10.0, 20.0, None, 30.0, 40.0])
    assert out.days[2].features.values["sleep_deep"] == 25.0

    out = impute_series([8.0, None, None])
    assert out.days[2].features.values["sleep_deep"] == 8.0

    out = impute_series([None, None, None, None, None])
    assert out.days[2].features.values["sleep_deep"] is None
    assert out.days[2].features.provenance["sleep_deep"] is Provenance.MISSING

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1 imputation window fixtures: PASS ({elapsed:.2f}s < 1s)")


def test_acceptance_2_auc_equals_pairwise_concordance():
    t0 = time.perf_counter()

    def concordance(scores, labels):
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        wins = (pos[:, None] > neg[None, :]).sum()
        ties = (pos[:, None] == neg[None, :]).sum()
        return (wins + 0.5 * ties) / (len(pos) * len(neg))

    checked = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        for _ in range(20):
            n = int(rng.integers(2, 51))
            labels = rng.integers(0, 2, n)
            while labels.min() == labels.max():
                labels = rng.integers(0, 2, n)
            if rng.random() < 0.5:
                scores = rng.integers(0, 8, n) / 8.0  # heavy ties
            else:
                scores = rng.standard_normal(n)
            _, auc = roc_auc(scores, labels)
            assert abs(auc - concordance(scores, labels)) < 1e-9
            checked += 1
    assert checked == 200

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(
        f"ACCEPTANCE 2 auc equals pairwise concordance on 200 sets: "
        f"PASS ({elapsed:.2f}s < 5s)"
    )


def test_acceptance_3_median_split_balance_and_monotone_invariance():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    n = 300
    dates = [D0 + timedelta(days=i) for i in range(n)]
    for _ in range(500):
        values = rng.standard_normal(n)
        while np.unique(values).size != n:
            values = rng.standard_normal(n)
        by_date = dict(zip(dates, values))
        labeled, excluded = median_split_labels(by_date, middle_band=0.20)
        assert abs(len(excluded) - 60) <= 1  # 20% of 300, +/- 1 day
        counts = {}
        for lab in labeled.values():
            counts[lab] = counts.get(lab, 0) + 1
        assert abs(counts.get(max(counts), 0) - counts.get(min(counts), 0)) <= 1
        for transform in (np.exp, lambda v: v**3, lambda v: 7.0 * v + 3.0):
            tv = transform(values)
            assert np.unique(tv).size == n
            t_labeled, t_excluded = median_split_labels(
                dict(zip(dates, tv)), middle_band=0.20
            )
            assert t_labeled == labeled
            assert t_excluded == excluded

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(
        f"ACCEPTANCE 3 median-split balance and monotone invariance on 500 "
        f"vectors: PASS ({elapsed:.2f}s < 10s)"
    )


def test_acceptance_4_permutation_null_stays_chance_level():
    t0 = time.perf_counter()
    hypers = {
        ModelFamily.RF: RF_DEFAULTS,
        ModelFamily.KNN: {"k": 5},
        ModelFamily.MLP: {"n_hidden": 16, "learning_rate": 0.01, "epochs": 200},
        ModelFamily.SVM: {"C": 1.0, "epochs": 200},
    }
    rng = np.random.default_rng(2024)
    X = rng.standard_normal((500, 10))
    base_y = np.array([0, 1] * 250)
    for family, hyp in hypers.items():
        for seed in range(10):
            y = np.random.default_rng(seed).permutation(base_y)
            report = cross_validate(
                toy_dataset(X, y),
                ModelSpec(family=family, hyperparameters=hyp, seed=seed),
                k=5,
                seed=seed,
            )
            assert 0.40 <= report.mean_accuracy <= 0.60, (family, seed)
            assert 0.40 <= report.auc <= 0.60, (family, seed)

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(
        f"ACCEPTANCE 4 permutation null stays chance-level for "
        f"RF/KNN/MLP/SVM x 10 seeds: PASS ({elapsed:.1f}s < 120s)"
    )


def test_acceptance_5_planted_signal_recovered_on_default_cohort(default_cohort):
    t0 = time.perf_counter()
    schema, truth, eligible, datasets = default_cohort
    assert truth["bayes_accuracy_pa"] == pytest.approx(0.85, abs=0.01)
    assert [t.participant_id for t in eligible] == truth["eligible_ids"]
    assert len(eligible) == 7
    assert all(valid_affect_day_count(t) > 200 for t in eligible)

    spec = ModelSpec(family=ModelFamily.RF, hyperparameters=RF_DEFAULTS, seed=0)
    reports = [cross_validate(ds, spec, k=5, seed=0) for ds in datasets]
    macro = float(np.mean([r.mean_accuracy for r in reports]))
    macro_baseline = float(np.mean([r.baseline_accuracy for r in reports]))
    assert macro >= 0.70
    assert macro - macro_baseline >= 0.10

    elapsed = time.perf_counter() - t0
    assert elapsed < 180.0
    print(
        f"ACCEPTANCE 5 planted signal recovered (macro {macro:.3f} vs baseline "
        f"{macro_baseline:.3f}, bayes {truth['bayes_accuracy_pa']:.3f}): "
        f"PASS ({elapsed:.1f}s < 180s)"
    )


def test_acceptance_6_modality_ablation_ordering(default_cohort):
    t0 = time.perf_counter()
    schema, truth, eligible, datasets = default_cohort
    shares = truth["variance_shares_pa"]
    assert shares["ring"] == pytest.approx(0.60, abs=0.01)
    assert shares["watch"] == pytest.approx(0.30, abs=0.02)
    assert shares["phone"] == pytest.approx(0.10, abs=0.01)

    pooled = concat_datasets(datasets)
    subsets = paired_subsets(
        pooled,
        schema,
        {
            "ring": (Modality.RING,),
            "watch": (Modality.WATCH,),
            "phone": (Modality.PHONE,),
            "all": (Modality.RING, Modality.WATCH, Modality.PHONE),
        },
    )
    spec = ModelSpec(family=ModelFamily.RF, hyperparameters=RF_DEFAULTS, seed=0)
    reports = ablation_run(subsets, spec, k=5, seed=0, schema=schema)
    acc = {name: r.mean_accuracy for name, r in reports.items()}
    for single in ("ring", "watch", "phone"):
        assert acc["all"] >= acc[single] - 0.01, acc
    assert acc["all"] - acc["phone"] >= 0.05, acc

    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(
        f"ACCEPTANCE 6 modality ablation ordering (all {acc['all']:.3f}, ring "
        f"{acc['ring']:.3f}, watch {acc['watch']:.3f}, phone {acc['phone']:.3f}): "
        f"PASS ({elapsed:.1f}s < 300s)"
    )


def test_acceptance_7_welch_fixture_and_shift_localization():
    t0 = time.perf_counter()
    assert abs(abs(welch_t([1, 2, 3], [4, 5, 6])) - 3.674) < 1e-3

    schema = default_schema()
    spec = ModelSpec(family=ModelFamily.RF, hyperparameters=RF_DEFAULTS, seed=0)
    hits = 0
    for seed in range(10):
        cfg = CohortConfig(
            n_participants=5,
            n_days=150,
            n_eligible=5,
            report_prob_eligible=1.0,
            missingness=NO_MISSING,
            shift=PlantedShift(month_index=3, offset=1.0),
            seed=seed,
        )
        timelines, _ = generate(cfg)
        all_scores = []
        for tl in timelines:
            labels = build_labels(tl, TargetSpec(kind="pa"))
            ds = build_dataset(tl, labels, schema)
            model = train(spec, ds.X, ds.y, feature_ids=ds.feature_ids)
            all_scores.append(monthly_scores(model, tl))
        tvalues, _ = pooled_monthly_tvalues(all_scores)
        hits += max(tvalues, key=tvalues.get) == "2020-03"
    assert hits >= 9

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(
        f"ACCEPTANCE 7 welch fixture exact and planted shift argmax at month 3 "
        f"for {hits}/10 seeds: PASS ({elapsed:.1f}s < 120s)"
    )


def test_acceptance_8_standardizer_train_statistics_contract():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    X_train = rng.normal(5.0, 3.0, (40, 6)) * np.arange(1, 7)
    scaler = fit_standardizer(X_train)
    Z = scaler.apply(X_train)
    assert np.abs(Z.mean(axis=0)).max() < 1e-9
    assert np.abs(Z.std(axis=0) - 1.0).max() < 1e-9

    X_test = X_train + 10.0  # shifted test rows must keep train statistics
    Z_test = scaler.apply(X_test)
    assert np.abs(Z_test.mean(axis=0)).min() > 0.5
    refit = fit_standardizer(X_test)
    assert not np.allclose(refit.mean, scaler.mean)
    np.testing.assert_allclose(refit.std, scaler.std)  # shift leaves spread

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(
        f"ACCEPTANCE 8 standardizer train-statistics contract: "
        f"PASS ({elapsed:.2f}s < 1s)"
    )


def test_acceptance_9_mlp_gradients_match_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    X = rng.standard_normal((8, 5))
    y = rng.integers(0, 2, 8).astype(float)
    params = init_params(5, 3, rng)  # 5 inputs -> 3 hidden -> 1 output
    _, grads = loss_and_grads(params, X, y)

    h = 1e-6
    worst = 0.0
    for key, g_ana in grads.items():
        g_num = np.zeros_like(g_ana)
        flat = params[key].ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up, _ = loss_and_grads(params, X, y)
            flat[i] = orig - h
            down, _ = loss_and_grads(params, X, y)
            flat[i] = orig
            g_num.ravel()[i] = (up - down) / (2 * h)
        denom = max(np.linalg.norm(g_num), np.linalg.norm(g_ana), 1e-12)
        worst = max(worst, np.linalg.norm(g_num - g_ana) / denom)
    assert worst < 1e-5

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(
        f"ACCEPTANCE 9 mlp analytic gradients match central differences "
        f"(worst rel err {worst:.2e}): PASS ({elapsed:.2f}s < 5s)"
    )


def test_acceptance_10_end_to_end_rerun_determinism(tmp_path):
    t0 = time.perf_counter()
    config = Path(__file__).resolve().parent.parent / "configs" / "default_run.json"
    m1 = run_pipeline(config, out_dir_override=tmp_path / "a")
    m2 = run_pipeline(config, out_dir_override=tmp_path / "b")
    assert m1.run_id == m2.run_id
    assert m1.outputs == m2.outputs
    for rel in m1.outputs:
        assert (tmp_path / "a" / rel).read_bytes() == (
            tmp_path / "b" / rel
        ).read_bytes(), rel

    elapsed = time.perf_counter() - t0
    assert elapsed < 360.0  # twice the criterion-5 budget
    print(
        f"ACCEPTANCE 10 rerun determinism across {len(m1.outputs)} artifacts: "
        f"PASS ({elapsed:.1f}s < 360s)"
    )
