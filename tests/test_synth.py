"""Seeded cohort generator: validation, determinism, moments, ground truth."""

from __future__ import annotations

import filecmp
import math
from datetime import date, timedelta

import numpy as np
import pytest

from affectpipe.core import (
    NEGATIVE_ITEMS,
    POSITIVE_ITEMS,
    Modality,
    canonical_json,
    default_schema,
    read_json,
    timeline_from_dict,
    timeline_to_dict,
    to_json,
)
from affectpipe.errors import ConfigError
from affectpipe.evaluate import cross_validate
from affectpipe.ingest import build_timeline, parse_affect_file, parse_modality_file
from affectpipe.labels import TargetSpec, build_dataset, build_labels
from affectpipe.learners import ModelFamily, ModelSpec
from affectpipe.pipeline import ingest_participant
from affectpipe.synth import (
    DEFAULT_NA_WEIGHTS,
    DEFAULT_PA_WEIGHTS,
    CohortConfig,
    MissingnessSpec,
    PlantedShift,
    SignalSpec,
    bayes_accuracy,
    cohort_config_from_dict,
    expected_missing_rate,
    generate,
    ground_truth,
    load_cohort_config,
    save_cohort_config,
    signal_sigma,
    variance_shares,
    write_cohort,
)

from conftest import side_mean, timeline_document

NO_MISSING = MissingnessSpec(
    day_prob={"ring": 0.0, "watch": 0.0, "phone": 0.0}, block_prob=0.0
)


def small_config(**overrides):
    kw = dict(
        n_participants=2,
        n_days=40,
        n_eligible=1,
        shift=None,
        seed=99,
    )
    kw.update(overrides)
    return CohortConfig(**kw)


# ---------------------------------------------------------------------------
# validation


def test_signal_spec_rejects_bad_noise_and_spread():
    with pytest.raises(ConfigError):
        SignalSpec(noise_std_pa=0.0)
    with pytest.raises(ConfigError):
        SignalSpec(noise_std_na=-0.1)
    with pytest.raises(ConfigError):
        SignalSpec(pa_weights={})
    with pytest.raises(ConfigError):
        SignalSpec(pa_sd=0.0)


def test_missingness_spec_rejects_bad_probs():
    with pytest.raises(ConfigError):
        MissingnessSpec(day_prob={"ring": 1.5})
    with pytest.raises(ConfigError):
        MissingnessSpec(day_prob={"wearable": 0.1})
    with pytest.raises(ConfigError):
        MissingnessSpec(block_prob=-0.01)
    with pytest.raises(ConfigError):
        MissingnessSpec(block_len=(3, 2))
    with pytest.raises(ConfigError):
        MissingnessSpec(block_len=(0, 4))


def test_cohort_config_rejects_bad_shapes():
    with pytest.raises(ConfigError):
        small_config(n_days=10)
    with pytest.raises(ConfigError):
        small_config(n_eligible=3)  # exceeds n_participants=2
    with pytest.raises(ConfigError):
        small_config(report_prob_eligible=1.5)
    with pytest.raises(ConfigError):
        small_config(signal=SignalSpec(pa_weights={"no_such_feature": 1.0}))


def test_shift_beyond_span_fails_fast():
    with pytest.raises(ConfigError, match="shift"):
        small_config(shift=PlantedShift(month_index=5))
    with pytest.raises(ConfigError):
        PlantedShift(month_index=0)
    # 40 days from jan 1 span two months, so index 2 is fine
    cfg = small_config(shift=PlantedShift(month_index=2, offset=0.5))
    assert cfg.shift_month() == "2020-02"


# ---------------------------------------------------------------------------
# config round trip


def test_cohort_config_round_trip(tmp_path):
    cfg = small_config(shift=PlantedShift(month_index=2, offset=0.25))
    payload = to_json(cfg)
    assert to_json(cohort_config_from_dict(payload)) == payload
    path = tmp_path / "cohort.json"
    save_cohort_config(path, cfg)
    assert to_json(load_cohort_config(path)) == payload


def test_cohort_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        cohort_config_from_dict({"signal": {"bogus": 1.0}})


def test_default_na_weights_mirror_pa():
    for fid, w in DEFAULT_PA_WEIGHTS.items():
        assert DEFAULT_NA_WEIGHTS[fid] == pytest.approx(-0.6 * w)


# ---------------------------------------------------------------------------
# determinism


def test_same_seed_same_cohort(tmp_path):
    cfg = small_config()
    a, b = tmp_path / "a", tmp_path / "b"
    write_cohort(cfg, a)
    write_cohort(cfg, b)
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    assert mismatch == [] and errors == []


def test_different_seed_different_cohort(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    write_cohort(small_config(seed=99), a)
    write_cohort(small_config(seed=100), b)
    names = sorted(p.name for p in a.iterdir() if p.name != "ground_truth.json")
    _, mismatch, _ = filecmp.cmpfiles(a, b, names, shallow=False)
    assert mismatch  # at least one data file differs


def test_generate_is_repeatable_in_memory():
    cfg = small_config()
    tl_a, truth_a = generate(cfg)
    tl_b, truth_b = generate(cfg)
    assert [canonical_json(timeline_to_dict(t)) for t in tl_a] == [canonical_json(timeline_to_dict(t)) for t in tl_b]
    assert truth_a == truth_b


# ---------------------------------------------------------------------------
# ground truth document


def test_ground_truth_contents():
    cfg = CohortConfig()  # defaults: 20 participants, 300 days, 7 eligible
    doc = ground_truth(cfg)
    assert doc["eligible_ids"] == [f"p{i:02d}" for i in range(1, 8)]
    assert doc["shift"]["month"] == "2020-03"
    assert 0.5 < doc["bayes_accuracy_pa"] < 1.0
    assert doc["pa_weights"] == DEFAULT_PA_WEIGHTS
    shares = doc["variance_shares_pa"]
    assert shares["ring"] == pytest.approx(0.8175 / 1.3725)
    assert shares["watch"] == pytest.approx(0.425 / 1.3725)
    assert shares["phone"] == pytest.approx(0.13 / 1.3725)


def test_eligibility_designation_and_report_counts():
    cfg = small_config(
        n_participants=4, n_eligible=2, n_days=90, missingness=NO_MISSING
    )
    _, truth = generate(cfg)
    rows = truth["participants"]
    assert [r["participant_id"] for r in rows] == ["p01", "p02", "p03", "p04"]
    assert [r["eligible"] for r in rows] == [True, True, False, False]
    assert all(r["report_prob"] == 0.82 for r in rows[:2])
    assert all(r["report_prob"] == 0.38 for r in rows[2:])
    # 0.82 vs 0.38 over 89 report days separates the groups decisively
    assert min(r["n_reports"] for r in rows[:2]) > max(r["n_reports"] for r in rows[2:])
    assert all(0 <= r["n_reports"] <= cfg.n_days - 1 for r in rows)


# ---------------------------------------------------------------------------
# closed-form quantities


def test_signal_sigma_and_bayes_closed_form():
    assert signal_sigma({"a": 3.0, "b": 4.0}) == pytest.approx(5.0)
    # sigma_s 3, noise 4: rho = 3/5
    expected = 0.5 + math.asin(0.6) / math.pi
    assert bayes_accuracy({"f": 3.0}, 4.0) == pytest.approx(expected, abs=1e-12)


def test_bayes_accuracy_defaults_and_limits():
    assert bayes_accuracy(DEFAULT_PA_WEIGHTS, 0.60) == pytest.approx(0.8493, abs=5e-4)
    assert bayes_accuracy(DEFAULT_PA_WEIGHTS, 1e-12) == pytest.approx(1.0, abs=1e-6)
    # more noise, less headroom
    assert bayes_accuracy(DEFAULT_PA_WEIGHTS, 1.0) < bayes_accuracy(
        DEFAULT_PA_WEIGHTS, 0.5
    )


def test_variance_shares_sum_to_one():
    shares = variance_shares(DEFAULT_PA_WEIGHTS, default_schema())
    assert sum(shares.values()) == pytest.approx(1.0)
    assert shares["ring"] == pytest.approx(0.5956284153005464)
    assert shares["watch"] == pytest.approx(0.3096539162112933)
    assert shares["phone"] == pytest.approx(0.0947176684881639)
    concentrated = variance_shares({"sleep_deep": 1.0}, default_schema())
    assert concentrated == {"ring": 1.0, "watch": 0.0, "phone": 0.0}


def test_expected_missing_rate_formula():
    spec = MissingnessSpec()  # defaults: 0.08/0.18/0.35, block 0.01 x (2,5)
    coverage = 3.5 / (3.5 + 99.0)
    assert expected_missing_rate(spec, Modality.RING) == pytest.approx(
        coverage + (1 - coverage) * 0.08
    )
    assert expected_missing_rate(spec, Modality.PHONE) == pytest.approx(
        coverage + (1 - coverage) * 0.35
    )
    assert expected_missing_rate(NO_MISSING, Modality.WATCH) == 0.0


# ---------------------------------------------------------------------------
# sampled moments


def test_composite_moments_match_config():
    cfg = CohortConfig(
        n_participants=1,
        n_days=3000,
        n_eligible=1,
        report_prob_eligible=1.0,
        missingness=NO_MISSING,
        shift=None,
        seed=202,
    )
    timelines, _ = generate(cfg)
    affect = timelines[0].affect
    pa, na = affect.pa[affect.reported].tolist(), affect.na[affect.reported].tolist()
    assert len(pa) == cfg.n_days - 1
    assert np.mean(pa) == pytest.approx(45.27, abs=1.0)
    assert np.std(pa) == pytest.approx(20.22, abs=1.5)
    assert np.mean(na) == pytest.approx(21.79, abs=1.0)
    assert np.std(na) == pytest.approx(12.28, abs=1.5)
    assert all(0.0 <= v <= 100.0 for v in pa + na)


def test_boolean_features_stay_fractional():
    cfg = small_config(missingness=NO_MISSING)
    timelines, _ = generate(cfg)
    phone_ids = default_schema().features_for([Modality.PHONE])
    for tl in timelines:
        for day in tl.days:
            for fid in phone_ids:
                v = day.features.values[fid]
                assert v is not None and 0.0 <= v <= 1.0


def test_missingness_rates_match_analytic_prediction():
    cfg = CohortConfig(
        n_participants=1,
        n_days=2000,
        n_eligible=1,
        shift=None,
        seed=77,
    )
    timelines, _ = generate(cfg)
    tl = timelines[0]
    for modality in Modality:
        j = tl.feature_ids.index(default_schema().features_for([modality])[0])
        measured = {day for day, value in zip(tl.dates, tl.values[:, j]) if not np.isnan(value)}
        missing = sum(1 for d in cfg.dates() if d not in measured)
        rate = missing / cfg.n_days
        assert rate == pytest.approx(
            expected_missing_rate(cfg.missingness, modality), abs=0.03
        )


# ---------------------------------------------------------------------------
# csv round trip


def test_write_cohort_round_trips_through_ingestion(tmp_path):
    cfg = small_config()
    truth = write_cohort(cfg, tmp_path)
    assert read_json(tmp_path / "ground_truth.json") == truth
    expected, _ = generate(cfg)
    for i, pid in enumerate(cfg.participant_ids()):
        files = [
            parse_modality_file(
                tmp_path / f"{pid}_{m.value}.csv", default_schema(), m, pid
            )
            for m in Modality
        ]
        reports = parse_affect_file(tmp_path / f"{pid}_affect.csv")
        rebuilt = build_timeline(files, pid, reports.values(), default_schema())
        assert canonical_json(timeline_to_dict(rebuilt)) == canonical_json(timeline_to_dict(expected[i]))


def test_one_survey_gets_the_same_composites_on_every_path(tmp_path):
    """A generated survey's composites are the same in memory (generate),
    through its affect CSV and through its timeline document, and are its
    sides' ratings added in item order over 10."""
    cfg = small_config()
    write_cohort(cfg, tmp_path)
    generated, _ = generate(cfg)
    complete = 0
    for pid, timeline in zip(cfg.participant_ids(), generated):
        affect = timeline.affect
        from_csv = ingest_participant(pid, {}, tmp_path / f"{pid}_affect.csv", default_schema()).affect
        from_document = timeline_from_dict(timeline_document(timeline)).affect
        reports = sorted(parse_affect_file(tmp_path / f"{pid}_affect.csv").values(), key=lambda r: r.day)
        for name, side in (("pa", POSITIVE_ITEMS), ("na", NEGATIVE_ITEMS)):
            expected = np.array([side_mean(r.items, side) for r in reports], dtype=float)
            np.testing.assert_array_equal(getattr(affect, name)[affect.reported], expected)
            np.testing.assert_array_equal(getattr(from_csv, name), expected)
            np.testing.assert_array_equal(getattr(from_document, name), getattr(affect, name))
        complete += int(affect.complete.sum())
    assert complete > 10


# ---------------------------------------------------------------------------
# planted separability: known weights and vanishing noise are learnable


def test_noise_free_single_feature_cohort_is_learnable():
    cfg = CohortConfig(
        n_participants=1,
        n_days=250,
        n_eligible=1,
        report_prob_eligible=1.0,
        signal=SignalSpec(
            pa_weights={"sleep_deep": 1.0},
            na_weights={"sleep_deep": -0.6},
            noise_std_pa=1e-9,
            noise_std_na=1e-9,
            item_noise_sd=0.0,
        ),
        missingness=NO_MISSING,
        shift=None,
        seed=11,
    )
    timelines, _ = generate(cfg)
    tl = timelines[0]
    labels = build_labels(tl, TargetSpec(kind="pa"))
    ds = build_dataset(tl, labels, default_schema())
    spec = ModelSpec(
        family=ModelFamily.RF,
        hyperparameters={"n_trees": 30, "max_depth": None, "max_features": "sqrt"},
        seed=0,
    )
    report = cross_validate(ds, spec, k=5, seed=0)
    assert report.mean_accuracy >= 0.95


# ---------------------------------------------------------------------------
# planted monthly shift


def test_planted_shift_is_localized():
    base_kw = dict(
        n_participants=1,
        n_days=70,
        n_eligible=1,
        report_prob_eligible=1.0,
        signal=SignalSpec(
            pa_weights={"sleep_deep": 1.0},
            na_weights={"sleep_deep": -0.6},
            item_noise_sd=0.0,
        ),
        missingness=NO_MISSING,
        seed=5,
    )
    plain, _ = generate(CohortConfig(shift=None, **base_kw))
    shifted, _ = generate(
        CohortConfig(shift=PlantedShift(month_index=2, offset=2.0), **base_kw)
    )
    tl_a, tl_b = plain[0], shifted[0]
    assert [d.day for d in tl_a.days] == [d.day for d in tl_b.days]
    window = [d.day for d in tl_a.days if (d.day.year, d.day.month) == (2020, 2)]
    affect_lo, affect_hi = window[0] + timedelta(days=1), window[-1] + timedelta(days=1)
    changed_pa = 0
    a, b = tl_a.affect, tl_b.affect
    for i, (da, db) in enumerate(zip(tl_a.days, tl_b.days)):
        in_window = (da.day.year, da.day.month) == (2020, 2)
        # sleep_deep carries the bump: observed scale is 180 + 45 z, so a
        # +2 latent offset moves the daily value by exactly 90 minutes
        va, vb = da.features.values["sleep_deep"], db.features.values["sleep_deep"]
        if in_window:
            assert vb - va == pytest.approx(90.0, abs=1e-9)
        else:
            assert va == vb
        for fid in ("heart_rate_variability", "walk_steps", "main_activity"):
            assert da.features.values[fid] == db.features.values[fid]
        if not a.reported[i]:
            assert not b.reported[i]
            continue
        if affect_lo <= da.day <= affect_hi:
            assert b.pa[i] >= a.pa[i]
            assert b.na[i] <= a.na[i]
            changed_pa += b.pa[i] > a.pa[i]
        else:
            assert b.pa[i] == a.pa[i]
            assert b.na[i] == a.na[i]
    assert changed_pa >= 20  # nearly every february label moved
