#!/usr/bin/env python3
"""Modality ablation on a synthetic cohort with known variance shares.

Pools every eligible participant into one dataset, then cross-validates the
same model on row-identical ring / watch / phone / all-modality subsets so
accuracy differences are attributable to the feature columns alone.

    python scripts/ablation_study.py [--seed 1234] [--folds 5] [--model rf]
"""

from __future__ import annotations

import argparse

from affectpipe.core import Modality, default_schema, filter_eligible_participants
from affectpipe.evaluate import ablation_run, paired_subsets
from affectpipe.impute import fill_residual_with_participant_mean, impute_all
from affectpipe.labels import TargetSpec, build_dataset, build_labels_cohort, concat_datasets
from affectpipe.learners import MODEL_NAMES, ModelSpec
from affectpipe.synth import CohortConfig, generate, variance_shares

SUBSETS = {
    "ring": (Modality.RING,),
    "watch": (Modality.WATCH,),
    "phone": (Modality.PHONE,),
    "ring+watch": (Modality.RING, Modality.WATCH),
    "all": (Modality.RING, Modality.WATCH, Modality.PHONE),
}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=1234)
    ap.add_argument("--folds", type=int, default=5)
    ap.add_argument("--model", choices=sorted(MODEL_NAMES), default="rf")
    ap.add_argument("--min-days", type=int, default=200)
    args = ap.parse_args()

    schema = default_schema()
    config = CohortConfig(seed=args.seed)
    shares = variance_shares(config.signal.pa_weights, schema)
    print(
        "planted variance shares: "
        + ", ".join(f"{m} {shares[m]:.1%}" for m in ("ring", "watch", "phone"))
    )

    timelines, _ = generate(config)
    timelines = [fill_residual_with_participant_mean(impute_all(t)) for t in timelines]
    eligible = filter_eligible_participants(timelines, args.min_days)
    labels = build_labels_cohort(eligible, TargetSpec(kind="pa"))
    pooled = concat_datasets(
        [build_dataset(t, l, schema) for t, l in zip(eligible, labels)]
    )
    print(f"{len(eligible)} eligible participants, {pooled.n_rows} pooled rows\n")

    spec = ModelSpec(family=MODEL_NAMES[args.model], seed=args.seed)
    subsets = paired_subsets(pooled, schema, SUBSETS)
    reports = ablation_run(subsets, spec, k=args.folds, seed=args.seed, schema=schema)

    acc_all = reports["all"].mean_accuracy
    print(f"{'subset':<12}{'features':>9}{'accuracy':>10}{'auc':>8}{'vs all':>9}")
    for name in SUBSETS:
        r = reports[name]
        n_features = len(subsets[name].feature_ids)
        print(
            f"{name:<12}{n_features:>9}{r.mean_accuracy:>10.3f}{r.auc:>8.3f}"
            f"{acc_all - r.mean_accuracy:>+9.3f}"
        )
    best_single = max(("ring", "watch", "phone"), key=lambda m: reports[m].mean_accuracy)
    gain = acc_all / reports[best_single].mean_accuracy - 1.0
    print(
        f"\nall modalities vs best single ({best_single}): "
        f"{acc_all - reports[best_single].mean_accuracy:+.3f} absolute, {gain:+.1%} relative"
    )


if __name__ == "__main__":
    main()
