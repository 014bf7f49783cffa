"""Cross-validation, ROC/AUC, and paired modality-ablation runs."""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar, Iterable, Mapping, Sequence

import numpy as np

from .core import FeatureSchema, Modality, dump_json, from_json, read_json, to_json
from .errors import InsufficientDataError, SchemaError
from .labels import Dataset
from .learners import ModelFamily, ModelSpec, train

# Published reference points for this cohort task; used only in comparison
# printouts, never as targets for the test suite.
REFERENCE_RESULTS = {
    "auc": 0.82,
    "mean_accuracy": 0.81,
    "multimodal_relative_gain": 0.218,
    "best_over_baseline_auc_gain": 0.16,
    "best_over_baseline_accuracy_gain": 0.04,
    "relative_improvement_over_baseline": 0.23,
}


def relative_improvement(ours: float, reference: float) -> float:
    return (ours - reference) / reference


@dataclass(frozen=True)
class EvaluationReport:
    json_document: ClassVar[bool] = True
    target_kind: str
    modalities: tuple[str, ...]
    family: str
    seed: int
    k: int
    n_rows: int
    fold_accuracies: tuple[float, ...]
    mean_accuracy: float
    roc_points: tuple[tuple[float, float], ...]
    auc: float
    confusion: dict
    baseline_accuracy: float
    fold_hash: str
    chosen_hyperparameters: tuple[dict, ...] = field(default_factory=tuple)


def kfold_indices(
    n: int,
    k: int,
    seed_seq: np.random.SeedSequence,
    labels: np.ndarray | None = None,
    stratified: bool = False,
) -> list[np.ndarray]:
    """Partition 0..n-1 into k seeded folds (sizes differ by at most 1)."""
    if not 2 <= k <= n:
        raise InsufficientDataError(f"cannot split {n} rows into {k} folds")
    rng = np.random.Generator(np.random.PCG64(seed_seq))
    if stratified and labels is not None:
        folds: list[list[int]] = [[] for _ in range(k)]
        offset = 0
        for cls in np.unique(labels):
            members = rng.permutation(np.nonzero(labels == cls)[0])
            for i, idx in enumerate(members):
                folds[(offset + i) % k].append(int(idx))
            offset += members.size
        return [np.sort(np.array(f, dtype=int)) for f in folds]
    perm = rng.permutation(n)
    base, extra = divmod(n, k)
    folds_out: list[np.ndarray] = []
    start = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        folds_out.append(np.sort(perm[start : start + size]))
        start += size
    return folds_out


def fold_assignment_hash(folds: Sequence[np.ndarray], n: int) -> str:
    assign = np.empty(n, dtype=np.int64)
    for fold_id, idx in enumerate(folds):
        assign[idx] = fold_id
    return hashlib.sha256(assign.tobytes()).hexdigest()


def _partition_with_resample(
    y: np.ndarray, k: int, seed: int, stratified: bool
) -> list[np.ndarray]:
    """Seeded partition; one resample is allowed when a training complement
    ends up single-class, after which the split is a hard error."""
    n = y.shape[0]
    for attempt in (0, 1):
        folds = kfold_indices(
            n, k, np.random.SeedSequence([seed, attempt]), labels=y, stratified=stratified
        )
        ok = True
        for test_idx in folds:
            train_mask = np.ones(n, dtype=bool)
            train_mask[test_idx] = False
            if np.unique(y[train_mask]).size < 2:
                ok = False
                break
        if ok:
            return folds
    raise InsufficientDataError(
        "a training split lost a class even after one resample"
    )


def roc_auc(
    scores: np.ndarray, labels: np.ndarray
) -> tuple[list[tuple[float, float]], float]:
    """ROC points (FPR, TPR) and trapezoidal AUC over tie-grouped thresholds.

    Equal scores collapse into a single threshold step, which makes the
    trapezoid rule agree with the Mann-Whitney statistic (ties counted 1/2).
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels).astype(np.int8)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise InsufficientDataError("ROC needs both classes present")
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    l = labels[order]
    points: list[tuple[float, float]] = [(0.0, 0.0)]
    tp = fp = 0
    i = 0
    n = s.shape[0]
    while i < n:
        j = i
        while j < n and s[j] == s[i]:
            j += 1
        tp += int((l[i:j] == 1).sum())
        fp += int((l[i:j] == 0).sum())
        points.append((fp / n_neg, tp / n_pos))
        i = j
    auc = 0.0
    for (x0, y0), (x1, y1) in zip(points[:-1], points[1:]):
        auc += 0.5 * (y0 + y1) * (x1 - x0)
    return points, float(auc)


def cross_validate(
    dataset: Dataset,
    spec: ModelSpec,
    k: int = 5,
    seed: int = 0,
    grid: Sequence[dict] | None = None,
    stratified: bool = False,
    modalities: tuple[str, ...] = tuple(m.value for m in Modality),
) -> EvaluationReport:
    """Seeded k-fold CV; pooled out-of-fold scores feed one ROC curve."""
    y = dataset.y
    if np.unique(y).size < 2:
        raise InsufficientDataError("dataset must contain both classes")
    folds = _partition_with_resample(y, k, seed, stratified)
    n = dataset.n_rows

    oof_scores = np.empty(n, dtype=float)
    fold_accs: list[float] = []
    base_accs: list[float] = []
    chosen: list[dict] = []
    tp = fp = tn = fn = 0
    for test_idx in folds:
        train_mask = np.ones(n, dtype=bool)
        train_mask[test_idx] = False
        model = train(spec, dataset.X[train_mask], y[train_mask], grid=grid)
        chosen.append(model.chosen_hyperparameters)
        proba = model.predict_proba(dataset.X[test_idx])
        oof_scores[test_idx] = proba
        pred = (proba >= 0.5).astype(np.int8)
        truth = y[test_idx]
        fold_accs.append(float((pred == truth).mean()))
        tp += int(((pred == 1) & (truth == 1)).sum())
        fp += int(((pred == 1) & (truth == 0)).sum())
        tn += int(((pred == 0) & (truth == 0)).sum())
        fn += int(((pred == 0) & (truth == 1)).sum())

        base = train(
            ModelSpec(family=ModelFamily.MAJORITY, seed=spec.seed),
            dataset.X[train_mask],
            y[train_mask],
        )
        base_pred = base.predict(dataset.X[test_idx])
        base_accs.append(float((base_pred == truth).mean()))

    roc_points, auc = roc_auc(oof_scores, y)
    return EvaluationReport(
        target_kind=dataset.target.kind,
        modalities=modalities,
        family=spec.family.value,
        seed=seed,
        k=k,
        n_rows=n,
        fold_accuracies=tuple(fold_accs),
        mean_accuracy=float(np.mean(fold_accs)),
        roc_points=tuple(roc_points),
        auc=auc,
        confusion={"tp": tp, "fp": fp, "tn": tn, "fn": fn},
        baseline_accuracy=float(np.mean(base_accs)),
        fold_hash=fold_assignment_hash(folds, n),
        chosen_hyperparameters=tuple(chosen),
    )


def paired_subsets(
    dataset: Dataset, schema: FeatureSchema, subsets: Mapping[str, Iterable[Modality]]
) -> dict[str, Dataset]:
    """Project one dataset onto each modality subset.

    Projections share rows by construction, so the same seed yields the same
    fold memberships for every subset.
    """
    if not subsets:
        raise SchemaError("no modality subsets given")
    out: dict[str, Dataset] = {}
    for name, mods in subsets.items():
        mods = tuple(mods)
        if not mods:
            raise SchemaError(f"subset {name!r} is empty")
        out[name] = dataset.project(schema, mods)
    return out


def ablation_run(
    datasets: Mapping[str, Dataset],
    spec: ModelSpec,
    k: int = 5,
    seed: int = 0,
    grid: Sequence[dict] | None = None,
    schema: FeatureSchema | None = None,
) -> dict[str, EvaluationReport]:
    """Cross-validate each subset's dataset on identical row partitions.

    Datasets may come from `paired_subsets` or from independent builds; in
    the latter case rows are first restricted to the common (participant,
    date) keys so fold assignments stay comparable.
    """
    if not datasets:
        raise SchemaError("no datasets given")
    keys = [ds.row_keys() for ds in datasets.values()]
    common = set(keys[0])
    for other in keys[1:]:
        common &= set(other)
    if not common:
        raise InsufficientDataError("modality subsets share no rows")
    reports: dict[str, EvaluationReport] = {}
    hashes = set()
    for name, ds in datasets.items():
        if set(ds.row_keys()) != common:
            ds = ds.restrict_dates(common)
        reports[name] = cross_validate(
            ds, spec, k=k, seed=seed, grid=grid, modalities=subset_modalities(ds, schema)
        )
        hashes.add(reports[name].fold_hash)
    if len(hashes) != 1:
        raise SchemaError("paired ablation produced diverging fold assignments")
    return reports


def subset_modalities(ds: Dataset, schema: FeatureSchema | None) -> tuple[str, ...]:
    """Modality names of the dataset's feature columns, in Modality order."""
    if schema is None:
        return tuple(m.value for m in Modality)
    present = {schema.spec_of(fid).modality for fid in ds.feature_ids if schema.has(fid)}
    return tuple(m.value for m in Modality if m in present)


def macro_average(reports: Sequence[EvaluationReport]) -> float:
    """Unweighted mean of per-participant mean accuracies."""
    if not reports:
        raise InsufficientDataError("no reports to average")
    return float(np.mean([r.mean_accuracy for r in reports]))


# ---------------------------------------------------------------------------
# Serialization

def save_report(path: Path | str, report: EvaluationReport) -> None:
    dump_json(path, to_json(report))


def load_report(path: Path | str) -> EvaluationReport:
    return from_json(EvaluationReport, read_json(path))


def write_roc_csv(path: Path | str, report: EvaluationReport) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["fpr", "tpr"])
        for x, y in report.roc_points:
            writer.writerow([repr(float(x)), repr(float(y))])


def write_accuracy_table_csv(
    path: Path | str, reports: Mapping[str, EvaluationReport]
) -> None:
    """Plot-ready per-model/per-subset accuracy table."""
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["name", "family", "modalities", "mean_accuracy", "baseline_accuracy", "auc"]
        )
        for name in sorted(reports):
            r = reports[name]
            writer.writerow(
                [
                    name,
                    r.family,
                    "+".join(r.modalities),
                    repr(r.mean_accuracy),
                    repr(r.baseline_accuracy),
                    repr(r.auc),
                ]
            )
