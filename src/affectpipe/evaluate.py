"""Cross-validation, ROC/AUC, and paired modality-ablation runs."""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar, Iterable, Mapping, Sequence

import numpy as np

from .core import FeatureSchema, Modality, dump_json, from_json, read_json, to_json
from .errors import InsufficientDataError, PipelineError, SchemaError
from .labels import Dataset
from .learners import ModelSpec, train

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
        # Each class's members in turn, dealt round-robin over the folds.
        # Sorted as np.unique sorts them, which would import numpy.ma.
        classes = [rng.permutation(np.flatnonzero(labels == cls)) for cls in sorted(set(labels.tolist()))]
        members = np.concatenate(classes)
        return [np.sort(members[i::k]) for i in range(k)]
    return [np.sort(part) for part in np.array_split(rng.permutation(n), k)]


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
    n, positives = y.shape[0], int(y.sum())
    for attempt in (0, 1):
        folds = kfold_indices(
            n, k, np.random.SeedSequence([seed, attempt]), labels=y, stratified=stratified
        )
        # The complement of a fold keeps both classes.
        if all(0 < positives - int(y[f].sum()) < n - f.size for f in folds):
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
    A non-finite score is refused: NaN equals nothing, not even itself.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels).astype(np.int8)
    non_finite = int((~np.isfinite(scores)).sum())
    if non_finite:
        raise PipelineError(f"the learner returned {non_finite} non-finite scores of {scores.size}")
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise InsufficientDataError("ROC needs both classes present")
    order = np.argsort(-scores, kind="stable")
    s, l = scores[order], labels[order]
    # One step at the last score of each run of equal scores.
    last = np.append(s[1:] != s[:-1], True)
    fps, tps = np.cumsum(l == 0)[last], np.cumsum(l == 1)[last]
    points = [(0.0, 0.0)] + [(int(fp) / n_neg, int(tp) / n_pos) for fp, tp in zip(fps, tps)]
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
    if len(set(y.tolist())) < 2:
        raise InsufficientDataError("dataset must contain both classes")
    folds = _partition_with_resample(y, k, seed, stratified)
    n = dataset.n_rows

    oof_scores = np.empty(n, dtype=float)
    fold_accs: list[float] = []
    base_accs: list[float] = []
    chosen: list[dict] = []
    for test_idx in folds:
        train_mask = np.ones(n, dtype=bool)
        train_mask[test_idx] = False
        model = train(spec, dataset.X[train_mask], y[train_mask], grid=grid)
        chosen.append(model.chosen_hyperparameters)
        proba = oof_scores[test_idx] = model.predict_proba(dataset.X[test_idx])
        # Let this fold's model go before the next fold fits.
        del model
        truth = y[test_idx]
        fold_accs.append(float(((proba >= 0.5) == truth).mean()))
        # The training fold's majority class; a tie goes to High.
        base_accs.append(float(((y[train_mask].mean() >= 0.5) == truth).mean()))

    roc_points, auc = roc_auc(oof_scores, y)
    pred, high = oof_scores >= 0.5, y == 1
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
        confusion={
            "tp": int((pred & high).sum()),
            "fp": int((pred & ~high).sum()),
            "tn": int((~pred & ~high).sum()),
            "fn": int((~pred & high).sum()),
        },
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
    stratified: bool = False,
) -> dict[str, EvaluationReport]:
    """Cross-validate each subset's dataset on identical row partitions.

    The datasets must hold the same rows and labels, as the projections
    `paired_subsets` gives do, so the same seed yields the same folds for
    each; SchemaError names the first that does not, before any fit.
    """
    if not datasets:
        raise SchemaError("no datasets given")
    first_name, first = next(iter(datasets.items()))
    for name, ds in datasets.items():
        same_rows = (ds.participant_ids, ds.dates) == (first.participant_ids, first.dates)
        if not (same_rows and np.array_equal(ds.y, first.y)):
            raise SchemaError(f"subset {name!r} holds other rows than {first_name!r}")
    return {
        name: cross_validate(
            ds, spec, k=k, seed=seed, grid=grid, stratified=stratified, modalities=subset_modalities(ds, schema)
        )
        for name, ds in datasets.items()
    }


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
