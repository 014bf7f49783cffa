"""Classifier families behind one train/predict interface.

Every stochastic choice (tuning split, bootstrap, feature subsets, weight
init) flows from the ModelSpec seed through numpy SeedSequence derivation, so
an identical (spec, data) pair reproduces bit-identical models everywhere.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import ClassVar, Mapping, Sequence

import numpy as np

from ..core import dump_json, from_json, read_json, to_json
from ..errors import ConfigError, InputFormatError, InsufficientDataError, SchemaError
from .forest import RandomForestModel
from .knn import KNNModel, MajorityBaselineModel
from .mlp import MLPModel
from .standardize import Standardizer, fit_standardizer
from .svm import LinearSVMModel

# SeedSequence salts: keep tuning-split randomness separate from fit
# randomness so adding/removing tuning never perturbs the final fit stream.
_SALT_SPLIT = 101
_SALT_FIT = 202


class ModelFamily(str, Enum):
    RF = "RF"
    SVM = "SVM"
    MLP = "MLP"
    KNN = "KNN"
    MAJORITY = "MajorityBaseline"


# The model names a run config and the CLI accept, one per family.
MODEL_NAMES: dict[str, ModelFamily] = {
    "rf": ModelFamily.RF,
    "svm": ModelFamily.SVM,
    "mlp": ModelFamily.MLP,
    "knn": ModelFamily.KNN,
    "baseline": ModelFamily.MAJORITY,
}

_ALLOWED_HYPERS: dict[ModelFamily, frozenset[str]] = {
    ModelFamily.RF: frozenset({"n_trees", "max_depth", "max_features"}),
    ModelFamily.SVM: frozenset({"C", "epochs"}),
    ModelFamily.MLP: frozenset({"n_hidden", "learning_rate", "epochs"}),
    ModelFamily.KNN: frozenset({"k"}),
    ModelFamily.MAJORITY: frozenset(),
}

DEFAULTS: dict[ModelFamily, dict] = {
    ModelFamily.RF: {"n_trees": 100, "max_depth": None, "max_features": "sqrt"},
    ModelFamily.SVM: {"C": 1.0, "epochs": 200},
    ModelFamily.MLP: {"n_hidden": 16, "learning_rate": 0.01, "epochs": 200},
    ModelFamily.KNN: {"k": 5},
    ModelFamily.MAJORITY: {},
}


def default_grid(family: ModelFamily) -> list[dict]:
    """Small seeded grids searched on the 10% held-out validation split."""
    if family is ModelFamily.RF:
        return [
            {"n_trees": t, "max_depth": d, "max_features": f}
            for t in (100, 300)
            for d in (None, 8)
            for f in ("sqrt", "all")
        ]
    if family is ModelFamily.KNN:
        return [{"k": k} for k in (3, 5, 11, 21)]
    if family is ModelFamily.MLP:
        return [
            {"n_hidden": h, "learning_rate": lr, "epochs": 200}
            for h in (16, 64)
            for lr in (0.01, 0.001)
        ]
    if family is ModelFamily.SVM:
        return [{"C": c, "epochs": 200} for c in (0.1, 1.0, 10.0)]
    return [{}]


@dataclass(frozen=True)
class ModelSpec:
    family: ModelFamily
    hyperparameters: Mapping[str, object] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        family = self.family
        if not isinstance(family, ModelFamily):
            raise SchemaError(f"unknown model family {family!r}")
        unknown = set(self.hyperparameters) - _ALLOWED_HYPERS[family]
        if unknown:
            raise SchemaError(
                f"invalid hyperparameters for {family.value}: {sorted(unknown)}"
            )

    def resolved(self) -> dict:
        merged = dict(DEFAULTS[self.family])
        merged.update(self.hyperparameters)
        return merged


_LEARNERS = {
    ModelFamily.RF: RandomForestModel,
    ModelFamily.SVM: LinearSVMModel,
    ModelFamily.MLP: MLPModel,
    ModelFamily.KNN: KNNModel,
    ModelFamily.MAJORITY: MajorityBaselineModel,
}


def _build(family: ModelFamily, hp: dict):
    """An unfitted learner; the hyperparameters are its fields."""
    try:
        return from_json(_LEARNERS[family], hp, "hyperparameters")
    except InputFormatError as exc:
        raise ConfigError(str(exc)) from exc


@dataclass(frozen=True, eq=False)
class TrainedModel:
    spec: ModelSpec
    standardizer: Standardizer
    model: object
    feature_count: int
    chosen_hyperparameters: dict
    feature_ids: tuple[str, ...] | None = None

    def predict_proba(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != self.feature_count:
            raise SchemaError(
                f"expected rows with {self.feature_count} columns, got {rows.shape}"
            )
        proba = self.model.predict_proba(self.standardizer.apply(rows))
        return np.clip(proba, 0.0, 1.0)

    def predict(self, rows: np.ndarray) -> np.ndarray:
        # Score exactly 0.5 classifies High; pinned.
        return (self.predict_proba(rows) >= 0.5).astype(np.int8)


def _fit_one(spec: ModelSpec, hp: dict, X: np.ndarray, y: np.ndarray):
    model = _build(spec.family, hp)
    return model.fit(X, y, np.random.SeedSequence([spec.seed, _SALT_FIT]))


def train(
    spec: ModelSpec,
    rows: np.ndarray,
    labels: np.ndarray,
    grid: Sequence[dict] | None = None,
    feature_ids: Sequence[str] | None = None,
) -> TrainedModel:
    """Fit (optionally tuning over `grid`) and return a scoring-ready model.

    Tuning holds out a seeded random 10% of the training rows, scores every
    candidate by validation accuracy (first-in-grid wins ties), then refits
    the winner on the full training set.  Degenerate splits (single-class
    train part or empty validation) skip the search and use the first
    candidate.
    """
    X = np.asarray(rows, dtype=float)
    y = np.asarray(labels).astype(np.int8).ravel()
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise SchemaError(f"rows {X.shape} do not align with labels {y.shape}")
    if np.unique(y).size < 2:
        raise InsufficientDataError("single-class training labels")

    chosen = spec.resolved()
    if grid:
        candidates = [dict(DEFAULTS[spec.family], **g) for g in grid]
        n = X.shape[0]
        n_val = max(1, int(round(0.1 * n)))
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([spec.seed, _SALT_SPLIT])))
        perm = rng.permutation(n)
        val_idx, fit_idx = perm[:n_val], perm[n_val:]
        chosen = candidates[0]
        if fit_idx.size >= 2 and np.unique(y[fit_idx]).size == 2 and val_idx.size > 0:
            split_std = fit_standardizer(X[fit_idx])
            Xz_fit = split_std.apply(X[fit_idx])
            Xz_val = split_std.apply(X[val_idx])
            best_acc = -1.0
            for hp in candidates:
                model = _fit_one(spec, hp, Xz_fit, y[fit_idx])
                proba = np.clip(model.predict_proba(Xz_val), 0.0, 1.0)
                acc = float(((proba >= 0.5).astype(np.int8) == y[val_idx]).mean())
                if acc > best_acc:
                    best_acc = acc
                    chosen = hp

    standardizer = fit_standardizer(X)
    model = _fit_one(spec, chosen, standardizer.apply(X), y)
    if feature_ids is not None and len(feature_ids) != X.shape[1]:
        raise SchemaError("feature_ids length does not match row width")
    return TrainedModel(
        spec=spec,
        standardizer=standardizer,
        model=model,
        feature_count=X.shape[1],
        chosen_hyperparameters=dict(chosen),
        feature_ids=None if feature_ids is None else tuple(feature_ids),
    )


# ---------------------------------------------------------------------------
# Serialization

@dataclass(frozen=True)
class _ModelDocument:
    """A trained model as stored: the spec flattened into it, the fitted
    learner under "model" in the layout of its family's class."""

    json_document: ClassVar[bool] = True
    family: ModelFamily
    seed: int
    feature_count: int
    standardizer: Standardizer
    model: object
    hyperparameters: dict[str, object] = field(default_factory=dict)
    chosen_hyperparameters: dict[str, object] = field(default_factory=dict)
    feature_ids: tuple[str, ...] | None = None


def model_to_dict(trained: TrainedModel) -> dict:
    spec = trained.spec
    return to_json(_ModelDocument(
        spec.family, spec.seed, trained.feature_count, trained.standardizer, trained.model,
        dict(spec.hyperparameters), trained.chosen_hyperparameters, trained.feature_ids,
    ))


def model_from_dict(payload: dict) -> TrainedModel:
    doc = from_json(_ModelDocument, payload, "model")
    trained = TrainedModel(
        spec=ModelSpec(family=doc.family, hyperparameters=doc.hyperparameters, seed=doc.seed),
        standardizer=doc.standardizer,
        model=from_json(_LEARNERS[doc.family], doc.model, "model.model"),
        feature_count=doc.feature_count,
        chosen_hyperparameters=doc.chosen_hyperparameters,
        feature_ids=doc.feature_ids,
    )
    # A learner whose fitted arrays were left out reads as unfitted; scoring
    # one row shows that before any caller relies on the model.  A non-finite
    # score shows up as a numpy RuntimeWarning, raised here as an error.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            trained.predict_proba(np.zeros((1, doc.feature_count)))
        except (IndexError, KeyError, ValueError, RuntimeWarning) as exc:
            raise InputFormatError(f"model: cannot score a row ({exc})") from exc
    return trained


def save_model(path: Path | str, trained: TrainedModel) -> None:
    dump_json(path, model_to_dict(trained))


def load_model(path: Path | str) -> TrainedModel:
    return model_from_dict(read_json(path))
