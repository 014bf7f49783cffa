"""K-nearest-neighbor voting and the majority-class baseline."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class KNNModel:
    """Euclidean KNN; probability is the positive fraction among neighbors.

    Distance ties break by training-row index (stable sort), and k is clamped
    to the number of training rows, so k = n reduces to the majority baseline.
    """

    k: int
    X: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    y: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int8))

    def fit(self, X: np.ndarray, y: np.ndarray, seed_seq=None) -> "KNNModel":
        self.X = np.asarray(X, dtype=float)
        self.y = np.asarray(y)
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        k = min(self.k, self.X.shape[0])
        diffs = X[:, None, :] - self.X[None, :, :]
        dists = np.sqrt((diffs * diffs).sum(axis=2))
        order = np.argsort(dists, axis=1, kind="stable")[:, :k]
        return self.y[order].mean(axis=1)


@dataclass
class MajorityBaselineModel:
    """Predicts the training prevalence of the positive class for every row."""

    prevalence: float = 0.5

    def fit(self, X: np.ndarray, y: np.ndarray, seed_seq=None) -> "MajorityBaselineModel":
        self.prevalence = float(np.asarray(y).mean())
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return np.full(X.shape[0], self.prevalence, dtype=float)
