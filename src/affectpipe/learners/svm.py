"""Linear soft-margin SVM via a deterministic subgradient schedule.

Full-batch subgradient steps on the regularized hinge objective
    lambda/2 ||v||^2 + mean_i max(0, 1 - s_i (v . x~_i)),  s_i in {-1, +1},
where x~ is the row augmented with a constant 1 (so the bias is regularized
with the weights), lambda = 1 / (C * n), step size 1 / (lambda * t), and each
step projects onto the ball of radius 1 / sqrt(lambda) that must contain the
optimum.  No sampling, so a fit is a pure function of (C, epochs, data).

Scores map to probabilities through a fixed logistic squash of the margin;
the map is monotone, so rankings (and hence ROC curves) match the raw
decision values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mlp import _sigmoid


@dataclass
class LinearSVMModel:
    C: float
    epochs: int = 200
    w: np.ndarray = field(default_factory=lambda: np.empty(0))
    b: float = 0.0

    def fit(self, X: np.ndarray, y: np.ndarray, seed_seq=None) -> "LinearSVMModel":
        n, d = X.shape
        Xa = np.hstack([X, np.ones((n, 1))])
        s = np.where(np.asarray(y) > 0, 1.0, -1.0)
        lam = 1.0 / (self.C * n)
        radius = 1.0 / np.sqrt(lam)
        v = np.zeros(d + 1)
        for t in range(1, self.epochs + 1):
            margins = s * (Xa @ v)
            active = margins < 1.0
            grad = lam * v - (s[active, None] * Xa[active]).sum(axis=0) / n
            v = v - grad / (lam * t)
            norm = float(np.linalg.norm(v))
            if norm > radius:
                v *= radius / norm
        self.w = v[:d]
        self.b = float(v[d])
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        return X @ self.w + self.b

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return _sigmoid(self.decision_function(X))
