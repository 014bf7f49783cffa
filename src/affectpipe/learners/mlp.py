"""Single-hidden-layer perceptron trained by full-batch gradient descent.

Rectifier hidden units, sigmoid output, cross-entropy loss computed in the
logit domain for stability.  Gradients are analytic; `loss_and_grads` exposes
them for finite-difference verification.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import InputFormatError


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _softplus(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def init_params(
    n_in: int, n_hidden: int, rng: np.random.Generator
) -> dict[str, np.ndarray]:
    """He-scaled weights for the rectifier layer, zero biases."""
    return {
        "W1": rng.normal(0.0, np.sqrt(2.0 / n_in), size=(n_in, n_hidden)),
        "b1": np.zeros(n_hidden),
        "W2": rng.normal(0.0, np.sqrt(2.0 / n_hidden), size=(n_hidden, 1)),
        "b2": np.zeros(1),
    }


def forward_logits(params: dict[str, np.ndarray], X: np.ndarray) -> np.ndarray:
    z1 = X @ params["W1"] + params["b1"]
    a1 = np.maximum(z1, 0.0)
    return (a1 @ params["W2"] + params["b2"]).ravel()


def loss_and_grads(
    params: dict[str, np.ndarray], X: np.ndarray, y: np.ndarray
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean cross-entropy and its gradient w.r.t. every parameter.

    -log sigmoid(z) = softplus(-z), so the per-row loss is
    softplus(z) - y * z, which never overflows.
    """
    n = X.shape[0]
    z1 = X @ params["W1"] + params["b1"]
    a1 = np.maximum(z1, 0.0)
    z2 = (a1 @ params["W2"] + params["b2"]).ravel()
    loss = float(np.mean(_softplus(z2) - y * z2))
    dz2 = ((_sigmoid(z2) - y) / n)[:, None]
    grads = {
        "W2": a1.T @ dz2,
        "b2": dz2.sum(axis=0),
    }
    da1 = dz2 @ params["W2"].T
    dz1 = da1 * (z1 > 0.0)
    grads["W1"] = X.T @ dz1
    grads["b1"] = dz1.sum(axis=0)
    return loss, grads


@dataclass
class MLPModel:
    n_hidden: int
    learning_rate: float
    epochs: int = 200
    params: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n_hidden < 1:
            raise InputFormatError(f"n_hidden must be at least 1, got {self.n_hidden}")
        if not self.learning_rate > 0:
            raise InputFormatError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.epochs < 1:
            raise InputFormatError(f"epochs must be at least 1, got {self.epochs}")

    def fit(self, X: np.ndarray, y: np.ndarray, seed_seq: np.random.SeedSequence) -> "MLPModel":
        rng = np.random.Generator(np.random.PCG64(seed_seq))
        y = np.asarray(y, dtype=float)
        self.params = init_params(X.shape[1], self.n_hidden, rng)
        # A learning rate far too large overflows; the non-finite scores that
        # follow are refused by the caller, so numpy need not warn as well.
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(self.epochs):
                _, grads = loss_and_grads(self.params, X, y)
                for key in self.params:
                    self.params[key] = self.params[key] - self.learning_rate * grads[key]
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return _sigmoid(forward_logits(self.params, X))
