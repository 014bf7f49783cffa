"""Random forest of Gini-split CART trees on bootstrap samples.

Per-split feature subsampling; each tree votes the hard label of its leaf and
the forest probability is the fraction of positive votes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import SchemaError

_NO_SPLIT = (np.inf, -1, 0.0)


def _best_split(
    X: np.ndarray, y: np.ndarray, feature_idx: np.ndarray
) -> tuple[float, int, float]:
    """Lowest weighted-Gini (impurity, feature, threshold) over candidates.

    Thresholds sit at midpoints between consecutive distinct sorted values.
    Ties resolve to the first feature in `feature_idx` order.
    """
    n = y.shape[0]
    best = _NO_SPLIT
    for j in feature_idx:
        x = X[:, j]
        order = np.argsort(x, kind="stable")
        xs = x[order]
        ys = y[order]
        boundary = np.nonzero(xs[1:] != xs[:-1])[0]
        if boundary.size == 0:
            continue
        pos = np.cumsum(ys)
        n_left = boundary + 1.0
        n_right = n - n_left
        pos_left = pos[boundary]
        pos_right = pos[-1] - pos_left
        p_l = pos_left / n_left
        p_r = pos_right / n_right
        gini_left = 1.0 - p_l * p_l - (1.0 - p_l) * (1.0 - p_l)
        gini_right = 1.0 - p_r * p_r - (1.0 - p_r) * (1.0 - p_r)
        weighted = (n_left * gini_left + n_right * gini_right) / n
        k = int(np.argmin(weighted))
        if weighted[k] < best[0] - 1e-12:
            thr = 0.5 * (xs[boundary[k]] + xs[boundary[k] + 1])
            best = (float(weighted[k]), int(j), float(thr))
    return best


@dataclass
class DecisionTree:
    """Flattened binary tree; leaves hold the positive fraction of their rows."""

    feature: list[int] = field(default_factory=list)
    threshold: list[float] = field(default_factory=list)
    left: list[int] = field(default_factory=list)
    right: list[int] = field(default_factory=list)
    value: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        lists = (self.feature, self.threshold, self.left, self.right, self.value)
        if len({len(nodes) for nodes in lists}) > 1:
            raise SchemaError("tree node lists differ in length")

    def _add_node(self) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        return len(self.feature) - 1

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        rng: np.random.Generator,
        max_depth: int | None,
        max_features: int,
        min_samples_split: int = 2,
    ) -> "DecisionTree":
        n_features = X.shape[1]

        def grow(idx: np.ndarray, depth: int) -> int:
            node = self._add_node()
            sub_y = y[idx]
            self.value[node] = float(sub_y.mean())
            if (
                idx.shape[0] < min_samples_split
                or (max_depth is not None and depth >= max_depth)
                or sub_y.min() == sub_y.max()
            ):
                return node
            if max_features >= n_features:
                candidates = np.arange(n_features)
            else:
                candidates = np.sort(rng.choice(n_features, size=max_features, replace=False))
            _, feat, thr = _best_split(X[idx], sub_y, candidates)
            if feat < 0:
                return node
            go_left = X[idx, feat] <= thr
            if not go_left.any() or go_left.all():
                return node
            self.feature[node] = feat
            self.threshold[node] = thr
            self.left[node] = grow(idx[go_left], depth + 1)
            self.right[node] = grow(idx[~go_left], depth + 1)
            return node

        grow(np.arange(X.shape[0]), 0)
        return self

    def leaf_values(self, X: np.ndarray) -> np.ndarray:
        feature = np.asarray(self.feature)
        threshold = np.asarray(self.threshold)
        left = np.asarray(self.left)
        right = np.asarray(self.right)
        value = np.asarray(self.value)
        out = np.empty(X.shape[0], dtype=float)
        for i, row in enumerate(X):
            node = 0
            while feature[node] >= 0:
                node = left[node] if row[feature[node]] <= threshold[node] else right[node]
            out[i] = value[node]
        return out


@dataclass
class RandomForestModel:
    n_trees: int
    max_depth: int | None
    max_features: str | int
    trees: list[DecisionTree] = field(default_factory=list)

    def fit(self, X: np.ndarray, y: np.ndarray, seed_seq: np.random.SeedSequence) -> "RandomForestModel":
        n, d = X.shape
        if self.max_features == "sqrt":
            m = max(1, int(np.sqrt(d)))
        elif self.max_features == "all":
            m = d
        else:
            m = int(self.max_features)
        self.trees = []
        # Per-tree seeds derive from the model seed, so tree i is identical
        # whether trees are built sequentially or in parallel.
        for child in seed_seq.spawn(self.n_trees):
            rng = np.random.Generator(np.random.PCG64(child))
            bootstrap = rng.integers(0, n, size=n)
            tree = DecisionTree().fit(
                X[bootstrap], y[bootstrap], rng, self.max_depth, m
            )
            self.trees.append(tree)
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        votes = np.zeros(X.shape[0], dtype=float)
        for tree in self.trees:
            votes += tree.leaf_values(X) >= 0.5
        return votes / len(self.trees)
