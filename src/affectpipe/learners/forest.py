"""Random forest of Gini-split CART trees on bootstrap samples.

Per-split feature subsampling; each tree votes the hard label of its leaf and
the forest probability is the fraction of positive votes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import InputFormatError, SchemaError

_NO_SPLIT = (np.inf, -1, 0.0)


def _best_split(
    X: np.ndarray, y: np.ndarray, feature_idx: np.ndarray
) -> tuple[float, int, float]:
    """Lowest weighted-Gini (impurity, feature, threshold) over candidates.

    All candidate columns are sorted and scored together, so the number of
    numpy calls does not grow with the number of candidates.  Thresholds sit
    at midpoints between consecutive distinct sorted values; a column's score
    is its first lowest one.  Ties between columns resolve to the first
    feature in `feature_idx` order: a later column must score lower by more
    than 1e-12.
    """
    n = y.shape[0]
    m = feature_idx.shape[0]
    columns = np.arange(m)
    cols = X[:, feature_idx]
    order = np.argsort(cols, axis=0, kind="stable")
    xs = cols[order, columns]
    pos = np.cumsum(y[order], axis=0)
    n_left = np.arange(1.0, n)[:, None]
    n_right = n - n_left
    pos_left = pos[:-1]
    pos_right = pos[-1] - pos_left
    p_l = pos_left / n_left
    p_r = pos_right / n_right
    gini_left = 1.0 - p_l * p_l - (1.0 - p_l) * (1.0 - p_l)
    gini_right = 1.0 - p_r * p_r - (1.0 - p_r) * (1.0 - p_r)
    weighted = (n_left * gini_left + n_right * gini_right) / n
    # No threshold between equal values.
    weighted[xs[1:] == xs[:-1]] = np.inf
    ks = np.argmin(weighted, axis=0)
    best = _NO_SPLIT
    for c, (k, score) in enumerate(zip(ks.tolist(), weighted[ks, columns].tolist())):
        if score < best[0] - 1e-12:
            thr = 0.5 * (xs[k, c] + xs[k + 1, c])
            best = (score, int(feature_idx[c]), float(thr))
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
        """Grow the tree on 0/1 labels `y`, drawing `max_features` (at least 1)
        candidate columns from `rng` at every node that may split."""
        n_features = X.shape[1]
        all_features = np.arange(n_features)

        # A node carries its positive count, so its value is exactly the mean
        # of its 0/1 labels and purity needs no pass over them.
        def grow(idx: np.ndarray, depth: int, n_pos: int) -> int:
            node = self._add_node()
            n = idx.shape[0]
            self.value[node] = n_pos / n
            if (
                n < min_samples_split
                or (max_depth is not None and depth >= max_depth)
                or n_pos in (0, n)
            ):
                return node
            if max_features >= n_features:
                candidates = all_features
            else:
                candidates = np.sort(rng.choice(n_features, size=max_features, replace=False))
            _, feat, thr = _best_split(X[idx], y[idx], candidates)
            if feat < 0:
                return node
            go_left = X[idx, feat] <= thr
            left = idx[go_left]
            # A midpoint between adjacent floats can round onto the upper one.
            if left.shape[0] in (0, n):
                return node
            pos_left = int(np.count_nonzero(y[left]))
            self.feature[node] = feat
            self.threshold[node] = thr
            self.left[node] = grow(left, depth + 1, pos_left)
            self.right[node] = grow(idx[~go_left], depth + 1, n_pos - pos_left)
            return node

        grow(np.arange(X.shape[0]), 0, int(np.count_nonzero(y)))
        return self

    def leaf_values(self, X: np.ndarray) -> np.ndarray:
        """The value of the leaf each row reaches.

        The walk reads Python lists, not numpy arrays, so a step costs far
        less than one numpy call.  Routing a whole batch one level per array
        step was slower on the batches the pipeline scores (a month's days,
        a cross-validation fold) and no faster on folds of a few hundred rows.
        """
        feature, threshold = self.feature, self.threshold
        left, right, value = self.left, self.right, self.value
        out = []
        for row in X.tolist():
            node = 0
            while feature[node] >= 0:
                node = left[node] if row[feature[node]] <= threshold[node] else right[node]
            out.append(value[node])
        return np.array(out, dtype=float)


@dataclass
class RandomForestModel:
    n_trees: int
    max_depth: int | None
    max_features: str | int
    trees: list[DecisionTree] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.n_trees < 1:
            raise InputFormatError(f"n_trees must be at least 1, got {self.n_trees}")
        if self.max_depth is not None and self.max_depth < 1:
            raise InputFormatError(f"max_depth must be null or at least 1, got {self.max_depth}")
        if self.max_features not in ("sqrt", "all") and not (
            isinstance(self.max_features, int) and self.max_features >= 1
        ):
            raise InputFormatError(
                f"max_features must be 'sqrt', 'all' or an integer of at least 1, "
                f"got {self.max_features!r}"
            )

    def fit(self, X: np.ndarray, y: np.ndarray, seed_seq: np.random.SeedSequence) -> "RandomForestModel":
        n, d = X.shape
        if self.max_features == "sqrt":
            m = max(1, int(np.sqrt(d)))
        elif self.max_features == "all":
            m = d
        else:
            m = self.max_features
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
