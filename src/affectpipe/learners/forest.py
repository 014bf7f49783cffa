"""Random forest of Gini-split CART trees on bootstrap samples.

Per-split feature subsampling; each tree votes the hard label of its leaf and
the forest probability is the fraction of positive votes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from ..errors import InputFormatError, SchemaError

# Nodes of up to this many rows read their weighted Gini terms from a table;
# larger ones compute the same terms in place.
_TABLE_ROWS = 256
# A side of `rows` rows, `positives` of them positive, has the index
# rows * _WIDTH + positives.  Each row adds _WIDTH plus its 0/1 label, so a
# running sum down a node's sorted rows gives the index of each left side,
# and the node's total less a left side's index is the right side's.
_WIDTH = _TABLE_ROWS + 1


def _gini_terms(rows, positives):
    """One side's weighted Gini term, rows * gini(positives / rows)."""
    p = positives / rows
    return rows * (1.0 - p * p - (1.0 - p) * (1.0 - p))


@functools.cache
def _gini_table() -> np.ndarray:
    """`_gini_terms` of every side of up to `_TABLE_ROWS` rows, flat by the
    side's index.

    Built on the first fit, not at import, and shared by every fit.  An
    entry is the same IEEE operations on the same operands as the terms a
    node computes in place, so it holds the same bits.
    """
    table = np.zeros((_WIDTH, _WIDTH))
    table[1:] = _gini_terms(np.arange(1.0, _WIDTH)[:, None], np.arange(_WIDTH))
    table.flags.writeable = False
    return table.ravel()


def _weighted_gini(index: np.ndarray, n: int) -> np.ndarray:
    """Weighted Gini of cutting after each of the first n - 1 sorted rows,
    from the running side indices `index` (n x columns)."""
    left = index[:-1]
    right = index[-1] - left
    if n <= _TABLE_ROWS:
        table = _gini_table()
        return (table.take(left) + table.take(right)) / n
    n_left = np.arange(1.0, n)[:, None]
    pos_left = left - np.arange(_WIDTH, n * _WIDTH, _WIDTH)[:, None]
    pos_right = right - np.arange((n - 1) * _WIDTH, 0, -_WIDTH)[:, None]
    return (_gini_terms(n_left, pos_left) + _gini_terms(n - n_left, pos_right)) / n


def _best_split(
    X: np.ndarray, steps: np.ndarray, idx: np.ndarray, feature_idx: np.ndarray
) -> tuple[float, int, float, np.ndarray, np.ndarray, int] | None:
    """The lowest weighted-Gini split of rows `idx` over the candidate
    columns: (impurity, feature, threshold, left rows, right rows, positives
    on the left), or None when no candidate splits the rows.  `steps` holds
    each row's _WIDTH plus its 0/1 label.

    All candidate columns are sorted and scored together, so the number of
    numpy calls does not grow with the number of candidates.  Thresholds sit
    at midpoints between consecutive distinct sorted values; a column's score
    is its first lowest one.  Ties between columns resolve to the first
    feature in `feature_idx` order: a later column must score lower by more
    than 1e-12.  The rows of a side come in the split column's sorted order,
    which cannot change their own splits: inside a run of equal values the
    scores are masked, and at its end the positive count does not depend on
    the order.
    """
    n = idx.shape[0]
    order = X[idx[:, None], feature_idx].argsort(axis=0, kind="stable")
    rows = idx[order]
    xs = X[rows, feature_idx]
    index = steps[rows].cumsum(axis=0)
    weighted = _weighted_gini(index, n)
    # No threshold between equal values.
    weighted[xs[1:] == xs[:-1]] = np.inf
    ks = weighted.argmin(axis=0)
    best_score, c, k = np.inf, -1, -1
    for column, (row, score) in enumerate(zip(ks.tolist(), weighted.min(axis=0).tolist())):
        if score < best_score - 1e-12:
            best_score, c, k = score, column, row
    if c < 0:
        return None
    feat = int(feature_idx[c])
    upper = xs.item(k + 1, c)
    thr = 0.5 * (xs.item(k, c) + upper)
    if thr < upper:
        return best_score, feat, thr, rows[: k + 1, c], rows[k + 1 :, c], index.item(k, c) - (k + 1) * _WIDTH
    # A midpoint between adjacent floats can round onto the upper one, and
    # the rows at or below it go left.
    go_left = X[idx, feat] <= thr
    left = idx[go_left]
    if left.shape[0] == n:
        return None
    return best_score, feat, thr, left, idx[~go_left], int(steps[left].sum()) - left.shape[0] * _WIDTH


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
        steps = y.astype(np.intp) + _WIDTH
        feature, threshold, left, right, value = self.feature, self.threshold, self.left, self.right, self.value
        # Depth first, left child first: node ids and rng draws come in the
        # order of a recursive grower.  An entry holds a node's rows, depth and
        # positive count, so its value is exactly the mean of its 0/1 labels
        # and purity needs no pass over them.  A left child takes the id after
        # its parent's, and a right child's entry holds its parent.
        stack = [(np.arange(X.shape[0]), 0, int(np.count_nonzero(y)), -1)]
        while stack:
            idx, depth, n_pos, parent = stack.pop()
            node = len(value)
            if parent >= 0:
                right[parent] = node
            n = idx.shape[0]
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            value.append(n_pos / n)
            if (
                n < min_samples_split
                or (max_depth is not None and depth >= max_depth)
                or n_pos in (0, n)
            ):
                continue
            if max_features >= n_features:
                candidates = all_features
            else:
                candidates = np.sort(rng.choice(n_features, size=max_features, replace=False))
            split = _best_split(X, steps, idx, candidates)
            if split is None:
                continue
            _, feature[node], threshold[node], rows_left, rows_right, pos_left = split
            left[node] = node + 1
            stack.append((rows_right, depth + 1, n_pos - pos_left, node))
            stack.append((rows_left, depth + 1, pos_left, -1))
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
