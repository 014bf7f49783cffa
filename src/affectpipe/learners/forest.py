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
# A tree draws the candidate columns of this many nodes in one call.
_DRAW_BLOCK = 64


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
    node computes in place, so it holds the same bits.  Filled a row at a
    time: temporaries of the whole table set a run's peak memory.
    """
    table = np.zeros((_WIDTH, _WIDTH))
    for rows in range(1, _WIDTH):
        table[rows] = _gini_terms(float(rows), np.arange(_WIDTH))
    table.flags.writeable = False
    return table.ravel()


def _weighted_gini(index: np.ndarray, counts: np.ndarray | None, n: int) -> np.ndarray:
    """Weighted Gini of cutting after each but the last sorted row of a node
    of n weighted rows, from the running side indices `index` and, above
    _TABLE_ROWS, the running row counts `counts` (both rows x columns)."""
    left = index[:-1]
    right = index[-1] - left
    if counts is None:
        table = _gini_table()
        return (table.take(left) + table.take(right)) / n
    n_left = counts[:-1]
    pos_left = left - n_left * _WIDTH
    pos_right = right - (n - n_left) * _WIDTH
    return (_gini_terms(n_left, pos_left) + _gini_terms(n - n_left, pos_right)) / n


def _best_split(
    X: np.ndarray, steps: np.ndarray, weight: np.ndarray, idx: np.ndarray, n: int, feature_idx: np.ndarray
) -> tuple[float, int, float, np.ndarray, np.ndarray, int, int] | None:
    """The lowest weighted-Gini split of rows `idx`, n by weight, over the
    candidate columns: (impurity, feature, threshold, left rows, right rows,
    weighted rows and positives on the left), or None when no candidate
    splits the rows.  `steps` holds each row's `weight` times _WIDTH plus its
    0/1 label.  A row of weight w scores as w copies of it: no cut falls
    between copies, and every other cut has the same side counts.

    All candidate columns are sorted and scored together, so the number of
    numpy calls does not grow with the number of candidates.  Thresholds sit
    at midpoints between consecutive distinct sorted values; a column's score
    is its first lowest one.  Ties between columns resolve to the first
    feature in `feature_idx` order: a later column must score lower by more
    than 1e-12.  The sort need not be stable: inside a run of equal values
    the scores are masked, and at its end the rows before the cut are the
    same set in any order.  For the same reason the rows of a side, which
    come in the split column's sorted order, split as they would in any
    other.
    """
    xs = X.take(idx, 0).take(feature_idx, 1)
    order = xs.argsort(axis=0)
    xs.sort(axis=0)
    rows = idx.take(order)
    index = steps.take(rows).cumsum(axis=0)
    counts = weight.take(rows).cumsum(axis=0) if n > _TABLE_ROWS else None
    weighted = _weighted_gini(index, counts, n)
    # No threshold between equal values.
    np.putmask(weighted, xs[1:] == xs[:-1], np.inf)
    ks = weighted.argmin(axis=0)
    best_score, c, k = np.inf, -1, -1
    for column, (row, score) in enumerate(zip(ks.tolist(), np.minimum.reduce(weighted).tolist())):
        if score < best_score - 1e-12:
            best_score, c, k = score, column, row
    if c < 0:
        return None
    feat = int(feature_idx[c])
    upper = xs.item(k + 1, c)
    thr = 0.5 * (xs.item(k, c) + upper)
    if thr < upper:
        # Up to _TABLE_ROWS rows, the positives of a side are below _WIDTH.
        n_left = index.item(k, c) // _WIDTH if counts is None else counts.item(k, c)
        return best_score, feat, thr, rows[: k + 1, c], rows[k + 1 :, c], n_left, index.item(k, c) - n_left * _WIDTH
    # A midpoint between adjacent floats can round onto the upper one, and
    # the rows at or below it go left.
    go_left = X[idx, feat] <= thr
    left = idx[go_left]
    if left.shape[0] == idx.shape[0]:
        return None
    n_left = int(weight.take(left).sum())
    return best_score, feat, thr, left, idx[~go_left], n_left, int(steps.take(left).sum()) - n_left * _WIDTH


class _CandidateDraws:
    """`np.sort(rng.choice(n, m, replace=False))` of successive calls, drawn
    _DRAW_BLOCK calls at a time from the same random stream.

    For a population of up to 10,000 (the schema has 39 columns), or a
    sample of at most a fiftieth of it, `choice` runs Floyd's algorithm:
    round t draws an integer below n - m + 1 + t and takes it, or the
    round's top n - m + t when it is taken already.  It then shuffles the m
    values with draws below m, m - 1, ..., 2, which the sort undoes.
    `integers` over an array of bounds draws each value with the same
    bounded-integer routine on the same 32-bit words, so one call over a
    call's bounds repeated _DRAW_BLOCK times holds the integers of the next
    _DRAW_BLOCK calls.  A larger population sampled more densely is drawn
    one `choice` call per set.
    """

    def __init__(self, rng: np.random.Generator, n: int, m: int) -> None:
        self.rng, self.n, self.m = rng, n, m
        self.blockwise = n <= 10_000 or m <= n // 50
        bounds = np.concatenate((np.arange(n - m + 1, n + 1), np.arange(m, 1, -1)))
        self.block_bounds = np.tile(bounds, (_DRAW_BLOCK, 1))
        self.sets = None
        self.used = _DRAW_BLOCK
        self.state = None  # the generator's state before the current block

    def take(self) -> np.ndarray:
        if not self.blockwise:
            return np.sort(self.rng.choice(self.n, size=self.m, replace=False))
        if self.used == _DRAW_BLOCK:
            self.state = self.rng.bit_generator.state
            sets = self.rng.integers(0, self.block_bounds)[:, : self.m]
            for t in range(1, self.m):
                taken = (sets[:, :t] == sets[:, t, None]).any(axis=1)
                np.putmask(sets[:, t], taken, self.n - self.m + t)
            sets.sort(axis=1)
            self.sets, self.used = sets, 0
        self.used += 1
        return self.sets[self.used - 1]

    def finish(self) -> None:
        """Leave the generator where the `choice` calls taken so far would
        have: back before the last block, then the integers of its sets
        that were taken."""
        if self.state is not None and self.used < _DRAW_BLOCK:
            self.rng.bit_generator.state = self.state
            self.rng.integers(0, self.block_bounds[: self.used])


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
        # A split's children follow it, so every walk down the tree ends.
        count = len(self.feature)
        for node, (feat, lo, hi) in enumerate(zip(self.feature, self.left, self.right)):
            if not (node < lo < count and node < hi < count if feat >= 0 else feat == lo == hi == -1):
                raise SchemaError(
                    f"tree node {node}: feature {feat} with children {lo} and {hi}; a split's "
                    f"children must follow it among {count} nodes, and a leaf has feature and children -1"
                )

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        rng: np.random.Generator,
        max_depth: int | None,
        max_features: int,
        weight: np.ndarray | None = None,
    ) -> "DecisionTree":
        """Grow the tree on 0/1 labels `y`, drawing `max_features` (at least 1)
        candidate columns from `rng` at every node that may split.  A row of
        integer `weight` w (default 1) counts as w copies of it."""
        n_features = X.shape[1]
        all_features = np.arange(n_features)
        draws = _CandidateDraws(rng, n_features, max_features) if max_features < n_features else None
        weight = np.ones(X.shape[0], dtype=np.intp) if weight is None else weight
        steps = weight * (y.astype(np.intp) + _WIDTH)
        feature, threshold, left, right, value = self.feature, self.threshold, self.left, self.right, self.value
        # Depth first, left child first: node ids and rng draws come in the
        # order of a recursive grower.  An entry holds a node's rows, depth and
        # weighted row and positive counts, so its value is exactly the mean of
        # its 0/1 labels and purity needs no pass over them.  A left child
        # takes the id after its parent's, and a right child's entry holds its
        # parent.
        n_root = int(weight.sum())
        stack = [(np.flatnonzero(weight), 0, n_root, int(steps.sum()) - n_root * _WIDTH, -1)]
        while stack:
            idx, depth, n, n_pos, parent = stack.pop()
            node = len(value)
            if parent >= 0:
                right[parent] = node
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            value.append(n_pos / n)
            if (max_depth is not None and depth >= max_depth) or n_pos in (0, n):
                continue
            candidates = all_features if draws is None else draws.take()
            split = _best_split(X, steps, weight, idx, n, candidates)
            if split is None:
                continue
            _, feature[node], threshold[node], rows_left, rows_right, n_left, pos_left = split
            left[node] = node + 1
            stack.append((rows_right, depth + 1, n - n_left, n_pos - pos_left, node))
            stack.append((rows_left, depth + 1, n_left, pos_left, -1))
        if draws is not None:
            draws.finish()
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
            # Each tree grows on the rows its bootstrap drew, weighted by how
            # often each was drawn, with no copy of X.
            counts = np.bincount(rng.integers(0, n, size=n), minlength=n)
            self.trees.append(DecisionTree().fit(X, y, rng, self.max_depth, m, counts))
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        votes = np.zeros(X.shape[0], dtype=float)
        for tree in self.trees:
            votes += tree.leaf_values(X) >= 0.5
        return votes / len(self.trees)
