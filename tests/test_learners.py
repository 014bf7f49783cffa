"""From-scratch learner contracts: splits, votes, margins, gradients."""

from __future__ import annotations

import gc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affectpipe.errors import InsufficientDataError, SchemaError
from affectpipe.learners import (
    DEFAULTS,
    ModelFamily,
    ModelSpec,
    default_grid,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
    train,
)
from affectpipe.learners.forest import (
    _TABLE_ROWS,
    _WIDTH,
    DecisionTree,
    RandomForestModel,
    _best_split,
    _gini_table,
    _weighted_gini,
)
from affectpipe.learners.knn import KNNModel, MajorityBaselineModel
from affectpipe.learners.mlp import forward_logits, init_params, loss_and_grads
from affectpipe.learners.svm import LinearSVMModel
from affectpipe.learners.standardize import Standardizer, fit_standardizer

RNG = np.random.default_rng(2024)


def blobs(n_per=20, gap=6.0, d=2, seed=0):
    """Two well-separated Gaussian clusters; labels 0/1."""
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 1.0, size=(n_per, d))
    b = rng.normal(gap, 1.0, size=(n_per, d))
    X = np.vstack([a, b])
    y = np.array([0] * n_per + [1] * n_per, dtype=np.int8)
    return X, y


# ---------------------------------------------------------------------------
# standardizer


def test_standardizer_centers_and_scales():
    std = fit_standardizer(np.array([[1.0], [3.0]]))
    assert std.mean.tolist() == [2.0] and std.std.tolist() == [1.0]
    assert std.apply(np.array([[5.0]])).tolist() == [[3.0]]


def test_standardizer_zero_variance_column_maps_to_zero():
    std = fit_standardizer(np.array([[7.0, 1.0], [7.0, 3.0]]))
    out = std.apply(np.array([[7.0, 2.0], [9.0, 5.0]]))
    assert out[:, 0].tolist() == [0.0, 0.0]
    assert np.isfinite(out).all()


def test_standardizer_needs_two_rows():
    with pytest.raises(InsufficientDataError):
        fit_standardizer(np.array([[1.0, 2.0]]))


def test_standardizer_width_mismatch():
    std = fit_standardizer(np.array([[1.0], [3.0]]))
    with pytest.raises(SchemaError):
        std.apply(np.array([[1.0, 2.0]]))


@settings(max_examples=30)
@given(
    st.lists(
        st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=3, max_size=3),
        min_size=2,
        max_size=40,
    )
)
# a constant column whose float mean is not exactly its value
@example([[0.0, 683.5280608818659, 0.0]] * 3)
def test_standardized_train_columns_are_unit_moments(rows):
    X = np.array(rows, dtype=float)
    std = fit_standardizer(X)
    Z = std.apply(X)
    for j in range(X.shape[1]):
        assert abs(Z[:, j].mean()) < 1e-9
        col_std = X[:, j].std()
        if col_std > 1e-6:  # keep clear of catastrophic cancellation
            assert abs(Z[:, j].std() - 1.0) < 1e-7


# ---------------------------------------------------------------------------
# decision tree / forest


def gini_oracle(x, y):
    """Exhaustive weighted-Gini scan over midpoints of one feature."""
    best = (np.inf, None)
    xs = np.unique(x)
    for a, b in zip(xs[:-1], xs[1:]):
        thr = 0.5 * (a + b)
        left, right = y[x <= thr], y[x > thr]
        score = 0.0
        for part in (left, right):
            p = part.mean()
            score += len(part) * (1.0 - p * p - (1.0 - p) * (1.0 - p))
        score /= len(y)
        if score < best[0] - 1e-12:
            best = (score, thr)
    return best


def test_best_split_matches_exhaustive_oracle():
    rng = np.random.default_rng(5)
    for _ in range(25):
        normal = rng.normal(size=(30, 3))
        y = (normal[:, 1] + 0.3 * rng.normal(size=30) > 0).astype(np.int8)
        if y.min() == y.max():
            continue
        # a constant column and a tied integer-valued one beside the normal ones
        tied = np.round(normal[:, 1] + rng.normal(size=30))
        X = np.column_stack([normal, np.full(30, 2.0), tied])
        d = X.shape[1]
        steps = y.astype(np.intp) + _WIDTH
        imp, feat, thr, left, right, pos_left = _best_split(X, steps, np.arange(30), np.arange(d))
        oracle = min(
            (gini_oracle(X[:, j], y) + (j,) for j in range(d)),
            key=lambda t: (round(t[0], 12), t[2]),
        )
        assert imp == pytest.approx(oracle[0], abs=1e-9)
        assert (feat, thr) == (oracle[2], pytest.approx(oracle[1]))
        # the sides are the rows on each side of the threshold, in sorted order
        assert sorted(left.tolist()) == np.flatnonzero(X[:, feat] <= thr).tolist()
        assert sorted(right.tolist()) == np.flatnonzero(X[:, feat] > thr).tolist()
        assert np.all(np.diff(X[np.concatenate([left, right]), feat]) >= 0)
        assert pos_left == int(y[left].sum())


def test_gini_table_holds_the_arithmetic_bits():
    table = _gini_table()
    assert table.shape == (_WIDTH * _WIDTH,)
    for rows in range(1, _TABLE_ROWS + 1):
        positives = np.arange(rows + 1)
        n_side = np.full(rows + 1, float(rows))
        p = positives / n_side
        want = n_side * (1.0 - p * p - (1.0 - p) * (1.0 - p))
        assert table[rows * _WIDTH + positives].tobytes() == want.tobytes()
    # and a node's scores read from it equal the arithmetic on its counts
    rng = np.random.default_rng(3)
    for n in (2, 3, 17, 100, _TABLE_ROWS, _TABLE_ROWS + 1, 400):
        labels = rng.integers(0, 2, size=(n, 4))
        pos = np.cumsum(labels.astype(np.int8), axis=0)
        n_left = np.arange(1.0, n)[:, None]
        p_l = pos[:-1] / n_left
        p_r = (pos[-1] - pos[:-1]) / (n - n_left)
        gini_left = 1.0 - p_l * p_l - (1.0 - p_l) * (1.0 - p_l)
        gini_right = 1.0 - p_r * p_r - (1.0 - p_r) * (1.0 - p_r)
        want = (n_left * gini_left + (n - n_left) * gini_right) / n
        assert _weighted_gini(np.cumsum(labels + _WIDTH, axis=0), n).tobytes() == want.tobytes()


# The tree grower as it was before the split search covered all candidate
# columns at once: one sort per feature, and mean/min/max on every node.  The
# fast path must grow exactly these trees.

def reference_best_split(X, y, feature_idx):
    n = y.shape[0]
    best = (np.inf, -1, 0.0)
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


def reference_fit(X, y, rng, max_depth, max_features, min_samples_split):
    tree = DecisionTree()
    n_features = X.shape[1]

    def grow(idx, depth):
        node = len(tree.feature)
        for nodes, blank in zip((tree.feature, tree.threshold, tree.left, tree.right, tree.value), (-1, 0.0, -1, -1, 0.0)):
            nodes.append(blank)
        sub_y = y[idx]
        tree.value[node] = float(sub_y.mean())
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
        _, feat, thr = reference_best_split(X[idx], sub_y, candidates)
        if feat < 0:
            return node
        go_left = X[idx, feat] <= thr
        if not go_left.any() or go_left.all():
            return node
        tree.feature[node] = feat
        tree.threshold[node] = thr
        tree.left[node] = grow(idx[go_left], depth + 1)
        tree.right[node] = grow(idx[~go_left], depth + 1)
        return node

    grow(np.arange(X.shape[0]), 0)
    return tree


def reference_leaf_values(tree, X):
    out = np.empty(X.shape[0], dtype=float)
    for i, row in enumerate(X):
        node = 0
        while tree.feature[node] >= 0:
            node = tree.left[node] if row[tree.feature[node]] <= tree.threshold[node] else tree.right[node]
        out[i] = tree.value[node]
    return out


def test_tree_fit_equals_the_per_feature_reference():
    data = np.random.default_rng(17)
    fits = 0
    for trial in range(5):
        # 300 rows: the root and its larger children score without the table
        n = (6, 23, 40, 90, 300)[trial]
        lo = float(data.normal())
        X = np.column_stack([
            data.integers(0, 4, size=n).astype(float),  # tied integer values
            np.full(n, 1.5),  # constant
            np.where(data.random(n) < 0.5, lo, np.nextafter(lo, np.inf)),  # adjacent floats
            data.normal(size=n),
            data.integers(0, 2, size=n).astype(float),
        ])
        y = ((X[:, 0] + X[:, 3] + data.normal(size=n)) > 1.0).astype(np.int8)
        queries = np.vstack([X, data.normal(size=(15, X.shape[1])), X + 0.5])
        for max_features in range(1, X.shape[1] + 1):
            for max_depth in (None, 1, 3):
                for min_samples_split in (2, 3, 4):
                    seed = int(data.integers(2**32))
                    rng_ref = np.random.default_rng(seed)
                    rng_new = np.random.default_rng(seed)
                    want = reference_fit(X, y, rng_ref, max_depth, max_features, min_samples_split)
                    got = DecisionTree().fit(
                        X, y, rng_new, max_depth, max_features, min_samples_split
                    )
                    assert got == want
                    assert {type(v) for v in got.feature + got.left + got.right} == {int}
                    assert {type(v) for v in got.threshold + got.value} == {float}
                    assert got.leaf_values(queries).tolist() == reference_leaf_values(want, queries).tolist()
                    assert rng_new.bit_generator.state == rng_ref.bit_generator.state
                    fits += 1
    assert fits == 5 * 5 * 3 * 3


def test_a_fitted_forest_leaves_no_reference_cycles():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(160, 39))
    y = (X[:, 0] + rng.normal(size=160) > 0).astype(np.int8)
    gc.collect()
    gc.disable()
    try:
        RandomForestModel(n_trees=20, max_depth=None, max_features="sqrt").fit(X, y, np.random.SeedSequence(0))
        # nothing is left for the cycle collector, so each bootstrap is freed with its tree
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_depth_one_tree_picks_the_separating_midpoint():
    X = np.array([[1.0], [2.0], [3.0], [10.0], [11.0], [12.0]])
    y = np.array([0, 0, 0, 1, 1, 1], dtype=np.int8)
    tree = DecisionTree().fit(X, y, np.random.default_rng(0), max_depth=1, max_features=1)
    assert tree.feature[0] == 0
    assert tree.threshold[0] == 6.5
    assert tree.leaf_values(np.array([[0.0], [100.0]])).tolist() == [0.0, 1.0]


def test_forest_probability_is_vote_fraction():
    def leaf_tree(p):
        return DecisionTree(feature=[-1], threshold=[0.0], left=[-1], right=[-1], value=[p])

    forest = RandomForestModel(n_trees=4, max_depth=None, max_features="all")
    forest.trees = [leaf_tree(1.0), leaf_tree(0.9), leaf_tree(0.6), leaf_tree(0.1)]
    # three of four leaves vote High
    assert forest.predict_proba(np.zeros((2, 1))).tolist() == [0.75, 0.75]


def test_forest_separates_blobs_and_is_deterministic():
    X, y = blobs(seed=3)
    forest = RandomForestModel(n_trees=15, max_depth=None, max_features="all")
    forest.fit(X, y, np.random.SeedSequence(11))
    assert (forest.predict_proba(X) >= 0.5).astype(int).tolist() == y.tolist()
    again = RandomForestModel(n_trees=15, max_depth=None, max_features="all")
    again.fit(X, y, np.random.SeedSequence(11))
    assert np.array_equal(forest.predict_proba(X), again.predict_proba(X))


def test_depth_limit_binds_on_xor():
    rng = np.random.default_rng(8)
    corners = np.array([[0, 0], [1, 1], [0, 1], [1, 0]], dtype=float)
    X = np.repeat(corners, 12, axis=0) + rng.normal(0, 0.05, size=(48, 2))
    y = np.array([0] * 24 + [1] * 24, dtype=np.int8)
    stump = RandomForestModel(n_trees=20, max_depth=1, max_features="all")
    deep = RandomForestModel(n_trees=20, max_depth=None, max_features="all")
    stump_acc = ((stump.fit(X, y, np.random.SeedSequence(1)).predict_proba(X) >= 0.5) == y).mean()
    deep_acc = ((deep.fit(X, y, np.random.SeedSequence(1)).predict_proba(X) >= 0.5) == y).mean()
    assert deep_acc == 1.0
    assert stump_acc <= 0.75  # a single axis cut cannot express XOR


# ---------------------------------------------------------------------------
# knn and baseline


def test_knn_nearest_neighbor_memorizes():
    X, y = blobs(n_per=10, seed=1)
    model = KNNModel(k=1).fit(X, y)
    assert np.array_equal(model.predict_proba(X), y.astype(float))


def test_knn_vote_fractions():
    X = np.array([[0.0], [1.0], [2.0], [3.0], [4.0]])
    y = np.array([1, 1, 0, 0, 0], dtype=np.int8)
    model = KNNModel(k=5).fit(X, y)
    assert model.predict_proba(np.array([[2.0]])).tolist() == [0.4]


def test_knn_distance_tie_breaks_by_training_index():
    X = np.array([[0.0], [2.0]])
    y = np.array([1, 0], dtype=np.int8)
    model = KNNModel(k=1).fit(X, y)
    # the query is equidistant; the earlier training row wins
    assert model.predict_proba(np.array([[1.0]])).tolist() == [1.0]


def test_knn_k_clamps_to_training_size():
    X = np.array([[0.0], [1.0], [2.0]])
    y = np.array([1, 0, 0], dtype=np.int8)
    big = KNNModel(k=99).fit(X, y)
    assert big.predict_proba(np.array([[5.0]])).tolist() == [pytest.approx(1 / 3)]


def test_scores_do_not_depend_on_the_batch():
    # Scoring a batch gives each row what scoring it alone gives.  (SVM and
    # MLP scores go through BLAS and may move in the last bits.)
    X, y = blobs(n_per=30, gap=1.0, d=4, seed=6)
    queries = np.vstack([X, np.random.default_rng(9).normal(0.5, 2.0, size=(40, 4))])
    for model in (
        RandomForestModel(n_trees=10, max_depth=None, max_features="sqrt").fit(
            X, y, np.random.SeedSequence(2)
        ),
        KNNModel(k=5).fit(X, y),
        MajorityBaselineModel().fit(X, y),
    ):
        one_by_one = [model.predict_proba(row[None, :])[0] for row in queries]
        assert model.predict_proba(queries).tolist() == one_by_one
        assert model.predict_proba(queries[:0]).shape == (0,)


def test_majority_baseline_predicts_prevalence():
    X = np.zeros((10, 2))
    y = np.array([1] * 7 + [0] * 3, dtype=np.int8)
    model = MajorityBaselineModel().fit(X, y)
    assert model.predict_proba(np.zeros((4, 2))).tolist() == [0.7] * 4


@settings(max_examples=25)
@given(st.integers(0, 2**31 - 1))
def test_knn_with_k_equal_n_is_the_majority_baseline(seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(12, 3))
    y = rng.integers(0, 2, size=12).astype(np.int8)
    queries = rng.normal(size=(5, 3))
    knn = KNNModel(k=12).fit(X, y)
    base = MajorityBaselineModel().fit(X, y)
    assert np.allclose(knn.predict_proba(queries), base.predict_proba(queries))


# ---------------------------------------------------------------------------
# mlp


def finite_difference_grads(params, X, y, eps=1e-6):
    grads = {}
    for key, value in params.items():
        g = np.zeros_like(value)
        flat = value.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up, _ = loss_and_grads(params, X, y)
            flat[i] = orig - eps
            dn, _ = loss_and_grads(params, X, y)
            flat[i] = orig
            g.ravel()[i] = (up - dn) / (2 * eps)
        grads[key] = g
    return grads


def test_mlp_analytic_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(12, 5))
    y = rng.integers(0, 2, size=12).astype(float)
    params = init_params(5, 3, rng)
    _, analytic = loss_and_grads(params, X, y)
    numeric = finite_difference_grads(params, X, y)
    for key in params:
        denom = max(np.abs(numeric[key]).max(), 1e-8)
        rel = np.abs(analytic[key] - numeric[key]).max() / denom
        assert rel < 1e-5, key


def test_mlp_training_reduces_loss_and_fits_blobs():
    X, y = blobs(n_per=15, seed=2)
    std = fit_standardizer(X)
    Z = std.apply(X)
    spec = ModelSpec(family=ModelFamily.MLP, hyperparameters={"epochs": 400, "learning_rate": 0.5}, seed=0)
    model = train(spec, X, y)
    assert (model.predict(X) == y).mean() >= 0.95
    raw = init_params(Z.shape[1], 16, np.random.default_rng(0))
    first, _ = loss_and_grads(raw, Z, y.astype(float))
    trained_loss, _ = loss_and_grads(model.model.params, Z, y.astype(float))
    assert trained_loss < first


# ---------------------------------------------------------------------------
# svm


def test_svm_separates_and_orders_margins():
    X, y = blobs(n_per=15, gap=8.0, seed=4)
    model = LinearSVMModel(C=1.0, epochs=300).fit(X, y)
    pred = (model.predict_proba(X) >= 0.5).astype(int)
    assert (pred == y).all()
    scores = model.decision_function(X)
    proba = model.predict_proba(X)
    order = np.argsort(scores)
    assert (np.diff(proba[order]) >= -1e-12).all()  # sigmoid preserves ranking


# ---------------------------------------------------------------------------
# train() wrapper


def test_train_rejects_single_class():
    X = np.zeros((5, 2))
    with pytest.raises(InsufficientDataError, match="single-class"):
        train(ModelSpec(family=ModelFamily.KNN), X, np.ones(5, dtype=np.int8))


def test_train_prediction_threshold_pins_high_at_half():
    X = np.zeros((4, 1))
    y = np.array([1, 1, 0, 0], dtype=np.int8)
    model = train(ModelSpec(family=ModelFamily.MAJORITY), X, y)
    assert model.predict_proba(X).tolist() == [0.5] * 4
    assert model.predict(X).tolist() == [1] * 4  # exactly 0.5 classifies High


def test_model_spec_rejects_unknown_hyperparameters():
    with pytest.raises(SchemaError, match="invalid hyper"):
        ModelSpec(family=ModelFamily.KNN, hyperparameters={"kk": 3})


def test_train_standardizes_inputs():
    X, y = blobs(seed=6)
    scaled = X * np.array([1.0, 1000.0])
    base = train(ModelSpec(family=ModelFamily.KNN, hyperparameters={"k": 3}), X, y)
    wide = train(ModelSpec(family=ModelFamily.KNN, hyperparameters={"k": 3}), scaled, y)
    queries = RNG.normal(3.0, 2.0, size=(8, 2))
    assert np.allclose(
        base.predict_proba(queries), wide.predict_proba(queries * np.array([1.0, 1000.0]))
    )


def test_tuning_prefers_the_better_candidate():
    X, y = blobs(n_per=20, seed=9)
    # k = n degenerates into the baseline, k = 1 memorizes the clusters
    grid = [{"k": 40}, {"k": 1}]
    model = train(ModelSpec(family=ModelFamily.KNN, seed=0), X, y, grid=grid)
    assert model.chosen_hyperparameters["k"] == 1


def test_tuning_tie_breaks_first_in_grid():
    X, y = blobs(n_per=20, seed=10)
    # both candidates are perfect on the held-out slice; the first one wins
    grid = [{"k": 3}, {"k": 1}]
    model = train(ModelSpec(family=ModelFamily.KNN, seed=0), X, y, grid=grid)
    assert model.chosen_hyperparameters["k"] == 3


def test_train_is_deterministic_per_seed():
    X, y = blobs(seed=12)
    queries = RNG.normal(2.0, 3.0, size=(6, 2))
    for family in ModelFamily:
        spec = ModelSpec(family=family, seed=7)
        a = train(spec, X, y).predict_proba(queries)
        b = train(spec, X, y).predict_proba(queries)
        assert np.array_equal(a, b), family


def test_probabilities_stay_in_unit_interval():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(30, 4)) * 50
    y = rng.integers(0, 2, size=30).astype(np.int8)
    queries = rng.normal(size=(10, 4)) * 50
    for family in ModelFamily:
        proba = train(ModelSpec(family=family, seed=1), X, y).predict_proba(queries)
        assert (proba >= 0.0).all() and (proba <= 1.0).all(), family


def test_feature_count_guard():
    X, y = blobs(seed=14)
    model = train(ModelSpec(family=ModelFamily.KNN), X, y)
    with pytest.raises(SchemaError, match="columns"):
        model.predict_proba(np.zeros((2, 5)))


def test_model_round_trip_all_families(tmp_path):
    X, y = blobs(seed=15)
    queries = RNG.normal(3.0, 2.0, size=(6, 2))
    for family in ModelFamily:
        spec = ModelSpec(family=family, seed=3)
        model = train(spec, X, y, feature_ids=("a", "b"))
        path = tmp_path / f"{family.value}.json"
        save_model(path, model)
        back = load_model(path)
        assert back.feature_ids == ("a", "b")
        assert back.chosen_hyperparameters == model.chosen_hyperparameters
        assert np.allclose(back.predict_proba(queries), model.predict_proba(queries))


def test_default_grids_stay_inside_allowed_hyperparameters():
    for family in ModelFamily:
        for hp in default_grid(family):
            ModelSpec(family=family, hyperparameters=hp)  # must not raise
        assert DEFAULTS[family] == ModelSpec(family=family).resolved()
