"""Tree-based regressor tests (CART, RF, GBDT)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.trees import DecisionTreeRegressor, GradientBoostingRegressor, RandomForestRegressor


def _step_data(n=200, seed=0):
    """Piecewise-constant target: trivially learnable by one split."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, size=(n, 3))
    y = np.where(x[:, 0] > 0.5, 5.0, -5.0)
    return x, y


def _smooth_data(n=300, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2, 2, size=(n, 2))
    y = np.sin(x[:, 0]) + 0.5 * x[:, 1] + rng.normal(0, 0.05, n)
    return x, y


class TestDecisionTree:
    def test_learns_single_split(self):
        x, y = _step_data()
        tree = DecisionTreeRegressor(max_depth=2).fit(x, y)
        pred = tree.predict(x)
        assert np.mean((pred - y) ** 2) < 1e-6

    def test_depth_limit_respected(self):
        x, y = _smooth_data()
        tree = DecisionTreeRegressor(max_depth=3).fit(x, y)
        assert tree.depth() <= 3

    def test_min_samples_leaf(self):
        x, y = _smooth_data(100)
        tree = DecisionTreeRegressor(max_depth=10, min_samples_leaf=20).fit(x, y)

        def count_leaf_sizes(node, x_subset, y_subset, sizes):
            if node.is_leaf:
                sizes.append(len(y_subset))
                return
            mask = x_subset[:, node.feature] <= node.threshold
            count_leaf_sizes(node.left, x_subset[mask], y_subset[mask], sizes)
            count_leaf_sizes(node.right, x_subset[~mask], y_subset[~mask], sizes)

        sizes = []
        count_leaf_sizes(tree._root, x, y, sizes)
        assert min(sizes) >= 20

    def test_split_between_adjacent_floats(self):
        # their midpoint rounds up to the upper value; a threshold there
        # would send every sample left and leave the right leaf empty
        a = -92.08531449445188
        b = np.nextafter(a, np.inf)
        assert (a + b) / 2.0 == b  # lint: bit-identical
        x = np.array([[a], [a], [b], [b]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        tree = DecisionTreeRegressor().fit(x, y)
        assert a <= tree._root.threshold < b
        np.testing.assert_array_equal(tree.predict(x), y)
        np.testing.assert_array_equal(tree.predict(np.array([[b + 1.0], [a - 1.0]])), [1.0, 0.0])

    def test_constant_target_single_leaf(self):
        x = np.random.default_rng(0).normal(size=(30, 2))
        tree = DecisionTreeRegressor().fit(x, np.full(30, 3.3))
        assert tree.depth() == 0
        np.testing.assert_allclose(tree.predict(x), 3.3)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            DecisionTreeRegressor().predict(np.zeros((1, 2)))

    def test_empty_data_raises(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor().fit(np.zeros((0, 2)), np.zeros(0))

    def test_wrong_feature_count_raises(self):
        x, y = _step_data(50)
        tree = DecisionTreeRegressor().fit(x, y)
        with pytest.raises(ValueError):
            tree.predict(np.zeros((2, 5)))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 1000))
    def test_predictions_within_target_range(self, seed):
        """Leaf values are means, so predictions stay in [min(y), max(y)]."""
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(50, 2))
        y = rng.normal(size=50)
        pred = DecisionTreeRegressor(max_depth=5).fit(x, y).predict(x)
        assert pred.min() >= y.min() - 1e-12
        assert pred.max() <= y.max() + 1e-12


class TestRandomForest:
    def test_beats_single_deep_tree_on_noise(self):
        x, y = _smooth_data(400, seed=1)
        x_test, y_test = _smooth_data(200, seed=2)
        forest = RandomForestRegressor(n_estimators=30, max_depth=8, seed=0).fit(x, y)
        forest_mse = np.mean((forest.predict(x_test) - y_test) ** 2)
        assert forest_mse < 0.1

    def test_deterministic_given_seed(self):
        x, y = _smooth_data(100)
        a = RandomForestRegressor(n_estimators=5, seed=7).fit(x, y).predict(x[:5])
        b = RandomForestRegressor(n_estimators=5, seed=7).fit(x, y).predict(x[:5])
        np.testing.assert_allclose(a, b)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            RandomForestRegressor().predict(np.zeros((1, 2)))

    def test_invalid_n_estimators(self):
        with pytest.raises(ValueError):
            RandomForestRegressor(n_estimators=0)

    def test_max_features_literal(self):
        with pytest.raises(ValueError):
            RandomForestRegressor(max_features="bogus").fit(*_step_data(20))


class TestGradientBoosting:
    def test_fits_smooth_function(self):
        x, y = _smooth_data(400, seed=1)
        model = GradientBoostingRegressor(n_estimators=80, max_depth=3, seed=0).fit(x, y)
        assert np.mean((model.predict(x) - y) ** 2) < 0.05

    def test_staged_predictions_improve(self):
        x, y = _smooth_data(300)
        one = GradientBoostingRegressor(n_estimators=1, seed=0).fit(x, y)
        forty = GradientBoostingRegressor(n_estimators=40, seed=0).fit(x, y)
        first_mse = np.mean((one.predict(x) - y) ** 2)
        last_mse = np.mean((forty.predict(x) - y) ** 2)
        assert last_mse < first_mse

    def test_early_stopping_truncates(self):
        x, y = _smooth_data(300, seed=3)
        model = GradientBoostingRegressor(n_estimators=200, seed=0)
        model.fit(x[:200], y[:200], x[200:], y[200:], early_stopping_rounds=5)
        assert len(model.trees_) < 200

    def test_invalid_learning_rate(self):
        with pytest.raises(ValueError):
            GradientBoostingRegressor(learning_rate=0.0)

    def test_invalid_subsample(self):
        with pytest.raises(ValueError):
            GradientBoostingRegressor(subsample=1.5)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            GradientBoostingRegressor().predict(np.zeros((1, 2)))
