"""Tests for preprocessing, the Gaussian baseline, the SMO solver and metrics."""

import numpy as np
import pytest

from mpskernel.kernel import save_gram
from mpskernel.learn import (
    ConvergenceError,
    Dataset,
    decision_scores,
    default_bandwidth,
    evaluate,
    gaussian_gram,
    load_dataset_csv,
    rescale,
    save_dataset_csv,
    split_indices,
    svm_train,
)

from oracles import auc_pairwise, svm_dual_objective, svm_grid_best_objective


class TestRescale:
    def test_endpoints_map_to_zero_and_two(self):
        col = np.array([[0.0], [5.0], [10.0]])
        scaled, _, params = rescale(col, col)
        assert np.allclose(scaled.ravel(), [0.0, 1.0, 2.0])
        assert params == [(0.0, 10.0)]
        # a range wider than the largest float
        col = np.array([[-1e308], [0.0], [1e308]])
        scaled, _, _ = rescale(col, col)
        assert np.allclose(scaled.ravel(), [0.0, 1.0, 2.0])
        # subnormal ranges keep every bit
        col = np.array([[5e-324], [0.0]])
        scaled, _, _ = rescale(col, col)
        assert scaled.ravel().tolist() == [2.0, 0.0]
        col = np.array([[1.5e-323], [0.0], [5e-324]])
        scaled, _, _ = rescale(col, col)
        assert scaled.ravel().tolist() == [2.0, 0.0, 2.0 * (5e-324 / 1.5e-323)]

    def test_constant_column_maps_to_midpoint(self):
        col = np.array([[7.0], [7.0], [7.0]])
        scaled, _, _ = rescale(col, col)
        assert np.allclose(scaled, 1.0)

    def test_other_split_is_clamped(self):
        train = np.array([[0.0], [10.0]])
        other = np.array([[12.0], [-3.0]])
        _, scaled_other, _ = rescale(train, other)
        assert np.allclose(scaled_other.ravel(), [2.0, 0.0])
        # clamped before the map, so a row far outside cannot overflow
        _, scaled_other, _ = rescale(np.array([[0.0], [0.5]]), np.array([[-1.7e308]]))
        assert scaled_other.ravel().tolist() == [0.0]

    def test_empty_training_split_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            rescale(np.zeros((0, 2)), np.zeros((1, 2)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            rescale(np.array([[np.inf]]), np.array([[1.0]]))


class TestSplit:
    def make_dataset(self, n_pos, n_neg, m=3, seed=0):
        rng = np.random.default_rng(seed)
        features = rng.normal(size=(n_pos + n_neg, m))
        labels = np.array([1] * n_pos + [-1] * n_neg)
        return Dataset(features, labels)

    def test_exact_class_fractions(self):
        labels = self.make_dataset(200, 200).labels
        tr, te = split_indices(labels, 0.8, seed=1)
        assert int(np.sum(labels[tr] == 1)) == 160
        assert int(np.sum(labels[tr] == -1)) == 160
        assert int(np.sum(labels[te] == 1)) == 40
        assert int(np.sum(labels[te] == -1)) == 40

    def test_same_seed_is_deterministic(self):
        ds = self.make_dataset(50, 50)
        a = split_indices(ds.labels, 0.8, seed=7)
        b = split_indices(ds.labels, 0.8, seed=7)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_distinct_seeds_differ(self):
        ds = self.make_dataset(200, 200)
        a = split_indices(ds.labels, 0.8, seed=1)
        b = split_indices(ds.labels, 0.8, seed=2)
        assert not np.array_equal(a[0], b[0])

    def test_missing_class_rejected(self):
        with pytest.raises(ValueError, match="class"):
            split_indices(np.array([1, 1, 1, 1]), 0.8, seed=0)
        # two rows per class at 0.8 put both in train
        with pytest.raises(ValueError, match="class -1 has 2 rows.*no test rows"):
            split_indices(np.array([1, 1, -1, -1]), 0.8, seed=0)


class TestGaussianGram:
    def test_zero_distance_gives_one(self):
        X = np.array([[0.3, 0.4]])
        gram = gaussian_gram(X, X, alpha=1.0)
        assert gram[0, 0] == 1.0

    def test_hand_evaluated_entry(self):
        rows = np.array([[0.0, 0.0]])
        cols = np.array([[1.0, 1.0]])
        gram = gaussian_gram(rows, cols, alpha=0.5)
        assert gram[0, 0] == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_default_bandwidth(self):
        X = np.array([[0.0, 2.0], [2.0, 0.0]])
        assert default_bandwidth(X) == pytest.approx(0.5, rel=1e-12)
        gram = gaussian_gram(X, X)
        assert gram[0, 1] == pytest.approx(np.exp(-0.5 * 8.0), rel=1e-12)

    def test_train_kind_symmetric_psd(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(0, 2, (12, 4))
        gram = gaussian_gram(X, X)
        assert gram.shape == (12, 12)
        assert np.array_equal(gram, gram.T)
        assert np.allclose(np.diag(gram), 1.0)
        assert np.linalg.eigvalsh(gram).min() >= -1e-10

    def test_non_positive_alpha_rejected(self):
        X = np.zeros((2, 2))
        for alpha in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="positive"):
                gaussian_gram(X, X, alpha=alpha)


class TestSvmTrain:
    def test_two_point_analytic_model(self):
        K = np.eye(2)
        labels = np.array([1, -1])
        model = svm_train(K, labels, C=2.0)
        assert np.array_equal(model.dual_coefs, np.array([1.0, -1.0]))
        assert model.bias == 0.0
        assert np.array_equal(model.support_indices, np.array([0, 1]))
        scores = decision_scores(model, K)
        assert np.array_equal(scores, np.array([1.0, -1.0]))

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(20, 3))
        y = np.where(X[:, 0] > 0, 1, -1)
        K = gaussian_gram(X, X, alpha=0.7)
        a = svm_train(K, y, C=1.5)
        b = svm_train(K, y, C=1.5)
        assert np.array_equal(a.dual_coefs, b.dual_coefs)
        assert a.bias == b.bias

    def test_separable_set_reaches_full_training_accuracy(self):
        rng = np.random.default_rng(7)
        pos = rng.normal(loc=+3.0, size=(10, 2))
        neg = rng.normal(loc=-3.0, size=(10, 2))
        X = np.vstack([pos, neg])
        y = np.array([1] * 10 + [-1] * 10)
        K = gaussian_gram(X, X, alpha=0.2)
        model = svm_train(K, y, C=4.0)
        scores = decision_scores(model, K)
        assert np.all(np.sign(scores) == y)

    def test_objective_beats_feasible_grid(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(4, 2))
        y = np.array([1, -1, 1, -1])
        K = gaussian_gram(X, X, alpha=0.5)
        model = svm_train(K, y, C=1.0, tol=1e-6)
        alpha = model.dual_coefs * y
        ours = svm_dual_objective(K, y, alpha)
        grid_best = svm_grid_best_objective(K, y, C=1.0, points=13)
        assert ours >= grid_best - 1e-6

    def test_kkt_feasibility(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(30, 4))
        y = np.where(X[:, 0] + 0.3 * X[:, 1] > 0, 1, -1)
        C = 2.0
        K = gaussian_gram(X, X, alpha=0.4)
        model = svm_train(K, y, C=C)
        alpha = model.dual_coefs * y
        assert np.all(alpha >= -1e-12)
        assert np.all(alpha <= C + 1e-12)
        assert abs(np.dot(alpha, y)) <= model.tol

    def test_objective_trace_is_non_decreasing(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(25, 3))
        y = np.where(X.sum(axis=1) > 0, 1, -1)
        K = gaussian_gram(X, X, alpha=0.6)
        trace: list[float] = []
        svm_train(K, y, C=1.0, objective_trace=trace)
        diffs = np.diff(np.array(trace))
        assert np.all(diffs >= -1e-12)

    def test_file_round_trip_gives_identical_model(self, tmp_path):
        rng = np.random.default_rng(11)
        X = rng.uniform(0, 2, (15, 3))
        y = np.where(X[:, 0] > 1.0, 1, -1)
        gram = gaussian_gram(X, X)
        path = tmp_path / "k.csv"
        save_gram(gram, path)
        loaded = np.loadtxt(path, delimiter=",", ndmin=2)
        assert np.array_equal(loaded, gram)
        a = svm_train(gram, y, C=1.0)
        b = svm_train(loaded, y, C=1.0)
        assert np.array_equal(a.dual_coefs, b.dual_coefs)
        assert a.bias == b.bias

    def test_invalid_inputs_rejected(self):
        K = np.eye(3)
        with pytest.raises(ValueError, match="labels"):
            svm_train(K, np.array([1, 0, -1]), C=1.0)
        with pytest.raises(ValueError, match="symmetric"):
            svm_train(np.array([[1.0, 0.5], [0.0, 1.0]]), np.array([1, -1]), C=1.0)
        for C in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="C"):
                svm_train(K, np.array([1, -1, 1]), C=C)

    def test_near_symmetric_kernels_rejected(self):
        # the check keeps np.allclose(K, K.T, atol=1e-10) semantics
        x = np.random.default_rng(14).normal(size=40)
        y = np.where(np.arange(40) % 2 == 0, 1, -1)
        K = 1.0 / (1.0 + (x[:, None] - x[None, :]) ** 2)
        K[3, 31] = K[31, 3] = 0.0  # so the relative tolerance adds nothing
        off = K.copy()
        off[3, 31] = 2e-10
        with pytest.raises(ValueError, match="symmetric"):
            svm_train(off, y, C=1.0)
        within = K.copy()
        within[3, 31] = 5e-11
        svm_train(within, y, C=1.0)
        nan = K.copy()
        nan[5, 5] = np.nan
        with pytest.raises(ValueError, match="symmetric"):
            svm_train(nan, y, C=1.0)

    def test_symmetric_kernel_model_is_pinned(self):
        # a kernel built by exact arithmetic, and the model the full allclose
        # check gave on it, bit for bit
        x = np.random.default_rng(13).normal(size=10)
        y = np.array([1, -1, 1, 1, -1, 1, -1, 1, -1, -1])
        K = 1.0 / (1.0 + (x[:, None] - x[None, :]) ** 2)
        model = svm_train(K, y, C=4.0)
        expected = [4.0, -0.1599101127273173, 4.0, 1.1170711761888736, -4.0,
                    2.0320332158739647, -3.0555803933107595, 4.0, -3.9336138860247614, -4.0]
        assert model.dual_coefs.tolist() == expected
        assert model.bias == -0.7478407428772841
        assert model.support_indices.tolist() == list(range(10))

    def test_nonconvergence_raises(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(40, 3))
        y = np.where(X[:, 0] > 0, 1, -1)
        K = gaussian_gram(X, X, alpha=0.5)
        import mpskernel.learn as learn_module

        original = learn_module.MAX_SMO_STEPS
        learn_module.MAX_SMO_STEPS = 1
        try:
            with pytest.raises(ConvergenceError, match="gap"):
                svm_train(K, y, C=1.0)
        finally:
            learn_module.MAX_SMO_STEPS = original


class TestDecisionScores:
    def test_zero_kernel_row_returns_bias(self):
        K = np.eye(2)
        model = svm_train(K, np.array([1, -1]), C=2.0)
        scores = decision_scores(model, np.zeros((3, 2)))
        assert np.allclose(scores, model.bias)

    def test_non_support_points_do_not_matter(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(12, 2))
        y = np.where(X[:, 0] > 0, 1, -1)
        K = gaussian_gram(X, X, alpha=0.5)
        model = svm_train(K, y, C=1.0)
        zero = np.flatnonzero(model.dual_coefs == 0.0)
        if zero.size:
            K_eval = rng.uniform(0, 1, (4, 12))
            base = decision_scores(model, K_eval)
            K_perturbed = K_eval.copy()
            K_perturbed[:, zero] = rng.uniform(0, 1, (4, zero.size))
            assert np.allclose(decision_scores(model, K_perturbed), base)

    def test_shape_mismatch_rejected(self):
        K = np.eye(2)
        model = svm_train(K, np.array([1, -1]), C=1.0)
        with pytest.raises(ValueError, match="columns"):
            decision_scores(model, np.zeros((3, 5)))


class TestEvaluate:
    def test_perfect_separation(self):
        scores = np.array([2.0, 1.5, -1.0, -2.0])
        labels = np.array([1, 1, -1, -1])
        metrics = evaluate(scores, labels)
        assert metrics.auc == 1.0
        assert metrics.accuracy == 1.0
        assert metrics.precision == 1.0
        assert metrics.recall == 1.0

    def test_enumerated_pair_example(self):
        scores = np.array([0.9, 0.8, 0.7, 0.85])
        labels = np.array([1, 1, -1, -1])
        metrics = evaluate(scores, labels)
        assert metrics.auc == pytest.approx(0.75, abs=1e-12)

    def test_all_ties_give_half(self):
        scores = np.zeros(6)
        labels = np.array([1, 1, 1, -1, -1, -1])
        metrics = evaluate(scores, labels)
        assert metrics.auc == pytest.approx(0.5, abs=1e-12)

    def test_matches_pairwise_statistic(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            n = int(rng.integers(4, 30))
            scores = np.round(rng.normal(size=n), 1)  # rounding forces ties
            labels = rng.choice([-1, 1], size=n)
            if len(np.unique(labels)) < 2:
                continue
            metrics = evaluate(scores, labels)
            assert metrics.auc == auc_pairwise(scores, labels)
        # both have AUC exactly 1/5, so the first of them must not read lower
        labels = np.array([1, 1, -1, -1, -1, -1, -1])
        for scores in ([1, 2, 0, 3, 4, 5, 6], [0, 3, 1, 2, 4, 5, 6]):
            assert evaluate(np.array(scores, dtype=float), labels).auc == 0.2

    def test_balanced_accuracy(self):
        scores = np.array([1.0, 1.0, 1.0, -1.0])
        labels = np.array([1, 1, -1, -1])
        metrics = evaluate(scores, labels)
        assert metrics.accuracy == 0.75
        assert metrics.balanced_accuracy == pytest.approx(0.75)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="classes"):
            evaluate(np.array([0.1, 0.2]), np.array([1, 1]))


class TestDatasetCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(16)
        ds = Dataset(rng.uniform(0, 2, (6, 3)), np.array([1, -1, 1, -1, 1, -1]))
        path = tmp_path / "data.csv"
        save_dataset_csv(path, ds)
        loaded = load_dataset_csv(path)
        assert np.array_equal(loaded.features, ds.features)
        assert np.array_equal(loaded.labels, ds.labels)

    def test_textual_labels_mapped(self, tmp_path):
        path = tmp_path / "text.csv"
        path.write_text("f0,class\n0.5,illicit\n0.7,licit\n")
        loaded = load_dataset_csv(path)
        assert np.array_equal(loaded.labels, np.array([1, -1]))

    def test_byte_order_mark_skipped(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports start with a BOM, here before the label column
        text = "class,f0,f1\n1,0.5,1.5\n-1,0.7,0.2\n"
        plain = tmp_path / "plain.csv"
        plain.write_text(text, encoding="utf-8")
        bom = tmp_path / "bom.csv"
        bom.write_text(text, encoding="utf-8-sig")
        a, b = load_dataset_csv(plain), load_dataset_csv(bom)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_missing_label_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="class"):
            load_dataset_csv(path)
