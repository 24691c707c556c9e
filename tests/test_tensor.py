"""Tests for the truncated SVD."""

import numpy as np
import pytest

from mpskernel.tensor import NOISE_FLOOR, svd_truncated

from oracles import matrix_with_spectrum, random_complex


class TestSvdTruncated:
    def test_budget_below_every_tail_keeps_all(self):
        rng = np.random.default_rng(8)
        mat = matrix_with_spectrum(rng, [np.sqrt(0.6), np.sqrt(0.4)], rows=4, cols=4)
        res = svd_truncated(mat, 1, 1e-16)
        assert res.singular_values.size == 2
        assert res.discarded_weight == 0.0

    def test_exact_zero_is_always_removed(self):
        rng = np.random.default_rng(9)
        mat = matrix_with_spectrum(rng, [1.0, 0.0], rows=3, cols=3)
        res = svd_truncated(mat, 1, 0.0)
        assert res.singular_values.size == 1
        assert res.discarded_weight == 0.0

    def test_tiny_tail_removed_within_budget(self):
        rng = np.random.default_rng(10)
        spectrum = [np.sqrt(1.0 - 1e-18), 1e-9]
        mat = matrix_with_spectrum(rng, spectrum, rows=4, cols=4)
        res = svd_truncated(mat, 1, 1e-16)
        assert res.singular_values.size == 1
        assert res.discarded_weight == pytest.approx(1e-18, rel=1e-3)
        assert res.discarded_weight <= 1e-16

    def test_minimum_rank_is_one(self):
        rng = np.random.default_rng(11)
        mat = matrix_with_spectrum(rng, [1e-3, 1e-4], rows=3, cols=3)
        res = svd_truncated(mat, 1, 1.0)
        assert res.singular_values.size == 1

    def test_factors_are_isometries(self):
        rng = np.random.default_rng(12)
        for shape, split in [((6, 5), 1), ((2, 3, 4), 1), ((2, 3, 2, 2), 2)]:
            t = random_complex(rng, shape)
            res = svd_truncated(t, split, 1e-16)
            k = res.singular_values.size
            left = res.left.reshape(-1, k)
            right = res.right.reshape(k, -1)
            assert np.allclose(left.conj().T @ left, np.eye(k), atol=1e-12)
            assert np.allclose(right @ right.conj().T, np.eye(k), atol=1e-12)

    def test_reconstruction_error_matches_discarded_weight(self):
        rng = np.random.default_rng(13)
        spectrum = np.array([1.0, 0.5, 1e-5, 1e-6])
        spectrum = spectrum / np.linalg.norm(spectrum)
        mat = matrix_with_spectrum(rng, spectrum, rows=6, cols=5)
        res = svd_truncated(mat, 1, 1e-9)
        assert res.discarded_weight > 0
        approx = (res.left * res.singular_values) @ res.right
        err = np.linalg.norm(mat - approx)
        assert err == pytest.approx(np.sqrt(res.discarded_weight), abs=1e-10)

    def test_singular_values_non_increasing(self):
        rng = np.random.default_rng(14)
        res = svd_truncated(random_complex(rng, (4, 4)), 1, 0.0)
        s = res.singular_values
        assert np.all(s[:-1] >= s[1:])
        assert np.all(s >= 0)

    def test_noise_floor_zeroing(self):
        rng = np.random.default_rng(15)
        # value below 10*eps relative to the top is treated as an exact zero
        mat = matrix_with_spectrum(rng, [1.0, NOISE_FLOOR / 10.0], rows=3, cols=3)
        res = svd_truncated(mat, 1, 0.0)
        assert res.singular_values.size == 1
        assert res.discarded_weight == 0.0

    def test_empty_split_raises(self):
        with pytest.raises(ValueError, match="non-empty"):
            svd_truncated(np.zeros((2, 2)), 0, 0.0)
        with pytest.raises(ValueError, match="non-empty"):
            svd_truncated(np.zeros((2, 2)), 2, 0.0)

    def test_negative_or_nan_budget_raises(self):
        for budget in (-1.0, float("nan")):
            with pytest.raises(ValueError, match="budget"):
                svd_truncated(np.eye(2), 1, budget)

    def test_non_finite_entries_raise(self):
        bad = np.array([[1.0, np.nan], [0.0, 1.0]], dtype=complex)
        with pytest.raises(ValueError, match="non-finite"):
            svd_truncated(bad, 1, 0.0)

    def test_non_convergence_falls_back_to_conjugate_transpose(self, monkeypatch):
        rng = np.random.default_rng(16)
        t = random_complex(rng, (2, 3, 4))
        svd = np.linalg.svd
        calls = []

        def fail_first(mat, *args, **kwargs):
            calls.append(mat.shape)
            if len(calls) == 1:
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(mat, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", fail_first)
        res = svd_truncated(t, 1, 0.0)
        assert calls == [(2, 12), (12, 2)]
        approx = np.tensordot(res.left * res.singular_values, res.right, axes=(1, 0))
        assert np.abs(approx - t).max() < 1e-12
