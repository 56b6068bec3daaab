import numpy as np
import pytest

from okr import krr

from _oracles import random_psd


class TestFitExact:
    def test_scalar_weight(self):
        model = krr.fit_krr(np.array([[1.0]]), 1.0)
        # alpha = kappa / (1 + 1*1) = 0.5 kappa
        np.testing.assert_allclose(krr.predict_alpha(model, np.array([1.0])), [0.5])

    def test_identity_gram_weights(self):
        # K = I: alpha = kappa / (1 + n*lambda) for every column of kappa
        n, lam = 5, 0.3
        model = krr.fit_krr(np.eye(n), lam)
        np.testing.assert_allclose(krr.predict_alpha(model, np.eye(n)),
                                   np.eye(n) / (1 + n * lam), atol=1e-12)

    def test_large_lambda_shrinks_alpha(self):
        rng = np.random.default_rng(0)
        K = random_psd(rng, 10)
        kappa = rng.standard_normal(10)
        lam = 1e6
        alpha = krr.predict_alpha(krr.fit_krr(K, lam), kappa)
        assert np.linalg.norm(alpha) <= np.linalg.norm(kappa) / (10 * lam) * 1.01

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ValueError, match="lambda"):
            krr.fit_krr(np.eye(2), 0.0)


class TestPredictAlpha:
    def test_interpolation_limit(self):
        rng = np.random.default_rng(1)
        K = random_psd(rng, 8) + 0.5 * np.eye(8)
        model = krr.fit_krr(K, 1e-10)
        alpha = krr.predict_alpha(model, K[:, 3])
        np.testing.assert_allclose(alpha, np.eye(8)[3], atol=1e-6)

    def test_zero_column(self):
        model = krr.fit_krr(np.eye(3), 0.5)
        np.testing.assert_array_equal(krr.predict_alpha(model, np.zeros(3)), np.zeros(3))

    def test_diagonal_hand_solve(self):
        # n=2, K=I, lambda=0.5: alpha = kappa / (1 + 2*0.5)
        model = krr.fit_krr(np.eye(2), 0.5)
        np.testing.assert_allclose(krr.predict_alpha(model, np.array([1.0, 0.0])),
                                   [0.5, 0.0], atol=1e-14)

    def test_row_count_checked(self):
        model = krr.fit_krr(np.eye(3), 0.1)
        with pytest.raises(ValueError, match="rows"):
            krr.predict_alpha(model, np.zeros((4, 2)))

    def test_surrogate_identity_vs_explicit_ridge(self):
        # with linear kernels on both sides, sum_i alpha_i(x) y_i must equal
        # the primal ridge regression prediction W^T x
        rng = np.random.default_rng(2)
        n, d_in, d_out, lam = 30, 4, 3, 0.05
        X = rng.standard_normal((n, d_in))
        Y = rng.standard_normal((n, d_out))
        X_test = rng.standard_normal((7, d_in))
        model = krr.fit_krr(X @ X.T, lam)
        alpha = krr.predict_alpha(model, X @ X_test.T)
        dual_pred = alpha.T @ Y
        W = np.linalg.solve(X.T @ X + n * lam * np.eye(d_in), X.T @ Y)
        np.testing.assert_allclose(dual_pred, X_test @ W, atol=1e-8)

    def test_surrogate_sq_errors_match_explicit(self):
        rng = np.random.default_rng(4)
        n, d_out = 20, 3
        X = rng.standard_normal((n, 5))
        Y = rng.standard_normal((n, d_out))
        X_va = rng.standard_normal((6, 5))
        Y_va = rng.standard_normal((6, d_out))
        model = krr.fit_krr(X @ X.T, 0.1)
        alpha = krr.predict_alpha(model, X @ X_va.T)
        errs = krr.surrogate_sq_errors(alpha, Y @ Y.T, Y @ Y_va.T,
                                       np.einsum("ij,ij->i", Y_va, Y_va))
        explicit = np.einsum("ij,ij->j", Y.T @ alpha - Y_va.T, Y.T @ alpha - Y_va.T)
        np.testing.assert_allclose(errs, explicit, atol=1e-10)


class TestNystrom:
    def test_all_anchors_recover_exact(self):
        rng = np.random.default_rng(5)
        n, lam = 30, 0.2
        K = random_psd(rng, n)
        exact = krr.fit_krr(K, lam)
        nys = krr.fit_krr_nystrom(K, K, lam, np.arange(n))
        kappa = random_psd(rng, n)[:, :4]
        np.testing.assert_allclose(krr.predict_alpha(nys, kappa),
                                   krr.predict_alpha(exact, kappa), atol=1e-8)

    def test_single_anchor_on_rank_one_gram(self):
        rng = np.random.default_rng(6)
        n, lam = 15, 0.1
        v = rng.standard_normal(n) + 2.0
        K = np.outer(v, v)
        exact = krr.fit_krr(K, lam)
        anchors = np.array([0])
        nys = krr.fit_krr_nystrom(K[:, anchors], K[np.ix_(anchors, anchors)],
                                  lam, anchors)
        kappa_exact = K[:, 5]
        kappa_nys = K[anchors, 5]
        np.testing.assert_allclose(krr.predict_alpha(nys, kappa_nys),
                                   krr.predict_alpha(exact, kappa_exact), atol=1e-8)

    def test_duplicate_anchors_rejected(self):
        K = np.eye(4)
        with pytest.raises(ValueError, match="duplicate"):
            krr.fit_krr_nystrom(K[:, [0, 0]], K[np.ix_([0, 0], [0, 0])], 0.1,
                                np.array([0, 0]))

    def test_error_nonincreasing_on_nested_anchor_sets(self):
        rng = np.random.default_rng(7)
        n, lam = 60, 0.05
        X = rng.standard_normal((n, 6))
        K = np.exp(-0.5 * ((X[:, None, :] - X[None, :, :]) ** 2).sum(-1))
        Y = rng.standard_normal((n, 2))
        kappa = K[:, :10]
        exact_alpha = krr.predict_alpha(krr.fit_krr(K, lam), kappa)
        target = Y.T @ exact_alpha
        order = rng.permutation(n)
        errors = []
        for q in (10, 25, 45, 60):
            anchors = np.sort(order[:q])
            nys = krr.fit_krr_nystrom(K[:, anchors], K[np.ix_(anchors, anchors)],
                                      lam, anchors)
            pred = Y.T @ krr.predict_alpha(nys, kappa[anchors, :])
            errors.append(np.linalg.norm(pred - target))
        assert all(errors[i] >= errors[i + 1] - 1e-10 for i in range(len(errors) - 1))

    def test_anchor_selection_deterministic(self):
        a = krr.select_anchors(100, 10, seed=42)
        b = krr.select_anchors(100, 10, seed=42)
        c = krr.select_anchors(100, 10, seed=43)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert np.unique(a).size == 10
