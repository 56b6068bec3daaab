import numpy as np
import pytest

import okr
from okr import oel

from _oracles import (align_columns, build_explicit, kpca_scores, random_psd,
                      second_moment_eigs)


class TestAssemble:
    def test_supervised_only_block(self):
        rng = np.random.default_rng(0)
        n = 6
        A = random_psd(rng, n)
        K_y = random_psd(rng, n)
        mixed = oel.assemble_mixed_gram(A, K_y, c=1.0)
        np.testing.assert_allclose(mixed.K, (A @ K_y @ A.T) / n, atol=1e-12)
        assert mixed.m == 0 and mixed.size == n

    def test_unsupervised_only_block(self):
        rng = np.random.default_rng(1)
        n, m = 4, 7
        A = random_psd(rng, n)
        K_y = random_psd(rng, n)
        K_su = rng.standard_normal((n, m))
        K_uu = random_psd(rng, m)
        mixed = oel.assemble_mixed_gram(A, K_y, K_y_su=K_su, K_y_uu=K_uu, c=0.0)
        np.testing.assert_allclose(mixed.K[n:, n:], K_uu / m, atol=1e-12)
        assert np.all(mixed.K[:n, :] == 0.0)
        assert np.all(mixed.K[:, :n] == 0.0)

    def test_hand_1x1_blocks(self):
        a = 0.7
        mixed = oel.assemble_mixed_gram(np.array([[a]]), np.array([[1.0]]),
                                        K_y_su=np.array([[1.0]]),
                                        K_y_uu=np.array([[1.0]]), c=0.5)
        expect = np.array([[a * a / 2.0, a / 2.0], [a / 2.0, 0.5]])
        np.testing.assert_allclose(mixed.K, expect, atol=1e-15)

    def test_symmetric_output(self):
        rng = np.random.default_rng(2)
        n, m = 9, 5
        mixed = oel.assemble_mixed_gram(rng.standard_normal((n, n)),
                                        random_psd(rng, n),
                                        K_y_su=rng.standard_normal((n, m)),
                                        K_y_uu=random_psd(rng, m), c=0.4)
        assert np.array_equal(mixed.K, mixed.K.T)

    def test_m0_requires_c1(self):
        with pytest.raises(ValueError, match="requires c = 1"):
            oel.assemble_mixed_gram(np.eye(2), np.eye(2), c=0.5)

    def test_dimension_checks(self):
        with pytest.raises(ValueError, match="K_y_su"):
            oel.assemble_mixed_gram(np.eye(3), np.eye(3),
                                    K_y_su=np.ones((2, 4)), K_y_uu=np.eye(4), c=0.5)


class TestFit:
    def test_identity_gram(self):
        mixed = oel.assemble_mixed_gram(np.eye(2) * np.sqrt(2.0), np.eye(2), c=1.0)
        model = oel.fit_oel(mixed, p=2)
        certificate = model.beta.T @ mixed.K @ model.beta
        np.testing.assert_allclose(certificate, np.eye(2), atol=1e-12)

    def test_diag_hand_case(self):
        # fabricate a mixed gram equal to diag(4, 1): beta_1 = e1/2, K beta_1 = (2, 0)
        mixed = oel.MixedGram(K=np.diag([4.0, 1.0]), n=1, m=1, c=0.5,
                              scale_sup=np.sqrt(0.5), scale_unsup=np.sqrt(0.5),
                              alpha_train=np.eye(1), K_y_ss=np.eye(1),
                              K_y_su=np.eye(1))
        model = oel.fit_oel(mixed, p=1)
        np.testing.assert_allclose(model.beta, [[0.5], [0.0]], atol=1e-12)
        np.testing.assert_allclose(mixed.K @ model.beta, [[2.0], [0.0]], atol=1e-12)

    def test_orthonormality_certificate_random(self):
        rng = np.random.default_rng(3)
        for c, m in ((1.0, 0), (0.5, 12), (0.0, 12)):
            prob = build_explicit(rng, n=15, m=m, d_out=8, lam=0.1, c=c, p=5)
            model = prob.oel_model
            # rebuild the mixed gram via the library for the certificate
            A = okr.predict_alpha(prob.krr_model, prob.K_x)
            mixed = oel.assemble_mixed_gram(
                A, prob.Y @ prob.Y.T,
                K_y_su=None if not m else prob.Y @ prob.Y_unsup.T,
                K_y_uu=None if not m else prob.Y_unsup @ prob.Y_unsup.T, c=c)
            cert = model.beta.T @ mixed.K @ model.beta
            np.testing.assert_allclose(cert, np.eye(model.p), atol=1e-8)
            assert model.ortho_defect <= 1e-8

    def test_effective_p_reduction_warns(self):
        rng = np.random.default_rng(4)
        Y = rng.standard_normal((10, 2))         # rank-2 output features
        A = np.eye(10)
        mixed = oel.assemble_mixed_gram(A, Y @ Y.T, c=1.0)
        with pytest.warns(UserWarning, match="effective p = 2"):
            model = oel.fit_oel(mixed, p=6)
        assert model.p == 2

    def test_projection_idempotent_and_symmetric(self):
        rng = np.random.default_rng(5)
        prob = build_explicit(rng, n=20, m=10, d_out=6, lam=0.2, c=0.6, p=4)
        P = prob.P
        assert np.linalg.norm(P @ P - P) <= 1e-8
        assert np.linalg.norm(P - P.T) <= 1e-8

    def test_residual_matches_dropped_eigenvalue_mass(self):
        rng = np.random.default_rng(6)
        for trial in range(5):
            n, m, d = 12, 8, 7
            prob = build_explicit(rng, n=n, m=m, d_out=d, lam=0.15, c=0.5,
                                  p=min(3 + trial, d))
            model = prob.oel_model
            mu_all = second_moment_eigs(prob)
            expect = np.sum(mu_all[model.p:])
            # explicit residual: squared distance of every scaled spanning
            # vector to its projection
            resid = np.linalg.norm(prob.V - prob.P @ prob.V) ** 2
            assert abs(model.reconstruction_residual() - expect) <= 1e-8
            assert abs(resid - expect) <= 1e-8

    def test_residual_monotone_in_p(self):
        rng = np.random.default_rng(7)
        prob_res = []
        for p in range(1, 7):
            rng_p = np.random.default_rng(7)
            prob = build_explicit(rng_p, n=14, m=9, d_out=6, lam=0.1, c=0.4, p=p)
            prob_res.append(prob.oel_model.reconstruction_residual())
        assert all(prob_res[i] >= prob_res[i + 1] - 1e-12 for i in range(len(prob_res) - 1))

    def test_randomized_method_close_to_exact(self):
        rng = np.random.default_rng(8)
        n, m, d = 30, 20, 5
        exact = build_explicit(np.random.default_rng(8), n=n, m=m, d_out=d,
                               lam=0.1, c=0.5, p=3, method="exact")
        sketched = build_explicit(np.random.default_rng(8), n=n, m=m, d_out=d,
                                  lam=0.1, c=0.5, p=3, method="randomized", seed=5)
        np.testing.assert_allclose(sketched.oel_model.mu, exact.oel_model.mu,
                                   rtol=1e-8)


class TestEmbed:
    def test_zero_columns(self):
        rng = np.random.default_rng(9)
        prob = build_explicit(rng, n=8, m=4, d_out=5, lam=0.1, c=0.5, p=3)
        model = prob.oel_model
        Z = oel.embed_candidates(model, np.zeros((8, 3)), np.zeros((4, 3)))
        np.testing.assert_array_equal(Z, np.zeros((3, 3)))
        np.testing.assert_array_equal(oel.embed_tests(model, np.zeros((8, 2))),
                                      np.zeros((3, 2)))

    def test_candidate_embedding_matches_explicit(self):
        rng = np.random.default_rng(10)
        prob = build_explicit(rng, n=12, m=7, d_out=6, lam=0.2, c=0.6, p=4)
        model = prob.oel_model
        cands = rng.standard_normal((9, 6))
        C_s = prob.Y @ cands.T
        C_u = prob.Y_unsup @ cands.T
        Z = oel.embed_candidates(model, C_s, C_u)
        # oracle: G psi(y) = basis^T y in explicit feature space
        np.testing.assert_allclose(Z, prob.basis.T @ cands.T, atol=1e-8)

    def test_test_embedding_matches_explicit(self):
        rng = np.random.default_rng(11)
        prob = build_explicit(rng, n=12, m=7, d_out=6, lam=0.2, c=0.6, p=4)
        model = prob.oel_model
        kappa = prob.K_x[:, 2:5]
        A_test = okr.predict_alpha(prob.krr_model, kappa)
        Z = oel.embed_tests(model, A_test)
        np.testing.assert_allclose(Z, prob.basis.T @ prob.h_test(A_test), atol=1e-8)

    def test_unsup_training_point_reproduces_gy_row(self):
        rng = np.random.default_rng(12)
        n, m, d = 10, 6, 8
        prob = build_explicit(rng, n=n, m=m, d_out=d, lam=0.1, c=0.5, p=d)
        model = prob.oel_model
        j = 2
        C_s = prob.Y @ prob.Y_unsup[j:j + 1].T
        C_u = prob.Y_unsup @ prob.Y_unsup[j:j + 1].T
        Z = oel.embed_candidates(model, C_s, C_u)
        # training embedding K beta of the scaled spanning vectors, explicitly
        gy = prob.V.T @ prob.basis
        np.testing.assert_allclose(Z[:, 0] * model.scale_unsup, gy[n + j], atol=1e-8)

    def test_unit_alpha_column_equals_candidate_embedding(self):
        # alpha = e_i makes the test embedding exactly the embedding of y_i
        rng = np.random.default_rng(13)
        prob = build_explicit(rng, n=9, m=5, d_out=4, lam=0.05, c=0.7, p=3)
        model = prob.oel_model
        i = 4
        Z_test = oel.embed_tests(model, np.eye(9)[:, [i]])
        C_s = prob.Y @ prob.Y[i:i + 1].T
        C_u = prob.Y_unsup @ prob.Y[i:i + 1].T
        Z_cand = oel.embed_candidates(model, C_s, C_u)
        np.testing.assert_allclose(Z_test, Z_cand, atol=1e-10)

    def test_missing_unsup_columns_rejected(self):
        rng = np.random.default_rng(14)
        prob = build_explicit(rng, n=8, m=4, d_out=5, lam=0.1, c=0.5, p=3)
        with pytest.raises(ValueError, match="C_u is required"):
            oel.embed_candidates(prob.oel_model, np.zeros((8, 2)))

    def test_kernel_pca_reduction_at_c0(self):
        rng = np.random.default_rng(15)
        n, m, d, p = 8, 20, 6, 4
        prob = build_explicit(rng, n=n, m=m, d_out=d, lam=0.1, c=0.0, p=p)
        model = prob.oel_model
        K_uu = prob.Y_unsup @ prob.Y_unsup.T
        Z = oel.embed_candidates(model, prob.Y @ prob.Y_unsup.T, K_uu)
        scores = kpca_scores(K_uu, p)          # oracle: direct eigendecomposition
        np.testing.assert_allclose(align_columns(Z.T, scores), scores, atol=1e-8)


class TestSurrogateErrors:
    def test_matches_explicit_distance(self):
        rng = np.random.default_rng(16)
        prob = build_explicit(rng, n=11, m=6, d_out=5, lam=0.1, c=0.5, p=3)
        model = prob.oel_model
        Y_true = rng.standard_normal((4, 5))
        kappa = prob.K_x[:, :4]
        A_test = okr.predict_alpha(prob.krr_model, kappa)
        Z_test = oel.embed_tests(model, A_test)
        Z_true = oel.embed_candidates(model, prob.Y @ Y_true.T,
                                      prob.Y_unsup @ Y_true.T)
        errs = oel.surrogate_sq_errors(Z_test, Z_true,
                                       np.einsum("ij,ij->i", Y_true, Y_true))
        explicit = prob.project(prob.h_test(A_test)) - Y_true.T
        np.testing.assert_allclose(errs, np.einsum("ij,ij->j", explicit, explicit),
                                   atol=1e-8)
