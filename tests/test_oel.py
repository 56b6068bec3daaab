import numpy as np
import pytest

import okr
from okr import dataio, kernels, krr, oel
from okr.decode import decode_oel

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
        Z = oel.embed_candidates(model, np.zeros((12, 3)))
        np.testing.assert_array_equal(Z, np.zeros((3, 3)))
        np.testing.assert_array_equal(oel.embed_tests(model, np.zeros((8, 2))),
                                      np.zeros((3, 2)))

    def test_candidate_embedding_matches_explicit(self):
        rng = np.random.default_rng(10)
        prob = build_explicit(rng, n=12, m=7, d_out=6, lam=0.2, c=0.6, p=4)
        model = prob.oel_model
        cands = rng.standard_normal((9, 6))
        Z = oel.embed_candidates(model, model.reference_outputs(prob.Y, prob.Y_unsup) @ cands.T)
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
        Y_ref = model.reference_outputs(prob.Y, prob.Y_unsup)
        Z = oel.embed_candidates(model, Y_ref @ prob.Y_unsup[j:j + 1].T)
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
        Y_ref = model.reference_outputs(prob.Y, prob.Y_unsup)
        Z_cand = oel.embed_candidates(model, Y_ref @ prob.Y[i:i + 1].T)
        np.testing.assert_allclose(Z_test, Z_cand, atol=1e-10)

    def test_missing_unsup_columns_rejected(self):
        rng = np.random.default_rng(14)
        prob = build_explicit(rng, n=8, m=4, d_out=5, lam=0.1, c=0.5, p=3)
        # the reference outputs are the 8 supervised then 4 unsupervised ones
        with pytest.raises(ValueError, match="C has 8 rows, expected 12"):
            oel.embed_candidates(prob.oel_model, np.zeros((8, 2)))

    def test_kernel_pca_reduction_at_c0(self):
        rng = np.random.default_rng(15)
        n, m, d, p = 8, 20, 6, 4
        prob = build_explicit(rng, n=n, m=m, d_out=d, lam=0.1, c=0.0, p=p)
        model = prob.oel_model
        K_uu = prob.Y_unsup @ prob.Y_unsup.T
        Z = oel.embed_candidates(model, np.vstack([prob.Y @ prob.Y_unsup.T, K_uu]))
        scores = kpca_scores(K_uu, p)          # oracle: direct eigendecomposition
        np.testing.assert_allclose(align_columns(Z.T, scores), scores, atol=1e-8)


class TestFactored:
    """The factored fit against the dense mixed-Gram path, on the remark1
    outputs under a Gaussian kernel (the benchmark's kernels at 600 + 600
    outputs: the factor has rank 179 of 1200)."""

    GX = kernels.KernelSpec("gaussian", sigma2=1.0)
    GY = kernels.KernelSpec("gaussian", sigma2=4.0)

    def _fits(self, nystrom, n=600, p=32, c=0.5, lam=1e-4):
        ds = dataio.synth_remark1(n, n, 200, 1.0, 4.0, seed=8)
        K_x = kernels.gram(self.GX, ds.x)
        if nystrom:
            anchors = okr.select_anchors(n, 150, seed=1)
            K_cols = K_x[:, anchors]
            krr_model = okr.fit_krr_nystrom(K_cols, K_x[np.ix_(anchors, anchors)], lam,
                                            anchors)
            kappa_train = K_cols.T
            kappa_test = kernels.gram(self.GX, ds.x[anchors], ds.x_test)
        else:
            K_cols = kappa_train = K_x
            krr_model = okr.fit_krr(K_x, lam)
            kappa_test = kernels.gram(self.GX, ds.x, ds.x_test)
        factor = oel.factor_outputs(self.GY, ds.y_sup, ds.y_unsup)
        assert oel.takes_factored_path(factor, p)
        factored = oel.fit_oel_factored(
            factor, krr.train_alpha_times(krr_model, K_cols, factor.F_s), p, c)
        mixed = oel.assemble_mixed_gram(
            okr.predict_alpha(krr_model, kappa_train), kernels.gram(self.GY, ds.y_sup),
            K_y_su=kernels.gram(self.GY, ds.y_sup, ds.y_unsup),
            K_y_uu=kernels.gram(self.GY, ds.y_unsup), c=c)
        dense = oel.fit_oel(mixed, p)
        return ds, factor, okr.predict_alpha(krr_model, kappa_test), factored, dense

    @pytest.mark.parametrize("nystrom", [False, True], ids=["exact", "nystrom"])
    def test_matches_dense_path(self, nystrom):
        ds, factor, A_test, factored, dense = self._fits(nystrom)
        np.testing.assert_allclose(factored.mu, dense.mu, rtol=0, atol=1e-12 * dense.mu[0])
        norms = kernels.self_norms(self.GY, ds.candidates)
        runs = []
        for model in (factored, dense):
            Y_ref = model.reference_outputs(ds.y_sup, ds.y_unsup)
            Z_cand = oel.embed_candidates(model, kernels.gram(self.GY, Y_ref, ds.candidates))
            runs.append(decode_oel(oel.embed_tests(model, A_test), Z_cand, norms, k=10))
        (ids_a, scores_a), (ids_b, scores_b) = runs
        np.testing.assert_array_equal(ids_a, ids_b)
        np.testing.assert_allclose(scores_a, scores_b, rtol=0, atol=1e-10)

    def test_readouts_read_the_pivots(self):
        ds, factor, _, model, _ = self._fits(False)
        r = factor.r
        assert model.R.shape == (32, r) and model.T.shape == (32, 600)
        np.testing.assert_array_equal(model.ref_rows, factor.pivots)
        assert model.eigensolver == f"pivoted_cholesky r={r}"
        assert model.ortho_defect <= 1e-10
        # a training output embeds through R exactly as its factor row does
        Y_ref = model.reference_outputs(ds.y_sup, ds.y_unsup)
        Z = oel.embed_candidates(model, kernels.gram(self.GY, Y_ref, ds.y_sup[:5]))
        np.testing.assert_allclose(Z, model.T @ np.eye(600)[:, :5], atol=1e-8)

    def test_p_not_below_rank_rejected(self):
        rng = np.random.default_rng(30)
        Y = rng.standard_normal((20, 3))
        factor = oel.factor_outputs(kernels.KernelSpec("linear"), Y)
        assert factor.r == 3 and not oel.takes_factored_path(factor, 3)
        with pytest.raises(ValueError, match=r"p must be in \[1, r\)"):
            oel.fit_oel_factored(factor, factor.F_s, p=3)

    def test_fingerprint_outputs_fall_back(self):
        # random fingerprints have a full-rank tanimoto Gram: the factor
        # passes its rank cap and the exact method keeps the dense path
        rng = np.random.default_rng(31)
        Y = (rng.random((300, 64)) < 0.3).astype(float)
        assert oel.factor_outputs(kernels.KernelSpec("tanimoto"), Y[:150], Y[150:]) is None
        assert not oel.takes_factored_path(None, 8)


class TestSurrogateErrors:
    def test_matches_explicit_distance(self):
        rng = np.random.default_rng(16)
        prob = build_explicit(rng, n=11, m=6, d_out=5, lam=0.1, c=0.5, p=3)
        model = prob.oel_model
        Y_true = rng.standard_normal((4, 5))
        kappa = prob.K_x[:, :4]
        A_test = okr.predict_alpha(prob.krr_model, kappa)
        Z_test = oel.embed_tests(model, A_test)
        Z_true = oel.embed_candidates(
            model, model.reference_outputs(prob.Y, prob.Y_unsup) @ Y_true.T)
        errs = oel.surrogate_sq_errors(Z_test, Z_true,
                                       np.einsum("ij,ij->i", Y_true, Y_true))
        explicit = prob.project(prob.h_test(A_test)) - Y_true.T
        np.testing.assert_allclose(errs, np.einsum("ij,ij->j", explicit, explicit),
                                   atol=1e-8)
