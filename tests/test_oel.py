import numpy as np
import pytest

import okr
from okr import dataio, kernels, oel
from okr.decode import decode_oel

from _oracles import (align_columns, build_explicit, fit_dense, kpca_scores, random_psd,
                      second_moment_eigs)


LIN = kernels.KernelSpec("linear")


def _mixed(A, outputs, c):
    """The mixed Gram fit_oel decomposes, from blocks as fit_embedding
    computes them."""
    blocks = oel.mixed_gram_blocks(A, outputs.K_ss, outputs.K_su) if c > 0.0 else None
    return oel._mixed_gram(outputs, blocks, c)


class TestAssemble:
    # the mixed Gram fit_oel decomposes, from a linear output kernel on
    # explicit rows Y: K_y^ss = Y Y^T

    def test_supervised_only_block(self):
        rng = np.random.default_rng(0)
        n = 6
        A = random_psd(rng, n)
        Y = rng.standard_normal((n, 2 * n))
        K = _mixed(A, oel.OutputSet(LIN, Y), 1.0)
        np.testing.assert_allclose(K, (A @ (Y @ Y.T) @ A.T) / n, atol=1e-12)
        assert K.shape == (n, n)

    def test_unsupervised_only_block(self):
        rng = np.random.default_rng(1)
        n, m = 4, 7
        Y, Yu = rng.standard_normal((n, 14)), rng.standard_normal((m, 14))
        K = _mixed(random_psd(rng, n), oel.OutputSet(LIN, Y, Yu), 0.0)
        np.testing.assert_allclose(K[n:, n:], (Yu @ Yu.T) / m, atol=1e-12)
        assert np.all(K[:n, :] == 0.0)
        assert np.all(K[:, :n] == 0.0)

    def test_hand_1x1_blocks(self):
        a = 0.7
        one = np.array([[1.0]])
        K = _mixed(np.array([[a]]), oel.OutputSet(LIN, one, one), 0.5)
        expect = np.array([[a * a / 2.0, a / 2.0], [a / 2.0, 0.5]])
        np.testing.assert_allclose(K, expect, atol=1e-15)

    def test_symmetric_output(self):
        rng = np.random.default_rng(2)
        n, m = 9, 5
        outputs = oel.OutputSet(LIN, rng.standard_normal((n, 4)), rng.standard_normal((m, 4)))
        K = _mixed(rng.standard_normal((n, n)), outputs, 0.4)
        assert np.array_equal(K, K.T)

    def test_m0_requires_c1(self):
        with pytest.raises(ValueError, match="requires c = 1"):
            oel.fit_oel(_ridge(2), oel.OutputSet(LIN, np.eye(2)), np.eye(2), None, 1, c=0.5)

    def test_dimension_checks(self):
        outputs = oel.OutputSet(LIN, np.eye(3), np.ones((4, 3)))
        with pytest.raises(ValueError, match="A must be 3 x 3"):
            oel.fit_oel(_ridge(3), outputs, np.eye(2), None, 1, c=0.5)


def _ridge(n):
    """A ridge model on n points, for fits whose alpha matrix is made by
    hand: the fit only folds its test readout through it."""
    return okr.fit_krr(np.eye(n), 1.0)


class TestFit:
    def test_identity_gram(self):
        A, outputs = np.eye(2) * np.sqrt(2.0), oel.OutputSet(LIN, np.eye(2))
        model = fit_dense(_ridge(2), A, outputs, 2, 1.0)
        certificate = model.beta.T @ _mixed(A, outputs, 1.0) @ model.beta
        np.testing.assert_allclose(certificate, np.eye(2), atol=1e-12)

    def test_diag_hand_case(self):
        # outputs and alpha made so that the mixed gram is diag(4, 1):
        # beta_1 = e1/2, K beta_1 = (2, 0)
        A, outputs = np.array([[2.0]]), oel.OutputSet(LIN, np.array([[1.0, 1.0]]),
                                                      np.array([[1.0, -1.0]]))
        K = _mixed(A, outputs, 0.5)
        np.testing.assert_array_equal(K, np.diag([4.0, 1.0]))
        model = fit_dense(_ridge(1), A, outputs, 1, 0.5)
        np.testing.assert_allclose(model.beta, [[0.5], [0.0]], atol=1e-12)
        np.testing.assert_allclose(K @ model.beta, [[2.0], [0.0]], atol=1e-12)

    def test_orthonormality_certificate_random(self):
        rng = np.random.default_rng(3)
        for c, m in ((1.0, 0), (0.5, 12), (0.0, 12)):
            prob = build_explicit(rng, n=15, m=m, d_out=8, lam=0.1, c=c, p=5)
            model = prob.oel_model
            # the mixed gram of the explicit scaled spanning vectors
            cert = model.beta.T @ (prob.V.T @ prob.V) @ model.beta
            np.testing.assert_allclose(cert, np.eye(model.p), atol=1e-8)
            assert model.ortho_defect <= 1e-8

    def test_effective_p_reduction_warns(self):
        rng = np.random.default_rng(4)
        Y = rng.standard_normal((10, 2))         # rank-2 output features
        with pytest.warns(UserWarning, match="effective p = 2"):
            model = fit_dense(_ridge(10), np.eye(10), oel.OutputSet(LIN, Y), 6, 1.0)
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
        np.testing.assert_array_equal(oel.embed_inputs(model, np.zeros((8, 2))),
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
        # oracle: the explicit prediction h(x) projected on the basis
        A_test = okr.predict_alpha(prob.krr_model, kappa)
        Z = oel.embed_inputs(model, kappa)
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
        # the kernel column kappa = (K_x + n lambda I) e_i has alpha = e_i,
        # which makes the test embedding exactly the embedding of y_i
        rng = np.random.default_rng(13)
        prob = build_explicit(rng, n=9, m=5, d_out=4, lam=0.05, c=0.7, p=3)
        model = prob.oel_model
        i = 4
        kappa = (prob.K_x + 9 * prob.lam * np.eye(9))[:, [i]]
        Z_test = oel.embed_inputs(model, kappa)
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
    outputs: the factor has rank 184 of 1200)."""

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
        outputs = oel.OutputSet(self.GY, ds.y_sup, ds.y_unsup)
        factored = oel.fit_embedding(krr_model, K_cols, outputs, p, c)
        A = okr.predict_alpha(krr_model, kappa_train)
        dense = fit_dense(krr_model, A, outputs, p, c)
        return ds, outputs.factor, kappa_test, factored, dense

    @pytest.mark.parametrize("nystrom", [False, True], ids=["exact", "nystrom"])
    def test_matches_dense_path(self, nystrom):
        ds, factor, kappa_test, factored, dense = self._fits(nystrom)
        assert factored.eigensolver == f"pivoted_cholesky r={factor.r}"
        np.testing.assert_allclose(factored.mu, dense.mu, rtol=0, atol=1e-12 * dense.mu[0])
        norms = kernels.self_norms(self.GY, ds.candidates)
        runs = []
        for model in (factored, dense):
            Y_ref = model.reference_outputs(ds.y_sup, ds.y_unsup)
            Z_cand = oel.embed_candidates(model, kernels.gram(self.GY, Y_ref, ds.candidates))
            runs.append(decode_oel(oel.embed_inputs(model, kappa_test), Z_cand, norms, k=10))
        (ids_a, scores_a), (ids_b, scores_b) = runs
        np.testing.assert_array_equal(ids_a, ids_b)
        np.testing.assert_allclose(scores_a, scores_b, rtol=0, atol=1e-10)

    def test_readouts_read_the_pivots(self):
        ds, factor, _, model, _ = self._fits(False)
        r = factor.r
        assert model.R.shape == (32, r) and model.T_x.shape == (32, 600)
        np.testing.assert_array_equal(model.ref_rows, factor.pivots)
        assert model.eigensolver == f"pivoted_cholesky r={r}"
        assert model.ortho_defect <= 1e-10
        # a training output embeds through R as the test input whose alpha
        # column is e_i does through T_x: kappa = (K_x + n lambda I) e_i
        Y_ref = model.reference_outputs(ds.y_sup, ds.y_unsup)
        Z = oel.embed_candidates(model, kernels.gram(self.GY, Y_ref, ds.y_sup[:5]))
        shifted = kernels.gram(self.GX, ds.x, ds.x[:5]) + 600 * 1e-4 * np.eye(600)[:, :5]
        np.testing.assert_allclose(Z, oel.embed_inputs(model, shifted), atol=1e-8)

    def test_p_not_below_rank_rejected(self):
        rng = np.random.default_rng(30)
        Y = rng.standard_normal((20, 3))
        factor = oel.factor_outputs(kernels.KernelSpec("linear"), Y)
        assert factor.r == 3
        with pytest.raises(ValueError, match=r"p must be in \[1, r\)"):
            oel.fit_oel_factored(_ridge(20), factor, factor.F_s, p=3)

    def test_fingerprint_outputs_fall_back(self):
        # random fingerprints have a full-rank tanimoto Gram: the factor
        # passes its rank cap and the exact method keeps the dense path
        rng = np.random.default_rng(31)
        Y = (rng.random((1500, 64)) < 0.3).astype(float)
        outputs = oel.OutputSet(kernels.KernelSpec("tanimoto"), Y[:750], Y[750:])
        K_x = random_psd(rng, 750)
        model = oel.fit_embedding(okr.fit_krr(K_x, 0.1), K_x, outputs, 8, 0.5)
        assert outputs.factor is None
        assert model.eigensolver == "krylov" and model.R.shape == (8, 1500)


class TestFitEmbedding:
    """oel.fit_embedding, the one place that picks the factored or the dense
    path, on a linear output kernel whose rank is known exactly."""

    LIN = kernels.KernelSpec("linear")

    @staticmethod
    def _ridge(n, seed=0):
        K_x = random_psd(np.random.default_rng(seed), n)
        return okr.fit_krr(K_x, 0.1), K_x

    @pytest.mark.parametrize("extra, path", [(0, "pivoted_cholesky r=20"), (1, "eigh")],
                             ids=["rank_at_cap", "rank_over_cap"])
    def test_rank_cap_decides_the_path(self, extra, path):
        # one-hot outputs over d labels: the linear output Gram has rank d,
        # with exact 0/1 entries; the factor of n + m = 60 outputs is capped
        # at rank 20 (the dense path runs eigh below the Krylov size)
        n, m = 40, 20
        d = int(oel.FACTOR_MAX_RANK_FRACTION * (n + m)) + extra
        Y = np.eye(d)[np.arange(n + m) % d]
        krr_model, K_x = self._ridge(n)
        outputs = oel.OutputSet(self.LIN, Y[:n], Y[n:])
        model = oel.fit_embedding(krr_model, K_x, outputs, 4, 0.5)
        assert model.eigensolver == path
        assert (outputs.factor is None) == bool(extra)

    @pytest.mark.parametrize("p, path", [(2, "pivoted_cholesky r=3"), (3, "eigh")])
    def test_p_not_below_rank_is_dense(self, p, path):
        rng = np.random.default_rng(32)
        Y = rng.standard_normal((30, 3))
        krr_model, K_x = self._ridge(20)
        model = oel.fit_embedding(krr_model, K_x, oel.OutputSet(self.LIN, Y[:20], Y[20:]),
                                  p, 0.5)
        assert model.eigensolver == path
        assert model.R.shape[1] == (3 if p < 3 else 30)

    def test_randomized_never_factors(self, monkeypatch):
        def no_factor(*args, **kwargs):
            raise AssertionError("factor_outputs called for the randomized method")

        monkeypatch.setattr(oel, "factor_outputs", no_factor)
        rng = np.random.default_rng(33)
        Y = rng.standard_normal((30, 3))
        krr_model, K_x = self._ridge(20)
        model = oel.fit_embedding(krr_model, K_x, oel.OutputSet(self.LIN, Y[:20], Y[20:]),
                                  2, 0.5, method="randomized", seed=1)
        assert model.eigensolver == "randomized"
        assert model.R.shape[1] == 30

    def test_unknown_method_rejected(self):
        krr_model, K_x = self._ridge(5)
        outputs = oel.OutputSet(self.LIN, np.eye(5))
        with pytest.raises(ValueError, match="unknown method"):
            oel.fit_embedding(krr_model, K_x, outputs, 1, method="lanczos")

    def test_products_memo_reused(self, monkeypatch):
        # a products memo kept with the ridge model serves A F_s (factored
        # path), or A and the mixed Gram blocks (dense path), to every fit on
        # the same outputs; a new output set gets its own
        calls = {"train_alpha_times": 0, "predict_alpha": 0, "mixed_gram_blocks": 0}
        for name in calls:
            def counted(*a, _real=getattr(oel, name), _name=name):
                calls[_name] += 1
                return _real(*a)
            monkeypatch.setattr(oel, name, counted)
        rng = np.random.default_rng(34)
        Y = rng.standard_normal((30, 4))
        krr_model, K_x = self._ridge(20)
        outputs = oel.OutputSet(self.LIN, Y[:20], Y[20:])
        products = {}
        fits = [oel.fit_embedding(krr_model, K_x, outputs, p, 0.5, products=products)
                for p in (1, 2, 3)]
        assert calls["train_alpha_times"] == 1
        oel.fit_embedding(krr_model, K_x, oel.OutputSet(self.LIN, Y[:20], Y[20:]), 2, 0.5,
                          products=products)
        assert calls["train_alpha_times"] == 2
        fresh = oel.fit_embedding(krr_model, K_x, outputs, 2, 0.5)
        np.testing.assert_array_equal(fresh.R, fits[1].R)

        # the dense path: p >= r = 4, and the randomized method; the blocks
        # serve every c > 0, and c = 0 reads none
        assert calls["predict_alpha"] == calls["mixed_gram_blocks"] == 0
        for p, method in ((4, "exact"), (2, "randomized")):
            products = {}
            fits = {c: oel.fit_embedding(krr_model, K_x, outputs, p, c, method=method, seed=1,
                                         products=products)
                    for c in (0.5, 1.0, 0.0)}
            assert calls["predict_alpha"] == calls["mixed_gram_blocks"] == 1
            for c, fit in fits.items():
                fresh = oel.fit_embedding(krr_model, K_x, outputs, p, c, method=method, seed=1)
                assert fresh.eigensolver == fit.eigensolver == ("eigh" if p == 4 else method)
                for name in ("R", "T_x", "mu"):
                    assert getattr(fresh, name).tobytes() == getattr(fit, name).tobytes()
            assert calls["predict_alpha"] == 4 and calls["mixed_gram_blocks"] == 3
            calls.update(predict_alpha=0, mixed_gram_blocks=0)


class TestSurrogateErrors:
    def test_matches_explicit_distance(self):
        rng = np.random.default_rng(16)
        prob = build_explicit(rng, n=11, m=6, d_out=5, lam=0.1, c=0.5, p=3)
        model = prob.oel_model
        Y_true = rng.standard_normal((4, 5))
        kappa = prob.K_x[:, :4]
        A_test = okr.predict_alpha(prob.krr_model, kappa)
        Z_test = oel.embed_inputs(model, kappa)
        Z_true = oel.embed_candidates(
            model, model.reference_outputs(prob.Y, prob.Y_unsup) @ Y_true.T)
        errs = oel.surrogate_sq_errors(Z_test, Z_true,
                                       np.einsum("ij,ij->i", Y_true, Y_true))
        explicit = prob.project(prob.h_test(A_test)) - Y_true.T
        np.testing.assert_allclose(errs, np.einsum("ij,ij->j", explicit, explicit),
                                   atol=1e-8)
