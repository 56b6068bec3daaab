import numpy as np
import pytest
import scipy.sparse.linalg

from okr import linalg

from _oracles import random_psd


class TestRegularizedSolver:
    def test_scalar_case(self):
        solver = linalg.solve_regularized(np.array([[1.0]]), 1.0)
        np.testing.assert_allclose(solver.solve(np.array([1.0])), [0.5])

    def test_pure_shift(self):
        solver = linalg.solve_regularized(np.zeros((2, 2)), 2.0)
        np.testing.assert_allclose(solver.solve(np.eye(2)), 0.5 * np.eye(2))

    def test_hand_inverse_2x2(self):
        # (K + I) = [[3,1],[1,3]], inverse = [[3,-1],[-1,3]]/8
        solver = linalg.solve_regularized(np.array([[2.0, 1.0], [1.0, 2.0]]), 1.0)
        np.testing.assert_allclose(solver.solve(np.array([1.0, 1.0])), [0.25, 0.25],
                                   atol=1e-14)

    def test_roundtrip_identity(self):
        rng = np.random.default_rng(0)
        K = random_psd(rng, 30)
        a = 0.3
        solver = linalg.solve_regularized(K, a)
        v = rng.standard_normal(30)
        back = solver.solve((K + a * np.eye(30)) @ v)
        assert np.linalg.norm(back - v) <= 1e-8 * np.linalg.norm(v)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            linalg.solve_regularized(np.array([[1.0, 2.0], [0.0, 1.0]]), 1.0)

    @pytest.mark.parametrize("i, j", [(0, 599), (300, 299), (599, 512)])
    def test_rejects_nonsymmetric_in_any_block(self, i, j):
        K = random_psd(np.random.default_rng(2), 600, dim_factor=0.1)
        linalg.check_symmetric(K)
        K[i, j] += 1e-6
        with pytest.raises(ValueError, match="not symmetric"):
            linalg.check_symmetric(K)

    def test_rejects_nonpositive_shift(self):
        with pytest.raises(ValueError, match="positive"):
            linalg.solve_regularized(np.eye(2), 0.0)

    def test_indefinite_reports_pivot(self):
        K = np.diag([1.0, -5.0])
        with pytest.raises(linalg.NumericalError, match="minor"):
            linalg.solve_regularized(K, 0.5)

    def test_from_factor_is_bit_exact(self):
        rng = np.random.default_rng(1)
        K = random_psd(rng, 12)
        solver = linalg.solve_regularized(K, 0.7)
        clone = linalg.RegularizedSolver.from_factor(solver.factor.copy(), solver.shift)
        B = rng.standard_normal((12, 3))
        assert np.array_equal(solver.solve(B), clone.solve(B))


class TestEigExact:
    def test_diagonal(self):
        pair = linalg.eig_topk_exact(np.diag([3.0, 1.0]), 1)
        np.testing.assert_allclose(pair.values, [3.0])
        np.testing.assert_allclose(np.abs(pair.vectors[:, 0]), [1.0, 0.0], atol=1e-14)

    def test_degenerate_spectrum(self):
        pair = linalg.eig_topk_exact(np.eye(3), 2)
        np.testing.assert_allclose(pair.values, [1.0, 1.0])
        np.testing.assert_allclose(pair.vectors.T @ pair.vectors, np.eye(2), atol=1e-12)

    def test_hand_2x2(self):
        pair = linalg.eig_topk_exact(np.array([[2.0, 1.0], [1.0, 2.0]]), 2)
        np.testing.assert_allclose(pair.values, [3.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(np.abs(pair.vectors[:, 0]),
                                   np.full(2, 1 / np.sqrt(2)), atol=1e-12)

    def test_p_out_of_range(self):
        with pytest.raises(ValueError, match="p must be"):
            linalg.eig_topk_exact(np.eye(3), 4)
        with pytest.raises(ValueError, match="p must be"):
            linalg.eig_topk_exact(np.eye(3), 0)

    def test_sign_convention(self):
        # largest-magnitude entry of every eigenvector is positive
        rng = np.random.default_rng(3)
        K = random_psd(rng, 15)
        pair = linalg.eig_topk_exact(K, 6)
        for col in pair.vectors.T:
            assert col[np.argmax(np.abs(col))] > 0

    def test_too_negative_eigenvalue_raises(self):
        with pytest.raises(linalg.NumericalError, match="not PSD"):
            linalg.eig_topk_exact(np.diag([1.0, -0.5]), 2)

    def test_reconstruction_residual_identity(self):
        # ||K - U diag(mu) U^T||_F equals sqrt(sum of squared dropped eigenvalues)
        rng = np.random.default_rng(4)
        for n in (5, 12, 30):
            K = random_psd(rng, n)
            full = np.sort(np.linalg.eigvalsh(K))[::-1]
            for p in range(1, n + 1):
                pair = linalg.eig_topk_exact(K, p)
                recon = pair.vectors @ np.diag(pair.values) @ pair.vectors.T
                err = np.linalg.norm(K - recon)
                expect = np.sqrt(np.sum(full[p:] ** 2))
                assert abs(err - expect) <= 1e-8


class TestEigExactLanczos:
    """Sizes here take the Lanczos path (N >= 200, p <= 1.5 sqrt(N))."""

    N, P = 300, 12

    @staticmethod
    def _eigh_path(monkeypatch, K, p):
        # the same function with the size rule sending every shape to eigh
        with monkeypatch.context() as m:
            m.setattr(linalg, "LANCZOS_MIN_DIM", 10 ** 9)
            return linalg.eig_topk_exact(K, p)

    def _assert_same_subspace(self, pair, ref, p):
        np.testing.assert_allclose(pair.values, ref.values, rtol=1e-12, atol=1e-14)
        P_a = pair.vectors[:, :p] @ pair.vectors[:, :p].T
        P_b = ref.vectors[:, :p] @ ref.vectors[:, :p].T
        assert np.max(np.abs(P_a - P_b)) <= 1e-10

    def test_size_rule(self):
        rng = np.random.default_rng(11)
        K = random_psd(rng, self.N)
        assert linalg.eig_topk_exact(K, 25).solver == "lanczos"
        assert linalg.eig_topk_exact(K, 26).solver == "eigh"     # 26 > 1.5 sqrt(300)
        assert linalg.eig_topk_exact(K[:199, :199], 4).solver == "eigh"

    def test_matches_eigh_random_psd(self, monkeypatch):
        K = random_psd(np.random.default_rng(12), self.N)
        pair = linalg.eig_topk_exact(K, self.P)
        assert pair.solver == "lanczos"
        self._assert_same_subspace(pair, self._eigh_path(monkeypatch, K, self.P), self.P)

    def test_tie_between_p_and_p_plus_1(self, monkeypatch):
        # mu_p = mu_{p+1}: the values are unique, the top p - 1 eigenvectors
        # too, and the p-th must lie in the two-dimensional tied eigenspace
        p = self.P
        vals = 1.0 / np.arange(1, self.N + 1) ** 2
        vals[p] = vals[p - 1]
        K, Q = psd_with_spectrum(vals, seed=13)
        pair = linalg.eig_topk_exact(K, p)
        assert pair.solver == "lanczos"
        self._assert_same_subspace(pair, self._eigh_path(monkeypatch, K, p), p - 1)
        tied = Q[:, p - 1:p + 1]
        u = pair.vectors[:, p - 1]
        assert np.linalg.norm(u - tied @ (tied.T @ u)) <= 1e-10

    def test_bit_identical_repeats(self):
        K = random_psd(np.random.default_rng(14), self.N)
        a = linalg.eig_topk_exact(K, self.P)
        b = linalg.eig_topk_exact(K, self.P)
        assert a.solver == b.solver == "lanczos"
        assert a.values.tobytes() == b.values.tobytes()
        assert a.vectors.tobytes() == b.vectors.tobytes()

    def test_no_convergence_falls_back_to_eigh(self, monkeypatch):
        K = random_psd(np.random.default_rng(15), self.N)
        ref = self._eigh_path(monkeypatch, K, self.P)

        def no_convergence(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", [], [])

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
        pair = linalg.eig_topk_exact(K, self.P)
        assert pair.solver == "eigh"
        assert np.array_equal(pair.values, ref.values)
        assert np.array_equal(pair.vectors, ref.vectors)

    def test_bad_residual_falls_back_to_eigh(self, monkeypatch):
        K = random_psd(np.random.default_rng(16), self.N)
        ref = self._eigh_path(monkeypatch, K, self.P)
        real_eigsh = scipy.sparse.linalg.eigsh

        def perturbed(*args, **kwargs):
            w, V = real_eigsh(*args, **kwargs)
            V = V.copy()
            V[:, -1] += 1e-6 * np.random.default_rng(0).standard_normal(V.shape[0])
            return w, V

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", perturbed)
        pair = linalg.eig_topk_exact(K, self.P)
        assert pair.solver == "eigh"
        assert np.array_equal(pair.values, ref.values)
        assert np.array_equal(pair.vectors, ref.vectors)

    def test_missed_repeated_eigenvalue_falls_back_to_eigh(self):
        # single-vector Lanczos finds only some copies of a 10-fold top
        # eigenvalue; each Ritz pair it returns is exact, so only the
        # deflation check can tell
        vals = np.concatenate([np.full(10, 5.0), 1.0 / np.arange(2, self.N - 8) ** 2])
        K, _ = psd_with_spectrum(vals, seed=17)
        pair = linalg.eig_topk_exact(K, 10)
        assert pair.solver == "eigh"
        np.testing.assert_allclose(pair.values, np.full(10, 5.0), rtol=1e-12)


def psd_with_spectrum(vals, seed=0):
    """PSD matrix Q diag(vals) Q^T with a random orthogonal Q; returns (K, Q)."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((vals.size, vals.size)))
    K = (Q * vals) @ Q.T
    return 0.5 * (K + K.T), Q


def decaying_psd(dim, r, seed=0, gap_at=None, gap=0.1):
    """PSD matrix with spectrum j^(-r), optionally with an extra spectral gap
    after position gap_at (so sigma_{p+1}/sigma_p <= gap * ((p+1)/p)^-r)."""
    vals = np.arange(1, dim + 1, dtype=float) ** (-float(r))
    if gap_at is not None:
        vals[gap_at:] *= gap
    return psd_with_spectrum(vals, seed)[0], vals


class TestEigRandomized:
    def test_separated_spectrum_close_to_exact(self):
        K, _ = decaying_psd(40, 3.0, seed=5, gap_at=2)
        exact = linalg.eig_topk_exact(K, 2)
        approx = linalg.eig_topk_randomized(K, 2, oversample=1, power_iters=2, seed=9)
        np.testing.assert_allclose(approx.values, exact.values, rtol=1e-6)

    def test_small_diagonal_case(self):
        pair = linalg.eig_topk_randomized(np.diag([4.0, 1.0, 0.01]), 2,
                                          oversample=1, power_iters=2, seed=0)
        np.testing.assert_allclose(pair.values, [4.0, 1.0], atol=1e-6)

    def test_full_width_sketch_equals_exact(self):
        rng = np.random.default_rng(6)
        K = random_psd(rng, 10)
        exact = linalg.eig_topk_exact(K, 10)
        approx = linalg.eig_topk_randomized(K, 10, oversample=0, power_iters=0, seed=1)
        np.testing.assert_allclose(approx.values, exact.values, atol=1e-8)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(7)
        K = random_psd(rng, 25)
        a = linalg.eig_topk_randomized(K, 4, seed=123)
        b = linalg.eig_topk_randomized(K, 4, seed=123)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.vectors, b.vectors)

    def test_different_seeds_differ(self):
        rng = np.random.default_rng(8)
        K = random_psd(rng, 25)
        a = linalg.eig_topk_randomized(K, 4, oversample=2, power_iters=0, seed=1)
        b = linalg.eig_topk_randomized(K, 4, oversample=2, power_iters=0, seed=2)
        assert not np.array_equal(a.vectors, b.vectors)

    def test_sketch_width_validation(self):
        with pytest.raises(ValueError, match="sketch width"):
            linalg.eig_topk_randomized(np.eye(5), 4, oversample=1000)

    def test_orthonormal_vectors(self):
        K, _ = decaying_psd(60, 2.0, seed=10)
        pair = linalg.eig_topk_randomized(K, 8, seed=3)
        np.testing.assert_allclose(pair.vectors.T @ pair.vectors, np.eye(8), atol=1e-8)

    @pytest.mark.parametrize("r", [2.0, 3.0])
    @pytest.mark.parametrize("p", [5, 20])
    def test_gapped_decay_relative_error(self, r, p):
        # contract condition: (p+1)/p eigenvalue ratio <= 0.1
        K, vals = decaying_psd(200, r, seed=int(r * 10 + p), gap_at=p)
        approx = linalg.eig_topk_randomized(K, p, oversample=10, power_iters=2, seed=0)
        rel = np.max(np.abs(approx.values - vals[:p]) / vals[:p])
        assert rel <= 1e-6


class TestPivotedCholesky:
    @staticmethod
    def _run(K, **kwargs):
        return linalg.pivoted_cholesky(np.diag(K), lambda i: K[:, i], **kwargs)

    def test_hand_case(self):
        # pivot 1 first (diagonal 9); the residual diagonal is then (1, 0, 1)
        # and the tie goes to the lower index
        K = np.array([[1.0, 0.0, 0.0], [0.0, 9.0, 3.0], [0.0, 3.0, 2.0]])
        chol = self._run(K)
        np.testing.assert_array_equal(chol.pivots, [1, 0, 2])
        np.testing.assert_allclose(chol.F, [[0.0, 1.0, 0.0], [3.0, 0.0, 0.0],
                                            [1.0, 0.0, 1.0]], atol=1e-15)
        np.testing.assert_allclose(np.triu(chol.F[chol.pivots], 1), 0.0, atol=1e-15)
        assert chol.converged and chol.rank == 3 and chol.residual == 0.0

    def test_linear_kernel_stops_at_output_dimension(self):
        rng = np.random.default_rng(20)
        for d in (1, 3, 7):
            Y = rng.standard_normal((60, d))
            K = Y @ Y.T
            chol = self._run(K)
            assert chol.rank == d and chol.converged
            assert chol.residual <= linalg.PIVOT_RTOL * np.max(np.diag(K))
            np.testing.assert_allclose(chol.F @ chol.F.T, K, atol=1e-12)

    def test_bit_identical_repeats(self):
        rng = np.random.default_rng(21)
        X = rng.standard_normal((80, 2))
        K = np.exp(-((X[:, None, :] - X[None, :, :]) ** 2).sum(-1) / 2.0)
        a, b = self._run(K), self._run(K)
        assert a.F.tobytes() == b.F.tobytes()
        assert np.array_equal(a.pivots, b.pivots) and a.residual == b.residual

    def test_max_rank_stops_unconverged(self):
        K = random_psd(np.random.default_rng(22), 30)
        chol = self._run(K, max_rank=5)
        assert chol.rank == 5 and not chol.converged
        assert chol.residual > linalg.PIVOT_RTOL * np.max(np.diag(K))

    def test_zero_matrix_has_rank_zero(self):
        chol = self._run(np.zeros((4, 4)))
        assert chol.rank == 0 and chol.F.shape == (4, 0) and chol.converged
