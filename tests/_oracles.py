"""Independent oracles shared by the unit and acceptance tests.

Everything here recomputes quantities through explicit feature-space linear
algebra (outputs as rows of a plain matrix, linear output kernel), never
through the code paths under test: projections are materialized as d x d
matrices, decoding is brute-force distance minimization, and eigenvalue
mass comes from an eigendecomposition of the d x d scaled second-moment
matrix rather than of the (n+m) x (n+m) Gram."""

from dataclasses import dataclass

import numpy as np

import okr


def random_psd(rng, n, dim_factor=2.0):
    """Well-conditioned random PSD matrix (Wishart, dim >= 2n by default)."""
    G = rng.standard_normal((n, max(1, int(np.ceil(n * dim_factor)))))
    K = G @ G.T / G.shape[1]
    return 0.5 * (K + K.T)


@dataclass
class ExplicitProblem:
    """A fitted embedding problem with explicit output features."""

    K_x: np.ndarray
    Y: np.ndarray                  # n x d output features
    Y_unsup: np.ndarray | None     # m x d
    lam: float
    c: float
    krr_model: object
    oel_model: object
    H: np.ndarray                  # d x n, column i = h(x_i) in feature space
    V: np.ndarray                  # d x (n+m), scaled spanning vectors
    basis: np.ndarray              # d x p, feature-space embedding directions
    P: np.ndarray                  # d x d projection onto the learned subspace

    def h_test(self, A_test):
        """Explicit h(x_test) columns from alpha columns."""
        return self.Y.T @ A_test

    def project(self, vecs):
        return self.P @ vecs


def build_explicit(rng, n, m, d_out, lam, c, p, method="exact", seed=0):
    """Fit on random data with a linear output kernel and materialize the
    embedding in feature space."""
    K_x = random_psd(rng, n)
    Y = rng.standard_normal((n, d_out))
    Yu = rng.standard_normal((m, d_out)) if m else None
    K_y = Y @ Y.T
    K_su = Y @ Yu.T if m else None
    K_uu = Yu @ Yu.T if m else None
    # the dense path on purpose: every reference output is an explicit row
    krr_model = okr.fit_krr(K_x, lam)
    A = okr.predict_alpha(krr_model, K_x)
    mixed = okr.assemble_mixed_gram(A, K_y, K_y_su=K_su, K_y_uu=K_uu, c=c)
    oel_model = okr.fit_oel(mixed, p, method=method, seed=seed)
    H = Y.T @ A
    parts = [oel_model.scale_sup * H]
    if m:
        parts.append(oel_model.scale_unsup * Yu.T)
    V = np.hstack(parts)
    basis = V @ oel_model.beta
    P = basis @ basis.T
    return ExplicitProblem(K_x=K_x, Y=Y, Y_unsup=Yu, lam=lam, c=c,
                           krr_model=krr_model, oel_model=oel_model,
                           H=H, V=V, basis=basis, P=P)


def second_moment_eigs(problem: ExplicitProblem) -> np.ndarray:
    """Descending eigenvalues of the d x d scaled second-moment matrix
    sum_k v_k v_k^T; independent of the library's Gram eigendecomposition."""
    M = problem.V @ problem.V.T
    return np.sort(np.linalg.eigvalsh(0.5 * (M + M.T)))[::-1]


def brute_force_decode(problem: ExplicitProblem, A_test, candidates) -> np.ndarray:
    """argmin over candidate rows of the explicit squared distance
    ||P h(x) - y_c||^2, first index on ties."""
    preds = problem.project(problem.h_test(A_test))      # d x t
    d2 = (np.einsum("ij,ij->j", preds, preds)[:, None]
          + np.einsum("ij,ij->i", candidates, candidates)[None, :]
          - 2.0 * preds.T @ candidates.T)
    return np.argmin(d2, axis=1)


def kpca_scores(K_uu: np.ndarray, p: int) -> np.ndarray:
    """Uncentered kernel PCA scores of the training points from their Gram:
    column l of the result is sqrt(nu_l) * w_l (top-p eigenpairs)."""
    w, W = np.linalg.eigh(0.5 * (K_uu + K_uu.T))
    order = np.argsort(w)[::-1][:p]
    return W[:, order] * np.sqrt(np.maximum(w[order], 0.0))


def align_columns(Z, Z_ref):
    """Flip column signs of Z to match Z_ref (for sign-indeterminate
    comparisons)."""
    signs = np.sign(np.einsum("ij,ij->j", Z, Z_ref))
    signs[signs == 0] = 1.0
    return Z * signs
