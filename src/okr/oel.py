"""Supervised low-rank output embedding learning.

The p-dimensional embedding is the span of the top eigenvectors of the mixed
Gram matrix of n + m scaled feature-space vectors: the ridge-regression
predictions sqrt(c/n) * h(x_i) for the supervised inputs and the raw outputs
sqrt((1-c)/m) * psi(y_j) for the unsupervised pool. The embedding of any new
point is linear in its kernel column, so a fit ends by folding the
eigenvector coefficients beta into three p-row readout matrices: R_s and R_u
map the output-kernel columns of a decode candidate to its embedding, and T
maps the alpha column of a test prediction to its embedding.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .krr import KrrModel, fit_krr, predict_alpha
from .linalg import NumericalError, eig_topk_exact, eig_topk_randomized

# columns with mu below this fraction of mu_1 are dropped: beta scales like
# 1/sqrt(mu), so near-null directions would blow up
DROP_RTOL = 1e-10

ORTHO_CERT_TOL = 1e-6

# eigensolver methods of fit_oel
METHODS = ("exact", "randomized")


@dataclass(frozen=True)
class MixedGram:
    """PSD Gram of the n + m scaled spanning vectors, plus the pieces that
    fit_oel folds into the readout matrices of OelModel."""

    K: np.ndarray
    n: int
    m: int
    c: float
    scale_sup: float
    scale_unsup: float
    alpha_train: np.ndarray = field(repr=False)
    K_y_ss: np.ndarray = field(repr=False)
    K_y_su: np.ndarray | None = field(repr=False)

    @property
    def size(self) -> int:
        return self.n + self.m


def mixed_gram_blocks(alpha_train, K_y_ss, K_y_su=None):
    """The regression-dependent Gram products K_h = A K_y^ss A^T and
    K_hy = A K_y^su.

    These depend on (lambda, kernels) but not on (p, c), so hyperparameter
    sweeps can compute them once and hand them to assemble_mixed_gram."""
    A = np.asarray(alpha_train, dtype=np.float64)
    K_h = A @ np.asarray(K_y_ss, dtype=np.float64) @ A.T
    K_h = 0.5 * (K_h + K_h.T)
    K_hy = None if K_y_su is None else A @ np.asarray(K_y_su, dtype=np.float64)
    return K_h, K_hy


def assemble_mixed_gram(alpha_train, K_y_ss, K_y_su=None, K_y_uu=None,
                        c: float = 1.0, blocks=None) -> MixedGram:
    """Build the (n+m) x (n+m) mixed Gram matrix.

    alpha_train is the n x n matrix with alpha(x_i) in column i (symmetric in
    exact KRR, where it equals W K_x). With K_h = A K_y^ss A^T and
    K_hy = A K_y^su, the blocks are

        [ (c/n) K_h                  sqrt(c(1-c)/(nm)) K_hy ]
        [ sqrt(c(1-c)/(nm)) K_hy^T   ((1-c)/m) K_y^uu       ]

    m = 0 (no unsupervised outputs) requires c = 1 and yields the n x n
    supervised block alone; c = 0 requires m > 0 and zeroes the supervised
    blocks, reducing the embedding to kernel PCA of the output pool.
    blocks, when given, must be the mixed_gram_blocks(...) products for the
    same (alpha_train, K_y_ss, K_y_su).
    """
    A = np.asarray(alpha_train, dtype=np.float64)
    K_y_ss = np.asarray(K_y_ss, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"alpha_train must be n x n, got {A.shape}")
    n = A.shape[0]
    if K_y_ss.shape != (n, n):
        raise ValueError(f"K_y_ss must be {n} x {n}, got {K_y_ss.shape}")
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"balance c must lie in [0, 1], got {c}")

    if K_y_uu is None:
        m = 0
        if K_y_su is not None and np.size(K_y_su):
            raise ValueError("K_y_su given without K_y_uu")
    else:
        K_y_uu = np.asarray(K_y_uu, dtype=np.float64)
        K_y_su = np.asarray(K_y_su, dtype=np.float64) if K_y_su is not None else None
        m = K_y_uu.shape[0]
        if K_y_uu.shape != (m, m):
            raise ValueError(f"K_y_uu must be square, got {K_y_uu.shape}")
        if K_y_su is None or K_y_su.shape != (n, m):
            got = None if K_y_su is None else K_y_su.shape
            raise ValueError(f"K_y_su must be {n} x {m}, got {got}")

    if m == 0 and c != 1.0:
        raise ValueError("m = 0 (no unsupervised outputs) requires c = 1")
    if c == 0.0 and m == 0:
        raise ValueError("c = 0 requires unsupervised outputs (m > 0)")

    scale_sup = np.sqrt(c / n)
    scale_unsup = np.sqrt((1.0 - c) / m) if m else 0.0

    if blocks is None and c > 0.0:
        blocks = mixed_gram_blocks(A, K_y_ss, K_y_su if m else None)
    K = np.zeros((n + m, n + m))
    if c > 0.0:
        K_h, K_hy = blocks
        if K_h.shape != (n, n):
            raise ValueError(f"precomputed K_h has shape {K_h.shape}, expected {(n, n)}")
        K[:n, :n] = (c / n) * K_h
        if m and c < 1.0:
            if K_hy is None or K_hy.shape != (n, m):
                raise ValueError("precomputed blocks lack a conformable K_hy")
            K[:n, n:] = np.sqrt(c * (1.0 - c) / (n * m)) * K_hy
            K[n:, :n] = K[:n, n:].T
    if m and c < 1.0:
        K[n:, n:] = ((1.0 - c) / m) * (0.5 * (K_y_uu + K_y_uu.T))

    return MixedGram(K=K, n=n, m=m, c=float(c), scale_sup=float(scale_sup),
                     scale_unsup=float(scale_unsup), alpha_train=A,
                     K_y_ss=K_y_ss, K_y_su=K_y_su)


class OelModel:
    """Learned embedding state; immutable after fit.

    beta ((n+m) x p) holds the eigenvector columns u_l / sqrt(mu_l); the
    certificate beta^T K beta = I_p (checked at fit, stored as ortho_defect)
    is what makes the p coordinates an orthonormal system in feature space.
    With beta_s, beta_u the first n and last m rows of beta and A the n x n
    training alpha matrix, the readouts are

        R_s = scale_sup * beta_s^T A              (p x n)
        R_u = scale_unsup * beta_u^T              (p x m)
        T   = R_s K_y^ss + R_u (K_y^su)^T         (p x n)

    so a candidate embeds as R_s C_s + R_u C_u and a test prediction as
    T alpha(x). eigensolver names the solver of the fit's eigenproblem
    (linalg.EigPair.solver); a bundle does not store it, so a model rebuilt
    from one has None.
    """

    def __init__(self, beta, mu, c, n, m, R_s, R_u, T, gram_trace, ortho_defect,
                 eigensolver=None):
        self.beta = beta
        self.mu = mu
        self.c = float(c)
        self.n = int(n)
        self.m = int(m)
        self.R_s = R_s
        self.R_u = R_u
        self.T = T
        self.gram_trace = float(gram_trace)
        self.ortho_defect = float(ortho_defect)
        self.eigensolver = eigensolver

    @property
    def p(self) -> int:
        """Effective embedding dimension (after dropping near-null columns)."""
        return self.beta.shape[1]

    @property
    def scale_sup(self) -> float:
        return float(np.sqrt(self.c / self.n))

    @property
    def scale_unsup(self) -> float:
        return float(np.sqrt((1.0 - self.c) / self.m)) if self.m else 0.0

    def reconstruction_residual(self) -> float:
        """Training objective value: mean squared reconstruction error of the
        n + m scaled spanning vectors, equal to the discarded eigenvalue mass
        trace(K) - sum(mu)."""
        return max(self.gram_trace - float(np.sum(self.mu)), 0.0)


def fit_oel(mixed: MixedGram, p: int, method: str = "exact", seed: int = 0,
            oversample: int = 10, power_iters: int = 2) -> OelModel:
    """Eigendecompose the mixed Gram and keep the top p components.

    Eigenvalues below DROP_RTOL * mu_1 are discarded with a warning (the
    effective p shrinks). Method "exact" uses linalg.eig_topk_exact (Lanczos
    for small p, full eigh otherwise or as its fallback); "randomized" uses
    the sketched eigendecomposition with the given oversample / power_iters /
    seed. The model's eigensolver attribute names the solver that ran.
    """
    size = mixed.size
    if not 1 <= p <= size:
        raise ValueError(f"p must be in [1, {size}], got {p}")
    if method == "exact":
        eig = eig_topk_exact(mixed.K, p)
    elif method == "randomized":
        eig = eig_topk_randomized(mixed.K, p, oversample=oversample,
                                  power_iters=power_iters, seed=seed)
    else:
        raise ValueError(f"unknown method {method!r}; expected 'exact' or 'randomized'")

    mu, U = eig.values, eig.vectors
    keep = mu > DROP_RTOL * (mu[0] if mu.size else 0.0)
    if not np.all(keep):
        kept = int(np.count_nonzero(keep))
        warnings.warn(f"only {kept} of the requested {p} embedding components have "
                      f"eigenvalues above the drop threshold; effective p = {kept}",
                      stacklevel=2)
        mu, U = mu[keep], U[:, keep]

    beta = U / np.sqrt(mu)[None, :] if mu.size else U
    p_eff = beta.shape[1]
    defect = (float(np.max(np.abs(beta.T @ (mixed.K @ beta) - np.eye(p_eff))))
              if p_eff else 0.0)
    if defect > ORTHO_CERT_TOL:
        raise NumericalError(f"embedding orthonormality certificate failed: "
                             f"max |beta^T K beta - I| = {defect:.3g}")
    n = mixed.n
    R_s = mixed.scale_sup * (beta[:n].T @ mixed.alpha_train)
    R_u = mixed.scale_unsup * beta[n:].T
    T = R_s @ mixed.K_y_ss
    if mixed.m:
        T += R_u @ mixed.K_y_su.T
    return OelModel(beta=beta, mu=mu, c=mixed.c, n=n, m=mixed.m, R_s=R_s, R_u=R_u,
                    T=T, gram_trace=float(np.trace(mixed.K)), ortho_defect=defect,
                    eigensolver=eig.solver)


def _check_cols(name: str, M, rows: int, ncols: int | None) -> np.ndarray:
    M = np.asarray(M, dtype=np.float64)
    if M.ndim == 1:
        M = M[:, None]
    if M.shape[0] != rows:
        raise ValueError(f"{name} has {M.shape[0]} rows, expected {rows}")
    if ncols is not None and M.shape[1] != ncols:
        raise ValueError(f"{name} has {M.shape[1]} columns, expected {ncols}")
    return M


def embed_candidates(model: OelModel, C_s, C_u=None) -> np.ndarray:
    """Embed decode candidates from their output-kernel columns.

    C_s is the n x N matrix k_y(y_i^train, y_cand); C_u the m x N matrix
    against the unsupervised outputs (required when the model was fit with
    m > 0). Column c of the result is the p-vector G psi(y_c) = R_s C_s + R_u C_u.
    """
    C_s = _check_cols("C_s", C_s, model.n, None)
    if not model.m:
        return model.R_s @ C_s
    if C_u is None:
        raise ValueError(f"model has m = {model.m} unsupervised outputs; C_u is required")
    C_u = _check_cols("C_u", C_u, model.m, C_s.shape[1])
    Z = model.R_s @ C_s
    Z += model.R_u @ C_u
    return Z


def embed_tests(model: OelModel, A_test) -> np.ndarray:
    """Embed test predictions from their alpha columns.

    A_test holds alpha(x_test_j) in column j; column j of the result is the
    p-vector G h(x_test_j) = T alpha(x_test_j)."""
    return model.T @ _check_cols("A_test", A_test, model.n, None)


def surrogate_sq_errors(Z_pred: np.ndarray, Z_true: np.ndarray,
                        true_self_norms) -> np.ndarray:
    """Squared feature-space distance ||P h(x_j) - psi(y_j)||^2 per test
    point, from the embedded predictions, the embedded true outputs, and the
    true outputs' kernel self-norms."""
    true_self_norms = np.asarray(true_self_norms, dtype=np.float64)
    return (np.einsum("ij,ij->j", Z_pred, Z_pred)
            - 2.0 * np.einsum("ij,ij->j", Z_pred, Z_true)
            + true_self_norms)


def fit_oel_with_krr(K_x, K_y_ss, lam: float, p: int, c: float = 1.0,
                     K_y_su=None, K_y_uu=None, method: str = "exact", seed: int = 0,
                     oversample: int = 10, power_iters: int = 2,
                     krr_model: KrrModel | None = None) -> tuple[KrrModel, OelModel]:
    """One-shot training: exact KRR on K_x, then embedding estimation.

    Passing a pre-fitted exact-mode krr_model (same K_x, same lambda) skips
    the ridge solve, which makes sweeps over (p, c) nearly free.
    """
    if krr_model is None:
        krr_model = fit_krr(K_x, lam)
    elif krr_model.mode != "exact":
        raise ValueError("fit_oel_with_krr expects an exact-mode ridge model; "
                         "drive the Nystrom path through assemble_mixed_gram")
    A = predict_alpha(krr_model, np.asarray(K_x, dtype=np.float64))
    mixed = assemble_mixed_gram(A, K_y_ss, K_y_su=K_y_su, K_y_uu=K_y_uu, c=c)
    model = fit_oel(mixed, p, method=method, seed=seed,
                    oversample=oversample, power_iters=power_iters)
    return krr_model, model
