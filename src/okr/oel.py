"""Supervised low-rank output embedding learning.

The p-dimensional embedding is the span of the top eigenvectors of the mixed
Gram matrix of n + m scaled feature-space vectors: the ridge-regression
predictions sqrt(c/n) * h(x_i) for the supervised inputs and the raw outputs
sqrt((1-c)/m) * psi(y_j) for the unsupervised pool. The embedding of any new
point is linear in its kernel column, so a fit ends by folding the
eigenvector coefficients into two p-row readout matrices: R maps the
output-kernel columns of a decode candidate against the model's reference
outputs to its embedding, and T maps the alpha column of a test prediction
to its embedding. Since alpha(x) is linear in the input-kernel column
kappa(x), T folds further into T_x = krr.fold_readout(krr_model, T), and a
served model embeds a test input as T_x kappa(x) (embed_inputs) with no
ridge solve. A model bundle stores R and T_x.

There are two ways to the top p:

- Factored (fit_oel_factored): a pivoted Cholesky factor K_y ~ F F^T of the
  output Gram of the n + m outputs (factor_outputs) gives every spanning
  vector r coordinates, the rows of G = [sqrt(c/n) A F_s ; sqrt((1-c)/m) F_u],
  so the mixed Gram is G G^T and its top p come from the r x r matrix G^T G.
  Nothing of size n x n or (n+m) x (n+m) is formed, and the reference
  outputs are the r pivots.
- Dense (assemble_mixed_gram, then fit_oel): the (n+m) x (n+m) mixed Gram,
  decomposed by Lanczos, eigh or the randomized sketch. The reference
  outputs are all n + m outputs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .krr import KrrModel, fit_krr, predict_alpha
from .linalg import (NumericalError, column_signs, eig_topk_exact, eig_topk_randomized,
                     pivoted_cholesky)

# columns with mu below this fraction of mu_1 are dropped: beta scales like
# 1/sqrt(mu), so near-null directions would blow up
DROP_RTOL = 1e-10

ORTHO_CERT_TOL = 1e-6

# eigensolver methods of fit_oel
METHODS = ("exact", "randomized")

# factor_outputs gives up once the factor's rank passes this fraction of
# n + m, and the dense path runs instead. Measured on 2 cores with Gaussian
# outputs (sigma2 narrowed to raise the rank), c = 0.5, p = 32, the factored
# fit took as long as the dense one with Lanczos at r ~ 0.36 (n+m) for
# n + m = 4000 and r ~ 0.5 (n+m) for n + m = 1000. A kernel of high rank
# (tanimoto fingerprints) runs the factor up to the cap before falling back,
# so the cap stays at the low end.
FACTOR_MAX_RANK_FRACTION = 1.0 / 3.0


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


def _check_balance(c: float, m: int) -> None:
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"balance c must lie in [0, 1], got {c}")
    # c = 0 with m = 0 fails here too: there is nothing to span
    if m == 0 and c != 1.0:
        raise ValueError("m = 0 (no unsupervised outputs) requires c = 1")


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
    _check_balance(c, m)

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
    The readouts are

        R   (p x n_ref): a candidate embeds as R C, with C the output-kernel
            columns of the candidate against the reference outputs;
        T   (p x n):     a test prediction embeds as T alpha(x);
        T_x (p x alpha_rows of the ridge model): a test input embeds as
            T_x kappa(x), T with the ridge solve folded in
            (krr.fold_readout).

    A fit sets beta, R and T. A model rebuilt from a bundle has R and T_x
    and None for beta and T, which serving does not read.

    ref_rows indexes the reference outputs among the n supervised then m
    unsupervised outputs (all of them for a dense fit, the pivots for a
    factored one). eigensolver names the solver of the fit's eigenproblem
    (linalg.EigPair.solver, or "pivoted_cholesky r=<rank>"). A bundle stores
    neither, but stores the reference outputs themselves, so a model rebuilt
    from one has None for both.
    """

    def __init__(self, beta, mu, c, n, m, R, T, gram_trace, ortho_defect,
                 ref_rows=None, eigensolver=None, T_x=None):
        self.beta = beta
        self.mu = mu
        self.c = float(c)
        self.n = int(n)
        self.m = int(m)
        self.R = R
        self.T = T
        self.T_x = T_x
        self.gram_trace = float(gram_trace)
        self.ortho_defect = float(ortho_defect)
        self.ref_rows = ref_rows
        self.eigensolver = eigensolver

    @property
    def p(self) -> int:
        """Effective embedding dimension (after dropping near-null columns)."""
        return self.R.shape[0]

    @property
    def scale_sup(self) -> float:
        return float(np.sqrt(self.c / self.n))

    @property
    def scale_unsup(self) -> float:
        return float(np.sqrt((1.0 - self.c) / self.m)) if self.m else 0.0

    def reference_outputs(self, Y_sup, Y_unsup=None) -> np.ndarray:
        """The rows of [Y_sup; Y_unsup] (the outputs the model was fit on)
        whose kernel columns embed_candidates reads."""
        if self.ref_rows is None:
            raise ValueError("model rebuilt from a bundle: its reference outputs "
                             "are stored in the bundle")
        Y = Y_sup if not self.m else np.vstack([Y_sup, Y_unsup])
        return Y[self.ref_rows]

    def reconstruction_residual(self) -> float:
        """Training objective value: mean squared reconstruction error of the
        n + m scaled spanning vectors, equal to the discarded eigenvalue mass
        trace(K) - sum(mu)."""
        return max(self.gram_trace - float(np.sum(self.mu)), 0.0)


def _drop_null(mu, vectors, p):
    """Drop the components with mu below DROP_RTOL * mu_1, with a warning."""
    keep = mu > DROP_RTOL * (mu[0] if mu.size else 0.0)
    if np.all(keep):
        return mu, vectors
    kept = int(np.count_nonzero(keep))
    warnings.warn(f"only {kept} of the requested {p} embedding components have "
                  f"eigenvalues above the drop threshold; effective p = {kept}",
                  stacklevel=3)
    return mu[keep], vectors[:, keep]


def _certify(BKB: np.ndarray) -> float:
    """Orthonormality defect max |beta^T K beta - I|, from beta^T K beta."""
    p = BKB.shape[0]
    defect = float(np.max(np.abs(BKB - np.eye(p)))) if p else 0.0
    if defect > ORTHO_CERT_TOL:
        raise NumericalError(f"embedding orthonormality certificate failed: "
                             f"max |beta^T K beta - I| = {defect:.3g}")
    return defect


def fit_oel(mixed: MixedGram, p: int, method: str = "exact", seed: int = 0,
            oversample: int = 10, power_iters: int = 2) -> OelModel:
    """Eigendecompose the mixed Gram and keep the top p components.

    Eigenvalues below DROP_RTOL * mu_1 are discarded with a warning (the
    effective p shrinks). Method "exact" uses linalg.eig_topk_exact (Lanczos
    for small p, full eigh otherwise or as its fallback); "randomized" uses
    the sketched eigendecomposition with the given oversample / power_iters /
    seed. The model's eigensolver attribute names the solver that ran, and
    its reference outputs are all n + m outputs.
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

    mu, U = _drop_null(eig.values, eig.vectors, p)
    beta = U / np.sqrt(mu)[None, :] if mu.size else U
    defect = _certify(beta.T @ (mixed.K @ beta))
    n = mixed.n
    R_s = mixed.scale_sup * (beta[:n].T @ mixed.alpha_train)
    T = R_s @ mixed.K_y_ss
    if mixed.m:
        R_u = mixed.scale_unsup * beta[n:].T
        T += R_u @ mixed.K_y_su.T
        R = np.hstack([R_s, R_u])
    else:
        R = R_s
    return OelModel(beta=beta, mu=mu, c=mixed.c, n=n, m=mixed.m, R=R, T=T,
                    gram_trace=float(np.trace(mixed.K)), ortho_defect=defect,
                    ref_rows=np.arange(size), eigensolver=eig.solver)


@dataclass(frozen=True)
class OutputFactor:
    """K_y ~ F F^T over the n supervised then m unsupervised outputs, from
    linalg.pivoted_cholesky: F is (n+m) x r and F[pivots] is lower
    triangular."""

    F: np.ndarray = field(repr=False)
    pivots: np.ndarray = field(repr=False)
    n: int

    @property
    def r(self) -> int:
        return self.F.shape[1]

    @property
    def m(self) -> int:
        return self.F.shape[0] - self.n

    @property
    def F_s(self) -> np.ndarray:
        return self.F[:self.n]

    @property
    def F_u(self) -> np.ndarray:
        return self.F[self.n:]


def factor_outputs(spec: kernels.KernelSpec, Y_sup, Y_unsup=None) -> OutputFactor | None:
    """Pivoted Cholesky of the output Gram of [Y_sup; Y_unsup], one kernel
    column per pivot, to linalg.PIVOT_RTOL. None when its rank would pass
    FACTOR_MAX_RANK_FRACTION of n + m: the dense path is then cheaper."""
    Y = Y_sup if Y_unsup is None else np.vstack([Y_sup, Y_unsup])
    chol = pivoted_cholesky(kernels.self_norms(spec, Y),
                            lambda i: kernels.gram(spec, Y, Y[i:i + 1])[:, 0],
                            max_rank=int(FACTOR_MAX_RANK_FRACTION * len(Y)))
    if not chol.converged:
        return None
    return OutputFactor(F=chol.F, pivots=chol.pivots, n=len(Y_sup))


def takes_factored_path(factor: OutputFactor | None, p: int) -> bool:
    """Whether the exact method embeds from the output factor: the factor
    must exist (its rank stayed within the cap) and p < r. At p >= r the
    embedding would take every direction the factor resolves, down to those
    at its tolerance; the dense path then decides which survive DROP_RTOL."""
    return factor is not None and p < factor.r


def fit_oel_factored(factor: OutputFactor, AF_s, p: int, c: float = 1.0) -> OelModel:
    """The top-p embedding from an output factor, with no (n+m)-sized Gram.

    AF_s is A F_s (n x r), with A the n x n training alpha matrix (alpha(x_i)
    in column i; symmetric in both ridge modes, see
    krr.train_alpha_times). Row i of G = [sqrt(c/n) A F_s ; sqrt((1-c)/m) F_u]
    holds the coordinates of spanning vector i in the factor's basis, so the
    mixed Gram is G G^T. With G^T G V = V diag(mu), the top p give
    beta = G V_p / mu, the orthonormal directions V_p in that basis, and the
    readouts R = V_p^T L^-1 against the pivot outputs (L = F[pivots]) and
    T = V_p^T F_s^T. Requires p < r; callers take the dense path otherwise.
    """
    from scipy.linalg import eigh, solve_triangular

    n, m, r = factor.n, factor.m, factor.r
    _check_balance(c, m)
    if not 1 <= p < r:
        raise ValueError(f"p must be in [1, r) = [1, {r}) for the factored fit, got {p}")
    AF_s = np.asarray(AF_s, dtype=np.float64)
    if AF_s.shape != (n, r):
        raise ValueError(f"AF_s must be {n} x {r}, got {AF_s.shape}")

    G = np.empty((n + m, r))
    G[:n] = np.sqrt(c / n) * AF_s
    if m:
        G[n:] = np.sqrt((1.0 - c) / m) * factor.F_u
    M = G.T @ G
    w, V = eigh(0.5 * (M + M.T), subset_by_index=[r - p, r - 1])
    # G^T G is PSD by construction: a negative eigenvalue is rounding
    mu, V = _drop_null(np.maximum(w[::-1], 0.0), V[:, ::-1], p)
    beta = G @ V / mu
    # the signs the dense path gives the eigenvectors u_l = sqrt(mu_l) beta_l
    signs = column_signs(beta)
    beta *= signs
    V = V * signs
    Gtb = G.T @ beta
    defect = _certify(Gtb.T @ Gtb)
    L = factor.F[factor.pivots]
    R = solve_triangular(L, V, lower=True, trans="T").T
    T = V.T @ factor.F_s.T
    return OelModel(beta=beta, mu=mu, c=c, n=n, m=m, R=R, T=T,
                    gram_trace=float(np.einsum("ij,ij->", G, G)), ortho_defect=defect,
                    ref_rows=factor.pivots, eigensolver=f"pivoted_cholesky r={r}")


def _check_cols(name: str, M, rows: int, ncols: int | None) -> np.ndarray:
    M = np.asarray(M, dtype=np.float64)
    if M.ndim == 1:
        M = M[:, None]
    if M.shape[0] != rows:
        raise ValueError(f"{name} has {M.shape[0]} rows, expected {rows}")
    if ncols is not None and M.shape[1] != ncols:
        raise ValueError(f"{name} has {M.shape[1]} columns, expected {ncols}")
    return M


def embed_candidates(model: OelModel, C) -> np.ndarray:
    """Embed decode candidates from their output-kernel columns.

    C is the n_ref x N matrix k_y(y_ref_i, y_cand) against the model's
    reference outputs (OelModel.reference_outputs). Column c of the result is
    the p-vector G psi(y_c) = R C[:, c].
    """
    return model.R @ _check_cols("C", C, model.R.shape[1], None)


def embed_tests(model: OelModel, A_test) -> np.ndarray:
    """Embed test predictions from their alpha columns.

    A_test holds alpha(x_test_j) in column j; column j of the result is the
    p-vector G h(x_test_j) = T alpha(x_test_j)."""
    if model.T is None:
        raise ValueError("model rebuilt from a bundle keeps only the folded test "
                         "readout: use embed_inputs")
    return model.T @ _check_cols("A_test", A_test, model.n, None)


def embed_inputs(model: OelModel, kappa) -> np.ndarray:
    """Embed test inputs from their input-kernel columns through the folded
    readout T_x, with no ridge solve.

    kappa holds in column j the kernel column of x_test_j that
    krr.predict_alpha would take (against the n training inputs, or the q
    Nystrom anchors); column j of the result equals
    embed_tests(model, predict_alpha(krr_model, kappa))[:, j] up to rounding.
    """
    if model.T_x is None:
        raise ValueError("model has no folded test readout (krr.fold_readout)")
    return model.T_x @ _check_cols("kappa", kappa, model.T_x.shape[1], None)


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
