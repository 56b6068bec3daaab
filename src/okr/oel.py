"""Supervised low-rank output embedding learning.

The p-dimensional embedding is the span of the top eigenvectors of the mixed
Gram matrix of n + m scaled feature-space vectors: the ridge-regression
predictions sqrt(c/n) * h(x_i) for the supervised inputs and the raw outputs
sqrt((1-c)/m) * psi(y_j) for the unsupervised pool. The embedding of any new
point is linear in its kernel column, so a fit ends by folding the
eigenvector coefficients into two p-row readout matrices: R maps the
output-kernel columns of a decode candidate against the model's reference
outputs to its embedding (embed_candidates), and T_x maps the input-kernel
column of a test input to the embedding of its prediction (embed_inputs).
The fit forms T_x from the readout T of alpha columns, which it then drops:
alpha(x) is linear in the input-kernel column kappa(x), so
T_x = krr.fold_readout(krr_model, T) takes the ridge solve in, and no test
embedding needs one. A fitted model and one rebuilt from a bundle both hold
R and T_x, which are what the bundle stores.

There are two ways to the top p, and fit_embedding, the entry point from a
fitted ridge model and an OutputSet of training outputs, picks between them:

- Factored (fit_oel_factored): a pivoted Cholesky factor K_y ~ F F^T of the
  output Gram of the n + m outputs (factor_outputs) gives every spanning
  vector r coordinates, the rows of G = [sqrt(c/n) A F_s ; sqrt((1-c)/m) F_u],
  so the mixed Gram is G G^T and its top p come from the r x r matrix G^T G.
  Nothing of size n x n or (n+m) x (n+m) is formed, and the reference
  outputs are the r pivots. Taken with method "exact" when the factor stays
  within its rank cap and p < r.
- Dense (fit_oel): the (n+m) x (n+m) mixed Gram, written from the training
  alpha matrix A and its products with the output Grams
  (mixed_gram_blocks), decomposed by block Krylov, eigh or the randomized
  sketch. The reference outputs are all n + m outputs.

Both fits take what depends on the outputs alone from an OutputSet (the
factor, the output Grams) and what depends on the ridge model as its
products with them (A F_s; A and the blocks), which fit_embedding computes
or takes from a memo.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import kernels
from .krr import EXACT, KrrModel, fold_readout, predict_alpha, train_alpha_times
from .linalg import (NumericalError, column_signs, eig_topk_exact, eig_topk_randomized,
                     pivoted_cholesky, solve_lower)

# columns with mu below this fraction of mu_1 are dropped: beta scales like
# 1/sqrt(mu), so near-null directions would blow up
DROP_RTOL = 1e-10

ORTHO_CERT_TOL = 1e-6

# eigensolver methods of fit_oel
METHODS = ("exact", "randomized")

# factor_outputs gives up once the factor's rank passes this fraction of
# n + m, and the dense path runs instead. Measured on 2 cores with Gaussian
# outputs (sigma2 narrowed to raise the rank), c = 0.5, p = 32, the factored
# fit took as long as the dense one (with ARPACK's Lanczos then) at
# r ~ 0.36 (n+m) for n + m = 4000 and r ~ 0.5 (n+m) for n + m = 1000. A
# kernel of high rank (tanimoto fingerprints) runs the factor up to the cap
# before falling back, so the cap stays at the low end.
FACTOR_MAX_RANK_FRACTION = 1.0 / 3.0


def _check_balance(c: float, m: int) -> None:
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"balance c must lie in [0, 1], got {c}")
    # c = 0 with m = 0 fails here too: there is nothing to span
    if m == 0 and c != 1.0:
        raise ValueError("m = 0 (no unsupervised outputs) requires c = 1")


def mixed_gram_blocks(A, K_y_ss, K_y_su=None):
    """The ridge products of the mixed Gram, K_h = A K_y^ss A^T and
    K_hy = A K_y^su, with A the n x n training alpha matrix.

    These depend on the ridge model and the outputs but not on (p, c), so
    fit_embedding keeps them in its products memo across (p, c)."""
    A = np.asarray(A, dtype=np.float64)
    K_h = A @ np.asarray(K_y_ss, dtype=np.float64) @ A.T
    K_h = 0.5 * (K_h + K_h.T)
    K_hy = None if K_y_su is None else A @ np.asarray(K_y_su, dtype=np.float64)
    return K_h, K_hy


def _mixed_gram(outputs: OutputSet, blocks, c: float) -> np.ndarray:
    """The (n+m) x (n+m) mixed Gram in one buffer. With (K_h, K_hy) = blocks,
    read only when c > 0, its blocks are

        [ (c/n) K_h                  sqrt(c(1-c)/(nm)) K_hy ]
        [ sqrt(c(1-c)/(nm)) K_hy^T   ((1-c)/m) K_y^uu       ]

    m = 0 leaves the n x n supervised block alone (c = 1); c = 0 zeroes the
    supervised blocks, reducing the embedding to kernel PCA of the output
    pool."""
    n, m = len(outputs.Y_sup), outputs.m
    K = np.zeros((n + m, n + m))
    if m and c < 1.0:
        K[n:, n:] = ((1.0 - c) / m) * (0.5 * (outputs.K_uu + outputs.K_uu.T))
    if c > 0.0:
        K_h, K_hy = blocks
        K[:n, :n] = (c / n) * K_h
        if m and c < 1.0:
            K[:n, n:] = np.sqrt(c * (1.0 - c) / (n * m)) * K_hy
            K[n:, :n] = K[:n, n:].T
    return K


class OelModel:
    """Learned embedding state; immutable after fit.

    beta ((n+m) x p) holds the eigenvector columns u_l / sqrt(mu_l); the
    certificate beta^T K beta = I_p (checked at fit, stored as ortho_defect)
    is what makes the p coordinates an orthonormal system in feature space.
    The readouts are

        R   (p x n_ref): a candidate embeds as R C, with C the output-kernel
            columns of the candidate against the reference outputs;
        T_x (p x alpha_rows of the ridge model): a test input embeds as
            T_x kappa(x), with kappa(x) its input-kernel column as
            krr.predict_alpha takes it.

    Every model has both. A fit also sets beta; a model rebuilt from a bundle
    has None for it, which serving does not read.

    ref_rows indexes the reference outputs among the n supervised then m
    unsupervised outputs (all of them for a dense fit, the pivots for a
    factored one). eigensolver names the solver of the fit's eigenproblem
    (linalg.EigPair.solver, or "pivoted_cholesky r=<rank>"). A bundle stores
    neither, but stores the reference outputs themselves, so a model rebuilt
    from one has None for both.
    """

    def __init__(self, beta, mu, c, n, m, R, T_x, gram_trace, ortho_defect,
                 ref_rows=None, eigensolver=None):
        self.beta = beta
        self.mu = mu
        self.c = float(c)
        self.n = int(n)
        self.m = int(m)
        self.R = R
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


def fit_oel(krr_model: KrrModel, outputs: OutputSet, A, blocks, p: int, c: float = 1.0,
            method: str = "exact", seed: int = 0, oversample: int = 10,
            power_iters: int = 2) -> OelModel:
    """The top-p embedding from the dense (n+m) x (n+m) mixed Gram.

    A is the n x n training alpha matrix of krr_model (alpha(x_i) in column
    i), and blocks = mixed_gram_blocks(A, outputs.K_ss, outputs.K_su), read
    only when c > 0. The readouts read all n + m outputs, R from beta and A,
    and the test readout T alpha(x) is folded through krr_model into T_x.

    Eigenvalues below DROP_RTOL * mu_1 are discarded with a warning (the
    effective p shrinks). Method "exact" uses linalg.eig_topk_exact (block
    Krylov for small p, full eigh otherwise or as its fallback); "randomized"
    uses the sketched eigendecomposition with the given oversample /
    power_iters / seed. The model's eigensolver attribute names the solver
    that ran.
    """
    n, m = len(outputs.Y_sup), outputs.m
    _check_balance(c, m)
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if not 1 <= p <= n + m:
        raise ValueError(f"p must be in [1, {n + m}], got {p}")
    A = np.asarray(A, dtype=np.float64)
    if A.shape != (n, n):
        raise ValueError(f"A must be {n} x {n}, got {A.shape}")
    K = _mixed_gram(outputs, blocks, c)
    del blocks  # a memo keeps its own reference; the eigensolve needs none
    eig = (eig_topk_exact(K, p) if method == "exact" else
           eig_topk_randomized(K, p, oversample=oversample, power_iters=power_iters,
                               seed=seed))
    mu, U = _drop_null(eig.values, eig.vectors, p)
    beta = U / np.sqrt(mu)[None, :] if mu.size else U
    defect = _certify(beta.T @ (K @ beta))
    R_s = np.sqrt(c / n) * (beta[:n].T @ A)
    T = R_s @ outputs.K_ss
    if m:
        R_u = np.sqrt((1.0 - c) / m) * beta[n:].T
        T += R_u @ outputs.K_su.T
        R = np.hstack([R_s, R_u])
    else:
        R = R_s
    return OelModel(beta=beta, mu=mu, c=c, n=n, m=m, R=R, T_x=fold_readout(krr_model, T),
                    gram_trace=float(np.trace(K)), ortho_defect=defect,
                    ref_rows=np.arange(n + m), eigensolver=eig.solver)


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


def fit_oel_factored(krr_model: KrrModel, factor: OutputFactor, AF_s, p: int,
                     c: float = 1.0) -> OelModel:
    """The top-p embedding from an output factor, with no (n+m)-sized Gram.

    AF_s is A F_s (n x r), with A the n x n training alpha matrix of
    krr_model (alpha(x_i) in column i; symmetric in both ridge modes, see
    krr.train_alpha_times). Row i of G = [sqrt(c/n) A F_s ; sqrt((1-c)/m) F_u]
    holds the coordinates of spanning vector i in the factor's basis, so the
    mixed Gram is G G^T. With G^T G V = V diag(mu), the top p give
    beta = G V_p / mu, the orthonormal directions V_p in that basis, and the
    readouts R = V_p^T L^-1 against the pivot outputs (L = F[pivots]) and
    T_x, the alpha readout T = V_p^T F_s^T folded through krr_model.
    Requires p < r; fit_embedding takes the dense path otherwise. The top p
    come from one full symmetric eigendecomposition of the r x r matrix, and
    R from a triangular solve (linalg.solve_lower).
    """
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
    w, V = np.linalg.eigh(0.5 * (M + M.T))
    # G^T G is PSD by construction: a negative eigenvalue is rounding
    mu, V = _drop_null(np.maximum(w[::-1][:p], 0.0), V[:, ::-1][:, :p], p)
    beta = G @ V / mu
    # the signs the dense path gives the eigenvectors u_l = sqrt(mu_l) beta_l
    signs = column_signs(beta)
    beta *= signs
    V = V * signs
    Gtb = G.T @ beta
    defect = _certify(Gtb.T @ Gtb)
    L = factor.F[factor.pivots]
    R = solve_lower(L, V, trans=True).T
    T = V.T @ factor.F_s.T
    return OelModel(beta=beta, mu=mu, c=c, n=n, m=m, R=R, T_x=fold_readout(krr_model, T),
                    gram_trace=float(np.einsum("ij,ij->", G, G)), ortho_defect=defect,
                    ref_rows=factor.pivots, eigensolver=f"pivoted_cholesky r={r}")


class OutputSet:
    """The n supervised and m unsupervised training outputs under one output
    kernel, with what fit_embedding computes from them alone: the output
    factor and the output Gram blocks. Each is computed on first use and then
    kept, so fits that share the outputs (the grid points of a tuning fold at
    one output width) share them by sharing the OutputSet."""

    def __init__(self, spec: kernels.KernelSpec, Y_sup, Y_unsup=None):
        self.spec = spec
        self.Y_sup = Y_sup
        self.Y_unsup = Y_unsup

    @property
    def m(self) -> int:
        return 0 if self.Y_unsup is None else len(self.Y_unsup)

    @cached_property
    def factor(self) -> OutputFactor | None:
        """factor_outputs of the outputs, tried once: None, kept as such, once
        the factor gave up at its rank cap."""
        return factor_outputs(self.spec, self.Y_sup, self.Y_unsup)

    @cached_property
    def K_ss(self) -> np.ndarray:
        return kernels.gram(self.spec, self.Y_sup)

    @cached_property
    def K_su(self) -> np.ndarray | None:
        return None if self.Y_unsup is None else kernels.gram(self.spec, self.Y_sup,
                                                              self.Y_unsup)

    @cached_property
    def K_uu(self) -> np.ndarray | None:
        return None if self.Y_unsup is None else kernels.gram(self.spec, self.Y_unsup)


def _kept(memo: dict | None, key, compute):
    """compute(), kept in memo under key when a memo is given."""
    if memo is None:
        return compute()
    if key not in memo:
        memo[key] = compute()
    return memo[key]


def fit_embedding(krr_model: KrrModel, K_cols, outputs: OutputSet, p: int, c: float = 1.0,
                  method: str = "exact", seed: int = 0, oversample: int = 10,
                  power_iters: int = 2, products: dict | None = None) -> OelModel:
    """The top-p embedding of a fitted ridge model and its training outputs.

    This is the one place that picks the path. Method "exact" factors the
    outputs (outputs.factor) and takes the factored fit when the factor
    exists (its rank stayed within FACTOR_MAX_RANK_FRACTION of n + m) and
    p < r. At p >= r the embedding would take every direction the factor
    resolves, down to those at its tolerance, so the dense path decides which
    survive DROP_RTOL. The dense path, which method "randomized" always
    takes, runs fit_oel on the training alpha matrix and its mixed Gram
    blocks, with seed / oversample / power_iters.

    K_cols are the training kernel columns the ridge model was fit on: the
    n x n input Gram in exact mode, the n x q anchor columns in Nystrom mode
    (krr.train_alpha_times). products, when given, is a dict kept with this
    ridge model (and K_cols) across calls: the training alpha matrix, and its
    products with each OutputSet (A F_s, the mixed Gram blocks), are then
    computed once and kept in it.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    factor = outputs.factor if method == "exact" else None
    if factor is not None and p < factor.r:
        AF_s = _kept(products, ("A F_s", outputs),
                     lambda: train_alpha_times(krr_model, K_cols, factor.F_s))
        return fit_oel_factored(krr_model, factor, AF_s, p, c)
    # the training inputs' kernel columns as predict_alpha takes them
    kappa_train = K_cols if krr_model.mode == EXACT else np.asarray(K_cols).T
    A = _kept(products, "A", lambda: predict_alpha(krr_model, kappa_train))
    # the blocks go unnamed, so that without a memo fit_oel holds their only
    # reference and frees them before its eigensolve
    return fit_oel(krr_model, outputs, A,
                   _kept(products, ("blocks", outputs),
                         lambda: mixed_gram_blocks(A, outputs.K_ss, outputs.K_su))
                   if c > 0.0 else None,
                   p, c, method=method, seed=seed, oversample=oversample,
                   power_iters=power_iters)


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


def embed_inputs(model: OelModel, kappa) -> np.ndarray:
    """Embed test inputs from their input-kernel columns, with no ridge solve.

    kappa holds in column j the kernel column of x_test_j that
    krr.predict_alpha takes (against the n training inputs, or the q Nystrom
    anchors); column j of the result is the p-vector G h(x_test_j) =
    T_x kappa_j, the embedding of the ridge prediction for x_test_j.
    """
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
