"""Kernel ridge regression into the output feature space.

The fitted object only ever exposes the weight functional alpha(x): the
regression value h(x) = sum_i alpha_i(x) psi(y_i) is never materialized,
downstream code consumes alpha columns together with output-kernel columns.
Regularization follows the n*lambda convention, i.e. the solve is against
(K_x + n*lambda*I), so lambda values are comparable across sample sizes.

A p-row readout T of alpha columns folds into a p-row readout of the
input-kernel columns themselves: T alpha(x) = T_x kappa(x) with
T_x = fold_readout(model, T). Every oel fit ends with that fold, so an
embedded model serves test inputs with no solve state.

The exact-mode solve state is the Cholesky factor of (K_x + n*lambda*I),
written over one copy of the shifted Gram by linalg.cholesky_lower; every
factor and solve here runs on numpy alone.
"""

from __future__ import annotations

import numpy as np

from .linalg import (NumericalError, RegularizedSolver, check_symmetric, cho_solve,
                     cholesky_lower)

EXACT = "exact"
NYSTROM = "nystrom"


class KrrModel:
    """Fitted ridge regression state; immutable after fit.

    Exact mode keeps a factorization of (K_x + n*lambda*I). Nystrom mode
    keeps the q x n dual weight matrix mapping anchor kernel columns to
    alpha weights over the n training outputs. A model rebuilt from an
    embedded bundle keeps neither (solver and dual_weights are None): it
    only records which kernel columns the folded readout reads.
    """

    def __init__(self, mode: str, lam: float, n: int, solver: RegularizedSolver | None = None,
                 dual_weights: np.ndarray | None = None, anchors: np.ndarray | None = None):
        self.mode = mode
        self.lam = float(lam)
        self.n = int(n)
        self.solver = solver
        self.dual_weights = dual_weights
        self.anchors = anchors

    @property
    def alpha_rows(self) -> int:
        """Expected row count of kernel columns passed to predict_alpha."""
        return self.n if self.mode == EXACT else int(self.anchors.size)


def fit_krr(K_x, lam: float) -> KrrModel:
    """Fit exact KRR on an n x n input Gram matrix with ridge parameter lam.

    The solve state is (K_x + n*lambda*I) factored once; its inverse is never
    formed.
    """
    if not lam > 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    K_x = check_symmetric(K_x, what="K_x")
    n = K_x.shape[0]
    return KrrModel(EXACT, lam, n, solver=RegularizedSolver(K_x, n * lam))


def fit_krr_nystrom(K_x_cols, K_x_qq, lam: float, anchors) -> KrrModel:
    """Fit Nystrom-approximated KRR from the n x q kernel columns against the
    anchor points and the q x q anchor Gram.

    Solves the subsampled normal equations
        (K_nq^T K_nq + n*lambda*K_qq) B = K_nq^T
    so that alpha(x) = B^T kappa_q(x) with kappa_q the kernel column of x
    against the anchors. A single jitter of 1e-10 * trace(K_qq)/q is added
    if the system is rank deficient before giving up.
    """
    if not lam > 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    K_x_cols = np.asarray(K_x_cols, dtype=np.float64)
    K_x_qq = check_symmetric(K_x_qq, what="K_x_qq")
    anchors = np.asarray(anchors)
    if anchors.ndim != 1 or not np.issubdtype(anchors.dtype, np.integer):
        raise ValueError("anchors must be a 1-d integer index array")
    n, q = K_x_cols.shape
    if anchors.size != q or K_x_qq.shape[0] != q:
        raise ValueError(f"anchor count mismatch: cols {q}, Gram {K_x_qq.shape[0]}, "
                         f"indices {anchors.size}")
    if np.unique(anchors).size != q:
        raise ValueError("anchors contain duplicate indices")
    if q > n:
        raise ValueError(f"more anchors ({q}) than training points ({n})")
    M = K_x_cols.T @ K_x_cols + (n * lam) * K_x_qq
    M = 0.5 * (M + M.T)
    try:
        factor = cholesky_lower(M.copy())
    except np.linalg.LinAlgError:
        jitter = 1e-10 * np.trace(K_x_qq) / q
        M.flat[::q + 1] += jitter
        try:
            factor = cholesky_lower(M)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"Nystrom anchor system rank deficient even with jitter {jitter:.3g}") from exc
    dual = cho_solve(factor, K_x_cols.T)
    return KrrModel(NYSTROM, lam, n, dual_weights=dual, anchors=anchors)


def predict_alpha(model: KrrModel, kappa_test) -> np.ndarray:
    """alpha(x) columns for test points from their input-kernel columns.

    kappa_test has one column per test point: k_x against the n training
    points in exact mode, against the q anchors in Nystrom mode. Returns the
    n x t matrix whose column j is alpha(x_test_j). Needs the solve state,
    which a model rebuilt from an embedded bundle does not keep.
    """
    if (model.solver if model.mode == EXACT else model.dual_weights) is None:
        raise ValueError("ridge model without its solve state (rebuilt from an embedded "
                         "bundle): embed test inputs with oel.embed_inputs")
    kappa = np.asarray(kappa_test, dtype=np.float64)
    squeeze = kappa.ndim == 1
    if squeeze:
        kappa = kappa[:, None]
    if kappa.shape[0] != model.alpha_rows:
        raise ValueError(f"kappa_test has {kappa.shape[0]} rows, expected {model.alpha_rows} "
                         f"({model.mode} mode)")
    if model.mode == EXACT:
        alpha = model.solver.solve(kappa)
    else:
        alpha = model.dual_weights.T @ kappa
    return alpha[:, 0] if squeeze else alpha


def fold_readout(model: KrrModel, T) -> np.ndarray:
    """T_x with T alpha(x) = T_x kappa(x) for every kernel column kappa(x)
    that predict_alpha takes.

    T is p x n (it reads alpha columns); T_x is p x alpha_rows. Exact mode:
    T_x = T (K_x + n*lambda*I)^-1, one solve with p right-hand sides (the
    shifted Gram is symmetric). Nystrom mode: alpha(x) = B^T kappa_q(x), so
    T_x = T B^T (p x q).
    """
    T = np.asarray(T, dtype=np.float64)
    if T.ndim != 2 or T.shape[1] != model.n:
        raise ValueError(f"T must have {model.n} columns, got shape {T.shape}")
    if model.mode == EXACT:
        return np.ascontiguousarray(model.solver.solve(T.T).T)
    return T @ model.dual_weights.T


def train_alpha_times(model: KrrModel, K_x_cols, M) -> np.ndarray:
    """A M for the n x n training alpha matrix A (alpha(x_i) in column i),
    without forming A.

    K_x_cols is the n x n input Gram in exact mode and the n x q anchor
    columns K_nq in Nystrom mode. A is (K_x + n*lambda*I)^-1 K_x in exact
    mode and K_nq B in Nystrom mode, with B the dual weights; both are
    symmetric, so A M is also A^T M.
    """
    K_x_cols = np.asarray(K_x_cols, dtype=np.float64)
    M = np.asarray(M, dtype=np.float64)
    if K_x_cols.shape != (model.n, model.alpha_rows):
        raise ValueError(f"K_x_cols must be {model.n} x {model.alpha_rows} "
                         f"({model.mode} mode), got {K_x_cols.shape}")
    if model.mode == EXACT:
        return model.solver.solve(K_x_cols @ M)
    return K_x_cols @ (model.dual_weights @ M)


def select_anchors(n: int, q: int, seed: int) -> np.ndarray:
    """Uniform sample of q distinct training indices, sorted, reproducible
    from the seed."""
    if not 1 <= q <= n:
        raise ValueError(f"q must be in [1, {n}], got {q}")
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(n, size=q, replace=False))


def surrogate_sq_errors(alpha_cols: np.ndarray, K_y_train: np.ndarray,
                        C_true: np.ndarray, true_self_norms) -> np.ndarray:
    """Squared feature-space regression residual ||h(x_j) - psi(y_j)||^2 per
    point, expanded through output-kernel evaluations only.

    alpha_cols holds alpha(x_j) in column j, K_y_train is the n x n training
    output Gram, C_true[:, j] = k_y(y_i^train, y_j^true), true_self_norms[j]
    = k_y(y_j^true, y_j^true).
    """
    A = np.asarray(alpha_cols, dtype=np.float64)
    C = np.asarray(C_true, dtype=np.float64)
    quad = np.einsum("ij,ij->j", A, np.asarray(K_y_train) @ A)
    cross = np.einsum("ij,ij->j", A, C)
    return quad - 2.0 * cross + np.asarray(true_self_norms, dtype=np.float64)
