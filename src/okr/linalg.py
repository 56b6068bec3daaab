"""Regularized symmetric solves, low-rank factors and top-p
eigendecomposition of PSD matrices, exact or sketched (randomized range
finder).

pivoted_cholesky factors a PSD matrix given only its diagonal and a way to
compute one column, so the matrix is never formed: it stops once every
residual diagonal entry is below PIVOT_RTOL times the largest diagonal
entry, which bounds the trace of the residual K - F F^T by N times that.
The exact top p come from implicitly restarted Lanczos (ARPACK) when p is
small next to the dimension, with a full LAPACK eigendecomposition as the
fallback whenever Lanczos does not converge or its result fails a check.

scipy is imported inside the functions that factor, solve or
eigendecompose, so importing this module (and everything that imports it)
loads numpy only."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# eigenvalues of a PSD input below this are rounding noise and clamped to
# zero; anything more negative means the matrix was not PSD to begin with
EIG_CLAMP = -1e-10

SYMMETRY_TOL = 1e-8
_SYMMETRY_BLOCK = 256

# Lanczos pays off against a full eigh only when p is small next to the
# dimension N. Measured on 2 cores (Gaussian-kernel and flat Wishart
# spectra), eigsh took 0.02-0.5 of eigh's time for p <= 2 sqrt(N) at
# N = 720 and 1500, and 0.5 s against 6.7 s at N = 4000, p = 32; at N = 200
# it won up to p = 28 on the Gaussian spectrum and lost by up to 1.6x (a few
# ms) on the flat one, and at N = 100 it lost on both. The rule keeps a
# margin inside the region where it won.
LANCZOS_MIN_DIM = 200
LANCZOS_MAX_P_PER_SQRT_DIM = 1.5

# a Lanczos Ritz pair (mu, u) is accepted when ||K u - mu u|| stays below
# this times max(mu_1, 1)
LANCZOS_RESIDUAL_RTOL = 1e-10

# seed of the fixed Gaussian start vector: a ones vector can be orthogonal to
# a top eigenvector, and a fixed one keeps repeated runs bit-identical
LANCZOS_V0_SEED = 20201


# pivoted Cholesky stops once every residual diagonal entry is at most this
# fraction of the largest diagonal entry (Harbrecht, Peters & Schneider,
# "On the low-rank approximation by the pivoted Cholesky decomposition",
# 2012: the trace of the residual is the sum of those entries)
PIVOT_RTOL = 1e-14


class NumericalError(RuntimeError):
    """A factorization or eigendecomposition failed or produced values
    inconsistent with a PSD input."""


def check_symmetric(K: np.ndarray, tol: float = SYMMETRY_TOL, what: str = "matrix") -> np.ndarray:
    K = np.asarray(K, dtype=np.float64)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError(f"{what} must be square, got shape {K.shape}")
    scale = max(1.0, float(K.max()), -float(K.min())) if K.size else 1.0
    # |K - K^T| over row blocks of the upper triangle: half the reads of the
    # full difference and no n x n temporaries (3x faster at n = 4000)
    asym = 0.0
    for i in range(0, K.shape[0], _SYMMETRY_BLOCK):
        block = K[i:i + _SYMMETRY_BLOCK, i:] - K[i:, i:i + _SYMMETRY_BLOCK].T
        asym = max(asym, float(np.max(np.abs(block))))
    if asym > tol * scale:
        raise ValueError(f"{what} not symmetric: max |K - K^T| = {asym:.3g}")
    return K


class RegularizedSolver:
    """Cholesky factorization of (K + shift*I) for symmetric PSD K.

    Immutable after construction; solve() can be called concurrently.
    """

    def __init__(self, K, shift: float):
        if not shift > 0:
            raise ValueError(f"shift must be positive, got {shift}")
        from scipy.linalg import cho_factor

        K = check_symmetric(K, what="K")
        self.n = K.shape[0]
        self.shift = float(shift)
        shifted = K + self.shift * np.eye(self.n)
        try:
            self._factor = cho_factor(shifted, lower=True)
        except np.linalg.LinAlgError as exc:
            # cho_factor reports the first non-positive pivot index
            raise NumericalError(
                f"Cholesky of (K + {shift:g} I) failed: {exc}; "
                "K is badly conditioned or not PSD") from exc

    @classmethod
    def from_factor(cls, factor: np.ndarray, shift: float) -> "RegularizedSolver":
        """Rebuild a solver from a stored lower Cholesky factor of
        (K + shift*I), bypassing refactorization (bit-exact persistence)."""
        obj = cls.__new__(cls)
        obj.n = factor.shape[0]
        obj.shift = float(shift)
        obj._factor = (np.asarray(factor, dtype=np.float64), True)
        return obj

    @property
    def factor(self) -> np.ndarray:
        """The lower Cholesky factor array (upper triangle is unspecified)."""
        return self._factor[0]

    def solve(self, B) -> np.ndarray:
        """Return (K + shift*I)^{-1} B for a conformable vector or matrix B."""
        from scipy.linalg import cho_solve

        B = np.asarray(B, dtype=np.float64)
        if B.shape[0] != self.n:
            raise ValueError(f"B has {B.shape[0]} rows, expected {self.n}")
        return cho_solve(self._factor, B)


def solve_regularized(K, shift: float) -> RegularizedSolver:
    """Factor (K + shift*I) once so many right-hand sides can be solved."""
    return RegularizedSolver(K, shift)


@dataclass(frozen=True)
class PivotedCholesky:
    """K ~ F F^T from r pivoted Cholesky steps on an N x N PSD matrix.

    F is N x r and F[pivots] is lower triangular, so F = K[:, pivots] L^-T
    with L = F[pivots]. residual is the largest diagonal entry of
    K - F F^T when the steps stopped; converged says whether it fell to
    the tolerance (False when max_rank steps ran first)."""

    F: np.ndarray
    pivots: np.ndarray
    residual: float
    converged: bool

    @property
    def rank(self) -> int:
        return self.F.shape[1]


def pivoted_cholesky(diag, column, max_rank: int | None = None,
                     rtol: float = PIVOT_RTOL) -> PivotedCholesky:
    """Greedy pivoted Cholesky of a PSD matrix known through its diagonal
    and column(i), which returns column i as a length-N vector.

    Each step takes the largest residual diagonal entry as the pivot, fetches
    that one column and subtracts the factor so far. It stops when no
    residual diagonal entry exceeds rtol times the largest diagonal entry, or
    after max_rank steps. Deterministic: ties go to the lowest index."""
    d = np.array(diag, dtype=np.float64)
    if d.ndim != 1:
        raise ValueError(f"diag must be a vector, got shape {d.shape}")
    N = d.size
    max_rank = N if max_rank is None else max(0, min(int(max_rank), N))
    tol = rtol * float(d.max()) if N else 0.0
    # row k holds factor column k, so each step writes and reads whole rows
    rows = np.empty((max_rank, N))
    pivots = np.empty(max_rank, dtype=np.int64)
    k = 0
    while k < max_rank:
        i = int(np.argmax(d))
        if not d[i] > tol:
            break
        col = np.asarray(column(i), dtype=np.float64)
        if k:
            col = col - rows[:k, i] @ rows[:k]
        col = np.divide(col, np.sqrt(d[i]), out=rows[k])
        pivots[k] = i
        d -= col * col
        # rounding leaves the pivot's entry near zero, not at it; earlier
        # pivots only ever get smaller
        d[i] = 0.0
        k += 1
    residual = float(d.max()) if N else 0.0
    # rows was allocated for max_rank steps: copy out what was used
    return PivotedCholesky(F=rows[:k].T.copy(), pivots=pivots[:k].copy(), residual=residual,
                           converged=residual <= tol)


@dataclass(frozen=True)
class EigPair:
    """Top eigenvalues (descending, nonnegative) with column-orthonormal
    eigenvectors of a symmetric PSD matrix, and the solver that produced
    them: "lanczos", "eigh" or "randomized"."""

    values: np.ndarray
    vectors: np.ndarray
    solver: str

    @property
    def p(self) -> int:
        return self.values.size


def column_signs(U: np.ndarray) -> np.ndarray:
    """+1 or -1 per column: the sign that makes the column's largest-magnitude
    entry positive, so repeated runs (and different LAPACK drivers) agree on
    the signs of eigenvectors."""
    if U.size == 0:
        return np.ones(U.shape[1])
    signs = np.sign(U[np.argmax(np.abs(U), axis=0), np.arange(U.shape[1])])
    signs[signs == 0] = 1.0
    return signs


def _fix_signs(U: np.ndarray) -> np.ndarray:
    return U * column_signs(U)


def _finalize(values: np.ndarray, vectors: np.ndarray, solver: str) -> EigPair:
    bad = values < EIG_CLAMP
    if np.any(bad):
        raise NumericalError(
            f"eigenvalue {values[bad].min():.3g} below {EIG_CLAMP:g}; input was not PSD")
    values = np.maximum(values, 0.0)
    return EigPair(values=values, vectors=_fix_signs(vectors), solver=solver)


def _lanczos_topk(K: np.ndarray, p: int):
    """Top p eigenpairs (descending) from ARPACK's implicitly restarted
    Lanczos, or None when ARPACK fails or the result fails a check."""
    from scipy.linalg.blas import dsymv
    from scipy.sparse.linalg import (ArpackError, ArpackNoConvergence,
                                     LinearOperator, eigsh)

    n = K.shape[0]
    # BLAS symv reads one triangle of a column-major matrix; for a row-major
    # K, K.T is the same symmetric matrix in column-major order. Memory-bound,
    # it multiplies about 4x faster than K @ x at N = 4000
    A = K.T if K.flags.c_contiguous else np.asfortranarray(K)

    def matvec(x):
        return dsymv(1.0, A, x.ravel(), lower=1)

    v0 = np.random.default_rng(LANCZOS_V0_SEED).standard_normal(n)
    try:
        w, V = eigsh(LinearOperator((n, n), matvec=matvec, dtype=np.float64),
                     k=p, which="LA", tol=0, v0=v0)
        order = np.argsort(w)[::-1]
        w, V = w[order], V[:, order]
        margin = LANCZOS_RESIDUAL_RTOL * max(w[0], 1.0)
        if np.max(np.linalg.norm(K @ V - V * w, axis=0)) > margin:
            return None

        # Single-vector Lanczos can miss copies of a repeated eigenvalue, and
        # then every Ritz pair still passes the residual check. K restricted
        # to the orthogonal complement of span(V) must have no eigenvalue
        # above mu_p.
        def deflated(x):
            x = x.ravel()
            x = x - V @ (V.T @ x)
            y = matvec(x)
            return y - V @ (V.T @ y)

        rest = eigsh(LinearOperator((n, n), matvec=deflated, dtype=np.float64),
                     k=1, which="LA", tol=0, v0=v0, return_eigenvectors=False)
        if rest[0] > w[-1] + margin:
            return None
    except (ArpackNoConvergence, ArpackError):
        return None
    return w, V


def eig_topk_exact(K, p: int) -> EigPair:
    """The p largest eigenpairs of a symmetric PSD matrix.

    When N >= LANCZOS_MIN_DIM and p <= LANCZOS_MAX_P_PER_SQRT_DIM * sqrt(N),
    ARPACK's implicitly restarted Lanczos (eigsh, converged to machine
    precision from a fixed start vector) computes them. Its result is kept
    only if every Ritz pair has ||K u - mu u|| <= LANCZOS_RESIDUAL_RTOL *
    max(mu_1, 1) and no eigenvalue of K outside their span exceeds mu_p (by
    the same margin); otherwise, and for larger p or smaller N, a full
    symmetric eigendecomposition (LAPACK) is used. EigPair.solver names the
    one that produced the result."""
    from scipy.linalg import eigh

    K = check_symmetric(K, what="K")
    n = K.shape[0]
    if not 1 <= p <= n:
        raise ValueError(f"p must be in [1, {n}], got {p}")
    if n >= LANCZOS_MIN_DIM and p <= LANCZOS_MAX_P_PER_SQRT_DIM * math.sqrt(n):
        found = _lanczos_topk(K, p)
        if found is not None:
            return _finalize(*found, solver="lanczos")
    w, V = eigh(K)
    order = np.argsort(w)[::-1][:p]
    return _finalize(w[order], V[:, order], solver="eigh")


def eig_topk_randomized(K, p: int, oversample: int = 10, power_iters: int = 2,
                        seed: int = 0) -> EigPair:
    """Sketched top-p eigenpairs: Gaussian range finder of width
    p + oversample, power_iters subspace iterations (one re-orthonormalized
    multiply by K each), then an exact eigendecomposition in the sketched
    basis truncated to p. Deterministic given seed (PCG64)."""
    from scipy.linalg import eigh, qr

    K = check_symmetric(K, what="K")
    n = K.shape[0]
    if not 1 <= p <= n:
        raise ValueError(f"p must be in [1, {n}], got {p}")
    if oversample < 0 or power_iters < 0:
        raise ValueError("oversample and power_iters must be nonnegative")
    width = p + oversample
    if width > n:
        raise ValueError(f"sketch width p + oversample = {width} exceeds dim {n}")
    rng = np.random.default_rng(seed)
    Y = K @ rng.standard_normal((n, width))
    Q, _ = qr(Y, mode="economic")
    for _ in range(power_iters):
        Q, _ = qr(K @ Q, mode="economic")
    B = Q.T @ (K @ Q)
    B = 0.5 * (B + B.T)
    w, V = eigh(B)
    order = np.argsort(w)[::-1][:p]
    return _finalize(w[order], Q @ V[:, order], solver="randomized")
