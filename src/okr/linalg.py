"""Regularized symmetric solves, low-rank factors and top-p
eigendecomposition of PSD matrices, exact or sketched (randomized range
finder).

pivoted_cholesky factors a PSD matrix given only its diagonal and a way to
compute one column, so the matrix is never formed: it stops once every
residual diagonal entry is below PIVOT_RTOL times the largest diagonal
entry, which bounds the trace of the residual K - F F^T by N times that.
The exact top p come from a block Krylov method when p is small next to the
dimension, with a full LAPACK eigendecomposition as the fallback whenever
its basis reaches a cap before every Ritz pair converges.

Cholesky factors and triangular solves run by blocks of _BLOCK rows:
LAPACK (through numpy) on each diagonal block, GEMM for the rest.
cholesky_lower writes the factor over the lower triangle of its argument, so
a factor costs no memory beyond the matrix it replaces. Everything here runs
on numpy alone."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# eigenvalues of a PSD input below this are rounding noise and clamped to
# zero; anything more negative means the matrix was not PSD to begin with
EIG_CLAMP = -1e-10

SYMMETRY_TOL = 1e-8
_SYMMETRY_BLOCK = 256

# rows per diagonal block of cholesky_lower and solve_lower
_BLOCK = 256

# The block Krylov solver pays off against a full eigh only when p is small
# next to the dimension N. Measured on 2 cores against eigh, on the mixed
# Gram of a fit with tanimoto fingerprint outputs at p = 4 ... 1.5 sqrt(N):
# 0.5-3.6x eigh's time at N = 720 (over 1 for p >= 8), 1.1-2.5x for p >= 32
# at N = 1000 and 1200, 0.3-1.3x at N = 1500 (over 1 at p = 58 only),
# 0.2-0.85x at N = 2000 and 0.1-0.3x at N = 4000, best of 2-3 runs each.
# A Gaussian-kernel spectrum converges faster; a flat Wishart one
# at N = 1500, p = 58 reaches the cap and falls back.
KRYLOV_MIN_DIM = 1500
KRYLOV_MAX_P_PER_SQRT_DIM = 1.5

# the Ritz pairs (mu, u) are accepted once every ||K u - mu u|| is at most
# this times max(mu_1, 1); at 1e-12 a vector of a tied p-th eigenvalue
# strayed from its eigenspace by 1e-10
KRYLOV_RESIDUAL_RTOL = 1e-13

# the basis holds at most this fraction of N columns; a solve that reaches
# it has cost about one eigh, which then runs instead
KRYLOV_MAX_BASIS_FRACTION = 0.5

# Rayleigh-Ritz runs once the basis has grown by this factor since it last
# ran: its eigh of the projected matrix costs more than the new products
KRYLOV_CHECK_GROWTH = 1.25

# seed of the fixed Gaussian start block: a fixed one keeps repeated runs
# bit-identical
KRYLOV_SEED = 20201


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


def solve_lower(L, B, trans: bool = False) -> np.ndarray:
    """X with L X = B, or L^T X = B when trans, for a lower triangular L and
    a conformable vector or matrix B. The strict upper triangle of L is never
    read. Each _BLOCK-row diagonal block is solved by np.linalg.solve; the
    coupling to the blocks already solved is one GEMM per block."""
    n = L.shape[0]
    X = np.array(B, dtype=np.float64)
    if X.shape[0] != n:
        raise ValueError(f"B has {X.shape[0]} rows, expected {n}")
    vector = X.ndim == 1
    if vector:
        X = X[:, None]
    starts = range(0, n, _BLOCK)
    for k in (reversed(starts) if trans else starts):
        e = min(k + _BLOCK, n)
        D = np.tril(L[k:e, k:e])
        if trans:
            if e < n:
                X[k:e] -= L[e:, k:e].T @ X[e:]
            X[k:e] = np.linalg.solve(D.T, X[k:e])
        else:
            if k:
                X[k:e] -= L[k:e, :k] @ X[:k]
            X[k:e] = np.linalg.solve(D, X[k:e])
    return X[:, 0] if vector else X


def cho_solve(L, B) -> np.ndarray:
    """(L L^T)^{-1} B from a lower Cholesky factor L (cholesky_lower)."""
    return solve_lower(L, solve_lower(L, B), trans=True)


def _first_failing_minor(D: np.ndarray) -> int:
    """The order of the first leading minor of D that is not positive
    definite, for a D whose Cholesky factorization failed; every leading
    minor below a positive definite one is positive definite too."""
    good, bad = 0, D.shape[0]
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            np.linalg.cholesky(D[:mid, :mid])
            good = mid
        except np.linalg.LinAlgError:
            bad = mid
    return bad


def cholesky_lower(A: np.ndarray) -> np.ndarray:
    """Overwrite the lower triangle of the symmetric positive definite
    float64 matrix A with its Cholesky factor L (A = L L^T) and return A.

    Only the lower triangle is read, and the strict upper triangle keeps
    what it held, as LAPACK's potrf leaves it. Works through block columns
    _BLOCK wide: each diagonal block, less the product of the factor rows to
    its left, goes to np.linalg.cholesky, and the panel below it, less the
    same product, to solve_lower.
    Raises np.linalg.LinAlgError naming the first leading minor of A that is
    not positive definite; A is then partly overwritten."""
    n = A.shape[0]
    lower = np.tri(min(n, _BLOCK), dtype=bool)
    for k in range(0, n, _BLOCK):
        e = min(k + _BLOCK, n)
        left = A[k:e, :k]
        D = A[k:e, k:e] - left @ left.T
        try:
            L11 = np.linalg.cholesky(D)
        except np.linalg.LinAlgError:
            raise np.linalg.LinAlgError(
                f"{k + _first_failing_minor(D)}-th leading minor of the array is not "
                "positive definite") from None
        np.copyto(A[k:e, k:e], L11, where=lower[:e - k, :e - k])
        if e < n:
            panel = A[e:, k:e] - A[e:, :k] @ left.T
            A[e:, k:e] = solve_lower(L11, panel.T).T
    return A


class RegularizedSolver:
    """Cholesky factorization of (K + shift*I) for symmetric PSD K.

    Immutable after construction; solve() can be called concurrently.
    """

    def __init__(self, K, shift: float):
        if not shift > 0:
            raise ValueError(f"shift must be positive, got {shift}")
        K = check_symmetric(K, what="K")
        self.shift = float(shift)
        shifted = K.copy()
        shifted.flat[::K.shape[0] + 1] += self.shift
        try:
            self._factor = cholesky_lower(shifted)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"Cholesky of (K + {shift:g} I) failed: {exc}; "
                "K is badly conditioned or not PSD") from exc

    @classmethod
    def from_factor(cls, factor: np.ndarray, shift: float) -> "RegularizedSolver":
        """Rebuild a solver from a stored lower Cholesky factor of
        (K + shift*I), bypassing refactorization (bit-exact persistence)."""
        obj = cls.__new__(cls)
        obj.shift = float(shift)
        obj._factor = np.asarray(factor, dtype=np.float64)
        return obj

    @property
    def factor(self) -> np.ndarray:
        """The lower Cholesky factor array; its strict upper triangle holds
        that of K + shift*I."""
        return self._factor

    def solve(self, B) -> np.ndarray:
        """Return (K + shift*I)^{-1} B for a conformable vector or matrix B."""
        return cho_solve(self._factor, B)


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
    them: "krylov", "eigh" or "randomized"."""

    values: np.ndarray
    vectors: np.ndarray
    solver: str


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


def _krylov_topk(K: np.ndarray, p: int):
    """Top p eigenpairs (descending) by block Krylov from a fixed Gaussian
    block of width p, or None when the basis reaches its cap first.

    Each new block is K times the last one, orthonormalized against the
    basis V by two passes of block Gram-Schmidt. K V is kept, so
    Rayleigh-Ritz and the residual test need no further product with K. A
    block of width p holds up to p copies of every eigenvalue, as many as a
    top-p eigenspace can need."""
    n = K.shape[0]
    cap = int(KRYLOV_MAX_BASIS_FRACTION * n)
    V, KV = np.empty((n, cap), order="F"), np.empty((n, cap), order="F")
    # V^T K V; eigh reads its lower triangle, which each block row completes
    H = np.empty((cap, cap))
    Q = np.linalg.qr(np.random.default_rng(KRYLOV_SEED).standard_normal((n, p)))[0]
    k = check = 0
    while k + p <= cap:
        V[:, k:k + p] = Q
        KV[:, k:k + p] = K @ Q
        C = V[:, :k + p].T @ KV[:, k:k + p]
        k += p
        H[k - p:k, :k] = C.T
        if k >= check or k + p > cap:
            w, S = np.linalg.eigh(H[:k, :k])
            w, S = w[::-1][:p], S[:, ::-1][:, :p]
            U = V[:, :k] @ S
            residual = np.linalg.norm(KV[:, :k] @ S - U * w, axis=0)
            if np.max(residual) <= KRYLOV_RESIDUAL_RTOL * max(w[0], 1.0):
                return w, U
            check = KRYLOV_CHECK_GROWTH * k
        # normalized between the passes: once the basis spans an invariant
        # subspace the new block is rounding noise, and its normalization
        # would bring back directions already in the basis
        Q = np.linalg.qr(KV[:, k - p:k] - V[:, :k] @ C)[0]
        Q = np.linalg.qr(Q - V[:, :k] @ (V[:, :k].T @ Q))[0]
    return None


def eig_topk_exact(K, p: int) -> EigPair:
    """The p largest eigenpairs of a symmetric PSD matrix.

    When N >= KRYLOV_MIN_DIM and p <= KRYLOV_MAX_P_PER_SQRT_DIM * sqrt(N),
    a block Krylov method (_krylov_topk) computes them, stopping once every
    Ritz pair has ||K u - mu u|| <= KRYLOV_RESIDUAL_RTOL * max(mu_1, 1).
    When its basis reaches KRYLOV_MAX_BASIS_FRACTION * N columns first, and
    for larger p or smaller N, a full symmetric eigendecomposition (LAPACK)
    is used. EigPair.solver names the one that produced the result."""
    K = check_symmetric(K, what="K")
    n = K.shape[0]
    if not 1 <= p <= n:
        raise ValueError(f"p must be in [1, {n}], got {p}")
    if n >= KRYLOV_MIN_DIM and p <= KRYLOV_MAX_P_PER_SQRT_DIM * math.sqrt(n):
        found = _krylov_topk(K, p)
        if found is not None:
            return _finalize(*found, solver="krylov")
    w, V = np.linalg.eigh(K)
    order = np.argsort(w)[::-1][:p]
    return _finalize(w[order], V[:, order], solver="eigh")


def eig_topk_randomized(K, p: int, oversample: int = 10, power_iters: int = 2,
                        seed: int = 0) -> EigPair:
    """Sketched top-p eigenpairs: Gaussian range finder of width
    p + oversample, power_iters subspace iterations (one re-orthonormalized
    multiply by K each), then an exact eigendecomposition in the sketched
    basis truncated to p. Deterministic given seed (PCG64)."""
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
    Q, _ = np.linalg.qr(Y)
    for _ in range(power_iters):
        Q, _ = np.linalg.qr(K @ Q)
    B = Q.T @ (K @ Q)
    B = 0.5 * (B + B.T)
    w, V = np.linalg.eigh(B)
    order = np.argsort(w)[::-1][:p]
    return _finalize(w[order], Q @ V[:, order], solver="randomized")
