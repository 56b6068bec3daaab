"""Regularized symmetric solves and top-p eigendecomposition of PSD
matrices, exact (LAPACK) or sketched (randomized range finder)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

# eigenvalues of a PSD input below this are rounding noise and clamped to
# zero; anything more negative means the matrix was not PSD to begin with
EIG_CLAMP = -1e-10

SYMMETRY_TOL = 1e-8


class NumericalError(RuntimeError):
    """A factorization or eigendecomposition failed or produced values
    inconsistent with a PSD input."""


def check_symmetric(K: np.ndarray, tol: float = SYMMETRY_TOL, what: str = "matrix") -> np.ndarray:
    K = np.asarray(K, dtype=np.float64)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError(f"{what} must be square, got shape {K.shape}")
    scale = max(1.0, np.max(np.abs(K))) if K.size else 1.0
    asym = np.max(np.abs(K - K.T)) if K.size else 0.0
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
        K = check_symmetric(K, what="K")
        self.n = K.shape[0]
        self.shift = float(shift)
        shifted = K + self.shift * np.eye(self.n)
        try:
            self._factor = scipy.linalg.cho_factor(shifted, lower=True)
        except scipy.linalg.LinAlgError as exc:
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
        B = np.asarray(B, dtype=np.float64)
        if B.shape[0] != self.n:
            raise ValueError(f"B has {B.shape[0]} rows, expected {self.n}")
        return scipy.linalg.cho_solve(self._factor, B)


def solve_regularized(K, shift: float) -> RegularizedSolver:
    """Factor (K + shift*I) once so many right-hand sides can be solved."""
    return RegularizedSolver(K, shift)


@dataclass(frozen=True)
class EigPair:
    """Top eigenvalues (descending, nonnegative) with column-orthonormal
    eigenvectors of a symmetric PSD matrix."""

    values: np.ndarray
    vectors: np.ndarray

    @property
    def p(self) -> int:
        return self.values.size


def _fix_signs(U: np.ndarray) -> np.ndarray:
    # make the largest-magnitude entry of every column positive so repeated
    # runs (and different LAPACK drivers) agree on signs
    if U.size == 0:
        return U
    picks = np.argmax(np.abs(U), axis=0)
    signs = np.sign(U[picks, np.arange(U.shape[1])])
    signs[signs == 0] = 1.0
    return U * signs


def _finalize(values: np.ndarray, vectors: np.ndarray) -> EigPair:
    bad = values < EIG_CLAMP
    if np.any(bad):
        raise NumericalError(
            f"eigenvalue {values[bad].min():.3g} below {EIG_CLAMP:g}; input was not PSD")
    values = np.maximum(values, 0.0)
    return EigPair(values=values, vectors=_fix_signs(vectors))


def eig_topk_exact(K, p: int) -> EigPair:
    """The p largest eigenpairs of a symmetric PSD matrix, by full symmetric
    eigendecomposition."""
    K = check_symmetric(K, what="K")
    n = K.shape[0]
    if not 1 <= p <= n:
        raise ValueError(f"p must be in [1, {n}], got {p}")
    w, V = scipy.linalg.eigh(K)
    order = np.argsort(w)[::-1][:p]
    return _finalize(w[order], V[:, order])


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
    Q, _ = scipy.linalg.qr(Y, mode="economic")
    for _ in range(power_iters):
        Q, _ = scipy.linalg.qr(K @ Q, mode="economic")
    B = Q.T @ (K @ Q)
    B = 0.5 * (B + B.T)
    w, V = scipy.linalg.eigh(B)
    order = np.argsort(w)[::-1][:p]
    return _finalize(w[order], Q @ V[:, order])
