"""Kernel evaluations: Gram matrices, feature self-norms, and the Kemeny
embedding that turns permutations into sign vectors usable with the linear
kernel."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GAUSSIAN = "gaussian"
LINEAR = "linear"
TANIMOTO = "tanimoto"
GAUSSIAN_TANIMOTO = "gaussian_tanimoto"

KINDS = (GAUSSIAN, LINEAR, TANIMOTO, GAUSSIAN_TANIMOTO)
WIDTH_KINDS = (GAUSSIAN, GAUSSIAN_TANIMOTO)      # the kinds that read sigma2


@dataclass(frozen=True)
class KernelSpec:
    """Which kernel to evaluate and with which parameters.

    kind : one of KINDS.
    sigma2 : squared bandwidth, required (and > 0) for "gaussian" and
        "gaussian_tanimoto".
    """

    kind: str
    sigma2: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}; expected one of {KINDS}")
        if self.kind in WIDTH_KINDS:
            if self.sigma2 is None or not self.sigma2 > 0:
                raise ValueError(f"{self.kind} kernel needs sigma2 > 0, got {self.sigma2!r}")


def _as_samples(A) -> np.ndarray:
    A = np.asarray(A, dtype=np.float64)
    if A.ndim == 1:
        A = A.reshape(1, -1)
    if A.ndim != 2:
        raise ValueError(f"sample matrix must be 2-d (rows = items), got ndim={A.ndim}")
    return A


def _sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    # ||a||^2 + ||b||^2 - 2<a,b>, clipped: rounding can push tiny values below
    # 0. Built in two buffers: scaling by -2 is exact and x + (-y) is x - y,
    # so the values are those of the expression written out
    G = A @ B.T
    G *= -2.0
    sq = np.einsum("ij,ij->i", A, A)[:, None] + np.einsum("ij,ij->i", B, B)[None, :]
    sq += G
    return np.maximum(sq, 0.0, out=sq)


def _check_binary_rows(M: np.ndarray, what: str) -> None:
    if not np.all((M == 0.0) | (M == 1.0)):
        raise ValueError(f"tanimoto kernels need binary 0/1 rows; {what} has other values")
    zero = np.flatnonzero(M.sum(axis=1) == 0)
    if zero.size:
        raise ValueError(f"tanimoto kernel undefined on all-zero rows ({what} row {zero[0]})")


def _tanimoto(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    inner = A @ B.T
    na = np.einsum("ij,ij->i", A, A)
    nb = np.einsum("ij,ij->i", B, B)
    return inner / (na[:, None] + nb[None, :] - inner)


def gram(spec: KernelSpec, A, B=None) -> np.ndarray:
    """Gram matrix of kernel values k(a_i, b_j), rows of A against rows of B.

    B=None means the self-Gram of A, which is computed from its upper
    triangle and mirrored so the result is exactly symmetric.
    """
    symmetric = B is None or B is A
    A = _as_samples(A)
    B = A if symmetric else _as_samples(B)
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"feature dimensions differ: {A.shape[1]} vs {B.shape[1]}")

    if spec.kind == LINEAR:
        K = A @ B.T
    elif spec.kind == GAUSSIAN:
        # x / -c is -x / c exactly (round to nearest is sign-symmetric)
        K = _sq_dists(A, B)
        K /= -2.0 * spec.sigma2
        np.exp(K, out=K)
    elif spec.kind == TANIMOTO:
        _check_binary_rows(A, "A")
        if not symmetric:
            _check_binary_rows(B, "B")
        K = _tanimoto(A, B)
    elif spec.kind == GAUSSIAN_TANIMOTO:
        _check_binary_rows(A, "A")
        if not symmetric:
            _check_binary_rows(B, "B")
        # RKHS distance of the tanimoto features; k_T(v,v) = 1 on binary
        # nonzero rows, so d^2 = 2 - 2 k_T(a,b)
        d2 = np.maximum(2.0 - 2.0 * _tanimoto(A, B), 0.0)
        K = np.exp(-d2 / (2.0 * spec.sigma2))
    else:  # pragma: no cover - guarded by KernelSpec
        raise ValueError(spec.kind)

    if symmetric:
        K = np.triu(K) + np.triu(K, 1).T
    return K


def pair_values(spec: KernelSpec, A, B) -> np.ndarray:
    """Rowwise kernel values k(a_i, b_i) for two sample matrices with the
    same number of rows (a cheap diagonal of gram(spec, A, B))."""
    A = _as_samples(A)
    B = _as_samples(B)
    if A.shape != B.shape:
        raise ValueError(f"shapes differ: {A.shape} vs {B.shape}")
    if spec.kind == LINEAR:
        return np.einsum("ij,ij->i", A, B)
    if spec.kind == GAUSSIAN:
        sq = np.maximum(np.einsum("ij,ij->i", A - B, A - B), 0.0)
        return np.exp(-sq / (2.0 * spec.sigma2))
    _check_binary_rows(A, "A")
    _check_binary_rows(B, "B")
    inner = np.einsum("ij,ij->i", A, B)
    na = np.einsum("ij,ij->i", A, A)
    nb = np.einsum("ij,ij->i", B, B)
    kt = inner / (na + nb - inner)
    if spec.kind == TANIMOTO:
        return kt
    d2 = np.maximum(2.0 - 2.0 * kt, 0.0)
    return np.exp(-d2 / (2.0 * spec.sigma2))


def self_norms(spec: KernelSpec, Y) -> np.ndarray:
    """Vector of squared feature norms k(y_i, y_i) for the rows of Y."""
    Y = _as_samples(Y)
    if spec.kind == LINEAR:
        return np.einsum("ij,ij->i", Y, Y)
    if spec.kind in (TANIMOTO, GAUSSIAN_TANIMOTO):
        _check_binary_rows(Y, "Y")
    # gaussian, tanimoto and gaussian-tanimoto are all normalized
    return np.ones(Y.shape[0])


def check_permutation(ranks) -> np.ndarray:
    """Validate a permutation given as ranks: entry i is the rank of item i,
    and the ranks must be exactly 1..K in some order."""
    r = np.asarray(ranks)
    if r.ndim != 1 or not np.issubdtype(r.dtype, np.integer):
        raise ValueError("permutation must be a 1-d integer array of ranks")
    K = r.size
    if K < 1 or not np.array_equal(np.sort(r), np.arange(1, K + 1)):
        raise ValueError(f"ranks {r.tolist()} are not a permutation of 1..{K}")
    return r


def kemeny_embed(ranks) -> np.ndarray:
    """Embed a permutation as the +-1 vector of pairwise order signs.

    Entry for the pair (i, j), i < j in lexicographic order, is
    sign(rank(j) - rank(i)). The embedding is left unnormalized: with the
    linear kernel, <phi(s), phi(s')> / (K(K-1)/2) is exactly Kendall's tau.
    """
    r = check_permutation(ranks)
    ii, jj = np.triu_indices(r.size, k=1)
    return np.sign(r[jj] - r[ii]).astype(np.float64)
