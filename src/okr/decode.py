"""Candidate-set pre-image search.

Every candidate is scored with the expanded squared feature-space distance;
the query-constant term ||P h(x)||^2 is dropped, so scores are comparable
only within one query and the reported score is

    score(c) = ||psi(y_c)||^2 - 2 <embedding of h(x), embedding of y_c>.

The same machinery serves the full-dimensional decoder (inner products
through n output-kernel columns, O(n) per candidate) and the learned
low-rank decoder (inner products in R^p, O(p) per candidate).

Rankings order candidates by (score, candidate id): equal scores rank the
smaller id first, NaN scores rank last, and the result is the same as a full
sort of every score.

The candidates come as an E x N matrix (E = p embedded, E = n
full-dimensional) or as a CandidateBlocks source that builds the E x w
columns of one block of candidates on request, so the whole matrix need
never exist. With per-query candidate lists the source is assembled whole,
block by block, since each query reads its own scattered columns.

Decoding against all N candidates streams over blocks of _BLOCK candidates,
asks the source for each block once, and keeps a running top-k per query.
Each block is scored into one reused queries x block buffer. A query's
threshold is the smaller of the block's k-th smallest score and the query's
running k-th best. Both are upper bounds on the final k-th best, so a score
above the threshold can never enter the top k. Only scores at or below it
survive (every tie on the threshold included), and only the survivors are
merged into the running lists, by a stable per-row sort on score over a
layout that keeps equal scores in ascending id order. The threshold
comparison and the merge are exact, so the output is identical to the full
sort, ties included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Ranking:
    """Candidates of one query ordered by ascending score; ties broken by
    ascending candidate index."""

    indices: np.ndarray
    scores: np.ndarray

    def __len__(self) -> int:
        return self.indices.size


def _select_topk(scores: np.ndarray, ids: np.ndarray, k: int) -> Ranking:
    """k smallest scores as if the whole list were sorted by (score, id),
    but with bounded partial selection when k << N."""
    n = scores.size
    kk = min(k, n)
    if kk < n:
        part = np.argpartition(scores, kk - 1)[:kk]
        # keep every candidate tied with the selection boundary so that the
        # final (score, id) sort sees all tie contenders ("not above" also
        # keeps every NaN when the boundary itself is NaN)
        pool = np.flatnonzero(~(scores > scores[part].max()))
    else:
        pool = np.arange(n)
    order = np.lexsort((ids[pool], scores[pool]))[:kk]
    pool = pool[order]
    return Ranking(indices=ids[pool], scores=scores[pool])


@dataclass(frozen=True)
class CandidateBlocks:
    """An E x N candidate matrix served a block of columns at a time.

    columns(start, stop) returns the E x (stop - start) float64 columns of
    candidates [start, stop); decoding asks for each block once."""

    shape: tuple[int, int]
    columns: Callable[[int, int], np.ndarray]

    @classmethod
    def of_array(cls, M: np.ndarray) -> CandidateBlocks:
        """The column slices of a whole matrix."""
        return cls(M.shape, lambda start, stop: M[:, start:stop])

    def whole(self) -> np.ndarray:
        """The E x N matrix, assembled block by block."""
        E, N = self.shape
        out = np.empty((E, N))
        for start in range(0, N, _BLOCK):
            stop = min(start + _BLOCK, N)
            out[:, start:stop] = self.columns(start, stop)
        return out


# candidate-axis block width. Every block pays a fixed merge and bookkeeping
# cost, so a narrow block keeps the cost per candidate of N ~ 1e3 (one
# partial block) close to that of N ~ 1e5; 2048 measured about as fast as
# 8192 at N = 1e5 and flatter across N
_BLOCK = 2048


def _decode_global(E_test: np.ndarray, cands: CandidateBlocks, self_norms: np.ndarray,
                   k: int) -> list[Ranking]:
    """All-candidates decoding with a threshold-pruned running top-k; memory
    stays O(queries x block) however large N grows (see the module
    docstring)."""
    t = E_test.shape[1]
    n_cand = cands.shape[1]
    kk = min(k, n_cand)
    # -2 E_test^T in C order: scaling by -2 is exact and the layout picks the
    # same BLAS kernel as a C-ordered E_test^T, so every score is
    # bit-identical to self_norms - 2 (E_test^T E_cand)
    neg2_Et = -2.0 * np.ascontiguousarray(E_test.T)
    width = min(_BLOCK, n_cand)
    score_buf = np.empty(t * width)
    part_buf = np.empty(t * width)
    over_buf = np.empty(t * width, dtype=bool)
    row_idx = np.arange(t)[:, None]
    # running lists: per row, (score, id)-ordered
    best_ids = np.empty((t, 0), dtype=np.int64)
    best_vals = np.empty((t, 0))
    for start in range(0, n_cand, _BLOCK):
        stop = min(start + _BLOCK, n_cand)
        w = stop - start
        kept = best_vals.shape[1]
        S = score_buf[:t * w].reshape(t, w)
        np.matmul(neg2_Et, cands.columns(start, stop), out=S)
        S += self_norms[start:stop]
        if w >= kk:
            P = part_buf[:t * w].reshape(t, w)
            np.copyto(P, S)
            P.partition(kk - 1, axis=1)
            thr = P[:, kk - 1].copy()
        else:
            thr = np.full(t, np.inf)
        if kept == kk:
            # fmin: a NaN k-th best (fewer than kk real scores) sets no bound
            np.fmin(thr, best_vals[:, -1], out=thr)
        # "not above" keeps ties on the threshold, and keeps everything in a
        # row whose threshold is NaN
        over = over_buf[:t * w].reshape(t, w)
        np.greater(S, thr[:, None], out=over)
        np.logical_not(over, out=over)
        hit = np.flatnonzero(over)
        rows, cols = np.divmod(hit, w)
        # lay each row out as [running list, survivors in id order], padded
        # with NaN (sorted last, after every real entry); a stable sort by
        # score then orders equal scores by id
        counts = np.bincount(rows, minlength=t)
        pos = np.arange(kept, kept + hit.size) - (np.cumsum(counts) - counts)[rows]
        vals = np.full((t, kept + counts.max()), np.nan)
        ids = np.empty(vals.shape, dtype=np.int64)
        vals[:, :kept] = best_vals
        ids[:, :kept] = best_ids
        vals[rows, pos] = S.ravel()[hit]
        ids[rows, pos] = cols + start
        sel = np.argsort(vals, axis=1, kind="stable")[:, :min(kk, kept + w)]
        best_ids, best_vals = ids[row_idx, sel], vals[row_idx, sel]
    return list(map(Ranking, best_ids, best_vals))


def _decode(E_test: np.ndarray, E_cand: np.ndarray | CandidateBlocks,
            self_norms: np.ndarray, k: int, query_cands) -> list[Ranking]:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    E_test = np.asarray(E_test, dtype=np.float64)
    if isinstance(E_cand, CandidateBlocks):
        cands = E_cand
    else:
        E_cand = np.asarray(E_cand, dtype=np.float64)
        cands = CandidateBlocks.of_array(E_cand)
    self_norms = np.asarray(self_norms, dtype=np.float64)
    if E_test.ndim == 1:
        E_test = E_test[:, None]
    if E_test.shape[0] != cands.shape[0]:
        raise ValueError(f"embedding dims differ: test {E_test.shape[0]}, "
                         f"candidates {cands.shape[0]}")
    n_queries, n_cand = E_test.shape[1], cands.shape[1]
    if n_cand == 0:
        raise ValueError("candidate set is empty")
    if self_norms.shape != (n_cand,):
        raise ValueError(f"self_norms has shape {self_norms.shape}, expected ({n_cand},)")

    if query_cands is None:
        return _decode_global(E_test, cands, self_norms, k)

    if len(query_cands) != n_queries:
        raise ValueError(f"{len(query_cands)} candidate lists for {n_queries} queries")
    if isinstance(E_cand, CandidateBlocks):
        E_cand = E_cand.whole()
    out = []
    for j, ids in enumerate(query_cands):
        ids = np.asarray(ids)
        if ids.size == 0:
            raise ValueError(f"query {j} has an empty candidate list")
        if ids.min() < 0 or ids.max() >= n_cand:
            raise ValueError(f"query {j} candidate ids out of range [0, {n_cand})")
        scores = self_norms[ids] - 2.0 * (E_cand[:, ids].T @ E_test[:, j])
        out.append(_select_topk(scores, ids, k))
    return out


def decode_oel(Z_test, Z_cand, self_norms, k: int = 1, query_cands=None) -> list[Ranking]:
    """Rank candidates for each test column of the p x t embedded predictions
    Z_test against the p x N embedded candidates Z_cand, given as an array or
    as a CandidateBlocks source of their columns.

    query_cands optionally restricts query j to an index list into the
    candidate columns; otherwise all N candidates are scored. Returns one
    Ranking of length min(k, #candidates) per query.
    """
    return _decode(Z_test, Z_cand, self_norms, k, query_cands)


def decode_iokr(A_test, C_s, self_norms, k: int = 1, query_cands=None) -> list[Ranking]:
    """Full-dimensional decoding: alpha columns against output-kernel columns.

    A_test is n x t (alpha(x_j) in column j), C_s is n x N with
    k_y(y_i^train, y_c), as an array or as a CandidateBlocks source of its
    columns; the inner product <h(x_j), psi(y_c)> is alpha(x_j)^T C_s[:, c].
    """
    return _decode(A_test, C_s, self_norms, k, query_cands)
