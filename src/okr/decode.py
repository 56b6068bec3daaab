"""Candidate-set pre-image search.

Every candidate is scored with the expanded squared feature-space distance;
the query-constant term ||P h(x)||^2 is dropped, so scores are comparable
only within one query and the reported score is

    score(c) = ||psi(y_c)||^2 - 2 <embedding of h(x), embedding of y_c>.

The same machinery serves the full-dimensional decoder (inner products
through n output-kernel columns, O(n) per candidate) and the learned
low-rank decoder (inner products in R^p, O(p) per candidate).

Both decoders return two t x w arrays (ids, scores): row j holds query j's
best candidates ordered by (score, candidate id), equal scores ranking the
smaller id first and NaN scores last, the same as a full sort of every
score. Against all N candidates w = min(k, N); with per-query candidate
lists w = min(k, longest list), and a shorter list's row ends in padding,
id -1 with score NaN.

The candidates come as an E x N matrix (E = p embedded, E = n
full-dimensional) or as a CandidateBlocks source of blocks of its columns,
so the whole matrix need never exist. All N candidates are scored a block
at a time into one reused queries x block buffer; per-query lists read
scattered columns of the assembled matrix and are scored into padded rows,
in batches no larger than that buffer. Every block and every batch goes
through one selection step, _merge_topk.

Scoring all N candidates can run on several worker threads (workers=, one
by default). _runs splits the candidate range into one contiguous run of
whole blocks per worker; each worker builds, scores and selects its own
blocks into its own running top-k, and one final _merge_topk joins the runs
in id order, so the result is the same as one worker's, ties and NaNs
included. (Only BLAS may differ: it can round the score of a block one
column wide, a matrix-vector product, in the last bit, and the worker count
moves the block edges.) numpy releases the GIL in the GEMM, the kernel arithmetic and the
selection, so the workers overlap; the caller should keep BLAS itself to one
thread, or the two pools oversubscribe the cores. One worker scores blocks
of _BLOCK candidates; w > 1 workers score blocks of _BLOCK / (2 w), half as
many columns in all. Each thread's allocator arena keeps its own freed
scratch (the score buffer, the partition copy and masks of _merge_topk), so
at _BLOCK / w columns each the workers together held more memory than one
worker does.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from threading import Event
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class CandidateBlocks:
    """An E x N candidate matrix served a block of columns at a time.

    columns(start, stop) returns the E x (stop - start) float64 columns of
    candidates [start, stop); decoding asks for each block once, from
    several threads at a time when it runs on more than one worker."""

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


def _cores() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call outside Linux
        return os.cpu_count() or 1


def _runs(n_cand: int, workers: int) -> tuple[int, list[tuple[int, int]]]:
    """The block width and the contiguous candidate runs [start, stop), one
    per worker, that decode n_cand candidates on up to workers threads.

    The worker count is clamped to the CPUs this process may use and to the
    number of blocks; a candidate set that fits in one _BLOCK gets one
    worker. One worker keeps blocks of _BLOCK, w workers blocks of
    _BLOCK // (2 w), and every run but the last holds whole blocks."""
    workers = min(workers, _cores())
    if workers <= 1 or n_cand <= _BLOCK:
        return _BLOCK, [(0, n_cand)]
    width = max(1, _BLOCK // (2 * workers))
    n_blocks = -(-n_cand // width)
    workers = min(workers, n_blocks)
    cuts = [width * (n_blocks * i // workers) for i in range(workers)] + [n_cand]
    return width, list(zip(cuts[:-1], cuts[1:]))


def _merge_topk(best_ids: np.ndarray, best_vals: np.ndarray, S: np.ndarray,
                ids: np.ndarray, kk: int):
    """Merge the scores S (rows x w) of the candidates ids (rows x w) into
    the running lists best_ids, best_vals (rows x kept, (score, id)-ordered)
    and return the best min(kk, kept + w) of each row.

    The merge needs two things of each row of ids: every id exceeds those of
    the running list, and entries with equal scores (NaN counting as equal
    to NaN) stand in ascending id order, padding last. A row in ascending id
    order has both; so has a later run's (score, id)-ordered output, or
    several such outputs side by side in id order, which is how the workers'
    runs are joined.

    A row's threshold is the smaller of its k-th smallest score in S and its
    running k-th best. Both are upper bounds on the final k-th best, so a
    score above the threshold can never enter the top k. Only scores at or
    below it survive (every tie on the threshold included), and only the
    survivors are merged into the running lists, by a stable per-row sort on
    score over a layout that keeps equal scores in ascending id order. The
    threshold comparison and the merge are exact, so the output is identical
    to the full sort, ties included."""
    t, w = S.shape
    kept = best_vals.shape[1]
    if w >= kk:
        thr = np.partition(S, kk - 1, axis=1)[:, kk - 1].copy()
    else:
        thr = np.full(t, np.inf)
    if kept == kk:
        # fmin: a NaN k-th best (fewer than kk real scores) sets no bound
        np.fmin(thr, best_vals[:, -1], out=thr)
    # "not above" keeps ties on the threshold, and keeps everything in a
    # row whose threshold is NaN
    hit = np.flatnonzero(~(S > thr[:, None]))
    rows, cols = np.divmod(hit, w)
    # lay each row out as [running list, survivors in the order of S],
    # padded with NaN (sorted last, after every real entry); a stable sort
    # by score then orders equal scores by id
    counts = np.bincount(rows, minlength=t)
    pos = np.arange(kept, kept + hit.size) - (np.cumsum(counts) - counts)[rows]
    vals = np.full((t, kept + counts.max()), np.nan)
    out_ids = np.empty(vals.shape, dtype=np.int64)
    vals[:, :kept] = best_vals
    out_ids[:, :kept] = best_ids
    vals[rows, pos] = S.ravel()[hit]
    out_ids[rows, pos] = ids[rows, cols]
    sel = np.argsort(vals, axis=1, kind="stable")[:, :min(kk, kept + w)]
    return np.take_along_axis(out_ids, sel, axis=1), np.take_along_axis(vals, sel, axis=1)


def _decode_run(neg2_Et: np.ndarray, cands: CandidateBlocks, self_norms: np.ndarray,
                kk: int, start: int, stop: int, width: int, failed: Event):
    """The running top-kk of candidates [start, stop), scored width at a time."""
    t = neg2_Et.shape[0]
    score_buf = np.empty(t * min(width, stop - start))
    best_ids = np.empty((t, 0), dtype=np.int64)
    best_vals = np.empty((t, 0))
    for b0 in range(start, stop, width):
        if failed.is_set():     # another worker failed; its error is raised
            break
        b1 = min(b0 + width, stop)
        S = score_buf[:t * (b1 - b0)].reshape(t, b1 - b0)
        np.matmul(neg2_Et, cands.columns(b0, b1), out=S)
        S += self_norms[b0:b1]
        block_ids = np.broadcast_to(np.arange(b0, b1), S.shape)
        best_ids, best_vals = _merge_topk(best_ids, best_vals, S, block_ids, kk)
    return best_ids, best_vals


def _decode_global(E_test: np.ndarray, cands: CandidateBlocks, self_norms: np.ndarray,
                   k: int, workers: int = 1):
    """All-candidates decoding on up to workers threads; memory stays
    O(queries x block) however large N grows."""
    n_cand = cands.shape[1]
    kk = min(k, n_cand)
    # -2 E_test^T in C order: scaling by -2 is exact and the layout picks the
    # same BLAS kernel as a C-ordered E_test^T, so every score is
    # bit-identical to self_norms - 2 (E_test^T E_cand)
    neg2_Et = -2.0 * np.ascontiguousarray(E_test.T)
    width, runs = _runs(n_cand, workers)
    failed = Event()
    if len(runs) == 1:
        return _decode_run(neg2_Et, cands, self_norms, kk, 0, n_cand, width, failed)

    def run(bounds):
        try:
            return _decode_run(neg2_Et, cands, self_norms, kk, *bounds, width, failed)
        except BaseException:
            failed.set()
            raise

    with ThreadPoolExecutor(len(runs)) as pool:
        futures = [pool.submit(run, bounds) for bounds in runs]
    parts = [f.result() for f in futures]
    # every run after the first is (score, id)-ordered with ids above those
    # of the runs before it, so side by side they are valid input to one merge
    return _merge_topk(*parts[0], np.hstack([p[1] for p in parts[1:]]),
                       np.hstack([p[0] for p in parts[1:]]), kk)


def _decode_lists(E_test: np.ndarray, E_cand: np.ndarray, self_norms: np.ndarray, k: int,
                  lists: list[np.ndarray]):
    """Per-query candidate lists, ranked in batches of padded score rows."""
    t, n_cand = E_test.shape[1], E_cand.shape[1]
    longest = max(ids.size for ids in lists)
    # at least one query per batch, and no more padded entries than the
    # all-candidates score buffer holds
    batch = max(1, t * min(_BLOCK, n_cand) // longest)
    ranked = []
    for j0 in range(0, t, batch):
        I = np.full((len(lists[j0:j0 + batch]), longest), -1, dtype=np.int64)
        S = np.full(I.shape, np.nan)
        for r, ids in enumerate(lists[j0:j0 + batch]):
            I[r, :ids.size] = ids
            S[r, :ids.size] = self_norms[ids] - 2.0 * (E_cand[:, ids].T @ E_test[:, j0 + r])
        # sorted as unsigned, the padding id -1 comes after every real id
        order = np.argsort(I.view(np.uint64), axis=1, kind="stable")
        I, S = np.take_along_axis(I, order, axis=1), np.take_along_axis(S, order, axis=1)
        ranked.append(_merge_topk(I[:, :0], S[:, :0], S, I, min(k, longest)))
    return tuple(np.vstack(parts) for parts in zip(*ranked))


def _decode(E_test: np.ndarray, E_cand: np.ndarray | CandidateBlocks,
            self_norms: np.ndarray, k: int, query_cands, workers: int):
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
        return _decode_global(E_test, cands, self_norms, k, workers)

    if len(query_cands) != n_queries:
        raise ValueError(f"{len(query_cands)} candidate lists for {n_queries} queries")
    lists = [np.asarray(ids) for ids in query_cands]
    for j, ids in enumerate(lists):
        if ids.size == 0:
            raise ValueError(f"query {j} has an empty candidate list")
        if ids.min() < 0 or ids.max() >= n_cand:
            raise ValueError(f"query {j} candidate ids out of range [0, {n_cand})")
    if isinstance(E_cand, CandidateBlocks):
        E_cand = E_cand.whole()
    return _decode_lists(E_test, E_cand, self_norms, k, lists)


def decode_oel(Z_test, Z_cand, self_norms, k: int = 1, query_cands=None,
               workers: int = 1):
    """Rank candidates for each test column of the p x t embedded predictions
    Z_test against the p x N embedded candidates Z_cand, given as an array or
    as a CandidateBlocks source of their columns.

    query_cands optionally restricts query j to an index list into the
    candidate columns; otherwise all N candidates are scored, on up to
    workers threads (see the module docstring; per-query lists use one).
    Returns (ids, scores), t x w int64 ids and float64 scores in rank order,
    with w and the padding of short lists as in the module docstring, and as
    one worker returns them.
    """
    return _decode(Z_test, Z_cand, self_norms, k, query_cands, workers)


def decode_iokr(A_test, C_s, self_norms, k: int = 1, query_cands=None,
                workers: int = 1):
    """Full-dimensional decoding: alpha columns against output-kernel columns.

    A_test is n x t (alpha(x_j) in column j), C_s is n x N with
    k_y(y_i^train, y_c), as an array or as a CandidateBlocks source of its
    columns; the inner product <h(x_j), psi(y_c)> is alpha(x_j)^T C_s[:, c].
    Takes workers and returns (ids, scores) as decode_oel does.
    """
    return _decode(A_test, C_s, self_norms, k, query_cands, workers)
