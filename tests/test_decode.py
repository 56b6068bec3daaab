import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import okr
from okr import decode
from okr.decode import _BLOCK, CandidateBlocks, decode_iokr, decode_oel

from _oracles import brute_force_decode, build_explicit


class TestDecodeOel:
    def test_hand_scores(self):
        Z_test = np.array([[1.0]])
        Z_cand = np.array([[0.9, 0.1, -1.0]])
        ids, scores = decode_oel(Z_test, Z_cand, np.ones(3), k=3)
        np.testing.assert_array_equal(ids, [[0, 1, 2]])
        np.testing.assert_allclose(scores, [[-0.8, 0.8, 3.0]], atol=1e-14)

    def test_duplicate_candidates_tie_by_index(self):
        Z_test = np.array([[1.0], [0.5]])
        Z_cand = np.array([[0.2, 0.9, 0.9, 0.1], [0.0, 0.3, 0.3, 0.2]])
        ids, _ = decode_oel(Z_test, Z_cand, np.ones(4), k=4)
        idx = ids[0].tolist()
        assert idx.index(1) + 1 == idx.index(2)  # duplicates adjacent, low id first

    def test_all_equal_scores_yield_index_order(self):
        ids, _ = decode_oel(np.zeros((2, 1)), np.zeros((2, 5)), np.ones(5), k=5)
        np.testing.assert_array_equal(ids, [np.arange(5)])

    def test_boundary_tie_prefers_smaller_index(self):
        # scores (0, 1, 1, 1): the k=2 cut falls inside the tie group
        Z_test = np.array([[1.0]])
        Z_cand = np.array([[0.5, 0.0, 0.0, 0.0]])
        ids, _ = decode_oel(Z_test, Z_cand, np.ones(4), k=2)
        np.testing.assert_array_equal(ids, [[0, 1]])

    @pytest.mark.parametrize("lists", [None, [np.arange(4)]])
    def test_nan_scores_rank_last(self, lists):
        Z_cand = np.array([[np.nan, 0.5, np.nan, 0.0]])
        ids, _ = decode_oel(np.ones((1, 1)), Z_cand, np.ones(4), k=3, query_cands=lists)
        np.testing.assert_array_equal(ids, [[1, 3, 0]])

    def test_k_longer_than_candidates(self):
        ids, scores = decode_oel(np.ones((1, 1)), np.ones((1, 3)), np.ones(3), k=10)
        assert ids.shape == scores.shape == (1, 3)

    def test_scores_nondecreasing(self):
        rng = np.random.default_rng(0)
        _, scores = decode_oel(rng.standard_normal((4, 6)),
                               rng.standard_normal((4, 50)),
                               rng.uniform(0.0, 2.0, 50), k=50)
        assert np.all(np.diff(scores, axis=1) >= 0)

    def test_per_query_candidate_lists(self):
        rng = np.random.default_rng(1)
        Z_test = rng.standard_normal((3, 2))
        Z_cand = rng.standard_normal((3, 10))
        norms = rng.uniform(0.5, 1.5, 10)
        lists = [np.array([7, 2, 5]), np.array([0, 1])]
        ids, scores = decode_oel(Z_test, Z_cand, norms, k=2, query_cands=lists)
        assert set(ids[0]) <= {7, 2, 5}
        assert set(ids[1]) <= {0, 1}
        # restricted scoring agrees with the global scoring on those ids
        full_ids, full_scores = decode_oel(Z_test, Z_cand, norms, k=10)
        global_scores = dict(zip(full_ids[0], full_scores[0]))
        for cid, score in zip(ids[0], scores[0]):
            assert score == pytest.approx(global_scores[cid], abs=1e-12)

    def test_empty_candidate_list_rejected(self):
        with pytest.raises(ValueError, match="empty candidate list"):
            decode_oel(np.ones((2, 1)), np.ones((2, 3)), np.ones(3), k=1,
                       query_cands=[np.array([], dtype=int)])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="embedding dims"):
            decode_oel(np.ones((2, 1)), np.ones((3, 4)), np.ones(4))

    def test_score_shift_invariance(self):
        rng = np.random.default_rng(2)
        Z_test = rng.standard_normal((3, 4))
        Z_cand = rng.standard_normal((3, 20))
        norms = rng.uniform(0.0, 1.0, 20)
        base, _ = decode_oel(Z_test, Z_cand, norms, k=20)
        shifted, _ = decode_oel(Z_test, Z_cand, norms + 5.0, k=20)
        np.testing.assert_array_equal(base, shifted)


class TestDecodeIokr:
    def test_self_retrieval_in_interpolating_regime(self):
        # alpha = e_i, candidates = training outputs, normalized kernel
        n = 6
        C_s = np.eye(n) * 0.3 + 0.7 * np.ones((n, n)) * 0.1
        ids, _ = decode_iokr(np.eye(n), C_s, np.ones(n), k=1)
        np.testing.assert_array_equal(ids[:, 0], np.arange(n))

    def test_zero_alpha_index_order(self):
        ids, _ = decode_iokr(np.zeros((4, 1)), np.ones((4, 7)), np.ones(7), k=7)
        np.testing.assert_array_equal(ids, [np.arange(7)])

    def test_hand_tie(self):
        ids, scores = decode_iokr(np.array([[0.5], [0.5]]), np.eye(2), np.ones(2), k=1)
        assert ids[0, 0] == 0
        assert scores[0, 0] == pytest.approx(0.0)


class TestOracleEquivalence:
    def test_brute_force_agreement(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            n, m, d = 10, 6, 4
            prob = build_explicit(rng, n=n, m=m, d_out=d, lam=0.1,
                                  c=rng.uniform(0.1, 1.0), p=rng.integers(1, d + 1))
            model = prob.oel_model
            cands = rng.standard_normal((30, d))
            kappa = prob.K_x[:, rng.integers(0, n, size=5)]
            A_test = okr.predict_alpha(prob.krr_model, kappa)
            Z_test = okr.embed_tests(model, A_test)
            Y_ref = model.reference_outputs(prob.Y, prob.Y_unsup)
            Z_cand = okr.embed_candidates(model, Y_ref @ cands.T)
            norms = np.einsum("ij,ij->i", cands, cands)
            got = decode_oel(Z_test, Z_cand, norms, k=1)[0][:, 0]
            expect = brute_force_decode(prob, A_test, cands)
            np.testing.assert_array_equal(got, expect)

    def test_full_rank_matches_iokr(self):
        rng = np.random.default_rng(4)
        import warnings as w

        for trial in range(5):
            n, m, d = 12, 6, 5
            with w.catch_warnings():
                w.simplefilter("ignore")
                prob = build_explicit(rng, n=n, m=m, d_out=d, lam=0.2, c=0.5, p=n + m)
            model = prob.oel_model
            assert model.p == d          # numerical rank of the mixed gram
            cands = rng.standard_normal((25, d))
            kappa = prob.K_x[:, :4]
            A_test = okr.predict_alpha(prob.krr_model, kappa)
            norms = np.einsum("ij,ij->i", cands, cands)
            C_s = prob.Y @ cands.T
            ids_oel, scores_oel = decode_oel(
                okr.embed_tests(model, A_test),
                okr.embed_candidates(
                    model, model.reference_outputs(prob.Y, prob.Y_unsup) @ cands.T),
                norms, k=25)
            ids_iokr, scores_iokr = decode_iokr(A_test, C_s, norms, k=25)
            np.testing.assert_array_equal(ids_oel, ids_iokr)
            np.testing.assert_allclose(scores_oel, scores_iokr, atol=1e-8)


# candidate counts from small lists to just around one and two score blocks,
# so the running top-k is merged across blocks
_N_CAND = st.one_of(st.integers(1, 30),
                    st.sampled_from([_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3]))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 8), st.integers(1, 6), _N_CAND, st.booleans(),
       st.integers(0, 2 ** 31 - 1))
def test_topk_matches_full_sort(k, t, n_cand, lists, seed):
    rng = np.random.default_rng(seed)
    # half-integer embeddings make every inner product exact, whatever the
    # summation order; with the coarse norms they force many exact ties
    scores_basis = rng.integers(-2, 3, (2, n_cand)) / 2.0
    Z_test = rng.integers(-2, 3, (2, t)) / 2.0
    norms = np.round(rng.uniform(0.0, 1.0, n_cand), 1)
    scores = norms - 2.0 * (Z_test.T @ scores_basis)
    if lists:
        # unsorted lists of different lengths, with repeated ids
        query_cands = [rng.integers(0, n_cand, int(rng.integers(1, 40))) for _ in range(t)]
    else:
        query_cands = None
    ids, vals = decode_oel(Z_test, scores_basis, norms, k=k, query_cands=query_cands)
    width = min(k, n_cand if not lists else max(map(len, query_cands)))
    assert ids.shape == vals.shape == (t, width)
    assert ids.dtype == np.int64 and vals.dtype == np.float64
    for j in range(t):
        cands = np.arange(n_cand) if not lists else query_cands[j]
        order = np.lexsort((cands, scores[j, cands]))[:width]
        n = order.size
        np.testing.assert_array_equal(ids[j, :n], cands[order])
        np.testing.assert_array_equal(vals[j, :n], scores[j, cands[order]])
        # a list shorter than the width ends in padding
        assert np.all(ids[j, n:] == -1) and np.all(np.isnan(vals[j, n:]))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([decode_oel, decode_iokr]), st.integers(1, 8), st.integers(1, 6),
       _N_CAND, st.booleans(), st.booleans(), st.integers(0, 2 ** 31 - 1))
def test_block_source_matches_whole_matrix(decoder, k, t, n_cand, nans, lists, seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 5))
    # candidate columns built per block as a product of half-integer factors:
    # exact, so the whole product holds the same values bit for bit
    B = rng.integers(-2, 3, (dim, 3)) / 2.0
    W = rng.integers(-2, 3, (3, n_cand)) / 2.0
    if nans:
        W[:, rng.random(n_cand) < 0.1] = np.nan
    asked = []

    def columns(start, stop):
        asked.append((start, stop))
        return B @ W[:, start:stop]

    E_test = rng.integers(-2, 3, (dim, t)) / 2.0
    norms = np.round(rng.uniform(0.0, 1.0, n_cand), 1)
    query_cands = None
    if lists:
        query_cands = [rng.choice(n_cand, size=rng.integers(1, min(n_cand, 40) + 1),
                                  replace=False) for _ in range(t)]
    got = decoder(E_test, CandidateBlocks((dim, n_cand), columns), norms, k=k,
                  query_cands=query_cands)
    expect = decoder(E_test, B @ W, norms, k=k, query_cands=query_cands)
    assert len(got[0]) == len(expect[0]) == t
    np.testing.assert_array_equal(got[0], expect[0])
    np.testing.assert_array_equal(got[1], expect[1])
    # every block is asked for exactly once, in order
    assert asked == [(start, min(start + _BLOCK, n_cand))
                     for start in range(0, n_cand, _BLOCK)]


# per-worker block widths at 2, 3 and 4 workers: 512, 341 and 256
_WORKER_N = [1, 511, 513, _BLOCK - 1, _BLOCK + 1, 3 * _BLOCK + 5]


@pytest.mark.parametrize("n_cand", _WORKER_N)
@pytest.mark.parametrize("blocks", [False, True], ids=["array", "blocks"])
@pytest.mark.parametrize("decoder", [decode_oel, decode_iokr])
def test_worker_count_leaves_rankings_unchanged(monkeypatch, decoder, blocks, n_cand):
    # four CPUs whatever the machine, so 3 and 4 workers really split
    monkeypatch.setattr(decode, "_cores", lambda: 4)
    rng = np.random.default_rng(n_cand)
    dim, t = 3, 5
    # half-integer values make every score exact: BLAS may round a 1-wide
    # block (a matrix-vector product) differently from a wide one, so only
    # exact scores are independent of the block layout. Duplicate columns
    # far apart tie across the workers' runs, and NaN columns rank last
    E_cand = rng.integers(-2, 3, (dim, n_cand)) / 2.0
    norms = np.round(rng.uniform(0.0, 1.0, n_cand), 1)
    if n_cand > 4:
        E_cand[:, -2] = E_cand[:, 1]
        norms[-2] = norms[1]
        E_cand[:, rng.random(n_cand) < 0.05] = np.nan
    E_test = rng.integers(-2, 3, (dim, t)) / 2.0
    asked = []

    def columns(start, stop):
        asked.append((start, stop))
        return E_cand[:, start:stop]

    source = CandidateBlocks(E_cand.shape, columns) if blocks else E_cand
    # k = 700 is longer than any worker's run at N = _BLOCK + 1
    for k in (1, 10, 700):
        expect = decoder(E_test, E_cand, norms, k=k)
        for workers in (1, 2, 3, 4):
            asked.clear()
            ids, scores = decoder(E_test, source, norms, k=k, workers=workers)
            np.testing.assert_array_equal(ids, expect[0])
            np.testing.assert_array_equal(scores.view(np.int64), expect[1].view(np.int64))
            if blocks:
                # the workers ask for every candidate exactly once between them
                edges = sorted(asked)
                assert edges[0][0] == 0 and edges[-1][1] == n_cand
                assert all(a[1] == b[0] for a, b in zip(edges, edges[1:]))


def test_runs_split_whole_blocks(monkeypatch):
    monkeypatch.setattr(decode, "_cores", lambda: 4)
    assert decode._runs(_BLOCK, 4) == (_BLOCK, [(0, _BLOCK)])
    assert decode._runs(10 ** 5, 1) == (_BLOCK, [(0, 10 ** 5)])
    width, runs = decode._runs(10 ** 5, 2)
    assert width == _BLOCK // 4
    assert runs[0][0] == 0 and runs[-1][1] == 10 ** 5
    assert all(a[1] == b[0] and a[1] % width == 0 for a, b in zip(runs, runs[1:]))


def test_runs_clamp_worker_count(monkeypatch):
    # _runs only computes the split, so an extreme worker count starts no thread
    huge = 10 ** 9
    assert len(decode._runs(10 ** 6, huge)[1]) <= len(os.sched_getaffinity(0))
    # with more CPUs than candidates the blocks are 1 wide, one per candidate
    monkeypatch.setattr(decode, "_cores", lambda: 10 ** 5)
    width, runs = decode._runs(3 * _BLOCK, huge)
    assert len(runs) <= -(-3 * _BLOCK // width)
    assert all(stop > start for start, stop in runs)


def test_worker_failure_raises_and_joins_threads(monkeypatch):
    monkeypatch.setattr(decode, "_cores", lambda: 2)
    n_cand = 3 * _BLOCK
    E_cand = np.ones((2, n_cand))

    def columns(start, stop):
        if start <= 2 * _BLOCK < stop:
            raise KeyError("candidate block failed")
        return E_cand[:, start:stop]

    before = set(threading.enumerate())
    with pytest.raises(KeyError, match="candidate block failed"):
        decode_oel(np.ones((2, 3)), CandidateBlocks(E_cand.shape, columns), np.ones(n_cand),
                   k=5, workers=2)
    assert set(threading.enumerate()) == before


def test_workers_agree_under_frequent_thread_switches(monkeypatch):
    # more workers than this machine may have cores, switching threads every
    # microsecond: the runs share only read-only inputs, so nothing may move
    monkeypatch.setattr(decode, "_cores", lambda: 4)
    rng = np.random.default_rng(8)
    n_cand = 3 * _BLOCK + 5
    E_cand = rng.integers(-2, 3, (2, n_cand)) / 2.0
    E_test = rng.integers(-2, 3, (2, 7)) / 2.0
    norms = np.round(rng.uniform(0.0, 1.0, n_cand), 1)
    expect = decode_oel(E_test, E_cand, norms, k=10)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            ids, scores = decode_oel(E_test, E_cand, norms, k=10, workers=4)
            np.testing.assert_array_equal(ids, expect[0])
            np.testing.assert_array_equal(scores, expect[1])
    finally:
        sys.setswitchinterval(interval)
