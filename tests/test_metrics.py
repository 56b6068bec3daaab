import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okr import kernels, metrics


class TestRkhsLoss:
    def test_same_point_zero(self):
        assert metrics.rkhs_loss(1.0, 1.0, 1.0) == 0.0

    def test_orthogonal_normalized(self):
        assert metrics.rkhs_loss(1.0, 1.0, 0.0) == 2.0

    def test_linear_kernel_hand_value(self):
        # y=(1,0), y'=(0,1): ||(1,-1)||^2 = 2
        assert metrics.rkhs_loss(1.0, 1.0, 0.0) == 2.0

    def test_symmetry(self):
        assert metrics.rkhs_loss(1.3, 0.8, 0.5) == metrics.rkhs_loss(0.8, 1.3, 0.5)

    def test_inconsistent_inputs_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            metrics.rkhs_loss(1.0, 1.0, 1.5)

    def test_vectorized(self):
        out = metrics.rkhs_loss(np.ones(3), np.ones(3), np.array([1.0, 0.5, 0.0]))
        np.testing.assert_allclose(out, [0.0, 1.0, 2.0])


class TestF1:
    def test_identical_nonempty(self):
        assert metrics.f1_example([0, 1, 1], [0, 1, 1]) == 1.0

    def test_half_overlap(self):
        # T={b,c}, P={a,b}: precision = recall = 1/2
        assert metrics.f1_example([0, 1, 1], [1, 1, 0]) == 0.5

    def test_both_empty_convention(self):
        assert metrics.f1_example([0, 0], [0, 0]) == 1.0

    def test_one_empty(self):
        assert metrics.f1_example([0, 0], [1, 0]) == 0.0

    def test_mean_over_rows(self):
        Y = np.array([[1, 0], [0, 1]])
        assert metrics.f1_example_mean(Y, Y) == 1.0

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="universes"):
            metrics.f1_example([0, 1], [0, 1, 0])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 2 ** 31 - 1))
    def test_label_permutation_invariance(self, d, seed):
        rng = np.random.default_rng(seed)
        t = (rng.random(d) < 0.5).astype(int)
        p = (rng.random(d) < 0.5).astype(int)
        perm = rng.permutation(d)
        assert metrics.f1_example(t, p) == metrics.f1_example(t[perm], p[perm])


class TestTopK:
    def test_always_first(self):
        acc = metrics.topk_accuracy(np.array([[3, 1], [0, 2]]), [3, 0], ks=[1, 5])
        assert acc == {1: 1.0, 5: 1.0}

    def test_rank_seven(self):
        acc = metrics.topk_accuracy(np.arange(10)[None, :], [6], ks=[5, 10])
        assert acc == {5: 0.0, 10: 1.0}

    def test_counting_example(self):
        ids = np.tile(np.arange(20), (4, 1))
        truth = [0, 1, 5, 10]   # ranks 1, 2, 6, 11
        acc = metrics.topk_accuracy(ids, truth, ks=[1, 5, 10])
        assert acc == {1: 0.25, 5: 0.5, 10: 0.75}

    def test_missing_truth_warns_and_misses(self):
        with pytest.warns(UserWarning, match="no true candidate"):
            acc = metrics.topk_accuracy(np.array([[1, 2]]), [9], ks=[2])
        assert acc == {2: 0.0}

    def test_nondecreasing_in_k(self):
        rng = np.random.default_rng(0)
        ids = np.stack([rng.permutation(30) for _ in range(10)])
        truth = rng.integers(0, 30, 10)
        acc = metrics.topk_accuracy(ids, truth, ks=range(1, 31))
        vals = [acc[k] for k in range(1, 31)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


class TestKendall:
    def test_identical(self):
        assert metrics.kendall_tau(np.array([2, 1, 3]), np.array([2, 1, 3])) == 1.0

    def test_reversed(self):
        assert metrics.kendall_tau(np.array([1, 2, 3]), np.array([3, 2, 1])) == -1.0

    def test_hand_value(self):
        assert metrics.kendall_tau(np.array([1, 2, 3]),
                                   np.array([1, 3, 2])) == pytest.approx(1.0 / 3.0)

    def test_too_short(self):
        with pytest.raises(ValueError, match="at least 2"):
            metrics.kendall_tau(np.array([1]), np.array([1]))

    @pytest.mark.parametrize("K", [2, 3, 4, 5])
    def test_kemeny_identity_exhaustive(self, K):
        # <kemeny(a), kemeny(b)> / (K(K-1)/2) == kendall tau, exactly
        pairs = K * (K - 1) / 2
        for a in itertools.permutations(range(1, K + 1)):
            pa = kernels.kemeny_embed(np.array(a))
            for b in itertools.permutations(range(1, K + 1)):
                pb = kernels.kemeny_embed(np.array(b))
                assert (pa @ pb) / pairs == metrics.kendall_tau(np.array(a),
                                                                np.array(b))


class TestHamming:
    def test_equal(self):
        assert metrics.hamming([1, 0, 1], [1, 0, 1]) == 0

    def test_complementary(self):
        assert metrics.hamming([0, 0, 0, 0], [1, 1, 1, 1]) == 4

    def test_hand_count(self):
        assert metrics.hamming([1, 0, 1, 0], [1, 1, 1, 1]) == 2

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="differ"):
            metrics.hamming([1, 0], [1, 0, 0])


class TestReport:
    def test_single_value_has_no_se(self):
        rep = metrics.report_from_values("loss", [0.5])
        assert rep.std_error is None and rep.reps == 1

    def test_mean_and_se(self):
        rep = metrics.report_from_values("loss", [1.0, 2.0, 3.0])
        assert rep.estimate == 2.0
        assert rep.std_error == pytest.approx(1.0 / np.sqrt(3.0))
        assert rep.std_error >= 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            metrics.report_from_values("loss", [])
