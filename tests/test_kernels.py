import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okr import kernels


class TestSpec:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown kernel kind"):
            kernels.KernelSpec("epanechnikov")

    @pytest.mark.parametrize("kind", ["gaussian", "gaussian_tanimoto"])
    @pytest.mark.parametrize("sigma2", [None, 0.0, -1.0])
    def test_bad_sigma2(self, kind, sigma2):
        with pytest.raises(ValueError, match="sigma2"):
            kernels.KernelSpec(kind, sigma2=sigma2)


class TestGram:
    def test_gaussian_diagonal_is_one(self):
        spec = kernels.KernelSpec("gaussian", sigma2=1.0)
        assert kernels.gram(spec, np.zeros((1, 2)))[0, 0] == 1.0

    def test_gaussian_analytic_value(self):
        # ||a-b||^2 = 2 and 2 sigma^2 = 2 gives exp(-1)
        spec = kernels.KernelSpec("gaussian", sigma2=1.0)
        K = kernels.gram(spec, np.array([[0.0, 0.0]]), np.array([[np.sqrt(2.0), 0.0]]))
        assert K[0, 0] == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_linear_is_inner_product(self):
        spec = kernels.KernelSpec("linear")
        A = np.array([[1.0, 2.0], [0.0, 1.0]])
        np.testing.assert_allclose(kernels.gram(spec, A), A @ A.T)

    def test_tanimoto_hand_value(self):
        spec = kernels.KernelSpec("tanimoto")
        K = kernels.gram(spec, np.array([[1.0, 1.0, 0.0]]), np.array([[1.0, 0.0, 1.0]]))
        assert K[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_tanimoto_rejects_zero_row(self):
        spec = kernels.KernelSpec("tanimoto")
        with pytest.raises(ValueError, match="all-zero"):
            kernels.gram(spec, np.array([[0.0, 0.0], [1.0, 0.0]]))

    def test_tanimoto_rejects_nonbinary(self):
        spec = kernels.KernelSpec("tanimoto")
        with pytest.raises(ValueError, match="binary"):
            kernels.gram(spec, np.array([[0.5, 1.0]]))

    def test_dimension_mismatch(self):
        spec = kernels.KernelSpec("linear")
        with pytest.raises(ValueError, match="dimensions differ"):
            kernels.gram(spec, np.ones((2, 3)), np.ones((2, 4)))

    def test_self_gram_exactly_symmetric(self):
        rng = np.random.default_rng(0)
        spec = kernels.KernelSpec("gaussian", sigma2=0.7)
        K = kernels.gram(spec, rng.standard_normal((40, 6)))
        assert np.array_equal(K, K.T)

    @pytest.mark.parametrize("kind,sigma2,binary", [
        ("gaussian", 1.3, False), ("linear", None, False),
        ("tanimoto", None, True), ("gaussian_tanimoto", 0.8, True)])
    def test_self_gram_psd(self, kind, sigma2, binary):
        rng = np.random.default_rng(7)
        if binary:
            A = (rng.random((25, 12)) < 0.4).astype(float)
            A[A.sum(axis=1) == 0, 0] = 1.0
        else:
            A = rng.standard_normal((25, 4))
        K = kernels.gram(kernels.KernelSpec(kind, sigma2=sigma2), A)
        w = np.linalg.eigvalsh(K)
        assert w.min() >= -1e-8 * max(w.max(), 1.0)

    def test_normalized_kernels_in_unit_interval(self):
        rng = np.random.default_rng(3)
        B = (rng.random((15, 10)) < 0.5).astype(float)
        B[B.sum(axis=1) == 0, 0] = 1.0
        for kind, sigma2 in (("gaussian", 2.0), ("gaussian_tanimoto", 2.0)):
            A = B if kind == "gaussian_tanimoto" else rng.standard_normal((15, 3))
            K = kernels.gram(kernels.KernelSpec(kind, sigma2=sigma2), A)
            assert K.min() > 0.0 and K.max() <= 1.0
        K = kernels.gram(kernels.KernelSpec("tanimoto"), B)
        assert K.min() >= 0.0 and K.max() <= 1.0

    def test_rkhs_distance_identity_linear(self):
        # ||psi(a)-psi(b)||^2 from kernel values vs explicit features
        rng = np.random.default_rng(11)
        A = rng.standard_normal((8, 5))
        B = rng.standard_normal((8, 5))
        spec = kernels.KernelSpec("linear")
        kaa = kernels.self_norms(spec, A)
        kbb = kernels.self_norms(spec, B)
        kab = kernels.pair_values(spec, A, B)
        explicit = np.einsum("ij,ij->i", A - B, A - B)
        np.testing.assert_allclose(kaa + kbb - 2 * kab, explicit, atol=1e-12)


class TestSelfNorms:
    def test_gaussian_is_one(self):
        spec = kernels.KernelSpec("gaussian", sigma2=5.0)
        np.testing.assert_array_equal(kernels.self_norms(spec, np.ones((3, 2))),
                                      np.ones(3))

    def test_linear_squared_norm(self):
        spec = kernels.KernelSpec("linear")
        assert kernels.self_norms(spec, np.array([[3.0, 4.0]]))[0] == 25.0

    def test_tanimoto_is_one(self):
        spec = kernels.KernelSpec("tanimoto")
        np.testing.assert_array_equal(
            kernels.self_norms(spec, np.array([[1.0, 0.0], [1.0, 1.0]])), np.ones(2))

    def test_matches_gram_diagonal(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((10, 3))
        spec = kernels.KernelSpec("gaussian", sigma2=0.5)
        np.testing.assert_allclose(kernels.self_norms(spec, A),
                                   np.diag(kernels.gram(spec, A)), atol=1e-12)


class TestKemeny:
    def test_identity_ordering(self):
        np.testing.assert_array_equal(kernels.kemeny_embed(np.array([1, 2, 3])),
                                      [1.0, 1.0, 1.0])

    def test_full_reversal(self):
        np.testing.assert_array_equal(kernels.kemeny_embed(np.array([3, 2, 1])),
                                      [-1.0, -1.0, -1.0])

    def test_hand_enumeration(self):
        # pairs (1,2), (1,3), (2,3) of ranks (1,3,2)
        np.testing.assert_array_equal(kernels.kemeny_embed(np.array([1, 3, 2])),
                                      [1.0, 1.0, -1.0])

    @pytest.mark.parametrize("bad", [[1, 1, 3], [0, 1, 2], [2, 3, 4], []])
    def test_invalid_permutations(self, bad):
        with pytest.raises(ValueError):
            kernels.kemeny_embed(np.array(bad, dtype=int))

    def test_float_ranks_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            kernels.check_permutation(np.array([1.0, 2.0]))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2 ** 31 - 1))
def test_gaussian_gram_psd_property(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, 3))
    K = kernels.gram(kernels.KernelSpec("gaussian", sigma2=1.0), A)
    assert np.array_equal(K, K.T)
    assert np.linalg.eigvalsh(K).min() >= -1e-8 * max(np.linalg.eigvalsh(K).max(), 1.0)
