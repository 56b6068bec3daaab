import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import okr
from okr import dataio, kernels

from _oracles import random_psd


class TestDense:
    def test_roundtrip(self, tmp_path):
        M = np.array([[1.5, -2.0], [0.25, 1e-9], [3.0, 4.0]])
        p = tmp_path / "m.csv"
        dataio.save_dense(p, M)
        np.testing.assert_array_equal(dataio.load_dense(p), M)

    def test_header_shape(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("#3,2\n1,2\n3,4\n5,6\n")
        assert dataio.load_dense(p).shape == (3, 2)

    def test_wrong_row_count(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("#3,2\n1,2\n3,4\n")
        with pytest.raises(dataio.DataError, match="expected 3 data rows"):
            dataio.load_dense(p)

    def test_bad_value_reports_line(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("#2,2\n1,2\n3,oops\n")
        with pytest.raises(dataio.DataError, match=r"m\.csv:3"):
            dataio.load_dense(p)

    def test_missing_header(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,2\n3,4\n")
        with pytest.raises(dataio.DataError, match="header"):
            dataio.load_dense(p)

    def test_non_utf8_file(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_bytes(b"#1,2\n1,\xff\xfe\n")
        with pytest.raises(dataio.DataError, match=r"m\.csv: not UTF-8"):
            dataio.load_dense(p)

    def test_negative_dimension(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("#1,-2\n1,2\n")
        with pytest.raises(dataio.DataError, match=r"m\.csv:1: negative dimension"):
            dataio.load_dense(p)


class TestSparse:
    def test_basic_row(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("#dim 8\n1:0.5 7:2.0\n")
        row = dataio.load_sparse(p)
        assert row.shape == (1, 8)
        assert row[0, 1] == 0.5 and row[0, 7] == 2.0
        assert np.count_nonzero(row) == 2

    def test_out_of_range_index(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("#dim 4\n5:1.0\n")
        with pytest.raises(dataio.DataError, match="outside"):
            dataio.load_sparse(p)

    def test_duplicate_index(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("#dim 4\n1:1.0 1:2.0\n")
        with pytest.raises(dataio.DataError, match="duplicate"):
            dataio.load_sparse(p)


class TestBitsets:
    def test_roundtrip(self, tmp_path):
        B = np.array([[1, 0, 1, 0], [0, 0, 0, 0], [1, 1, 1, 1]], dtype=float)
        p = tmp_path / "b.txt"
        dataio.save_bitsets(p, B)
        np.testing.assert_array_equal(dataio.load_bitsets(p), B)

    def test_bad_index(self, tmp_path):
        p = tmp_path / "b.txt"
        p.write_text("#dim 3\n0 3\n")
        with pytest.raises(dataio.DataError, match="outside"):
            dataio.load_bitsets(p)

    @pytest.mark.parametrize("loader", [dataio.load_bitsets, dataio.load_sparse])
    @pytest.mark.parametrize("dim", ["x", "-2"])
    def test_bad_dimension_header(self, tmp_path, loader, dim):
        p = tmp_path / "b.txt"
        p.write_text(f"#dim {dim}\n0\n")
        with pytest.raises(dataio.DataError, match=r"b\.txt:1: bad dimension"):
            loader(p)


class TestPermutations:
    def test_roundtrip(self, tmp_path):
        P = np.array([[1, 3, 2], [2, 1, 3]])
        p = tmp_path / "p.txt"
        dataio.save_permutations(p, P)
        np.testing.assert_array_equal(dataio.load_permutations(p), P)

    def test_invalid_permutation_reports_line(self, tmp_path):
        p = tmp_path / "p.txt"
        p.write_text("1,2,3\n1,1,3\n")
        with pytest.raises(dataio.DataError, match=r"p\.txt:2"):
            dataio.load_permutations(p)


class TestBinaryMatrix:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((7, 5))
        p = tmp_path / "m.mat"
        dataio.save_matrix_binary(p, M)
        back = dataio.load_matrix_binary(p)
        assert M.tobytes() == back.tobytes()

    def test_magic_checked(self, tmp_path):
        p = tmp_path / "m.mat"
        p.write_bytes(b"NOTMAGIC" + b"\0" * 16)
        with pytest.raises(dataio.DataError, match="magic"):
            dataio.load_matrix_binary(p)

    def test_truncation_detected(self, tmp_path):
        p = tmp_path / "m.mat"
        dataio.save_matrix_binary(p, np.ones((3, 3)))
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(dataio.DataError, match="payload"):
            dataio.load_matrix_binary(p)

    def test_gram_symmetry_enforced(self, tmp_path):
        p = tmp_path / "g.mat"
        dataio.save_matrix_binary(p, np.array([[1.0, 0.2], [0.5, 1.0]]))
        with pytest.raises(dataio.DataError, match="not symmetric"):
            dataio.load_gram(p)


class TestRankings:
    def test_roundtrip(self, tmp_path):
        ids = np.array([[3, 1], [0, -1]])
        scores = np.array([[-0.5, 2.0], [1.25, np.nan]])
        p = tmp_path / "r.tsv"
        dataio.save_rankings(p, ids, scores)
        assert p.read_text() == "0\t3:-0.5\t1:2\n1\t0:1.25\n"
        back_ids, back_scores = dataio.load_rankings(p)
        np.testing.assert_array_equal(back_ids, ids)
        np.testing.assert_allclose(back_scores, scores)

    def test_six_significant_digits(self, tmp_path):
        p = tmp_path / "r.tsv"
        dataio.save_rankings(p, np.array([[0]]), np.array([[1.23456789]]))
        assert p.read_text() == "0\t0:1.23457\n"


class TestCandidateMap:
    def test_basic(self, tmp_path):
        p = tmp_path / "map.txt"
        p.write_text("0 3\n0 5\n1 2\n")
        lists = dataio.load_candidate_map(p)
        np.testing.assert_array_equal(lists[0], [3, 5])
        np.testing.assert_array_equal(lists[1], [2])

    def test_gap_in_queries_rejected(self, tmp_path):
        p = tmp_path / "map.txt"
        p.write_text("0 3\n2 1\n")
        with pytest.raises(dataio.DataError, match="query 1"):
            dataio.load_candidate_map(p)

    def test_range_check(self, tmp_path):
        p = tmp_path / "map.txt"
        p.write_text("0 10\n")
        with pytest.raises(dataio.DataError, match="outside"):
            dataio.load_candidate_map(p, n_candidates=4)


class TestLoadDataset:
    def _write_dense_dataset(self, d):
        dataio.save_dense(d / "x.csv", np.arange(6.0).reshape(3, 2))
        dataio.save_dense(d / "y.csv", np.arange(12.0).reshape(3, 4))
        return {"data.kind": "dense", "data.x": "x.csv", "data.y": "y.csv"}

    def test_minimal(self, tmp_path):
        cfg = self._write_dense_dataset(tmp_path)
        ds = dataio.load_dataset(cfg, tmp_path)
        assert ds.n == 3 and ds.m == 0 and ds.output_kind == "dense"

    def test_outputs_shorter_than_inputs_fails_at_load(self, tmp_path):
        cfg = self._write_dense_dataset(tmp_path)
        dataio.save_dense(tmp_path / "y.csv", np.arange(8.0).reshape(2, 4))
        with pytest.raises(dataio.DataError, match="outputs file has 2 rows"):
            dataio.load_dataset(cfg, tmp_path)

    def test_width_consistency_enforced(self, tmp_path):
        cfg = self._write_dense_dataset(tmp_path)
        dataio.save_dense(tmp_path / "yu.csv", np.ones((2, 3)))
        cfg["data.y_unsup"] = "yu.csv"
        with pytest.raises(dataio.DataError, match="width"):
            dataio.load_dataset(cfg, tmp_path)

    def test_gram_mode(self, tmp_path):
        rng = np.random.default_rng(1)
        K = random_psd(rng, 4)
        B = rng.standard_normal((4, 2))
        dataio.save_matrix_binary(tmp_path / "k.mat", K)
        dataio.save_matrix_binary(tmp_path / "kt.mat", B)
        dataio.save_dense(tmp_path / "y.csv", rng.standard_normal((4, 3)))
        cfg = {"data.kind": "dense", "data.x_format": "gram", "data.x": "k.mat",
               "data.x_test": "kt.mat", "data.y": "y.csv"}
        ds = dataio.load_dataset(cfg, tmp_path)
        np.testing.assert_array_equal(ds.x, K)      # values preserved exactly
        assert ds.n_test == 2

    def test_candidates_default_to_train_plus_unsup(self, tmp_path):
        cfg = self._write_dense_dataset(tmp_path)
        dataio.save_dense(tmp_path / "yu.csv", np.ones((2, 4)))
        cfg["data.y_unsup"] = "yu.csv"
        ds = dataio.load_dataset(cfg, tmp_path)
        assert ds.candidate_outputs().shape == (5, 4)


class TestSynthRemark1:
    def test_deterministic(self):
        a = dataio.synth_remark1(20, 10, 5, 1.0, 4.0, seed=3)
        b = dataio.synth_remark1(20, 10, 5, 1.0, 4.0, seed=3)
        np.testing.assert_array_equal(a.y_sup, b.y_sup)
        np.testing.assert_array_equal(a.y_unsup, b.y_unsup)

    def test_first_output_coordinate_is_input(self):
        ds = dataio.synth_remark1(15, 0, 4, 1.0, 4.0, seed=0)
        np.testing.assert_array_equal(ds.x[:, 0], ds.y_sup[:, 0])

    def test_z_variance_concentration(self):
        # chi-square concentration: sample variance of z within +-0.5 of 4.0
        ds = dataio.synth_remark1(1000, 0, 1, 1.0, 4.0, seed=7)
        assert 3.5 <= np.var(ds.y_sup[:, 1]) <= 4.5

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            dataio.synth_remark1(5, 0, 1, 0.0, 1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            dataio.synth_remark1(5, 0, 1, 1.0, -0.5)

    def test_zero_noise_edge_degenerates_to_line(self):
        # sigma2_z = 0: outputs lie on the x axis; kernel PCA of the pool
        # (c=0, p=1) recovers exactly that axis
        with pytest.warns(UserWarning, match="regime"):
            ds = dataio.synth_remark1(20, 15, 2, 1.0, 0.0, seed=4)
        np.testing.assert_array_equal(ds.y_sup[:, 1], np.zeros(20))
        lin = kernels.KernelSpec("linear")
        K_x = kernels.gram(lin, ds.x)
        krr_model = okr.fit_krr(K_x, 1e-3)
        A = okr.predict_alpha(krr_model, K_x)
        mixed = okr.assemble_mixed_gram(
            A, kernels.gram(lin, ds.y_sup),
            K_y_su=kernels.gram(lin, ds.y_sup, ds.y_unsup),
            K_y_uu=kernels.gram(lin, ds.y_unsup), c=0.0)
        model = okr.fit_oel(mixed, p=1)
        axis = (model.scale_unsup * ds.y_unsup.T) @ model.beta[20:]
        axis = axis[:, 0] / np.linalg.norm(axis[:, 0])
        np.testing.assert_allclose(np.abs(axis), [1.0, 0.0], atol=1e-10)

    def test_warns_outside_regime(self):
        with pytest.warns(UserWarning, match="regime"):
            dataio.synth_remark1(5, 0, 1, 2.0, 1.0, seed=0)

    def test_truth_index_points_at_test_outputs(self):
        ds = dataio.synth_remark1(6, 3, 2, 1.0, 4.0, seed=1)
        np.testing.assert_array_equal(ds.candidates[ds.truth_index], ds.y_test)

    def test_save_dataset_roundtrip(self, tmp_path):
        ds = dataio.synth_remark1(8, 4, 3, 1.0, 4.0, seed=2)
        cfg_path = dataio.save_dataset(ds, tmp_path / "data")
        from okr.config import parse_config_file
        back = dataio.load_dataset(parse_config_file(cfg_path), cfg_path.parent)
        np.testing.assert_array_equal(back.y_sup, ds.y_sup)
        np.testing.assert_array_equal(back.truth_index, ds.truth_index)


class TestSplit:
    def test_kfold_disjoint_cover(self):
        parts = dataio.split(10, dataio.KFold(5), seed=0)
        assert len(parts) == 5
        all_val = np.concatenate([v for _, v in parts])
        assert sorted(all_val.tolist()) == list(range(10))
        for tr, va in parts:
            assert va.size == 2 and tr.size == 8
            assert not set(tr) & set(va)

    def test_holdout_8_2(self):
        (tr, va), = dataio.split(10, dataio.Holdout(0.8), seed=1)
        assert tr.size == 8 and va.size == 2

    def test_repeated_subsample_determinism(self):
        a = dataio.split(30, dataio.RepeatedSubsample(0.8, 5), seed=5)
        b = dataio.split(30, dataio.RepeatedSubsample(0.8, 5), seed=5)
        c = dataio.split(30, dataio.RepeatedSubsample(0.8, 5), seed=6)
        for (t1, v1), (t2, v2) in zip(a, b):
            np.testing.assert_array_equal(t1, t2)
            np.testing.assert_array_equal(v1, v2)
        assert any(not np.array_equal(v1, v2) for (_, v1), (_, v2) in zip(a, c))

    def test_fold_larger_than_n(self):
        with pytest.raises(ValueError, match="k-fold"):
            dataio.split(3, dataio.KFold(5), seed=0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(4, 60), st.integers(2, 6), st.integers(0, 2 ** 31 - 1))
    def test_kfold_property(self, n, k, seed):
        if k > n:
            k = n
        parts = dataio.split(n, dataio.KFold(k), seed=seed)
        union = np.sort(np.concatenate([v for _, v in parts]))
        np.testing.assert_array_equal(union, np.arange(n))


class TestNamedSeed:
    def test_stable_and_distinct(self):
        assert dataio.named_seed(7, "anchors") == dataio.named_seed(7, "anchors")
        assert dataio.named_seed(7, "anchors") != dataio.named_seed(7, "sketch")
        assert dataio.named_seed(7, "anchors") != dataio.named_seed(8, "anchors")


class TestModelPersistence:
    def _fit_models(self, seed=0, nystrom=False):
        rng = np.random.default_rng(seed)
        n, m, d = 12, 6, 4
        X = rng.standard_normal((n, 3))
        Y = rng.standard_normal((n, d))
        Yu = rng.standard_normal((m, d))
        spec = kernels.KernelSpec("gaussian", sigma2=2.0)
        K_x = kernels.gram(spec, X)
        if nystrom:
            anchors = okr.select_anchors(n, 5, seed=1)
            krr_model = okr.fit_krr_nystrom(K_x[:, anchors],
                                            K_x[np.ix_(anchors, anchors)], 0.1, anchors)
            A = okr.predict_alpha(krr_model, K_x[anchors, :])
        else:
            krr_model = okr.fit_krr(K_x, 0.1)
            A = okr.predict_alpha(krr_model, K_x)
        mixed = okr.assemble_mixed_gram(A, Y @ Y.T, K_y_su=Y @ Yu.T,
                                        K_y_uu=Yu @ Yu.T, c=0.5)
        oel_model = okr.fit_oel(mixed, p=3)
        return krr_model, oel_model, K_x, Y, Yu

    @pytest.mark.parametrize("nystrom", [False, True])
    def test_roundtrip_predictions_bitwise(self, tmp_path, nystrom):
        krr_model, oel_model, K_x, Y, Yu = self._fit_models(nystrom=nystrom)
        bundle = dataio.bundle_from_models(krr_model, oel_model)
        dataio.save_model(bundle, tmp_path / "model")
        loaded = dataio.load_model(tmp_path / "model")
        _, oel2 = dataio.models_from_bundle(loaded)
        kappa = K_x[:, :3] if not nystrom else K_x[krr_model.anchors, :3]

        # the embedded bundle serves tests through the folded readout
        T_x = okr.fold_readout(krr_model, oel_model.T)
        assert oel2.T_x.tobytes() == T_x.tobytes()
        assert okr.embed_inputs(oel2, kappa).tobytes() == (T_x @ kappa).tobytes()

        # the regression-only bundle keeps the solve state
        dataio.save_model(dataio.bundle_from_models(krr_model), tmp_path / "iokr")
        krr3, _ = dataio.models_from_bundle(dataio.load_model(tmp_path / "iokr"))
        a1 = okr.predict_alpha(krr_model, kappa)
        assert a1.tobytes() == okr.predict_alpha(krr3, kappa).tobytes()

        rng = np.random.default_rng(9)
        cands = rng.standard_normal((5, Y.shape[1]))
        C = np.vstack([Y, Yu]) @ cands.T
        c1 = okr.embed_candidates(oel_model, C)
        c2 = okr.embed_candidates(oel2, C)
        assert c1.tobytes() == c2.tobytes()

    def test_manifest_tamper_detected(self, tmp_path):
        krr_model, oel_model, *_ = self._fit_models()
        dataio.save_model(dataio.bundle_from_models(krr_model, oel_model),
                          tmp_path / "model")
        mpath = tmp_path / "model" / "manifest.txt"
        text = mpath.read_text().replace("oel.p = 3", "oel.p = 2")
        mpath.write_text(text)
        with pytest.raises(dataio.DataError, match="digest mismatch"):
            dataio.load_model(tmp_path / "model")

    def test_matrix_tamper_detected(self, tmp_path):
        krr_model, oel_model, *_ = self._fit_models()
        dataio.save_model(dataio.bundle_from_models(krr_model, oel_model),
                          tmp_path / "model")
        target = tmp_path / "model" / "oel_R.mat"
        blob = bytearray(target.read_bytes())
        blob[-1] ^= 0xFF
        target.write_bytes(bytes(blob))
        with pytest.raises(dataio.DataError, match="checksum mismatch"):
            dataio.load_model(tmp_path / "model")

    def test_missing_matrix_detected(self, tmp_path):
        krr_model, oel_model, *_ = self._fit_models()
        dataio.save_model(dataio.bundle_from_models(krr_model, oel_model),
                          tmp_path / "model")
        (tmp_path / "model" / "oel_mu.mat").unlink()
        with pytest.raises(dataio.DataError, match="missing"):
            dataio.load_model(tmp_path / "model")

    @staticmethod
    def _rewrite_version(model_dir, version):
        """Set the bundle version in a saved manifest, re-signing it."""
        mpath = model_dir / "manifest.txt"
        lines = [ln.replace(f"bundle_version = {dataio.BUNDLE_VERSION}",
                            f"bundle_version = {version}")
                 for ln in mpath.read_text().splitlines()
                 if not ln.startswith("manifest_sha256")]
        lines.append("manifest_sha256 = " + dataio._manifest_digest(lines))
        mpath.write_text("\n".join(lines) + "\n")

    def test_version_mismatch_detected(self, tmp_path):
        krr_model, oel_model, *_ = self._fit_models()
        dataio.save_model(dataio.bundle_from_models(krr_model, oel_model),
                          tmp_path / "model")
        self._rewrite_version(tmp_path / "model", "99")
        with pytest.raises(dataio.DataError, match="version"):
            dataio.load_model(tmp_path / "model")

    def test_v1_bundle_rejected(self, tmp_path):
        # a version-1 bundle stored the n x n training state under the old
        # names; it cannot be served and must be refit
        rng = np.random.default_rng(3)
        v1 = dataio.ModelBundle(
            manifest={"krr.mode": "exact"},
            matrices={"oel_alpha_train": rng.standard_normal((4, 4)),
                      "oel_K_y_ss": np.eye(4)})
        dataio.save_model(v1, tmp_path / "model")
        self._rewrite_version(tmp_path / "model", "1")
        with pytest.raises(dataio.DataError, match="bundle version '1' unsupported"):
            dataio.load_model(tmp_path / "model")

    def test_v2_bundle_rejected(self, tmp_path):
        # a version-2 bundle kept separate supervised and unsupervised
        # readouts (oel_R_s, oel_R_u); it must be refit
        krr_model, oel_model, *_ = self._fit_models()
        dataio.save_model(dataio.bundle_from_models(krr_model, oel_model),
                          tmp_path / "model")
        self._rewrite_version(tmp_path / "model", "2")
        with pytest.raises(dataio.DataError,
                           match="bundle version '2' unsupported .*refit"):
            dataio.load_model(tmp_path / "model")

    def test_v3_bundle_rejected(self, tmp_path):
        # a version-3 bundle served tests through the ridge factor and the
        # unfolded readout oel_T; it must be refit
        krr_model, oel_model, *_ = self._fit_models()
        dataio.save_model(dataio.bundle_from_models(krr_model, oel_model),
                          tmp_path / "model")
        self._rewrite_version(tmp_path / "model", "3")
        with pytest.raises(dataio.DataError,
                           match="bundle version '3' unsupported .*expected 4.*refit"):
            dataio.load_model(tmp_path / "model")

    def test_embedding_matrices_have_p_rows(self, tmp_path):
        # every stored embedding matrix is a p-row readout (or mu): nothing
        # of size n x n, n x m or (n+m) x p is persisted
        krr_model, oel_model, *_ = self._fit_models()
        dataio.save_model(dataio.bundle_from_models(krr_model, oel_model),
                          tmp_path / "model")
        loaded = dataio.load_model(tmp_path / "model")
        names = [name for name in loaded.matrices if name.startswith("oel_")]
        assert sorted(names) == ["oel_R", "oel_T_x", "oel_mu"]
        for name in names:
            assert loaded.matrices[name].shape[0] == oel_model.p, name

    @pytest.mark.parametrize("nystrom", [False, True])
    def test_only_regression_bundles_keep_ridge_state(self, tmp_path, nystrom):
        krr_model, oel_model, *_ = self._fit_models(nystrom=nystrom)
        embedded = dataio.bundle_from_models(krr_model, oel_model).matrices
        iokr = dataio.bundle_from_models(krr_model).matrices
        state = "krr_dual" if nystrom else "krr_factor"
        assert state in iokr and state not in embedded
        assert not {"krr_factor", "krr_dual"} & embedded.keys()
        assert ("krr_anchors" in embedded) == nystrom
        assert embedded["oel_T_x"].shape == (oel_model.p, krr_model.alpha_rows)

    def test_readout_shape_mismatch_is_data_error(self, tmp_path):
        krr_model, oel_model, *_ = self._fit_models()
        bundle = dataio.bundle_from_models(krr_model, oel_model)
        bundle.matrices["oel_T_x"] = bundle.matrices["oel_T_x"][:, :-1]
        with pytest.raises(dataio.DataError, match="inconsistent with the manifest"):
            dataio.models_from_bundle(bundle)

    def test_stored_bytes_little_endian(self, tmp_path):
        # beta bytes on disk are the little-endian payload regardless of host
        _, oel_model, *_ = self._fit_models()
        p = tmp_path / "beta.mat"
        dataio.save_matrix_binary(p, oel_model.beta)
        payload = p.read_bytes()[24:]
        assert payload == oel_model.beta.astype("<f8").tobytes()
