import json
import os
import re
import shlex
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import okr
from okr import cli, config, dataio, decode, kernels, krr, linalg, oel
from okr.config import parse_config_file
from okr.decode import decode_oel


def run(*argv):
    return cli.main(list(argv))


def write_cfg(path, *parts):
    path.write_text("\n".join(parts) + "\n")
    return path


def synth_workspace(tmp_path, n=30, m=10, n_test=6, seed=5):
    """Generate a small dataset via the synth subcommand and return the
    directory holding the dataset files plus their config text."""
    tmp_path.mkdir(parents=True, exist_ok=True)
    out = tmp_path / "synth"
    cfg = write_cfg(tmp_path / "synth.cfg",
                    f"synth.n = {n}", f"synth.m = {m}", f"synth.n_test = {n_test}",
                    "synth.sigma2_x = 1.0", "synth.sigma2_z = 4.0")
    assert run("synth", "--config", str(cfg), "--out", str(out),
               "--seed", str(seed)) == 0
    data_dir = out / "data"
    dataset_cfg = (data_dir / "dataset.cfg").read_text()
    return data_dir, dataset_cfg


FIT_KEYS = ["kernel.x.kind = linear", "kernel.y.kind = linear",
            "krr.lambda = 1e-4", "oel.p = 1", "oel.c = 1.0", "decode.k = 3"]


class TestSynth:
    def test_writes_dataset_and_snapshot(self, tmp_path):
        data_dir, dataset_cfg = synth_workspace(tmp_path)
        assert (data_dir / "x_train.csv").exists()
        assert "data.kind = dense" in dataset_cfg
        assert (tmp_path / "synth" / "config.resolved").exists()

    def test_deterministic_files(self, tmp_path):
        d1, _ = synth_workspace(tmp_path / "a", seed=3)
        d2, _ = synth_workspace(tmp_path / "b", seed=3)
        assert (d1 / "y_train.csv").read_bytes() == (d2 / "y_train.csv").read_bytes()


class TestFitPredictEvaluate:
    def _fit(self, tmp_path, *extra, seed=7):
        data_dir, dataset_cfg = synth_workspace(tmp_path)
        run_cfg = write_cfg(data_dir / "run.cfg", dataset_cfg, *FIT_KEYS)
        fit_out = tmp_path / "fit"
        code = run("fit", "--config", str(run_cfg), "--out", str(fit_out),
                   "--seed", str(seed), *extra)
        assert code == 0
        return data_dir, dataset_cfg, run_cfg, fit_out

    def _predict(self, tmp_path, data_dir, dataset_cfg, fit_out, tag="pred",
                 seed=7):
        pred_cfg = write_cfg(data_dir / f"{tag}.cfg", dataset_cfg,
                             f"model.dir = {fit_out / 'model'}", "decode.k = 3")
        pred_out = tmp_path / tag
        assert run("predict", "--config", str(pred_cfg), "--out", str(pred_out),
                   "--seed", str(seed)) == 0
        return pred_out / "rankings.tsv"

    def test_full_pipeline(self, tmp_path, capsys):
        data_dir, dataset_cfg, run_cfg, fit_out = self._fit(tmp_path)
        assert (fit_out / "model" / "manifest.txt").exists()
        rank_path = self._predict(tmp_path, data_dir, dataset_cfg, fit_out)
        ids, scores = dataio.load_rankings(rank_path)
        assert ids.shape == scores.shape == (6, 3)

        eval_cfg = write_cfg(data_dir / "eval.cfg", dataset_cfg,
                             "kernel.y.kind = linear", "evaluate.topk = 1,3",
                             f"evaluate.rankings = {rank_path}")
        eval_out = tmp_path / "eval"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("evaluate", "--config", str(eval_cfg),
                       "--out", str(eval_out)) == 0
        # every truth lies in its candidate set, so missing the top k is no
        # cause for a warning
        assert not [w for w in caught if "true candidate" in str(w.message)]
        table = (eval_out / "metrics.tsv").read_text()
        assert "rkhs_loss" in table and "top1_accuracy" in table

    def test_determinism_byte_identical_rankings(self, tmp_path):
        data_dir, dataset_cfg, run_cfg, fit_out = self._fit(tmp_path)
        r1 = self._predict(tmp_path, data_dir, dataset_cfg, fit_out, tag="p1")
        fit2 = tmp_path / "fit2"
        assert run("fit", "--config", str(run_cfg), "--out", str(fit2),
                   "--seed", "7") == 0
        r2 = self._predict(tmp_path, data_dir, dataset_cfg, fit2, tag="p2")
        assert r1.read_bytes() == r2.read_bytes()

    def test_streamed_candidate_embedding_matches_whole(self, tmp_path, monkeypatch):
        # 16-wide blocks split the 46 candidates into three blocks, the last
        # one partial; both bundles must rank as decoding the whole matrix
        monkeypatch.setattr(decode, "_BLOCK", 16)
        spec = kernels.KernelSpec(kernels.LINEAR)
        for tag, extra in (("embedded", ()), ("iokr", ("--iokr-only",))):
            data_dir, dataset_cfg, _, fit_out = self._fit(tmp_path / tag, *extra)
            rank_path = self._predict(tmp_path / tag, data_dir, dataset_cfg, fit_out)

            ds = dataio.load_dataset(
                dict(line.split(" = ") for line in dataset_cfg.strip().splitlines()),
                data_dir)
            cand_f = dataio.output_features(ds.output_kind, ds.candidate_outputs())
            assert len(cand_f) == 46
            bundle = dataio.load_model(fit_out / "model")
            krr_model, oel_model = dataio.models_from_bundle(bundle)
            kappa = kernels.gram(spec, bundle.matrices["x_train"], ds.x_test)
            if oel_model is None:
                ids, scores = decode.decode_iokr(
                    krr.predict_alpha(krr_model, kappa),
                    kernels.gram(spec, bundle.matrices["y_train_features"], cand_f),
                    kernels.self_norms(spec, cand_f), k=3)
            else:
                ids, scores = decode_oel(
                    okr.embed_inputs(oel_model, kappa),
                    okr.embed_candidates(oel_model, kernels.gram(
                        spec, bundle.matrices["y_ref_features"], cand_f)),
                    kernels.self_norms(spec, cand_f), k=3)
            expect = tmp_path / tag / "whole.tsv"
            dataio.save_rankings(expect, ids, scores)
            assert rank_path.read_bytes() == expect.read_bytes(), tag

    @pytest.mark.parametrize("extra", [(), ("--iokr-only",)], ids=["embedded", "iokr"])
    def test_candidate_grams_stay_within_one_block(self, tmp_path, monkeypatch, extra):
        # global-candidate predict builds no kernel matrix wider than one
        # decode block, so its memory does not grow with N
        data_dir, dataset_cfg, _, fit_out = self._fit(tmp_path, *extra)
        monkeypatch.setattr(decode, "_BLOCK", 16)
        widths = []
        gram = kernels.gram

        def recording_gram(*args, **kwargs):
            K = gram(*args, **kwargs)
            widths.append(K.shape[1])
            return K

        monkeypatch.setattr(kernels, "gram", recording_gram)
        self._predict(tmp_path, data_dir, dataset_cfg, fit_out)
        # the 6-query test kernel, then 16 + 16 + 14 candidate columns
        assert widths == [6, 16, 16, 14]

    @pytest.mark.filterwarnings("ignore:only 1 of the requested")
    def test_full_rank_embedding_matches_iokr_path(self, tmp_path):
        # outputs are 2-d, so p=2 is full rank: the embedded decoder must
        # reproduce the full-dimensional rankings end to end
        data_dir, dataset_cfg = synth_workspace(tmp_path)
        base_keys = [k for k in FIT_KEYS if not k.startswith("oel.p")]
        run_cfg = write_cfg(data_dir / "run.cfg", dataset_cfg, *base_keys,
                            "oel.p = 2")
        fit_oel = tmp_path / "fit_oel"
        fit_iokr = tmp_path / "fit_iokr"
        assert run("fit", "--config", str(run_cfg), "--out", str(fit_oel),
                   "--seed", "7") == 0
        assert run("fit", "--config", str(run_cfg), "--out", str(fit_iokr),
                   "--seed", "7", "--iokr-only") == 0
        r_oel = self._predict(tmp_path, data_dir, dataset_cfg, fit_oel, tag="po")
        r_iokr = self._predict(tmp_path, data_dir, dataset_cfg, fit_iokr, tag="pi")
        ids_oel, scores_oel = dataio.load_rankings(r_oel)
        ids_iokr, scores_iokr = dataio.load_rankings(r_iokr)
        np.testing.assert_array_equal(ids_oel, ids_iokr)
        np.testing.assert_allclose(scores_oel, scores_iokr, atol=1e-5)

    def test_evaluate_perfect_rankings(self, tmp_path):
        # rankings that point every query at its true candidate: zero loss
        data_dir, dataset_cfg = synth_workspace(tmp_path)
        ds = dataio.load_dataset(
            dict(line.split(" = ") for line in dataset_cfg.strip().splitlines()),
            data_dir)
        rank_path = tmp_path / "perfect.tsv"
        dataio.save_rankings(rank_path, ds.truth_index[:, None],
                             np.zeros((ds.truth_index.size, 1)))
        eval_cfg = write_cfg(data_dir / "eval.cfg", dataset_cfg,
                             "kernel.y.kind = linear", "evaluate.topk = 1",
                             f"evaluate.rankings = {rank_path}")
        eval_out = tmp_path / "eval"
        assert run("evaluate", "--config", str(eval_cfg), "--out", str(eval_out)) == 0
        rows = dict()
        for line in (eval_out / "metrics.tsv").read_text().splitlines()[1:]:
            name, est, *_ = line.split("\t")
            rows[name] = float(est)
        assert rows["rkhs_loss"] == pytest.approx(0.0, abs=1e-10)
        assert rows["top1_accuracy"] == 1.0

        # a truth outside the candidate set is a data problem worth a warning
        truth_path = data_dir / "truth_index.txt"
        truth_path.write_text("999\n" + truth_path.read_text().split("\n", 1)[1])
        with pytest.warns(UserWarning, match="1 of 6 queries have a true candidate outside"):
            assert run("evaluate", "--config", str(eval_cfg),
                       "--out", str(tmp_path / "eval_bad")) == 0

    def test_nystrom_fit_predicts(self, tmp_path):
        data_dir, dataset_cfg = synth_workspace(tmp_path)
        run_cfg = write_cfg(data_dir / "run.cfg", dataset_cfg, *FIT_KEYS,
                            "krr.nystrom_q = 10")
        fit_out = tmp_path / "fit_nys"
        assert run("fit", "--config", str(run_cfg), "--out", str(fit_out),
                   "--seed", "3") == 0
        rank_path = self._predict(tmp_path, data_dir, dataset_cfg, fit_out,
                                  tag="pn", seed=3)
        ids, _ = dataio.load_rankings(rank_path)
        assert len(ids) == 6


class TestFoldedReadout:
    """Embedded predict embeds a test input as T_x kappa, with the ridge
    solve folded into T_x at fit. The bundle keeps the fitted T_x, predict
    ranks exactly as decoding with the fitted model does, and T_x kappa is
    the embedding of the ridge prediction h(x) = sum_i alpha_i(x) psi(y_i),
    which the candidate readout R gives independently of T_x."""

    KEYS = ("kernel.x.kind = gaussian", "kernel.x.sigma2 = 1.0", "kernel.y.kind = gaussian",
            "kernel.y.sigma2 = 4.0", "krr.lambda = 1e-3", "oel.p = 4", "oel.c = 0.5")

    @staticmethod
    def _gram_workspace(tmp_path):
        """The synth dataset with its Gaussian input Gram (and the
        train-vs-test block) stored as binary matrices."""
        data_dir, dataset_cfg = synth_workspace(tmp_path)
        keys = dict(line.split(" = ") for line in dataset_cfg.strip().splitlines())
        ds = dataio.load_dataset(keys, data_dir)
        spec = kernels.KernelSpec(kernels.GAUSSIAN, sigma2=1.0)
        dataio.save_matrix_binary(data_dir / "k.mat", kernels.gram(spec, ds.x))
        dataio.save_matrix_binary(data_dir / "k_test.mat", kernels.gram(spec, ds.x, ds.x_test))
        keys.update({"data.x_format": "gram", "data.x": "k.mat", "data.x_test": "k_test.mat"})
        return data_dir, "\n".join(f"{k} = {v}" for k, v in keys.items())

    @pytest.mark.parametrize("case", ["exact", "nystrom_features", "nystrom_gram"])
    def test_embedded_predict_ranks_as_unfolded(self, tmp_path, monkeypatch, case):
        gram = case == "nystrom_gram"
        data_dir, dataset_cfg = (self._gram_workspace(tmp_path) if gram
                                 else synth_workspace(tmp_path))
        keys = self.KEYS + (() if case == "exact" else ("krr.nystrom_q = 12",))
        fitted = {}
        pack = dataio.bundle_from_models

        def capture(krr_model, oel_model=None, *rest):
            fitted.update(krr=krr_model, oel=oel_model)
            return pack(krr_model, oel_model, *rest)

        monkeypatch.setattr(dataio, "bundle_from_models", capture)
        run_cfg = write_cfg(data_dir / "run.cfg", dataset_cfg, *keys)
        assert run("fit", "--config", str(run_cfg), "--out", str(tmp_path / "fit")) == 0
        pred_cfg = write_cfg(data_dir / "pred.cfg", dataset_cfg,
                             f"model.dir = {tmp_path / 'fit' / 'model'}", "decode.k = 5")
        assert run("predict", "--config", str(pred_cfg), "--out", str(tmp_path / "pred")) == 0

        krr_model, oel_model = fitted["krr"], fitted["oel"]
        assert krr_model.mode == (krr.EXACT if case == "exact" else krr.NYSTROM)
        ds = dataio.load_dataset(
            dict(line.split(" = ") for line in dataset_cfg.strip().splitlines()), data_dir)
        if gram:
            kappa = ds.x_test[krr_model.anchors]
        else:
            ref = ds.x if case == "exact" else ds.x[krr_model.anchors]
            kappa = kernels.gram(kernels.KernelSpec(kernels.GAUSSIAN, sigma2=1.0), ref,
                                 ds.x_test)
        Z_test = okr.embed_inputs(oel_model, kappa)
        bundle = dataio.load_model(tmp_path / "fit" / "model")
        assert bundle.matrices["oel_T_x"].tobytes() == oel_model.T_x.tobytes()
        assert not {"krr_factor", "krr_dual"} & bundle.matrices.keys()

        spec_y = kernels.KernelSpec(kernels.GAUSSIAN, sigma2=4.0)
        Y_ref = oel_model.reference_outputs(ds.y_sup, ds.y_unsup)
        # G h(x) = sum_i alpha_i(x) G psi(y_i), each G psi(y_i) through R
        E_sup = okr.embed_candidates(oel_model, kernels.gram(spec_y, Y_ref, ds.y_sup))
        alpha = krr.predict_alpha(krr_model, kappa)
        # the two sides sum different terms, so they agree to rounding
        # relative to the size of those terms (the Nystrom dual weights make
        # alpha and T_x entries far larger than the embeddings)
        scale = np.abs(E_sup) @ np.abs(alpha) + np.abs(oel_model.T_x) @ np.abs(kappa)
        assert np.all(np.abs(Z_test - E_sup @ alpha) <= 1e-12 * scale)

        cand = ds.candidate_outputs()
        Z_cand = okr.embed_candidates(oel_model, kernels.gram(spec_y, Y_ref, cand))
        expect = tmp_path / "fitted.tsv"
        dataio.save_rankings(expect, *decode_oel(Z_test, Z_cand,
                                                 kernels.self_norms(spec_y, cand), k=5))
        assert (tmp_path / "pred" / "rankings.tsv").read_bytes() == expect.read_bytes()


class TestTuneAndBench:
    @pytest.mark.filterwarnings("ignore:only 1 of the requested")
    def test_tune_ssv_writes_best_config(self, tmp_path):
        data_dir, dataset_cfg = synth_workspace(tmp_path, n=40, m=10)
        tune_cfg = write_cfg(data_dir / "tune.cfg", dataset_cfg,
                             "kernel.x.kind = linear", "kernel.y.kind = linear",
                             "tune.lams = 1e-4,1e-2", "tune.ps = 1,2",
                             "tune.cs = 0.5,1.0", "tune.reps = 2")
        out = tmp_path / "tune"
        assert run("tune", "--config", str(tune_cfg), "--out", str(out),
                   "--seed", "1", "--share-krr") == 0
        assert (out / "tune_table.tsv").exists()
        best = (out / "best.cfg").read_text()
        assert "krr.lambda" in best and "oel.p" in best

    def test_tune_nested(self, tmp_path):
        data_dir, dataset_cfg = synth_workspace(tmp_path, n=25, m=0)
        tune_cfg = write_cfg(data_dir / "tune.cfg", dataset_cfg,
                             "kernel.x.kind = linear", "kernel.y.kind = linear",
                             "tune.protocol = nested", "tune.outer = 5",
                             "tune.inner = 4", "tune.lams = 1e-4,1e-2",
                             "tune.ps = 1", "tune.cs = 1.0")
        out = tmp_path / "nested"
        assert run("tune", "--config", str(tune_cfg), "--out", str(out)) == 0
        lines = (out / "tune_table.tsv").read_text().strip().splitlines()
        assert len(lines) == 1 + 5      # header + one row per outer fold

    def test_bench_decode_smoke(self, tmp_path, capsys, monkeypatch):
        # no wall-time budget: exactly bench.repeats rounds
        monkeypatch.setattr(cli, "_BENCH_SECONDS", 0.0)
        cfg = write_cfg(tmp_path / "bench.cfg", "bench.n = 200", "bench.p = 10",
                        "bench.sizes = 500,1000", "bench.queries = 4",
                        "bench.repeats = 2")
        out = tmp_path / "bench"
        assert run("bench-decode", "--config", str(cfg), "--out", str(out)) == 0
        lines = (out / "bench.tsv").read_text().strip().splitlines()
        assert lines[0].startswith("N\t")
        assert len(lines) == 3
        captured = capsys.readouterr().out
        assert "speedup" in captured
        assert "median of 2 interleaved rounds" in captured
        assert "peak RSS" in captured
        # the printed ms per query are bench.tsv's to 4 significant digits
        printed = {row[0]: row[1:3] for row in map(str.split, captured.splitlines())
                   if row and row[0].isdigit()}
        for line in lines[1:]:
            N, iokr, oel = line.split("\t")[:3]
            assert printed[N] == [f"{float(iokr):.4g}", f"{float(oel):.4g}"]


@pytest.mark.filterwarnings("ignore:only")
class TestOtherOutputKinds:
    def _pipeline(self, tmp_path, kind, write_outputs, kernel_lines, metric_name):
        rng = np.random.default_rng(0)
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        n, t = 24, 5
        X = rng.standard_normal((n + t, 2))
        dataio.save_dense(data_dir / "x.csv", X[:n])
        dataio.save_dense(data_dir / "x_test.csv", X[n:])
        write_outputs(data_dir, rng, X, n, t)
        base = [f"data.kind = {kind}", "data.x = x.csv", "data.y = y.txt",
                "data.x_test = x_test.csv", "data.y_test = y_test.txt",
                "kernel.x.kind = gaussian", "kernel.x.sigma2 = 2.0"]
        run_cfg = write_cfg(data_dir / "run.cfg", *base, *kernel_lines,
                            "krr.lambda = 1e-3", "oel.p = 3")
        fit_out = tmp_path / "fit"
        assert run("fit", "--config", str(run_cfg), "--out", str(fit_out)) == 0
        pred_cfg = write_cfg(data_dir / "pred.cfg", *base,
                             f"model.dir = {fit_out / 'model'}")
        pred_out = tmp_path / "pred"
        assert run("predict", "--config", str(pred_cfg), "--out", str(pred_out)) == 0
        eval_cfg = write_cfg(data_dir / "eval.cfg", *base, *kernel_lines,
                             f"evaluate.rankings = {pred_out / 'rankings.tsv'}")
        eval_out = tmp_path / "eval"
        assert run("evaluate", "--config", str(eval_cfg), "--out", str(eval_out)) == 0
        table = (eval_out / "metrics.tsv").read_text()
        assert metric_name in table
        return table

    def test_bitset_pipeline_reports_f1(self, tmp_path):
        def write_outputs(data_dir, rng, X, n, t):
            W = rng.standard_normal((2, 6))
            Y = (X @ W > 0).astype(float)
            Y[Y.sum(axis=1) == 0, 0] = 1.0
            dataio.save_bitsets(data_dir / "y.txt", Y[:n])
            dataio.save_bitsets(data_dir / "y_test.txt", Y[n:])

        table = self._pipeline(tmp_path, "bitset", write_outputs,
                               ["kernel.y.kind = gaussian", "kernel.y.sigma2 = 0.5"],
                               "f1")
        assert "hamming" in table

    def test_permutation_pipeline_reports_kendall(self, tmp_path):
        def write_outputs(data_dir, rng, X, n, t):
            base = np.arange(1, 5)
            P = np.array([base if x[0] > 0 else base[::-1] for x in X])
            dataio.save_permutations(data_dir / "y.txt", P[:n])
            dataio.save_permutations(data_dir / "y_test.txt", P[n:])

        self._pipeline(tmp_path, "permutation", write_outputs,
                       ["kernel.y.kind = linear"], "kendall_tau")


class TestErrors:
    def test_unknown_subcommand_usage_exit(self, capsys):
        assert run("frobnicate") == cli.EXIT_USAGE

    @pytest.mark.parametrize("argv", [("predict", "--iokr-only"), ("evaluate", "--iokr-only"),
                                      ("fit", "--share-krr"), ("evaluate", "--share-krr"),
                                      ("synth", "--share-krr")])
    def test_flag_on_subcommand_that_ignores_it_usage_exit(self, tmp_path, capsys, argv):
        # --iokr-only is read by fit and tune only, --share-krr by tune only
        assert run(*argv, "--out", str(tmp_path / "o")) == cli.EXIT_USAGE
        assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err

    def test_missing_required_key_usage_exit(self, tmp_path, capsys):
        data_dir, dataset_cfg = synth_workspace(tmp_path)
        cfg = write_cfg(data_dir / "bad.cfg", dataset_cfg,
                        "kernel.x.kind = linear", "kernel.y.kind = linear")
        assert run("fit", "--config", str(cfg),
                   "--out", str(tmp_path / "o")) == cli.EXIT_USAGE
        assert "krr.lambda" in capsys.readouterr().err

    def test_missing_file_data_exit(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "bad.cfg", "data.kind = dense",
                        "data.x = nope.csv", "data.y = nope.csv",
                        "kernel.x.kind = linear", "kernel.y.kind = linear",
                        "krr.lambda = 0.1", "oel.p = 1")
        assert run("fit", "--config", str(cfg),
                   "--out", str(tmp_path / "o")) == cli.EXIT_DATA
        log = (tmp_path / "o" / "run.log").read_text()
        assert "data error" in log

    def test_non_psd_gram_numeric_exit(self, tmp_path):
        # indefinite precomputed input Gram: the ridge factorization fails
        bad = np.array([[1.0, 0.0], [0.0, -5.0]])
        dataio.save_matrix_binary(tmp_path / "k.mat", bad)
        dataio.save_dense(tmp_path / "y.csv", np.ones((2, 2)))
        cfg = write_cfg(tmp_path / "bad.cfg", "data.kind = dense",
                        "data.x_format = gram", "data.x = k.mat",
                        "data.y = y.csv", "kernel.y.kind = linear",
                        "krr.lambda = 1e-9", "oel.p = 1")
        assert run("fit", "--config", str(cfg),
                   "--out", str(tmp_path / "o")) == cli.EXIT_NUMERIC

    def test_malformed_config_line(self, tmp_path):
        cfg = tmp_path / "broken.cfg"
        cfg.write_text("this is not a key value line\n")
        assert run("fit", "--config", str(cfg),
                   "--out", str(tmp_path / "o")) == cli.EXIT_USAGE

    def test_snapshot_written_on_success(self, tmp_path):
        out = tmp_path / "s"
        assert run("synth", "--out", str(out), "--seed", "1") == 0
        resolved = (out / "config.resolved").read_text()
        assert "seed = 1" in resolved and "command = synth" in resolved


def _fit_cfg(tmp_path, *overrides):
    data_dir, dataset_cfg = synth_workspace(tmp_path)
    return write_cfg(data_dir / "run.cfg", dataset_cfg, *FIT_KEYS, *overrides)


def _bitset_cfg(tmp_path, y_text):
    dataio.save_dense(tmp_path / "x.csv", np.eye(3))
    (tmp_path / "y.txt").write_text(y_text)
    return write_cfg(tmp_path / "bad.cfg", "data.kind = bitset", "data.x = x.csv",
                     "data.y = y.txt", *FIT_KEYS)


def _non_utf8_cfg(tmp_path):
    (tmp_path / "x.csv").write_bytes(b"#2,1\n1.0\n\xff\n")
    dataio.save_dense(tmp_path / "y.csv", np.ones((2, 1)))
    return write_cfg(tmp_path / "bad.cfg", "data.kind = dense", "data.x = x.csv",
                     "data.y = y.csv", *FIT_KEYS)


def _write_bytes(path, data):
    path.write_bytes(data)
    return path


def _failing_fit_oel(*args, **kwargs):
    raise RuntimeError("unexpected failure inside fit_oel_factored")


def _index_error_fit_oel(*args, **kwargs):
    raise IndexError("index 9 is out of bounds inside fit_oel_factored")


def _gaussian_gram_files(tmp_path, n, tag, n_test=0):
    """Gaussian input Gram of n random points (and its block against n_test
    more) as binary matrices, with 2-d dense outputs; returns the data keys."""
    rng = np.random.default_rng(n)
    X = rng.standard_normal((n + n_test, 2))
    spec = kernels.KernelSpec(kernels.GAUSSIAN, sigma2=1.0)
    dataio.save_matrix_binary(tmp_path / f"{tag}.mat", kernels.gram(spec, X[:n]))
    dataio.save_dense(tmp_path / f"y{n}.csv", X[:n] @ rng.standard_normal((2, 2)))
    keys = ["data.kind = dense", "data.x_format = gram", f"data.x = {tag}.mat",
            f"data.y = y{n}.csv"]
    if n_test:
        dataio.save_matrix_binary(tmp_path / f"{tag}_test.mat",
                                  kernels.gram(spec, X[:n], X[n:]))
        keys.append(f"data.x_test = {tag}_test.mat")
    return keys


def _gram_candidate_map_cfg(tmp_path):
    """Gram-mode fit config whose candidate map names candidate 6 of the 6
    default candidates (the supervised outputs)."""
    keys = _gaussian_gram_files(tmp_path, 6, "k6")
    (tmp_path / "map.txt").write_text("0 1\n0 6\n")
    return write_cfg(tmp_path / "bad.cfg", *keys, "data.candidate_map = map.txt",
                     *FIT_KEYS)


def _gram_rows_cfg(tmp_path):
    """predict config pairing a Nystrom model fit on a 6 x 6 input Gram with
    the Gram blocks of a 4-point dataset."""
    fit_cfg = write_cfg(tmp_path / "fit.cfg", *_gaussian_gram_files(tmp_path, 6, "k6"),
                        *FIT_KEYS, "krr.nystrom_q = 3")
    assert run("fit", "--config", str(fit_cfg), "--out", str(tmp_path / "fit")) == 0
    return "predict", write_cfg(tmp_path / "pred.cfg",
                                *_gaussian_gram_files(tmp_path, 4, "k4", n_test=2),
                                f"model.dir = {tmp_path / 'fit' / 'model'}")


# (case, function writing the config, patch (module attribute, replacement)
#  or None, exit code, run.log label, text the run.log entry must contain)
BAD_FIT_INPUTS = [
    ("p_zero", lambda d: _fit_cfg(d, "oel.p = 0"), None,
     cli.EXIT_USAGE, "usage error", "oel.p must be an integer >= 1, got '0'"),
    ("p_above_n_plus_m", lambda d: _fit_cfg(d, "oel.p = 41"), None,
     cli.EXIT_USAGE, "usage error", "oel.p must be <= n + m = 40, got 41"),
    ("c_outside_unit_interval", lambda d: _fit_cfg(d, "oel.c = 1.5"), None,
     cli.EXIT_USAGE, "usage error", "oel.c must be a number in [0, 1], got '1.5'"),
    ("unknown_method", lambda d: _fit_cfg(d, "oel.method = lanczos"), None,
     cli.EXIT_USAGE, "usage error",
     "oel.method must be one of exact, randomized, got 'lanczos'"),
    ("oversample_negative", lambda d: _fit_cfg(d, "oel.oversample = -1"), None,
     cli.EXIT_USAGE, "usage error", "oel.oversample must be an integer >= 0, got '-1'"),
    ("power_iters_negative",
     lambda d: _fit_cfg(d, "oel.method = randomized", "oel.power_iters = -1"), None,
     cli.EXIT_USAGE, "usage error", "oel.power_iters must be an integer >= 0, got '-1'"),
    ("sketch_wider_than_n_plus_m",
     lambda d: _fit_cfg(d, "oel.method = randomized", "oel.oversample = 40"), None,
     cli.EXIT_USAGE, "usage error", "oel.p + oel.oversample must be <= n + m = 40, got 41"),
    ("bitset_dim_not_integer", lambda d: _bitset_cfg(d, "#dim x\n0\n1\n2\n"), None,
     cli.EXIT_DATA, "data error", "y.txt:1: bad dimension 'x'"),
    ("bitset_dim_unallocatable", lambda d: _bitset_cfg(d, "#dim 3000000000000\n0\n1\n2\n"),
     None, cli.EXIT_DATA, "data error",
     "y.txt:1: a 3 x 3000000000000 matrix cannot be allocated"),
    ("non_utf8_data_file", _non_utf8_cfg, None,
     cli.EXIT_DATA, "data error", "x.csv: not UTF-8"),
    ("unexpected_exception", _fit_cfg, ("okr.oel.fit_oel_factored", _failing_fit_oel),
     cli.EXIT_INTERNAL, "internal error", "unexpected failure inside fit_oel_factored"),
    ("gram_candidate_id_out_of_range", _gram_candidate_map_cfg, None,
     cli.EXIT_DATA, "data error", "map.txt:2: candidate id 6 outside [0, 6)"),
    ("unexpected_index_error", _fit_cfg, ("okr.oel.fit_oel_factored", _index_error_fit_oel),
     cli.EXIT_INTERNAL, "internal error",
     "IndexError: index 9 is out of bounds inside fit_oel_factored"),
    ("precomputed_input_kernel_on_features",
     lambda d: _fit_cfg(d, "kernel.x.kind = precomputed"), None,
     cli.EXIT_USAGE, "usage error",
     "kernel.x.kind must be one of gaussian, linear, tanimoto, gaussian_tanimoto (a "
     "precomputed input Gram is data: data.x with data.x_format = gram), got 'precomputed'"),
    ("lambda_zero", lambda d: _fit_cfg(d, "krr.lambda = 0"), None,
     cli.EXIT_USAGE, "usage error", "krr.lambda must be a number > 0, got '0'"),
    ("lambda_checked_before_data_load",
     lambda d: write_cfg(d / "bad.cfg", "data.kind = dense", "data.x = nope.csv",
                         "data.y = nope.csv", *FIT_KEYS, "krr.lambda = -1"), None,
     cli.EXIT_USAGE, "usage error", "krr.lambda must be a number > 0, got '-1'"),
    ("nystrom_q_zero", lambda d: _fit_cfg(d, "krr.nystrom_q = 0"), None,
     cli.EXIT_USAGE, "usage error", "krr.nystrom_q must be an integer >= 1, got '0'"),
    ("nystrom_q_above_n", lambda d: _fit_cfg(d, "krr.nystrom_q = 1000"), None,
     cli.EXIT_USAGE, "usage error", "krr.nystrom_q must be <= n = 30, got 1000"),
    ("misspelled_key", lambda d: _fit_cfg(d, "oel.cc = 0.9"), None, cli.EXIT_USAGE,
     "usage error", "run.cfg:17: unknown config key 'oel.cc'; did you mean 'oel.c'?"),
    ("key_of_no_subcommand", lambda d: _fit_cfg(d, "decod.k = 5"), None, cli.EXIT_USAGE,
     "usage error", "unknown config key 'decod.k'; did you mean 'decode.k'?"),
    ("config_not_utf8", lambda d: _write_bytes(d / "bad.cfg", b"krr.lambda = 1\xff\n"), None,
     cli.EXIT_USAGE, "usage error", "bad.cfg: 'utf-8' codec can't decode byte 0xff"),
]


@pytest.mark.parametrize("make_cfg, patch, code, label, message",
                         [case[1:] for case in BAD_FIT_INPUTS],
                         ids=[case[0] for case in BAD_FIT_INPUTS])
def test_bad_fit_input_exit_code_and_log(tmp_path, capsys, monkeypatch,
                                         make_cfg, patch, code, label, message):
    cfg = make_cfg(tmp_path)
    if patch is not None:
        monkeypatch.setattr(*patch)
    out = tmp_path / "o"
    assert run("fit", "--config", str(cfg), "--out", str(out)) == code
    assert f"{label}: " in capsys.readouterr().err
    log = (out / "run.log").read_text()
    assert f"--- {label} ---" in log and "Traceback" in log and message in log


def _rankings_cfg(tmp_path, bad_lines, *extra_keys):
    """evaluate config over a 30 + 10 synth dataset (46 candidates, 6 queries)
    whose rankings file starts with bad_lines, plus extra_keys."""
    data_dir, dataset_cfg = synth_workspace(tmp_path)
    rank_path = tmp_path / "rankings.tsv"
    rank_path.write_text(bad_lines + "".join(f"{j}\t{j}:0.5\n"
                                             for j in range(bad_lines.count("\n"), 6)))
    return "evaluate", write_cfg(data_dir / "eval.cfg", dataset_cfg, "kernel.y.kind = linear",
                                 f"evaluate.rankings = {rank_path}", *extra_keys)


def _truth_cfg(tmp_path, text):
    """_rankings_cfg with valid rankings and a truth index file holding text."""
    command, cfg = _rankings_cfg(tmp_path, "", "data.truth_index = truth.txt")
    (cfg.parent / "truth.txt").write_text(text)
    return command, cfg


def _short_truth_cfg(tmp_path):
    """_rankings_cfg with valid rankings and 3 true candidates for the 6
    queries."""
    command, cfg = _rankings_cfg(tmp_path, "", "data.truth_index = short_truth.txt")
    (cfg.parent / "short_truth.txt").write_text("0\n1\n2\n")
    return command, cfg


def _short_map_cfg(tmp_path):
    """predict config over a fitted 30 + 10 synth bundle whose candidate map
    lists candidates for 2 of the 6 test queries."""
    data_dir, dataset_cfg = synth_workspace(tmp_path)
    fit_cfg = write_cfg(data_dir / "run.cfg", dataset_cfg, *FIT_KEYS)
    assert run("fit", "--config", str(fit_cfg), "--out", str(tmp_path / "fit")) == 0
    (data_dir / "short_map.txt").write_text("0 1\n0 2\n1 3\n")
    return "predict", write_cfg(data_dir / "pred.cfg", dataset_cfg,
                                "data.candidate_map = short_map.txt",
                                f"model.dir = {tmp_path / 'fit' / 'model'}")


def _edited_manifest_cfg(tmp_path, line, edited):
    """predict config over a fitted bundle whose manifest line is replaced
    by edited, and the manifest digest recomputed."""
    data_dir, dataset_cfg = synth_workspace(tmp_path)
    fit_cfg = write_cfg(data_dir / "run.cfg", dataset_cfg, *FIT_KEYS)
    assert run("fit", "--config", str(fit_cfg), "--out", str(tmp_path / "fit")) == 0
    mpath = tmp_path / "fit" / "model" / "manifest.txt"
    lines = [edited if ln == line else ln for ln in mpath.read_text().splitlines()
             if not ln.startswith("manifest_sha256")]
    assert edited in lines
    lines.append("manifest_sha256 = " + dataio._manifest_digest(lines))
    mpath.write_text("\n".join(lines) + "\n")
    return "predict", write_cfg(data_dir / "pred.cfg", dataset_cfg,
                                f"model.dir = {tmp_path / 'fit' / 'model'}")


def _decode_k_cfg(tmp_path, k):
    """predict config over a fitted 30 + 10 synth bundle with decode.k = k."""
    data_dir, dataset_cfg = synth_workspace(tmp_path)
    fit_cfg = write_cfg(data_dir / "run.cfg", dataset_cfg, *FIT_KEYS)
    assert run("fit", "--config", str(fit_cfg), "--out", str(tmp_path / "fit")) == 0
    return "predict", write_cfg(data_dir / "pred.cfg", dataset_cfg, f"decode.k = {k}",
                                f"model.dir = {tmp_path / 'fit' / 'model'}")


def _predict_width_cfg(tmp_path, key):
    """predict config over a fitted 30 + 10 synth bundle (1-d inputs, 2-d
    outputs) whose data.x_test or data.candidates file is rewritten with 3
    columns; the candidates come with 3-column supervised outputs, so the
    dataset itself is consistent."""
    data_dir, dataset_cfg = synth_workspace(tmp_path)
    fit_cfg = write_cfg(data_dir / "run.cfg", dataset_cfg, *FIT_KEYS)
    assert run("fit", "--config", str(fit_cfg), "--out", str(tmp_path / "fit")) == 0
    rng = np.random.default_rng(0)
    dataio.save_dense(data_dir / "wide.csv", rng.standard_normal((6, 3)))
    if key == "data.x_test":
        lines = [ln for ln in dataset_cfg.splitlines() if not ln.startswith(key)]
        lines.append(f"{key} = wide.csv")
    else:
        dataio.save_dense(data_dir / "y_wide.csv", rng.standard_normal((30, 3)))
        lines = [ln for ln in dataset_cfg.splitlines()
                 if not ln.startswith(("data.y", "data.candidates"))]
        lines += ["data.y = y_wide.csv", "data.candidates = wide.csv"]
    return "predict", write_cfg(data_dir / "pred.cfg", *lines,
                                f"model.dir = {tmp_path / 'fit' / 'model'}")


# (case, function writing (subcommand, config), exit code, run.log label,
#  text the run.log entry must contain)
BAD_RUN_INPUTS = [
    ("evaluate_negative_candidate_id", lambda d: _rankings_cfg(d, "0\t-1:0.1\n"),
     cli.EXIT_DATA, "data error", "rankings.tsv:1: candidate id -1 outside [0, 46)"),
    ("evaluate_candidate_id_past_end", lambda d: _rankings_cfg(d, "0\t46:0.1\n"),
     cli.EXIT_DATA, "data error", "rankings.tsv:1: candidate id 46 outside [0, 46)"),
    ("evaluate_query_without_pairs", lambda d: _rankings_cfg(d, "0\n"),
     cli.EXIT_DATA, "data error", "rankings.tsv:1: query 0 ranks no candidate"),
    ("evaluate_query_lines_swapped", lambda d: _rankings_cfg(d, "1\t1:0.5\n0\t0:0.5\n"),
     cli.EXIT_DATA, "data error", "rankings.tsv:1: query id 1 out of order; expected 0"),
    ("evaluate_query_id_repeated", lambda d: _rankings_cfg(d, "0\t0:0.5\n0\t1:0.5\n"),
     cli.EXIT_DATA, "data error", "rankings.tsv:2: query id 0 repeated; expected 1"),
    ("evaluate_candidate_id_beyond_int64",
     lambda d: _rankings_cfg(d, "0\t99999999999999999999:0.5\n"), cli.EXIT_DATA, "data error",
     "rankings.tsv:1: candidate id 99999999999999999999 outside [0, 46)"),
    ("evaluate_truth_index_beyond_int64",
     lambda d: _truth_cfg(d, "0\n99999999999999999999\n2\n3\n4\n5\n"),
     cli.EXIT_DATA, "data error", "truth.txt:2: integer 99999999999999999999 outside the "
     "int64 range"),
    ("evaluate_truth_index_too_short", _short_truth_cfg,
     cli.EXIT_DATA, "data error", "short_truth.txt: 3 true candidates for 6 test queries"),
    ("predict_candidate_map_too_short", _short_map_cfg,
     cli.EXIT_DATA, "data error", "short_map.txt: 2 candidate lists for 6 test queries"),
    ("predict_v2_bundle",
     lambda d: _edited_manifest_cfg(d, f"bundle_version = {dataio.BUNDLE_VERSION}",
                                    "bundle_version = 2"),
     cli.EXIT_DATA, "data error", "bundle version '2' unsupported (expected 4); refit"),
    ("predict_manifest_p_not_integer",
     lambda d: _edited_manifest_cfg(d, "oel.p = 1", "oel.p = 3.5"),
     cli.EXIT_DATA, "data error", "manifest.txt: oel.p = '3.5' is not an integer"),
    ("predict_manifest_output_kind_dropped",
     lambda d: _edited_manifest_cfg(d, "output.kind = dense", "output.kinds = dense"),
     cli.EXIT_DATA, "data error", "manifest.txt: missing key 'output.kind'"),
    ("predict_manifest_kernel_kind_unknown",
     lambda d: _edited_manifest_cfg(d, "kernel.y.kind = linear", "kernel.y.kind = cosine"),
     cli.EXIT_DATA, "data error", "manifest.txt: kernel.y.kind must be one of gaussian, "
     "linear, tanimoto, gaussian_tanimoto, got 'cosine'"),
    ("predict_gram_block_rows_mismatch", _gram_rows_cfg,
     cli.EXIT_DATA, "data error",
     "k4_test.mat: test Gram block has 4 rows, but the model was fit on 6 training points"),
    ("predict_test_input_width_mismatch", lambda d: _predict_width_cfg(d, "data.x_test"),
     cli.EXIT_DATA, "data error",
     "wide.csv: test inputs have 3 features, but the model was fit on 1"),
    ("predict_candidate_width_mismatch",
     lambda d: _predict_width_cfg(d, "data.candidates"),
     cli.EXIT_DATA, "data error",
     "wide.csv: candidate outputs have 3 features, but the model's outputs have 2"),
    ("predict_decode_k_zero", lambda d: _decode_k_cfg(d, 0),
     cli.EXIT_USAGE, "usage error", "decode.k must be an integer >= 1, got '0'"),
    ("predict_decode_k_negative", lambda d: _decode_k_cfg(d, -2),
     cli.EXIT_USAGE, "usage error", "decode.k must be an integer >= 1, got '-2'"),
    ("evaluate_topk_zero", lambda d: _rankings_cfg(d, "", "evaluate.topk = 0"),
     cli.EXIT_USAGE, "usage error",
     "evaluate.topk must be comma-separated integers >= 1, got '0'"),
    ("evaluate_topk_negative", lambda d: _rankings_cfg(d, "", "evaluate.topk = 1,-1"),
     cli.EXIT_USAGE, "usage error",
     "evaluate.topk must be comma-separated integers >= 1, got '1,-1'"),
    ("predict_misspelled_data_key",
     lambda d: ("predict", write_cfg(d / "pred.cfg", "data.y_unsp = y_unsup.csv",
                                     "model.dir = fit/model")),
     cli.EXIT_USAGE, "usage error",
     "pred.cfg:1: unknown config key 'data.y_unsp'; did you mean 'data.y_unsup'?"),
    ("evaluate_misspelled_data_key",
     lambda d: _rankings_cfg(d, "", "data.y_unsp = y_unsup.csv"),
     cli.EXIT_USAGE, "usage error",
     "unknown config key 'data.y_unsp'; did you mean 'data.y_unsup'?"),
]


@pytest.mark.parametrize("make_cfg, code, label, message",
                         [case[1:] for case in BAD_RUN_INPUTS],
                         ids=[case[0] for case in BAD_RUN_INPUTS])
def test_bad_predict_evaluate_input_exit_code_and_log(tmp_path, capsys, make_cfg, code,
                                                      label, message):
    command, cfg = make_cfg(tmp_path)
    out = tmp_path / "o"
    assert run(command, "--config", str(cfg), "--out", str(out)) == code
    assert f"{label}: " in capsys.readouterr().err
    log = (out / "run.log").read_text()
    assert f"--- {label} ---" in log and "Traceback" in log and message in log


def _tune_cfg(tmp_path, *overrides):
    """tune config over a 30 + 10 synth dataset with a small valid grid,
    then overrides."""
    data_dir, dataset_cfg = synth_workspace(tmp_path)
    return write_cfg(data_dir / "tune.cfg", dataset_cfg, "kernel.x.kind = gaussian",
                     "kernel.x.sigma2 = 1.0", "kernel.y.kind = gaussian",
                     "kernel.y.sigma2 = 4.0", "tune.reps = 2", "tune.lams = 1e-3",
                     "tune.ps = 1", "tune.cs = 0.5", *overrides)


# (case, config overrides, text the run.log entry must contain); every case
# exits with the usage code
BAD_TUNE_INPUTS = [
    ("ratio_above_one", ("tune.ratio = 1.5",), "tune.ratio must be a number in (0, 1), got '1.5'"),
    ("ratio_zero", ("tune.ratio = 0",), "tune.ratio must be a number in (0, 1), got '0'"),
    ("reps_zero", ("tune.reps = 0",), "tune.reps must be an integer >= 1, got '0'"),
    ("outer_one", ("tune.protocol = nested", "tune.outer = 1"),
     "tune.outer must be an integer >= 2, got '1'"),
    ("inner_one", ("tune.protocol = nested", "tune.inner = 1"),
     "tune.inner must be an integer >= 2, got '1'"),
    ("unknown_protocol", ("tune.protocol = loo",),
     "tune.protocol must be one of ssv, nested, got 'loo'"),
    ("unknown_metric", ("tune.metric = bogus",),
     "tune.metric must be one of f1, hamming, kendall_tau, rkhs_loss, surrogate_mse, "
     "top1_accuracy, got 'bogus'"),
    ("c_above_one", ("tune.cs = 2",), "tune.cs must be comma-separated numbers in [0, 1], got '2'"),
    ("lambda_negative", ("tune.lams = 1e-3,-1",),
     "tune.lams must be comma-separated numbers > 0, got '1e-3,-1'"),
    ("lams_empty", ("tune.lams = ,",), "tune.lams must be comma-separated numbers > 0, got ','"),
    ("sigma2_in_zero", ("tune.sigma2_ins = 0",),
     "tune.sigma2_ins must be comma-separated numbers > 0, got '0'"),
    ("sigma2_out_negative", ("tune.sigma2_outs = -4",),
     "tune.sigma2_outs must be comma-separated numbers > 0, got '-4'"),
    ("p_zero", ("tune.ps = 0",), "tune.ps must be comma-separated integers >= 1, got '0'"),
    ("q_zero", ("tune.qs = 0,5",), "tune.qs must be comma-separated integers >= 1, got '0,5'"),
    # every grid point is fit on a training fold: int(0.8 * 30) = 24 supervised
    # points (ssv), or 24 - ceil(24 / 4) = 18 (nested 5 x 4), and the 10 pool outputs
    ("p_above_n_plus_m", ("tune.ps = 8,41",),
     "tune.ps must be <= int(tune.ratio * n) + m = 34, got 8,41"),
    ("q_above_n", ("tune.qs = 31",), "tune.qs must be <= int(tune.ratio * n) = 24, got 31"),
    ("p_above_training_fold_plus_m", ("tune.ps = 38",),
     "tune.ps must be <= int(tune.ratio * n) + m = 34, got 38"),
    ("q_above_training_fold", ("tune.qs = 30",),
     "tune.qs must be <= int(tune.ratio * n) = 24, got 30"),
    ("p_above_inner_training_fold_plus_m", ("tune.protocol = nested", "tune.ps = 29"),
     "tune.ps must be <= the smallest inner training fold + m = 28, got 29"),
    ("q_above_inner_training_fold", ("tune.protocol = nested", "tune.qs = 19"),
     "tune.qs must be <= the smallest inner training fold = 18, got 19"),
    ("width_grid_on_kernel_without_width",
     ("kernel.y.kind = linear", "tune.sigma2_outs = 1,2"),
     "tune.sigma2_outs needs a kernel.y.kind in ('gaussian', 'gaussian_tanimoto'), "
     "got linear"),
    ("outer_above_n", ("tune.protocol = nested", "tune.outer = 100"),
     "tune.outer must be <= n = 30, got 100"),
    ("inner_above_smallest_outer_training_fold",
     ("tune.protocol = nested", "tune.inner = 25"),
     "tune.inner must be <= n - ceil(n / tune.outer) = 24, got 25"),
    ("ratio_leaves_no_training_point", ("tune.ratio = 0.01",),
     "tune.ratio must make int(ratio * n) >= 1 at n = 30, got 0.01"),
    ("misspelled_key", ("tune.lam = 5",),
     "unknown config key 'tune.lam'; did you mean 'tune.lams'?"),
]


@pytest.mark.parametrize("overrides, message", [case[1:] for case in BAD_TUNE_INPUTS],
                         ids=[case[0] for case in BAD_TUNE_INPUTS])
def test_bad_tune_input_exit_code_and_log(tmp_path, capsys, overrides, message):
    cfg = _tune_cfg(tmp_path, *overrides)
    out = tmp_path / "o"
    assert run("tune", "--config", str(cfg), "--out", str(out)) == cli.EXIT_USAGE
    assert "usage error: " in capsys.readouterr().err
    log = (out / "run.log").read_text()
    assert "--- usage error ---" in log and "Traceback" in log and message in log


def test_tune_width_grid_on_input_gram_usage_exit(tmp_path, capsys):
    # a fixed input Gram has no width to tune, whatever kernel.x.kind says
    cfg = write_cfg(tmp_path / "gram.cfg", *_gaussian_gram_files(tmp_path, 12, "k12"),
                    "kernel.x.kind = gaussian", "kernel.x.sigma2 = 1.0",
                    "kernel.y.kind = linear", "tune.sigma2_ins = 1,2", "tune.lams = 1e-3",
                    "tune.ps = 1", "tune.reps = 2")
    assert run("tune", "--config", str(cfg), "--out", str(tmp_path / "o")) == cli.EXIT_USAGE
    assert ("tune.sigma2_ins needs feature inputs, not data.x_format = gram"
            in capsys.readouterr().err)


def test_tune_ranges_checked_before_data_load(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "bad.cfg", "data.kind = dense", "data.x = nope.csv",
                    "data.y = nope.csv", "kernel.x.kind = linear", "kernel.y.kind = linear",
                    "tune.reps = 0")
    assert run("tune", "--config", str(cfg), "--out", str(tmp_path / "o")) == cli.EXIT_USAGE
    assert "tune.reps must be an integer >= 1, got '0'" in capsys.readouterr().err


@pytest.mark.parametrize("overrides", [("tune.ps = 34", "tune.qs = 24"),
                                       ("tune.protocol = nested", "tune.ps = 28",
                                        "tune.qs = 18")], ids=["ssv", "nested"])
def test_tune_grids_at_the_training_fold_bound_fit(tmp_path, overrides):
    # the largest p and q the fold bounds of BAD_TUNE_INPUTS let through
    cfg = _tune_cfg(tmp_path, *overrides)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # p above the fold's numerical rank
        assert run("tune", "--config", str(cfg), "--out", str(tmp_path / "o")) == 0


def test_tune_default_p_grid_stays_within_the_training_fold(tmp_path):
    # 30 + 2 outputs at ratio 0.8: each point is fit on 24 + 2, so the
    # default powers of two stop at 16, and no grid point fails to fit
    data_dir, dataset_cfg = synth_workspace(tmp_path, n=30, m=2)
    cfg = write_cfg(data_dir / "tune.cfg", dataset_cfg, "kernel.x.kind = gaussian",
                    "kernel.x.sigma2 = 1.0", "kernel.y.kind = gaussian",
                    "kernel.y.sigma2 = 4.0", "tune.reps = 2", "tune.lams = 1e-3",
                    "tune.cs = 0.5")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # p above the fold's numerical rank
        assert run("tune", "--config", str(cfg), "--out", str(tmp_path / "o")) == 0
    header, *rows = (tmp_path / "o" / "tune_table.tsv").read_text().splitlines()
    fields = [dict(zip(header.split("\t"), row.split("\t"))) for row in rows]
    assert sorted({int(f["p"]) for f in fields}) == [1, 2, 4, 8, 16]
    assert all(f["error"] == "" for f in fields)


# (case, subcommand, config line, text the run.log entry must contain); every
# case exits with the usage code before any data is drawn or timed
BAD_SYNTH_BENCH_INPUTS = [
    ("synth_m_negative", "synth", "synth.m = -1", "synth.m must be an integer >= 0, got '-1'"),
    ("synth_sigma2_x_zero", "synth", "synth.sigma2_x = 0",
     "synth.sigma2_x must be a number > 0, got '0'"),
    ("synth_seed_negative", "synth", "seed = -1", "seed must be an integer >= 0, got '-1'"),
    ("bench_repeats_zero", "bench-decode", "bench.repeats = 0",
     "bench.repeats must be an integer >= 1, got '0'"),
    ("bench_k_zero", "bench-decode", "bench.k = 0", "bench.k must be an integer >= 1, got '0'"),
    ("bench_sizes_zero", "bench-decode", "bench.sizes = 0",
     "bench.sizes must be comma-separated integers >= 1, got '0'"),
    ("bench_misspelled_key", "bench-decode", "bench.size = 100",
     "bad.cfg:1: unknown config key 'bench.size'; did you mean 'bench.sizes'?"),
]


@pytest.mark.parametrize("command, line, message", [case[1:] for case in BAD_SYNTH_BENCH_INPUTS],
                         ids=[case[0] for case in BAD_SYNTH_BENCH_INPUTS])
def test_bad_synth_bench_input_exit_code_and_log(tmp_path, capsys, command, line, message):
    cfg = write_cfg(tmp_path / "bad.cfg", line)
    out = tmp_path / "o"
    t0 = time.perf_counter()
    assert run(command, "--config", str(cfg), "--out", str(out)) == cli.EXIT_USAGE
    # bench-decode checks its keys before its 1.5 s clock burn-in
    assert time.perf_counter() - t0 < 1.5
    assert "usage error: " in capsys.readouterr().err
    log = (out / "run.log").read_text()
    assert "--- usage error ---" in log and "Traceback" in log and message in log


def test_resolved_config_replays_fit(tmp_path):
    # config.resolved fed back as --config is accepted and refits the same
    # bundle; its own snapshot differs only in the output directory
    data_dir, _ = synth_workspace(tmp_path)
    keys = parse_config_file(data_dir / "dataset.cfg")
    lines = [f"{k} = {v if k in ('data.kind', 'data.x_format') else data_dir / v}"
             for k, v in keys.items()]
    cfg = write_cfg(tmp_path / "run.cfg", *lines, *FIT_KEYS, "krr.nystrom_q = 10",
                    "oel.method = randomized")
    first, replay = tmp_path / "first", tmp_path / "replay"
    assert run("fit", "--config", str(cfg), "--out", str(first), "--seed", "3") == 0
    assert run("fit", "--config", str(first / "config.resolved"), "--out", str(replay)) == 0
    files = sorted(p.name for p in (first / "model").iterdir())
    assert files == sorted(p.name for p in (replay / "model").iterdir())
    for name in files:
        assert (first / "model" / name).read_bytes() == (replay / "model" / name).read_bytes()
    resolved = (first / "config.resolved").read_text()
    assert "krr.seed = " in resolved and "oel.seed = " in resolved
    assert (replay / "config.resolved").read_text() == resolved.replace(
        f"out = {first}", f"out = {replay}")


def fingerprint_workspace(tmp_path, n=150, m=150, n_bits=64, seed=0):
    """Random 64-bit fingerprints as supervised and pool outputs: their
    tanimoto Gram has full rank, so the output factor passes its rank cap."""
    rng = np.random.default_rng(seed)
    data_dir = tmp_path / "fp"
    data_dir.mkdir(parents=True)
    Y = (rng.random((n + m, n_bits)) < 0.3).astype(float)
    Y[Y.sum(axis=1) == 0, 0] = 1.0
    dataio.save_dense(data_dir / "x.csv", Y[:n] @ rng.standard_normal((n_bits, 3)))
    dataio.save_bitsets(data_dir / "y.txt", Y[:n])
    dataio.save_bitsets(data_dir / "y_unsup.txt", Y[n:])
    return data_dir, "\n".join(["data.kind = bitset", "data.x = x.csv", "data.y = y.txt",
                                "data.y_unsup = y_unsup.txt"])


def test_nystrom_fit_matches_library_fit(tmp_path):
    # a Nystrom ridge takes the factored path, and okr fit stores the model
    # oel.fit_embedding gives for the same anchors, bit for bit
    data_dir, dataset_cfg = synth_workspace(tmp_path, n=300, m=300)
    cfg = write_cfg(data_dir / "run.cfg", dataset_cfg, "kernel.x.kind = gaussian",
                    "kernel.x.sigma2 = 1.0", "kernel.y.kind = gaussian",
                    "kernel.y.sigma2 = 4.0", "krr.lambda = 1e-4", "krr.nystrom_q = 100",
                    "krr.seed = 3", "oel.p = 8", "oel.c = 0.5")
    assert run("fit", "--config", str(cfg), "--out", str(tmp_path / "fit")) == 0
    bundle = dataio.load_model(tmp_path / "fit" / "model")

    ds = dataio.load_dataset(parse_config_file(cfg), data_dir)
    gx = kernels.KernelSpec(kernels.GAUSSIAN, sigma2=1.0)
    anchors = krr.select_anchors(ds.n, 100, 3)
    K_cols = kernels.gram(gx, ds.x, ds.x[anchors])
    krr_model = krr.fit_krr_nystrom(K_cols, kernels.gram(gx, ds.x[anchors]), 1e-4, anchors)
    outputs = oel.OutputSet(kernels.KernelSpec(kernels.GAUSSIAN, sigma2=4.0), ds.y_sup,
                            ds.y_unsup)
    model = oel.fit_embedding(krr_model, K_cols, outputs, 8, 0.5)
    assert model.eigensolver == "pivoted_cholesky r=153"
    assert (f"oel.eigensolver = {model.eigensolver}"
            in (tmp_path / "fit" / "config.resolved").read_text())
    np.testing.assert_array_equal(bundle.matrices["oel_R"], model.R)
    np.testing.assert_array_equal(bundle.matrices["oel_T_x"], model.T_x)
    np.testing.assert_array_equal(bundle.matrices["y_ref_features"],
                                  model.reference_outputs(ds.y_sup, ds.y_unsup))


class TestEigensolverRecord:
    KEYS = ("kernel.x.kind = gaussian", "kernel.x.sigma2 = 1.0", "krr.lambda = 1e-4",
            "oel.c = 0.5")
    GAUSS_Y = ("kernel.y.kind = gaussian", "kernel.y.sigma2 = 4.0", "oel.p = 8")

    def _fit_resolved(self, tmp_path, data_dir, dataset_cfg, *keys):
        cfg = write_cfg(data_dir / "run.cfg", dataset_cfg, *self.KEYS, *keys)
        out = tmp_path / "fit"
        assert run("fit", "--config", str(cfg), "--out", str(out)) == 0
        return (out / "config.resolved").read_text().splitlines()

    def _fingerprints_resolved(self, tmp_path):
        # n + m = 1500 fingerprints: the factor gives up at rank 500, and the
        # size rule sends p = 8 to the Krylov solver
        return self._fit_resolved(tmp_path, *fingerprint_workspace(tmp_path, n=750, m=750),
                                  "kernel.y.kind = tanimoto", "oel.p = 8")

    def test_baseline_shape_records_pivoted_cholesky(self, tmp_path):
        # the remark1 outputs under the Gaussian kernel: n + m = 600 outputs
        # factor to rank 153 (cap 200), and p = 8 < 153
        data_dir, dataset_cfg = synth_workspace(tmp_path, n=300, m=300)
        resolved = self._fit_resolved(tmp_path, data_dir, dataset_cfg, *self.GAUSS_Y)
        assert "oel.eigensolver = pivoted_cholesky r=153" in resolved

    def test_fingerprint_outputs_record_lanczos(self, tmp_path):
        assert "oel.eigensolver = krylov" in self._fingerprints_resolved(tmp_path)

    def test_p_not_below_rank_records_dense_path(self, tmp_path):
        # linear kernel on the 2-d remark1 outputs: r = 2, so p = 2 takes the
        # dense path (eigh, as n + m = 40 is below the Krylov size)
        data_dir, dataset_cfg = synth_workspace(tmp_path)
        resolved = self._fit_resolved(tmp_path, data_dir, dataset_cfg,
                                      "kernel.y.kind = linear", "oel.p = 2")
        assert "oel.eigensolver = eigh" in resolved

    def test_forced_fallback_records_eigh(self, tmp_path, monkeypatch):
        # a basis capped at no columns leaves the Krylov solver nothing to do
        monkeypatch.setattr(linalg, "KRYLOV_MAX_BASIS_FRACTION", 0.0)
        assert "oel.eigensolver = eigh" in self._fingerprints_resolved(tmp_path)


def _probe(code, *argv):
    """Last stdout line of a fresh interpreter running code with argv."""
    src = Path(cli.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", code, *argv],
                         env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, text=True, check=True).stdout
    return out.strip().splitlines()[-1]


class TestLazyScipy:
    # okr runs on numpy alone: a fresh interpreter runs a list of
    # subcommands and reports after each whether scipy has been loaded
    PROBE = ("import json, sys; from okr import cli; cli._BENCH_SECONDS = 0.0; "
             "print([(argv[0], cli.main(argv), 'scipy' in sys.modules) "
             "for argv in json.loads(sys.argv[1])])")

    def _assert_without_scipy(self, tmp_path, cfg, commands):
        argvs = [[name, "--config", str(cfg[tag]),
                  "--out", str(tmp_path / tag), *extra] for name, tag, extra in commands]
        assert _probe(self.PROBE, json.dumps(argvs)) == str(
            [(name, 0, False) for name, _, _ in commands])

    def test_fit_and_tune_run_without_scipy(self, tmp_path):
        # the dense small-p fingerprint fit takes the Krylov eigensolver
        tune_cfg = _tune_cfg(tmp_path)
        data_dir = tune_cfg.parent
        fp_dir, fp_cfg = fingerprint_workspace(tmp_path, n=750, m=750)
        cfg = {
            "small_synth": write_cfg(tmp_path / "small_synth.cfg", "synth.n = 20",
                                     "synth.m = 5", "synth.n_test = 3"),
            "fit": write_cfg(data_dir / "run.cfg", (data_dir / "dataset.cfg").read_text(),
                             *FIT_KEYS),
            "fit_fp": write_cfg(fp_dir / "run.cfg", fp_cfg, *TestEigensolverRecord.KEYS,
                                "kernel.y.kind = tanimoto", "oel.p = 8"),
            "bench": write_cfg(tmp_path / "bench.cfg", "bench.n = 20", "bench.p = 4",
                               "bench.sizes = 100", "bench.queries = 2", "bench.repeats = 1"),
            "tune": tune_cfg,
        }
        cfg["fit_iokr"] = cfg["fit"]
        self._assert_without_scipy(tmp_path, cfg, [
            ("synth", "small_synth", ()), ("fit", "fit", ()),
            ("fit", "fit_iokr", ("--iokr-only",)), ("fit", "fit_fp", ()),
            ("tune", "tune", ("--share-krr",)), ("bench-decode", "bench", ())])
        assert ("oel.eigensolver = krylov"
                in (tmp_path / "fit_fp" / "config.resolved").read_text().splitlines())

    def test_embedded_predict_and_evaluate_run_without_scipy(self, tmp_path):
        data_dir, dataset_cfg = synth_workspace(tmp_path)
        cfg = {"fit": write_cfg(data_dir / "run.cfg", dataset_cfg, *FIT_KEYS),
               "eval": write_cfg(data_dir / "eval.cfg", dataset_cfg, "kernel.y.kind = linear",
                                 f"evaluate.rankings = {tmp_path / 'pred' / 'rankings.tsv'}")}
        cfg["fit_iokr"] = cfg["fit"]
        for tag, fit in (("pred", "fit"), ("pred_iokr", "fit_iokr")):
            cfg[tag] = write_cfg(data_dir / f"{tag}.cfg", dataset_cfg, "decode.k = 3",
                                 f"model.dir = {tmp_path / fit / 'model'}")
        # the regression-only bundle solves for alpha with numpy alone
        self._assert_without_scipy(tmp_path, cfg, [
            ("fit", "fit", ()), ("fit", "fit_iokr", ("--iokr-only",)),
            ("predict", "pred", ()), ("predict", "pred_iokr", ()),
            ("evaluate", "eval", ())])


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_quickstart():
    """The commands of the README's fenced block that starts with
    `okr synth`, one argv list per line."""
    blocks = re.findall(r"^```[a-z]*\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.M | re.S)
    block = next(b for b in blocks if b.startswith("okr synth"))
    return [shlex.split(line.split("#", 1)[0]) for line in block.splitlines() if line.strip()]


class TestReadme:
    def test_library_block_runs(self):
        # the Python example, executed verbatim; it fits through
        # fit_embedding on the factored path and raises no warning
        blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                            re.M | re.S)
        assert len(blocks) == 1
        namespace = {}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            exec(compile(blocks[0], str(README), "exec"), namespace)
        assert namespace["emb"].eigensolver == "pivoted_cholesky r=3"
        assert namespace["ids"].shape == (10, 5)

    def test_config_keys_pass_the_table(self, tmp_path):
        # the complete fit config, and the keys and values of the tuning
        # paragraph: each key declared, each value accepted by its row
        text = README.read_text(encoding="utf-8")
        block = next(b for b in re.findall(r"^```[a-z]*\n(.*?)^```", text, re.M | re.S)
                     if b.startswith("# dataset"))
        cfg = parse_config_file(write_cfg(tmp_path / "fit.cfg", block))
        assert len(cfg) == 20 and cfg["krr.nystrom_q"] == "1000"
        config.read(cfg, cfg)
        paragraph = text[text.index("Tuning keys:"):].split("\n\n", 1)[0]
        items = [item.partition("=") for item in re.findall(r"`([^`]+)`", paragraph)]
        assert len(items) == 12
        for key, _, values in items:
            for value in values.split("|") if values else ():
                config.read({key.strip(): value.strip()}, [key.strip()])
            assert key.strip() in config.KEYS

    def test_quickstart_block_runs(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        commands = readme_quickstart()
        assert [argv[:2] for argv in commands] == [
            ["okr", "synth"], ["okr", "fit"], ["okr", "predict"], ["okr", "evaluate"],
            ["okr", "tune"]]
        for argv in commands:
            assert cli.main(argv[1:]) == 0, " ".join(argv)


def test_every_export_resolves():
    # the lazy export table names each public name's module; a name the
    # module no longer defines must not stay listed
    for name in okr.__all__:
        assert getattr(okr, name) is not None, name


class TestThreadCap:
    # a fresh interpreter per command, so that --threads sets the BLAS pool
    # before numpy loads; prints the exit code and the BLAS cap in force
    CAP_PROBE = ("import os, sys; from okr import cli; code = cli.main(sys.argv[1:]); "
                 "print(code, os.environ.get('OPENBLAS_NUM_THREADS'))")

    def test_predict_workers_leave_rankings_byte_identical(self, tmp_path):
        # the 46 default candidates fit in one block; the 5000 of the second
        # set split into whole blocks over two workers, and its duplicated
        # candidates tie across the two runs
        data_dir, dataset_cfg = synth_workspace(tmp_path)
        run_cfg = write_cfg(data_dir / "run.cfg", dataset_cfg, *FIT_KEYS)
        rng = np.random.default_rng(11)
        many = rng.standard_normal((5000, 2))
        many[3000:3100] = many[:100]
        dataio.save_dense(data_dir / "many.csv", many)
        for bundle, extra in (("fit", ()), ("fit_iokr", ("--iokr-only",))):
            assert run("fit", "--config", str(run_cfg), "--out", str(tmp_path / bundle),
                       *extra) == 0
            for cands in ("default", "many"):
                keys = ["data.candidates = many.csv"] if cands == "many" else []
                cfg = write_cfg(data_dir / f"{bundle}_{cands}.cfg", dataset_cfg, *keys,
                                f"model.dir = {tmp_path / bundle / 'model'}", "decode.k = 5")
                rankings = []
                for threads in ("1", "2"):
                    out = tmp_path / f"{bundle}_{cands}_{threads}"
                    assert _probe(self.CAP_PROBE, "predict", "--config", str(cfg), "--out",
                                  str(out), "--threads", threads) == "0 1"
                    rankings.append((out / "rankings.tsv").read_bytes())
                assert rankings[0] == rankings[1], (bundle, cands)
                assert rankings[0].count(b"\n") == 6

    def test_other_commands_cap_blas_at_threads(self, tmp_path):
        cfg = write_cfg(tmp_path / "synth.cfg", "synth.n = 20", "synth.m = 5",
                        "synth.n_test = 3")
        assert _probe(self.CAP_PROBE, "synth", "--config", str(cfg), "--out",
                      str(tmp_path / "s"), "--threads", "2") == "0 2"

    def test_import_leaves_numpy_unloaded(self):
        # --threads caps the BLAS pools through the environment, which only
        # works while numpy (and with it the BLAS library) is not yet loaded
        src = Path(cli.__file__).resolve().parents[1]
        probe = "import okr.cli, sys; print('numpy' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", probe],
                             env=dict(os.environ, PYTHONPATH=str(src)),
                             capture_output=True, text=True, check=True).stdout
        assert out.strip() == "False"
