"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured margin (run with -s or -rA to see them)."""

import itertools
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

import okr
from okr import cli, dataio, kernels, linalg, metrics, oel, tuning
from okr.decode import decode_iokr, decode_oel

from _oracles import (align_columns, brute_force_decode, build_explicit,
                      kpca_scores, random_psd, second_moment_eigs)


def ok(criterion, detail):
    print(f"[acceptance] criterion {criterion}: PASS - {detail}")


def test_criterion_1_orthonormality_and_idempotence():
    """50 random problems (n<=100, m<=100): beta' K beta = I within 1e-8 and
    P^2 = P within 1e-8 in the explicit linear-kernel oracle; < 30 s."""
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst_cert, worst_idem = 0.0, 0.0
    for trial in range(50):
        n = int(rng.integers(10, 101))
        m = int(rng.integers(0, 101))
        c = 1.0 if m == 0 else float(rng.uniform(0.0, 1.0))
        d_out = int(rng.integers(4, 20))
        p = int(rng.integers(1, min(d_out, 8) + 1))
        lam = float(10.0 ** rng.uniform(-5, -1))

        K_x = random_psd(rng, n)
        Y = rng.standard_normal((n, d_out))
        Yu = rng.standard_normal((m, d_out)) if m else None
        krr_model = okr.fit_krr(K_x, lam)
        A = okr.predict_alpha(krr_model, K_x)
        mixed = oel.assemble_mixed_gram(
            A, Y @ Y.T, K_y_su=None if m == 0 else Y @ Yu.T,
            K_y_uu=None if m == 0 else Yu @ Yu.T, c=c)
        model = oel.fit_oel(mixed, p)

        cert = model.beta.T @ mixed.K @ model.beta - np.eye(model.p)
        worst_cert = max(worst_cert, float(np.max(np.abs(cert))))

        parts = [model.scale_sup * (Y.T @ A)]
        if m:
            parts.append(model.scale_unsup * Yu.T)
        V = np.hstack(parts)
        basis = V @ model.beta
        P = basis @ basis.T
        worst_idem = max(worst_idem, float(np.linalg.norm(P @ P - P)))
    elapsed = time.perf_counter() - start
    assert worst_cert <= 1e-8
    assert worst_idem <= 1e-8
    assert elapsed < 30.0
    ok(1, f"max |beta'Kbeta - I| = {worst_cert:.2e}, max ||P^2-P||_F = "
          f"{worst_idem:.2e}, {elapsed:.1f} s")


def test_criterion_2_decoder_oracle_equivalence():
    """100 random small instances: the embedded decoder's argmin equals the
    brute-force argmin over explicit feature-space distances, every time."""
    rng = np.random.default_rng(202)
    for trial in range(100):
        n = int(rng.integers(5, 20))
        m = int(rng.integers(0, 15))
        d = int(rng.integers(2, 7))
        c = 1.0 if m == 0 else float(rng.uniform(0.1, 1.0))
        p = int(rng.integers(1, d + 1))
        prob = build_explicit(rng, n=n, m=m, d_out=d,
                              lam=float(10.0 ** rng.uniform(-4, -1)), c=c, p=p)
        model = prob.oel_model
        n_cand = int(rng.integers(2, 51))
        cands = rng.standard_normal((n_cand, d))
        A_test = okr.predict_alpha(prob.krr_model,
                                   prob.K_x[:, rng.integers(0, n, size=4)])
        Z_test = oel.embed_tests(model, A_test)
        Y_ref = model.reference_outputs(prob.Y, prob.Y_unsup)
        Z_cand = oel.embed_candidates(model, Y_ref @ cands.T)
        norms = np.einsum("ij,ij->i", cands, cands)
        got = decode_oel(Z_test, Z_cand, norms, k=1)[0][:, 0]
        expect = brute_force_decode(prob, A_test, cands)
        np.testing.assert_array_equal(got, expect)
    ok(2, "100/100 exact argmin matches vs brute-force explicit distances")


def test_criterion_3_full_rank_reduction_and_kernel_pca():
    """p = rank(K): embedded rankings equal full-dimensional rankings with
    score gap <= 1e-8; c = 0 embeddings equal kernel PCA scores within 1e-8."""
    rng = np.random.default_rng(303)
    worst_gap = 0.0
    for trial in range(15):
        n, m = int(rng.integers(8, 20)), int(rng.integers(3, 12))
        d = int(rng.integers(2, 6))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            prob = build_explicit(rng, n=n, m=m, d_out=d, lam=0.1,
                                  c=float(rng.uniform(0.2, 1.0)), p=n + m)
        model = prob.oel_model
        assert model.p == d
        cands = rng.standard_normal((30, d))
        A_test = okr.predict_alpha(prob.krr_model, prob.K_x[:, :5])
        norms = np.einsum("ij,ij->i", cands, cands)
        C_s = prob.Y @ cands.T
        ids_oel, scores_oel = decode_oel(
            oel.embed_tests(model, A_test),
            oel.embed_candidates(model, model.reference_outputs(prob.Y, prob.Y_unsup) @ cands.T),
            norms, k=30)
        ids_iokr, scores_iokr = decode_iokr(A_test, C_s, norms, k=30)
        np.testing.assert_array_equal(ids_oel, ids_iokr)
        worst_gap = max(worst_gap, float(np.max(np.abs(scores_oel - scores_iokr))))
    assert worst_gap <= 1e-8

    worst_pca = 0.0
    for trial in range(15):
        n, m, d, p = 6, int(rng.integers(8, 25)), 7, int(rng.integers(1, 6))
        prob = build_explicit(rng, n=n, m=m, d_out=d, lam=0.1, c=0.0, p=p)
        K_uu = prob.Y_unsup @ prob.Y_unsup.T
        Z = oel.embed_candidates(prob.oel_model, np.vstack([prob.Y @ prob.Y_unsup.T, K_uu]))
        scores = kpca_scores(K_uu, p)
        worst_pca = max(worst_pca, float(np.max(np.abs(
            align_columns(Z.T, scores) - scores))))
    assert worst_pca <= 1e-8
    ok(3, f"max score gap vs full decoding = {worst_gap:.2e}, "
          f"max kernel-PCA deviation at c=0 = {worst_pca:.2e}")


def test_criterion_4_randomized_vs_exact_eigendecomposition():
    """Polynomially decaying spectra j^-r, r in {2,3}, with the contract's
    spectral-gap condition (ratio <= 0.1 at the truncation point): top-p
    eigenvalue relative error <= 1e-6 at oversample=10, power_iters=2."""
    worst = 0.0
    for r in (2.0, 3.0):
        for dim in (100, 500):
            for p in (5, 10, 20):
                rng = np.random.default_rng(int(404 + r * 10 + dim + p))
                Q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
                vals = np.arange(1, dim + 1, dtype=float) ** (-r)
                vals[p:] *= 0.1     # sigma_{p+1}/sigma_p <= 0.1
                K = (Q * vals) @ Q.T
                K = 0.5 * (K + K.T)
                approx = linalg.eig_topk_randomized(K, p, oversample=10,
                                                    power_iters=2, seed=p)
                exact = linalg.eig_topk_exact(K, p)
                rel = np.max(np.abs(approx.values - exact.values) / exact.values)
                worst = max(worst, float(rel))
    assert worst <= 1e-6
    ok(4, f"max top-p eigenvalue relative error = {worst:.2e}")


def test_criterion_5_nystrom_exactness_and_monotonicity():
    """q = n anchors reproduce exact ridge predictions within 1e-8; the
    approximation error is non-increasing on nested anchor sets (n <= 200)."""
    rng = np.random.default_rng(505)
    n, lam = 200, 0.05
    X = rng.standard_normal((n, 8))
    spec = kernels.KernelSpec("gaussian", sigma2=4.0)
    K = kernels.gram(spec, X)
    Y = rng.standard_normal((n, 3))
    X_te = rng.standard_normal((40, 8))
    kappa = kernels.gram(spec, X, X_te)

    exact = okr.fit_krr(K, lam)
    target = Y.T @ okr.predict_alpha(exact, kappa)

    full = okr.fit_krr_nystrom(K, K, lam, np.arange(n))
    full_pred = Y.T @ okr.predict_alpha(full, kappa)
    gap = float(np.max(np.abs(full_pred - target)))
    assert gap <= 1e-8

    order = rng.permutation(n)
    errors = []
    for q in (20, 60, 120, 200):
        anchors = np.sort(order[:q])
        nys = okr.fit_krr_nystrom(K[:, anchors], K[np.ix_(anchors, anchors)],
                                  lam, anchors)
        pred = Y.T @ okr.predict_alpha(nys, kappa[anchors, :])
        errors.append(float(np.linalg.norm(pred - target)))
    assert all(errors[i] >= errors[i + 1] - 1e-10 for i in range(len(errors) - 1))
    ok(5, f"full-anchor gap = {gap:.2e}; nested errors {['%.3g' % e for e in errors]}")


def test_criterion_6_supervised_benefit_reproduction():
    """The supervised-benefit construction (sigma_x^2=1, sigma_z^2=4,
    n=2000, p=1): the supervised embedding's mean test surrogate error is
    below the unsupervised one on every seed; paired sign test p < 0.01;
    < 2 min."""
    start = time.perf_counter()
    lam, n, m, n_test = 1e-3, 2000, 2000, 400
    lin = kernels.KernelSpec("linear")
    wins, pairs = 0, []
    for seed in range(20):
        ds = dataio.synth_remark1(n, m, n_test, 1.0, 4.0, seed=seed)
        K_x = kernels.gram(lin, ds.x)
        K_y = kernels.gram(lin, ds.y_sup)
        kappa = kernels.gram(lin, ds.x, ds.x_test)
        norms = kernels.self_norms(lin, ds.y_test)
        C_s_true = kernels.gram(lin, ds.y_sup, ds.y_test)
        C_u_true = kernels.gram(lin, ds.y_unsup, ds.y_test)

        krr_sup, sup = okr.fit_oel_with_krr(K_x, K_y, lam=lam, p=1, c=1.0,
                                            method="randomized", seed=seed)
        A_test = okr.predict_alpha(krr_sup, kappa)
        z = oel.embed_tests(sup, A_test)
        z_true = oel.embed_candidates(sup, C_s_true)
        err_sup = float(np.mean(oel.surrogate_sq_errors(z, z_true, norms)))

        _, unsup = okr.fit_oel_with_krr(
            K_x, K_y, lam=lam, p=1, c=0.0,
            K_y_su=kernels.gram(lin, ds.y_sup, ds.y_unsup),
            K_y_uu=kernels.gram(lin, ds.y_unsup),
            method="randomized", seed=seed, krr_model=krr_sup)
        z0 = oel.embed_tests(unsup, A_test)
        z0_true = oel.embed_candidates(unsup, np.vstack([C_s_true, C_u_true]))
        err_unsup = float(np.mean(oel.surrogate_sq_errors(z0, z0_true, norms)))

        pairs.append((err_sup, err_unsup))
        wins += err_sup < err_unsup
    pvalue = scipy.stats.binomtest(wins, 20, 0.5, alternative="greater").pvalue
    elapsed = time.perf_counter() - start
    mean_sup = np.mean([a for a, _ in pairs])
    mean_unsup = np.mean([b for _, b in pairs])
    assert wins == 20
    assert pvalue < 0.01
    assert mean_sup < mean_unsup
    assert elapsed < 120.0
    ok(6, f"supervised {mean_sup:.3f} vs unsupervised {mean_unsup:.3f}, "
          f"{wins}/20 wins, sign-test p = {pvalue:.1e}, {elapsed:.0f} s")


def test_criterion_7_monotone_reconstruction_residual():
    """The training reconstruction objective is non-increasing in p and
    equals both the dropped eigenvalue mass (independent d x d
    eigendecomposition) and the explicit residual, within 1e-8."""
    worst = 0.0
    for trial in range(8):
        residuals = []
        for p in range(1, 7):
            rng = np.random.default_rng(707 + trial)   # same data, growing p
            prob = build_explicit(rng, n=15, m=10, d_out=6, lam=0.1,
                                  c=0.5 if trial % 2 else 1.0, p=p)
            model = prob.oel_model
            mu_all = second_moment_eigs(prob)
            expect = float(np.sum(mu_all[model.p:]))
            explicit = float(np.linalg.norm(prob.V - prob.P @ prob.V) ** 2)
            got = model.reconstruction_residual()
            worst = max(worst, abs(got - expect), abs(explicit - expect))
            residuals.append(got)
        assert all(residuals[i] >= residuals[i + 1] - 1e-12
                   for i in range(len(residuals) - 1))
    assert worst <= 1e-8
    ok(7, f"max residual deviation from dropped eigenvalue mass = {worst:.2e}")


def test_criterion_8_decoding_complexity(tmp_path):
    """Per-query decode cost is linear in the candidate count within 25%
    across N in {1e3, 1e4, 1e5}, and the embedded decoder (p = n/20) beats
    the full-dimensional one per query at n = 2000."""
    out = tmp_path / "bench"
    code = cli.main(["bench-decode", "--out", str(out), "--seed", "1",
                     "--threads", "1"])
    assert code == 0
    lines = (out / "bench.tsv").read_text().strip().splitlines()
    rows = [tuple(float(v) for v in ln.split("\t")) for ln in lines[1:]]
    assert [int(r[0]) for r in rows] == [1000, 10000, 100000]

    devs = {}
    for label, col in (("iokr", 1), ("oel", 2)):
        per_cand = np.array([r[col] / r[0] for r in rows])
        devs[label] = float(np.max(np.abs(per_cand - per_cand.mean()))
                            / per_cand.mean())
        assert devs[label] <= 0.25
    for N, t_iokr, t_oel, _ in rows:
        assert t_oel < t_iokr
    ok(8, f"linearity deviation iokr {devs['iokr']:.1%}, oel {devs['oel']:.1%}; "
          f"embedded faster at every N (speedup {rows[-1][3]:.1f}x at N=1e5)")


def test_criterion_9_metric_identities():
    """Kendall/Kemeny identity exhaustively for K <= 5; the documented F1,
    top-k and squared-loss examples hold exactly."""
    for K in range(2, 6):
        npairs = K * (K - 1) / 2
        for a in itertools.permutations(range(1, K + 1)):
            pa = kernels.kemeny_embed(np.array(a))
            for b in itertools.permutations(range(1, K + 1)):
                pb = kernels.kemeny_embed(np.array(b))
                assert (pa @ pb) / npairs == metrics.kendall_tau(np.array(a),
                                                                 np.array(b))

    assert metrics.f1_example([0, 1, 1], [1, 1, 0]) == 0.5
    assert metrics.f1_example([0, 0], [0, 0]) == 1.0
    assert metrics.rkhs_loss(1.0, 1.0, 1.0) == 0.0
    assert metrics.rkhs_loss(1.0, 1.0, 0.0) == 2.0
    assert metrics.hamming([1, 0, 1, 0], [1, 1, 1, 1]) == 2

    ids = np.tile(np.arange(20), (4, 1))
    acc = metrics.topk_accuracy(ids, [0, 1, 5, 10], ks=[1, 5, 10])
    assert acc == {1: 0.25, 5: 0.5, 10: 0.75}
    ok(9, "Kendall/Kemeny identity exhaustive for K<=5; unit examples exact")


USPS_DIR = Path(__file__).resolve().parent.parent / "data" / "usps"


@pytest.mark.skipif(not USPS_DIR.exists(),
                    reason=f"USPS data not present under {USPS_DIR} "
                           "(see README: place zip.train / zip.test there)")
def test_criterion_10_usps_reproduction():
    """Optional: image-half reconstruction protocol (1000 supervised /
    6000 unsupervised training outputs, all 7000 training halves as decode
    candidates). Tuned embedded loss <= tuned full loss, both within 0.03
    of the reference values 0.725 / 0.751."""
    start = time.perf_counter()
    x_tr, y_tr, x_te, y_te = dataio.load_usps_halves(USPS_DIR)
    x_sup, y_sup = x_tr[:1000], y_tr[:1000]
    y_unsup = y_tr[-6000:]
    candidates = y_tr[:7000]
    out_spec = kernels.KernelSpec("gaussian", sigma2=10.0)

    ds = dataio.Dataset(output_kind="dense", x=x_sup, y_sup=y_sup,
                        y_unsup=y_unsup)
    lam_grid = tuple(float(v) for v in np.logspace(-6, -2, 5))
    sigma_grid = (2.0 ** 5, 2.0 ** 7, 2.0 ** 9)

    iokr_space = tuning.SearchSpace(lams=lam_grid, sigma2_ins=sigma_grid)
    iokr_best = tuning.grid_search_ssv(
        ds, iokr_space, kernels.KernelSpec("gaussian", sigma2=sigma_grid[0]),
        out_spec, metric="surrogate_mse", reps=5, ratio=0.8, seed=0,
        share_krr=True).best

    oel_space = tuning.SearchSpace(lams=lam_grid, sigma2_ins=sigma_grid,
                                   ps=(16, 32, 64, 98, 128),
                                   cs=(0.0, 0.15, 0.5, 1.0))
    oel_best = tuning.grid_search_ssv(
        ds, oel_space, kernels.KernelSpec("gaussian", sigma2=sigma_grid[0]),
        out_spec, metric="surrogate_mse", reps=5, ratio=0.8, seed=0,
        share_krr=True, oel_method="randomized").best

    def final_loss(cfg):
        in_spec = kernels.KernelSpec("gaussian", sigma2=cfg.sigma2_in)
        K_x = kernels.gram(in_spec, x_sup)
        kappa = kernels.gram(in_spec, x_sup, x_te)
        C_s = kernels.gram(out_spec, y_sup, candidates)
        cand_norms = kernels.self_norms(out_spec, candidates)
        krr_model = okr.fit_krr(K_x, cfg.lam)
        A_test = okr.predict_alpha(krr_model, kappa)
        if cfg.p is None:
            ids, _ = decode_iokr(A_test, C_s, cand_norms, k=1)
        else:
            K_y = kernels.gram(out_spec, y_sup)
            K_su = kernels.gram(out_spec, y_sup, y_unsup)
            K_uu = kernels.gram(out_spec, y_unsup)
            _, model = okr.fit_oel_with_krr(K_x, K_y, lam=cfg.lam, p=cfg.p,
                                            c=cfg.c, K_y_su=K_su, K_y_uu=K_uu,
                                            method="randomized", seed=0,
                                            krr_model=krr_model)
            C_u = kernels.gram(out_spec, y_unsup, candidates)
            ids, _ = decode_oel(oel.embed_tests(model, A_test),
                                oel.embed_candidates(model, np.vstack([C_s, C_u])),
                                cand_norms, k=1)
        pred = candidates[ids[:, 0]]
        k_yp = kernels.pair_values(out_spec, y_te, pred)
        return float(np.mean(metrics.rkhs_loss(np.ones(len(y_te)),
                                               np.ones(len(y_te)), k_yp)))

    loss_iokr = final_loss(iokr_best)
    loss_oel = final_loss(oel_best)
    elapsed = time.perf_counter() - start
    assert loss_oel <= loss_iokr
    assert abs(loss_iokr - 0.751) <= 0.03
    assert abs(loss_oel - 0.725) <= 0.03
    assert elapsed < 1800.0
    ok(10, f"tuned losses: embedded {loss_oel:.3f} <= full {loss_iokr:.3f}, "
           f"{elapsed:.0f} s")


def test_criterion_11_determinism_and_persistence(tmp_path):
    """Identical config + seed give byte-identical ranking files; a model
    bundle save/load round trip reproduces predictions bit-exactly."""
    synth_out = tmp_path / "synth"
    cfg_path = tmp_path / "synth.cfg"
    cfg_path.write_text("synth.n = 40\nsynth.m = 15\nsynth.n_test = 8\n")
    assert cli.main(["synth", "--config", str(cfg_path), "--out",
                     str(synth_out), "--seed", "9"]) == 0
    data_dir = synth_out / "data"
    run_cfg = data_dir / "run.cfg"
    run_cfg.write_text((data_dir / "dataset.cfg").read_text()
                       + "kernel.x.kind = gaussian\nkernel.x.sigma2 = 2.0\n"
                         "kernel.y.kind = linear\nkrr.lambda = 1e-3\n"
                         "oel.p = 2\noel.c = 0.5\ndecode.k = 5\n")
    ranks = []
    for tag in ("a", "b"):
        fit_out = tmp_path / f"fit_{tag}"
        assert cli.main(["fit", "--config", str(run_cfg), "--out", str(fit_out),
                         "--seed", "11"]) == 0
        pred_cfg = data_dir / f"pred_{tag}.cfg"
        pred_cfg.write_text((data_dir / "dataset.cfg").read_text()
                            + f"model.dir = {fit_out / 'model'}\ndecode.k = 5\n")
        pred_out = tmp_path / f"pred_{tag}"
        assert cli.main(["predict", "--config", str(pred_cfg), "--out",
                         str(pred_out), "--seed", "11"]) == 0
        ranks.append((pred_out / "rankings.tsv").read_bytes())
    assert ranks[0] == ranks[1]

    bundle = dataio.load_model(tmp_path / "fit_a" / "model")
    resaved = tmp_path / "resaved"
    dataio.save_model(bundle, resaved)
    reloaded = dataio.load_model(resaved)
    for name, M in bundle.matrices.items():
        assert M.tobytes() == reloaded.matrices[name].tobytes()
    ok(11, "byte-identical rankings across reruns; bit-exact bundle round trip")
