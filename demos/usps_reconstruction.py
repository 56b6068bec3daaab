"""Digit-half reconstruction on USPS: predict the bottom 8x16 pixel half of
a handwritten digit from its top half.

Protocol: the first 1000 training digits are the supervised pairs, the last
6000 training bottom halves form the unlabeled output pool, and all 7000
training bottom halves are the decode candidates. Gaussian kernels on both
sides (output width sigma^2 = 10), hyperparameters tuned by 5 repeated
80/20 sub-sampling validation on the surrogate MSE, and the final score is
the Gaussian-kernel loss 2 - 2 k(y, y_hat) on the 2007 test digits.

Data: download zip.train and zip.test (the classic 257-column USPS format,
gzipped is fine) and place them under data/usps/ in the repository root.
Reference results with this protocol: full-dimensional decoding ~0.751,
learned embedding ~0.725 (lower is better).
"""

import sys
import time
from pathlib import Path

import numpy as np

import okr
from okr import dataio, kernels, metrics, oel, tuning
from okr.decode import decode_iokr, decode_oel

DATA_DIR = Path(__file__).resolve().parent.parent / "data" / "usps"

if not DATA_DIR.exists():
    sys.exit(f"USPS data not found: place zip.train / zip.test under {DATA_DIR} "
             "(see module docstring)")

start = time.perf_counter()
x_tr, y_tr, x_te, y_te = dataio.load_usps_halves(DATA_DIR)
x_sup, y_sup = x_tr[:1000], y_tr[:1000]
y_unsup = y_tr[-6000:]
candidates = y_tr[:7000]
out_spec = kernels.KernelSpec("gaussian", sigma2=10.0)
ds = dataio.Dataset(output_kind="dense", x=x_sup, y_sup=y_sup, y_unsup=y_unsup)

lam_grid = tuple(float(v) for v in np.logspace(-6, -2, 5))
sigma_grid = (2.0 ** 5, 2.0 ** 7, 2.0 ** 9)
seed_spec = kernels.KernelSpec("gaussian", sigma2=sigma_grid[0])

print("tuning full-dimensional model (lambda x input width)...")
full_best = tuning.grid_search_ssv(
    ds, tuning.SearchSpace(lams=lam_grid, sigma2_ins=sigma_grid),
    seed_spec, out_spec, metric="surrogate_mse", reps=5, seed=0,
    share_krr=True).best
print(f"  selected lambda={full_best.lam:.1e}, "
      f"sigma2_in={full_best.sigma2_in:.0f}")

print("tuning embedded model (lambda x width x p x c)...")
emb_best = tuning.grid_search_ssv(
    ds, tuning.SearchSpace(lams=lam_grid, sigma2_ins=sigma_grid,
                           ps=(16, 32, 64, 98, 128), cs=(0.0, 0.15, 0.5, 1.0)),
    seed_spec, out_spec, metric="surrogate_mse", reps=5, seed=0,
    share_krr=True, oel_method="randomized").best
print(f"  selected lambda={emb_best.lam:.1e}, sigma2_in={emb_best.sigma2_in:.0f}, "
      f"p={emb_best.p}, c={emb_best.c}")


def test_loss(cfg):
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
        _, model = okr.fit_oel_with_krr(
            K_x, kernels.gram(out_spec, y_sup), lam=cfg.lam, p=cfg.p, c=cfg.c,
            K_y_su=kernels.gram(out_spec, y_sup, y_unsup),
            K_y_uu=kernels.gram(out_spec, y_unsup),
            method="randomized", seed=0, krr_model=krr_model)
        ids, _ = decode_oel(oel.embed_tests(model, A_test),
                            oel.embed_candidates(
                                model, np.vstack([
                                    C_s, kernels.gram(out_spec, y_unsup, candidates)])),
                            cand_norms, k=1)
    pred = candidates[ids[:, 0]]
    k_yp = kernels.pair_values(out_spec, y_te, pred)
    ones = np.ones(len(y_te))
    return metrics.report_from_values("gaussian loss",
                                      metrics.rkhs_loss(ones, ones, k_yp))


print("\nfinal training + test decoding...")
full_report = test_loss(full_best)
emb_report = test_loss(emb_best)
print(f"full-dimensional : {full_report}")
print(f"learned embedding: {emb_report}")
print(f"total time {time.perf_counter() - start:.0f} s")
