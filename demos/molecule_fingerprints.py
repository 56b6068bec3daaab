"""Fingerprint identification with per-query candidate sets.

The molecule-identification shape: outputs are binary fingerprints compared
with a Gaussian-Tanimoto kernel (a Gaussian over the Tanimoto feature-space
distance), every query comes with its own candidate list (in the real task,
all structures sharing the query's molecular formula), and the unlabeled
fingerprint pool is much larger than the labeled set. Scored with top-k
accuracy: is the true fingerprint among the k best-ranked candidates?

Everything here is synthetic but keeps those proportions, including the
m >> n unlabeled pool feeding the learned embedding.
"""

import numpy as np

import okr
from okr import kernels, metrics, oel
from okr.decode import decode_iokr, decode_oel

rng = np.random.default_rng(11)
n, m, n_test, n_bits, d_in = 150, 600, 60, 64, 10

# inputs are noisy linear readouts of the fingerprint bits
def sample_fingerprints(count):
    prototypes = rng.random((8, n_bits)) < 0.3
    pick = rng.integers(0, 8, count)
    fp = prototypes[pick] ^ (rng.random((count, n_bits)) < 0.05)
    fp[fp.sum(axis=1) == 0, 0] = True
    return fp.astype(float)

readout = rng.standard_normal((n_bits, d_in))
Y_all = sample_fingerprints(n + n_test)
X_all = Y_all @ readout + 0.5 * rng.standard_normal((n + n_test, d_in))
X, Y = X_all[:n], Y_all[:n]
X_te, Y_te = X_all[n:], Y_all[n:]
Y_pool = sample_fingerprints(m)

# candidate universe: training outputs + pool + the true test fingerprints;
# each query sees its own subset (truth + distractors)
candidates = np.vstack([Y, Y_pool, Y_te])
truth_index = np.arange(n + m, n + m + n_test)
query_cands = [np.sort(np.concatenate([
    [truth_index[j]], rng.choice(n + m, size=120, replace=False)]))
    for j in range(n_test)]

in_spec = kernels.KernelSpec("gaussian", sigma2=float(d_in))
out_spec = kernels.KernelSpec("gaussian_tanimoto", sigma2=1.0)
K_x = kernels.gram(in_spec, X)
K_y = kernels.gram(out_spec, Y)
kappa = kernels.gram(in_spec, X, X_te)
C_s = kernels.gram(out_spec, Y, candidates)
C_u = kernels.gram(out_spec, Y_pool, candidates)
cand_norms = kernels.self_norms(out_spec, candidates)

lam, p, c, ks = 1e-4, 24, 0.75, (1, 5, 10)
krr_model = okr.fit_krr(K_x, lam)
A_test = okr.predict_alpha(krr_model, kappa)

full_ids, _ = decode_iokr(A_test, C_s, cand_norms, k=10, query_cands=query_cands)
acc_full = metrics.topk_accuracy(full_ids, truth_index, ks)

_, model = okr.fit_oel_with_krr(K_x, K_y, lam=lam, p=p, c=c,
                                K_y_su=kernels.gram(out_spec, Y, Y_pool),
                                K_y_uu=kernels.gram(out_spec, Y_pool),
                                krr_model=krr_model)
emb_ids, _ = decode_oel(oel.embed_tests(model, A_test),
                        oel.embed_candidates(model, np.vstack([C_s, C_u])),
                        cand_norms, k=10, query_cands=query_cands)
acc_emb = metrics.topk_accuracy(emb_ids, truth_index, ks)

print(f"{n} labeled fingerprints, {m} unlabeled pool, {n_test} queries, "
      f"~121 candidates each\n")
print("top-k accuracy        " + "".join(f"k={k:<4} " for k in ks))
print("full-dimensional      " + "".join(f"{acc_full[k]:.2f}  " for k in ks))
print(f"embedded p={p}, c={c}  " + "".join(f"{acc_emb[k]:.2f}  " for k in ks))
print("\nThe embedding is estimated mostly from the unlabeled pool here")
print(f"(c={c}), which is what the m >> n regime calls for.")
