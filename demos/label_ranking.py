"""Label ranking through the Kemeny sign embedding.

A ranking of K items is a permutation; embedding it as the K(K-1)/2 vector
of pairwise order signs turns Kendall's tau into an inner product: with the
linear kernel, <phi(s), phi(s')> / (K(K-1)/2) is exactly tau. Regressing
into that space and decoding over a candidate set of observed rankings is
therefore regression directly against the ranking loss.

Synthetic task: item utilities depend linearly on the input, the observed
ranking sorts noisy utilities. Decoding candidates are the training
rankings; we report mean Kendall's tau on held-out inputs.
"""

import numpy as np

import okr
from okr import dataio, kernels, metrics, oel
from okr.decode import decode_iokr, decode_oel

rng = np.random.default_rng(3)
K_items, d_in, n, n_test = 6, 4, 200, 80

W = rng.standard_normal((d_in, K_items))
X = rng.standard_normal((n + n_test, d_in))
utilities = X @ W + 0.5 * rng.standard_normal((n + n_test, K_items))
# rank 1 = most preferred = highest utility
ranks = np.argsort(np.argsort(-utilities, axis=1), axis=1) + 1

X_tr, X_te = X[:n], X[n:]
R_tr, R_te = ranks[:n], ranks[n:]
Phi_tr = dataio.output_features("permutation", R_tr)

in_spec = kernels.KernelSpec("gaussian", sigma2=float(d_in))
out_spec = kernels.KernelSpec("linear")
K_x = kernels.gram(in_spec, X_tr)
kappa = kernels.gram(in_spec, X_tr, X_te)

# candidates: the training rankings; kernel columns and self-norms once
C_s = kernels.gram(out_spec, Phi_tr, Phi_tr)
cand_norms = kernels.self_norms(out_spec, Phi_tr)

lam = 1e-3
krr_model = okr.fit_krr(K_x, lam)
A_test = okr.predict_alpha(krr_model, kappa)


def mean_tau(rankings):
    ids, _ = rankings
    preds = R_tr[ids[:, 0]]
    return float(np.mean([metrics.kendall_tau(t, p)
                          for t, p in zip(R_te, preds)]))


tau_full = mean_tau(decode_iokr(A_test, C_s, cand_norms, k=1))
print(f"{n} training rankings over {K_items} items, {n_test} test inputs")
print(f"full-dimensional decoding: mean Kendall tau = {tau_full:.3f}")

# the output factor and A F_s are computed once and shared by every p
outputs, products = oel.OutputSet(out_spec, Phi_tr), {}
for p in (3, 6, 12):
    model = oel.fit_embedding(krr_model, K_x, outputs, p, products=products)
    C_ref = kernels.gram(out_spec, model.reference_outputs(Phi_tr), Phi_tr)
    rankings = decode_oel(oel.embed_inputs(model, kappa),
                          oel.embed_candidates(model, C_ref),
                          cand_norms, k=1)
    print(f"embedded decoding, p={p:>2}:  mean Kendall tau = "
          f"{mean_tau(rankings):.3f}")

print("\nA handful of embedding dimensions already matches the full decoder:")
print("the Kemeny features of structured rankings are very low rank.")
