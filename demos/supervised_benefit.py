"""When does a supervised output embedding beat plain kernel PCA?

The classic construction: scalar inputs x ~ N(0, 1), two-dimensional output
features (x, z) with independent noise z ~ N(0, 4). The top principal
direction of the outputs is the z axis (variance 4 > 1), but z is pure noise
for prediction: the regression targets E[(x, z) | x] = (x, 0) all lie on the
x axis. An unsupervised 1-d embedding therefore throws away everything that
is predictable, while an embedding estimated from the regression outputs
keeps it.

This script sweeps the supervised/unsupervised balance c of the mixed Gram
from 0 (pure kernel PCA of the output pool) to 1 (pure regression subspace)
and reports the test surrogate error E ||P h(x) - psi(y)||^2. Expect roughly
sigma_x^2 + sigma_z^2 = 5 at c = 0 and sigma_z^2 = 4 at c = 1.
"""

import numpy as np

import okr
from okr import dataio, kernels, oel

N_SUP, N_UNSUP, N_TEST = 1000, 1000, 500
LAM = 1e-3

lin = kernels.KernelSpec("linear")
ds = dataio.synth_remark1(N_SUP, N_UNSUP, N_TEST, sigma2_x=1.0, sigma2_z=4.0,
                          seed=0)

K_x = kernels.gram(lin, ds.x)
kappa_test = kernels.gram(lin, ds.x, ds.x_test)
true_norms = kernels.self_norms(lin, ds.y_test)
Y_ref = np.vstack([ds.y_sup, ds.y_unsup])     # the reference outputs of a dense fit
C_true = kernels.gram(lin, Y_ref, ds.y_test)

krr_model = okr.fit_krr(K_x, LAM)
outputs = oel.OutputSet(lin, ds.y_sup, ds.y_unsup)

print(f"n={N_SUP} supervised pairs, m={N_UNSUP} unlabeled outputs, "
      f"{N_TEST} test points, p=1\n")
print("    c   test surrogate error   embedding axis (x, z)")
for c in (0.0, 0.25, 0.5, 0.75, 1.0):
    # the randomized method always takes the dense path
    model = oel.fit_embedding(krr_model, K_x, outputs, 1, c, method="randomized", seed=0)
    z_pred = oel.embed_inputs(model, kappa_test)
    z_true = oel.embed_candidates(model, C_true)
    err = float(np.mean(oel.surrogate_sq_errors(z_pred, z_true, true_norms)))

    # materialize the learned 1-d direction in the explicit feature space:
    # with a linear output kernel it is Y_ref^T R^T
    direction = Y_ref.T @ model.R.T
    direction = direction[:, 0] / np.linalg.norm(direction[:, 0])
    print(f" {c:4.2f}   {err:19.3f}   ({abs(direction[0]):.3f}, "
          f"{abs(direction[1]):.3f})")

print("\nc=0 picks the z axis (high variance, unpredictable): error ~ 5.")
print("c=1 picks the x axis (all the predictable signal):     error ~ 4.")
