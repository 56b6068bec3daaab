"""Independent oracles shared by the unit and acceptance tests.

Everything here recomputes quantities through explicit feature-space linear
algebra (outputs as rows of a plain matrix, linear output kernel), never
through the code paths under test: projections are materialized as d x d
matrices, decoding is brute-force distance minimization, and eigenvalue
mass comes from an eigendecomposition of the d x d scaled second-moment
matrix rather than of the (n+m) x (n+m) Gram. The text loaders' oracles are
plain line loops with one float() or int() per value, the parsers the loaders
had before numpy's C reader took over their common path."""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

import okr
from okr.dataio import DataError


def random_psd(rng, n, dim_factor=2.0):
    """Well-conditioned random PSD matrix (Wishart, dim >= 2n by default)."""
    G = rng.standard_normal((n, max(1, int(np.ceil(n * dim_factor)))))
    K = G @ G.T / G.shape[1]
    return 0.5 * (K + K.T)


@dataclass
class ExplicitProblem:
    """A fitted embedding problem with explicit output features."""

    K_x: np.ndarray
    Y: np.ndarray                  # n x d output features
    Y_unsup: np.ndarray | None     # m x d
    lam: float
    c: float
    krr_model: object
    oel_model: object
    H: np.ndarray                  # d x n, column i = h(x_i) in feature space
    V: np.ndarray                  # d x (n+m), scaled spanning vectors
    basis: np.ndarray              # d x p, feature-space embedding directions
    P: np.ndarray                  # d x d projection onto the learned subspace

    def h_test(self, A_test):
        """Explicit h(x_test) columns from alpha columns."""
        return self.Y.T @ A_test

    def project(self, vecs):
        return self.P @ vecs


def build_explicit(rng, n, m, d_out, lam, c, p, method="exact", seed=0):
    """Fit on random data with a linear output kernel and materialize the
    embedding in feature space."""
    K_x = random_psd(rng, n)
    Y = rng.standard_normal((n, d_out))
    Yu = rng.standard_normal((m, d_out)) if m else None
    # the dense path on purpose: every reference output is an explicit row
    krr_model = okr.fit_krr(K_x, lam)
    A = okr.predict_alpha(krr_model, K_x)
    oel_model = fit_dense(krr_model, A, okr.OutputSet(okr.KernelSpec("linear"), Y, Yu), p, c,
                          method=method, seed=seed)
    H = Y.T @ A
    parts = [oel_model.scale_sup * H]
    if m:
        parts.append(oel_model.scale_unsup * Yu.T)
    V = np.hstack(parts)
    basis = V @ oel_model.beta
    P = basis @ basis.T
    return ExplicitProblem(K_x=K_x, Y=Y, Y_unsup=Yu, lam=lam, c=c,
                           krr_model=krr_model, oel_model=oel_model,
                           H=H, V=V, basis=basis, P=P)


def fit_dense(krr_model, A, outputs, p, c, **kwargs):
    """okr.fit_oel on the training alpha matrix A, with the mixed Gram blocks
    as fit_embedding computes them."""
    blocks = okr.mixed_gram_blocks(A, outputs.K_ss, outputs.K_su) if c > 0.0 else None
    return okr.fit_oel(krr_model, outputs, A, blocks, p, c, **kwargs)


def second_moment_eigs(problem: ExplicitProblem) -> np.ndarray:
    """Descending eigenvalues of the d x d scaled second-moment matrix
    sum_k v_k v_k^T; independent of the library's Gram eigendecomposition."""
    M = problem.V @ problem.V.T
    return np.sort(np.linalg.eigvalsh(0.5 * (M + M.T)))[::-1]


def brute_force_decode(problem: ExplicitProblem, A_test, candidates) -> np.ndarray:
    """argmin over candidate rows of the explicit squared distance
    ||P h(x) - y_c||^2, first index on ties."""
    preds = problem.project(problem.h_test(A_test))      # d x t
    d2 = (np.einsum("ij,ij->j", preds, preds)[:, None]
          + np.einsum("ij,ij->i", candidates, candidates)[None, :]
          - 2.0 * preds.T @ candidates.T)
    return np.argmin(d2, axis=1)


def kpca_scores(K_uu: np.ndarray, p: int) -> np.ndarray:
    """Uncentered kernel PCA scores of the training points from their Gram:
    column l of the result is sqrt(nu_l) * w_l (top-p eigenpairs)."""
    w, W = np.linalg.eigh(0.5 * (K_uu + K_uu.T))
    order = np.argsort(w)[::-1][:p]
    return W[:, order] * np.sqrt(np.maximum(w[order], 0.0))


def align_columns(Z, Z_ref):
    """Flip column signs of Z to match Z_ref (for sign-indeterminate
    comparisons)."""
    signs = np.sign(np.einsum("ij,ij->j", Z, Z_ref))
    signs[signs == 0] = 1.0
    return Z * signs


# ---------------------------------------------------------------------------
# text loaders, one line at a time


def _fail(path, lineno, msg):
    raise DataError(f"{path}:{lineno}: {msg}")


def _lines(path):
    return Path(path).read_text(encoding="utf-8").splitlines()


def load_dense(path):
    """'#rows,cols', then comma-separated float rows; blank lines skipped and
    errors named by the file's own line number."""
    lines = _lines(path)
    if not lines or not lines[0].startswith("#"):
        _fail(path, 1, "expected a '#rows,cols' header line")
    try:
        rows, cols = (int(tok) for tok in lines[0][1:].strip().split(","))
    except ValueError:
        _fail(path, 1, f"malformed dimension header {lines[0]!r}")
    if rows < 0 or cols < 0:
        _fail(path, 1, f"negative dimension in header {lines[0]!r}")
    if not (-2 ** 63 <= rows < 2 ** 63 and -2 ** 63 <= cols < 2 ** 63):
        _fail(path, 1, f"dimension beyond the int64 range in header {lines[0]!r}")
    body = [(no, ln) for no, ln in enumerate(lines[1:], 2) if ln.strip()]
    if len(body) != rows:
        _fail(path, len(lines), f"expected {rows} data rows, found {len(body)}")
    out = np.empty((rows, cols))
    for i, (no, ln) in enumerate(body):
        toks = ln.split(",")
        if len(toks) != cols:
            _fail(path, no, f"expected {cols} values, found {len(toks)}")
        try:
            out[i] = [float(tok) for tok in toks]
        except ValueError:
            _fail(path, no, f"non-numeric value in {ln!r}")
    return out


def load_index_vector(path):
    """One integer per non-blank line."""
    vals = []
    for i, ln in enumerate(_lines(path)):
        if not ln.strip():
            continue
        try:
            value = int(ln.strip())
        except ValueError:
            _fail(path, i + 1, f"expected one integer, got {ln!r}")
        if not -2 ** 63 <= value < 2 ** 63:
            _fail(path, i + 1, f"integer {value} outside the int64 range")
        vals.append(value)
    if not vals:
        _fail(path, 1, "empty index file")
    return np.array(vals, dtype=np.int64)


def load_rankings(path, n_candidates=None):
    """(ids, scores) of 'qid<TAB>cid:score...' lines, padded with id -1 and
    score NaN past the end of a shorter line."""
    rows = []
    for i, ln in enumerate(_lines(path)):
        if not ln.strip():
            continue
        toks = ln.split("\t")
        try:
            qid = int(toks[0])
            pairs = [tok.split(":", 1) for tok in toks[1:]]
            cids = [int(c) for c, _ in pairs]
            scores = [float(s) for _, s in pairs]
        except ValueError:
            _fail(path, i + 1, f"malformed ranking line {ln!r}")
        if qid != len(rows):
            how = "repeated" if 0 <= qid < len(rows) else "out of order"
            _fail(path, i + 1, f"query id {qid} {how}; expected {len(rows)}")
        if n_candidates is not None:
            if not cids:
                _fail(path, i + 1, f"query {qid} ranks no candidate")
            bad = [c for c in cids if not 0 <= c < n_candidates]
            if bad:
                _fail(path, i + 1, f"candidate id {bad[0]} outside [0, {n_candidates})")
        else:
            bad = [c for c in cids if not -2 ** 63 <= c < 2 ** 63]
            if bad:
                _fail(path, i + 1, f"candidate id {bad[0]} outside the int64 range")
        rows.append((cids, scores))
    width = max((len(cids) for cids, _ in rows), default=0)
    ids = np.full((len(rows), width), -1, dtype=np.int64)
    vals = np.full(ids.shape, np.nan)
    for j, (cids, scores) in enumerate(rows):
        ids[j, :len(cids)], vals[j, :len(cids)] = cids, scores
    return ids, vals
