"""Hyperparameter search over (lambda, p, c, kernel widths, Nystrom q) with
repeated-subsampling validation or nested cross-validation.

Candidate selection during validation follows the experimental protocol of
the library: candidates are the training-fold outputs plus the unsupervised
pool, and the unsupervised pool never includes validation outputs (no
leakage by construction). A failed fit at a grid point is recorded in the
result table rather than aborting the whole search.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import dataio, kernels, metrics, oel
from .decode import decode_iokr, decode_oel
from .krr import (fit_krr, fit_krr_nystrom, predict_alpha, select_anchors,
                  surrogate_sq_errors as krr_surrogate_sq_errors, train_alpha_times)

LOWER_BETTER = {"surrogate_mse", "rkhs_loss", "hamming"}
HIGHER_BETTER = {"f1", "kendall_tau", "top1_accuracy"}
METRICS = LOWER_BETTER | HIGHER_BETTER


@dataclass(frozen=True)
class TrialConfig:
    """One grid point. p=None / c=None means plain full-dimensional decoding
    (no learned embedding); q=None means exact KRR."""

    lam: float
    p: int | None = None
    c: float | None = None
    sigma2_in: float | None = None
    sigma2_out: float | None = None
    q: int | None = None


@dataclass(frozen=True)
class SearchSpace:
    """Per-parameter grids, expanded as a full cartesian product."""

    lams: tuple
    ps: tuple = (None,)
    cs: tuple = (None,)
    sigma2_ins: tuple = (None,)
    sigma2_outs: tuple = (None,)
    qs: tuple = (None,)

    def __post_init__(self):
        for name in ("lams", "ps", "cs", "sigma2_ins", "sigma2_outs", "qs"):
            if len(getattr(self, name)) == 0:
                raise ValueError(f"grid {name} is empty")
        if any(not 0.0 <= c <= 1.0 for c in self.cs if c is not None):
            raise ValueError("c grid must lie within [0, 1]")

    def configs(self) -> list[TrialConfig]:
        prod = itertools.product(self.lams, self.ps, self.cs, self.sigma2_ins,
                                 self.sigma2_outs, self.qs)
        return [TrialConfig(*combo) for combo in prod]


def default_space(max_p: int) -> SearchSpace:
    """Log grids for lambda and p (powers of two capped at max_p), linear
    grid for the balance c."""
    ps = []
    p = 1
    while p <= max_p:
        ps.append(p)
        p *= 2
    return SearchSpace(lams=tuple(float(v) for v in np.logspace(-7.0, 0.0, 8)),
                       ps=tuple(ps),
                       cs=(0.0, 0.25, 0.5, 0.75, 1.0))


@dataclass(frozen=True)
class TrialResult:
    config: TrialConfig
    rep: int
    score: float | None
    error: str | None = None


@dataclass
class SearchResult:
    metric: str
    rows: list
    summary: list          # (config, mean, std_error, ok_count)
    best: TrialConfig
    best_score: float

    def table_lines(self):
        yield ("lam\tp\tc\tsigma2_in\tsigma2_out\tq\trep\tscore\terror")
        for r in self.rows:
            cfg = r.config
            score = "nan" if r.score is None else repr(r.score)
            yield "\t".join([repr(float(cfg.lam)), str(cfg.p), str(cfg.c), str(cfg.sigma2_in),
                             str(cfg.sigma2_out), str(cfg.q), str(r.rep), score,
                             r.error or ""])

    def save_table(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for line in self.table_lines():
                fh.write(line + "\n")


def _with_sigma2(spec: kernels.KernelSpec, sigma2):
    if sigma2 is None:
        return spec
    if spec.kind not in (kernels.GAUSSIAN, kernels.GAUSSIAN_TANIMOTO):
        raise ValueError(f"width grid given but kernel kind {spec.kind!r} has no sigma2")
    return replace(spec, sigma2=sigma2)


class _Ridge:
    """One ridge fit of a fold: the model, the training kernel columns it
    reads (krr.train_alpha_times) and the validation alpha columns. The n x n
    training alpha matrix is formed only if the dense embedding path asks."""

    def __init__(self, model, K_cols, kappa_train, A_val):
        self.model = model
        self.K_cols = K_cols
        self.kappa_train = kappa_train
        self.A_val = A_val

    @cached_property
    def A_train(self) -> np.ndarray:
        return predict_alpha(self.model, self.kappa_train)


class _FoldCache:
    """Grams, output factors and (optionally) KRR fits shared across the grid
    points of one train/validation split. The output factor depends only on
    the fold and the output width, so it is always shared. Sharing the ridge
    solve and its products across (p, c) points is the --share-krr
    optimization: results are identical, they are just not recomputed."""

    def __init__(self, ds: dataio.Dataset, train_idx, val_idx,
                 in_spec, out_spec, share_krr: bool, seed: int):
        self.ds = ds
        self.train_idx = np.asarray(train_idx)
        self.val_idx = np.asarray(val_idx)
        self.in_spec = in_spec
        self.out_spec = out_spec
        self.share_krr = share_krr
        self.seed = seed
        self._x_cache = {}
        self._y_cache = {}
        self._factor_cache = {}
        self._krr_cache = {}
        self._product_cache = {}
        kind = ds.output_kind
        self._yf_sup = dataio.output_features(kind, ds.y_sup)
        self._yf_unsup = (dataio.output_features(kind, ds.y_unsup)
                          if ds.y_unsup is not None else None)

    def x_grams(self, sigma2_in):
        if sigma2_in not in self._x_cache:
            if self.ds.x_format == "gram":
                if sigma2_in is not None:
                    raise ValueError("cannot re-width a precomputed input Gram")
                K_x = self.ds.x[np.ix_(self.train_idx, self.train_idx)]
                kappa_val = self.ds.x[np.ix_(self.train_idx, self.val_idx)]
            else:
                spec = _with_sigma2(self.in_spec, sigma2_in)
                X_tr = self.ds.x[self.train_idx]
                K_x = kernels.gram(spec, X_tr)
                kappa_val = kernels.gram(spec, X_tr, self.ds.x[self.val_idx])
            self._x_cache[sigma2_in] = (K_x, kappa_val)
        return self._x_cache[sigma2_in]

    def outputs(self, sigma2_out):
        """(output kernel, training-fold outputs, validation outputs)."""
        return (_with_sigma2(self.out_spec, sigma2_out), self._yf_sup[self.train_idx],
                self._yf_sup[self.val_idx])

    def y_grams(self, sigma2_out):
        if sigma2_out not in self._y_cache:
            spec, Y_tr, Y_val = self.outputs(sigma2_out)
            K_y_ss = kernels.gram(spec, Y_tr)
            if self._yf_unsup is not None:
                K_y_su = kernels.gram(spec, Y_tr, self._yf_unsup)
                K_y_uu = kernels.gram(spec, self._yf_unsup)
            else:
                K_y_su = K_y_uu = None
            self._y_cache[sigma2_out] = (spec, Y_tr, Y_val, K_y_ss, K_y_su, K_y_uu)
        return self._y_cache[sigma2_out]

    def output_factor(self, sigma2_out):
        """oel.factor_outputs of the training-fold and pool outputs."""
        if sigma2_out not in self._factor_cache:
            spec, Y_tr, _ = self.outputs(sigma2_out)
            self._factor_cache[sigma2_out] = oel.factor_outputs(spec, Y_tr, self._yf_unsup)
        return self._factor_cache[sigma2_out]

    def krr_fit(self, cfg: TrialConfig) -> _Ridge:
        key = (cfg.lam, cfg.sigma2_in, cfg.q)
        if not self.share_krr:
            return self._fit_krr(cfg)
        if key not in self._krr_cache:
            self._krr_cache[key] = self._fit_krr(cfg)
        return self._krr_cache[key]

    def _shared(self, cfg: TrialConfig, what: str, compute):
        """compute(), kept per (lambda, widths, q) when share_krr is on."""
        if not self.share_krr:
            return compute()
        key = (what, cfg.lam, cfg.sigma2_in, cfg.q, cfg.sigma2_out)
        if key not in self._product_cache:
            self._product_cache[key] = compute()
        return self._product_cache[key]

    def alpha_factor(self, cfg: TrialConfig, ridge: _Ridge, factor):
        """A F_s for the factored embedding."""
        return self._shared(cfg, "A F_s", lambda: train_alpha_times(
            ridge.model, ridge.K_cols, factor.F_s))

    def mixed_blocks(self, cfg: TrialConfig, A_train, K_y_ss, K_y_su):
        """K_h / K_hy products for the dense embedding."""
        return self._shared(cfg, "blocks",
                            lambda: oel.mixed_gram_blocks(A_train, K_y_ss, K_y_su))

    def _fit_krr(self, cfg: TrialConfig) -> _Ridge:
        K_x, kappa_val = self.x_grams(cfg.sigma2_in)
        n_tr = K_x.shape[0]
        if cfg.q is None:
            model = fit_krr(K_x, cfg.lam)
            return _Ridge(model, K_x, K_x, predict_alpha(model, kappa_val))
        anchors = select_anchors(n_tr, cfg.q, dataio.named_seed(self.seed, "anchors"))
        K_cols = K_x[:, anchors]
        model = fit_krr_nystrom(K_cols, K_x[np.ix_(anchors, anchors)], cfg.lam, anchors)
        return _Ridge(model, K_cols, K_x[anchors, :],
                      predict_alpha(model, kappa_val[anchors, :]))


def _fit_embedding(cache: _FoldCache, cfg: TrialConfig, ridge: _Ridge,
                   oel_method: str, oel_seed: int) -> oel.OelModel:
    c = 1.0 if cfg.c is None else cfg.c
    factor = cache.output_factor(cfg.sigma2_out) if oel_method == "exact" else None
    if oel.takes_factored_path(factor, cfg.p):
        return oel.fit_oel_factored(factor, cache.alpha_factor(cfg, ridge, factor),
                                    cfg.p, c)
    _, _, _, K_y_ss, K_y_su, K_y_uu = cache.y_grams(cfg.sigma2_out)
    blocks = (cache.mixed_blocks(cfg, ridge.A_train, K_y_ss, K_y_su)
              if c > 0.0 else None)
    mixed = oel.assemble_mixed_gram(ridge.A_train, K_y_ss, K_y_su=K_y_su,
                                    K_y_uu=K_y_uu, c=c, blocks=blocks)
    return oel.fit_oel(mixed, cfg.p, method=oel_method, seed=oel_seed)


def _evaluate_config(cache: _FoldCache, cfg: TrialConfig, metric: str,
                     oel_method: str, oel_seed: int) -> float:
    ds = cache.ds
    out_spec, Y_tr, Y_val = cache.outputs(cfg.sigma2_out)
    ridge = cache.krr_fit(cfg)

    use_oel = cfg.p is not None
    if use_oel:
        model = _fit_embedding(cache, cfg, ridge, oel_method, oel_seed)
        Y_ref = model.reference_outputs(Y_tr, cache._yf_unsup)

    if metric == "surrogate_mse":
        self_norms_val = kernels.self_norms(out_spec, Y_val)
        if use_oel:
            Z_val = oel.embed_tests(model, ridge.A_val)
            Z_true = oel.embed_candidates(model, kernels.gram(out_spec, Y_ref, Y_val))
            errs = oel.surrogate_sq_errors(Z_val, Z_true, self_norms_val)
        else:
            K_y_ss = cache.y_grams(cfg.sigma2_out)[3]
            C_true = kernels.gram(out_spec, Y_tr, Y_val)
            errs = krr_surrogate_sq_errors(ridge.A_val, K_y_ss, C_true, self_norms_val)
        return float(np.mean(errs))

    # decoded metrics: candidates are the training-fold outputs plus the
    # unsupervised pool
    cand = (np.vstack([Y_tr, cache._yf_unsup]) if cache._yf_unsup is not None
            else Y_tr)
    cand_norms = kernels.self_norms(out_spec, cand)
    if use_oel:
        ids, _ = decode_oel(oel.embed_tests(model, ridge.A_val),
                            oel.embed_candidates(model, kernels.gram(out_spec, Y_ref, cand)),
                            cand_norms, k=1)
    else:
        ids, _ = decode_iokr(ridge.A_val, kernels.gram(out_spec, Y_tr, cand),
                             cand_norms, k=1)
    pred_idx = ids[:, 0]
    pred = cand[pred_idx]

    if metric == "rkhs_loss":
        k_yy = kernels.self_norms(out_spec, Y_val)
        k_pp = cand_norms[pred_idx]
        k_yp = kernels.pair_values(out_spec, Y_val, pred)
        return float(np.mean(metrics.rkhs_loss(k_yy, k_pp, k_yp)))
    if metric == "f1":
        return metrics.f1_example_mean(Y_val, pred)
    if metric == "hamming":
        return float(np.mean([metrics.hamming(t, p) for t, p in zip(Y_val, pred)]))
    if metric == "kendall_tau":
        truth_ranks = ds.y_sup[cache.val_idx]
        cand_ranks = (np.vstack([ds.y_sup[cache.train_idx], ds.y_unsup])
                      if ds.y_unsup is not None else ds.y_sup[cache.train_idx])
        return float(np.mean([metrics.kendall_tau(t, cand_ranks[i])
                              for t, i in zip(truth_ranks, pred_idx)]))
    if metric == "top1_accuracy":
        # only meaningful when validation outputs sit in the candidate set;
        # with train-fold candidates this measures exact-output retrieval
        matches = [np.array_equal(t, p) for t, p in zip(Y_val, pred)]
        return float(np.mean(matches))
    raise ValueError(f"unknown metric {metric!r}; expected one of {sorted(METRICS)}")


def _run_grid(ds, configs, splits, in_spec, out_spec, metric, share_krr,
              oel_method, seed):
    rows = []
    for rep, (tr, va) in enumerate(splits):
        cache = _FoldCache(ds, tr, va, in_spec, out_spec, share_krr,
                           dataio.named_seed(seed, f"fold{rep}"))
        for cfg in configs:
            try:
                score = _evaluate_config(cache, cfg, metric, oel_method,
                                         dataio.named_seed(seed, "sketch"))
                rows.append(TrialResult(cfg, rep, score))
            except (ValueError, np.linalg.LinAlgError, RuntimeError) as exc:
                rows.append(TrialResult(cfg, rep, None, error=str(exc)))
    return rows


def _summarize(configs, rows, metric):
    higher = metric in HIGHER_BETTER
    summary = []
    for cfg in configs:
        scores = [r.score for r in rows if r.config == cfg and r.score is not None]
        if scores:
            rep = metrics.report_from_values(metric, scores)
            summary.append((cfg, rep.estimate, rep.std_error, len(scores)))
        else:
            summary.append((cfg, None, None, 0))
    scored = [s for s in summary if s[1] is not None]
    if not scored:
        raise RuntimeError("every grid point failed to fit")

    def sort_key(entry):
        cfg, mean = entry[0], entry[1]
        # ties prefer the smaller p, then the stronger regularization
        return (-mean if higher else mean, cfg.p if cfg.p is not None else 0, -cfg.lam)

    best_cfg, best_mean = min(scored, key=sort_key)[:2]
    return summary, best_cfg, best_mean


def grid_search_ssv(ds: dataio.Dataset, space: SearchSpace,
                    input_kernel: kernels.KernelSpec,
                    output_kernel: kernels.KernelSpec,
                    metric: str = "surrogate_mse", reps: int = 5,
                    ratio: float = 0.8, seed: int = 0, share_krr: bool = False,
                    oel_method: str = "exact") -> SearchResult:
    """Repeated random sub-sampling validation: reps independent
    (ratio, 1-ratio) splits, every grid point scored on each, best mean wins
    (ties toward smaller p, then larger lambda)."""
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {sorted(METRICS)}")
    configs = space.configs()
    splits = dataio.split(ds.n, dataio.RepeatedSubsample(ratio, reps),
                          dataio.named_seed(seed, "splits"))
    rows = _run_grid(ds, configs, splits, input_kernel, output_kernel, metric,
                     share_krr, oel_method, seed)
    summary, best, best_score = _summarize(configs, rows, metric)
    return SearchResult(metric=metric, rows=rows, summary=summary, best=best,
                        best_score=best_score)


@dataclass
class NestedResult:
    metric: str
    fold_configs: list        # best TrialConfig per outer fold
    fold_scores: list         # outer test score per fold
    report: metrics.MetricReport
    inner_rows: list

    def table_lines(self):
        yield "fold\tlam\tp\tc\tsigma2_in\tsigma2_out\tq\tscore"
        for fold, (cfg, score) in enumerate(zip(self.fold_configs, self.fold_scores)):
            yield "\t".join([str(fold), repr(float(cfg.lam)), str(cfg.p), str(cfg.c),
                             str(cfg.sigma2_in), str(cfg.sigma2_out), str(cfg.q),
                             repr(float(score))])

    def save_table(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for line in self.table_lines():
                fh.write(line + "\n")


def nested_cv(ds: dataio.Dataset, space: SearchSpace,
              input_kernel: kernels.KernelSpec, output_kernel: kernels.KernelSpec,
              metric: str = "surrogate_mse", outer: int = 5, inner: int = 4,
              seed: int = 0, share_krr: bool = False,
              oel_method: str = "exact") -> NestedResult:
    """Nested cross-validation: an inner k-fold grid search inside every
    outer training fold, then one evaluation of the selected config on the
    outer test fold; reports mean +- SE over the outer folds."""
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {sorted(METRICS)}")
    configs = space.configs()
    outer_splits = dataio.split(ds.n, dataio.KFold(outer),
                                dataio.named_seed(seed, "outer"))
    fold_configs, fold_scores, all_rows = [], [], []
    for fold, (tr, te) in enumerate(outer_splits):
        inner_seed = dataio.named_seed(seed, f"inner{fold}")
        rel = dataio.split(tr.size, dataio.KFold(inner), inner_seed)
        inner_splits = [(tr[a], tr[b]) for a, b in rel]
        rows = _run_grid(ds, configs, inner_splits, input_kernel, output_kernel,
                         metric, share_krr, oel_method, inner_seed)
        _, best, _ = _summarize(configs, rows, metric)
        cache = _FoldCache(ds, tr, te, input_kernel, output_kernel, share_krr,
                           dataio.named_seed(seed, f"outer{fold}"))
        score = _evaluate_config(cache, best, metric, oel_method,
                                 dataio.named_seed(seed, "sketch"))
        fold_configs.append(best)
        fold_scores.append(score)
        all_rows.extend(TrialResult(r.config, fold * inner + r.rep, r.score, r.error)
                        for r in rows)
    report = metrics.report_from_values(metric, fold_scores)
    return NestedResult(metric=metric, fold_configs=fold_configs,
                        fold_scores=fold_scores, report=report, inner_rows=all_rows)
