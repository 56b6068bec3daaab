"""Command-line entry point.

Subcommands: fit, predict, evaluate, tune, bench-decode, synth. All runs are
driven by a flat "key = value" config file (--config); the flags --out,
--seed, --threads, --iokr-only (fit, tune), --share-krr (tune) override it.
--threads N caps the BLAS worker pools at N threads, except in predict:
there N is the number of decode worker threads (at most one per CPU the
process may use), and BLAS runs on one thread so the two do not
oversubscribe the cores.
Every run writes the fully resolved configuration to <out>/config.resolved
and appends error details to <out>/run.log. Exit codes: 0 success, 1 usage
error, 2 data error, 3 numerical failure, 4 internal error (any other
exception; its traceback goes to run.log).

Heavy imports happen inside the handlers so that --threads can cap the BLAS
worker pools through the environment before numpy is loaded. scipy loads
only where a factorization, solve or eigendecomposition runs (fit, tune,
predict with a --iokr-only bundle): embedded predict reads the folded
readouts of its bundle with numpy alone, and evaluate uses no scipy either.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import traceback
from pathlib import Path

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3
EXIT_INTERNAL = 4

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS")


class _CliUsage(Exception):
    pass


_thread_limiter = None


def _cap_threads(n: int) -> None:
    """Cap BLAS pools: env vars cover not-yet-loaded libraries, threadpoolctl
    (when installed) also adjusts already-loaded ones."""
    global _thread_limiter
    for var in _THREAD_VARS:
        os.environ[var] = str(n)
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        return
    _thread_limiter = threadpool_limits(limits=n)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _CliUsage(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="okr", description="Structured prediction with output "
                     "kernel regression and learned output embeddings.")
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "fit": "train the regression (and embedding unless --iokr-only), save a model bundle",
        "predict": "load a bundle, decode candidate sets, write a rankings file",
        "evaluate": "score a rankings file against ground truth",
        "tune": "hyperparameter grid search with the configured validation protocol",
        "bench-decode": "time full-dimensional vs embedded decoding on synthetic matrices",
        "synth": "generate the synthetic supervised-benefit dataset to files",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--out", default="okr_out", help="output directory (default: okr_out)")
        p.add_argument("--seed", type=int, default=None, help="root seed (overrides config)")
        p.add_argument("--threads", type=int, default=None,
                       help="decode worker threads, with BLAS on one thread" if name == "predict"
                       else "cap BLAS worker threads (best effort)")
        if name in ("fit", "tune"):
            p.add_argument("--iokr-only", action="store_true",
                           help="skip the learned embedding; full-dimensional decoding")
        if name == "tune":
            p.add_argument("--share-krr", action="store_true",
                           help="reuse ridge solves across grid points with equal (lambda, "
                                "width, q); identical results, less compute")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _CliUsage as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.threads is not None:
        # predict decodes on --threads workers of its own instead
        _cap_threads(1 if args.command == "predict" else max(1, args.threads))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "run.log"

    import numpy as np

    from .config import UsageError
    from .dataio import DataError
    from .linalg import NumericalError

    handlers = {
        "fit": _cmd_fit,
        "predict": _cmd_predict,
        "evaluate": _cmd_evaluate,
        "tune": _cmd_tune,
        "bench-decode": _cmd_bench_decode,
        "synth": _cmd_synth,
    }
    try:
        handlers[args.command](args, out)
        return EXIT_OK
    except (_CliUsage, UsageError) as exc:
        return _report(exc, "usage error", log_path, EXIT_USAGE)
    except DataError as exc:
        return _report(exc, "data error", log_path, EXIT_DATA)
    except (NumericalError, np.linalg.LinAlgError) as exc:
        return _report(exc, "numerical failure", log_path, EXIT_NUMERIC)
    except Exception as exc:
        return _report(exc, "internal error", log_path, EXIT_INTERNAL)


def _report(exc, label, log_path, code) -> int:
    print(f"{label}: {exc}", file=sys.stderr)
    with open(log_path, "a", encoding="utf-8") as fh:
        fh.write(f"--- {label} ---\n")
        traceback.print_exc(file=fh)
    return code


def _load_cfg(args):
    from .config import parse_config_file

    cfg = parse_config_file(args.config) if args.config else {}
    base = Path(args.config).parent if args.config else Path(".")
    return cfg, base


def _root_seed(args, cfg) -> int:
    from .config import get_int

    return args.seed if args.seed is not None else get_int(cfg, "seed", 0)


def _snapshot(cfg, resolved, args, out) -> None:
    from .config import write_snapshot

    merged = dict(cfg)
    merged.update({k: str(v) for k, v in resolved.items()})
    merged["command"] = args.command
    merged["out"] = str(out)
    write_snapshot(merged, out / "config.resolved")


# ---------------------------------------------------------------------------
# fit / predict / evaluate


def _cmd_fit(args, out):
    import numpy as np

    from . import dataio, kernels, krr, oel
    from .config import UsageError, get_float, get_int, get_str, kernel_spec

    cfg, base = _load_cfg(args)
    seed = _root_seed(args, cfg)
    ds = dataio.load_dataset(cfg, base)
    gram_mode = ds.x_format == "gram"
    out_spec = kernel_spec(cfg, "kernel.y")
    lam = get_float(cfg, "krr.lambda", required=True)
    q = get_int(cfg, "krr.nystrom_q")
    resolved = {"seed": seed, "krr.lambda": repr(lam), "iokr_only": args.iokr_only}

    yf = dataio.output_features(ds.output_kind, ds.y_sup)
    manifest = {
        "input.mode": "gram" if gram_mode else "features",
        "output.kind": ds.output_kind,
        "kernel.y.kind": out_spec.kind,
        "root.seed": str(seed),
        "data.fingerprint": dataio.fingerprint(ds.x, yf),
    }
    if out_spec.sigma2 is not None:
        manifest["kernel.y.sigma2"] = repr(out_spec.sigma2)
    extra_mats = {}

    in_spec = None
    if not gram_mode:
        in_spec = kernel_spec(cfg, "kernel.x")
        manifest["kernel.x.kind"] = in_spec.kind
        if in_spec.sigma2 is not None:
            manifest["kernel.x.sigma2"] = repr(in_spec.sigma2)

    # K_cols: the training kernel columns the ridge model was fit on (the
    # n x n Gram, or the n x q anchor columns); kappa_train: the training
    # inputs' kernel columns as predict_alpha takes them
    if q:
        anchor_seed = get_int(cfg, "krr.seed", dataio.named_seed(seed, "anchors"))
        resolved["krr.nystrom_q"] = q
        resolved["krr.seed"] = anchor_seed
        anchors = krr.select_anchors(ds.n, q, anchor_seed)
        if gram_mode:
            K_cols = ds.x[:, anchors]
            K_qq = ds.x[np.ix_(anchors, anchors)]
        else:
            X_anchor = ds.x[anchors]
            K_cols = kernels.gram(in_spec, ds.x, X_anchor)
            K_qq = kernels.gram(in_spec, X_anchor)
            extra_mats["x_anchors"] = X_anchor
        krr_model = krr.fit_krr_nystrom(K_cols, K_qq, lam, anchors)
        kappa_train = K_cols.T
    else:
        K_cols = kappa_train = ds.x if gram_mode else kernels.gram(in_spec, ds.x)
        krr_model = krr.fit_krr(K_cols, lam)
        if not gram_mode:
            extra_mats["x_train"] = ds.x

    oel_model = None
    if args.iokr_only:
        extra_mats["y_train_features"] = yf
    else:
        p = get_int(cfg, "oel.p", required=True)
        c = get_float(cfg, "oel.c", 1.0)
        method = get_str(cfg, "oel.method", "exact")
        if not 1 <= p <= ds.n + ds.m:
            raise UsageError(f"oel.p must be in [1, n + m] = [1, {ds.n + ds.m}], got {p}")
        if not 0.0 <= c <= 1.0:
            raise UsageError(f"oel.c must lie in [0, 1], got {c}")
        if method not in oel.METHODS:
            raise UsageError(f"oel.method must be one of {oel.METHODS}, got {method!r}")
        sketch_seed = get_int(cfg, "oel.seed", dataio.named_seed(seed, "sketch"))
        oversample = get_int(cfg, "oel.oversample", 10)
        power_iters = get_int(cfg, "oel.power_iters", 2)
        if oversample < 0 or power_iters < 0:
            raise UsageError(f"oel.oversample and oel.power_iters must be >= 0, got "
                             f"{oversample} and {power_iters}")
        if method == "randomized" and p + oversample > ds.n + ds.m:
            raise UsageError(f"oel.p + oel.oversample must be <= n + m = {ds.n + ds.m} "
                             f"for the randomized method, got {p + oversample}")
        resolved.update({"oel.p": p, "oel.c": repr(c), "oel.method": method,
                         "oel.seed": sketch_seed, "oel.oversample": oversample,
                         "oel.power_iters": power_iters})
        yfu = dataio.output_features(ds.output_kind, ds.y_unsup) if ds.m else None
        factor = oel.factor_outputs(out_spec, yf, yfu) if method == "exact" else None
        if oel.takes_factored_path(factor, p):
            oel_model = oel.fit_oel_factored(
                factor, krr.train_alpha_times(krr_model, K_cols, factor.F_s), p, c)
        else:
            K_y_su = None if yfu is None else kernels.gram(out_spec, yf, yfu)
            K_y_uu = None if yfu is None else kernels.gram(out_spec, yfu)
            mixed = oel.assemble_mixed_gram(krr.predict_alpha(krr_model, kappa_train),
                                            kernels.gram(out_spec, yf), K_y_su=K_y_su,
                                            K_y_uu=K_y_uu, c=c)
            oel_model = oel.fit_oel(mixed, p, method=method, seed=sketch_seed,
                                    oversample=oversample, power_iters=power_iters)
        extra_mats["y_ref_features"] = oel_model.reference_outputs(yf, yfu)
        resolved["oel.eigensolver"] = oel_model.eigensolver

    bundle = dataio.bundle_from_models(krr_model, oel_model, manifest, extra_mats)
    dataio.save_model(bundle, out / "model")
    _snapshot(cfg, resolved, args, out)
    kind = "regression only" if oel_model is None else f"embedding p={oel_model.p}"
    print(f"fit: n={ds.n} m={ds.m} ({kind}); model bundle in {out / 'model'}")


def _spec_from_manifest(man, prefix):
    from .kernels import KernelSpec

    sigma2 = man.get(f"{prefix}.sigma2")
    return KernelSpec(kind=man[f"{prefix}.kind"],
                      sigma2=None if sigma2 is None else float(sigma2))


def _cmd_predict(args, out):
    from . import dataio, kernels, krr, oel
    from .config import UsageError, get_int, get_str
    from .dataio import DataError

    cfg, base = _load_cfg(args)
    model_dir = get_str(cfg, "model.dir", required=True)
    k = get_int(cfg, "decode.k", 1)
    if k < 1:
        raise UsageError(f"decode.k must be >= 1, got {k}")
    bundle = dataio.load_model(base / model_dir)
    krr_model, oel_model = dataio.models_from_bundle(bundle)
    man = bundle.manifest
    ds = dataio.load_dataset(cfg, base)
    if ds.output_kind != man["output.kind"]:
        raise DataError(f"dataset output kind {ds.output_kind!r} does not match the "
                        f"model's {man['output.kind']!r}")
    if ds.n_test == 0:
        raise DataError("predict needs data.x_test")

    # kappa: the test inputs' kernel columns as the ridge model reads them
    if man["input.mode"] == "gram":
        kappa = ds.x_test
        if kappa.shape[0] != krr_model.n:
            raise DataError(f"{base / cfg['data.x_test']}: test Gram block has "
                            f"{kappa.shape[0]} rows, but the model was fit on "
                            f"{krr_model.n} training points")
        if krr_model.mode == krr.NYSTROM:
            kappa = kappa[krr_model.anchors, :]
    else:
        in_spec = _spec_from_manifest(man, "kernel.x")
        ref = (bundle.matrices["x_train"] if krr_model.mode == krr.EXACT
               else bundle.matrices["x_anchors"])
        if ds.x_test.shape[1] != ref.shape[1]:
            raise DataError(f"{base / cfg['data.x_test']}: test inputs have "
                            f"{ds.x_test.shape[1]} features, but the model was fit on "
                            f"{ref.shape[1]}")
        kappa = kernels.gram(in_spec, ref, ds.x_test)

    out_spec = _spec_from_manifest(man, "kernel.y")
    cand_f = dataio.output_features(ds.output_kind, ds.candidate_outputs())
    # the reference outputs: all n training outputs for full-dimensional
    # decoding, the ones the embedding's candidate readout reads otherwise
    Y_ref = bundle.matrices["y_train_features" if oel_model is None else "y_ref_features"]
    if cand_f.shape[1] != Y_ref.shape[1]:
        key = "data.candidates" if "data.candidates" in cfg else "data.y"
        raise DataError(f"{base / cfg[key]}: candidate outputs have {cand_f.shape[1]} "
                        f"features, but the model's outputs have {Y_ref.shape[1]}")
    cand_norms = kernels.self_norms(out_spec, cand_f)
    from .decode import CandidateBlocks, decode_iokr, decode_oel

    # the decoder asks for the candidates' kernel columns a block at a time,
    # so the whole candidate Gram never exists; with --threads N it asks from
    # N worker threads at once
    workers = args.threads or 1

    def cand_gram(start, stop):
        return kernels.gram(out_spec, Y_ref, cand_f[start:stop])

    if oel_model is None:
        cands = CandidateBlocks((len(Y_ref), len(cand_f)), cand_gram)
        ids, scores = decode_iokr(krr.predict_alpha(krr_model, kappa), cands, cand_norms,
                                  k=k, query_cands=ds.candidate_map, workers=workers)
    else:
        cands = CandidateBlocks((oel_model.p, len(cand_f)), lambda start, stop: (
            oel.embed_candidates(oel_model, cand_gram(start, stop))))
        ids, scores = decode_oel(oel.embed_inputs(oel_model, kappa), cands, cand_norms,
                                 k=k, query_cands=ds.candidate_map, workers=workers)
    rank_path = out / "rankings.tsv"
    dataio.save_rankings(rank_path, ids, scores)
    _snapshot(cfg, {"decode.k": k, "model.dir": model_dir}, args, out)
    mode = "full-dimensional" if oel_model is None else f"embedded (p={oel_model.p})"
    print(f"predict: {len(ids)} queries, {mode} decoding; rankings in {rank_path}")


def _cmd_evaluate(args, out):
    import warnings

    import numpy as np

    from . import dataio, kernels, metrics
    from .config import UsageError, get_int_list, get_str, kernel_spec
    from .dataio import DataError

    cfg, base = _load_cfg(args)
    rank_rel = get_str(cfg, "evaluate.rankings", required=True)
    ks = get_int_list(cfg, "evaluate.topk", (1, 5, 10))
    if any(k < 1 for k in ks):
        raise UsageError(f"evaluate.topk values must be >= 1, got {','.join(map(str, ks))}")
    ds = dataio.load_dataset(cfg, base)
    cand = ds.candidate_outputs()
    ids, _ = dataio.load_rankings(base / rank_rel, n_candidates=cand.shape[0])
    if ds.y_test is None:
        raise DataError("evaluate needs data.y_test ground truth")
    if len(ids) != ds.y_test.shape[0]:
        raise DataError(f"{len(ids)} rankings but {ds.y_test.shape[0]} truth rows")
    out_spec = kernel_spec(cfg, "kernel.y")

    cand_f = dataio.output_features(ds.output_kind, cand)
    true_f = dataio.output_features(ds.output_kind, ds.y_test)
    pred_idx = ids[:, 0]
    pred_f = cand_f[pred_idx]

    reports = []
    k_yy = kernels.self_norms(out_spec, true_f)
    k_pp = kernels.self_norms(out_spec, pred_f)
    k_yp = kernels.pair_values(out_spec, true_f, pred_f)
    reports.append(metrics.report_from_values(
        "rkhs_loss", metrics.rkhs_loss(k_yy, k_pp, k_yp)))
    if ds.output_kind == dataio.BITSET:
        f1s = [metrics.f1_example(t, p) for t, p in zip(ds.y_test, cand[pred_idx])]
        reports.append(metrics.report_from_values("f1", f1s))
        hams = [metrics.hamming(t, p) for t, p in zip(ds.y_test, cand[pred_idx])]
        reports.append(metrics.report_from_values("hamming", hams))
    elif ds.output_kind == dataio.PERMUTATION:
        taus = [metrics.kendall_tau(t, p) for t, p in zip(ds.y_test, cand[pred_idx])]
        reports.append(metrics.report_from_values("kendall_tau", taus))
    if ds.truth_index is not None:
        outside = sum(not 0 <= t < cand.shape[0]
                      or (ds.candidate_map is not None and t not in ds.candidate_map[j])
                      for j, t in enumerate(ds.truth_index))
        if outside:
            warnings.warn(f"{outside} of {len(ids)} queries have a true candidate "
                          "outside their candidate set; counted as misses", stacklevel=2)
        ranks = metrics.truth_ranks(ids, ds.truth_index)
        for k in ks:
            reports.append(metrics.report_from_values(f"top{k}_accuracy",
                                                      (ranks <= k).astype(np.float64)))

    table_path = out / "metrics.tsv"
    with open(table_path, "w", encoding="utf-8") as fh:
        fh.write("metric\testimate\tstd_error\treps\n")
        for rep in reports:
            se = "" if rep.std_error is None else repr(rep.std_error)
            fh.write(f"{rep.name}\t{rep.estimate!r}\t{se}\t{rep.reps}\n")
    _snapshot(cfg, {"evaluate.rankings": rank_rel}, args, out)
    width = max(len(r.name) for r in reports)
    for rep in reports:
        se = "" if rep.std_error is None else f" +- {rep.std_error:.4f}"
        print(f"{rep.name:<{width}}  {rep.estimate:.4f}{se}  ({rep.reps} queries)")


# ---------------------------------------------------------------------------
# tune / bench / synth


def _cmd_tune(args, out):
    from . import dataio, tuning
    from .config import (UsageError, get_float, get_float_list, get_int,
                         get_int_list, get_str, kernel_spec)

    cfg, base = _load_cfg(args)
    seed = _root_seed(args, cfg)
    ds = dataio.load_dataset(cfg, base)
    out_spec = kernel_spec(cfg, "kernel.y")
    in_spec = None if ds.x_format == "gram" else kernel_spec(cfg, "kernel.x")
    metric = get_str(cfg, "tune.metric", "surrogate_mse")
    protocol = get_str(cfg, "tune.protocol", "ssv")

    defaults = tuning.default_space(max(1, ds.n + ds.m))
    if args.iokr_only:
        ps, cs = (None,), (None,)
    else:
        ps = get_int_list(cfg, "tune.ps", defaults.ps)
        cs = get_float_list(cfg, "tune.cs", defaults.cs if ds.m else (1.0,))
    space = tuning.SearchSpace(
        lams=get_float_list(cfg, "tune.lams", defaults.lams),
        ps=ps, cs=cs,
        sigma2_ins=get_float_list(cfg, "tune.sigma2_ins", (None,)),
        sigma2_outs=get_float_list(cfg, "tune.sigma2_outs", (None,)),
        qs=get_int_list(cfg, "tune.qs", (None,)))
    resolved = {"seed": seed, "tune.metric": metric, "tune.protocol": protocol,
                "share_krr": args.share_krr}

    if protocol == "ssv":
        reps = get_int(cfg, "tune.reps", 5)
        ratio = get_float(cfg, "tune.ratio", 0.8)
        resolved.update({"tune.reps": reps, "tune.ratio": repr(ratio)})
        result = tuning.grid_search_ssv(ds, space, in_spec, out_spec, metric=metric,
                                        reps=reps, ratio=ratio, seed=seed,
                                        share_krr=args.share_krr)
        result.save_table(out / "tune_table.tsv")
        best = result.best
        best_cfg = {"krr.lambda": repr(float(best.lam))}
        if best.p is not None:
            best_cfg["oel.p"] = str(best.p)
        if best.c is not None:
            best_cfg["oel.c"] = repr(float(best.c))
        if best.sigma2_in is not None:
            best_cfg["kernel.x.sigma2"] = repr(float(best.sigma2_in))
        if best.sigma2_out is not None:
            best_cfg["kernel.y.sigma2"] = repr(float(best.sigma2_out))
        if best.q is not None:
            best_cfg["krr.nystrom_q"] = str(best.q)
        from .config import write_snapshot

        write_snapshot(best_cfg, out / "best.cfg")
        _snapshot(cfg, resolved, args, out)
        print(f"tune: {len(space.configs())} grid points x {reps} reps; "
              f"best {metric} = {result.best_score:.6g} at {best}")
        print(f"table in {out / 'tune_table.tsv'}, best config in {out / 'best.cfg'}")
    elif protocol == "nested":
        outer = get_int(cfg, "tune.outer", 5)
        inner = get_int(cfg, "tune.inner", 4)
        resolved.update({"tune.outer": outer, "tune.inner": inner})
        result = tuning.nested_cv(ds, space, in_spec, out_spec, metric=metric,
                                  outer=outer, inner=inner, seed=seed,
                                  share_krr=args.share_krr)
        result.save_table(out / "tune_table.tsv")
        _snapshot(cfg, resolved, args, out)
        print(f"tune (nested {outer}x{inner}): {result.report}")
        print(f"per-fold table in {out / 'tune_table.tsv'}")
    else:
        raise UsageError(f"tune.protocol must be 'ssv' or 'nested', got {protocol!r}")


def _cmd_bench_decode(args, out):
    import numpy as np

    from .config import get_int, get_int_list
    from .decode import decode_iokr, decode_oel

    cfg, _ = _load_cfg(args)
    seed = _root_seed(args, cfg)
    n = get_int(cfg, "bench.n", 2000)
    p = get_int(cfg, "bench.p", 100)
    sizes = get_int_list(cfg, "bench.sizes", (1000, 10000, 100000))
    queries = get_int(cfg, "bench.queries", 64)
    repeats = get_int(cfg, "bench.repeats", 9)
    k = get_int(cfg, "bench.k", 10)
    rng = np.random.default_rng(seed)
    A_test = rng.standard_normal((n, queries))
    Z_test = rng.standard_normal((p, queries))

    # let the clock governor settle before measuring anything: fresh
    # processes otherwise charge their ramp-up to the first grid point
    burn = rng.standard_normal((800, 800))
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 1.5:
        burn @ burn

    def time_decode(fn, E_test, E_cand, norms):
        fn(E_test, E_cand, norms, k=k)      # warm-up, untimed
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn(E_test, E_cand, norms, k=k)
            times.append(time.perf_counter() - t0)
        times.sort()
        return times[len(times) // 2] / queries

    rows = []
    for N in sizes:
        C_s = rng.standard_normal((n, N))
        Z_cand = rng.standard_normal((p, N))
        norms = rng.uniform(0.5, 1.5, size=N)
        t_iokr = time_decode(decode_iokr, A_test, C_s, norms)
        t_oel = time_decode(decode_oel, Z_test, Z_cand, norms)
        rows.append((N, t_iokr, t_oel))
        del C_s, Z_cand

    table_path = out / "bench.tsv"
    with open(table_path, "w", encoding="utf-8") as fh:
        fh.write("N\tiokr_ms_per_query\toel_ms_per_query\tspeedup\n")
        for N, t_iokr, t_oel in rows:
            fh.write(f"{N}\t{t_iokr * 1e3!r}\t{t_oel * 1e3!r}\t{t_iokr / t_oel!r}\n")
    _snapshot(cfg, {"seed": seed, "bench.n": n, "bench.p": p,
                    "bench.sizes": ",".join(map(str, sizes)),
                    "bench.queries": queries, "bench.repeats": repeats,
                    "bench.k": k}, args, out)
    print(f"bench-decode: n={n} p={p} k={k} ({queries} queries, best of {repeats})")
    print("      N   full-dim ms/query   embedded ms/query   speedup")
    for N, t_iokr, t_oel in rows:
        print(f"{N:>7}   {t_iokr * 1e3:>17.3f}   {t_oel * 1e3:>17.3f}   "
              f"{t_iokr / t_oel:>6.1f}x")
    per_cand = [(t_i / N, t_o / N) for N, t_i, t_o in rows]
    for label, col in (("full-dimensional", 0), ("embedded", 1)):
        vals = np.array([pc[col] for pc in per_cand])
        dev = float(np.max(np.abs(vals - vals.mean())) / vals.mean())
        print(f"per-candidate cost deviation from linear ({label}): {dev:.1%}")


# the configs synth writes beside dataset.cfg, for the README quick start:
# paths resolve against the data directory, and predict and evaluate expect
# fit to write into <out>/fit and predict into <out>/pred
_SYNTH_KERNELS = {"kernel.x.kind": "gaussian", "kernel.x.sigma2": "1.0",
                  "kernel.y.kind": "gaussian", "kernel.y.sigma2": "4.0"}
_SYNTH_CONFIGS = {
    "run.cfg": {"krr.lambda": "1e-4", "oel.p": "32", "oel.c": "0.5"},
    "pred.cfg": {"model.dir": "../fit/model", "decode.k": "10"},
    "eval.cfg": {"evaluate.rankings": "../pred/rankings.tsv", "evaluate.topk": "1,10"},
    "tune.cfg": {"tune.protocol": "ssv", "tune.metric": "surrogate_mse", "tune.reps": "2",
                 "tune.lams": "1e-5,1e-4,1e-3", "tune.ps": "8,32", "tune.cs": "0.5"},
}


def _cmd_synth(args, out):
    from . import dataio
    from .config import get_float, get_int, parse_config_file, write_snapshot

    cfg, _ = _load_cfg(args)
    seed = _root_seed(args, cfg)
    n = get_int(cfg, "synth.n", 2000)
    m = get_int(cfg, "synth.m", 2000)
    n_test = get_int(cfg, "synth.n_test", 500)
    s2x = get_float(cfg, "synth.sigma2_x", 1.0)
    s2z = get_float(cfg, "synth.sigma2_z", 4.0)
    ds = dataio.synth_remark1(n, m, n_test, s2x, s2z, seed=seed)
    cfg_path = dataio.save_dataset(ds, out / "data")
    data_keys = parse_config_file(cfg_path)
    for name, keys in _SYNTH_CONFIGS.items():
        write_snapshot({**data_keys, **_SYNTH_KERNELS, **keys}, cfg_path.parent / name)
    _snapshot(cfg, {"seed": seed, "synth.n": n, "synth.m": m, "synth.n_test": n_test,
                    "synth.sigma2_x": repr(s2x), "synth.sigma2_z": repr(s2z)}, args, out)
    print(f"synth: n={n} m={m} n_test={n_test}; dataset config at {cfg_path}, "
          f"with {', '.join(_SYNTH_CONFIGS)} beside it (fit into {out / 'fit'}, "
          f"predict into {out / 'pred'})")


if __name__ == "__main__":
    sys.exit(main())
