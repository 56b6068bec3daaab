"""Command-line entry point.

Subcommands: fit, predict, evaluate, tune, bench-decode, synth. All runs are
driven by a flat "key = value" config file (--config), whose keys config.KEYS
declares and checks before any data loads (bounds that need the data's sizes
after it); the flags --out, --seed, --threads, --iokr-only (fit, tune) and
--share-krr (tune) override the file.
--threads N caps the BLAS worker pools at N threads, except in predict:
there N is the number of decode worker threads (at most one per CPU the
process may use), and BLAS runs on one thread so the two do not
oversubscribe the cores.
Every run writes the fully resolved configuration to <out>/config.resolved
and appends error details to <out>/run.log. Exit codes: 0 success, 1 usage
error, 2 data error, 3 numerical failure, 4 internal error (any other
exception; its traceback goes to run.log).

Heavy imports happen inside the handlers so that --threads can cap the BLAS
worker pools through the environment before numpy is loaded. Every
subcommand runs on numpy alone, with one BLAS library in the process.
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


def _load_cfg(args, *names):
    """The --config file with --seed in it, its directory, and config.read of `names`."""
    from .config import parse_config_file, read

    cfg = parse_config_file(args.config) if args.config else {}
    if args.seed is not None:
        cfg["seed"] = str(args.seed)
    base = Path(args.config).parent if args.config else Path(".")
    return cfg, base, read(cfg, names)


def _snapshot(cfg, values, args, out) -> None:
    """config.resolved: the file's keys, then every value read (a list the file sets
    keeps its text: "1e-5" would reprint as "1e-05"), the flags, command and out."""
    from .config import write_snapshot

    parsed = {key: value for key, value in values.items()
              if value is not None and not (isinstance(value, tuple) and key in cfg)}
    flags = {flag: getattr(args, flag) for flag in ("iokr_only", "share_krr")
             if hasattr(args, flag)}
    write_snapshot({**cfg, **parsed, **flags, "command": args.command, "out": out},
                   out / "config.resolved")


def _check_bounds(rows) -> None:
    """Raise UsageError at the first (key, value or list, bound, name) row past its bound."""
    from .config import UsageError, show

    for key, value, bound, name in rows:
        if value is not None and max(value if isinstance(value, tuple) else (value,)) > bound:
            raise UsageError(f"{key} must be <= {name} = {bound}, got {show(value)}")


# ---------------------------------------------------------------------------
# fit / predict / evaluate


def _cmd_fit(args, out):
    import numpy as np

    from . import dataio, kernels, krr, oel
    from .config import kernel_spec, show

    cfg, base, vals = _load_cfg(args, "seed", "krr.", "kernel.",
                                *(() if args.iokr_only else ("oel.",)))
    seed, lam, q = vals["seed"], vals["krr.lambda"], vals["krr.nystrom_q"]
    out_spec = kernel_spec(vals, "kernel.y")
    ds = dataio.load_dataset(cfg, base)
    p, method = vals.get("oel.p"), vals.get("oel.method")
    sketch = p + vals["oel.oversample"] if method == "randomized" else None
    _check_bounds([("krr.nystrom_q", q, ds.n, "n"), ("oel.p", p, ds.n + ds.m, "n + m"),
                   ("oel.p + oel.oversample", sketch, ds.n + ds.m, "n + m")])
    gram_mode = ds.x_format == "gram"

    in_spec = None if gram_mode else kernel_spec(vals, "kernel.x")
    yf = dataio.output_features(ds.output_kind, ds.y_sup)
    manifest = {
        "input.mode": "gram" if gram_mode else "features",
        "output.kind": ds.output_kind,
        "root.seed": str(seed),
        "data.fingerprint": dataio.fingerprint(ds.x, yf),
    }
    # the kernels the bundle was fit with; predict rebuilds them from here
    manifest.update({key: show(value) for key, value in vals.items() if value is not None
                     and key.startswith("kernel.y." if gram_mode else "kernel.")})
    extra_mats = {}

    # K_cols: the training kernel columns the ridge model is fit on (the
    # n x n Gram, or the n x q anchor columns)
    if q is not None:
        if vals["krr.seed"] is None:
            vals["krr.seed"] = dataio.named_seed(seed, "anchors")
        anchors = krr.select_anchors(ds.n, q, vals["krr.seed"])
        if gram_mode:
            K_cols = ds.x[:, anchors]
            K_qq = ds.x[np.ix_(anchors, anchors)]
        else:
            X_anchor = ds.x[anchors]
            K_cols = kernels.gram(in_spec, ds.x, X_anchor)
            K_qq = kernels.gram(in_spec, X_anchor)
            extra_mats["x_anchors"] = X_anchor
        krr_model = krr.fit_krr_nystrom(K_cols, K_qq, lam, anchors)
    else:
        K_cols = ds.x if gram_mode else kernels.gram(in_spec, ds.x)
        krr_model = krr.fit_krr(K_cols, lam)
        if not gram_mode:
            extra_mats["x_train"] = ds.x

    oel_model = None
    if args.iokr_only:
        extra_mats["y_train_features"] = yf
    else:
        if vals["oel.seed"] is None:
            vals["oel.seed"] = dataio.named_seed(seed, "sketch")
        yfu = dataio.output_features(ds.output_kind, ds.y_unsup) if ds.m else None
        oel_model = oel.fit_embedding(krr_model, K_cols, oel.OutputSet(out_spec, yf, yfu),
                                      p, vals["oel.c"], method=method, seed=vals["oel.seed"],
                                      oversample=vals["oel.oversample"],
                                      power_iters=vals["oel.power_iters"])
        extra_mats["y_ref_features"] = oel_model.reference_outputs(yf, yfu)
        vals["oel.eigensolver"] = oel_model.eigensolver

    bundle = dataio.bundle_from_models(krr_model, oel_model, manifest, extra_mats)
    dataio.save_model(bundle, out / "model")
    _snapshot(cfg, vals, args, out)
    kind = "regression only" if oel_model is None else f"embedding p={oel_model.p}"
    print(f"fit: n={ds.n} m={ds.m} ({kind}); model bundle in {out / 'model'}")


def _cmd_predict(args, out):
    from . import dataio, kernels, krr, oel
    from .config import UsageError, kernel_spec, read
    from .dataio import DataError

    cfg, base, vals = _load_cfg(args, "model.dir", "decode.k", "data.")
    bundle = dataio.load_model(base / vals["model.dir"])
    krr_model, oel_model = dataio.models_from_bundle(bundle)

    def bundle_kernel(prefix):
        # the manifest is data: a bad kernel entry in it is a data error
        try:
            return kernel_spec(read(bundle.manifest, (f"{prefix}.",)), prefix)
        except UsageError as exc:
            raise bundle.error(str(exc)) from None

    ds = dataio.load_dataset(cfg, base)
    if ds.output_kind != bundle.value("output.kind"):
        raise DataError(f"dataset output kind {ds.output_kind!r} does not match the "
                        f"model's {bundle.value('output.kind')!r}")
    if ds.n_test == 0:
        raise DataError("predict needs data.x_test")

    # kappa: the test inputs' kernel columns as the ridge model reads them
    if bundle.value("input.mode") == "gram":
        kappa = ds.x_test
        if kappa.shape[0] != krr_model.n:
            raise DataError(f"{base / vals['data.x_test']}: test Gram block has "
                            f"{kappa.shape[0]} rows, but the model was fit on "
                            f"{krr_model.n} training points")
        if krr_model.mode == krr.NYSTROM:
            kappa = kappa[krr_model.anchors, :]
    else:
        in_spec = bundle_kernel("kernel.x")
        ref = bundle.matrix("x_train" if krr_model.mode == krr.EXACT else "x_anchors")
        if ds.x_test.shape[1] != ref.shape[1]:
            raise DataError(f"{base / vals['data.x_test']}: test inputs have "
                            f"{ds.x_test.shape[1]} features, but the model was fit on "
                            f"{ref.shape[1]}")
        kappa = kernels.gram(in_spec, ref, ds.x_test)

    out_spec = bundle_kernel("kernel.y")
    cand_f = dataio.output_features(ds.output_kind, ds.candidate_outputs())
    # the reference outputs: all n training outputs for full-dimensional
    # decoding, the ones the embedding's candidate readout reads otherwise
    Y_ref = bundle.matrix("y_train_features" if oel_model is None else "y_ref_features")
    if cand_f.shape[1] != Y_ref.shape[1]:
        path = base / (vals["data.candidates"] or vals["data.y"])
        raise DataError(f"{path}: candidate outputs have {cand_f.shape[1]} "
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
                                  k=vals["decode.k"], query_cands=ds.candidate_map, workers=workers)
    else:
        cands = CandidateBlocks((oel_model.p, len(cand_f)), lambda start, stop: (
            oel.embed_candidates(oel_model, cand_gram(start, stop))))
        ids, scores = decode_oel(oel.embed_inputs(oel_model, kappa), cands, cand_norms,
                                 k=vals["decode.k"], query_cands=ds.candidate_map, workers=workers)
    rank_path = out / "rankings.tsv"
    dataio.save_rankings(rank_path, ids, scores)
    _snapshot(cfg, vals, args, out)
    mode = "full-dimensional" if oel_model is None else f"embedded (p={oel_model.p})"
    print(f"predict: {len(ids)} queries, {mode} decoding; rankings in {rank_path}")


def _cmd_evaluate(args, out):
    import warnings

    import numpy as np

    from . import dataio, kernels, metrics
    from .config import kernel_spec
    from .dataio import DataError

    cfg, base, vals = _load_cfg(args, "evaluate.", "kernel.y.")
    out_spec = kernel_spec(vals, "kernel.y")
    ds = dataio.load_dataset(cfg, base)
    cand = ds.candidate_outputs()
    ids, _ = dataio.load_rankings(base / vals["evaluate.rankings"], n_candidates=cand.shape[0])
    if ds.y_test is None:
        raise DataError("evaluate needs data.y_test ground truth")
    if len(ids) != ds.y_test.shape[0]:
        raise DataError(f"{len(ids)} rankings but {ds.y_test.shape[0]} truth rows")

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
        for k in vals["evaluate.topk"]:
            reports.append(metrics.report_from_values(f"top{k}_accuracy",
                                                      (ranks <= k).astype(np.float64)))

    table_path = out / "metrics.tsv"
    with open(table_path, "w", encoding="utf-8") as fh:
        fh.write("metric\testimate\tstd_error\treps\n")
        for rep in reports:
            se = "" if rep.std_error is None else repr(rep.std_error)
            fh.write(f"{rep.name}\t{rep.estimate!r}\t{se}\t{rep.reps}\n")
    _snapshot(cfg, vals, args, out)
    width = max(len(r.name) for r in reports)
    for rep in reports:
        se = "" if rep.std_error is None else f" +- {rep.std_error:.4f}"
        print(f"{rep.name:<{width}}  {rep.estimate:.4f}{se}  ({rep.reps} queries)")


# ---------------------------------------------------------------------------
# tune / bench / synth


def _cmd_tune(args, out):
    import math

    from . import dataio, kernels, tuning
    from .config import UsageError, kernel_spec, read, write_snapshot

    cfg, base, vals = _load_cfg(args, "seed", "kernel.", "tune.protocol", "tune.metric",
                                "tune.lams", "tune.sigma2_ins", "tune.sigma2_outs", "tune.qs",
                                *(() if args.iokr_only else ("tune.ps", "tune.cs")))
    seed, metric, protocol = vals["seed"], vals["tune.metric"], vals["tune.protocol"]
    vals.update(read(cfg, ("tune.reps", "tune.ratio") if protocol == "ssv"
                     else ("tune.outer", "tune.inner")))
    for grid, side in (("tune.sigma2_ins", "kernel.x"), ("tune.sigma2_outs", "kernel.y")):
        kind = vals[f"{side}.kind"]
        if vals[grid] is not None and kind not in kernels.WIDTH_KINDS:
            raise UsageError(f"{grid} needs a {side}.kind in {kernels.WIDTH_KINDS}, got {kind}")
    out_spec = kernel_spec(vals, "kernel.y")

    ds = dataio.load_dataset(cfg, base)
    if ds.x_format == "gram" and vals["tune.sigma2_ins"] is not None:
        raise UsageError("tune.sigma2_ins needs feature inputs, not data.x_format = gram")
    n = ds.n
    # every grid point is fit on a training fold of n_fit supervised points
    # and the whole pool
    if protocol == "nested":
        outer, inner = vals["tune.outer"], vals["tune.inner"]
        # the inner k-fold splits the smallest outer training fold
        n_outer = n - math.ceil(n / outer)
        n_fit = n_outer - math.ceil(n_outer / inner)
        fold = "the smallest inner training fold"
        bounds = [("tune.outer", outer, n, "n"),
                  ("tune.inner", inner, n_outer, "n - ceil(n / tune.outer)")]
    else:
        reps, ratio = vals["tune.reps"], vals["tune.ratio"]
        # int(ratio * n) training points; ratio < 1 always leaves one to validate on
        n_fit, fold = int(ratio * n), "int(tune.ratio * n)"
        if n_fit < 1:
            raise UsageError(f"tune.ratio must make int(ratio * n) >= 1 at n = {n}, got {ratio}")
        bounds = []
    _check_bounds(bounds + [("tune.ps", vals.get("tune.ps"), n_fit + ds.m, f"{fold} + m"),
                            ("tune.qs", vals["tune.qs"], n_fit, fold)])
    in_spec = None if ds.x_format == "gram" else kernel_spec(vals, "kernel.x")

    defaults = tuning.default_space(n_fit + ds.m)
    if args.iokr_only:
        ps, cs = (None,), (None,)
    else:
        ps = vals["tune.ps"] or defaults.ps
        cs = vals["tune.cs"] or (defaults.cs if ds.m else (1.0,))
    space = tuning.SearchSpace(lams=vals["tune.lams"] or defaults.lams, ps=ps, cs=cs,
                               sigma2_ins=vals["tune.sigma2_ins"] or (None,),
                               sigma2_outs=vals["tune.sigma2_outs"] or (None,),
                               qs=vals["tune.qs"] or (None,))

    if protocol == "ssv":
        result = tuning.grid_search_ssv(ds, space, in_spec, out_spec, metric=metric,
                                        reps=reps, ratio=ratio, seed=seed,
                                        share_krr=args.share_krr)
        result.save_table(out / "tune_table.tsv")
        best = result.best
        write_snapshot({key: value for key, value in (
            ("krr.lambda", best.lam), ("oel.p", best.p), ("oel.c", best.c),
            ("kernel.x.sigma2", best.sigma2_in), ("kernel.y.sigma2", best.sigma2_out),
            ("krr.nystrom_q", best.q)) if value is not None}, out / "best.cfg")
        _snapshot(cfg, vals, args, out)
        print(f"tune: {len(space.configs())} grid points x {reps} reps; "
              f"best {metric} = {result.best_score:.6g} at {best}")
        print(f"table in {out / 'tune_table.tsv'}, best config in {out / 'best.cfg'}")
    else:
        result = tuning.nested_cv(ds, space, in_spec, out_spec, metric=metric,
                                  outer=outer, inner=inner, seed=seed,
                                  share_krr=args.share_krr)
        result.save_table(out / "tune_table.tsv")
        _snapshot(cfg, vals, args, out)
        print(f"tune (nested {outer}x{inner}): {result.report}")
        print(f"per-fold table in {out / 'tune_table.tsv'}")


# bench-decode times its sizes in interleaved rounds until _BENCH_SECONDS of
# wall time have passed (and at least bench.repeats rounds have run), so a
# slow stretch of a shared machine falls on every size alike, and reports
# the median round per size. One sample of a size repeats calls until
# _SAMPLE_SECONDS of decoding have passed, so the N = 1e3 point is not one
# sub-millisecond call
_BENCH_SECONDS = 12.0
_SAMPLE_SECONDS = 0.02


def _cmd_bench_decode(args, out):
    import statistics

    import numpy as np

    from .decode import CandidateBlocks, decode_iokr, decode_oel

    cfg, _, vals = _load_cfg(args, "seed", "bench.")
    seed, n, p, sizes = vals["seed"], vals["bench.n"], vals["bench.p"], vals["bench.sizes"]
    queries, repeats, k = vals["bench.queries"], vals["bench.repeats"], vals["bench.k"]
    rng = np.random.default_rng(seed)
    A_test = rng.standard_normal((n, queries))
    Z_test = rng.standard_normal((p, queries))
    norms = {N: rng.uniform(0.5, 1.5, size=N) for N in sizes}
    Z_cand = {N: rng.standard_normal((p, N)) for N in sizes}

    # the n x N full-dimensional candidates are never held whole: each block
    # is drawn when the decoder asks for it, from a seed of its own (its
    # first column), and the drawing time is charged to neither decoder
    drawing = 0.0

    def draw(start, stop):
        nonlocal drawing
        t0 = time.perf_counter()
        block = np.random.default_rng((seed, start)).integers(
            -128, 128, (n, stop - start), dtype=np.int8) / 64.0
        drawing += time.perf_counter() - t0
        return block

    C_s = {N: CandidateBlocks((n, N), draw) for N in sizes}

    def sample(fn, E_test, E_cand, N):
        """Seconds per query of one call, averaged over calls until
        _SAMPLE_SECONDS of decoding have passed."""
        nonlocal drawing
        spent, calls = 0.0, 0
        while spent < _SAMPLE_SECONDS:
            drawing = 0.0
            t0 = time.perf_counter()
            fn(E_test, E_cand, norms[N], k=k)
            spent += time.perf_counter() - t0 - drawing
            calls += 1
        return spent / calls / queries

    # let the clock governor settle before measuring anything: fresh
    # processes otherwise charge their ramp-up to the first grid point
    burn = rng.standard_normal((800, 800))
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 1.5:
        burn @ burn
    for N in sizes:                         # warm-up, untimed
        decode_iokr(A_test, C_s[N], norms[N], k=k)
        decode_oel(Z_test, Z_cand[N], norms[N], k=k)

    times = {N: ([], []) for N in sizes}
    rounds, t0 = 0, time.perf_counter()
    while rounds < repeats or time.perf_counter() - t0 < _BENCH_SECONDS:
        # alternate the order of the sizes, so none is always timed first
        for N in sizes if rounds % 2 == 0 else sizes[::-1]:
            times[N][0].append(sample(decode_iokr, A_test, C_s[N], N))
            times[N][1].append(sample(decode_oel, Z_test, Z_cand[N], N))
        rounds += 1
    rows = [(N, statistics.median(times[N][0]), statistics.median(times[N][1]))
            for N in sizes]

    table_path = out / "bench.tsv"
    with open(table_path, "w", encoding="utf-8") as fh:
        fh.write("N\tiokr_ms_per_query\toel_ms_per_query\tspeedup\n")
        for N, t_iokr, t_oel in rows:
            fh.write(f"{N}\t{t_iokr * 1e3!r}\t{t_oel * 1e3!r}\t{t_iokr / t_oel!r}\n")
    _snapshot(cfg, vals, args, out)
    print(f"bench-decode: n={n} p={p} k={k} ({queries} queries, median of {rounds} "
          f"interleaved rounds)")
    print("      N   full-dim ms/query   embedded ms/query   speedup   "
          "round spread (IQR / median)")
    for N, t_iokr, t_oel in rows:
        spread = [np.subtract(*np.percentile(ts, [75, 25])) / statistics.median(ts)
                  for ts in times[N]]
        print(f"{N:>7}   {t_iokr * 1e3:>17.4g}   {t_oel * 1e3:>17.4g}   "
              f"{t_iokr / t_oel:>6.1f}x   {spread[0]:.1%} / {spread[1]:.1%}")
    per_cand = [(t_i / N, t_o / N) for N, t_i, t_o in rows]
    for label, col in (("full-dimensional", 0), ("embedded", 1)):
        costs = np.array([pc[col] for pc in per_cand])
        dev = float(np.max(np.abs(costs - costs.mean())) / costs.mean())
        print(f"per-candidate cost deviation from linear ({label}): {dev:.1%}")
    try:
        import resource
    except ImportError:      # no getrusage outside Unix
        return
    usage = resource.getrusage(resource.RUSAGE_SELF)
    # the peak resident set in KiB: Linux's VmHWM starts afresh at exec,
    # while ru_maxrss keeps the high-water mark of a larger process that
    # forked this one (a pytest run that has loaded other tests' data)
    peak = usage.ru_maxrss
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            peak = next(int(ln.split()[1]) for ln in fh if ln.startswith("VmHWM:"))
    except (OSError, StopIteration):
        pass
    print(f"peak RSS {peak / 1024:.0f} MB; context switches "
          f"{usage.ru_nvcsw} voluntary, {usage.ru_nivcsw} involuntary")


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
    from .config import parse_config_file, write_snapshot

    cfg, _, vals = _load_cfg(args, "seed", "synth.")
    ds = dataio.synth_remark1(vals["synth.n"], vals["synth.m"], vals["synth.n_test"],
                              vals["synth.sigma2_x"], vals["synth.sigma2_z"], seed=vals["seed"])
    cfg_path = dataio.save_dataset(ds, out / "data")
    data_keys = parse_config_file(cfg_path)
    for name, keys in _SYNTH_CONFIGS.items():
        write_snapshot({**data_keys, **_SYNTH_KERNELS, **keys}, cfg_path.parent / name)
    _snapshot(cfg, vals, args, out)
    print(f"synth: n={ds.n} m={ds.m} n_test={ds.n_test}; dataset config at {cfg_path}, "
          f"with {', '.join(_SYNTH_CONFIGS)} beside it (fit into {out / 'fit'}, "
          f"predict into {out / 'pred'})")


if __name__ == "__main__":
    sys.exit(main())
