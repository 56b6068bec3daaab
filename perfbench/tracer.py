"""Span recorder for the traced benchmark child.

install() replaces the public functions of each okr module with timing
wrappers, in every namespace the program looks them up in at call time. Each
call records a span (name, start, end, parent span) and, for some functions,
a count taken from its arguments or result. Spans stay in memory; the child
writes them out when the command has ended.

Span names are "<module>.<function>", with the module named after the okr
layer the function belongs to, so a wrapper installed in okr.tuning for
krr.fit_krr still records "krr.fit_krr".
"""

from __future__ import annotations

import functools
import importlib
import time


class Tracer:
    def __init__(self):
        self.spans = []       # [name, start, end, parent index or -1]
        self.counters = {}    # counter name -> value
        self._stack = []

    def add(self, counter: str, value) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    def peak(self, counter: str, value) -> None:
        self.counters[counter] = max(self.counters.get(counter, 0), value)

    def wrap(self, owner, attr: str, name: str, measure=None) -> bool:
        """Replace owner.attr by a timing wrapper; False if owner has no attr
        (the program no longer has that function)."""
        fn = getattr(owner, attr, None)
        if fn is None:
            return False
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if measure is not None:
                measure(self, args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        return True


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs.get(key)


def _gram_entries(tracer, args, kwargs, result):
    tracer.add("kernels.gram_entries", result.size)


def _eig_dim(tracer, args, kwargs, result):
    tracer.peak("linalg.eig_dim", _arg(args, kwargs, 0, "K").shape[0])


def _decode_work(tracer, args, kwargs, result):
    """Candidates scored and the multiply-adds of scoring them: every
    candidate costs one inner product of the embedding dimension (p for the
    embedded decoder, n for the full-dimensional one)."""
    E_test, E_cand = args[0], args[1]
    lists = _arg(args, kwargs, 4, "query_cands")
    queries = E_test.shape[1] if E_test.ndim == 2 else 1
    scored = (sum(len(ids) for ids in lists) if lists is not None
              else queries * E_cand.shape[1])
    tracer.add("decode.queries", queries)
    tracer.add("decode.candidates_scored", scored)
    tracer.add("decode.score_flops", 2 * E_test.shape[0] * scored)


def _embed_candidates_flops(tracer, args, kwargs, result):
    """Flops of the current embed_candidates from its operand shapes:
    alpha_train @ C_s (when the model keeps alpha_train), beta_s^T @ that,
    and beta_u^T @ C_u."""
    model = args[0]
    N = result.shape[1]
    n, m, p = model.n, model.m, model.p
    flops = 2 * p * n * N + 2 * p * m * N
    if getattr(model, "alpha_train", None) is not None:
        flops += 2 * n * n * N
    tracer.add("oel.embed_flops", flops)


def _embed_tests_flops(tracer, args, kwargs, result):
    """Flops of the current embed_tests: alpha_train @ (K_y_ss @ A_test) and
    K_y_su^T @ A_test (when the model keeps them), then the beta products."""
    model = args[0]
    t = result.shape[1]
    n, m, p = model.n, model.m, model.p
    flops = 2 * p * n * t + 2 * p * m * t
    if getattr(model, "alpha_train", None) is not None:
        flops += 4 * n * n * t
    if getattr(model, "K_y_su", None) is not None:
        flops += 2 * n * m * t
    tracer.add("oel.embed_flops", flops)


# (module, attribute path, span name, measure)
TARGETS = [
    ("okr.kernels", "gram", "kernels.gram", _gram_entries),
    ("okr.kernels", "self_norms", "kernels.self_norms", None),
    ("okr.kernels", "pair_values", "kernels.pair_values", None),
    ("okr.linalg", "RegularizedSolver.__init__", "linalg.cholesky", None),
    ("okr.linalg", "RegularizedSolver.solve", "linalg.solve", None),
    # fit_oel reaches the eigensolvers through oel's namespace
    ("okr.oel", "eig_topk_exact", "linalg.eig", _eig_dim),
    ("okr.oel", "eig_topk_randomized", "linalg.eig", _eig_dim),
    ("okr.krr", "fit_krr", "krr.fit_krr", None),
    ("okr.krr", "fit_krr_nystrom", "krr.fit_krr_nystrom", None),
    ("okr.krr", "predict_alpha", "krr.predict_alpha", None),
    # tuning binds the ridge functions and decoders at import
    ("okr.tuning", "fit_krr", "krr.fit_krr", None),
    ("okr.tuning", "fit_krr_nystrom", "krr.fit_krr_nystrom", None),
    ("okr.tuning", "predict_alpha", "krr.predict_alpha", None),
    ("okr.tuning", "decode_oel", "decode.decode_oel", _decode_work),
    ("okr.tuning", "decode_iokr", "decode.decode_iokr", _decode_work),
    ("okr.oel", "assemble_mixed_gram", "oel.assemble_mixed_gram", None),
    ("okr.oel", "mixed_gram_blocks", "oel.mixed_gram_blocks", None),
    ("okr.oel", "fit_oel", "oel.fit_oel", None),
    ("okr.oel", "embed_tests", "oel.embed_tests", _embed_tests_flops),
    ("okr.oel", "embed_candidates", "oel.embed_candidates", _embed_candidates_flops),
    ("okr.oel", "surrogate_sq_errors", "oel.surrogate_sq_errors", None),
    # the CLI imports the decoders from okr.decode at call time
    ("okr.decode", "decode_oel", "decode.decode_oel", _decode_work),
    ("okr.decode", "decode_iokr", "decode.decode_iokr", _decode_work),
    ("okr.dataio", "load_dataset", "dataio.load_dataset", None),
    ("okr.dataio", "load_dense", "dataio.load_dense", None),
    ("okr.dataio", "load_sparse", "dataio.load_sparse", None),
    ("okr.dataio", "load_bitsets", "dataio.load_bitsets", None),
    ("okr.dataio", "load_permutations", "dataio.load_permutations", None),
    ("okr.dataio", "load_candidate_map", "dataio.load_candidate_map", None),
    ("okr.dataio", "load_index_vector", "dataio.load_index_vector", None),
    ("okr.dataio", "output_features", "dataio.output_features", None),
    ("okr.dataio", "fingerprint", "dataio.fingerprint", None),
    ("okr.dataio", "bundle_from_models", "dataio.bundle_from_models", None),
    ("okr.dataio", "models_from_bundle", "dataio.models_from_bundle", None),
    ("okr.dataio", "save_model", "dataio.save_model", None),
    ("okr.dataio", "load_model", "dataio.load_model", None),
    ("okr.dataio", "save_rankings", "dataio.save_rankings", None),
    ("okr.dataio", "load_rankings", "dataio.load_rankings", None),
    ("okr.metrics", "rkhs_loss", "metrics.rkhs_loss", None),
    ("okr.metrics", "report_from_values", "metrics.report_from_values", None),
    ("okr.metrics", "topk_accuracy", "metrics.topk_accuracy", None),
    ("okr.metrics", "f1_example", "metrics.f1_example", None),
    ("okr.metrics", "f1_example_mean", "metrics.f1_example_mean", None),
    ("okr.metrics", "hamming", "metrics.hamming", None),
    ("okr.metrics", "kendall_tau", "metrics.kendall_tau", None),
    ("okr.tuning", "grid_search_ssv", "tuning.grid_search_ssv", None),
    ("okr.tuning", "nested_cv", "tuning.nested_cv", None),
]


def install(tracer: Tracer) -> list[str]:
    """Wrap every target the program still has; returns the missing ones."""
    missing = []
    for module, path, name, measure in TARGETS:
        owner = importlib.import_module(module)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        if not tracer.wrap(owner, attr, name, measure):
            missing.append(f"{module}.{path}")
    return missing
