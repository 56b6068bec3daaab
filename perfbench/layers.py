"""Per-layer metrics of the traced run.

The layers are the okr modules: cli (with config), dataio, kernels, linalg,
krr, oel, decode, metrics and tuning. A metric is named
"<command>.<module>.<what>". Each entry records the end-to-end metric it
should move and the workloads where it should show, so that an issue can
name, before any code is written, which numbers a change is meant to move.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

COMMANDS = ("fit", "fit_iokr", "predict", "predict_iokr", "evaluate", "tune")


class CommandTrace:
    """Spans of one traced command, with the wall time the parent measured
    around the whole child process."""

    def __init__(self, data: dict, wall_s: float):
        self.wall_s = wall_s
        self.spans = data["spans"]
        self.counters = data["counters"]
        self.missing = data.get("missing", [])   # wrappers the program had no target for
        covered = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self._covered = covered

    def _durations(self, name):
        return [(i, end - start) for i, (n, start, end, _) in enumerate(self.spans)
                if n == name]

    def total(self, name: str) -> float:
        return sum(d for _, d in self._durations(name))

    def calls(self, name: str) -> int:
        return len(self._durations(name))

    def self_time(self, name: str) -> float:
        """Duration minus the part of it the span's children cover."""
        return sum(d - self._covered[i] for i, d in self._durations(name))

    def layer(self, module: str) -> tuple[float, int]:
        """Time and calls of the outermost spans of one module (a span whose
        parent is in the same module is already counted by the parent)."""
        prefix = module + "."
        time_s, calls = 0.0, 0
        for name, start, end, parent in self.spans:
            if name.startswith(prefix) and not (
                    parent >= 0 and self.spans[parent][0].startswith(prefix)):
                time_s += end - start
                calls += 1
        return time_s, calls

    def root_covered(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0)


@dataclass
class TracedRun:
    """What the per-layer metrics are computed from."""

    traced: dict          # command -> CommandTrace, 2 threads
    traced_1t: dict       # command -> CommandTrace, 1 thread (SINGLE_THREAD_COMMANDS)
    untraced_wall: dict   # command -> wall seconds of the untraced pass
    peak_rss_mb: dict     # command -> ru_maxrss of the untraced pass
    bundle_bytes: int     # embedded model bundle on disk
    tune_trials: int      # rows of tune_table.tsv
    values: dict          # checked result values of the untraced run (metrics.tsv, tune)


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    moves: str            # end-to-end metric(s) it should move
    on: str               # workloads where it should show
    value: Callable[[TracedRun], float]
    better: str = "lower"


def _ratio(a, b):
    return a / b if b else 0.0


def _decode_ms_per_query(trace: CommandTrace, name: str) -> float:
    return _ratio(1e3 * trace.total(name), trace.counter("decode.queries"))


def _speedup(r, command, span):
    return _ratio(r.traced_1t[command].total(span), r.traced[command].total(span))


PER_LAYER = [
    LayerMetric("fit.linalg.eig_s", "s", "fit_s, pipeline_s",
                "remark1_baseline; not retrieval_100k",
                lambda r: r.traced["fit"].total("linalg.eig")),
    LayerMetric("fit.linalg.eig_calls", "count", "fit_s", "all",
                lambda r: r.traced["fit"].calls("linalg.eig")),
    LayerMetric("fit.linalg.eig_dim", "count", "fit_s", "all",
                lambda r: r.traced["fit"].counter("linalg.eig_dim")),
    LayerMetric("tune.linalg.eig_s", "s", "tune_s", "all",
                lambda r: r.traced["tune"].total("linalg.eig")),
    LayerMetric("tune.linalg.eig_calls", "count", "tune_s", "all",
                lambda r: r.traced["tune"].calls("linalg.eig")),
    LayerMetric("fit.oel.assemble_mixed_gram_s", "s", "fit_s", "remark1_baseline",
                lambda r: r.traced["fit"].total("oel.assemble_mixed_gram")),
    LayerMetric("fit.oel.fit_oel_self_s", "s", "fit_s", "remark1_baseline",
                lambda r: r.traced["fit"].self_time("oel.fit_oel")),
    LayerMetric("fit.krr.fit_krr_s", "s", "fit_s", "remark1_baseline",
                lambda r: r.traced["fit"].total("krr.fit_krr")),
    LayerMetric("fit_iokr.krr.fit_krr_s", "s", "fit_iokr_s", "remark1_baseline",
                lambda r: r.traced["fit_iokr"].total("krr.fit_krr")),
    LayerMetric("fit.krr.predict_alpha_s", "s", "fit_s", "remark1_baseline",
                lambda r: r.traced["fit"].total("krr.predict_alpha")),
    LayerMetric("predict.krr.predict_alpha_s", "s", "predict_s, predict_iokr_s",
                "remark1_baseline",
                lambda r: r.traced["predict"].total("krr.predict_alpha")),
    LayerMetric("predict.oel.embed_candidates_s", "s", "predict_s (never predict_iokr_s)",
                "remark1_baseline, retrieval_100k",
                lambda r: r.traced["predict"].total("oel.embed_candidates")),
    LayerMetric("predict.oel.embed_tests_s", "s", "predict_s (never predict_iokr_s)",
                "remark1_baseline, retrieval_100k",
                lambda r: r.traced["predict"].total("oel.embed_tests")),
    LayerMetric("predict.oel.embed_flops", "flop", "predict_s",
                "remark1_baseline, retrieval_100k (computed from operand shapes)",
                lambda r: r.traced["predict"].counter("oel.embed_flops")),
    LayerMetric("tune.oel.embed_s", "s", "tune_s", "all",
                lambda r: (r.traced["tune"].total("oel.embed_tests")
                           + r.traced["tune"].total("oel.embed_candidates"))),
    LayerMetric("predict.decode.decode_oel_s", "s", "predict_s",
                "retrieval_100k; not remark1_baseline",
                lambda r: r.traced["predict"].total("decode.decode_oel")),
    LayerMetric("predict.decode.ms_per_query", "ms", "predict_s",
                "retrieval_100k",
                lambda r: _decode_ms_per_query(r.traced["predict"], "decode.decode_oel")),
    LayerMetric("predict.decode.candidates_scored", "count", "predict_s",
                "retrieval_100k",
                lambda r: r.traced["predict"].counter("decode.candidates_scored")),
    LayerMetric("predict.decode.score_flops", "flop", "predict_s",
                "retrieval_100k (computed: 2 p per candidate)",
                lambda r: r.traced["predict"].counter("decode.score_flops")),
    LayerMetric("predict_iokr.decode.decode_iokr_s", "s", "predict_iokr_s",
                "retrieval_100k",
                lambda r: r.traced["predict_iokr"].total("decode.decode_iokr")),
    LayerMetric("predict_iokr.decode.ms_per_query", "ms", "predict_iokr_s",
                "retrieval_100k",
                lambda r: _decode_ms_per_query(r.traced["predict_iokr"],
                                               "decode.decode_iokr")),
    LayerMetric("predict_iokr.decode.score_flops", "flop", "predict_iokr_s",
                "retrieval_100k (computed: 2 n per candidate)",
                lambda r: r.traced["predict_iokr"].counter("decode.score_flops")),
    LayerMetric("fit.kernels.gram_s", "s", "fit_s", "remark1_baseline",
                lambda r: r.traced["fit"].total("kernels.gram")),
    LayerMetric("predict.kernels.gram_s", "s", "predict_s",
                "retrieval_100k",
                lambda r: r.traced["predict"].total("kernels.gram")),
    LayerMetric("predict_iokr.kernels.gram_s", "s", "predict_iokr_s",
                "retrieval_100k",
                lambda r: r.traced["predict_iokr"].total("kernels.gram")),
    LayerMetric("predict.kernels.gram_entries", "count", "predict_s",
                "retrieval_100k",
                lambda r: r.traced["predict"].counter("kernels.gram_entries")),
    LayerMetric("tune.kernels.gram_s", "s", "tune_s", "all",
                lambda r: r.traced["tune"].total("kernels.gram")),
    LayerMetric("evaluate.kernels.s", "s", "evaluate_s", "retrieval_100k",
                lambda r: r.traced["evaluate"].layer("kernels")[0]),
] + [
    LayerMetric(f"{cmd}.dataio.load_dataset_s", "s", f"{cmd}_s",
                "small everywhere (400-row files)" if cmd == "tune" else
                "retrieval_100k (100k-line candidate file); small on remark1_baseline",
                lambda r, cmd=cmd: r.traced[cmd].total("dataio.load_dataset"))
    for cmd in COMMANDS
] + [
    LayerMetric("fit.dataio.save_model_s", "s", "fit_s", "remark1_baseline",
                lambda r: r.traced["fit"].total("dataio.save_model")),
    LayerMetric("fit.dataio.bundle_bytes", "B", "bundle_mb, predict_s, peak_rss_mb",
                "remark1_baseline", lambda r: r.bundle_bytes),
    LayerMetric("predict.dataio.load_model_s", "s", "predict_s, peak_rss_mb",
                "remark1_baseline",
                lambda r: r.traced["predict"].total("dataio.load_model")),
    LayerMetric("predict_iokr.dataio.load_model_s", "s", "predict_iokr_s",
                "remark1_baseline",
                lambda r: r.traced["predict_iokr"].total("dataio.load_model")),
    LayerMetric("predict.dataio.save_rankings_s", "s", "predict_s",
                "retrieval_100k",
                lambda r: r.traced["predict"].total("dataio.save_rankings")),
    LayerMetric("evaluate.dataio.load_rankings_s", "s", "evaluate_s",
                "retrieval_100k",
                lambda r: r.traced["evaluate"].total("dataio.load_rankings")),
    LayerMetric("evaluate.metrics.s", "s", "evaluate_s",
                "retrieval_100k",
                lambda r: r.traced["evaluate"].layer("metrics")[0]),
    LayerMetric("evaluate.metrics.calls", "count", "evaluate_s", "retrieval_100k",
                lambda r: r.traced["evaluate"].layer("metrics")[1]),
    LayerMetric("evaluate.metrics.top1_accuracy", "fraction",
                "none: a result, not a cost; moves only if results change", "all",
                lambda r: r.values["top1_accuracy"], better="higher"),
    LayerMetric("evaluate.metrics.top10_accuracy", "fraction",
                "none: a result, not a cost; moves only if results change", "all",
                lambda r: r.values["top10_accuracy"], better="higher"),
    LayerMetric("tune.tuning.trials", "count", "tune_s", "all",
                lambda r: r.tune_trials),
    LayerMetric("tune.tuning.s_per_trial", "s", "tune_s", "all",
                lambda r: _ratio(r.traced["tune"].total("tuning.grid_search_ssv"),
                                 r.tune_trials)),
    LayerMetric("tune.tuning.krr_fits", "count", "tune_s", "all",
                lambda r: r.traced["tune"].calls("krr.fit_krr")),
    LayerMetric("tune.tuning.krr_reuse_ratio", "ratio", "tune_s", "all",
                lambda r: _ratio(r.tune_trials, r.traced["tune"].calls("krr.fit_krr")),
                better="higher"),
] + [
    LayerMetric(f"{cmd}.cli.self_s", "s", f"{cmd}_s",
                "all; most of evaluate on remark1_baseline",
                lambda r, cmd=cmd: r.traced[cmd].wall_s - r.traced[cmd].root_covered())
    for cmd in COMMANDS
] + [
    LayerMetric(f"{cmd}.peak_rss_mb", "MB", "peak_rss_mb",
                "remark1_baseline (fit, predict), retrieval_100k (predict)",
                lambda r, cmd=cmd: r.peak_rss_mb[cmd])
    for cmd in COMMANDS
] + [
    LayerMetric(f"{cmd}.trace.overhead_s", "s", "none: a check on the tracer", "all",
                lambda r, cmd=cmd: r.traced[cmd].wall_s - r.untraced_wall[cmd])
    for cmd in COMMANDS
]

# The same GEMM- and LAPACK-bound layers with the BLAS pool capped at one
# thread, and the 2-thread speed-up over that: the parallel headroom a later
# change can aim at. Not gated.
_SINGLE_THREAD = (
    ("fit", "linalg.eig", "fit.linalg.eig"),
    ("fit", "kernels.gram", "fit.kernels.gram"),
    ("predict", "oel.embed_candidates", "predict.oel.embed_candidates"),
    ("predict", "decode.decode_oel", "predict.decode.decode_oel"),
    ("predict", "kernels.gram", "predict.kernels.gram"),
    ("predict_iokr", "decode.decode_iokr", "predict_iokr.decode.decode_iokr"),
)
SINGLE_THREAD_COMMANDS = ("fit", "fit_iokr", "predict", "predict_iokr")

for _cmd, _span, _stem in _SINGLE_THREAD:
    PER_LAYER.append(LayerMetric(
        f"{_stem}_1thread_s", "s", "none (1-thread baseline)", "all",
        lambda r, cmd=_cmd, span=_span: r.traced_1t[cmd].total(span)))
    PER_LAYER.append(LayerMetric(
        f"{_stem}_2thread_speedup", "ratio", "none (parallel headroom)", "all",
        lambda r, cmd=_cmd, span=_span: _speedup(r, cmd, span), better="higher"))


def compute(run: TracedRun) -> dict:
    return {m.name: float(m.value(run)) for m in PER_LAYER}
