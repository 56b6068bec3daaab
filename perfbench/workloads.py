"""Benchmark workloads and their seeded inputs.

Every input file a command reads is generated here from the workload's seed
through okr.dataio.synth_remark1, save_dataset and save_dense. The configs
for fit, predict, evaluate and tune are written next to the data, so the
program receives nothing but generated files.

Each workload runs the same six commands (fit, fit --iokr-only, predict with
both bundles, evaluate, tune --share-krr). What differs is the shape of the
data, and with it the layer that dominates each command.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from okr import dataio

# kernel, ridge, embedding and decode keys of every config
PARAMS = {
    "kernel.x.kind": "gaussian", "kernel.x.sigma2": "1.0",
    "kernel.y.kind": "gaussian", "kernel.y.sigma2": "4.0",
    "krr.lambda": "1e-4",
    "oel.p": "32", "oel.c": "0.5", "oel.method": "exact",
    "decode.k": "10",
}

# `tune --share-krr` runs on its own draw of TUNE_N supervised pairs and TUNE_N
# pool outputs: SSV with 3 reps over p in {2, 8, 32} at the workload's lambda
# and c, so 9 small (720 x 720) eigensolves at varying p that share 3 ridge
# fits. That is the regime of ROADMAP item 3 (shared p-paths, an eigensolver
# switch threshold), next to the single large eigensolve of `fit`.
TUNE_N = 400
TUNE = {"tune.protocol": "ssv", "tune.metric": "surrogate_mse", "tune.reps": "3",
        "tune.ratio": "0.8", "tune.lams": "1e-4", "tune.ps": "2,8,32", "tune.cs": "0.5"}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str               # one line, the same text as in BENCHMARK.json
    n: int                 # supervised pairs
    m: int                 # unsupervised output pool
    n_test: int            # test queries
    n_candidates: int      # one global candidate set


WORKLOADS = {w.name: w for w in (
    # The ROADMAP Baseline configuration. `fit` is dominated by the full eigh
    # of the 4000 x 4000 mixed Gram; `predict` by embed_candidates,
    # embed_tests and loading the ~125 MB bundle, with decode about 3%.
    # Eigensolver and readout-matrix changes (ROADMAP items 2 and 3) show
    # here; decode changes should not move it.
    Workload(
        name="remark1_baseline",
        why="ROADMAP Baseline: fit is the full eigh of the 4000x4000 mixed Gram, "
            "predict the n x n embedding products and bundle load; decode is ~3%",
        n=2000, m=2000, n_test=500, n_candidates=4500),
    # Same distribution and kernels, 100 000 candidates in one global set.
    # `predict` is decode-bound (decode_oel, and decode_iokr even more so),
    # with the n x N candidate Grams next; the eigensolve is a small part of
    # a short `fit`. Decode and candidate-Gram changes (ROADMAP item 4) show
    # here, eigensolver changes should not.
    Workload(
        name="retrieval_100k",
        why="100k global candidates: predict is decode-bound plus n x N candidate "
            "Grams; the eigensolve is small",
        n=500, m=500, n_test=2000, n_candidates=100_000),
)}


@dataclass(frozen=True)
class Inputs:
    """What the checks need to know about the generated inputs."""

    data_keys: dict        # data.* config keys, relative to the inputs directory
    tune_keys: dict        # data.* keys of the tune dataset, same convention
    truth: np.ndarray      # true candidate index per query
    n_candidates: int
    k: int
    grid_points: int
    tune_reps: int


def _read_keys(cfg_path: Path) -> dict:
    keys = {}
    for line in cfg_path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            key, value = (part.strip() for part in line.split("=", 1))
            keys[key] = value
    return keys


def make_inputs(wl: Workload, seed: int, inputs: Path) -> Inputs:
    """Write the workload's data files for `seed` into `inputs`:
    synth_remark1 with sigma2_x = 1 and sigma2_z = 4 (the synth command's
    defaults), with more outputs of the same distribution appended to the
    candidates up to n_candidates, and a separate draw for tune."""
    ds = dataio.synth_remark1(wl.n, wl.m, wl.n_test, 1.0, 4.0, seed=seed)
    extra = wl.n_candidates - ds.candidates.shape[0]
    if extra:
        more = dataio.synth_remark1(extra, 0, 1, 1.0, 4.0,
                                    seed=dataio.named_seed(seed, "candidates"))
        ds.candidates = np.vstack([ds.candidates, more.y_sup])
    keys = _read_keys(dataio.save_dataset(ds, inputs))

    tune_ds = dataio.synth_remark1(TUNE_N, TUNE_N, 1, 1.0, 4.0,
                                   seed=dataio.named_seed(seed, f"{wl.name}/tune"))
    dataio.save_dense(inputs / "tune_x.csv", tune_ds.x)
    dataio.save_dense(inputs / "tune_y.csv", tune_ds.y_sup)
    dataio.save_dense(inputs / "tune_y_unsup.csv", tune_ds.y_unsup)
    tune_keys = {"data.kind": "dense", "data.x_format": "dense", "data.x": "tune_x.csv",
                 "data.y": "tune_y.csv", "data.y_unsup": "tune_y_unsup.csv"}

    grid_points = int(np.prod([len(TUNE[key].split(","))
                               for key in ("tune.lams", "tune.ps", "tune.cs")]))
    return Inputs(data_keys=keys, tune_keys=tune_keys, truth=ds.truth_index,
                  n_candidates=wl.n_candidates, k=int(PARAMS["decode.k"]),
                  grid_points=grid_points, tune_reps=int(TUNE["tune.reps"]))


def write_configs(inp: Inputs, seed: int, pass_dir: Path, inputs_rel: str) -> None:
    """The configs of one pass. Paths are relative to the config's directory:
    data under `inputs_rel`, outputs under the pass directory."""
    pass_dir.mkdir(parents=True, exist_ok=True)

    def data(keys):
        return {k: (v if k in ("data.kind", "data.x_format") else f"{inputs_rel}/{v}")
                for k, v in keys.items()}

    common = {"seed": str(seed), **PARAMS}
    configs = {
        "fit.cfg": {**data(inp.data_keys), **common},
        "predict.cfg": {**data(inp.data_keys), **common, "model.dir": "fit/model"},
        "predict_iokr.cfg": {**data(inp.data_keys), **common,
                             "model.dir": "fit_iokr/model"},
        "evaluate.cfg": {**data(inp.data_keys), **common,
                         "evaluate.rankings": "predict/rankings.tsv",
                         "evaluate.topk": "1,10"},
        "tune.cfg": {**data(inp.tune_keys), **common, **TUNE},
    }
    for name, cfg in configs.items():
        (pass_dir / name).write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()),
                                     encoding="utf-8")
