"""Output checks. Each returns a list of error strings; an empty list means
the output passed. A failed check counts the command that wrote the output
as a failed operation.

Reference values live in perfbench/reference.json, per workload and seed.
For a seed recorded there the values must match within the tolerances below;
for any other seed they must fall inside the workload's plausibility band.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).resolve().parent / "reference.json"

# A value may differ from its reference by REL_TOL of its size (rounding from
# another BLAS blocking or thread count), plus the effect of up to
# FLIP_QUERIES queries whose top-1 candidate flips on a rounding-level tie: a
# flip moves a top-k accuracy by 1/queries and the mean RKHS loss by at most
# 2/queries (the benchmark's kernels take values in [0, 1], so each loss lies
# in [0, 2]).
REL_TOL = 1e-9
FLIP_QUERIES = 1
_FLIP_SIZE = {"rkhs_loss": 2.0, "top1_accuracy": 1.0, "top10_accuracy": 1.0,
              "tune_best_score": 0.0}


def _read_rankings(path: Path):
    """(query id, [candidate ids], [scores]) per line."""
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        toks = line.split("\t")
        pairs = [tok.split(":", 1) for tok in toks[1:]]
        rows.append((int(toks[0]), [int(c) for c, _ in pairs],
                     [float(s) for _, s in pairs]))
    return rows


def rankings(path: Path, truth, n_candidates: int, k: int):
    """One line per query, in query order; each holds min(k, candidates)
    distinct candidate ids in non-decreasing score order. Returns (errors,
    rank of the truth per query, 0 when it is not in the list)."""
    if not path.is_file():
        return [f"{path.name}: missing"], None
    try:
        rows = _read_rankings(path)
    except ValueError as exc:
        return [f"{path.name}: unparsable ({exc})"], None
    errors = []
    if len(rows) != len(truth):
        errors.append(f"{path.name}: {len(rows)} lines for {len(truth)} queries")
    truth_rank = np.zeros(len(rows), dtype=np.int64)
    for j, (qid, ids, scores) in enumerate(rows):
        bad = (qid != j or len(ids) != min(k, n_candidates) or len(set(ids)) != len(ids)
               or any(a > b for a, b in zip(scores, scores[1:]))
               or any(not (0 <= c < n_candidates) for c in ids))
        if bad:
            errors.append(f"{path.name}:{j + 1}: bad ranking line for query {j}")
            if len(errors) > 5:
                break
        if j < len(truth) and truth[j] in ids:
            truth_rank[j] = ids.index(truth[j]) + 1
    return errors, truth_rank


def metrics_table(path: Path, truth_rank) -> tuple[list, dict]:
    """metrics.tsv holds the RKHS loss and top-1/top-10 accuracies, and the
    accuracies equal the ones recomputed from the rankings file."""
    if not path.is_file():
        return [f"{path.name}: missing"], {}
    values = {}
    for line in path.read_text(encoding="utf-8").splitlines()[1:]:
        name, estimate = line.split("\t")[:2]
        values[name] = float(estimate)
    errors = [f"{path.name}: no {name}" for name in
              ("rkhs_loss", "top1_accuracy", "top10_accuracy") if name not in values]
    if truth_rank is not None:
        for k in (1, 10):
            name = f"top{k}_accuracy"
            expect = float(np.mean((truth_rank >= 1) & (truth_rank <= k)))
            if name in values and abs(values[name] - expect) > 1e-12:
                errors.append(f"{path.name}: {name} {values[name]!r} but the rankings "
                              f"give {expect!r}")
    return errors, values


def tune_outputs(out: Path, grid_points: int, reps: int) -> tuple[list, float, int]:
    """tune_table.tsv has one error-free row per grid point and rep, and
    best.cfg names the grid point with the lowest mean score. Returns
    (errors, best mean score, trial rows)."""
    table, best_cfg = out / "tune_table.tsv", out / "best.cfg"
    if not table.is_file() or not best_cfg.is_file():
        return ["tune: tune_table.tsv or best.cfg missing"], math.nan, 0
    lines = table.read_text(encoding="utf-8").splitlines()
    header, rows = lines[0].split("\t"), [ln.split("\t") for ln in lines[1:]]
    col = {name: i for i, name in enumerate(header)}
    errors = []
    if len(rows) != grid_points * reps:
        errors.append(f"tune: {len(rows)} trials, expected {grid_points} x {reps}")
    scores = {}
    for row in rows:
        if row[col["error"]] or row[col["score"]] == "nan":
            errors.append(f"tune: trial failed: {row}")
            continue
        point = (float(row[col["lam"]]), row[col["p"]], row[col["c"]])
        scores.setdefault(point, []).append(float(row[col["score"]]))
    if not scores:
        return errors + ["tune: no scored trial"], math.nan, len(rows)
    means = {point: float(np.mean(v)) for point, v in scores.items()}
    # ties prefer the smaller p, then the stronger regularization (as okr does)
    best = min(means, key=lambda pt: (means[pt], int(pt[1]), -pt[0]))
    chosen = dict(line.split(" = ", 1) for line in
                  best_cfg.read_text(encoding="utf-8").splitlines() if " = " in line)
    if (float(chosen.get("krr.lambda", "nan")) != best[0]
            or chosen.get("oel.p") != best[1]
            or float(chosen.get("oel.c", "nan")) != float(best[2])):
        errors.append(f"tune: best.cfg {chosen} is not the best grid point {best}")
    return errors, means[best], len(rows)


def load_reference() -> dict:
    if not REFERENCE.is_file():
        return {}
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def against_reference(reference: dict, workload: str, seed: int, values: dict,
                      queries: int) -> list:
    """Exact reference for recorded seeds, plausibility band otherwise."""
    entry = reference.get(workload, {})
    recorded = entry.get("seeds", {}).get(str(seed))
    errors = []
    for name, value in values.items():
        if recorded is not None and name in recorded:
            ref = recorded[name]
            tol = REL_TOL * max(1.0, abs(ref)) + FLIP_QUERIES * _FLIP_SIZE[name] / queries
            if not abs(value - ref) <= tol:
                errors.append(f"{name} = {value!r}, reference {ref!r} (tolerance {tol:.3g})")
        elif name in entry.get("bands", {}):
            lo, hi = entry["bands"][name]
            if not lo <= value <= hi:
                errors.append(f"{name} = {value!r} outside the band [{lo!r}, {hi!r}]")
    return errors
