"""Task losses and scores: squared feature-space loss, example-based F1,
top-k accuracy over rankings, Kendall's tau, Hamming distance."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .kernels import check_permutation

# the scores tune selects a grid point by, split by the direction that is better
LOWER_BETTER = {"surrogate_mse", "rkhs_loss", "hamming"}
HIGHER_BETTER = {"f1", "kendall_tau", "top1_accuracy"}
METRICS = LOWER_BETTER | HIGHER_BETTER


@dataclass(frozen=True)
class MetricReport:
    """Point estimate with its standard error over repetitions (folds,
    random splits, or test examples); std_error is None below 2 reps."""

    name: str
    estimate: float
    std_error: float | None
    reps: int

    def __str__(self) -> str:
        if self.std_error is None:
            return f"{self.name}: {self.estimate:.4f} (1 rep)"
        return f"{self.name}: {self.estimate:.4f} +- {self.std_error:.4f} ({self.reps} reps)"


def report_from_values(name: str, values) -> MetricReport:
    values = np.asarray(values, dtype=np.float64)
    reps = values.size
    if reps == 0:
        raise ValueError(f"no values to aggregate for metric {name!r}")
    se = float(np.std(values, ddof=1) / np.sqrt(reps)) if reps >= 2 else None
    return MetricReport(name=name, estimate=float(np.mean(values)), std_error=se, reps=reps)


def rkhs_loss(k_yy, k_pp, k_yp):
    """Squared feature-space distance ||psi(y) - psi(y')||^2 from the three
    kernel evaluations k(y,y), k(y',y'), k(y,y'). Elementwise on arrays."""
    loss = np.asarray(k_yy, dtype=np.float64) + k_pp - 2.0 * np.asarray(k_yp, dtype=np.float64)
    if np.min(loss) < -1e-8:
        raise ValueError(f"negative squared distance {np.min(loss):.3g}: "
                         "kernel inputs are inconsistent")
    return loss if loss.ndim else float(loss)


def _as_bits(y, what: str) -> np.ndarray:
    y = np.asarray(y)
    if not np.all((y == 0) | (y == 1)):
        raise ValueError(f"{what} must be a 0/1 label vector")
    return y != 0


def f1_example(true_labels, pred_labels) -> float:
    """Example-based F1 = 2|T & P| / (|T| + |P|) of two label bitsets; both
    empty counts as a perfect 1.0 (predicting "no labels" correctly)."""
    t = _as_bits(true_labels, "true_labels")
    p = _as_bits(pred_labels, "pred_labels")
    if t.shape != p.shape:
        raise ValueError(f"label universes differ: {t.shape} vs {p.shape}")
    denom = t.sum() + p.sum()
    if denom == 0:
        return 1.0
    return float(2.0 * np.count_nonzero(t & p) / denom)


def f1_example_mean(Y_true, Y_pred) -> float:
    """Mean example-based F1 over the rows of two stacked bitset matrices."""
    T = np.atleast_2d(np.asarray(Y_true))
    P = np.atleast_2d(np.asarray(Y_pred))
    if T.shape != P.shape:
        raise ValueError(f"shapes differ: {T.shape} vs {P.shape}")
    return float(np.mean([f1_example(t, p) for t, p in zip(T, P)]))


def truth_ranks(ids, truth) -> np.ndarray:
    """1-based rank of each query's true candidate in its ranking, inf where
    the ranking does not contain it. ids holds the ranked candidate ids, one
    row per query (padding -1 as the decoders return it), truth the true
    candidate index per query."""
    ids = np.asarray(ids)
    truth = np.asarray(truth)
    if ids.shape[0] != truth.size:
        raise ValueError(f"{ids.shape[0]} rankings for {truth.size} truths")
    hit = (ids == truth[:, None]) & (ids >= 0)
    return np.where(hit.any(axis=1), hit.argmax(axis=1) + 1.0, np.inf)


def topk_accuracy(ids, truth, ks) -> dict[int, float]:
    """Fraction of queries whose true candidate appears within rank <= k;
    ids and truth as in truth_ranks.

    A truth missing from its ranking counts as a miss at every k and
    triggers a warning (candidate sets are expected to contain the truth).
    """
    positions = truth_ranks(ids, truth)
    missing = int(np.count_nonzero(np.isinf(positions)))
    if missing:
        warnings.warn(f"{missing} of {positions.size} queries have no true candidate in their "
                      "ranking; counted as misses", stacklevel=2)
    return {int(k): float(np.mean(positions <= k)) for k in ks}


def kendall_tau(ranks_a, ranks_b) -> float:
    """Kendall's tau of two permutations given as rank vectors:
    (concordant - discordant) / (K(K-1)/2)."""
    a = check_permutation(ranks_a)
    b = check_permutation(ranks_b)
    if a.size != b.size:
        raise ValueError(f"permutations rank different item counts: {a.size} vs {b.size}")
    if a.size < 2:
        raise ValueError("Kendall's tau needs at least 2 items")
    ii, jj = np.triu_indices(a.size, k=1)
    agree = np.sign(a[jj] - a[ii]) * np.sign(b[jj] - b[ii])
    return float(np.sum(agree)) / ii.size


def hamming(y, y_other) -> int:
    """Number of differing positions between two equal-length vectors."""
    a = np.asarray(y)
    b = np.asarray(y_other)
    if a.shape != b.shape:
        raise ValueError(f"shapes differ: {a.shape} vs {b.shape}")
    return int(np.count_nonzero(a != b))
