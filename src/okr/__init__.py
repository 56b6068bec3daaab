"""Structured prediction via output kernel regression.

Outputs are embedded into the feature space of an output kernel; a kernel
ridge regression predicts the embedded output from the input, and a
candidate-set search maps predictions back to structured objects. A low-rank
output embedding can be learned jointly from the regression predictions and
an (optionally unsupervised) output pool, which shrinks decoding from O(n)
to O(p) inner products per candidate.
"""

import importlib

__version__ = "0.1.0"

# public names by defining module. Modules load on first attribute access,
# so importing okr (or okr.cli, which caps the BLAS threads before numpy
# loads) stays cheap.
_EXPORTS = {
    "kernels": ("KernelSpec", "gram", "self_norms", "pair_values", "kemeny_embed"),
    "linalg": ("RegularizedSolver", "EigPair", "eig_topk_exact", "eig_topk_randomized",
               "PivotedCholesky", "pivoted_cholesky", "NumericalError"),
    "krr": ("KrrModel", "fit_krr", "fit_krr_nystrom", "predict_alpha", "fold_readout",
            "train_alpha_times", "select_anchors"),
    "oel": ("OelModel", "OutputFactor", "OutputSet", "fit_embedding", "mixed_gram_blocks",
            "fit_oel", "factor_outputs", "fit_oel_factored", "embed_candidates",
            "embed_inputs", "surrogate_sq_errors"),
    "decode": ("decode_oel", "decode_iokr"),
    "metrics": ("MetricReport", "rkhs_loss", "f1_example", "f1_example_mean",
                "topk_accuracy", "kendall_tau", "hamming"),
    "dataio": ("DataError", "Dataset", "ModelBundle", "Holdout", "KFold",
               "RepeatedSubsample", "load_dataset", "save_model", "load_model", "split",
               "synth_remark1"),
    "tuning": ("SearchSpace", "TrialConfig", "grid_search_ssv", "nested_cv"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
