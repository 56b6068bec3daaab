import numpy as np
import pytest

import okr
from okr import dataio, kernels, oel, tuning


def make_dense_dataset(seed=0, n=40, m=20, d_in=3, d_out=4):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d_in))
    W = rng.standard_normal((d_in, d_out))
    Y = X @ W + 0.1 * rng.standard_normal((n, d_out))
    Yu = rng.standard_normal((m, d_in)) @ W + 0.1 * rng.standard_normal((m, d_out))
    return dataio.Dataset(output_kind="dense", x=X, y_sup=Y, y_unsup=Yu)


LIN = kernels.KernelSpec("linear")
GAUSS = kernels.KernelSpec("gaussian", sigma2=4.0)


class TestSearchSpace:
    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            tuning.SearchSpace(lams=())

    def test_c_grid_range(self):
        with pytest.raises(ValueError, match="within"):
            tuning.SearchSpace(lams=(0.1,), cs=(1.5,))

    def test_cartesian_product(self):
        space = tuning.SearchSpace(lams=(0.1, 1.0), ps=(1, 2), cs=(0.5,))
        assert len(space.configs()) == 4

    def test_default_space_caps_p(self):
        space = tuning.default_space(10)
        assert max(space.ps) <= 10
        assert len(space.lams) == 8


class TestGridSearchSsv:
    def test_single_point_grid(self):
        ds = make_dense_dataset()
        space = tuning.SearchSpace(lams=(0.1,), ps=(2,), cs=(0.5,))
        result = tuning.grid_search_ssv(ds, space, GAUSS, LIN, reps=3, seed=1)
        assert result.best == space.configs()[0]
        assert len(result.rows) == 3
        assert all(r.score is not None for r in result.rows)

    def test_table_rows_grid_times_reps(self):
        ds = make_dense_dataset()
        space = tuning.SearchSpace(lams=(0.1, 0.01), ps=(1, 2), cs=(0.5,))
        result = tuning.grid_search_ssv(ds, space, GAUSS, LIN, reps=4, seed=2)
        assert len(result.rows) == len(space.configs()) * 4
        lines = list(result.table_lines())
        assert len(lines) == 1 + len(result.rows)

    def test_selected_score_equals_table_optimum(self):
        ds = make_dense_dataset()
        space = tuning.SearchSpace(lams=(1.0, 1e-3), ps=(1, 3), cs=(0.25, 1.0))
        result = tuning.grid_search_ssv(ds, space, GAUSS, LIN, reps=2, seed=3)
        means = [s[1] for s in result.summary if s[1] is not None]
        assert result.best_score == min(means)   # surrogate_mse: lower is better

    def test_deterministic(self):
        ds = make_dense_dataset()
        space = tuning.SearchSpace(lams=(0.1, 0.01), ps=(2,), cs=(0.5,))
        r1 = tuning.grid_search_ssv(ds, space, GAUSS, LIN, reps=2, seed=9)
        r2 = tuning.grid_search_ssv(ds, space, GAUSS, LIN, reps=2, seed=9)
        assert r1.best == r2.best
        assert [r.score for r in r1.rows] == [r.score for r in r2.rows]

    def test_share_krr_identical_results(self):
        ds = make_dense_dataset()
        space = tuning.SearchSpace(lams=(0.1, 0.01), ps=(1, 2, 3), cs=(0.25, 0.75))
        plain = tuning.grid_search_ssv(ds, space, GAUSS, LIN, reps=2, seed=4)
        shared = tuning.grid_search_ssv(ds, space, GAUSS, LIN, reps=2, seed=4,
                                        share_krr=True)
        assert plain.best == shared.best
        assert [r.score for r in plain.rows] == [r.score for r in shared.rows]

    def test_tie_breaks_toward_smaller_p(self):
        # the outputs have rank 4, so p=4 and p=5 give bitwise-identical
        # fits; the tie rule must pick the smaller p
        ds = make_dense_dataset(n=25, m=0)
        wide = tuning.SearchSpace(lams=(0.1,), ps=(4, 5), cs=(1.0,))
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = tuning.grid_search_ssv(ds, wide, GAUSS, LIN, reps=2, seed=5)
        by_p = {cfg.p: mean for cfg, mean, _, _ in result.summary}
        assert by_p[4] == by_p[5]          # genuine tie
        assert result.best.p == 4

    def test_failures_recorded_not_fatal(self):
        ds = make_dense_dataset(m=0)            # no unsupervised pool
        space = tuning.SearchSpace(lams=(0.1,), ps=(2,), cs=(0.5, 1.0))  # c<1 invalid
        result = tuning.grid_search_ssv(ds, space, GAUSS, LIN, reps=2, seed=6)
        failed = [r for r in result.rows if r.score is None]
        assert len(failed) == 2 and all("requires c = 1" in r.error or
                                        "unsupervised" in r.error for r in failed)
        assert result.best.c == 1.0

    def test_all_failures_fatal(self):
        ds = make_dense_dataset(m=0)
        space = tuning.SearchSpace(lams=(0.1,), ps=(2,), cs=(0.5,))
        with pytest.raises(RuntimeError, match="every grid point failed"):
            tuning.grid_search_ssv(ds, space, GAUSS, LIN, reps=2, seed=7)

    def test_unknown_metric(self):
        ds = make_dense_dataset()
        space = tuning.SearchSpace(lams=(0.1,))
        with pytest.raises(ValueError, match="unknown metric"):
            tuning.grid_search_ssv(ds, space, GAUSS, LIN, metric="bleu")

    def test_supervised_balance_wins_on_benefit_construction(self):
        # oracle: the two mean validation losses compared directly
        ds = dataio.synth_remark1(n=300, m=300, n_test=1, sigma2_x=1.0,
                                  sigma2_z=4.0, seed=11)
        space = tuning.SearchSpace(lams=(1e-4,), ps=(1,), cs=(0.0, 1.0))
        result = tuning.grid_search_ssv(ds, space, LIN, LIN, reps=5, seed=12)
        assert result.best.c == 1.0
        by_c = {cfg.c: mean for cfg, mean, _, _ in result.summary}
        assert by_c[1.0] < by_c[0.0]

    def test_iokr_rows_supported(self):
        ds = make_dense_dataset()
        space = tuning.SearchSpace(lams=(0.1, 0.01))     # p=None, c=None: IOKR
        result = tuning.grid_search_ssv(ds, space, GAUSS, LIN, reps=2, seed=13)
        assert result.best.p is None

    @pytest.mark.parametrize("metric", ["rkhs_loss", "top1_accuracy"])
    def test_decoded_metrics_run(self, metric):
        ds = make_dense_dataset(n=25, m=10)
        space = tuning.SearchSpace(lams=(0.01,), ps=(2,), cs=(0.5,))
        result = tuning.grid_search_ssv(ds, space, GAUSS, LIN, metric=metric,
                                        reps=2, seed=14)
        assert all(r.score is not None for r in result.rows)

    def test_f1_metric_on_bitsets(self):
        rng = np.random.default_rng(15)
        X = rng.standard_normal((30, 3))
        Y = (X @ rng.standard_normal((3, 6)) > 0).astype(float)
        Y[Y.sum(axis=1) == 0, 0] = 1.0
        ds = dataio.Dataset(output_kind="bitset", x=X, y_sup=Y)
        space = tuning.SearchSpace(lams=(0.01,), ps=(2,), cs=(1.0,))
        result = tuning.grid_search_ssv(ds, space, GAUSS,
                                        kernels.KernelSpec("gaussian", sigma2=0.5),
                                        metric="f1", reps=2, seed=16)
        assert 0.0 <= result.best_score <= 1.0

    @pytest.mark.filterwarnings("ignore:only 1 of the requested")
    def test_kendall_metric_on_permutations(self):
        rng = np.random.default_rng(17)
        base = np.array([1, 2, 3, 4])
        X, P = [], []
        for _ in range(24):
            flip = rng.random() < 0.5
            X.append([1.0 if flip else -1.0, rng.standard_normal()])
            P.append(base[::-1] if flip else base)
        ds = dataio.Dataset(output_kind="permutation", x=np.array(X),
                            y_sup=np.array(P))
        space = tuning.SearchSpace(lams=(1e-3,), ps=(2,), cs=(1.0,))
        result = tuning.grid_search_ssv(ds, space, GAUSS, LIN,
                                        metric="kendall_tau", reps=2, seed=18)
        assert result.best_score > 0.9          # trivially predictable ranking

    def test_no_leakage_of_validation_outputs(self):
        # the unsupervised pool fed to the embedding comes from y_unsup only,
        # never from held-out supervised rows
        ds = make_dense_dataset(n=30, m=7)
        splits = dataio.split(ds.n, dataio.RepeatedSubsample(0.8, 3), seed=0)
        for tr, va in splits:
            cache = tuning._FoldCache(ds, tr, va, GAUSS, LIN, False, 0)
            outputs = cache.outputs(None)
            assert outputs.K_uu.shape == (7, 7)
            assert outputs.K_su.shape == (tr.size, 7)


class TestNestedCv:
    def test_fold_arithmetic(self):
        ds = make_dense_dataset(n=25, m=0)
        space = tuning.SearchSpace(lams=(0.1,), ps=(2,), cs=(1.0,))
        result = tuning.nested_cv(ds, space, GAUSS, LIN, outer=5, inner=4, seed=1)
        assert len(result.fold_scores) == 5
        assert result.report.reps == 5

    def test_deterministic(self):
        ds = make_dense_dataset(n=25, m=0)
        space = tuning.SearchSpace(lams=(0.1, 0.01), ps=(1, 2), cs=(1.0,))
        a = tuning.nested_cv(ds, space, GAUSS, LIN, outer=3, inner=3, seed=2)
        b = tuning.nested_cv(ds, space, GAUSS, LIN, outer=3, inner=3, seed=2)
        assert a.fold_configs == b.fold_configs
        assert a.fold_scores == b.fold_scores

    def test_single_point_grid_equals_plain_cv(self):
        # oracle: score the one config on each outer fold directly
        ds = make_dense_dataset(n=30, m=0)
        lam, p = 0.05, 2
        space = tuning.SearchSpace(lams=(lam,), ps=(p,), cs=(1.0,))
        seed = 4
        result = tuning.nested_cv(ds, space, GAUSS, LIN, outer=5, inner=3, seed=seed)

        outer_splits = dataio.split(ds.n, dataio.KFold(5),
                                    dataio.named_seed(seed, "outer"))
        for (tr, te), got in zip(outer_splits, result.fold_scores):
            K_x = kernels.gram(GAUSS, ds.x[tr])
            kappa = kernels.gram(GAUSS, ds.x[tr], ds.x[te])
            krr_model = okr.fit_krr(K_x, lam)
            model = okr.fit_embedding(krr_model, K_x, okr.OutputSet(LIN, ds.y_sup[tr]), p)
            Z_test = okr.embed_inputs(model, kappa)
            C_true = kernels.gram(LIN, model.reference_outputs(ds.y_sup[tr]), ds.y_sup[te])
            Z_true = okr.embed_candidates(model, C_true)
            errs = oel.surrogate_sq_errors(Z_test, Z_true,
                                           kernels.self_norms(LIN, ds.y_sup[te]))
            assert got == pytest.approx(float(np.mean(errs)), abs=1e-10)


class TestSharedFactor:
    """tune factors the outputs once per fold and output width, with and
    without --share-krr; sharing the ridge also shares its A F_s."""

    @pytest.mark.parametrize("share_krr", [False, True], ids=["plain", "share_krr"])
    def test_factor_once_per_fold_and_width(self, monkeypatch, share_krr):
        factored, alpha_products = [], []
        real_factor, real_times = oel.factor_outputs, oel.train_alpha_times

        def counting_factor(spec, Y_sup, Y_unsup=None):
            factored.append(spec.sigma2)
            return real_factor(spec, Y_sup, Y_unsup)

        def counting_times(*args):
            alpha_products.append(1)
            return real_times(*args)

        monkeypatch.setattr(oel, "factor_outputs", counting_factor)
        monkeypatch.setattr(oel, "train_alpha_times", counting_times)
        # 1-d outputs: the Gaussian output factor has rank 8 to 13 here
        ds = make_dense_dataset(n=60, m=30, d_out=1)
        space = tuning.SearchSpace(lams=(0.1, 0.01), ps=(1, 2, 3), cs=(0.5, 1.0),
                                   sigma2_outs=(4.0, 50.0))
        result = tuning.grid_search_ssv(ds, space, GAUSS, GAUSS, reps=3, seed=5,
                                        share_krr=share_krr)
        assert all(r.error is None for r in result.rows)
        # 3 folds x 2 output widths, each width factored once per fold
        assert sorted(factored) == [4.0] * 3 + [50.0] * 3
        # every grid point took the factored path: one A F_s per fit, or one
        # per (fold, ridge, width) when the ridge is shared
        assert len(alpha_products) == (3 * 2 * 2 if share_krr else len(result.rows))
