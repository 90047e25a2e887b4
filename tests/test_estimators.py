from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize

from synthpanel import (
    DataValidationError,
    FitConfig,
    PanelData,
    SimConfig,
    UsageError,
    estimate_effect,
    fit,
    predict_counterfactual,
    simulate_panel,
)
from synthpanel.evaluation import derive_seed
from synthpanel.panel import AuxMatrix

from conftest import make_random_panel

SIMPLEX = FitConfig(regularizer="simplex", tolerance=1e-14)


@lru_cache(maxsize=None)
def simplex_grid(n_donors: int, step: int = 100) -> np.ndarray:
    """All weight vectors with entries i/step summing to 1 (stars and bars).

    Memoized on (n_donors, step): each sub-grid is built once and shared,
    so the result is read-only.
    """
    if n_donors == 1:
        grid = np.array([[step]], dtype=np.int32)
    else:
        blocks = []
        for first in range(step + 1):
            rest = simplex_grid(n_donors - 1, step - first)
            head = np.full((rest.shape[0], 1), first, dtype=np.int32)
            blocks.append(np.hstack([head, rest]))
        grid = np.vstack(blocks)
    grid.setflags(write=False)
    return grid


_GRID_CACHE: dict = {}


def grid_minimum(a: np.ndarray, y: np.ndarray, step: int = 100, chunk: int = 500_000) -> float:
    """Brute-force minimum of ||a @ b - y||^2 over the simplex grid."""
    key = (a.shape[1], step)
    if key not in _GRID_CACHE:
        _GRID_CACHE[key] = simplex_grid(a.shape[1], step).astype(np.float64) / step
    grid = _GRID_CACHE[key]
    best = np.inf
    for start in range(0, grid.shape[0], chunk):
        part = grid[start : start + chunk]
        resid = part @ a.T - y
        best = min(best, float((resid * resid).sum(axis=1).min()))
    return best


def system_panel(a: np.ndarray, y: np.ndarray) -> PanelData:
    """A panel whose pre-period system is exactly (a, y), plus one post period."""
    rows, donors = a.shape
    return PanelData(
        np.hstack([np.vstack([y, a.T]), np.zeros((donors + 1, 1))]),
        tuple(f"g{i}" for i in range(donors + 1)),
        tuple(range(1, rows + 2)),
        0,
        intervention_time=rows,
    )


class TestFitConfigValidation:
    @pytest.mark.parametrize("name", ["tolerance", "ridge_lam", "enet_lam1", "enet_lam2", "covariate_scale"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(UsageError, match=name):
            FitConfig(**{name: value})


class TestSimplexFit:
    def test_exact_match_donor(self, toy_panel):
        outcomes = toy_panel.outcomes.copy()
        outcomes[1, :4] = outcomes[0, :4]
        panel = PanelData(outcomes, toy_panel.group_labels, toy_panel.time_labels, 0, 4)
        w = fit(panel, (1, 2, 3), cfg=SIMPLEX)
        assert np.allclose(w.beta, [1.0, 0.0, 0.0], atol=1e-6)

    def test_midpoint_target(self, toy_panel):
        w = fit(toy_panel, (1, 2), cfg=SIMPLEX)
        assert np.allclose(w.beta, [0.5, 0.5], atol=1e-6)
        assert w.converged

    @pytest.mark.parametrize("n_donors,n_cases", [(2, 6), (5, 2)])
    def test_against_grid_oracle(self, n_donors, n_cases):
        rng = np.random.default_rng(17)
        for _ in range(n_cases):
            a = rng.normal(0, 1, (8, n_donors))
            y = rng.normal(0, 1, 8)
            panel = PanelData(
                np.vstack([y, a.T]),
                tuple(f"g{i}" for i in range(n_donors + 1)),
                tuple(range(1, 9)),
                0,
                intervention_time=7,
            )
            # Refit on all 8 periods by using a panel with T0 covering them.
            padded = PanelData(
                np.hstack([np.vstack([y, a.T]), np.zeros((n_donors + 1, 1))]),
                panel.group_labels,
                tuple(range(1, 10)),
                0,
                intervention_time=8,
            )
            w = fit(padded, tuple(range(1, n_donors + 1)), cfg=SIMPLEX)
            assert w.objective_value <= grid_minimum(a, y) + 1e-3

    def test_against_scipy_slsqp(self):
        rng = np.random.default_rng(5)
        a = rng.normal(0, 1, (10, 4))
        y = rng.normal(0, 1, 10)
        panel = PanelData(
            np.hstack([np.vstack([y, a.T]), np.zeros((5, 1))]),
            ("t", "a", "b", "c", "d"),
            tuple(range(1, 12)),
            0,
            intervention_time=10,
        )
        w = fit(panel, (1, 2, 3, 4), cfg=SIMPLEX)
        res = optimize.minimize(
            lambda b: ((a @ b - y) ** 2).sum(),
            np.full(4, 0.25),
            method="SLSQP",
            bounds=[(0, 1)] * 4,
            constraints=[{"type": "eq", "fun": lambda b: b.sum() - 1}],
        )
        assert w.objective_value <= res.fun + 1e-8

    @pytest.mark.parametrize("seed", [16, 30])
    def test_converges_on_large_rank_deficient_system(self, seed):
        # Entries near 1e3 put the face near 1e8 against the unit sum-to-one
        # row; the border is scaled so that lstsq does not drop the row.
        rng = np.random.default_rng(seed)
        a = rng.normal(0, 1, (19, 4)) @ rng.normal(0, 1, (4, 26)) * 1000
        y = a @ rng.dirichlet(np.ones(26)) + rng.normal(0, 10, 19)
        panel = system_panel(a, y)
        w = fit(panel, panel.donor_indices(), cfg=FitConfig(regularizer="simplex"))
        assert w.converged and w.beta.min() >= 0.0 and abs(w.beta.sum() - 1.0) <= 1e-9

    def test_feasibility_on_random_fits(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            panel = make_random_panel(rng)
            w = fit(panel, panel.donor_indices(), cfg=SIMPLEX)
            assert w.beta.min() >= -1e-12
            assert abs(w.beta.sum() - 1.0) <= 1e-9

    def test_monotone_objective_trace(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            panel = make_random_panel(rng)
            w = fit(panel, panel.donor_indices(), cfg=SIMPLEX)
            trace = np.array(w.objective_trace)
            assert np.all(np.diff(trace) <= 1e-15)

    def test_duplicate_donor_never_hurts(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            panel = make_random_panel(rng, n_groups=5)
            base = fit(panel, (1, 2, 3), cfg=SIMPLEX)
            duplicated = PanelData(
                np.vstack([panel.outcomes, panel.outcomes[1]]),
                panel.group_labels + ("dup",),
                panel.time_labels,
                0,
                panel.intervention_time,
            )
            again = fit(duplicated, (1, 2, 3, 5), cfg=SIMPLEX)
            assert again.objective_value <= base.objective_value + 1e-7


class TestClosedFormFits:
    def test_ridge_zero_equals_ols(self, toy_panel):
        ols = fit(toy_panel, (1, 2, 3), cfg=FitConfig())
        ridge = fit(toy_panel, (1, 2, 3), cfg=FitConfig(regularizer="ridge", ridge_lam=0.0))
        assert np.array_equal(ols.beta, ridge.beta)

    def test_ridge_shrinks(self, toy_panel):
        loose = fit(toy_panel, (1, 2, 3), cfg=FitConfig(regularizer="ridge", ridge_lam=0.01))
        tight = fit(toy_panel, (1, 2, 3), cfg=FitConfig(regularizer="ridge", ridge_lam=100.0))
        assert np.linalg.norm(tight.beta) < np.linalg.norm(loose.beta)

    def test_minimum_norm_on_rank_deficient(self):
        # More donors than pre-periods: solution set is affine; lstsq must
        # return the smallest-norm member (pinv solution).
        rng = np.random.default_rng(2)
        panel = make_random_panel(rng, n_groups=8, n_periods=6, t0=3)
        w = fit(panel, panel.donor_indices(), cfg=FitConfig())
        a = panel.outcomes[1:, :3].T
        y = panel.outcomes[0, :3]
        expected = np.linalg.pinv(a) @ y
        assert np.allclose(w.beta, expected, atol=1e-9)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(7)
        panel = make_random_panel(rng)
        w1 = fit(panel, panel.donor_indices(), cfg=FitConfig())
        scaled = PanelData(
            panel.outcomes * 3.5,
            panel.group_labels,
            panel.time_labels,
            0,
            panel.intervention_time,
        )
        w2 = fit(scaled, scaled.donor_indices(), cfg=FitConfig())
        assert np.allclose(w1.beta, w2.beta, atol=1e-9)
        p1 = predict_counterfactual(w1, panel)
        p2 = predict_counterfactual(w2, scaled)
        assert np.allclose(p2, 3.5 * p1, atol=1e-8)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(9)
        panel = make_random_panel(rng)
        donors = panel.donor_indices()
        w1 = fit(panel, donors, cfg=FitConfig())
        permuted = tuple(reversed(donors))
        w2 = fit(panel, permuted, cfg=FitConfig())
        assert np.allclose(w1.beta, w2.beta[::-1], atol=1e-9)
        assert np.allclose(
            predict_counterfactual(w1, panel), predict_counterfactual(w2, panel), atol=1e-9
        )


class TestElasticNet:
    def test_zero_penalty_matches_ols_objective(self, toy_panel):
        enet = fit(toy_panel, (1, 2, 3), cfg=FitConfig(regularizer="elastic_net"))
        ols = fit(toy_panel, (1, 2, 3), cfg=FitConfig())
        assert enet.objective_value == pytest.approx(ols.objective_value, abs=1e-6)

    def test_against_scipy(self):
        rng = np.random.default_rng(13)
        a = rng.normal(0, 1, (12, 4))
        y = rng.normal(0, 1, 12)
        lam1, lam2 = 0.3, 0.2
        panel = PanelData(
            np.hstack([np.vstack([y, a.T]), np.zeros((5, 1))]),
            ("t", "a", "b", "c", "d"),
            tuple(range(1, 14)),
            0,
            intervention_time=12,
        )
        cfg = FitConfig(regularizer="elastic_net", enet_lam1=lam1, enet_lam2=lam2)
        w = fit(panel, (1, 2, 3, 4), cfg=cfg)

        def objective(b):
            return ((a @ b - y) ** 2).sum() + lam1 * np.abs(b).sum() + lam2 * (b**2).sum()

        res = optimize.minimize(objective, np.zeros(4), method="Nelder-Mead", options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 20000})
        assert w.objective_value <= res.fun + 1e-6

    def test_monotone_trace(self):
        rng = np.random.default_rng(19)
        panel = make_random_panel(rng)
        cfg = FitConfig(regularizer="elastic_net", enet_lam1=0.5, enet_lam2=0.1)
        w = fit(panel, panel.donor_indices(), cfg=cfg)
        assert np.all(np.diff(w.objective_trace) <= 1e-15)
        assert w.converged

    def test_duplicate_donors_share_their_weight(self):
        # The small ridge term makes the optimum split each duplicated donor's weight evenly. The
        # relative KKT residual falls below the tolerance long before the split is made.
        rng = np.random.default_rng(0)
        half = rng.normal(0, 1, (17, 4)).cumsum(axis=0) * 100
        a = np.hstack([half, half])
        panel = system_panel(a, half @ rng.dirichlet(np.ones(4)) + rng.normal(0, 1, 17))
        cfg = FitConfig(regularizer="elastic_net", enet_lam1=0.2 * float(np.abs(a).mean()), enet_lam2=1e-3)
        w = fit(panel, panel.donor_indices(), cfg=cfg)
        assert w.converged
        assert np.allclose(w.beta[:4], w.beta[4:], rtol=1e-4)

    def test_l1_sparsifies(self):
        rng = np.random.default_rng(29)
        panel = make_random_panel(rng, n_groups=7)
        heavy = fit(panel, panel.donor_indices(), cfg=FitConfig(regularizer="elastic_net", enet_lam1=50.0))
        assert np.sum(heavy.beta == 0.0) >= 1


class TestActiveSetAgainstScipy:
    """The active-set optimum is never worse than an independent optimizer's."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(2, 8),
        donors=st.integers(1, 7),
        duplicate=st.booleans(),
        lam1=st.sampled_from([0.0, 0.05, 0.5, 3.0]),
        lam2=st.sampled_from([0.0, 0.01, 1.0]),
    )
    # lambda2 = 0 with more donors than rows: singular, inconsistent faces.
    @example(seed=5, rows=3, donors=7, duplicate=False, lam1=0.5, lam2=0.0)
    @example(seed=9, rows=2, donors=6, duplicate=True, lam1=0.05, lam2=0.0)
    def test_elastic_net_and_simplex(self, seed, rows, donors, duplicate, lam1, lam2):
        rng = np.random.default_rng(seed)
        a = rng.normal(0.0, 1.0, (rows, donors)) * rng.choice([1.0, 10.0])
        if duplicate and donors > 1:
            a[:, -1] = a[:, 0]
        y = rng.normal(0.0, 1.0, rows) * rng.choice([1.0, 10.0])
        panel = system_panel(a, y)

        def enet(b):
            return ((a @ b - y) ** 2).sum() + lam1 * np.abs(b).sum() + lam2 * (b**2).sum()

        def split(uv):  # b = u - v with u, v >= 0 makes the L1 term smooth
            u, v = uv[:donors], uv[donors:]
            grad_b = 2.0 * a.T @ (a @ (u - v) - y) + 2.0 * lam2 * (u - v)
            return enet(u - v), np.concatenate([grad_b + lam1, -grad_b + lam1])

        res = optimize.minimize(split, np.zeros(2 * donors), jac=True, method="L-BFGS-B",
                                bounds=[(0.0, None)] * (2 * donors),
                                options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 20000})
        reference = enet(res.x[:donors] - res.x[donors:])
        cfg = FitConfig(regularizer="elastic_net", enet_lam1=lam1, enet_lam2=lam2)
        w = fit(panel, panel.donor_indices(), cfg=cfg)
        assert w.objective_value <= reference + 1e-9 * max(1.0, abs(reference))
        assert w.kkt_residual <= cfg.tolerance and w.converged

        res = optimize.minimize(lambda b: ((a @ b - y) ** 2).sum(), np.full(donors, 1.0 / donors),
                                method="SLSQP", bounds=[(0.0, 1.0)] * donors,
                                constraints=[{"type": "eq", "fun": lambda b: b.sum() - 1.0}],
                                options={"ftol": 1e-15, "maxiter": 1000})
        feasible = np.clip(res.x, 0.0, None) / np.clip(res.x, 0.0, None).sum()
        reference = ((a @ feasible - y) ** 2).sum()
        cfg = FitConfig(regularizer="simplex")
        w = fit(panel, panel.donor_indices(), cfg=cfg)
        assert w.objective_value <= reference + 1e-9 * max(1.0, abs(reference))
        assert w.kkt_residual <= cfg.tolerance and w.converged


class TestKktCertificate:
    @pytest.mark.parametrize(
        "cfg",
        [FitConfig(), FitConfig(regularizer="ridge", ridge_lam=0.3), SIMPLEX,
         FitConfig(regularizer="elastic_net", enet_lam1=0.2, enet_lam2=0.1)],
        ids=["none", "ridge", "simplex", "elastic_net"],
    )
    def test_every_regularizer_reports_its_residual(self, toy_panel, cfg):
        w = fit(toy_panel, (1, 2, 3), cfg=cfg)
        assert 0.0 <= w.kkt_residual <= cfg.tolerance

    def test_residual_measures_the_returned_point(self):
        # One pass from the best vertex leaves this simplex fit short of its optimum.
        rng = np.random.default_rng(41)
        panel = make_random_panel(rng)
        full = fit(panel, panel.donor_indices(), cfg=FitConfig(regularizer="simplex"))
        short = fit(panel, panel.donor_indices(), cfg=FitConfig(regularizer="simplex", max_iterations=1))
        assert len(short.objective_trace) == 2
        assert short.kkt_residual > FitConfig().tolerance and not short.converged
        assert full.converged and full.objective_value < short.objective_value


class TestNonConvergence:
    def test_reported_in_band(self):
        rng = np.random.default_rng(41)
        panel = make_random_panel(rng)
        w = fit(panel, panel.donor_indices(), cfg=FitConfig(regularizer="simplex", max_iterations=1, tolerance=1e-16))
        assert not w.converged  # in-band, no exception


class TestFiniteSystem:
    @pytest.mark.parametrize("regularizer", ["none", "ridge", "elastic_net", "simplex"])
    def test_overflowing_normal_equations_are_rejected(self, regularizer):
        rng = np.random.default_rng(3)
        panel = make_random_panel(rng)
        huge = PanelData(panel.outcomes * 1e200, panel.group_labels, panel.time_labels, 0, panel.intervention_time)
        with pytest.raises(DataValidationError, match="overflow"):
            fit(huge, huge.donor_indices(), cfg=FitConfig(regularizer=regularizer))

    @pytest.mark.parametrize("regularizer", ["none", "ridge", "elastic_net", "simplex"])
    def test_overflowing_covariates_are_rejected(self, toy_panel, regularizer):
        # Ordinary outcomes; the covariate row's mean overflows while it is standardized, with no warning.
        aux = AuxMatrix(values=np.array([[1e308], [1.7e308], [-1.7e308], [1e308]]), covariate_labels=("u",))
        with pytest.raises(DataValidationError) as caught:
            fit(toy_panel, toy_panel.donor_indices(), aux, FitConfig(regularizer=regularizer))
        assert str(caught.value) == "outcomes or covariates too large to fit: the normal equations overflow"


    @pytest.mark.parametrize("regularizer", ["none", "ridge", "elastic_net", "simplex"])
    def test_covariate_whose_spread_overflows_is_rejected(self, toy_panel, regularizer):
        # Finite mean; the squared deviations overflow, so the row has no scale.
        aux = AuxMatrix(values=np.array([[1.0, 1e200], [2.0, -1e200], [3.0, 0.0], [4.0, 1.0]]),
                        covariate_labels=("u", "wide"))
        with pytest.raises(DataValidationError) as caught:
            fit(toy_panel, toy_panel.donor_indices(), aux, FitConfig(regularizer=regularizer))
        assert str(caught.value) == "covariate 'wide' spreads too widely to standardize: its sample variance overflows"

class TestPredictAndEffect:
    def test_weighted_combination(self):
        panel = PanelData(
            np.array([[0.0, 0.0], [10.0, 12.0], [20.0, 24.0]]),
            ("t", "a", "b"),
            (1, 2),
            0,
            intervention_time=1,
        )
        from synthpanel.estimators import WeightVector

        w = WeightVector((1, 2), np.array([0.5, 0.5]), 0.0, True, (0.0,), 0.0)
        assert np.allclose(predict_counterfactual(w, panel), [15.0, 18.0])
        w1 = WeightVector((1,), np.array([1.0]), 0.0, True, (0.0,), 0.0)
        assert np.allclose(predict_counterfactual(w1, panel), [10.0, 12.0])

    def test_tau_is_final_period_gap(self):
        # Observed 82.4 vs synthetic 90.0 at the final period.
        panel = PanelData(
            np.array([[100.0, 82.4], [100.0, 90.0]]),
            ("CA", "synth"),
            (1988, 1989),
            0,
            intervention_time=1,
        )
        from synthpanel.estimators import WeightVector

        w = WeightVector((1,), np.array([1.0]), 0.0, True, (0.0,), 0.0)
        effect = estimate_effect(w, panel)
        assert effect.tau == pytest.approx(-7.6)
        post = slice(panel.intervention_time, None)
        assert effect.synthetic[post].tolist() == [90.0]
        assert effect.gap[post].tolist() == [82.4 - 90.0]
        assert effect.gap.tolist() == (panel.outcomes[0] - effect.synthetic).tolist()
        assert not (effect.synthetic.flags.writeable or effect.gap.flags.writeable)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_gap_is_data_error(self):
        # Finite outcomes of opposite sign whose difference overflows.
        panel = PanelData(np.array([[1.0, 1.7e308], [1.0, -1.7e308]]), ("t", "d"), (1, 2), 0, intervention_time=1)
        from synthpanel.estimators import WeightVector

        w = WeightVector((1,), np.array([1.0]), 0.0, True, (0.0,), 0.0)
        with pytest.raises(DataValidationError, match="gap series is not finite"):
            estimate_effect(w, panel)

    def test_null_effect(self, toy_panel):
        w = fit(toy_panel, (1, 2), cfg=SIMPLEX)
        effect = estimate_effect(w, toy_panel)
        # Target is the exact midpoint everywhere, so all gaps vanish.
        assert np.abs(effect.gap[toy_panel.intervention_time:]).max() < 1e-9

    def test_recovers_injected_shift(self):
        # Average tau over replications approximates the true shift within
        # three Monte-Carlo standard errors.
        shift = -1.5
        taus = []
        for r in range(24):
            cfg = SimConfig(
                S_cardinality=3,
                T=16,
                T0=12,
                seed=derive_seed(77, r),
                N_per_group=2000,
                post_intervention_shift=shift,
                covariate_count=0,
            )
            study = simulate_panel(cfg)
            w = fit(study.panel, study.panel.donor_indices(), cfg=FitConfig())
            taus.append(estimate_effect(w, study.panel).tau)
        taus = np.array(taus)
        se = taus.std(ddof=1) / np.sqrt(taus.size)
        assert abs(taus.mean() - shift) <= 3 * se


class TestCovariateStacking:
    def test_zero_scale_matches_outcome_only(self, toy_panel):
        aux = AuxMatrix(
            values=np.arange(8.0).reshape(4, 2),
            covariate_labels=("u", "v"),
        )
        plain = fit(toy_panel, (1, 2, 3), cfg=FitConfig())
        stacked = fit(
            toy_panel,
            (1, 2, 3),
            aux,
            FitConfig(covariate_scale=0.0),
        )
        assert np.allclose(plain.beta, stacked.beta, atol=1e-9)

    def test_row_count_checked(self, toy_panel):
        aux = AuxMatrix(values=np.ones((2, 1)), covariate_labels=("u",))
        with pytest.raises(UsageError, match="rows"):
            fit(toy_panel, (1, 2), aux, FitConfig())


class TestValidation:
    def test_empty_donors(self, toy_panel):
        with pytest.raises(UsageError, match="empty"):
            fit(toy_panel, ())

    def test_target_not_donor(self, toy_panel):
        with pytest.raises(UsageError, match="target"):
            fit(toy_panel, (0, 1))

    def test_bad_regularizer(self):
        with pytest.raises(UsageError):
            FitConfig(regularizer="lasso")
