import math
import pickle
from dataclasses import replace

import numpy as np
import pytest

from synthpanel import (
    DataValidationError,
    FitConfig,
    PanelData,
    SimConfig,
    UsageError,
    covariate_experiment,
    sweep_S,
    sweep_T_mean_median,
    time_split_evaluate,
)
from synthpanel.evaluation import (
    EXPERIMENTS,
    SweepPoint,
    derive_seed,
    run_experiment,
    score_replication,
    write_sweep_csv,
)
from synthpanel.microsim import simulate_panel


def tiny_cfg(**overrides) -> SimConfig:
    base = dict(S_cardinality=3, T=8, T0=6, seed=17, N_per_group=60, covariate_count=0)
    base.update(overrides)
    return SimConfig(**base)


def reference_point(knob, evaluations) -> SweepPoint:
    """The summary a sweep must report for these replications."""
    obs = np.array([ev.observed_mse for ev in evaluations])
    cf = np.array([ev.counterfactual_mse for ev in evaluations])
    n = len(evaluations)
    return SweepPoint(
        knob=knob,
        observed_mse=float(obs.mean()),
        counterfactual_mse=float(cf.mean()),
        se_observed=float(obs.std(ddof=1) / np.sqrt(n)),
        se_counterfactual=float(cf.std(ddof=1) / np.sqrt(n)),
        replications=n,
    )


class TestTimeSplit:
    def test_split_counts(self):
        study = simulate_panel(tiny_cfg(T=20, T0=15))
        ev = time_split_evaluate(study.panel, study.panel.donor_indices(), split=0.75)
        assert ev.n_fit == 15

    def test_degenerate_splits_rejected(self):
        study = simulate_panel(tiny_cfg(T=2, T0=1))
        with pytest.raises(UsageError):
            time_split_evaluate(study.panel, study.panel.donor_indices(), split=0.75)
        with pytest.raises(UsageError):
            time_split_evaluate(study.panel, study.panel.donor_indices(), split=1.0)

    def test_perfect_fit_zero_mse(self, toy_panel):
        ev = time_split_evaluate(toy_panel, (1, 2), FitConfig(), split=0.5)
        assert ev.observed_mse <= 1e-18
        assert ev.counterfactual_mse <= 1e-18

    @pytest.mark.filterwarnings("error")
    def test_non_finite_mse_is_data_error(self, toy_panel):
        # The fit window is ordinary; only the held-out tail overflows when squared.
        outcomes = toy_panel.outcomes.copy()
        outcomes[0, -1] = 1e200
        panel = PanelData(outcomes, toy_panel.group_labels, toy_panel.time_labels, 0, toy_panel.intervention_time)
        with pytest.raises(DataValidationError, match="MSE"):
            time_split_evaluate(panel, (1, 2), FitConfig(), split=0.5)

    def test_noiseless_degenerate_composition_regime(self):
        # With one category, empirical frequencies equal the composition, so
        # the noiseless identified panel is exactly linear and both errors
        # vanish to numerical precision.
        cfg = tiny_cfg(K=1, S_cardinality=0, noise_sd=0.0, T=12, T0=9, N_per_group=50)
        study = simulate_panel(cfg)
        ev = time_split_evaluate(study.panel, study.panel.donor_indices(), FitConfig())
        assert ev.counterfactual_mse <= 1e-10

    def test_underdetermined_flagged(self):
        study = simulate_panel(tiny_cfg(T=5, T0=3))
        ev = time_split_evaluate(study.panel, study.panel.donor_indices(), split=0.75)
        assert ev.n_fit < 5
        assert ev.underdetermined
        wide = simulate_panel(tiny_cfg(T=20, T0=15))
        assert not time_split_evaluate(wide.panel, wide.panel.donor_indices()).underdetermined


class TestSweeps:
    def test_sweep_s_deterministic(self):
        base = tiny_cfg()
        a = sweep_S(base, S_values=(2, 4), replications=3)
        b = sweep_S(base, S_values=(2, 4), replications=3)
        assert a.points == b.points
        assert tuple(p.knob for p in a.points) == (2, 4)

    def test_derive_seed_stable(self):
        assert derive_seed(42, 1, 2) == derive_seed(42, 1, 2)
        assert derive_seed(42, 1, 2) != derive_seed(42, 2, 1)

    def test_sweep_t_pairs_by_seed(self):
        base = tiny_cfg()
        mean_res, median_res = sweep_T_mean_median(base, T_values=(8, 10), replications=2)
        assert tuple(p.knob for p in mean_res.points) == tuple(p.knob for p in median_res.points) == (8, 10)
        for p in mean_res.points + median_res.points:
            assert p.replications == 2

    def test_sweep_s_equals_explicit_loop(self):
        # Each replication is an untreated study without covariates at the
        # seed derived from (master seed, knob index, replication index).
        base = tiny_cfg(N_per_group=41, covariate_count=3, post_intervention_shift=2.0)
        fit_cfg = FitConfig(regularizer="simplex")
        S_values, replications, split = (1, 4), 3, 0.7
        got = sweep_S(base, S_values, replications, fit_cfg, split)
        assert got.knob_name == "S"
        for i, s in enumerate(S_values):
            evaluations = []
            for r in range(replications):
                cfg = replace(base, S_cardinality=s, seed=derive_seed(base.seed, i, r),
                              post_intervention_shift=0.0, covariate_count=0)
                panel = simulate_panel(cfg).panel
                evaluations.append(time_split_evaluate(panel, panel.donor_indices(), fit_cfg, split))
            assert got.points[i] == reference_point(s, evaluations)

    def test_sweep_t_equals_one_sweep_per_aggregation(self):
        # The paired sweep simulates once per replication; it must score
        # exactly what a separate simulation per aggregation scores.
        base = tiny_cfg(N_per_group=41, aggregation="median", post_intervention_shift=2.0)
        fit_cfg = FitConfig(regularizer="elastic_net", enet_lam1=0.05, enet_lam2=0.01)
        T_values, replications, split = (8, 11), 3, 0.75
        mean_res, median_res = sweep_T_mean_median(base, T_values, replications, fit_cfg, split)
        for aggregation, got in (("mean", mean_res), ("median", median_res)):
            for i, t in enumerate(T_values):
                evaluations = []
                for r in range(replications):
                    cfg = replace(base, T=t, T0=min(math.ceil(split * t), t - 1), seed=derive_seed(base.seed, i, r),
                                  aggregation=aggregation, post_intervention_shift=0.0, covariate_count=0)
                    panel = simulate_panel(cfg).panel
                    evaluations.append(time_split_evaluate(panel, panel.donor_indices(), fit_cfg, split))
                assert got.points[i] == reference_point(t, evaluations)

    def test_sweeps_reject_zero_replications(self):
        base = tiny_cfg()
        with pytest.raises(UsageError, match="replications"):
            sweep_S(base, S_values=(2,), replications=0)
        with pytest.raises(UsageError, match="replications"):
            sweep_T_mean_median(base, T_values=(8,), replications=0)
        with pytest.raises(UsageError, match="replications"):
            covariate_experiment(tiny_cfg(covariate_count=2), replications=0)

    def test_sweeps_reject_empty_knob_values(self):
        base = tiny_cfg()
        with pytest.raises(UsageError, match="knob value"):
            sweep_S(base, S_values=(), replications=2)
        with pytest.raises(UsageError, match="knob value"):
            sweep_T_mean_median(base, T_values=(), replications=2)

    def test_se_shrinks_with_replications(self):
        # Light-tailed regime (single category, pure noise) so the sample
        # SDs concentrate; the seed is frozen because a 25-draw SD estimate
        # carries ~14% noise of its own.
        base = tiny_cfg(K=1, S_cardinality=0, T=12, T0=9, N_per_group=120, seed=23)
        small = sweep_S(base, S_values=(0,), replications=25)
        large = sweep_S(base, S_values=(0,), replications=100)
        ratio = large.points[0].se_counterfactual / small.points[0].se_counterfactual
        assert abs(ratio - 0.5) <= 0.125  # within 25% of the 1/sqrt(4) prediction

    def test_identified_noiseless_sweep_floor(self):
        base = tiny_cfg(K=1, S_cardinality=0, noise_sd=0.0, T=12, T0=9)
        res = sweep_S(base, S_values=(0,), replications=3)
        assert res.points[0].counterfactual_mse <= 1e-10

    @pytest.mark.parametrize(
        "run, points",
        [
            (lambda base: sweep_S(base, S_values=(2, 3), replications=2), 2),
            (lambda base: sweep_T_mean_median(base, T_values=(4, 5), replications=2), 2),
            (lambda base: covariate_experiment(base, replications=2), 1),
            (lambda base: run_experiment("S", base, (2, 3), replications=2), 2),
            (lambda base: run_experiment("T", base, (4, 5), replications=2), 2),
            (lambda base: run_experiment("covariates", base, (5,), replications=2), 1),
        ],
        ids=["S", "T", "covariates", "run_experiment-S", "run_experiment-T", "run_experiment-covariates"],
    )
    def test_warns_when_underdetermined(self, run, points):
        # One warning per knob point, attributed to the line that called the public function: the lambda's.
        base = tiny_cfg(T=5, T0=3, covariate_count=2)
        with pytest.warns(UserWarning, match="underdetermined") as record:
            run(base)
        assert len(record) == points
        assert all((w.filename, w.lineno) == (__file__, run.__code__.co_firstlineno) for w in record)


EXPERIMENT_RUNS = {
    "S": lambda base: sweep_S(base, S_values=(2, 4), replications=2).points,
    "T": lambda base: tuple(r.points for r in sweep_T_mean_median(base, T_values=(8, 10), replications=2)),
    "covariates": lambda base: covariate_experiment(base, replications=2).points,
}


SIMPLEX_FIT = FitConfig(regularizer="simplex")


@pytest.mark.parametrize(
    "experiment, knob_values, files, wrapper",
    [
        ("S", (2, 4), ["sweep.csv"], lambda base: [sweep_S(base, (2, 4), 2, SIMPLEX_FIT, 0.7)]),
        ("T", (8, 10), ["sweep_mean.csv", "sweep_median.csv"],
         lambda base: sweep_T_mean_median(base, (8, 10), 2, SIMPLEX_FIT, 0.7)),
        ("covariates", (8,), ["covariates.csv"], lambda base: [covariate_experiment(base, 2, SIMPLEX_FIT, 0.7)]),
    ],
)
def test_run_experiment_equals_its_wrapper(experiment, knob_values, files, wrapper):
    # Each file's result is the wrapper's, in order. The base's own T is the covariate study's knob value.
    base = tiny_cfg(T=8, covariate_count=2, N_per_group=41)
    got = run_experiment(experiment, base, knob_values, 2, SIMPLEX_FIT, 0.7)
    expected = wrapper(base)
    assert list(got) == files and len(expected) == len(files)
    for result, reference in zip(got.values(), expected):
        assert (result.knob_name, result.points) == (reference.knob_name, reference.points)


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_fields_an_experiment_sets_do_not_reach_it(experiment):
    # A base that differs in every field the experiment sets gives the same
    # points. The covariate experiment runs at the base's own T, its knob value.
    field, constants, _ = EXPERIMENTS[experiment]
    fields = {*constants, field} if experiment != "covariates" else set(constants)
    other_values = dict(S_cardinality=7, T=12, T0=2, aggregation="median", post_intervention_shift=2.0,
                        covariate_count=4)
    base = tiny_cfg(covariate_count=2, N_per_group=41)
    other = replace(base, **{name: other_values[name] for name in fields})
    assert fields and all(getattr(other, name) != getattr(base, name) for name in fields)
    assert EXPERIMENT_RUNS[experiment](other) == EXPERIMENT_RUNS[experiment](base)


@pytest.mark.parametrize("experiment, knob", [("S", 4), ("T", 8), ("covariates", 8)])
def test_replication_round_trips_through_pickle(experiment, knob):
    # A process pool sends the function and its arguments to a worker and the evaluations back.
    field, constants, evaluators = EXPERIMENTS[experiment]
    cfg = replace(tiny_cfg(covariate_count=2, N_per_group=41), **constants, **{field: knob})
    call = (score_replication, (experiment, cfg, FitConfig(regularizer="elastic_net", enet_lam1=0.05), 0.75))
    function, args = pickle.loads(pickle.dumps(call))
    evaluations = pickle.loads(pickle.dumps(function(*args)))
    assert list(evaluations) == list(evaluators)
    assert evaluations == score_replication(*call[1])


def test_replications_summarize_to_the_sweep_in_any_order():
    # The sweep's points depend on each replication's evaluations, not on the order they were scored in.
    base = tiny_cfg(N_per_group=41)
    fit_cfg, split = FitConfig(regularizer="simplex"), 0.75
    T_values, replications = (8, 10), 3
    field, constants, evaluators = EXPERIMENTS["T"]
    cells = [(i, t, r) for i, t in enumerate(T_values) for r in range(replications)]
    scored = {}
    for i, t, r in reversed(cells):
        cfg = replace(base, seed=derive_seed(base.seed, i, r), **constants, **{field: t})
        scored[i, r] = score_replication("T", cfg, fit_cfg, split)
    expected = tuple(
        tuple(reference_point(t, [scored[i, r][name] for r in range(replications)]) for i, t in enumerate(T_values))
        for name in evaluators
    )
    got = sweep_T_mean_median(base, T_values, replications, fit_cfg, split)
    assert tuple(result.points for result in got) == expected


class TestCovariateExperiment:
    def test_three_paired_rows(self):
        base = tiny_cfg(T=8, T0=6, covariate_count=2, N_per_group=80)
        res = covariate_experiment(base, replications=3)
        assert tuple(p.knob for p in res.points) == ("outcome_only", "suitable", "unsuitable")
        assert all(p.replications == 3 for p in res.points)

    def test_requires_covariates(self):
        # The message names the experiment the user ran, not the function that ran it.
        message = "^the covariates experiment needs covariate_count >= 1$"
        with pytest.raises(UsageError, match=message):
            covariate_experiment(tiny_cfg(covariate_count=0), replications=2)
        with pytest.raises(UsageError, match=message):
            run_experiment("covariates", tiny_cfg(covariate_count=0), (8,), replications=2)

    def test_deterministic(self):
        base = tiny_cfg(covariate_count=2, N_per_group=80)
        assert covariate_experiment(base, replications=2).points == covariate_experiment(base, replications=2).points

    def test_equals_explicit_loop(self):
        # Every row scores the same untreated study, seeded as knob index 0.
        base = tiny_cfg(T=10, T0=7, covariate_count=2, N_per_group=41, post_intervention_shift=2.0)
        fit_cfg = FitConfig(covariate_scale=0.3)
        replications, split = 3, 0.75
        got = covariate_experiment(base, replications, fit_cfg, split)
        rows = {"outcome_only": [], "suitable": [], "unsuitable": []}
        for r in range(replications):
            study = simulate_panel(replace(base, seed=derive_seed(base.seed, 0, r), post_intervention_shift=0.0))
            donors = study.panel.donor_indices()
            rows["outcome_only"].append(time_split_evaluate(study.panel, donors, fit_cfg, split))
            rows["suitable"].append(time_split_evaluate(study.panel, donors, fit_cfg, split, study.aux_suitable))
            rows["unsuitable"].append(time_split_evaluate(study.panel, donors, fit_cfg, split, study.aux_unsuitable))
        assert got.knob_name == "covariates"
        assert got.points == tuple(reference_point(row, evaluations) for row, evaluations in rows.items())


class TestCsvOutput:
    def test_schema_and_rows(self, tmp_path):
        base = tiny_cfg()
        res = sweep_S(base, S_values=(2, 3, 4), replications=2)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(res, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "knob,observed_mse,counterfactual_mse,se_observed,se_counterfactual,replications"
        assert len(lines) == 4
        fields = lines[1].split(",")
        assert fields[0] == "2" and fields[5] == "2"
        float(fields[1]), float(fields[2])  # parse cleanly
