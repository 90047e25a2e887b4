"""Acceptance suite: one test per criterion, each printing a PASS line.

Spread/flatness gates are implemented as the coefficient of variation
(population standard deviation divided by the mean) over the relevant
replication means. Run with `pytest tests/test_acceptance.py -s` to see
the per-criterion lines.
"""

import json
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from synthpanel import (
    FitConfig,
    SimConfig,
    aggregate_divisions,
    covariate_experiment,
    fit,
    from_csv,
    minimal_invariant_set,
    predict_counterfactual,
    simulate_panel,
    solve_oracle_weights,
    sweep_S,
    sweep_T_mean_median,
    to_csv,
    verify_identification,
)
from synthpanel.cli import main as cli_main
from synthpanel.evaluation import derive_seed
from synthpanel.microsim import _stream, sample_compositions

from test_estimators import grid_minimum, SIMPLEX


def relative_spread(values) -> float:
    """Coefficient of variation: population std / mean."""
    values = np.asarray(values, dtype=float)
    return float(values.std() / values.mean())


def test_criterion_1_identification_oracle_suite():
    """Identified regime: oracle weights exist and verify at 1e-8 for all t."""
    started = time.monotonic()
    cardinalities = (0, 2, 3, 4, 5)  # |S| = 1 is vacuous for probability vectors
    passed = 0
    for seed in range(100):
        s = cardinalities[seed % len(cardinalities)]
        cfg = SimConfig(
            S_cardinality=s, T=20, T0=15, seed=seed, N_per_group=50, covariate_count=0
        )
        study = simulate_panel(cfg)
        donors = study.panel.donor_indices()
        report = minimal_invariant_set(study.compositions, 0, donors, tol=1e-9)
        assert set(report.S_indices) == set(study.true_S)
        assert report.a3_holds and report.a4_holds
        weights = solve_oracle_weights(study.compositions, 0, donors, report.S_indices, tol=1e-9)
        if weights.exists and verify_identification(study, weights, tol=1e-8):
            passed += 1
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE 1: PASS ({passed}/100 verified, {elapsed:.1f}s <= 30s)")
    assert passed == 100
    assert elapsed <= 30.0


def test_criterion_2_infeasibility_suite():
    """|S| = |D| + 1 with generic compositions is infeasible almost always."""
    infeasible = 0
    for seed in range(100):
        cfg = SimConfig(S_cardinality=6, T=4, T0=2, seed=1000 + seed, N_per_group=2, covariate_count=0)
        compositions, true_s = sample_compositions(cfg, _stream(cfg.seed, 0))
        weights = solve_oracle_weights(compositions, 0, tuple(range(1, 6)), sorted(true_s), tol=1e-6)
        infeasible += int(not weights.exists)
    print(f"ACCEPTANCE 2: PASS ({infeasible}/100 infeasible >= 95)")
    assert infeasible >= 95


def test_criterion_3_cardinality_sweep():
    """Counterfactual error jumps past the donor count; observed stays flat."""
    started = time.monotonic()
    base = SimConfig(S_cardinality=5, T=20, T0=15, seed=42, N_per_group=2000)
    result = sweep_S(base, S_values=tuple(range(2, 12)), replications=100, fit_cfg=FitConfig())
    elapsed = time.monotonic() - started
    observed = np.array([p.observed_mse for p in result.points])
    counterfactual = {p.knob: p.counterfactual_mse for p in result.points}
    ratio = counterfactual[11] / counterfactual[2]
    flatness = relative_spread(observed)
    print(
        f"ACCEPTANCE 3: PASS (cf(11)/cf(2) = {ratio:.2f} >= 3, observed CV = {flatness:.2f} <= 0.5, "
        f"{elapsed:.0f}s <= 300s)"
    )
    assert ratio >= 3.0
    assert flatness <= 0.5
    assert elapsed <= 300.0


def test_criterion_4_horizon_sweep_mean_vs_median():
    """Mean channel stays near its fit error at every horizon; the median
    channel's counterfactual error is far worse at the longest horizon."""
    base = SimConfig(S_cardinality=5, T=20, T0=15, seed=42, N_per_group=2000, ramp_scale=0.0)
    fit_cfg = FitConfig(regularizer="elastic_net", enet_lam1=0.05, enet_lam2=0.01)
    mean_res, median_res = sweep_T_mean_median(
        base, T_values=tuple(range(20, 91, 10)), replications=60, fit_cfg=fit_cfg
    )
    ratios = {p.knob: p.counterfactual_mse / p.observed_mse for p in mean_res.points}
    separation = median_res.points[-1].counterfactual_mse / mean_res.points[-1].counterfactual_mse
    worst = max(ratios.values())
    print(
        f"ACCEPTANCE 4: PASS (mean cf/obs worst = {worst:.2f} <= 2 over T in 20..90, "
        f"median/mean cf at T=90 = {separation:.2f} >= 3)"
    )
    assert all(r <= 2.0 for r in ratios.values()), ratios
    assert separation >= 3.0


def test_criterion_5_covariate_study():
    """Unsuitable covariates hurt, suitable ones do not, and the observed
    errors alone cannot tell the rows apart."""
    base = SimConfig(S_cardinality=5, T=15, T0=11, seed=11, N_per_group=2000, covariate_count=10)
    result = covariate_experiment(base, replications=100, fit_cfg=FitConfig(covariate_scale=0.15))
    rows = {p.knob: p for p in result.points}
    cf = {k: rows[k].counterfactual_mse for k in rows}
    observed = [rows[k].observed_mse for k in rows]
    spread = relative_spread(observed)
    print(
        "ACCEPTANCE 5: measured cf MSE "
        f"outcome-only {cf['outcome_only']:.4f}, suitable {cf['suitable']:.4f}, "
        f"unsuitable {cf['unsuitable']:.4f}; observed CV {spread:.2f}."
    )
    print(
        "ACCEPTANCE 5: reference magnitudes (not toleranced): "
        "outcome-only .07+-.03/.14+-.05, suitable .06+-.02/.13+-.05, unsuitable .06+-.02/.24+-.13"
    )
    print(
        f"ACCEPTANCE 5: PASS (unsuitable {cf['unsuitable']:.4f} > outcome-only {cf['outcome_only']:.4f} "
        f">= suitable {cf['suitable']:.4f}; observed CV {spread:.2f} <= 0.3)"
    )
    assert cf["unsuitable"] > cf["outcome_only"]
    assert cf["outcome_only"] >= cf["suitable"]
    assert spread <= 0.3


def test_criterion_6_simplex_solver_vs_grid():
    """Solver matches a brute-force simplex grid and stays feasible."""
    rng = np.random.default_rng(2024)
    worst_gap = -np.inf
    cases = [(2, 50), (5, 20)]
    for n_donors, n_problems in cases:
        for _ in range(n_problems):
            t0 = int(rng.integers(6, 13))
            a = rng.normal(0.0, 1.0, (t0, n_donors))
            y = rng.normal(0.0, 1.0, t0)
            from synthpanel import PanelData

            panel = PanelData(
                np.hstack([np.vstack([y, a.T]), np.zeros((n_donors + 1, 1))]),
                tuple(f"g{i}" for i in range(n_donors + 1)),
                tuple(range(1, t0 + 2)),
                0,
                intervention_time=t0,
            )
            w = fit(panel, tuple(range(1, n_donors + 1)), cfg=SIMPLEX)
            assert w.beta.min() >= -1e-12
            assert abs(w.beta.sum() - 1.0) <= 1e-9
            gap = w.objective_value - grid_minimum(a, y)
            worst_gap = max(worst_gap, gap)
            assert gap <= 1e-3
    print(f"ACCEPTANCE 6: PASS (70 problems, worst objective gap vs grid = {worst_gap:.2e} <= 1e-3)")


PROP99_PATH = os.environ.get("SYNTHPANEL_PROP99")


@pytest.mark.skipif(
    not PROP99_PATH,
    reason="set SYNTHPANEL_PROP99 to a long-format Prop-99 CSV (group,time,outcome,population)",
)
def test_criterion_7_divisional_prop99():
    """Divisional donors: weight concentrates on Mountain plus New England."""
    divisions = aggregate_divisions(from_csv(PROP99_PATH, target="California", intervention_time=19))
    donors = divisions.donor_indices()
    weights = fit(divisions, donors, cfg=SIMPLEX)
    by_label = {divisions.group_labels[j]: b for j, b in zip(weights.donor_indices, weights.beta)}
    nonzero = {label for label, b in by_label.items() if b > 0.01}
    synthetic = predict_counterfactual(weights, divisions)
    t0 = divisions.intervention_time
    target = divisions.outcomes[divisions.target_index]
    rmse = float(np.sqrt(np.mean((target[:t0] - synthetic[:t0]) ** 2)))
    uniform = divisions.outcomes[list(donors), :t0].mean(axis=0)
    rmse_uniform = float(np.sqrt(np.mean((target[:t0] - uniform) ** 2)))
    print(
        f"ACCEPTANCE 7: PASS (Mountain weight {by_label['Mountain']:.2f} >= 0.8, "
        f"nonzero = {sorted(nonzero)}, RMSE {rmse:.2f} < uniform {rmse_uniform:.2f})"
    )
    assert by_label["Mountain"] >= 0.8
    assert nonzero == {"Mountain", "New England"}
    assert rmse < rmse_uniform


def test_criterion_8_byte_identical_reruns(tmp_path):
    """Reruns with identical config and seed write identical bytes, in every file."""
    runs = 0

    def run_twice(args):
        nonlocal runs
        runs += 1
        d1, d2 = tmp_path / f"a{runs}", tmp_path / f"b{runs}"
        assert cli_main([*args, "--out", str(d1), "--quiet"]) == 0
        assert cli_main([*args, "--out", str(d2), "--quiet"]) == 0
        names = sorted(p.name for p in d1.iterdir())
        assert "manifest.json" in names and names == sorted(p.name for p in d2.iterdir())
        for name in names:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name
        return names

    assert len(run_twice(["simulate", "--seed", "7", "--individuals", "80"])) == 5
    run_twice(
        ["sweep", "--knob", "S", "--from", "2", "--to", "4", "--replications", "2", "--individuals", "40", "--seed", "9"]
    )
    assert run_twice(
        ["sweep", "--knob", "T", "--from", "8", "--to", "12", "--step", "4", "--replications", "2",
         "--individuals", "40", "--seed", "9"]
    ) == ["manifest.json", "sweep_mean.csv", "sweep_median.csv"]
    run_twice(
        ["covariates", "--replications", "2", "--individuals", "40", "--covariate-count", "2", "--seed", "3"]
    )
    bundle = tmp_path / "bundle"
    assert cli_main(["simulate", "--seed", "5", "--individuals", "60", "--out", str(bundle), "--quiet"]) == 0
    run_twice(["diagnose", "--bundle", str(bundle)])
    run_twice(["fit", "--panel", str(bundle / "panel.csv"), "--target", "target", "--t0", "15"])
    panel = from_csv(bundle / "panel.csv", target="target", intervention_time=15)
    populations = {label: float(j + 1) for j, label in enumerate(panel.group_labels)}
    to_csv(replace(panel, populations=populations), tmp_path / "population.csv")
    grouping = {label: ("west" if j % 2 else "east") for j, label in enumerate(panel.group_labels)}
    (tmp_path / "grouping.json").write_text(json.dumps(grouping))
    run_twice(["aggregate", "--panel", str(tmp_path / "population.csv"), "--target", "target", "--t0", "15",
               "--grouping", str(tmp_path / "grouping.json")])
    print("ACCEPTANCE 8: PASS (simulate/sweep S/sweep T/covariates/diagnose/fit/aggregate reruns byte-identical)")
