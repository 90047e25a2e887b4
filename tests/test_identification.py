import math

import numpy as np
import pytest

from synthpanel import (
    GroupComposition,
    SimConfig,
    UsageError,
    minimal_invariant_set,
    simulate_panel,
    solve_oracle_weights,
    verify_identification,
)
from synthpanel.identification import OracleWeights, report_to_json, weights_to_json
from synthpanel.microsim import _stream, sample_compositions


def comps(*rows):
    return [GroupComposition(np.array(r)) for r in rows]


class TestMinimalInvariantSet:
    def test_identical_compositions(self):
        groups = comps([0.2, 0.3, 0.5], [0.2, 0.3, 0.5], [0.2, 0.3, 0.5])
        report = minimal_invariant_set(groups, 0, (1, 2))
        assert report.S_indices == ()
        assert report.S_cardinality == 0
        assert report.a3_holds and report.a4_holds

    def test_differing_categories_found(self):
        groups = comps([0.2, 0.3, 0.5], [0.2, 0.4, 0.4])
        report = minimal_invariant_set(groups, 0, (1,))
        # Categories are 0-indexed; the second and third differ.
        assert report.S_indices == (1, 2)
        assert np.allclose(report.per_category_max_gap, [0.0, 0.1, 0.1])

    def test_a3_is_cardinality_comparison(self):
        groups = comps([0.2, 0.3, 0.5], [0.5, 0.2, 0.3])
        report = minimal_invariant_set(groups, 0, (1,))
        assert report.S_cardinality == 3
        assert not report.a3_holds  # one donor, three differing categories

    def test_a4_fails_without_support_overlap(self):
        groups = comps([0.5, 0.5, 0.0], [0.0, 0.5, 0.5])
        report = minimal_invariant_set(groups, 0, (1,))
        assert not report.a4_holds  # target carries category 0, donor does not

    def test_simulator_ground_truth_cross_check(self):
        for seed in (1, 2, 3, 4, 5):
            cfg = SimConfig(S_cardinality=5, T=8, T0=5, seed=seed, N_per_group=5, covariate_count=0)
            study = simulate_panel(cfg)
            report = minimal_invariant_set(study.compositions, 0, study.panel.donor_indices())
            assert set(report.S_indices) == set(study.true_S)
            assert report.S_cardinality == 5

    def test_donor_permutation_invariance(self):
        rng = np.random.default_rng(6)
        groups = comps(*(rng.dirichlet(np.ones(6)) for _ in range(5)))
        a = minimal_invariant_set(groups, 0, (1, 2, 3, 4))
        b = minimal_invariant_set(groups, 0, (4, 3, 2, 1))
        assert a.S_indices == b.S_indices

    def test_category_relabeling_maps_indices(self):
        rng = np.random.default_rng(7)
        rows = [rng.dirichlet(np.ones(6)) for _ in range(4)]
        perm = rng.permutation(6)
        relabeled = [r[perm] for r in rows]
        a = minimal_invariant_set(comps(*rows), 0, (1, 2, 3))
        b = minimal_invariant_set(comps(*relabeled), 0, (1, 2, 3))
        assert set(b.S_indices) == {int(np.nonzero(perm == k)[0][0]) for k in a.S_indices}

    def test_mismatched_k_rejected(self):
        groups = [GroupComposition(np.array([0.5, 0.5])), GroupComposition(np.array([1 / 3] * 3))]
        with pytest.raises(UsageError):
            minimal_invariant_set(groups, 0, (1,))


class TestOracleWeights:
    def test_symmetric_pair(self):
        groups = comps([0.25, 0.25, 0.5], [0.15, 0.35, 0.5], [0.35, 0.15, 0.5])
        w = solve_oracle_weights(groups, 0, (1, 2), S=(0, 1))
        assert np.allclose(w.beta, [0.5, 0.5], atol=1e-12)
        assert w.residual_norm == pytest.approx(0.0, abs=1e-14)
        assert w.exists

    def test_target_equals_first_donor(self):
        # Full column rank on S makes the exact solution unique.
        rng = np.random.default_rng(10)
        target = rng.dirichlet(np.ones(6))
        others = [rng.dirichlet(np.ones(6)) for _ in range(2)]
        groups = comps(target, target, *others)
        w = solve_oracle_weights(groups, 0, (1, 2, 3), S=tuple(range(6)))
        assert np.allclose(w.beta, [1.0, 0.0, 0.0], atol=1e-9)
        assert w.exists

    def test_empty_s_returns_single_donor(self):
        groups = comps([0.5, 0.5], [0.5, 0.5], [0.5, 0.5])
        w = solve_oracle_weights(groups, 0, (1, 2), S=())
        assert np.array_equal(w.beta, [1.0, 0.0])
        assert w.exists and w.residual_norm == 0.0

    def test_generic_infeasibility(self):
        # Six differing categories, five donors: generically unsolvable.
        infeasible = 0
        for seed in range(100):
            cfg = SimConfig(S_cardinality=6, T=4, T0=2, seed=seed, N_per_group=2, covariate_count=0)
            compositions, true_s = sample_compositions(cfg, _stream(cfg.seed, 0))
            w = solve_oracle_weights(compositions, 0, tuple(range(1, 6)), sorted(true_s), tol=1e-6)
            infeasible += int(not w.exists)
        assert infeasible >= 95

    def test_s_monotone_in_donors(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            groups = comps(*(rng.dirichlet(np.ones(8)) for _ in range(7)))
            s = tuple(range(8))
            small = solve_oracle_weights(groups, 0, (1, 2, 3), s)
            large = solve_oracle_weights(groups, 0, (1, 2, 3, 4, 5, 6), s)
            assert large.residual_norm <= small.residual_norm + 1e-12

    def test_exact_solution_sums_to_one(self):
        # Matching on S forces the weights to sum to 1 because every group
        # carries the same total mass on the differing block.
        for seed in (21, 22, 23):
            cfg = SimConfig(S_cardinality=4, T=4, T0=2, seed=seed, N_per_group=2, covariate_count=0)
            compositions, true_s = sample_compositions(cfg, _stream(cfg.seed, 0))
            w = solve_oracle_weights(compositions, 0, (1, 2, 3, 4, 5), sorted(true_s))
            if w.exists:
                assert w.beta.sum() == pytest.approx(1.0, abs=1e-6)


class TestVerification:
    def test_identified_studies_verify(self):
        for seed in range(10):
            s = (0, 2, 3, 4, 5)[seed % 5]
            cfg = SimConfig(S_cardinality=s, T=20, T0=15, seed=seed, N_per_group=5, covariate_count=0)
            study = simulate_panel(cfg)
            donors = study.panel.donor_indices()
            report = minimal_invariant_set(study.compositions, 0, donors)
            w = solve_oracle_weights(study.compositions, 0, donors, report.S_indices)
            assert w.exists
            assert verify_identification(study, w, tol=1e-8)

    def test_perturbed_weights_fail(self):
        cfg = SimConfig(S_cardinality=4, T=12, T0=9, seed=3, N_per_group=5, covariate_count=0)
        study = simulate_panel(cfg)
        donors = study.panel.donor_indices()
        report = minimal_invariant_set(study.compositions, 0, donors)
        w = solve_oracle_weights(study.compositions, 0, donors, report.S_indices)
        bumped = OracleWeights(w.donor_indices, w.beta + np.array([0.1, 0, 0, 0, 0]), w.residual_norm, w.exists)
        assert not verify_identification(study, bumped, tol=1e-8)

    def test_minimal_horizon_passes(self):
        # Shortest legal horizon: one pre and one post period.
        cfg = SimConfig(S_cardinality=3, T=2, T0=1, seed=5, N_per_group=5, covariate_count=0)
        study = simulate_panel(cfg)
        donors = study.panel.donor_indices()
        report = minimal_invariant_set(study.compositions, 0, donors)
        w = solve_oracle_weights(study.compositions, 0, donors, report.S_indices)
        assert w.exists
        assert verify_identification(study, w, tol=1e-8)


class TestOracleWeightsAsEstimator:
    def test_predicts_expected_outcome_panel(self):
        # A panel whose cells are the exact expected outcomes is reproduced
        # by the oracle weights at every period, pre and post alike.
        import numpy as np

        from synthpanel import PanelData, expected_outcome, predict_counterfactual
        from synthpanel.estimators import WeightVector

        cfg = SimConfig(S_cardinality=4, T=14, T0=10, seed=8, N_per_group=5, covariate_count=0)
        study = simulate_panel(cfg)
        expected = np.array(
            [
                [expected_outcome(c, study.functions, t) for t in range(1, cfg.T + 1)]
                for c in study.compositions
            ]
        )
        panel = PanelData(
            expected, study.panel.group_labels, study.panel.time_labels, 0, cfg.T0
        )
        donors = panel.donor_indices()
        report = minimal_invariant_set(study.compositions, 0, donors)
        oracle = solve_oracle_weights(study.compositions, 0, donors, report.S_indices)
        assert oracle.exists
        weights = WeightVector(oracle.donor_indices, oracle.beta, 0.0, True, (0.0,), 0.0)
        prediction = predict_counterfactual(weights, panel)
        assert np.allclose(prediction, expected[0], atol=1e-8)


class TestSerialization:
    def test_json_payloads(self):
        groups = comps([0.2, 0.8], [0.4, 0.6], [0.1, 0.9])
        report = minimal_invariant_set(groups, 0, (1, 2))
        w = solve_oracle_weights(groups, 0, (1, 2), report.S_indices)
        rep_doc, w_doc = report_to_json(report), weights_to_json(w)
        assert rep_doc["S_cardinality"] == 2
        assert len(rep_doc["per_category_max_gap"]) == 2
        assert isinstance(w_doc["exists"], bool)
        assert len(w_doc["beta"]) == 2


class TestTolerance:
    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        study = simulate_panel(SimConfig(S_cardinality=2, T=6, T0=4, seed=3, N_per_group=10))
        donors = study.panel.donor_indices()
        oracle = solve_oracle_weights(study.compositions, 0, donors, S=(0, 1))
        with pytest.raises(UsageError, match="tolerance"):
            minimal_invariant_set(study.compositions, 0, donors, tol=tol)
        with pytest.raises(UsageError, match="tolerance"):
            solve_oracle_weights(study.compositions, 0, donors, S=(0, 1), tol=tol)
        with pytest.raises(UsageError, match="tolerance"):
            verify_identification(study, oracle, tol=tol)
