import inspect
import math
import multiprocessing
import pickle
import sys
import threading
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from synthpanel import (
    DataValidationError,
    FitConfig,
    SimConfig,
    UsageError,
    expected_outcome,
    minimal_invariant_set,
    select_groups,
    simulate_panel,
)
from synthpanel import microsim
from synthpanel.evaluation import EXPERIMENTS, derive_seed, run_experiment
from synthpanel.microsim import (
    GUIDE_BINS,
    SIN_LADDER_MAX,
    SimulatedStudy,
    _category_cdf,
    _check_seeding,
    _draw_block,
    _lookup,
    _make_covariates,
    _median,
    _seed_words,
    _stream,
    conditional_mean_default,
    load_study_bundle,
    sample_compositions,
    write_study_bundle,
)
from synthpanel.panel import aggregate_groups


def small_cfg(**overrides) -> SimConfig:
    base = dict(
        S_cardinality=5, T=10, T0=7, seed=123, K=12, num_donors=5,
        N_per_group=200, covariate_count=2,
    )
    base.update(overrides)
    return SimConfig(**base)


def numpy_stream(seed, *key) -> np.random.Generator:
    """numpy's own child stream of the master seed, the reference for microsim's seeding."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def with_truth(compositions, functions) -> SimulatedStudy:
    """A small simulated study whose ground truth is replaced by the given matrices."""
    (n_groups, k), t = np.shape(compositions), np.shape(functions)[1]
    cfg = small_cfg(K=k, S_cardinality=0, num_donors=n_groups - 1, T=t, T0=1, N_per_group=2, covariate_count=0)
    return replace(simulate_panel(cfg), compositions=compositions, functions=functions)


class TestCompositions:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), s=st.integers(0, 12),
           mode=st.sampled_from(["invariant_split", "dirichlet_mask"]))
    @example(seed=4, s=12, mode="dirichlet_mask")  # point masses: most categories carry no mass at all
    def test_valid_probability_vectors(self, seed, s, mode):
        cfg = small_cfg(S_cardinality=s, composition_mode=mode, seed=seed)
        comps, true_s = sample_compositions(cfg, _stream(seed, 0))
        assert comps.shape == (6, 12)
        for c in comps:
            assert c.min() >= 0.0
            assert abs(c.sum() - 1.0) <= 1e-12
        assert all(0 <= k < 12 for k in true_s)
        # One rule for S: the oracle's. invariant_split imposes its S, which at |S| = 1 differs in no category.
        oracle_s = frozenset(minimal_invariant_set(comps, 0, range(1, 6)).S_indices)
        if mode == "dirichlet_mask":
            gap_rule = frozenset(int(k) for k in np.nonzero(np.abs(comps - comps[0]).max(axis=0) > 1e-9)[0])
            assert true_s == gap_rule == oracle_s
        elif s != 1:
            assert true_s == oracle_s

    def test_s_zero_identical(self):
        cfg = small_cfg(S_cardinality=0)
        comps, true_s = sample_compositions(cfg, _stream(1, 0))
        assert true_s == frozenset()
        for c in comps[1:]:
            assert np.array_equal(c, comps[0])

    def test_s_full_no_shared_block(self):
        cfg = small_cfg(S_cardinality=12)
        comps, true_s = sample_compositions(cfg, _stream(2, 0))
        assert true_s == frozenset(range(12))
        gaps = np.abs(comps[1] - comps[0])
        assert gaps.max() > 0.0

    def test_invariant_block_shared_exactly(self):
        cfg = small_cfg(S_cardinality=5)
        comps, true_s = sample_compositions(cfg, _stream(3, 0))
        invariant = sorted(set(range(12)) - true_s)
        assert np.all(comps[:, invariant] == comps[0, invariant])
        assert np.abs(np.diff(comps[:, sorted(true_s)], axis=0)).max() > 0.0

    @pytest.mark.parametrize("k, s, shared_mass", [(12, 0, 1.0), (12, 5, microsim.INVARIANT_MASS), (12, 12, 0.0),
                                                   (1, 0, 1.0), (1, 1, 0.0), (2, 1, microsim.INVARIANT_MASS)])
    def test_shared_categories_carry_the_invariant_mass(self, k, s, shared_mass):
        comps, true_s = sample_compositions(small_cfg(K=k, S_cardinality=s), _stream(5, 0))
        differing = np.isin(np.arange(k), sorted(true_s))
        assert np.allclose(comps[:, ~differing].sum(axis=1), shared_mass, rtol=0, atol=1e-12)
        assert np.allclose(comps[:, differing].sum(axis=1), 1.0 - shared_mass, rtol=0, atol=1e-12)

    def test_mask_mode_point_masses_at_full_s(self):
        cfg = small_cfg(S_cardinality=12, composition_mode="dirichlet_mask")
        comps, _ = sample_compositions(cfg, _stream(4, 0))
        for c in comps:
            assert np.sum(c > 0) == 1

    def test_s_larger_than_k_rejected(self):
        with pytest.raises(UsageError):
            small_cfg(S_cardinality=13)


class TestConditionalMeans:
    def test_deterministic_given_seed(self):
        fam1 = conditional_mean_default(12, 20, _stream(5, 1))
        fam2 = conditional_mean_default(12, 20, _stream(5, 1))
        assert np.array_equal(fam1, fam2)

    def test_shape_and_finite(self):
        fam = conditional_mean_default(7, 30, _stream(6, 1))
        assert fam.shape == (7, 30)
        assert np.all(np.isfinite(fam)) and not fam.flags.writeable

    def test_not_affine_in_time(self):
        # At least one category must fail an affine least-squares fit.
        fam = conditional_mean_default(12, 40, _stream(7, 1))
        t = np.arange(1, 41, dtype=float)
        design = np.vstack([np.ones_like(t), t]).T
        worst_r2 = 1.0
        for k in range(12):
            y = fam[k]
            coef, *_ = np.linalg.lstsq(design, y, rcond=None)
            ss_res = ((y - design @ coef) ** 2).sum()
            ss_tot = ((y - y.mean()) ** 2).sum()
            if ss_tot > 0:
                worst_r2 = min(worst_r2, 1.0 - ss_res / ss_tot)
        assert worst_r2 < 0.999

    def test_ramp_scale_zero_removes_late_rise(self):
        fam_on = conditional_mean_default(12, 20, _stream(8, 1), ramp_scale=1.0)
        fam_off = conditional_mean_default(12, 20, _stream(8, 1), ramp_scale=0.0)
        assert not np.array_equal(fam_on, fam_off)

    def test_constant_family_is_constant(self):
        study = with_truth(np.full((4, 3), 1 / 3), np.full((3, 5), 1.75))
        assert np.all(study.functions == 1.75) and not study.functions.flags.writeable
        assert np.allclose(expected_outcome(study), 1.75, atol=1e-15, rtol=0)


class TestExpectedOutcome:
    def test_two_category_average(self):
        study = with_truth([[0.5, 0.5], [0.5, 0.5]], [[1.0, 1.0], [2.0, 2.0]])
        assert expected_outcome(study) == pytest.approx(np.full((2, 2), 1.5))

    def test_point_mass(self):
        study = with_truth([[0.0, 1.0], [1.0, 0.0]], [[1.0, 4.0], [2.0, 8.0]])
        assert expected_outcome(study) == pytest.approx(np.array([[2.0, 8.0], [1.0, 4.0]]))

    def test_mixture_linearity(self):
        # The paper's linearity: any weighting of the donors' expected outcomes is the
        # expected outcome of the same weighting of their compositions.
        rng = np.random.default_rng(9)
        for mode in ("invariant_split", "dirichlet_mask"):
            study = simulate_panel(small_cfg(composition_mode=mode, seed=9, T=8, T0=5, N_per_group=5,
                                             covariate_count=0))
            donors = list(study.panel.donor_indices())
            for beta in [rng.dirichlet(np.ones(len(donors))), rng.normal(size=len(donors)), np.eye(len(donors))[2]]:
                blended = beta @ expected_outcome(study)[donors]
                mixed = (beta @ study.compositions[donors]) @ study.functions
                assert blended.shape == (8,)
                assert np.allclose(blended, mixed, atol=1e-12, rtol=0)

    def test_large_n_monte_carlo_limit(self):
        # Noiseless cells converge to the expected outcome as N grows.
        cfg = small_cfg(N_per_group=1_000_000, noise_sd=0.0, T=2, T0=1, covariate_count=0, seed=501)
        study = simulate_panel(cfg)
        got = study.panel.outcomes[0, 0]
        want = expected_outcome(study)[0, 0]
        assert abs(got - want) <= 1e-3

    def test_category_count_validation(self):
        # Compositions over three categories cannot meet a two-category table.
        with pytest.raises(DataValidationError, match="K x T = 3 x 3"):
            with_truth(np.full((2, 3), 1 / 3), np.ones((2, 3)))


class TestSimulatePanel:
    def test_bit_identical_given_config(self):
        cfg = small_cfg()
        s1, s2 = simulate_panel(cfg), simulate_panel(cfg)
        assert np.array_equal(s1.panel.outcomes, s2.panel.outcomes)
        assert np.array_equal(s1.aux_suitable.values, s2.aux_suitable.values)
        assert np.array_equal(s1.aux_unsuitable.values, s2.aux_unsuitable.values)
        assert s1.true_S == s2.true_S

    def test_panel_invariant_to_covariate_count(self):
        a = simulate_panel(small_cfg(covariate_count=0))
        b = simulate_panel(small_cfg(covariate_count=4))
        assert np.array_equal(a.panel.outcomes, b.panel.outcomes)

    def test_noiseless_mean_is_empirical_frequency_average(self):
        cfg = small_cfg(noise_sd=0.0, covariate_count=0)
        study = simulate_panel(cfg)
        j, t = 2, 3
        rng = numpy_stream(cfg.seed, 2, j, t)
        x = rng.choice(cfg.K, size=cfg.N_per_group, p=study.compositions[j])
        freq = np.bincount(x, minlength=cfg.K) / cfg.N_per_group
        want = freq @ study.functions[:, t - 1]
        assert study.panel.outcomes[j, t - 1] == pytest.approx(want, abs=1e-12)

    def test_median_aggregation_is_cell_median(self):
        cfg = small_cfg(aggregation="median", covariate_count=0)
        study = simulate_panel(cfg)
        j, t = 1, 5
        rng = numpy_stream(cfg.seed, 2, j, t)
        x = rng.choice(cfg.K, size=cfg.N_per_group, p=study.compositions[j])
        y = study.functions[x, t - 1] + rng.normal(0.0, cfg.noise_sd, cfg.N_per_group)
        assert study.panel.outcomes[j, t - 1] == pytest.approx(np.median(y), abs=1e-12)

    def test_median_of_three(self):
        assert np.median([1.0, 2.0, 9.0]) == 2.0

    def test_shift_hits_target_post_periods_only(self):
        base = small_cfg(noise_sd=0.0, covariate_count=0)
        shifted = small_cfg(noise_sd=0.0, covariate_count=0, post_intervention_shift=5.0)
        a, b = simulate_panel(base), simulate_panel(shifted)
        t0 = base.T0
        assert np.array_equal(a.panel.outcomes[1:], b.panel.outcomes[1:])
        assert np.array_equal(a.panel.outcomes[0, :t0], b.panel.outcomes[0, :t0])
        assert np.allclose(b.panel.outcomes[0, t0:] - a.panel.outcomes[0, t0:], 5.0)

    @pytest.mark.parametrize("n, noise_sd, seed", [(1, 1.0, 3), (7, 0.0, 4), (200, 1.0, 5), (2000, 3.0, 6)])
    def test_merged_donors_are_the_mean_of_their_pooled_individuals(self, n, noise_sd, seed):
        # With mean cells and equal populations, aggregate_groups merges two donors into the mean over their
        # pooled 2N individuals, up to rounding. Both sides are numpy's pairwise sums of at most 2N terms,
        # divided (the merged side then halves and adds its two cells), and a pairwise sum's mean errs by a
        # few ulps of the largest term per halving: so the tolerance is 4 ulps of max|y| times log2(2N).
        cfg = small_cfg(N_per_group=n, noise_sd=noise_sd, seed=seed, covariate_count=0)
        study = simulate_panel(cfg)
        panel = replace(study.panel, populations={"donor_1": 3.0, "donor_2": 3.0})
        merged = aggregate_groups(panel, {label: label for label in panel.group_labels} | {"donor_2": "donor_1"})
        row = merged.outcomes[merged.group_index("donor_1")]
        for t in range(1, cfg.T + 1):
            pooled = []
            for j in (1, 2):  # the donors' individuals, regenerated as choice_sampler draws them
                rng = numpy_stream(cfg.seed, 2, j, t)
                y = study.functions[rng.choice(cfg.K, size=n, p=study.compositions[j]), t - 1]
                pooled.append(y + rng.normal(0.0, noise_sd, n) if noise_sd > 0 else y)
            pooled = np.concatenate(pooled)
            assert abs(row[t - 1] - pooled.mean()) <= 4 * np.log2(2 * n) * np.spacing(np.abs(pooled).max()), t

    def test_cells_within_clt_bound(self):
        # |cell - expectation| <= 4 sd(cell mean) in at least 99% of cells.
        total, bad = 0, 0
        for seed in range(100):
            cfg = small_cfg(seed=seed, T=6, T0=4, N_per_group=500, covariate_count=0)
            study = simulate_panel(cfg)
            lam = study.functions
            for j, comp in enumerate(study.compositions):
                mean_lam = comp @ lam
                var_lam = comp @ (lam - mean_lam) ** 2
                cell_sd = np.sqrt((var_lam + cfg.noise_sd**2) / cfg.N_per_group)
                gaps = np.abs(study.panel.outcomes[j] - mean_lam)
                total += gaps.size
                bad += int((gaps > 4 * cell_sd).sum())
        assert bad / total <= 0.01

    def test_median_channel_nonlinearity_witness(self):
        # A mixture whose cell median differs from the mixed cell medians by
        # far more than sampling noise allows.
        lam = np.array([[0.0], [10.0]])
        p = np.array([0.8, 0.2])
        q = np.array([0.2, 0.8])
        alpha = 0.3
        mix = alpha * p + (1 - alpha) * q
        n = 20000
        rng = np.random.default_rng(77)

        def cell_median(probs):
            x = rng.choice(2, size=n, p=probs)
            return np.median(lam[x, 0] + rng.normal(0, 1, n))

        blend_of_medians = alpha * cell_median(p) + (1 - alpha) * cell_median(q)
        median_of_blend = cell_median(mix)
        # Median standard error is ~1/(2 f(m) sqrt(n)); 10 SEs is well under 1.
        assert abs(median_of_blend - blend_of_medians) > 1.0


class TestCovariates:
    def test_identical_groups_differ_by_noise_only(self):
        violations, checks = 0, 0
        for seed in range(25):
            cfg = small_cfg(S_cardinality=0, seed=seed, N_per_group=400, covariate_count=2)
            study = simulate_panel(cfg)
            for m in range(2):
                # Conservative per-group sampling SE for a bounded sine average.
                se = 1.0 / np.sqrt(cfg.N_per_group)
                gap = np.abs(study.aux_suitable.values[:, m] - study.aux_suitable.values[0, m]).max()
                checks += 1
                violations += int(gap > 4 * np.sqrt(2) * se)
        assert violations <= 1, f"{violations}/{checks} gaps beyond 4 standard errors"

    def test_constant_outcome_gives_exact_sine(self):
        y0 = 1.3
        cfg = small_cfg(noise_sd=0.0, covariate_count=3)
        study = simulate_panel(cfg)
        tables = [_category_cdf(comp) for comp in study.compositions]
        aux = _make_covariates(tables, np.full((cfg.T, cfg.K), y0), cfg, "suitable", _stream(9, 5))
        for m in range(1, 4):
            c_m = SIN_LADDER_MAX * m / 3
            assert np.allclose(aux.values[:, m - 1], np.sin(c_m * y0), atol=1e-12)

    def test_point_mass_unsuitable_is_exact_code(self):
        cfg = small_cfg(covariate_count=1)
        study = simulate_panel(cfg)
        k_star = 4
        probs = np.zeros(cfg.K)
        probs[k_star] = 1.0
        seed_key = (13, 8)
        tables = [_category_cdf(probs) for _ in range(6)]
        aux = _make_covariates(tables, study.functions.T, cfg, "unsuitable", numpy_stream(*seed_key))
        codes = numpy_stream(*seed_key).permutation(cfg.K)  # drawn first, per draw-order contract
        assert np.all(aux.values[:, 0] == codes[k_star])


class TestBundleIO:
    def test_round_trip_exact(self, tmp_path):
        study = simulate_panel(small_cfg(seed=321))
        write_study_bundle(study, tmp_path)
        back = load_study_bundle(tmp_path)
        assert np.array_equal(back.panel.outcomes, study.panel.outcomes)
        assert back.panel.group_labels == study.panel.group_labels
        assert np.array_equal(back.compositions, study.compositions)
        assert np.array_equal(back.functions, study.functions)
        assert back.true_S == study.true_S
        assert np.array_equal(back.aux_suitable.values, study.aux_suitable.values)
        assert back.config == study.config

    def test_bundle_files_byte_identical_across_runs(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        write_study_bundle(simulate_panel(small_cfg(seed=8)), d1)
        write_study_bundle(simulate_panel(small_cfg(seed=8)), d2)
        for name in ("panel.csv", "truth.json", "covariates_suitable.csv", "covariates_unsuitable.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


class TestStudyInvariants:
    def test_wrong_true_s_size_rejected(self):
        study = simulate_panel(small_cfg())
        with pytest.raises(DataValidationError):
            SimulatedStudy(
                panel=study.panel,
                compositions=study.compositions,
                functions=study.functions,
                true_S=frozenset({0}),
                aux_suitable=study.aux_suitable,
                aux_unsuitable=study.aux_unsuitable,
                config=study.config,
            )

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda study: {"functions": study.functions[:, :-1]}, "K x T = 12 x 10"),
            (lambda study: {"compositions": study.compositions[:-1]}, "groups x K = 6 x 12"),
            (lambda study: {"compositions": np.full((study.config.n_groups, 4), 0.25)}, "groups x K = 6 x 12"),
            (lambda study: {"panels": {"mean": replace(study.panel)}}, r"panels\['mean'\] must be the study panel"),
            (lambda study: {"panels": {"mode": study.panel}}, "unknown aggregation 'mode'"),
            (lambda study: {"panel": select_groups(study.panel, study.panel.group_labels[:-1])},
             "panel dimensions do not match the study config"),
            (lambda study: {"true_S": {-1, 99, 200, 300, 400}}, r"true_S entries must be category indices in 0\.\.11"),
            (lambda study: {"true_S": {0, 1, 2, 3, 12}}, r"true_S entries must be category indices in 0\.\.11"),
            (lambda study: {"true_S": [float(k) for k in study.true_S]}, "true_S entries must be category indices"),
            (lambda study: {"true_S": [True, *sorted(study.true_S)[1:]]}, "true_S entries must be category indices"),
        ],
        ids=["short-table", "composition-count", "composition-length", "foreign-panel", "unknown-aggregation",
             "panel-dimensions", "true-S-out-of-range", "true-S-equals-K", "true-S-whole-floats", "true-S-bool"],
    )
    def test_truth_must_match_config(self, change, message):
        study = simulate_panel(small_cfg())
        fields = dict(
            panel=study.panel,
            compositions=study.compositions,
            functions=study.functions,
            true_S=study.true_S,
            aux_suitable=study.aux_suitable,
            aux_unsuitable=study.aux_unsuitable,
            config=study.config,
        )
        with pytest.raises(DataValidationError, match=message):
            SimulatedStudy(**{**fields, **change(study)})

    def test_numpy_integer_true_s_is_accepted(self):
        study = simulate_panel(small_cfg())
        fields = {name: getattr(study, name) for name in ("panel", "compositions", "functions", "aux_suitable",
                                                          "aux_unsuitable", "config")}
        again = SimulatedStudy(**fields, true_S=np.array(sorted(study.true_S), dtype=np.int64))
        assert again.true_S == study.true_S and all(type(k) is int for k in again.true_S)

    def test_composition_validation(self):
        with pytest.raises(DataValidationError, match="sum to 1"):
            with_truth([[0.5, 0.5], [0.6, 0.6]], np.ones((2, 2)))
        with pytest.raises(DataValidationError, match="nonnegative"):
            with_truth([[0.5, 0.5], [-0.1, 1.1]], np.ones((2, 2)))


def choice_sampler(study: SimulatedStudy) -> dict:
    """Panels and covariates rebuilt with the original cell sampler.

    The reference keeps the first implementation: a fresh child stream per
    cell, categories from ``Generator.choice(p=...)``, then ``np.mean`` or
    ``np.median``. Any change in how the generator consumes its streams,
    including a numpy release that changes ``choice``, shows up as a
    mismatch against it.
    """
    cfg, lam = study.config, study.functions
    n, sd = cfg.N_per_group, cfg.noise_sd

    def cell(rng, probs, t, shift):
        x = rng.choice(cfg.K, size=n, p=probs)
        y = lam[x, t - 1].copy()
        if sd > 0:
            y += rng.normal(0.0, sd, n)
        if shift != 0.0:
            y += shift
        return y

    panels = {"mean": np.empty((cfg.n_groups, cfg.T)), "median": np.empty((cfg.n_groups, cfg.T))}
    for j, comp in enumerate(study.compositions):
        for t in range(1, cfg.T + 1):
            shift = cfg.post_intervention_shift if (j == 0 and t > cfg.T0) else 0.0
            y = cell(numpy_stream(cfg.seed, 2, j, t), comp, t, shift)
            panels["mean"][j, t - 1] = np.mean(y)
            panels["median"][j, t - 1] = np.median(y)

    count = cfg.covariate_count
    suitable = np.empty((cfg.n_groups, count))
    rng = numpy_stream(cfg.seed, 3)
    for m in range(1, count + 1):
        t_star = int(rng.integers(1, cfg.T0 + 1))
        for j, comp in enumerate(study.compositions):
            suitable[j, m - 1] = np.sin(SIN_LADDER_MAX * m / count * cell(rng, comp, t_star, 0.0)).mean()
    unsuitable = np.empty((cfg.n_groups, count))
    rng = numpy_stream(cfg.seed, 4)
    for m in range(1, count + 1):
        codes = rng.permutation(cfg.K)
        for j, comp in enumerate(study.compositions):
            unsuitable[j, m - 1] = codes[rng.choice(cfg.K, size=n, p=comp)].mean()
    return {**panels, "suitable": suitable, "unsuitable": unsuitable}


# Seeds of one, two (as every sweep study's derive_seed output) and five
# 32-bit words; below four words SeedSequence zero-pads its pool.
SEED_WIDTHS = [0, 404, 2**32, derive_seed(1, 0, 0), 2**130 + 7]

DRAW_CASES = [
    dict(N_per_group=201),
    dict(N_per_group=200),
    dict(N_per_group=1),
    dict(N_per_group=2, noise_sd=0.0),
    dict(noise_sd=0.0),
    dict(post_intervention_shift=2.5),
    dict(composition_mode="dirichlet_mask", S_cardinality=6),
    dict(composition_mode="dirichlet_mask", S_cardinality=12, N_per_group=33),
    dict(K=1, S_cardinality=0, N_per_group=7),
]


class TestDrawPathByteIdentity:
    @staticmethod
    def assert_equals_choice_sampler(cfg):
        study = simulate_panel(cfg, aggregations=("mean", "median"))
        want = choice_sampler(study)
        if cfg.composition_mode == "dirichlet_mask":
            assert (study.compositions == 0).any()
        for name in ("mean", "median"):
            assert np.array_equal(study.panels[name].outcomes, want[name]), name
        assert np.array_equal(study.panel.outcomes, want[cfg.aggregation])
        assert np.array_equal(study.aux_suitable.values, want["suitable"])
        assert np.array_equal(study.aux_unsuitable.values, want["unsuitable"])

    @pytest.mark.parametrize("overrides", DRAW_CASES)
    @pytest.mark.parametrize("aggregation", ["mean", "median"])
    def test_every_cell_equals_choice_sampler(self, overrides, aggregation):
        self.assert_equals_choice_sampler(
            small_cfg(seed=404, T=6, T0=4, covariate_count=3, aggregation=aggregation, **overrides)
        )

    @pytest.mark.parametrize("seed", [seed for seed in SEED_WIDTHS if seed != 404])
    @pytest.mark.parametrize("overrides", DRAW_CASES)
    @pytest.mark.parametrize("aggregation", ["mean", "median"])
    def test_every_cell_equals_choice_sampler_at_seed_width(self, overrides, aggregation, seed):
        self.assert_equals_choice_sampler(
            small_cfg(seed=seed, T=6, T0=4, covariate_count=3, aggregation=aggregation, **overrides)
        )

    @pytest.mark.parametrize(
        "T, T0",
        # (blocks, periods) of full blocks: T ends below, on and past a block's edge, and the shift starts
        # inside a block or on its edge.
        [((0, 2), (0, 1)), ((1, -1), (1, -3)), ((1, 0), (0, 3)), ((1, 1), (1, 0)), ((2, 1), (1, 0)),
         ((2, 1), (1, 3)), ((2, 1), (2, 0))],
    )
    # Blocks of 32, 16 and 5 periods. At N = 1000 a T up to 32 is one block of every period.
    @pytest.mark.parametrize("n", [1000, 2000, 3 * 2000])
    def test_every_cell_equals_choice_sampler_at_block_edges(self, n, T, T0):
        block = microsim.BLOCK_INDIVIDUALS // n
        T, T0 = (blocks * block + periods for blocks, periods in (T, T0))
        self.assert_equals_choice_sampler(
            small_cfg(seed=404, T=T, T0=T0, N_per_group=n, covariate_count=1, post_intervention_shift=2.5)
        )

    def test_single_aggregation_call_equals_paired_call(self):
        for aggregation in ("mean", "median"):
            cfg = small_cfg(aggregation=aggregation)
            alone = simulate_panel(cfg)
            paired = simulate_panel(cfg, aggregations=("mean", "median"))
            assert tuple(alone.panels) == (aggregation,)
            assert alone.panels[aggregation] is alone.panel
            assert np.array_equal(alone.panel.outcomes, paired.panels[aggregation].outcomes)
            assert paired.panel is paired.panels[aggregation]

    def test_unknown_aggregation_rejected(self):
        with pytest.raises(UsageError):
            simulate_panel(small_cfg(), aggregations=("mode",))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([-0.0, 0.0, 1.0, -2.5]) | st.floats(-1e300, 1e300), min_size=1, max_size=40))
    def test_median_equals_numpy_median(self, values):
        y = np.array(values)
        got, want = _median(y.copy()), np.median(y)
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


# Table values and noise sds that no simulated study holds: signed zeros, subnormals and sums that overflow.
KERNEL_VALUES = [-0.0, 0.0, -1e-310, 1.5, 1e300, -1e300]
KERNEL_SDS = [0.0, 5e-324, 1e-310, 1.0, 1e308]


class TestDrawKernel:
    """A one-row block of _draw_block is ``choice`` then ``normal`` on the same stream, bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 50), st.sampled_from(KERNEL_SDS))
    def test_one_row_equals_choice_then_normal(self, seed, n, noise_sd):
        data = np.random.default_rng(seed)
        k = int(data.integers(1, 9))
        keep = data.random(k) < 0.7  # some categories get no mass, but never all of them
        keep[data.integers(k)] = True
        probs = data.dirichlet(np.ones(k)) * keep
        probs /= probs.sum()
        row = data.choice(KERNEL_VALUES, size=k)
        # Both callers put the noise's "0.0 +" into the table, and add neither when there is no noise.
        lam = row + 0.0 if noise_sd > 0 else row
        with np.errstate(over="ignore", invalid="ignore"):
            got = _draw_block([numpy_stream(seed, 5)], _category_cdf(probs), lam[None], noise_sd,
                              np.empty((3, 1, n)))[0]
            rng = numpy_stream(seed, 5)
            want = row[rng.choice(k, size=n, p=probs)]
            if noise_sd > 0:
                want = want + rng.normal(0.0, noise_sd, n)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.array_equal(np.signbit(got), np.signbit(want))


def numpy_words(seed, *key):
    return np.random.SeedSequence(seed, spawn_key=key).generate_state(4, np.uint64)


@contextmanager
def cell_pool(workers):
    """Inside the block, microsim sees ``workers`` usable CPUs, so a study draws on as many threads."""
    saved = microsim._usable_cpus
    microsim._usable_cpus = lambda: workers
    try:
        yield
    finally:
        microsim._usable_cpus = saved


@contextmanager
def switching_often():
    """Inside the block, threads switch every microsecond, so that a lost or doubled update would show."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def study_bytes(cfg):
    study = simulate_panel(cfg, aggregations=("mean", "median"))
    return pickle.dumps((dict(study.panels), study.aux_suitable, study.aux_unsuitable))


def send_panel(conn, cfg):
    conn.send_bytes(simulate_panel(cfg).panel.outcomes.tobytes())
    conn.close()


class TestCellPool:
    """The threads that draw a study's units take each unit once, change no output byte, whatever their number,
    and end with the call."""

    @staticmethod
    def same_under_any_pool(run):
        default = run()
        with cell_pool(1):
            alone = run()
        with cell_pool(3):
            three = run()
        assert alone == default and three == default

    def test_study_is_the_same_under_any_pool(self):
        cfg = small_cfg(T=2 * microsim.BLOCK_INDIVIDUALS // 2000 + 1, T0=8, num_donors=7, N_per_group=2000)
        # Threads write their own rows of shared panels: switching threads often would show a lost row.
        with switching_often():
            self.same_under_any_pool(lambda: study_bytes(cfg))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_call_joins_the_threads_it_starts(self, workers, monkeypatch):
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread.name) or start(thread))
        with cell_pool(workers):
            simulate_panel(small_cfg())  # six units
            # One helper per usable CPU but the caller's, none at one CPU, and none alive after the call.
            assert len(started) == workers - 1 and all(name.startswith("synthpanel-cells") for name in started)
            assert not [thread for thread in threading.enumerate() if thread.name.startswith("synthpanel-cells")]
            started.clear()
            simulate_panel(small_cfg(num_donors=1))  # two units: no more threads than units
        assert len(started) == min(workers, 2) - 1

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_each_unit_is_drawn_once(self, workers, monkeypatch):
        # A unit drawn twice writes the same bytes again, so only a count of the kernel's calls and rows shows it.
        block = microsim.BLOCK_INDIVIDUALS // 2000
        cfg = small_cfg(T=2 * block + 1, T0=8, num_donors=7, N_per_group=2000, covariate_count=0)
        rows, draw_block = [], microsim._draw_block
        monkeypatch.setattr(microsim, "_draw_block", lambda streams, *rest: rows.append(len(streams))
                            or draw_block(streams, *rest))
        with cell_pool(workers), switching_often():
            simulate_panel(cfg)
        assert len(rows) == cfg.n_groups * math.ceil(cfg.T / block)
        assert sum(rows) == cfg.n_groups * cfg.T

    def test_a_helpers_exception_reaches_the_caller(self, monkeypatch):
        caller, helper_failed, draw_block = threading.current_thread(), threading.Event(), microsim._draw_block

        def draw_or_fail(*args):
            if threading.current_thread() is caller:
                helper_failed.wait(60)  # the caller holds its first unit until a helper has taken one
                return draw_block(*args)
            helper_failed.set()
            raise ZeroDivisionError("drawn on a helper")

        monkeypatch.setattr(microsim, "_draw_block", draw_or_fail)
        with cell_pool(2), pytest.raises(ZeroDivisionError, match="drawn on a helper"):
            simulate_panel(small_cfg())
        assert helper_failed.is_set()
        assert not [thread for thread in threading.enumerate() if thread.name.startswith("synthpanel-cells")]

    def test_concurrent_calls_get_the_bytes_of_lone_calls(self):
        cfgs = [small_cfg(seed=seed, T=2 * microsim.BLOCK_INDIVIDUALS // 2000 + 1, N_per_group=2000) for seed in (1, 2)]
        got, barrier = [None, None], threading.Barrier(2)

        def run(i):
            barrier.wait()
            got[i] = study_bytes(cfgs[i])

        with cell_pool(2):
            alone = [study_bytes(cfg) for cfg in cfgs]
            callers = [threading.Thread(target=run, args=(i,)) for i in range(2)]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join()
        assert got == alone

    @pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
    def test_experiment_is_the_same_under_any_pool(self, experiment):
        base = small_cfg(T=9, N_per_group=41)
        knob_values = {"S": (2, 4), "T": (9, 17), "covariates": (9,)}[experiment]
        fit_cfg = FitConfig(regularizer="simplex")
        self.same_under_any_pool(lambda: pickle.dumps(run_experiment(experiment, base, knob_values, 2, fit_cfg, 0.7)))

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method")
    def test_forked_child_draws_the_parents_study(self):
        # The parent has drawn on helper threads before it forks, and the child starts its own.
        cfg = small_cfg()
        context = multiprocessing.get_context("fork")
        with cell_pool(2):
            want = simulate_panel(cfg).panel.outcomes.tobytes()
            reader, writer = context.Pipe(duplex=False)
            child = context.Process(target=send_panel, args=(writer, cfg))
            child.start()
        writer.close()
        try:
            assert reader.poll(60), "the forked child's study did not finish"
            assert reader.recv_bytes() == want
        finally:
            child.join(10)
            if child.is_alive():
                child.kill()
        assert child.exitcode == 0

    def test_pool_threads_call_no_public_function(self, monkeypatch):
        # A call tracer that follows one thread's stack would miss a public call made in a helper thread.
        callers = set()

        def recording(fn):
            def call(*args, **kwargs):
                callers.add(threading.current_thread())
                return fn(*args, **kwargs)

            return call

        for name, value in list(vars(microsim).items()):
            if not name.startswith("_") and inspect.isfunction(value):
                monkeypatch.setattr(microsim, name, recording(value))
        microsim.simulate_panel(small_cfg(T=17), aggregations=("mean", "median"))
        assert callers == {threading.current_thread()}

    @pytest.mark.filterwarnings("error")
    def test_overflowing_cells_raise_a_data_error_not_a_warning(self):
        # numpy's error state does not reach helper threads, so each draw sets its own. The median panel
        # is finite, so there the overflow first reaches the covariate draws, on the calling thread.
        for aggregation in ("mean", "median"):
            with pytest.raises(DataValidationError, match="finite"):
                simulate_panel(small_cfg(noise_sd=1e308, aggregation=aggregation))

    def test_study_without_covariates_seeds_no_covariate_stream(self, monkeypatch):
        keys = []
        monkeypatch.setattr(microsim, "_stream", lambda seed, *key: keys.append(key) or _stream(seed, *key))
        simulate_panel(small_cfg(covariate_count=0))
        assert keys == [(0,)]
        keys.clear()
        simulate_panel(small_cfg(covariate_count=1))
        assert keys == [(0,), (3,), (4,)]


class TestCellStreams:
    """_seed_words gives every stream numpy's own SeedSequence words, and the guard checks them."""

    @staticmethod
    def assert_numpy_words(seed, n_groups, n_periods):
        group, period = np.arange(n_groups, dtype=np.uint32)[:, None], np.arange(1, n_periods + 1, dtype=np.uint32)
        words = _seed_words(seed, 2, group, period)
        assert words.shape == (n_groups, n_periods, 4) and words.dtype == np.uint64
        for j in range(n_groups):
            for t in range(1, n_periods + 1):
                assert np.array_equal(words[j, t - 1], numpy_words(seed, 2, j, t)), (seed, j, t)
        for key in [(0,), (3,), (4,), ()]:
            assert np.array_equal(_seed_words(seed, *key), numpy_words(seed, *key)), (seed, key)

    @pytest.mark.parametrize("seed", [*SEED_WIDTHS, 2**64 - 1, 2**64])
    def test_boundary_seeds(self, seed):
        self.assert_numpy_words(seed, 7, 12)
        for key in [(0,), (3,), (4,), (2, 6, 12)]:
            assert _stream(seed, *key).bit_generator.state == numpy_stream(seed, *key).bit_generator.state

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**256), st.integers(1, 40), st.integers(2, 100))
    def test_any_seed_and_shape(self, seed, n_groups, n_periods):
        self.assert_numpy_words(seed, n_groups, n_periods)

    @pytest.mark.parametrize("seed", [np.uint64(2**63 + 5), np.int64(404), np.uint8(0)])
    def test_numpy_integer_seed(self, seed):
        self.assert_numpy_words(seed, 2, 3)
        cfg = small_cfg(seed=seed, T=4, T0=3, N_per_group=5)
        want = simulate_panel(replace(cfg, seed=int(seed)))
        assert np.array_equal(simulate_panel(cfg).panel.outcomes, want.panel.outcomes)

    def test_guard_accepts_numpy_state(self):
        _check_seeding(404, numpy_words(404, 2, 0, 1))

    @pytest.mark.parametrize("wrong", [(405, 2, 0, 1), (404, 2, 0, 2), (404, 2, 1, 1)])
    def test_guard_raises_on_wrong_state(self, wrong):
        with pytest.raises(RuntimeError, match="seeds"):
            _check_seeding(404, numpy_words(*wrong))

    def test_generator_takes_exactly_pcg64s_words(self):
        with pytest.raises(RuntimeError, match="asks for 4 seed words, not 3"):
            microsim._generator(numpy_words(404, 2, 0, 1)[:3])

    def test_study_runs_guard(self, monkeypatch):
        monkeypatch.setattr(microsim, "_seed_words", lambda seed, *key: _seed_words(seed + 1, *key))
        with pytest.raises(RuntimeError, match="seeds"):
            simulate_panel(small_cfg())


def below(x):
    return float(np.nextafter(x, 0.0))


def above(x):
    return float(np.nextafter(x, 2.0))


BIN_EDGES = np.arange(GUIDE_BINS) / GUIDE_BINS


class TestGuideTable:
    """The guide-table lookup gives ``cdf.searchsorted(u, side="right")`` for every uniform."""

    @staticmethod
    def assert_lookup_exact(table, seed=0):
        cdf = table.cdf
        near = np.concatenate([cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 2.0)])
        u = np.concatenate([
            [0.0, below(1.0)],
            BIN_EDGES,
            np.nextafter(BIN_EDGES[1:], 0.0),
            near[(near >= 0.0) & (near < 1.0)],
            np.random.default_rng(seed).random(2000),
        ])
        got = _lookup(table, u, np.empty(u.size, np.intp), np.empty(u.size, np.intp))
        assert np.array_equal(got, cdf.searchsorted(u, side="right"))

    @pytest.mark.parametrize(
        "cdf",
        [
            [0.25, 0.5, 1.0],  # every edge on a bin boundary
            [below(0.5), 0.5, above(0.5), below(0.75), 0.75, above(0.75), 1.0],
            [1 / GUIDE_BINS, above(1 / GUIDE_BINS), 3 / GUIDE_BINS, above(3 / GUIDE_BINS), below(5 / GUIDE_BINS),
             5 / GUIDE_BINS, 1.0],
            [below(4095 / GUIDE_BINS), 4095 / GUIDE_BINS, above(4095 / GUIDE_BINS), 1.0],
            [0.0, 0.0, 0.5, 0.5, 1.0, 1.0],  # leading, interior and trailing zero-probability categories
            [1.0],  # K = 1
        ],
    )
    def test_exact_at_chosen_edges(self, cdf):
        table = _category_cdf(np.diff(cdf, prepend=0.0))
        assert np.array_equal(table.cdf, cdf)  # the edges under test are the table's own
        self.assert_lookup_exact(table)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.builds(lambda b, step: float(np.nextafter(b / GUIDE_BINS, b / GUIDE_BINS + step)),
                      st.integers(1, GUIDE_BINS - 1), st.sampled_from([-1, 0, 1]))
            | st.floats(0.0, 1.0)
            | st.sampled_from([0.0, 1.0]),
            max_size=30,
        )
    )
    @example([])
    def test_exact_for_any_cdf(self, edges):
        cdf = np.array(sorted(edges) + [1.0])
        self.assert_lookup_exact(_category_cdf(np.diff(cdf, prepend=0.0)))

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.builds(lambda b, step: float(np.nextafter(b / GUIDE_BINS, b / GUIDE_BINS + step)),
                      st.integers(0, GUIDE_BINS), st.sampled_from([-1, 0, 1]))
            | st.floats(0.0, 1.0),
            max_size=30,
        ),
        st.integers(1, 3),
    )
    def test_table_is_its_definition(self, edges, repeat):
        # The guide, built from the K entries, is the per-bin searches of the docstring.
        cdf = np.array(sorted(float(np.clip(e, 0.0, 1.0)) for e in edges * repeat) + [1.0])
        table = _category_cdf(np.diff(cdf, prepend=0.0))
        bins = np.arange(GUIDE_BINS + 1) / GUIDE_BINS
        start = table.cdf.searchsorted(bins[:-1], side="right")
        mixed = table.cdf.searchsorted(bins[1:], side="left") != start
        assert np.array_equal(table.guide, np.where(mixed, ~start, start)) and table.guide.dtype == np.intp

    def test_exact_when_every_bin_is_mixed(self):
        # An entry strictly inside every bin: bin b holds ~b, bin 0 the -1 of no entry below it.
        cdf = np.append((np.arange(GUIDE_BINS) + 0.5) / GUIDE_BINS, 1.0)
        table = _category_cdf(np.diff(cdf, prepend=0.0))
        assert np.array_equal(table.cdf, cdf)
        assert np.array_equal(table.guide, ~np.arange(GUIDE_BINS))
        self.assert_lookup_exact(table)

    @pytest.mark.parametrize("k", [GUIDE_BINS + 1, 3 * GUIDE_BINS])
    def test_exact_with_more_categories_than_bins(self, k):
        rng = np.random.default_rng(k)
        probs = rng.dirichlet(np.ones(k)) * (rng.random(k) < 0.8)
        table = _category_cdf(probs / probs.sum())
        assert (table.guide < 0).any()
        self.assert_lookup_exact(table, seed=k)

    def test_criterion_4_study_searches_at_most_k_minus_one_bins(self):
        # The fast path holds: a table that marked every bin mixed would still be exact, only slow.
        cfg = SimConfig(S_cardinality=5, T=20, T0=15, seed=42, N_per_group=2000, ramp_scale=0.0)
        for seed in range(cfg.seed, cfg.seed + 20):
            compositions, _ = sample_compositions(cfg, _stream(seed, 0))
            for comp in compositions:
                assert (_category_cdf(comp).guide < 0).sum() <= cfg.K - 1


class TestValidation:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0])
    def test_sim_config_noise_sd(self, value):
        with pytest.raises(UsageError, match="noise_sd"):
            small_cfg(noise_sd=value)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3", None])
    def test_sim_config_seed(self, seed):
        with pytest.raises(UsageError, match="seed"):
            small_cfg(seed=seed)

    @pytest.mark.parametrize(
        "name, value",
        [("T", 8.5), ("T0", 6.0), ("K", True), ("S_cardinality", "3"), ("N_per_group", 10.0),
         ("num_donors", False), ("covariate_count", 1.5)],
    )
    def test_sim_config_integer_fields(self, name, value):
        with pytest.raises(UsageError, match=f"{name} must be an integer"):
            small_cfg(**{name: value})

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("N_per_group", 0, "N_per_group must be at least 1"),
            ("num_donors", 0, "need at least one donor group"),
            ("aggregation", "mode", "aggregation must be one of"),
            ("composition_mode", "uniform", "composition_mode must be one of"),
            ("covariate_count", -1, "covariate_count must be nonnegative"),
        ],
    )
    def test_sim_config_ranges(self, name, value, message):
        with pytest.raises(UsageError, match=message):
            small_cfg(**{name: value})

    def test_sim_config_accepts_numpy_integers(self):
        fields = dict(S_cardinality=5, T=10, T0=7, K=12, num_donors=5, N_per_group=200, covariate_count=2)
        cfg = small_cfg(**{name: np.int32(v) for name, v in fields.items()})
        assert simulate_panel(cfg).panel.outcomes.shape == (6, 10)

    def test_sim_config_accepts_numpy_integer_seed(self):
        assert small_cfg(seed=np.uint64(2**64 - 1)).seed == 2**64 - 1

    def test_sim_config_needs_a_category(self):
        with pytest.raises(UsageError, match="K >= 1"):
            small_cfg(K=0, S_cardinality=0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_sim_config_ramp_scale(self, value):
        with pytest.raises(UsageError, match="ramp_scale"):
            small_cfg(ramp_scale=value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_sim_config_shift(self, value):
        with pytest.raises(UsageError, match="post_intervention_shift"):
            small_cfg(post_intervention_shift=value)
