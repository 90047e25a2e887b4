"""Experiment harness: time-split evaluation and replication sweeps.

The evaluation protocol fits weights on the leading fraction of an
untreated panel and scores mean squared tracking error separately on the
fit window ("observed") and the held-out tail ("counterfactual"). Sweeps
rerun that protocol over a knob with freshly seeded studies; seeds derive
deterministically from (master seed, knob index, replication index), so
paired designs share identical draws and reruns are bit-identical.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import UsageError
from .estimators import FitConfig, fit, predict_counterfactual
from .microsim import SimConfig, simulate_panel
from .panel import AuxMatrix, PanelData
from .panel import format_float as _fmt

__all__ = [
    "SplitEvaluation",
    "SweepPoint",
    "SweepResult",
    "derive_seed",
    "time_split_evaluate",
    "sweep_S",
    "sweep_T_mean_median",
    "covariate_experiment",
    "write_sweep_csv",
]


@dataclass(frozen=True)
class SplitEvaluation:
    """In-window and out-of-window mean squared error of one fit."""

    observed_mse: float
    counterfactual_mse: float
    split_fraction: float
    n_fit: int
    n_eval: int
    underdetermined: bool


@dataclass(frozen=True)
class SweepPoint:
    """Replication summary at one knob value (SE = sample sd / sqrt(n))."""

    knob: int | str
    observed_mse: float
    counterfactual_mse: float
    se_observed: float
    se_counterfactual: float
    replications: int


@dataclass(frozen=True, eq=False)
class SweepResult:
    knob_name: str
    points: tuple[SweepPoint, ...]

    @property
    def knob_values(self) -> tuple:
        return tuple(p.knob for p in self.points)


def derive_seed(master: int, *key: int) -> int:
    """Deterministic child seed of a master seed, keyed by integers."""
    seq = np.random.SeedSequence(master, spawn_key=key)
    return int(seq.generate_state(1, np.uint64)[0])


def time_split_evaluate(
    panel: PanelData,
    donors: Sequence[int],
    cfg: FitConfig = FitConfig(),
    split: float = 0.75,
    aux: AuxMatrix | None = None,
) -> SplitEvaluation:
    """Fit on the first ceil(split * T) periods, score both segments.

    The panel is assumed untreated throughout (simulation control data);
    the split overrides its intervention time for fitting purposes. When
    the fit window has fewer periods than donors the system is
    underdetermined; the result is flagged, not suppressed.
    """
    if not 0.0 < split < 1.0:
        raise UsageError("split fraction must lie strictly between 0 and 1")
    t = panel.n_periods
    n_fit = math.ceil(split * t)
    if not 1 <= n_fit < t:
        raise UsageError(f"split {split} leaves no evaluation periods for T={t}")
    fit_panel = replace(panel, intervention_time=n_fit)
    weights = fit(fit_panel, donors, aux, cfg)
    synthetic = predict_counterfactual(weights, panel)
    gaps = panel.outcomes[panel.target_index] - synthetic
    return SplitEvaluation(
        observed_mse=float(np.mean(gaps[:n_fit] ** 2)),
        counterfactual_mse=float(np.mean(gaps[n_fit:] ** 2)),
        split_fraction=split,
        n_fit=n_fit,
        n_eval=t - n_fit,
        underdetermined=n_fit < len(list(donors)),
    )


def _summarize(knob, observed: list[float], counterfactual: list[float]) -> SweepPoint:
    obs = np.asarray(observed)
    cf = np.asarray(counterfactual)
    n = obs.size

    def se(v: np.ndarray) -> float:
        return float(v.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0

    return SweepPoint(
        knob=knob,
        observed_mse=float(obs.mean()),
        counterfactual_mse=float(cf.mean()),
        se_observed=se(obs),
        se_counterfactual=se(cf),
        replications=n,
    )


def _evaluate(panel: PanelData, fit_cfg: FitConfig, split: float) -> SplitEvaluation:
    return time_split_evaluate(panel, panel.donor_indices(), fit_cfg, split)


def _check_sweep(values: Sequence, replications: int) -> tuple:
    """The knob values as a tuple; a sweep with nothing to summarize is an error."""
    values = tuple(values)
    if not values:
        raise UsageError("a sweep needs at least one knob value")
    if replications < 1:
        raise UsageError(f"replications must be at least 1, got {replications}")
    return values


def sweep_S(
    base: SimConfig,
    S_values: Sequence[int] = tuple(range(2, 12)),
    replications: int = 100,
    fit_cfg: FitConfig = FitConfig(),
    split: float = 0.75,
) -> SweepResult:
    """Error curves as the number of differing categories grows.

    Studies are untreated controls; covariates are not generated.
    """
    S_values = _check_sweep(S_values, replications)
    points = []
    for i, s in enumerate(S_values):
        observed, counterfactual = [], []
        flagged = False
        for r in range(replications):
            cfg = replace(
                base,
                S_cardinality=s,
                seed=derive_seed(base.seed, i, r),
                post_intervention_shift=0.0,
                covariate_count=0,
            )
            ev = _evaluate(simulate_panel(cfg).panel, fit_cfg, split)
            flagged = flagged or ev.underdetermined
            observed.append(ev.observed_mse)
            counterfactual.append(ev.counterfactual_mse)
        if flagged:
            warnings.warn(f"underdetermined fits at S_cardinality={s}", stacklevel=2)
        points.append(_summarize(s, observed, counterfactual))
    return SweepResult(knob_name="S", points=tuple(points))


# The two channels of the horizon sweep, in the order it returns them.
CHANNELS = ("mean", "median")


def sweep_T_mean_median(
    base: SimConfig,
    T_values: Sequence[int] = tuple(range(20, 91, 10)),
    replications: int = 100,
    fit_cfg: FitConfig = FitConfig(),
    split: float = 0.75,
) -> tuple[SweepResult, SweepResult]:
    """Paired mean- vs median-aggregation sweeps over the horizon length.

    Each replication simulates one study and reduces every cell's draw
    both ways, so the two channels score the very same individuals. The
    results equal two separate sweeps, one per aggregation, at the same
    seeds.
    """
    T_values = _check_sweep(T_values, replications)
    points = {aggregation: [] for aggregation in CHANNELS}
    for i, t in enumerate(T_values):
        t0 = min(math.ceil(split * t), t - 1)
        scores = {aggregation: ([], []) for aggregation in CHANNELS}
        flagged = False
        for r in range(replications):
            cfg = replace(
                base,
                T=t,
                T0=t0,
                seed=derive_seed(base.seed, i, r),
                aggregation="mean",
                post_intervention_shift=0.0,
                covariate_count=0,
            )
            study = simulate_panel(cfg, aggregations=CHANNELS)
            for aggregation, (observed, counterfactual) in scores.items():
                ev = _evaluate(study.panels[aggregation], fit_cfg, split)
                flagged = flagged or ev.underdetermined
                observed.append(ev.observed_mse)
                counterfactual.append(ev.counterfactual_mse)
        if flagged:
            warnings.warn(f"underdetermined fits at T={t}", stacklevel=2)
        for aggregation, collected in scores.items():
            points[aggregation].append(_summarize(t, *collected))
    return tuple(SweepResult(knob_name="T", points=tuple(points[a])) for a in CHANNELS)


COVARIATE_ROWS = ("outcome_only", "suitable", "unsuitable")


def covariate_experiment(
    base: SimConfig,
    replications: int = 100,
    fit_cfg: FitConfig = FitConfig(),
    split: float = 0.75,
) -> SweepResult:
    """Outcome-only vs +suitable vs +unsuitable covariate fits, paired.

    All three rows of each replication reuse one simulated study, so the
    comparison isolates the effect of stacking each covariate block.
    """
    if base.covariate_count < 1:
        raise UsageError("covariate_experiment needs covariate_count >= 1")
    _check_sweep(COVARIATE_ROWS, replications)
    collected = {row: ([], []) for row in COVARIATE_ROWS}
    with_cov = replace(fit_cfg, include_covariates=True)
    for r in range(replications):
        cfg = replace(base, seed=derive_seed(base.seed, 0, r), post_intervention_shift=0.0)
        study = simulate_panel(cfg)
        donors = study.panel.donor_indices()
        runs = {
            "outcome_only": time_split_evaluate(study.panel, donors, fit_cfg, split),
            "suitable": time_split_evaluate(study.panel, donors, with_cov, split, study.aux_suitable),
            "unsuitable": time_split_evaluate(study.panel, donors, with_cov, split, study.aux_unsuitable),
        }
        for row, ev in runs.items():
            collected[row][0].append(ev.observed_mse)
            collected[row][1].append(ev.counterfactual_mse)
    points = tuple(_summarize(row, *collected[row]) for row in COVARIATE_ROWS)
    return SweepResult(knob_name="covariates", points=points)


def write_sweep_csv(result: SweepResult, path) -> None:
    """knob,observed_mse,counterfactual_mse,se_observed,se_counterfactual,replications"""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["knob", "observed_mse", "counterfactual_mse", "se_observed", "se_counterfactual", "replications"]
        )
        for p in result.points:
            writer.writerow(
                [
                    p.knob,
                    _fmt(p.observed_mse),
                    _fmt(p.counterfactual_mse),
                    _fmt(p.se_observed),
                    _fmt(p.se_counterfactual),
                    p.replications,
                ]
            )
