"""Experiment harness: time-split evaluation and replication sweeps.

The evaluation protocol fits weights on the leading fraction of an
untreated panel and scores mean squared tracking error separately on the
fit window ("observed") and the held-out tail ("counterfactual").

All three experiments (the S sweep, the mean/median horizon sweep and the
covariate study) run on one engine, and :data:`EXPERIMENTS` says what each
one sets. At knob value ``i`` the engine simulates ``replications`` fresh
untreated studies and scores each with every evaluator of the experiment,
then summarizes each evaluator's MSEs.

Seed contract: replication ``r`` at knob value ``i`` uses the study seed
``derive_seed(base.seed, i, r)``, whatever else the knob changes. Every
evaluator of a replication scores the same study, so paired designs share
identical draws, and reruns are bit-identical.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import astuple, dataclass, fields, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import DataValidationError, UsageError
from .estimators import FitConfig, estimate_effect, fit
from .microsim import AGGREGATIONS, SimConfig, SimulatedStudy, simulate_panel
from .panel import AuxMatrix, PanelData, write_csv
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
    n_fit: int
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
    gaps = estimate_effect(weights, panel).gap
    with np.errstate(over="ignore"):
        observed_mse, counterfactual_mse = float(np.mean(gaps[:n_fit] ** 2)), float(np.mean(gaps[n_fit:] ** 2))
    if not (math.isfinite(observed_mse) and math.isfinite(counterfactual_mse)):
        raise DataValidationError("outcomes too large to score: the tracking MSE is not finite")
    return SplitEvaluation(
        observed_mse=observed_mse,
        counterfactual_mse=counterfactual_mse,
        n_fit=n_fit,
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


def _evaluate(panel: PanelData, fit_cfg: FitConfig, split: float, aux: AuxMatrix | None = None) -> SplitEvaluation:
    return time_split_evaluate(panel, panel.donor_indices(), fit_cfg, split, aux)


# Each experiment's knob field and the SimConfig fields it holds constant. The
# sweeps draw no covariates and their time split replaces T0, so T0 = 1 is moot.
EXPERIMENTS = {
    "S": ("S_cardinality", dict(T0=1, post_intervention_shift=0.0, covariate_count=0)),
    "T": ("T", dict(T0=1, aggregation="mean", post_intervention_shift=0.0, covariate_count=0)),
    "covariates": ("T", dict(post_intervention_shift=0.0)),
}


def _sweep(
    base: SimConfig,
    experiment: str,
    knob_values: Sequence[int],
    replications: int,
    evaluators: Mapping[str, Callable[[SimulatedStudy], SplitEvaluation]],
    aggregations: Sequence[str] = (),
) -> dict[str, list[SweepPoint]]:
    """The one replication loop behind every sweep.

    With ``field, constants = EXPERIMENTS[experiment]``, replication ``r`` at
    knob value ``i`` simulates ``replace(base, seed=derive_seed(base.seed, i,
    r), **constants, **{field: knob})``, reduced by ``aggregations`` as well,
    and scores it with every evaluator. Returns each evaluator's summaries,
    one per knob value in the order given.
    """
    field, constants = EXPERIMENTS[experiment]
    if not knob_values:
        raise UsageError("a sweep needs at least one knob value")
    if replications < 1:
        raise UsageError(f"replications must be at least 1, got {replications}")
    summaries = {name: [] for name in evaluators}
    for i, knob in enumerate(knob_values):
        scores = {name: ([], []) for name in evaluators}
        flagged = False
        for r in range(replications):
            cfg = replace(base, seed=derive_seed(base.seed, i, r), **constants, **{field: knob})
            study = simulate_panel(cfg, aggregations=aggregations)
            for name, evaluate in evaluators.items():
                ev = evaluate(study)
                flagged = flagged or ev.underdetermined
                scores[name][0].append(ev.observed_mse)
                scores[name][1].append(ev.counterfactual_mse)
        if flagged:
            # Two frames up: the caller of the public sweep function.
            warnings.warn(f"underdetermined fits at {field}={knob}", stacklevel=3)
        for name, collected in scores.items():
            summaries[name].append(_summarize(knob, *collected))
    return summaries


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
    evaluators = {"S": lambda study: _evaluate(study.panel, fit_cfg, split)}
    summaries = _sweep(base, "S", S_values, replications, evaluators)
    return SweepResult(knob_name="S", points=tuple(summaries["S"]))


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
    results, in ``AGGREGATIONS`` order, equal two separate sweeps, one per
    aggregation, at the same seeds.
    """
    evaluators = {
        aggregation: lambda study, aggregation=aggregation: _evaluate(study.panels[aggregation], fit_cfg, split)
        for aggregation in AGGREGATIONS
    }
    summaries = _sweep(base, "T", T_values, replications, evaluators, aggregations=AGGREGATIONS)
    return tuple(SweepResult(knob_name="T", points=tuple(summaries[a])) for a in AGGREGATIONS)


COVARIATE_ROWS = ("outcome_only", "suitable", "unsuitable")


def covariate_experiment(
    base: SimConfig,
    replications: int = 100,
    fit_cfg: FitConfig = FitConfig(),
    split: float = 0.75,
) -> SweepResult:
    """Outcome-only vs +suitable vs +unsuitable covariate fits, paired.

    All three rows of each replication reuse one simulated study, so the
    comparison isolates the effect of stacking each covariate block. The
    study is the single point (index 0) of a sweep at ``base.T``.
    """
    if base.covariate_count < 1:
        raise UsageError("covariate_experiment needs covariate_count >= 1")
    evaluators = {
        "outcome_only": lambda study: _evaluate(study.panel, fit_cfg, split),
        "suitable": lambda study: _evaluate(study.panel, fit_cfg, split, study.aux_suitable),
        "unsuitable": lambda study: _evaluate(study.panel, fit_cfg, split, study.aux_unsuitable),
    }
    summaries = _sweep(base, "covariates", [base.T], replications, evaluators)
    points = tuple(replace(summaries[row][0], knob=row) for row in COVARIATE_ROWS)
    return SweepResult(knob_name="covariates", points=points)


def write_sweep_csv(result: SweepResult, path) -> None:
    """One row per point and one column per :class:`SweepPoint` field, floats in shortest round-trip form."""
    rows = ([_fmt(v) if isinstance(v, float) else v for v in astuple(p)] for p in result.points)
    write_csv(path, [f.name for f in fields(SweepPoint)], rows)
