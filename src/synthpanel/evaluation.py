"""Experiment harness: time-split evaluation and replication sweeps.

The evaluation protocol fits weights on the leading fraction of an
untreated panel and scores mean squared tracking error separately on the
fit window ("observed") and the held-out tail ("counterfactual").

All three experiments (the S sweep, the mean/median horizon sweep and the
covariate study) run on one engine, and :data:`EXPERIMENTS` says what each
one sets and which evaluators score it. At knob value ``i`` the engine scores
``replications`` fresh untreated studies with :func:`score_replication` and
returns every evaluation; each experiment then summarizes each evaluator's
MSEs under its knob value, or, in the covariate study, under its row name.

Seed contract: replication ``r`` at knob value ``i`` uses the study seed
``derive_seed(base.seed, i, r)``, whatever else the knob changes. Every
evaluator of a replication scores the same study, so paired designs share
identical draws, and reruns are bit-identical.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import astuple, dataclass, fields, replace
from typing import Sequence

import numpy as np

from .errors import UsageError
from .estimators import FitConfig, estimate_effect, fit
from .microsim import AGGREGATIONS, SimConfig, simulate_panel
from .panel import AuxMatrix, PanelData, frozen_array, write_csv
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

    def __post_init__(self):
        for name, what in (("observed_mse", "the observed MSE"), ("counterfactual_mse", "the counterfactual MSE")):
            object.__setattr__(self, name, float(frozen_array(getattr(self, name), what)))


@dataclass(frozen=True)
class SweepPoint:
    """Replication summary at one knob value (SE = sample sd / sqrt(n))."""

    knob: int | str
    observed_mse: float
    counterfactual_mse: float
    se_observed: float
    se_counterfactual: float
    replications: int

    def __post_init__(self):
        for name in ("observed_mse", "counterfactual_mse", "se_observed", "se_counterfactual"):
            object.__setattr__(self, name, float(frozen_array(getattr(self, name), f"{name} at knob {self.knob}")))


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
    # An MSE that overflows is rejected by SplitEvaluation's finiteness check.
    with np.errstate(over="ignore"):
        mses = np.mean(gaps[:n_fit] ** 2), np.mean(gaps[n_fit:] ** 2)
    return SplitEvaluation(*mses, n_fit=n_fit, underdetermined=n_fit < len(list(donors)))


def _summarize(knob, evaluations: Sequence[SplitEvaluation]) -> SweepPoint:
    obs = np.array([ev.observed_mse for ev in evaluations])
    cf = np.array([ev.counterfactual_mse for ev in evaluations])
    n = obs.size

    def se(v: np.ndarray) -> float:
        return v.std(ddof=1) / np.sqrt(n) if n > 1 else 0.0

    # A summary that overflows is rejected by SweepPoint's finiteness check.
    with np.errstate(over="ignore", invalid="ignore"):
        summary = obs.mean(), cf.mean(), se(obs), se(cf)
    return SweepPoint(knob, *summary, replications=n)


# Each experiment's knob field, the SimConfig fields it holds constant, and its
# evaluators: name -> (the panel aggregation scored, None for the config's own;
# the SimulatedStudy covariate block stacked, or None). The sweeps draw no
# covariates and their time split replaces T0, so T0 = 1 is moot.
_SWEEP_CONSTANTS = dict(T0=1, post_intervention_shift=0.0, covariate_count=0)
EXPERIMENTS = {
    "S": ("S_cardinality", _SWEEP_CONSTANTS, {"S": (None, None)}),
    "T": ("T", {**_SWEEP_CONSTANTS, "aggregation": "mean"}, {a: (a, None) for a in AGGREGATIONS}),
    "covariates": (
        "T",
        dict(post_intervention_shift=0.0),
        {"outcome_only": (None, None), "suitable": (None, "aux_suitable"), "unsuitable": (None, "aux_unsuitable")},
    ),
}
COVARIATE_ROWS = tuple(EXPERIMENTS["covariates"][2])


def score_replication(experiment: str, cfg: SimConfig, fit_cfg: FitConfig, split: float) -> dict[str, SplitEvaluation]:
    """Score the study ``cfg`` with each evaluator of ``experiment``; function, arguments and result pickle."""
    evaluators = EXPERIMENTS[experiment][2]
    study = simulate_panel(cfg, aggregations=[a for a, _ in evaluators.values() if a is not None])
    evaluations = {}
    for name, (aggregation, block) in evaluators.items():
        panel = study.panels[aggregation or cfg.aggregation]
        aux = getattr(study, block) if block else None
        evaluations[name] = time_split_evaluate(panel, panel.donor_indices(), fit_cfg, split, aux)
    return evaluations


def _sweep(
    base: SimConfig,
    experiment: str,
    knob_values: Sequence[int],
    replications: int,
    fit_cfg: FitConfig,
    split: float,
) -> dict[str, list[list[SplitEvaluation]]]:
    """The one replication loop behind every sweep.

    With ``field, constants, evaluators = EXPERIMENTS[experiment]``,
    replication ``r`` at knob value ``i`` is :func:`score_replication` of the
    study ``replace(base, seed=derive_seed(base.seed, i, r), **constants,
    **{field: knob})``, taken in (point, replication) order. Returns each
    evaluator's evaluations, in table order: per knob value, one per replication.
    """
    field, constants, evaluators = EXPERIMENTS[experiment]
    if not knob_values:
        raise UsageError("a sweep needs at least one knob value")
    if replications < 1:
        raise UsageError(f"replications must be at least 1, got {replications}")
    cells = ((i, knob, r) for i, knob in enumerate(knob_values) for r in range(replications))
    configs = (replace(base, seed=derive_seed(base.seed, i, r), **constants, **{field: knob}) for i, knob, r in cells)
    scored = map(functools.partial(score_replication, experiment, fit_cfg=fit_cfg, split=split), configs)
    evaluations = {name: [] for name in evaluators}
    for knob in knob_values:
        point = list(itertools.islice(scored, replications))
        if any(ev.underdetermined for replication in point for ev in replication.values()):
            # Two frames up: the caller of the public sweep function.
            warnings.warn(f"underdetermined fits at {field}={knob}", stacklevel=3)
        for name, points in evaluations.items():
            points.append([replication[name] for replication in point])
    return evaluations


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
    (points,) = _sweep(base, "S", S_values, replications, fit_cfg, split).values()
    return SweepResult("S", tuple(map(_summarize, S_values, points)))


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
    evaluations = _sweep(base, "T", T_values, replications, fit_cfg, split)
    return tuple(SweepResult("T", tuple(map(_summarize, T_values, points))) for points in evaluations.values())


def covariate_experiment(
    base: SimConfig,
    replications: int = 100,
    fit_cfg: FitConfig = FitConfig(),
    split: float = 0.75,
) -> SweepResult:
    """Outcome-only vs +suitable vs +unsuitable covariate fits, paired.

    All three rows of each replication reuse one simulated study, so the
    comparison isolates the effect of stacking each covariate block. The
    study is the single point (index 0) of a sweep at ``base.T``; each row
    is summarized under its own name.
    """
    if base.covariate_count < 1:
        raise UsageError("covariate_experiment needs covariate_count >= 1")
    evaluations = _sweep(base, "covariates", [base.T], replications, fit_cfg, split)
    return SweepResult("covariates", tuple(_summarize(row, points) for row, (points,) in evaluations.items()))


def write_sweep_csv(result: SweepResult, path) -> None:
    """One row per point and one column per :class:`SweepPoint` field, floats in shortest round-trip form."""
    rows = ([_fmt(v) if isinstance(v, float) else v for v in astuple(p)] for p in result.points)
    write_csv(path, [f.name for f in fields(SweepPoint)], rows)
