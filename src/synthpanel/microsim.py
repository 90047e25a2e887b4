"""Individual-level data generator with exposed ground truth.

Groups are distributions over K cause categories; an individual's outcome
is a nonlinear, time-varying function of their category plus Gaussian
noise; the panel cell is the mean (or median) over fresh individuals drawn
each period. Because the generator keeps its compositions and conditional
means, every study carries its own noiseless oracle:
:func:`expected_outcome` gives a group's expected control outcome at every
period at once, as its composition times the conditional-mean table.

Randomness is organized as independent child streams of the master seed:
one stream for group compositions and outcome functions, one per
(group, period) cell, and one per covariate block. Distinct cells can
therefore be generated independently or in parallel, and the panel does
not change when covariate settings do.

There is one draw per cell, reduced by each requested aggregation: a study
can carry its mean and its median panel side by side, and both reduce the
very same individuals.

An individual's category is the one ``Generator.choice`` gives for the same
uniform, read from a guide table built once per group (Chen & Asau 1974;
Devroye, *Non-Uniform Random Variate Generation*, 1986, section III.2.4):
``GUIDE_BINS`` equal bins of [0, 1), each holding the category of its left
edge. Every uniform in a bin that no CDF entry falls inside has that
category; only the uniforms in the at most K - 1 other bins are found by
``choice``'s own binary search. So the indices, and every draw, are
exactly ``choice``'s.
"""

from __future__ import annotations

import math
import numbers
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DataValidationError, UsageError
from .panel import AuxMatrix, PanelData, aux_from_csv, aux_to_csv, frozen_array, from_csv, read_json, select_groups
from .panel import to_csv, write_json

__all__ = [
    "GroupComposition",
    "OutcomeFunctionFamily",
    "SimConfig",
    "SimulatedStudy",
    "simulate_panel",
    "expected_outcome",
    "write_study_bundle",
    "load_study_bundle",
]

AGGREGATIONS = ("mean", "median")
COMPOSITION_MODES = ("invariant_split", "dirichlet_mask")

# Mass reserved for the shared (invariant) categories in invariant_split
# mode; any constant in (0, 1) preserves the identification guarantees.
INVARIANT_MASS = 0.5

# Structure of the default conditional-mean family. Every category's
# curve is a loading combination of one shared basis:
#   level, log trend, N_OSCILLATIONS sinusoids that complete full cycles
#   inside any realistic fit window, and one slowly accelerating ramp
#   (t/T)^RAMP_POWER whose energy concentrates late in the horizon.
# The wrapped oscillations carry as much energy inside a fit window as
# beyond it, so weight noise cannot blow up out-of-window; the ramp is
# the one direction that is quiet early and large late, which is what
# makes counterfactual error explode once the differing categories
# outnumber the donors while the fit-window error stays flat.
N_OSCILLATIONS = 4
OSC_FREQUENCY_RANGE = (0.7, 2.9)
PHASE_RANGE = (0.0, 2.0 * np.pi)
OSC_LOADING_RANGE = (-1.8, 1.8)
LEVEL_RANGE = (-2.0, 2.0)
TREND_RANGE = (-1.0, 1.0)
RAMP_POWER = 3.0
RAMP_LOADING_RANGE = (-2.8, 2.8)

# Multiplier applied to the sine argument of the m-th suitable covariate:
# the ladder runs from SIN_LADDER_MAX/count up to SIN_LADDER_MAX. Gentle
# warps keep these covariates close to rescaled outcome measurements.
SIN_LADDER_MAX = 0.5

# Concentration of the per-group sub-distribution on the differing
# categories (invariant_split mode).
DIRICHLET_ALPHA = 1.0

# Bins of a category guide table. A power of two, so that int(u * GUIDE_BINS)
# is the exact bin of every uniform u in [0, 1).
GUIDE_BINS = 4096


def _stream(seed: int, *key: int) -> np.random.Generator:
    """Child generator of the master seed, keyed by integers."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _require_nonnegative(name: str, value: float) -> None:
    if not (math.isfinite(value) and value >= 0):
        raise UsageError(f"{name} must be a finite nonnegative number, got {value!r}")


@dataclass(frozen=True, eq=False)
class GroupComposition:
    """Probability vector over the K cause categories for one group."""

    probs: np.ndarray

    def __post_init__(self):
        probs = frozen_array(self.probs, "the composition")
        object.__setattr__(self, "probs", probs)
        if probs.ndim != 1:
            raise DataValidationError("composition must be a 1-D probability vector")
        if probs.min() < 0:
            raise DataValidationError("composition entries must be nonnegative")
        if abs(probs.sum() - 1.0) > 1e-12:
            raise DataValidationError(f"composition sums to {probs.sum()!r}, not 1")

    @property
    def n_categories(self) -> int:
        return self.probs.size


@dataclass(frozen=True, eq=False)
class OutcomeFunctionFamily:
    """Conditional outcome means per (category, period).

    ``conditional_mean[k, t-1]`` is the expected control outcome of an
    individual in category ``k`` at period ``t``. Neither the individual
    noise nor the intervention's shift is part of the family: they are
    ``SimConfig.noise_sd`` and ``SimConfig.post_intervention_shift``.
    """

    conditional_mean: np.ndarray

    def __post_init__(self):
        lam = frozen_array(self.conditional_mean, "the conditional-mean table")
        object.__setattr__(self, "conditional_mean", lam)
        if lam.ndim != 2:
            raise DataValidationError("conditional_mean must be a (category x period) matrix")


@dataclass(frozen=True)
class SimConfig:
    """All knobs of one simulated study. The seed is part of the identity:
    equal configs produce bit-identical studies."""

    S_cardinality: int
    T: int
    T0: int
    seed: int
    K: int = 12
    num_donors: int = 5
    N_per_group: int = 2000
    aggregation: str = "mean"
    composition_mode: str = "invariant_split"
    noise_sd: float = 1.0
    post_intervention_shift: float = 0.0
    covariate_count: int = 10
    ramp_scale: float = 1.0

    def __post_init__(self):
        for name in ("S_cardinality", "T", "T0", "seed", "K", "num_donors", "N_per_group", "covariate_count"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise UsageError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise UsageError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if self.K < 1:
            raise UsageError("need at least one category (K >= 1)")
        if not 0 <= self.S_cardinality <= self.K:
            raise UsageError(f"S_cardinality must lie in 0..{self.K}")
        if self.N_per_group < 1:
            raise UsageError("N_per_group must be at least 1")
        if not 1 <= self.T0 < self.T:
            raise UsageError("need 1 <= T0 < T")
        if self.num_donors < 1:
            raise UsageError("need at least one donor group")
        if self.aggregation not in AGGREGATIONS:
            raise UsageError(f"aggregation must be one of {AGGREGATIONS}")
        if self.composition_mode not in COMPOSITION_MODES:
            raise UsageError(f"composition_mode must be one of {COMPOSITION_MODES}")
        if self.covariate_count < 0:
            raise UsageError("covariate_count must be nonnegative")
        _require_nonnegative("noise_sd", self.noise_sd)
        _require_nonnegative("ramp_scale", self.ramp_scale)
        if not math.isfinite(self.post_intervention_shift):
            raise UsageError("post_intervention_shift must be finite")

    @property
    def n_groups(self) -> int:
        return 1 + self.num_donors


@dataclass(frozen=True, eq=False)
class SimulatedStudy:
    """A generated panel together with its hidden ground truth.

    ``compositions`` is ordered target first, matching the panel's groups,
    each over ``config.K`` categories; ``functions`` is a K x T table.
    ``panels`` maps each aggregation the study was reduced by to its panel;
    it always holds ``panel`` under ``config.aggregation``.
    """

    panel: PanelData
    compositions: tuple[GroupComposition, ...]
    functions: OutcomeFunctionFamily
    true_S: frozenset[int]
    aux_suitable: AuxMatrix
    aux_unsuitable: AuxMatrix
    config: SimConfig = field(repr=False)
    panels: Mapping[str, PanelData] | None = field(default=None, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "compositions", tuple(self.compositions))
        object.__setattr__(self, "true_S", frozenset(int(k) for k in self.true_S))
        cfg = self.config
        if self.functions.conditional_mean.shape != (cfg.K, cfg.T):
            raise DataValidationError(f"conditional_mean must be a K x T = {cfg.K} x {cfg.T} table")
        if len(self.compositions) != cfg.n_groups:
            raise DataValidationError(f"{len(self.compositions)} compositions for {cfg.n_groups} groups")
        if any(c.n_categories != cfg.K for c in self.compositions):
            raise DataValidationError(f"every composition must cover K = {cfg.K} categories")
        panels = dict(self.panels or {})
        if panels.setdefault(cfg.aggregation, self.panel) is not self.panel:
            raise DataValidationError(f"panels[{cfg.aggregation!r}] must be the study panel")
        object.__setattr__(self, "panels", MappingProxyType(panels))
        for aggregation, panel in panels.items():
            if aggregation not in AGGREGATIONS:
                raise DataValidationError(f"unknown aggregation {aggregation!r}")
            if panel.n_groups != cfg.n_groups or panel.n_periods != cfg.T:
                raise DataValidationError("panel dimensions do not match the study config")
        if cfg.composition_mode == "invariant_split" and len(self.true_S) != cfg.S_cardinality:
            raise DataValidationError(
                f"invariant_split study must have |S| = {cfg.S_cardinality}, got {len(self.true_S)}"
            )


def sample_compositions(
    cfg: SimConfig, rng: np.random.Generator
) -> tuple[tuple[GroupComposition, ...], frozenset[int]]:
    """Draw one composition per group (target first) and the differing set.

    invariant_split: the differing categories are chosen up front and get
    an independent Dirichlet(1,..,1) sub-distribution per group; all other
    categories share one fixed sub-distribution, so exactly S_cardinality
    categories differ across groups. (S_cardinality = 1 is vacuous: a
    single category cannot differ alone under the sum-to-one constraint,
    so the sampled compositions are then identical, as with 0.)

    dirichlet_mask: each group gets a Bernoulli(1 - |S|/K) support mask and
    a flat Dirichlet on it (all-zero masks redrawn; at |S| = K the mask
    degenerates and each group collapses to a random point mass). The
    differing set is computed from the sampled vectors, not imposed.
    """
    k, s_card, n_groups = cfg.K, cfg.S_cardinality, cfg.n_groups
    if cfg.composition_mode == "invariant_split":
        true_s = np.sort(rng.choice(k, size=s_card, replace=False)) if s_card else np.array([], int)
        complement = np.setdiff1d(np.arange(k), true_s)
        shared = rng.dirichlet(np.ones(complement.size)) if complement.size else None
        compositions = []
        for _ in range(n_groups):
            probs = np.zeros(k)
            if s_card == 0:
                probs[complement] = shared
            elif complement.size == 0:
                probs[true_s] = rng.dirichlet(np.full(s_card, DIRICHLET_ALPHA))
            else:
                probs[complement] = INVARIANT_MASS * shared
                probs[true_s] = (1.0 - INVARIANT_MASS) * rng.dirichlet(np.full(s_card, DIRICHLET_ALPHA))
            compositions.append(GroupComposition(probs))
        return tuple(compositions), frozenset(int(i) for i in true_s)

    p_keep = 1.0 - s_card / k
    compositions = []
    for _ in range(n_groups):
        if p_keep == 0.0:
            mask = np.zeros(k, dtype=bool)
            mask[rng.integers(k)] = True
        else:
            mask = rng.binomial(1, p_keep, k).astype(bool)
            while not mask.any():
                mask = rng.binomial(1, p_keep, k).astype(bool)
        probs = np.zeros(k)
        probs[mask] = rng.dirichlet(np.ones(int(mask.sum())))
        compositions.append(GroupComposition(probs))
    stacked = np.array([c.probs for c in compositions])
    gaps = np.abs(stacked - stacked[0]).max(axis=0)
    return tuple(compositions), frozenset(int(i) for i in np.nonzero(gaps > 1e-9)[0])


def conditional_mean_default(
    K: int,
    T: int,
    rng: np.random.Generator,
    ramp_scale: float = 1.0,
) -> OutcomeFunctionFamily:
    """Smooth nonlinear time-varying conditional means, without noise.

    Each category curve is a random loading combination of a shared basis:
    level, log trend, a few sinusoids, and a late-rising ramp (see the
    module constants). ``ramp_scale`` multiplies the ramp loadings; zero
    removes the late-rising direction entirely. Nonlinear in t and
    non-additive across categories; deterministic given the generator
    state.
    """
    if K < 1 or T < 1:
        raise UsageError("need K >= 1 and T >= 1")
    t = np.arange(1, T + 1)
    nu = rng.uniform(*OSC_FREQUENCY_RANGE, N_OSCILLATIONS)
    psi = rng.uniform(*PHASE_RANGE, N_OSCILLATIONS)
    oscillations = np.sin(nu[:, None] * t + psi[:, None])
    level = rng.uniform(*LEVEL_RANGE, K)
    trend = rng.uniform(*TREND_RANGE, K)
    osc_loadings = rng.uniform(*OSC_LOADING_RANGE, (K, N_OSCILLATIONS))
    # A table that overflows is rejected by OutcomeFunctionFamily's finiteness check.
    with np.errstate(over="ignore", invalid="ignore"):
        ramp_loadings = ramp_scale * rng.uniform(*RAMP_LOADING_RANGE, K)
        lam = (
            level[:, None]
            + trend[:, None] * np.log1p(t)
            + osc_loadings @ oscillations
            + ramp_loadings[:, None] * (t / T) ** RAMP_POWER
        )
    return OutcomeFunctionFamily(lam)


def expected_outcome(composition: GroupComposition, functions: OutcomeFunctionFamily) -> np.ndarray:
    """Noiseless expected control outcome at every period: entry t-1 is period t."""
    if composition.n_categories != functions.conditional_mean.shape[0]:
        raise UsageError("composition and outcome family disagree on K")
    return composition.probs @ functions.conditional_mean


class _CategoryTable(NamedTuple):
    """A composition's category CDF and its guide table over ``GUIDE_BINS`` bins.

    ``start[b]`` counts the CDF entries at or below ``b / GUIDE_BINS``;
    ``mixed[b]`` is true when the count at the largest float below
    ``(b + 1) / GUIDE_BINS`` differs from it.
    """

    cdf: np.ndarray
    start: np.ndarray
    mixed: np.ndarray


def _category_cdf(composition: GroupComposition) -> _CategoryTable:
    """Cumulative table of a composition, built as Generator.choice builds it, and its guide table.

    ``choice`` gives the uniform u the category ``cdf.searchsorted(u, side="right")``,
    the count of CDF entries at or below u. That count never falls as u grows,
    so every u in a bin that is not ``mixed`` has the count ``start`` holds for
    the bin. A bin is mixed only if a CDF entry lies strictly inside it, and
    the last entry is 1.0, so at most K - 1 bins are.
    """
    cdf = composition.probs.cumsum()
    cdf /= cdf[-1]
    edges = np.arange(GUIDE_BINS + 1) / GUIDE_BINS  # exact: GUIDE_BINS is a power of two
    start = cdf.searchsorted(edges[:-1], side="right")
    # The entries at or below the largest float under (b + 1) / GUIDE_BINS are those below it.
    mixed = cdf.searchsorted(edges[1:], side="left") != start
    return _CategoryTable(cdf, start, mixed)


def _draw(
    rng: np.random.Generator,
    table: _CategoryTable,
    values: np.ndarray,
    n: int,
    noise_sd: float = 0.0,
    shift: float = 0.0,
) -> np.ndarray:
    """``values`` at the categories of n fresh individuals, plus noise and shift.

    ``rng.choice(K, size=n, p=probs)`` computes ``cdf.searchsorted(rng.random(n),
    side="right")`` once it has validated ``probs`` (GroupComposition checks
    them more strictly). Each uniform u here takes ``table.start`` at its bin
    ``int(u * GUIDE_BINS)``, which is that search's answer unless the bin is
    mixed, and the uniforms in mixed bins are searched. So the stream is
    consumed, and the individuals drawn, exactly as by that call followed by
    ``rng.normal``.
    """
    u = rng.random(n)
    bins = (u * GUIDE_BINS).astype(np.intp)
    idx = table.start[bins]
    fix = table.mixed[bins]
    if fix.any():
        idx[fix] = table.cdf.searchsorted(u[fix], side="right")
    y = values[idx]
    if noise_sd > 0:
        y += rng.normal(0.0, noise_sd, n)
    if shift != 0.0:
        y += shift
    return y


def _mean(y: np.ndarray) -> float:
    return y.sum() / y.size


def _median(y: np.ndarray) -> float:
    """``np.median(y)`` for finite y, from one partition of y in place."""
    half = y.size // 2
    y.partition(half)
    # "+ 0.0" turns -0.0 into 0.0, as the mean inside np.median does.
    if y.size % 2:
        return y[half] + 0.0
    return (y[:half].max() + y[half] + 0.0) / 2


# Cell reducers in the order they run on one draw: the median reorders the
# draw in place, so it must come last.
_REDUCERS = {"mean": _mean, "median": _median}


def simulate_panel(
    cfg: SimConfig,
    aggregations: Iterable[str] = (),
) -> SimulatedStudy:
    """Generate a full study: panel, ground truth, and covariate blocks.

    The group-level draws (compositions and outcome functions) come from
    child stream 0 of ``cfg.seed``, the individual draws of each (group,
    period) cell from the cell's own child stream, and the target's
    individuals after ``cfg.T0`` carry ``cfg.post_intervention_shift``.

    One draw per cell, reduced by each requested aggregation:
    ``cfg.aggregation`` plus any named in ``aggregations``. ``study.panels``
    holds one panel per aggregation and ``study.panel`` is the
    ``cfg.aggregation`` one; every panel is bit-identical to the panel of
    a separate call with that aggregation in the config.
    """
    requested = {cfg.aggregation, *aggregations}
    if not requested <= set(AGGREGATIONS):
        raise UsageError(f"aggregations must be drawn from {AGGREGATIONS}")
    reducers = {name: reduce for name, reduce in _REDUCERS.items() if name in requested}
    rng = _stream(cfg.seed, 0)
    compositions, true_s = sample_compositions(cfg, rng)
    functions = conditional_mean_default(cfg.K, cfg.T, rng, ramp_scale=cfg.ramp_scale)

    outcomes = {name: np.empty((cfg.n_groups, cfg.T)) for name in reducers}
    tables = [_category_cdf(comp) for comp in compositions]
    by_period = np.ascontiguousarray(functions.conditional_mean.T)
    # A cell that overflows is rejected by the panel's finiteness check below.
    with np.errstate(over="ignore", invalid="ignore"):
        for j, table in enumerate(tables):
            for t in range(1, cfg.T + 1):
                shift = cfg.post_intervention_shift if (j == 0 and t > cfg.T0) else 0.0
                rng_cell = _stream(cfg.seed, 2, j, t)
                y = _draw(rng_cell, table, by_period[t - 1], cfg.N_per_group, cfg.noise_sd, shift)
                for name, reduce in reducers.items():
                    outcomes[name][j, t - 1] = reduce(y)

    panels = {
        name: PanelData(
            outcomes=values,
            group_labels=("target",) + tuple(f"donor_{i}" for i in range(1, cfg.num_donors + 1)),
            time_labels=tuple(range(1, cfg.T + 1)),
            target_index=0,
            intervention_time=cfg.T0,
        )
        for name, values in outcomes.items()
    }
    aux_suitable = _make_covariates(tables, by_period, cfg, "suitable", _stream(cfg.seed, 3))
    aux_unsuitable = _make_covariates(tables, by_period, cfg, "unsuitable", _stream(cfg.seed, 4))
    return SimulatedStudy(
        panel=panels[cfg.aggregation],
        compositions=compositions,
        functions=functions,
        true_S=true_s,
        aux_suitable=aux_suitable,
        aux_unsuitable=aux_unsuitable,
        config=cfg,
        panels=panels,
    )


def _make_covariates(
    tables: Sequence[_CategoryTable],
    by_period: np.ndarray,
    cfg: SimConfig,
    kind: str,
    rng: np.random.Generator,
) -> AuxMatrix:
    """Sample ``cfg.covariate_count`` group-level covariates of one kind.

    ``tables`` holds each group's category table and ``by_period`` the period-major
    conditional-mean table, as :func:`simulate_panel` builds them once per study.

    suitable: per covariate m, the mean of sin(c_m * Y) over individuals
    sampled at one fixed pre-period, with c_m = SIN_LADDER_MAX * m / count.
    These are alternative (gently warped) measurements of the outcome
    itself.

    unsuitable: per covariate m, the mean of a random recoding of the raw
    category labels, i.e. a summary of group characteristics.

    Draw order per covariate: the covariate's parameter (period choice or
    code permutation) first, then each group's individuals in panel order.
    Any ``kind`` other than "suitable" is unsuitable.
    """
    count = cfg.covariate_count
    values = np.empty((len(tables), count))
    labels = []
    for m in range(1, count + 1):
        if kind == "suitable":
            t_star = int(rng.integers(1, cfg.T0 + 1))
            c_m = SIN_LADDER_MAX * m / count
            labels.append(f"sin{m}_t{t_star}")
            for j, table in enumerate(tables):
                y = _draw(rng, table, by_period[t_star - 1], cfg.N_per_group, cfg.noise_sd)
                values[j, m - 1] = np.sin(c_m * y).mean()
        else:
            codes = rng.permutation(cfg.K)
            labels.append(f"code{m}")
            for j, table in enumerate(tables):
                values[j, m - 1] = _draw(rng, table, codes, cfg.N_per_group).mean()
    return AuxMatrix(values=values, covariate_labels=tuple(labels))


def write_study_bundle(study: SimulatedStudy, outdir) -> None:
    """Export a study as panel.csv, truth.json, and two covariate CSVs."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    to_csv(study.panel, outdir / "panel.csv")
    aux_to_csv(study.aux_suitable, study.panel.group_labels, outdir / "covariates_suitable.csv")
    aux_to_csv(study.aux_unsuitable, study.panel.group_labels, outdir / "covariates_unsuitable.csv")
    truth = {
        "group_labels": study.panel.group_labels,
        "compositions": [c.probs for c in study.compositions],
        "conditional_mean": study.functions.conditional_mean,
        "true_S": sorted(study.true_S),
        "config": study.config,
    }
    write_json(truth, outdir / "truth.json")


@contextmanager
def _study_truth(path):
    """Report any fault found in a bundle's ground truth as a data error naming ``path``."""
    try:
        yield
    except (KeyError, IndexError, TypeError, ValueError) as exc:  # UsageError and DataValidationError too
        raise DataValidationError(f"{path}: malformed study truth ({type(exc).__name__}: {exc})") from None


def load_study_bundle(indir) -> SimulatedStudy:
    """Reconstruct a study from a bundle written by write_study_bundle.

    truth.json's ``group_labels`` orders the groups, target first, and
    panel.csv's rows may come in any order. A truth.json that is not such a
    document, or that disagrees with the bundle's panel (its set of groups
    included), raises DataValidationError.
    """
    indir = Path(indir)
    truth_path, panel_path = indir / "truth.json", indir / "panel.csv"
    truth = read_json(truth_path)
    with _study_truth(truth_path):
        cfg = SimConfig(**truth["config"])
        labels = truth["group_labels"]  # target first
        if not (isinstance(labels, list) and labels and all(isinstance(label, str) for label in labels)):
            raise TypeError("group_labels must be a nonempty list of strings")
        compositions = tuple(GroupComposition(np.array(p)) for p in truth["compositions"])
        functions = OutcomeFunctionFamily(np.array(truth["conditional_mean"]))
        true_s = frozenset(int(k) for k in truth["true_S"])
    try:
        panel = from_csv(panel_path, target=labels[0], intervention_time=cfg.T0)
    except UsageError as exc:  # the truth names a target or a T0 that the panel does not hold
        raise DataValidationError(f"{panel_path}: {exc}") from None
    if (groups := sorted(panel.group_labels)) != sorted(labels):
        raise DataValidationError(
            f"{panel_path}: groups {groups} differ from the group_labels {sorted(labels)} of {truth_path.name}"
        )
    panel = select_groups(panel, labels)  # covariate rows follow, read in the panel's order
    aux_suitable = aux_from_csv(indir / "covariates_suitable.csv", panel.group_labels)
    aux_unsuitable = aux_from_csv(indir / "covariates_unsuitable.csv", panel.group_labels)
    with _study_truth(truth_path):
        return SimulatedStudy(panel, compositions, functions, true_s, aux_suitable, aux_unsuitable, cfg)
