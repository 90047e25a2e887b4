"""Individual-level data generator with exposed ground truth.

Groups are distributions over K cause categories; an individual's outcome
is a nonlinear, time-varying function of their category plus Gaussian
noise; the panel cell is the mean (or median) over fresh individuals drawn
each period. A study keeps its ground truth as two read-only matrices, the
(groups x K) compositions and the K x T conditional means; their product,
the noiseless outcome, is ``identification.expected_outcome``.

Randomness is organized as independent child streams of the master seed:
one stream for group compositions and outcome functions, one per
(group, period) cell, and one per covariate block. Each is numpy's
``SeedSequence(seed, spawn_key=key)`` feeding PCG64; cell (j, t) has the key
(2, j, t). Distinct cells can therefore be generated independently or in
parallel, and the panel does not change when covariate settings do. Every
stream is made one way: ``_seed_words`` runs SeedSequence's hash, for all
cells of a study in one pass, and PCG64 seeds itself from the hashed words.
A test and a per-study guard pin the streams to numpy's own.

There is one draw per cell, reduced by each requested aggregation: a study
can carry its mean and its median panel side by side, and both reduce the
very same individuals.

A group's cells are drawn ``CELL_BLOCK`` periods at a time (fewer when a cell
has more than ``BLOCK_N`` individuals): each cell's own stream fills one row
of the block, and the category lookup, the noise and every reducer run once
over the whole block. A study's groups are spread over a thread pool with
one worker per usable CPU, built on first use; numpy releases the GIL while
it fills and reduces a block. Every cell comes from its own stream, whichever
thread draws it, so no output depends on the pool's size.

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

import functools
import math
import numbers
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DataValidationError, UsageError
from .identification import minimal_invariant_set
from .panel import AuxMatrix, PanelData, aux_from_csv, aux_to_csv, frozen_array, from_csv, read_json, select_groups
from .panel import to_csv, write_json

__all__ = [
    "SimConfig",
    "SimulatedStudy",
    "simulate_panel",
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


# numpy's SeedSequence hash constants and pool size (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 2**32 - 1


def _hasher(init: int, mult: int):
    """SeedSequence's hashmix, whose hash constant steps through a fixed sequence on every call.

    A word is a Python int below 2**32 or a uint32 array, whose arithmetic
    wraps as numpy's C code does.
    """
    const = init

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    return hashmix


def _mix(x, y):
    """SeedSequence's mix of pool word x with hashed word y."""
    result = (_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32) & _MASK32
    return result ^ result >> 16


def _seed_words(seed: int, *key) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=key).generate_state(4, np.uint64)``, for many keys in one pass.

    A key word is an int below 2**32 or a uint32 array; the arrays broadcast,
    and each key's four words lie along a last axis. The hash constants step
    through the same sequence whatever the words are, so every key runs the
    same steps over the seed's 32-bit words, zero-padded to the pool size,
    then the key words.
    """
    seed = int(seed)  # SimConfig also takes numpy integers
    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (_POOL_SIZE - len(words))
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in [*words[_POOL_SIZE:], *key]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hasher(_INIT_B, _MULT_B)
    halves = [np.asarray(hashmix(pool[i % _POOL_SIZE]), dtype=np.uint64) for i in range(8)]
    return np.stack([halves[2 * k] | halves[2 * k + 1] << 32 for k in range(4)], axis=-1)


@functools.cache
def _words_sequence() -> type:
    """An ``ISeedSequence`` holding given state words for PCG64 to seed itself from. Defined on
    first use, so that importing synthpanel does not load numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            # PCG64 reads the returned array's buffer directly.
            words = np.ascontiguousarray(self.words, dtype)
            if words.shape != (n_words,):
                raise RuntimeError(f"numpy {np.__version__} asks for {n_words} seed words, not {words.size}")
            return words

    return SeedWords


def _generator(words: np.ndarray) -> np.random.Generator:
    """numpy's PCG64 generator seeded with ``words``, one key's row of :func:`_seed_words`."""
    return np.random.Generator(np.random.PCG64(_words_sequence()(words)))


def _stream(seed: int, *key: int) -> np.random.Generator:
    """Child generator of the master seed: numpy's ``SeedSequence(seed, spawn_key=key)`` feeding PCG64."""
    return _generator(_seed_words(seed, *key))


def _check_seeding(seed: int, first: np.ndarray) -> None:
    """Raise RuntimeError unless ``first``, the words of cell (0, 1), give numpy's own stream of that
    cell: a numpy release that seeds its streams differently fails loudly instead of changing the draws."""
    want = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(2, 0, 1))).bit_generator.state
    if _generator(first).bit_generator.state != want:
        raise RuntimeError(f"numpy {np.__version__} seeds SeedSequence/PCG64 streams differently from microsim")


def _require_nonnegative(name: str, value: float) -> None:
    if not (math.isfinite(value) and value >= 0):
        raise UsageError(f"{name} must be a finite nonnegative number, got {value!r}")


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

    ``compositions`` is the read-only (groups x K) matrix of each group's
    probabilities over the categories, target row first, as in the panel.
    ``functions`` is the read-only K x T table of conditional means:
    ``functions[k, t-1]`` is the expected control outcome of an individual in
    category ``k`` at period ``t``, without the noise or the shift.
    ``panels`` maps each aggregation the study was reduced by to its panel;
    it always holds ``panel`` under ``config.aggregation``.
    """

    panel: PanelData
    compositions: np.ndarray
    functions: np.ndarray
    true_S: frozenset[int]
    aux_suitable: AuxMatrix
    aux_unsuitable: AuxMatrix
    config: SimConfig = field(repr=False)
    panels: Mapping[str, PanelData] | None = field(default=None, repr=False)

    def __post_init__(self):
        compositions = frozen_array(self.compositions, "the composition matrix")
        functions = frozen_array(self.functions, "the conditional-mean table")
        object.__setattr__(self, "compositions", compositions)
        object.__setattr__(self, "functions", functions)
        cfg = self.config
        if functions.shape != (cfg.K, cfg.T):
            raise DataValidationError(f"conditional_mean must be a K x T = {cfg.K} x {cfg.T} table")
        if compositions.shape != (cfg.n_groups, cfg.K):
            raise DataValidationError(f"compositions must be a groups x K = {cfg.n_groups} x {cfg.K} matrix")
        if compositions.min() < 0:
            raise DataValidationError("composition entries must be nonnegative")
        if np.abs(compositions.sum(axis=1) - 1.0).max() > 1e-12:
            raise DataValidationError("every composition row must sum to 1")
        panels = dict(self.panels or {})
        if panels.setdefault(cfg.aggregation, self.panel) is not self.panel:
            raise DataValidationError(f"panels[{cfg.aggregation!r}] must be the study panel")
        object.__setattr__(self, "panels", MappingProxyType(panels))
        for aggregation, panel in panels.items():
            if aggregation not in AGGREGATIONS:
                raise DataValidationError(f"unknown aggregation {aggregation!r}")
            if panel.n_groups != cfg.n_groups or panel.n_periods != cfg.T:
                raise DataValidationError("panel dimensions do not match the study config")
        true_S = tuple(self.true_S)  # a float, even 3.0, a bool or a numeric string is no index
        if not all(isinstance(k, (int, np.integer)) and not isinstance(k, bool) and 0 <= k < cfg.K for k in true_S):
            raise DataValidationError(f"true_S entries must be category indices in 0..{cfg.K - 1}")
        object.__setattr__(self, "true_S", frozenset(map(int, true_S)))
        if cfg.composition_mode == "invariant_split" and len(self.true_S) != cfg.S_cardinality:
            raise DataValidationError(
                f"invariant_split study must have |S| = {cfg.S_cardinality}, got {len(self.true_S)}"
            )


def sample_compositions(cfg: SimConfig, rng: np.random.Generator) -> tuple[np.ndarray, frozenset[int]]:
    """Draw the (groups x K) composition matrix, target row first, and the differing set.

    invariant_split: the differing categories are chosen up front and get
    an independent Dirichlet(1,..,1) sub-distribution per group; all other
    categories share one fixed sub-distribution, so exactly S_cardinality
    categories differ across groups. (S_cardinality = 1 is vacuous: a
    single category cannot differ alone under the sum-to-one constraint,
    so the sampled compositions are then identical, as with 0.)

    dirichlet_mask: each group gets a Bernoulli(1 - |S|/K) support mask and
    a flat Dirichlet on it (all-zero masks redrawn; at |S| = K the mask
    degenerates and each group collapses to a random point mass). The differing
    set is not imposed: ``minimal_invariant_set`` finds it in the sampled vectors.
    """
    k, s_card, n_groups = cfg.K, cfg.S_cardinality, cfg.n_groups
    compositions = np.zeros((n_groups, k))
    if cfg.composition_mode == "invariant_split":
        true_s = np.sort(rng.choice(k, size=s_card, replace=False)) if s_card else np.array([], int)
        complement = np.setdiff1d(np.arange(k), true_s)
        shared = rng.dirichlet(np.ones(complement.size)) if complement.size else None
        for probs in compositions:
            if s_card == 0:
                probs[complement] = shared
            elif complement.size == 0:
                probs[true_s] = rng.dirichlet(np.full(s_card, DIRICHLET_ALPHA))
            else:
                probs[complement] = INVARIANT_MASS * shared
                probs[true_s] = (1.0 - INVARIANT_MASS) * rng.dirichlet(np.full(s_card, DIRICHLET_ALPHA))
        return compositions, frozenset(int(i) for i in true_s)

    p_keep = 1.0 - s_card / k
    for probs in compositions:
        if p_keep == 0.0:
            mask = np.zeros(k, dtype=bool)
            mask[rng.integers(k)] = True
        else:
            mask = rng.binomial(1, p_keep, k).astype(bool)
            while not mask.any():
                mask = rng.binomial(1, p_keep, k).astype(bool)
        probs[mask] = rng.dirichlet(np.ones(int(mask.sum())))
    return compositions, frozenset(minimal_invariant_set(compositions, 0, range(1, n_groups)).S_indices)


def conditional_mean_default(
    K: int,
    T: int,
    rng: np.random.Generator,
    ramp_scale: float = 1.0,
) -> np.ndarray:
    """The read-only K x T table of smooth nonlinear time-varying conditional means, without noise.

    Each category curve is a random loading combination of a shared basis:
    level, log trend, a few sinusoids, and a late-rising ramp (see the
    module constants). ``ramp_scale`` multiplies the ramp loadings; zero
    removes the late-rising direction entirely. Nonlinear in t and
    non-additive across categories; deterministic given the generator
    state.
    """
    t = np.arange(1, T + 1)
    nu = rng.uniform(*OSC_FREQUENCY_RANGE, N_OSCILLATIONS)
    psi = rng.uniform(*PHASE_RANGE, N_OSCILLATIONS)
    oscillations = np.sin(nu[:, None] * t + psi[:, None])
    level = rng.uniform(*LEVEL_RANGE, K)
    trend = rng.uniform(*TREND_RANGE, K)
    osc_loadings = rng.uniform(*OSC_LOADING_RANGE, (K, N_OSCILLATIONS))
    # A table that overflows is rejected by frozen_array's finiteness check.
    with np.errstate(over="ignore", invalid="ignore"):
        ramp_loadings = ramp_scale * rng.uniform(*RAMP_LOADING_RANGE, K)
        lam = (
            level[:, None]
            + trend[:, None] * np.log1p(t)
            + osc_loadings @ oscillations
            + ramp_loadings[:, None] * (t / T) ** RAMP_POWER
        )
    return frozen_array(lam, "the conditional-mean table")


class _CategoryTable(NamedTuple):
    """A composition's category CDF and its guide table over ``GUIDE_BINS`` bins.

    ``start[b]`` counts the CDF entries at or below ``b / GUIDE_BINS``;
    ``mixed[b]`` is true when the count at the largest float below
    ``(b + 1) / GUIDE_BINS`` differs from it.
    """

    cdf: np.ndarray
    start: np.ndarray
    mixed: np.ndarray


def _category_cdf(probs: np.ndarray) -> _CategoryTable:
    """Cumulative table of a composition row, built as Generator.choice builds it, and its guide table.

    ``choice`` gives the uniform u the category ``cdf.searchsorted(u, side="right")``,
    the count of CDF entries at or below u. That count never falls as u grows,
    so every u in a bin that is not ``mixed`` has the count ``start`` holds for
    the bin. A bin is mixed only if a CDF entry lies strictly inside it, and
    the last entry is 1.0, so at most K - 1 bins are.
    """
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    edges = np.arange(GUIDE_BINS + 1) / GUIDE_BINS  # exact: GUIDE_BINS is a power of two
    # Entry k lies at or below the edges from first[k] on, and strictly inside bin first[k] - 1 unless it is an edge.
    first = edges.searchsorted(cdf)
    start = np.bincount(first, minlength=GUIDE_BINS + 1).cumsum()[:GUIDE_BINS]
    mixed = np.zeros(GUIDE_BINS, dtype=bool)
    mixed[first[edges[first] != cdf] - 1] = True
    return _CategoryTable(cdf, start, mixed)


def _lookup(table: _CategoryTable, u: np.ndarray, bins: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out``, set to the category ``table.cdf.searchsorted(u, side="right")`` of every uniform in ``u``.

    ``u`` may have any shape; ``bins`` and ``out`` are intp arrays of that shape,
    and ``bins`` is scratch. Each uniform u takes ``table.start`` at its bin
    ``int(u * GUIDE_BINS)``, which is that search's answer unless the bin is
    mixed, and the uniforms in mixed bins are searched.
    """
    np.multiply(u, GUIDE_BINS, out=bins, casting="unsafe")  # truncates, as astype does
    np.take(table.start, bins, out=out, mode="clip")  # every bin is in range; "raise" would copy
    fix = table.mixed[bins]
    if fix.any():
        out[fix] = table.cdf.searchsorted(u[fix], side="right")
    return out


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
    side="right")`` once it has validated ``probs`` (SimulatedStudy checks
    them more strictly), and :func:`_lookup` gives that search's answer. So
    the stream is consumed, and the individuals drawn, exactly as by that call
    followed by ``rng.normal``.
    """
    u = rng.random(n)
    y = values[_lookup(table, u, np.empty(n, np.intp), np.empty(n, np.intp))]
    if noise_sd > 0:
        y += rng.normal(0.0, noise_sd, n)
    if shift != 0.0:
        y += shift
    return y


def _mean(y: np.ndarray):
    """The mean of y along its last axis."""
    return y.sum(axis=-1) / y.shape[-1]


def _median(y: np.ndarray):
    """``np.median(y, axis=-1)`` for finite y, from one partition of y in place."""
    n = y.shape[-1]
    half = n // 2
    y.partition(half, axis=-1)
    # "+ 0.0" turns -0.0 into 0.0, as the mean inside np.median does.
    if n % 2:
        return y[..., half] + 0.0
    return (y[..., :half].max(axis=-1) + y[..., half] + 0.0) / 2


# Cell reducers in the order they run on one draw: the median reorders the
# draw in place, so it must come last.
_REDUCERS = {"mean": _mean, "median": _median}

# Periods of one group whose cells are drawn as one block, at up to BLOCK_N
# individuals per cell; above that, a block has CELL_BLOCK * BLOCK_N // N periods
# (at least one), so that a worker's three block buffers take at most 768 KB,
# which fits a 2 MB L2 cache, unless one period alone is larger. At N = 2000, two
# workers spent about 9% less CPU per study with 16 periods than with 8: every
# numpy call on a block releases and retakes the GIL, and fewer calls per cell
# mean fewer waits for it.
CELL_BLOCK = 16
BLOCK_N = 2000

# The thread pool that draws a study's groups: built on first use, and dropped in
# a forked child, which inherits the pool object but none of its threads.
_pool = None


def _forget_pool() -> None:
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _cell_pool():
    """The module's thread pool, one worker per usable CPU. numpy releases the GIL while
    it fills and reduces a block, so the workers' blocks run side by side."""
    global _pool
    if _pool is None:
        from concurrent.futures import ThreadPoolExecutor

        _pool = ThreadPoolExecutor(_usable_cpus(), thread_name_prefix="synthpanel-cells")
    return _pool


def _draw_groups(
    groups: np.ndarray,
    scratch: np.ndarray,
    tables: Sequence[_CategoryTable],
    words: np.ndarray,
    by_period: np.ndarray,
    cfg: SimConfig,
    outcomes: Mapping[str, np.ndarray],
) -> None:
    """Draw the cells of ``groups``, a block of periods at a time, into their rows of each panel in ``outcomes``.

    ``scratch`` is this call's (3, periods per block, N) buffer. ``words[j]`` holds
    group j's seed words, period by period. Row r of the block that starts at
    period index p is the cell of period p + r + 1, drawn from its own stream
    as :func:`_draw` draws it: the uniforms, then the normals z, whose
    ``noise_sd * z`` is added as ``rng.normal`` adds it (see
    :func:`simulate_panel` for its ``0.0 +``). Each reducer reduces the block
    along its last axis. Runs in a pool thread, so it calls no public function,
    which a one-thread call tracer would miss, and sets its own numpy error
    state, which threads do not inherit.
    """
    block, n = scratch.shape[1:]
    # The buffers hold the uniforms, then the outcomes (u); the lookup's bins, then the normals (z); and the
    # categories (idx). intp is at most as wide as float64, so an intp view of a row holds n indices.
    u, z, idx = scratch[0], scratch[1], scratch[2].view(np.intp)[:, :n]
    bins = z.view(np.intp)[:, :n]
    offsets = cfg.K * np.arange(block, dtype=np.intp)[:, None]
    # A cell that overflows is rejected by the panel's finiteness check.
    with np.errstate(over="ignore", invalid="ignore"):
        for j in groups:
            for p in range(0, cfg.T, block):
                rows = min(block, cfg.T - p)
                y, noise = u[:rows], z[:rows]
                # The block's streams are made at once: one longer hold of the GIL, not one per cell, spares
                # the other workers many waits.
                streams = [_generator(w) for w in words[j, p:p + rows]]
                for rng, row in zip(streams, y):
                    rng.random(out=row)
                cells = _lookup(tables[j], y, bins[:rows], idx[:rows])
                cells += offsets[:rows]  # index the block's periods of the period-major table
                np.take(by_period[p:p + rows], cells, out=y, mode="clip")
                if cfg.noise_sd > 0:
                    for rng, row in zip(streams, noise):
                        rng.standard_normal(out=row)
                    noise *= cfg.noise_sd
                    y += noise
                if j == 0 and cfg.post_intervention_shift != 0.0 and p + rows > cfg.T0:
                    y[max(cfg.T0 - p, 0):] += cfg.post_intervention_shift
                for name, panel in outcomes.items():
                    panel[j, p:p + rows] = _REDUCERS[name](y)


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
    rng = _stream(cfg.seed, 0)
    compositions, true_s = sample_compositions(cfg, rng)
    functions = conditional_mean_default(cfg.K, cfg.T, rng, ramp_scale=cfg.ramp_scale)

    outcomes = {name: np.empty((cfg.n_groups, cfg.T)) for name in _REDUCERS if name in requested}
    tables = [_category_cdf(probs) for probs in compositions]
    by_period = np.ascontiguousarray(functions.T)
    words = _seed_words(cfg.seed, 2, np.arange(cfg.n_groups, dtype=np.uint32)[:, None],
                        np.arange(1, cfg.T + 1, dtype=np.uint32))
    _check_seeding(cfg.seed, words[0, 0])
    # rng.normal's noise is 0.0 + m. For any x, x + (0.0 + m) and (x + 0.0) + m both differ from x + m only
    # where x and m are both -0.0, giving 0.0; so the noise is added to a table without -0.0 in one pass.
    lam = by_period + 0.0 if cfg.noise_sd > 0 else by_period
    # One run of consecutive groups per usable CPU. Its scratch is allocated here, not in a pool thread, so
    # that the memory goes back to the calling thread's heap and is reused there.
    parts = np.array_split(np.arange(cfg.n_groups), min(_usable_cpus(), cfg.n_groups))
    block = max(1, CELL_BLOCK * BLOCK_N // max(cfg.N_per_group, BLOCK_N))
    scratch = np.empty((len(parts), 3, block, cfg.N_per_group))
    draw = functools.partial(_draw_groups, tables=tables, words=words, by_period=lam, cfg=cfg, outcomes=outcomes)
    for _ in _cell_pool().map(draw, parts, scratch):
        pass  # re-raises a worker's exception
    del scratch  # free for the covariate draws below

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
    # A study without covariates does not seed their streams.
    aux_suitable, aux_unsuitable = (
        _make_covariates(tables, by_period, cfg, kind, _stream(cfg.seed, key) if cfg.covariate_count else None)
        for kind, key in (("suitable", 3), ("unsuitable", 4))
    )
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
    rng: np.random.Generator | None,
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
                # An individual whose noise overflows has no sine; AuxMatrix rejects the covariate.
                with np.errstate(invalid="ignore"):
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
        "compositions": study.compositions,
        "conditional_mean": study.functions,
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
        compositions, functions, true_s = truth["compositions"], truth["conditional_mean"], truth["true_S"]
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
