"""Synthetic-control weight fitting and counterfactual prediction.

Weights minimize the squared pre-period tracking error of the target, optionally
stacked with row-standardized auxiliary covariates, under one of four regularizers:
none (minimum-norm least squares) and ridge in closed form, or the elastic net and the
probability simplex by one primal active-set method that ends on an exact face solve.
Every fit reports the KKT residual at its weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataValidationError, UsageError
from .panel import AuxMatrix, PanelData, admit_number, check_donors, frozen_array, standardize_rows

__all__ = [
    "FitConfig",
    "WeightVector",
    "EffectEstimate",
    "fit",
    "predict_counterfactual",
    "estimate_effect",
]

REGULARIZERS = ("none", "ridge", "elastic_net", "simplex")


@dataclass(frozen=True)
class FitConfig:
    """Estimator settings.

    ``ridge_lam`` applies under ``regularizer="ridge"``; ``enet_lam1`` and ``enet_lam2`` under
    ``"elastic_net"``. ``covariate_scale`` is the relative weight of the standardized covariate
    rows in the stacked objective, which :func:`fit` builds when it is given an ``AuxMatrix``.
    Iterative fits converge when their KKT residual, relative to the data scale of
    :class:`WeightVector`, is at most ``tolerance``; ``max_iterations`` caps their active-set passes.
    """

    regularizer: str = "none"
    ridge_lam: float = 0.0
    enet_lam1: float = 0.0
    enet_lam2: float = 0.0
    max_iterations: int = 10_000
    tolerance: float = 1e-10
    covariate_scale: float = 1.0

    def __post_init__(self):
        if self.regularizer not in REGULARIZERS:
            raise UsageError(f"unknown regularizer {self.regularizer!r}; choose from {REGULARIZERS}")
        lams = [admit_number(name, getattr(self, name)) for name in ("ridge_lam", "enet_lam1", "enet_lam2")]
        if min(lams) < 0:
            raise UsageError("regularization strengths must be nonnegative")
        admit_number("max_iterations", self.max_iterations, integer=True, minimum=1)
        admit_number("tolerance", self.tolerance, positive=True)
        admit_number("covariate_scale", self.covariate_scale, minimum=0)


@dataclass(frozen=True, eq=False)
class WeightVector:
    """Fitted donor weights plus solver diagnostics.

    ``objective_trace`` holds the raw objective before the first and after each active-set
    pass; closed-form solves have a single entry. ``kkt_residual`` is the largest violation of the
    optimality conditions at ``beta`` over the data scale ``max(max|a'y|, max diag(a'a + lam2 I))``
    of the stacked system, or 1 where both are 0. Closed-form fits have ``converged``; iterative ones
    when the residual is at most the tolerance. Scaling the outcomes of a none or simplex fit without
    covariates by ``s > 0`` scales violations and data scale alike: neither output moves beyond rounding.
    """

    donor_indices: tuple[int, ...]
    beta: np.ndarray
    objective_value: float
    converged: bool
    objective_trace: tuple[float, ...]
    kkt_residual: float

    def __post_init__(self):
        object.__setattr__(self, "beta", frozen_array(self.beta, "the donor weights"))
        object.__setattr__(self, "donor_indices", tuple(int(j) for j in self.donor_indices))
        if self.beta.shape != (len(self.donor_indices),):
            raise UsageError("beta must align with donor_indices")
        for name, what in (("objective_value", "the fit's objective value"), ("kkt_residual", "the KKT residual")):
            object.__setattr__(self, name, float(frozen_array(getattr(self, name), what)))


@dataclass(frozen=True, eq=False)
class EffectEstimate:
    """The target's synthetic control and its gap at every period of the panel.

    ``gap = observed - synthetic`` exactly; both arrays are read-only. The
    post-intervention gaps are ``gap[panel.intervention_time:]``, and ``tau``
    is the final one.
    """

    synthetic: np.ndarray
    gap: np.ndarray

    def __post_init__(self):
        for name in ("synthetic", "gap"):
            object.__setattr__(self, name, frozen_array(getattr(self, name), f"the {name} series"))

    @property
    def tau(self) -> float:
        return float(self.gap[-1])


def _stacked_system(
    panel: PanelData,
    donors: Sequence[int],
    aux: AuxMatrix | None,
    cfg: FitConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Assemble the (rows x donors) design matrix and target vector.

    Rows are the pre-intervention periods, then (given ``aux``) one row
    per covariate, standardized across {target} + donors and scaled by
    sqrt(covariate_scale). A covariate whose spread overflows its sample
    variance raises DataValidationError naming it.
    """
    donors = list(donors)
    t0 = panel.intervention_time
    a = panel.outcomes[donors, :t0].T
    y = panel.outcomes[panel.target_index, :t0]
    if aux is not None:
        selection = [panel.target_index] + donors
        rows = aux.values[selection].T
        standardized = standardize_rows(rows, aux.covariate_labels)
        weight = np.sqrt(cfg.covariate_scale)
        a = np.vstack([a, weight * standardized[:, 1:]])
        y = np.concatenate([y, weight * standardized[:, 0]])
    return a, y


def _solve_ridge(a: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    """Minimize ``|a b - y|^2 + lam |b|^2``; at ``lam = 0``, the minimum-norm least-squares solution."""
    design, rhs = a, y
    if lam:
        n = a.shape[1]
        design, rhs = np.vstack([a, np.sqrt(lam) * np.eye(n)]), np.concatenate([y, np.zeros(n)])
    return np.linalg.lstsq(design, rhs, rcond=None)[0]


def _objective(a: np.ndarray, y: np.ndarray, beta: np.ndarray, lam1: float, lam2: float) -> float:
    """``|a b - y|^2 + lam1 |b|_1 + lam2 |b|^2`` at ``b = beta``."""
    r = a @ beta - y
    return float(r @ r + lam1 * np.abs(beta).sum() + lam2 * beta @ beta)


def _kkt_violations(
    gram: np.ndarray, c: np.ndarray, beta: np.ndarray, scale: float, lam1=0.0, simplex=False
) -> np.ndarray:
    """Each donor's violation of its optimality condition, relative to ``scale``.

    With ``g = gram @ beta - c``, the elastic net needs ``g_j = -(lam1/2) sign(b_j)`` where ``b_j != 0``
    and ``|g_j| <= lam1/2`` elsewhere; the simplex needs ``g_j = theta``, the support's mean, on the
    support and ``g_j >= theta`` off it.
    """
    grad = gram @ beta - c
    if simplex:
        theta = grad[beta > 0].mean()
        violation = np.where(beta > 0, np.abs(grad - theta), theta - grad)
    else:
        violation = np.where(beta != 0, np.abs(grad + 0.5 * lam1 * np.sign(beta)), np.abs(grad) - 0.5 * lam1)
    return np.maximum(violation, 0.0) / scale


def _solve_active_set(
    a: np.ndarray, y: np.ndarray, gram: np.ndarray, c: np.ndarray, scale: float, cfg: FitConfig,
    lam1: float, lam2: float, simplex: bool,
) -> tuple[np.ndarray, list[float]]:
    """Minimize ``|a b - y|^2 + lam1 |b|_1 + lam2 |b|^2``, or ``|a b - y|^2`` on the unit simplex.

    Primal active set (Lawson & Hanson 1974; Lee et al. 2007): each pass adds the zero coordinate that
    violates its optimality condition most, then solves the signed face exactly, dropping the first
    coordinate that would change sign until none would. Exact passes lower the objective, so passes end
    when none is priced or one fails to. ``gram`` is ``a'a + lam2 I``, ``c`` is ``a'y`` and ``scale`` the
    data scale of :class:`WeightVector`. Returns the weights and the objective trace.
    """
    beta = np.zeros(a.shape[1])
    if simplex:
        beta[np.argmin(gram.diagonal() - 2.0 * c)] = 1.0
    trace = [_objective(a, y, beta, lam1, lam2)]
    while True:
        violation = _kkt_violations(gram, c, beta, scale, lam1, simplex)
        priced = np.where(beta == 0, violation, 0.0)
        entering = int(np.argmax(priced))
        if priced[entering] == 0 or len(trace) > cfg.max_iterations:
            return beta, trace
        previous = beta.copy()
        support = np.append(np.flatnonzero(beta), entering)
        s = np.sign(beta[support])
        s[-1] = 1.0 if simplex else -np.sign(gram[entering] @ beta - c[entering])
        while support.size:
            b, k = beta[support], support.size
            face = gram[np.ix_(support, support)]
            gap = c[support] - 0.5 * lam1 * s - face @ b
            if simplex:  # sum-to-one border, scaled to the data so lstsq keeps it
                border = np.full((k, 1), scale)
                face = np.block([[face, border], [border.T, np.zeros((1, 1))]])
                gap = np.append(gap, scale * (1.0 - b.sum()))
            step, _, rank, _ = np.linalg.lstsq(face, gap, rcond=None)
            r, step, limit = (gap - face @ step)[:k], step[:k], 1.0
            if not simplex and rank < k and np.abs(r).max() > 1e-12 * scale and (s * r < 0).any():
                # Inconsistent face: its objective falls without bound along r, in null(face),
                # unless r is rounding: a step along rounding can carry the weights anywhere.
                step, limit = r, np.inf
            shrinking = np.flatnonzero(s * step < 0)
            ratios = -b[shrinking] / step[shrinking]
            if ratios.min(initial=np.inf) >= limit:
                beta[support] = np.where(s * (b + step) > 0, b + step, 0.0)
                break
            beta[support] = b + ratios.min() * step
            beta[support[shrinking[np.argmin(ratios)]]] = 0.0
            keep = s * beta[support] > 0
            beta[support[~keep]] = 0.0
            support, s = support[keep], s[keep]
        value = _objective(a, y, beta, lam1, lam2)
        if value >= trace[-1]:
            return previous, trace
        trace.append(value)


def fit(
    panel: PanelData,
    donors: Sequence[int],
    aux: AuxMatrix | None = None,
    cfg: FitConfig = FitConfig(),
) -> WeightVector:
    """Fit donor weights on the target's pre-intervention outcomes.

    Given ``aux``, its covariate rows are stacked under the outcome rows
    (see :func:`_stacked_system`). Non-convergence of an iterative solver
    is reported in-band through ``converged=False``, never raised.
    """
    donors = check_donors(donors, panel.target_index, panel.n_groups)
    if aux is not None and aux.values.shape[0] != panel.n_groups:
        raise UsageError(
            f"covariate matrix has {aux.values.shape[0]} rows for {panel.n_groups} panel groups"
        )

    simplex = cfg.regularizer == "simplex"
    lam1 = cfg.enet_lam1 if cfg.regularizer == "elastic_net" else 0.0
    lam2 = {"ridge": cfg.ridge_lam, "elastic_net": cfg.enet_lam2}.get(cfg.regularizer, 0.0)
    # Outcomes or standardized covariates that overflow fail the normal-equations check;
    # a fit whose objective overflows is rejected by WeightVector's finiteness check.
    with np.errstate(over="ignore", invalid="ignore"):
        a, y = _stacked_system(panel, donors, aux, cfg)
        gram, c = a.T @ a, a.T @ y
        if not (np.isfinite(gram).all() and np.isfinite(c).all()):
            what = "outcomes" if aux is None else "outcomes or covariates"
            raise DataValidationError(f"{what} too large to fit: the normal equations overflow")
        gram += lam2 * np.eye(len(donors))
        scale = max(float(np.abs(c).max()), float(gram.diagonal().max())) or 1.0
        closed_form = cfg.regularizer in ("none", "ridge")
        if closed_form:
            beta = _solve_ridge(a, y, lam2)
            trace = [_objective(a, y, beta, lam1, lam2)]
        else:
            beta, trace = _solve_active_set(a, y, gram, c, scale, cfg, lam1, lam2, simplex)
            if simplex and (beta.min() < -1e-12 or abs(beta.sum() - 1.0) > 1e-9):
                raise RuntimeError("simplex fit returned an infeasible point")
        kkt_residual = float(_kkt_violations(gram, c, beta, scale, lam1, simplex).max())

    return WeightVector(
        donor_indices=tuple(donors),
        beta=beta,
        objective_value=trace[-1],
        converged=closed_form or kkt_residual <= cfg.tolerance,
        objective_trace=tuple(float(v) for v in trace),
        kkt_residual=kkt_residual,
    )


def predict_counterfactual(
    weights: WeightVector,
    panel: PanelData,
) -> np.ndarray:
    """Weighted donor combination at every period of the panel."""
    donors = check_donors(weights.donor_indices, panel.target_index, panel.n_groups)
    # beta @ a Fortran-ordered copy sums in the order the written series and
    # sweep files were made with, so their last bits stay put.
    return weights.beta @ np.asfortranarray(panel.outcomes[donors])


def estimate_effect(weights: WeightVector, panel: PanelData) -> EffectEstimate:
    """The target's synthetic control and gap at every period, from one donor product."""
    with np.errstate(over="ignore", invalid="ignore"):
        synthetic = predict_counterfactual(weights, panel)
        return EffectEstimate(synthetic, panel.outcomes[panel.target_index] - synthetic)
