"""Synthetic-control weight fitting and counterfactual prediction.

Weights minimize the squared pre-period tracking error of the target,
optionally stacked with row-standardized auxiliary covariates, under one
of four regularizers: none (minimum-norm least squares), ridge, elastic
net (coordinate descent), or the probability simplex (projected gradient
with exact Euclidean projection and backtracking line search).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .errors import UsageError
from .panel import AuxMatrix, EffectEstimate, PanelData, standardize_rows

__all__ = [
    "FitConfig",
    "WeightVector",
    "fit",
    "predict_counterfactual",
    "estimate_effect",
    "project_to_simplex",
    "fit_result_to_json",
]

REGULARIZERS = ("none", "ridge", "elastic_net", "simplex")


@dataclass(frozen=True)
class FitConfig:
    """Estimator settings.

    ``ridge_lam`` applies under ``regularizer="ridge"``; ``enet_lam1`` and
    ``enet_lam2`` under ``"elastic_net"``. ``covariate_scale`` is the
    relative weight of the standardized covariate rows in the stacked
    objective. Convergence means the relative objective decrease of an
    iterative solver fell below ``tolerance``.
    """

    regularizer: str = "none"
    ridge_lam: float = 0.0
    enet_lam1: float = 0.0
    enet_lam2: float = 0.0
    max_iterations: int = 10_000
    tolerance: float = 1e-10
    include_covariates: bool = False
    covariate_scale: float = 1.0

    def __post_init__(self):
        if self.regularizer not in REGULARIZERS:
            raise UsageError(f"unknown regularizer {self.regularizer!r}; choose from {REGULARIZERS}")
        for name in ("tolerance", "ridge_lam", "enet_lam1", "enet_lam2", "covariate_scale"):
            if not math.isfinite(getattr(self, name)):
                raise UsageError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.tolerance <= 0:
            raise UsageError("tolerance must be positive")
        if min(self.ridge_lam, self.enet_lam1, self.enet_lam2) < 0:
            raise UsageError("regularization strengths must be nonnegative")
        if self.max_iterations < 1:
            raise UsageError("max_iterations must be at least 1")
        if self.covariate_scale < 0:
            raise UsageError("covariate_scale must be nonnegative")


@dataclass(frozen=True, eq=False)
class WeightVector:
    """Fitted donor weights plus solver diagnostics.

    ``objective_trace`` records the objective after each solver pass and is
    non-increasing by construction; closed-form solves have a single entry.
    """

    donor_indices: tuple[int, ...]
    beta: np.ndarray
    objective_value: float
    converged: bool
    objective_trace: tuple[float, ...]

    def __post_init__(self):
        beta = np.array(self.beta, dtype=float)
        beta.setflags(write=False)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "donor_indices", tuple(int(j) for j in self.donor_indices))
        if beta.shape != (len(self.donor_indices),):
            raise UsageError("beta must align with donor_indices")


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Exact Euclidean projection onto the unit simplex (sort algorithm)."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.nonzero(u * np.arange(1, v.size + 1) > css)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def _stacked_system(
    panel: PanelData,
    donors: Sequence[int],
    aux: AuxMatrix | None,
    cfg: FitConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Assemble the (rows x donors) design matrix and target vector.

    Rows are the pre-intervention periods, then (if configured) one row
    per covariate, standardized across {target} + donors and scaled by
    sqrt(covariate_scale).
    """
    donors = list(donors)
    t0 = panel.intervention_time
    a = panel.outcomes[donors, :t0].T
    y = panel.outcomes[panel.target_index, :t0]
    if cfg.include_covariates:
        selection = [panel.target_index] + donors
        rows = aux.values[selection].T
        standardized, _, _ = standardize_rows(rows)
        weight = np.sqrt(cfg.covariate_scale)
        a = np.vstack([a, weight * standardized[:, 1:]])
        y = np.concatenate([y, weight * standardized[:, 0]])
    return a, y


def _solve_least_squares(a: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    beta = np.linalg.lstsq(a, y, rcond=None)[0]
    residual = a @ beta - y
    return beta, float(residual @ residual)


def _solve_ridge(a: np.ndarray, y: np.ndarray, lam: float) -> tuple[np.ndarray, float]:
    n = a.shape[1]
    augmented = np.vstack([a, np.sqrt(lam) * np.eye(n)])
    rhs = np.concatenate([y, np.zeros(n)])
    beta = np.linalg.lstsq(augmented, rhs, rcond=None)[0]
    residual = a @ beta - y
    return beta, float(residual @ residual + lam * beta @ beta)


def _solve_elastic_net(
    a: np.ndarray, y: np.ndarray, lam1: float, lam2: float, cfg: FitConfig
) -> tuple[np.ndarray, list[float], bool]:
    n = a.shape[1]
    col_sq = (a * a).sum(axis=0)
    beta = np.zeros(n)
    resid = y.copy()

    def objective() -> float:
        return float(resid @ resid + lam1 * np.abs(beta).sum() + lam2 * beta @ beta)

    trace = [objective()]
    converged = False
    for _ in range(cfg.max_iterations):
        for j in range(n):
            rho = a[:, j] @ resid + col_sq[j] * beta[j]
            denom = col_sq[j] + lam2
            new = 0.0 if denom == 0 else np.sign(rho) * max(abs(rho) - lam1 / 2.0, 0.0) / denom
            if new != beta[j]:
                resid += a[:, j] * (beta[j] - new)
                beta[j] = new
        current = objective()
        decrease = trace[-1] - current
        trace.append(min(current, trace[-1]))
        if decrease <= cfg.tolerance * max(1.0, abs(trace[-1])):
            converged = True
            break
    return beta, trace, converged


def _restricted_affine_solve(a: np.ndarray, y: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Least squares over the support under the sum-to-one constraint (KKT)."""
    a_s = a[:, support]
    k = a_s.shape[1]
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, :k] = 2.0 * a_s.T @ a_s
    kkt[:k, k] = 1.0
    kkt[k, :k] = 1.0
    rhs = np.concatenate([2.0 * a_s.T @ y, [1.0]])
    return np.linalg.lstsq(kkt, rhs, rcond=None)[0][:k]


def _polish_simplex(a: np.ndarray, y: np.ndarray, beta: np.ndarray, value: float) -> tuple[np.ndarray, float]:
    """Fully-corrective step: exact solve on the active face, shrinking the
    support while the constrained optimum leaves it."""
    support = beta > 1e-12
    while support.any():
        solution = _restricted_affine_solve(a, y, support)
        if solution.min() >= -1e-12:
            candidate = np.zeros_like(beta)
            candidate[support] = np.clip(solution, 0.0, None)
            candidate /= candidate.sum()
            residual = a @ candidate - y
            candidate_value = float(residual @ residual)
            if candidate_value <= value:
                return candidate, candidate_value
            return beta, value
        drop = np.nonzero(support)[0][np.argmin(solution)]
        support[drop] = False
    return beta, value


def _solve_simplex(
    a: np.ndarray, y: np.ndarray, cfg: FitConfig
) -> tuple[np.ndarray, list[float], bool]:
    """Fully-corrective projected gradient on the simplex.

    Gradient steps use backtracking line search (halving from 1); after
    convergence the active face is re-solved exactly, which pins vertex
    and face optima to machine precision.
    """
    n = a.shape[1]
    beta = np.full(n, 1.0 / n)

    def objective(b: np.ndarray) -> float:
        r = a @ b - y
        return float(r @ r)

    current = objective(beta)
    trace = [current]
    converged = False
    for _ in range(cfg.max_iterations):
        grad = 2.0 * (a.T @ (a @ beta - y))
        step = 1.0
        candidate, value = beta, current
        while step > 1e-20:
            trial = project_to_simplex(beta - step * grad)
            diff = trial - beta
            trial_value = objective(trial)
            # Sufficient-decrease test against the local quadratic model.
            if trial_value <= current + grad @ diff + (diff @ diff) / (2.0 * step) + 1e-15:
                candidate, value = trial, trial_value
                break
            step *= 0.5
        if value > current:
            candidate, value = beta, current
        decrease = current - value
        beta, current = candidate, value
        trace.append(current)
        if decrease <= cfg.tolerance * max(1.0, abs(current)):
            converged = True
            break
    beta, current = _polish_simplex(a, y, beta, current)
    trace.append(current)
    return beta, trace, converged


def fit(
    panel: PanelData,
    donors: Sequence[int],
    aux: AuxMatrix | None = None,
    cfg: FitConfig = FitConfig(),
) -> WeightVector:
    """Fit donor weights on the target's pre-intervention outcomes.

    Non-convergence of an iterative solver is reported in-band through
    ``converged=False``, never raised.
    """
    donors = [int(j) for j in donors]
    if not donors:
        raise UsageError("donor set must not be empty")
    if len(set(donors)) != len(donors):
        raise UsageError("donor indices must be distinct")
    for j in donors:
        if not 0 <= j < panel.n_groups:
            raise UsageError(f"donor index {j} out of range")
    if panel.target_index in donors:
        raise UsageError("the target cannot be its own donor")
    if cfg.include_covariates:
        if aux is None:
            raise UsageError("include_covariates=True requires an AuxMatrix")
        if aux.values.shape[0] != panel.n_groups:
            raise UsageError(
                f"covariate matrix has {aux.values.shape[0]} rows for {panel.n_groups} panel groups"
            )

    a, y = _stacked_system(panel, donors, aux, cfg)
    if cfg.regularizer == "none":
        beta, objective = _solve_least_squares(a, y)
        trace, converged = [objective], True
    elif cfg.regularizer == "ridge":
        beta, objective = _solve_ridge(a, y, cfg.ridge_lam)
        trace, converged = [objective], True
    elif cfg.regularizer == "elastic_net":
        beta, trace, converged = _solve_elastic_net(a, y, cfg.enet_lam1, cfg.enet_lam2, cfg)
        objective = trace[-1]
    else:
        beta, trace, converged = _solve_simplex(a, y, cfg)
        objective = trace[-1]
        if beta.min() < -1e-12 or abs(beta.sum() - 1.0) > 1e-9:
            raise RuntimeError("simplex projection returned an infeasible point")

    return WeightVector(
        donor_indices=tuple(donors),
        beta=beta,
        objective_value=float(objective),
        converged=converged,
        objective_trace=tuple(float(v) for v in trace),
    )


def predict_counterfactual(
    weights: WeightVector,
    panel: PanelData,
    periods: Sequence[int] | None = None,
) -> np.ndarray:
    """Weighted donor combination at the requested periods (time labels)."""
    for j in weights.donor_indices:
        if not 0 <= j < panel.n_groups or j == panel.target_index:
            raise UsageError(f"donor index {j} is not a donor of this panel")
    if periods is None:
        columns = np.arange(panel.n_periods)
    else:
        columns = np.array([panel.time_index(t) for t in periods])
    donor_outcomes = panel.outcomes[list(weights.donor_indices)][:, columns]
    return weights.beta @ donor_outcomes


def estimate_effect(weights: WeightVector, panel: PanelData) -> EffectEstimate:
    """Per-post-period gaps; ``tau`` is the final-period gap."""
    synthetic = predict_counterfactual(weights, panel)
    observed = panel.outcomes[panel.target_index]
    per_period = tuple(
        (panel.time_labels[t], float(observed[t]), float(synthetic[t]), float(observed[t] - synthetic[t]))
        for t in range(panel.intervention_time, panel.n_periods)
    )
    return EffectEstimate(tau=per_period[-1][3], per_period=per_period)


def fit_result_to_json(weights: WeightVector, panel: PanelData, cfg: FitConfig) -> dict:
    """JSON-serializable record of a fit: labels, weights, diagnostics, config."""
    return {
        "donors": [panel.group_labels[j] for j in weights.donor_indices],
        "beta": [float(b) for b in weights.beta],
        "objective_value": weights.objective_value,
        "converged": weights.converged,
        "config": asdict(cfg),
    }
