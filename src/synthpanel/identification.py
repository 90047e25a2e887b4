"""Identification oracle over ground-truth compositions.

Given the true category distributions of the target and a donor set, rows of a (groups x K)
matrix such as ``SimulatedStudy.compositions``, this module owns the set S of categories on
which they differ and its tolerances (the simulator takes S from it), checks the two
identifying conditions (enough donors; donor support covers the target's), and solves for
the single weight vector that matches the noiseless :func:`expected_outcome` at every period.
Everything here operates on exact compositions, never on estimated panels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import UsageError
from .panel import admit_number, check_donors, frozen_array

if TYPE_CHECKING:
    from .microsim import SimulatedStudy

__all__ = [
    "InvariantSetReport",
    "OracleWeights",
    "expected_outcome",
    "minimal_invariant_set",
    "solve_oracle_weights",
    "verify_identification",
]

INVARIANT_TOL = 1e-9  # S holds the categories where some donor is farther than this from the target
VERIFY_TOL = 1e-8  # the largest gap verify_identification allows at any period


@dataclass(frozen=True, eq=False)
class InvariantSetReport:
    """Categories that differ between target and donors, plus condition checks.

    ``a3_holds`` iff the donor count is at least the cardinality of the
    differing set; ``a4_holds`` iff every category the target puts mass on
    is also carried by some donor. ``per_category_max_gap[k]`` is the
    largest |P_j(k) - P_target(k)| over the selected groups.
    """

    S_indices: tuple[int, ...]
    S_cardinality: int
    donor_count: int
    a3_holds: bool
    a4_holds: bool
    per_category_max_gap: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "per_category_max_gap", frozen_array(self.per_category_max_gap, "the category gaps"))
        object.__setattr__(self, "S_indices", tuple(int(i) for i in self.S_indices))


@dataclass(frozen=True, eq=False)
class OracleWeights:
    """Minimum-norm solution of the composition-matching system.

    ``exists`` reports in-band whether the system admits a solution at the
    given tolerance; the weights are unrestricted in sign.
    """

    donor_indices: tuple[int, ...]
    beta: np.ndarray
    residual_norm: float
    exists: bool

    def __post_init__(self):
        object.__setattr__(self, "beta", frozen_array(self.beta, "the oracle weights"))
        object.__setattr__(self, "donor_indices", tuple(int(j) for j in self.donor_indices))


def _validate_selection(compositions, target: int, donors: Sequence[int]) -> tuple[np.ndarray, list[int]]:
    """The compositions as a C-ordered (groups x K) matrix, so that results do not depend on the
    input's layout, and the donor indices once they are valid."""
    try:
        compositions = np.ascontiguousarray(compositions, dtype=float)
        if compositions.ndim != 2:
            raise ValueError
    except (TypeError, ValueError):  # ragged rows too
        raise UsageError("compositions must be a (group x category) matrix") from None
    return compositions, check_donors(donors, target, len(compositions))


def minimal_invariant_set(
    compositions,
    target: int,
    donors: Sequence[int],
    tol: float = INVARIANT_TOL,
) -> InvariantSetReport:
    """Categories where any selected group deviates from the target by > tol."""
    admit_number("tolerance", tol, positive=True)
    compositions, donors = _validate_selection(compositions, target, donors)
    target_probs, donor_probs = compositions[target], compositions[donors]
    gaps = np.abs(donor_probs - target_probs).max(axis=0)
    s_indices = tuple(int(i) for i in np.nonzero(gaps > tol)[0])
    a4 = all(
        donor_probs[:, k].max() > tol for k in range(target_probs.size) if target_probs[k] > tol
    )
    return InvariantSetReport(
        S_indices=s_indices,
        S_cardinality=len(s_indices),
        donor_count=len(donors),
        a3_holds=len(donors) >= len(s_indices),
        a4_holds=a4,
        per_category_max_gap=gaps,
    )


def solve_oracle_weights(
    compositions,
    target: int,
    donors: Sequence[int],
    S: Sequence[int],
    tol: float = INVARIANT_TOL,
) -> OracleWeights:
    """Minimum-norm least-squares weights matching the target on S.

    With an empty S every selected group already matches the target, so the
    first donor alone (weight 1) is returned. Infeasibility is in-band:
    ``exists`` is False when the residual exceeds ``tol``.
    """
    admit_number("tolerance", tol, positive=True)
    compositions, donors = _validate_selection(compositions, target, donors)
    s = sorted(int(i) for i in S)
    if any(not 0 <= i < compositions.shape[1] for i in s):
        raise UsageError("category index out of range in S")
    if not s:
        beta = np.zeros(len(donors))
        beta[0] = 1.0
        return OracleWeights(donor_indices=tuple(donors), beta=beta, residual_norm=0.0, exists=True)
    matrix = compositions.T[np.ix_(s, donors)]  # C-ordered, as the residual's bits depend on it
    rhs = compositions[target, s]
    beta = np.linalg.lstsq(matrix, rhs, rcond=None)[0]
    residual = float(np.linalg.norm(matrix @ beta - rhs))
    return OracleWeights(
        donor_indices=tuple(donors), beta=beta, residual_norm=residual, exists=residual <= tol
    )


def expected_outcome(study: SimulatedStudy) -> np.ndarray:
    """Noiseless (groups x T) expected control outcomes: entry ``[j, t-1]`` is group j at period t."""
    return study.compositions @ study.functions


def verify_identification(study: SimulatedStudy, weights: OracleWeights, tol: float = VERIFY_TOL) -> bool:
    """Check the weighted-donor identity on noiseless expected outcomes.

    True iff the target's expected control outcome equals the weighted
    combination of the donors' at every period of the study, each within
    ``tol``.
    """
    admit_number("tolerance", tol, positive=True)
    expected = expected_outcome(study)
    gaps = expected[study.panel.target_index] - weights.beta @ expected[list(weights.donor_indices)]
    return bool(np.all(np.abs(gaps) <= tol))
