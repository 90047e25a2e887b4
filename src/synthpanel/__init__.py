"""Synthetic controls on panel data, with a ground-truth simulator.

Three layers:

* ``panel`` / ``estimators`` — validated panel data and synthetic-control
  weight fitting (least squares, ridge, elastic net, or simplex).
* ``microsim`` / ``identification`` — an individual-level generator whose
  studies carry exact compositions and conditional means, and the oracle
  that decides when a single weight vector reproduces the target's
  expected outcome at every period.
* ``evaluation`` / ``cli`` — seeded replication sweeps and the command
  line front end.
"""

from .errors import DataValidationError, UsageError
from .estimators import (
    EffectEstimate,
    FitConfig,
    WeightVector,
    estimate_effect,
    fit,
    predict_counterfactual,
)
from .evaluation import (
    SplitEvaluation,
    SweepResult,
    covariate_experiment,
    sweep_S,
    sweep_T_mean_median,
    time_split_evaluate,
)
from .identification import (
    InvariantSetReport,
    OracleWeights,
    minimal_invariant_set,
    solve_oracle_weights,
    verify_identification,
)
from .microsim import (
    GroupComposition,
    OutcomeFunctionFamily,
    SimConfig,
    SimulatedStudy,
    expected_outcome,
    simulate_panel,
)
from .panel import (
    AuxMatrix,
    PanelData,
    aggregate_divisions,
    aggregate_groups,
    from_csv,
    select_groups,
    to_csv,
)

__version__ = "0.1.0"
