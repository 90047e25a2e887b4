"""One admission rule for every numeric parameter: ``panel.admit_number`` and each of its callers."""

import math

import numpy as np
import pytest

from synthpanel import (
    FitConfig,
    SimConfig,
    UsageError,
    minimal_invariant_set,
    run_experiment,
    simulate_panel,
    solve_oracle_weights,
    time_split_evaluate,
    verify_identification,
)
from synthpanel.panel import admit_number

SIM = dict(S_cardinality=2, T=6, T0=4, seed=3, K=3, num_donors=2, N_per_group=10, covariate_count=1)


@pytest.fixture(scope="module")
def study():
    return simulate_panel(SimConfig(**SIM))


def oracle(study, tol=1e-9):
    return solve_oracle_weights(study.compositions, 0, study.panel.donor_indices(), (0, 1), tol=tol)


# Every parameter the rule admits: its name, a call that passes it a value, and the
# value out of range with the word its refusal names it by. A range message that other
# tests pin word for word names its field in words ("donor group", "regularization").
PARAMETERS = {
    **{
        name: (lambda study, value, name=name: SimConfig(**SIM | {name: value}), bad, word)
        for name, bad, word in [
            ("S_cardinality", 4, "S_cardinality"),
            ("T", 4, "T0 < T"),
            ("T0", 0, "T0"),
            ("seed", -1, "seed"),
            ("K", 0, "K >= 1"),
            ("num_donors", 0, "donor group"),
            ("N_per_group", 0, "N_per_group"),
            ("covariate_count", -1, "covariate_count"),
            ("noise_sd", -1.0, "noise_sd"),
            ("post_intervention_shift", math.inf, "post_intervention_shift"),
            ("ramp_scale", -0.5, "ramp_scale"),
        ]
    },
    **{
        name: (lambda study, value, name=name: FitConfig(**{name: value}), bad, word)
        for name, bad, word in [
            ("ridge_lam", -1.0, "regularization"),
            ("enet_lam1", -1.0, "regularization"),
            ("enet_lam2", -1.0, "regularization"),
            ("max_iterations", 0, "max_iterations"),
            ("tolerance", 0.0, "tolerance"),
            ("covariate_scale", -1.0, "covariate_scale"),
        ]
    },
    "minimal_invariant_set tol": (
        lambda study, value: minimal_invariant_set(study.compositions, 0, study.panel.donor_indices(), tol=value),
        0.0, "tolerance",
    ),
    "solve_oracle_weights tol": (lambda study, value: oracle(study, tol=value), -1.0, "tolerance"),
    "verify_identification tol": (lambda study, value: verify_identification(study, oracle(study), tol=value),
                                  0.0, "tolerance"),
    "split": (lambda study, value: time_split_evaluate(study.panel, study.panel.donor_indices(), split=value),
              1.0, "split"),
    "experiment": (lambda study, value: run_experiment(value, SimConfig(**SIM), [2], replications=1), "s",
                   "experiment"),
    "replications": (lambda study, value: run_experiment("S", SimConfig(**SIM), [2], replications=value), 0,
                     "replications"),
}
FAULTS = {"string": "1", "bool": True, "nan": math.nan}


def refusal(call) -> str:
    with pytest.raises(UsageError) as info:
        call()
    message = str(info.value)
    assert "\n" not in message
    return message


@pytest.mark.parametrize("fault", [*FAULTS, "out-of-range"])
@pytest.mark.parametrize("parameter", PARAMETERS)
def test_each_fault_is_one_line_naming_the_parameter(study, parameter, fault):
    call, bad, word = PARAMETERS[parameter]
    message = refusal(lambda: call(study, FAULTS.get(fault, bad)))
    assert (parameter.split()[-1] if fault in FAULTS else word) in message  # "tol" names the tolerance


@pytest.mark.parametrize(
    "call",
    [
        lambda study: FitConfig(tolerance="1e-3"),
        lambda study: SimConfig(5, 20, 15, 1, noise_sd="1"),
        lambda study: minimal_invariant_set(np.eye(3), 0, [1, 2], tol="1"),
        lambda study: time_split_evaluate(study.panel, study.panel.donor_indices(), split="0.5"),
        lambda study: run_experiment("Q", SimConfig(**SIM), [2]),
        lambda study: run_experiment("S", SimConfig(**SIM), [2], replications=1.5),
        lambda study: FitConfig(max_iterations=2.5),
        lambda study: FitConfig(max_iterations=True),
    ],
    ids=["tolerance-text", "noise_sd-text", "tol-text", "split-text", "unknown-experiment", "fractional-replications",
         "fractional-max_iterations", "bool-max_iterations"],
)
def test_calls_that_once_slipped_past_or_crashed_are_refused(study, call):
    # Each raised TypeError, KeyError or ValueError, or was accepted.
    refusal(lambda: call(study))


def test_numpy_numbers_are_admitted(study):
    cfg = SimConfig(**{name: np.int32(value) for name, value in SIM.items()} | {"seed": np.uint64(2**64 - 1)},
                    noise_sd=np.float32(0.5), post_intervention_shift=np.float32(1), ramp_scale=np.float32(2))
    assert cfg.seed == 2**64 - 1
    FitConfig(ridge_lam=np.float32(0.1), enet_lam1=np.float32(0.1), enet_lam2=np.float32(0.1),
              max_iterations=np.int32(5), tolerance=np.float32(1e-6), covariate_scale=np.float32(0.5))
    tol, donors = np.float32(1e-6), study.panel.donor_indices()
    minimal_invariant_set(study.compositions, 0, donors, tol=tol)
    verify_identification(study, oracle(study, tol=tol), tol=tol)
    time_split_evaluate(study.panel, donors, split=np.float32(0.75))
    for replications in (np.int32(1), np.uint64(1)):
        (point,) = run_experiment("S", SimConfig(**SIM), [2], replications=replications)["sweep.csv"].points
        assert point.replications == 1


class TestRule:
    def test_returns_the_value_as_given(self):
        value = np.float32(0.5)
        assert admit_number("x", value, minimum=0) is value
        assert admit_number("seed", 2**200 + 7, integer=True, minimum=0) == 2**200 + 7

    @pytest.mark.parametrize(
        "value, options, message",
        [
            (True, {}, "x must be a number, got True"),
            (2.0, {"integer": True}, "x must be an integer, got 2.0"),
            ("nan", {"positive": True}, "x must be a number, got 'nan'"),
            (math.nan, {"positive": True}, "x must be finite, got nan"),
            (-math.inf, {"minimum": 0}, "x must be finite, got -inf"),
            (10**400, {}, "x must be finite, got 1" + "0" * 400),
            (0, {"positive": True}, "x must be positive, got 0"),
            (-1, {"minimum": 0}, "x must be nonnegative, got -1"),
            (0, {"integer": True, "minimum": 1}, "x must be at least 1, got 0"),
        ],
    )
    def test_first_fault_is_refused(self, value, options, message):
        # Kind, then finiteness, then bounds; an int too large for a float is not finite.
        assert refusal(lambda: admit_number("x", value, **options)) == message
