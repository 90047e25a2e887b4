"""When does a single weight vector reproduce the target at every period?

The oracle works on exact compositions: it extracts the categories where
the selected groups differ from the target, checks that there are enough
donors (a3) and that donor support covers the target's (a4), solves the
matching system, and verifies the resulting weights against noiseless
expected outcomes at all periods simultaneously.
"""

import numpy as np

from synthpanel import (
    SimConfig,
    expected_outcome,
    minimal_invariant_set,
    simulate_panel,
    solve_oracle_weights,
    verify_identification,
)

def diagnose(s_cardinality, seed):
    cfg = SimConfig(
        S_cardinality=s_cardinality, T=20, T0=15, seed=seed,
        N_per_group=50, covariate_count=0,
    )
    study = simulate_panel(cfg)
    donors = study.panel.donor_indices()
    report = minimal_invariant_set(study.compositions, 0, donors)
    weights = solve_oracle_weights(study.compositions, 0, donors, report.S_indices)
    verified = weights.exists and verify_identification(study, weights, tol=1e-8)
    print(
        f"|S|={report.S_cardinality:>2} donors={report.donor_count} "
        f"a3={str(report.a3_holds):<5} a4={str(report.a4_holds):<5} "
        f"exists={str(weights.exists):<5} verified={verified}"
    )
    return weights, verified


print("identified regime (|S| <= number of donors):")
for s in (0, 2, 5):
    diagnose(s, seed=s)

print("\none differing category too many (|S| = 6 > 5 donors):")
infeasible = 0
for seed in range(30):
    cfg = SimConfig(S_cardinality=6, T=4, T0=2, seed=seed, N_per_group=2, covariate_count=0)
    study = simulate_panel(cfg)
    report = minimal_invariant_set(study.compositions, 0, study.panel.donor_indices())
    w = solve_oracle_weights(study.compositions, 0, study.panel.donor_indices(), report.S_indices, tol=1e-6)
    infeasible += int(not w.exists)
print(f"infeasible in {infeasible}/30 random studies (generic compositions)")

print("\nthe same weight vector works at every period, not one at a time:")
cfg = SimConfig(S_cardinality=3, T=20, T0=15, seed=99, N_per_group=50, covariate_count=0)
study = simulate_panel(cfg)
donors = study.panel.donor_indices()
report = minimal_invariant_set(study.compositions, 0, donors)
weights = solve_oracle_weights(study.compositions, 0, donors, report.S_indices)
expected = expected_outcome(study)
gaps = expected[0] - weights.beta @ expected[list(weights.donor_indices)]
print("max |gap| over t = 1..20:", f"{np.abs(gaps).max():.2e}")
