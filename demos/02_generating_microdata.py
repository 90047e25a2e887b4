"""Individual-level simulation and its exposed ground truth.

Every study draws group compositions over K cause categories, a family of
nonlinear time-varying conditional means, and then whole populations of
individuals whose averages form the observed panel. The study object
keeps the truth as two matrices, the (groups x K) compositions and the
K x T conditional means, so expected outcomes are always available
noiselessly, as their product.
"""

import numpy as np

from synthpanel import SimConfig, expected_outcome, simulate_panel

cfg = SimConfig(
    S_cardinality=4,   # number of cause categories whose mix differs across groups
    T=12,
    T0=9,
    seed=2024,
    N_per_group=2000,
    covariate_count=4,
)
study = simulate_panel(cfg)

print("panel shape:", study.panel.outcomes.shape, "groups:", study.panel.group_labels)
print("differing categories:", sorted(study.true_S))

print("\ncompositions (rows = groups, cols = categories):")
print(np.round(study.compositions, 3))
print("note: columns outside the differing set are identical across groups")

# The realized cell is the average over N sampled individuals; it hugs the
# noiseless expectation within sampling error ~ sd/sqrt(N).
print("\nrealized vs expected outcome, target group:")
expected = expected_outcome(study)[0]
for period in (1, 5, 9, 12):
    realized = study.panel.outcomes[0, period - 1]
    expect = expected[period - 1]
    print(f"  t={period:>2}: realized {realized:+.3f}  expected {expect:+.3f}  gap {realized - expect:+.4f}")

# Identical config (same seed) regenerates the identical study, bit for bit.
again = simulate_panel(cfg)
print("\nbit-identical rerun:", np.array_equal(again.panel.outcomes, study.panel.outcomes))

# Covariate blocks: gentle sine warps of the outcome (suitable) vs averages
# of recoded raw category labels (unsuitable).
print("suitable covariates:", study.aux_suitable.covariate_labels)
print("unsuitable covariates:", study.aux_unsuitable.covariate_labels)
