"""Panels, donor weights, and effect estimates.

Builds a small panel by hand, fits simplex-constrained weights on the
pre-intervention window, and reads off the treatment-effect estimate.
"""

import numpy as np

from synthpanel import (
    FitConfig,
    PanelData,
    aggregate_groups,
    estimate_effect,
    fit,
)

# A panel of 4 groups over 8 periods. The target tracks a 60/40 blend of
# the first two donors until period 6, then drops by 5 units: that drop is
# the "treatment effect" we want to recover.
t = np.arange(1, 9, dtype=float)
donor1 = 100 + 2 * t
donor2 = 80 - t
donor3 = 90 + np.sin(t)
target = 0.6 * donor1 + 0.4 * donor2
target[6:] -= 5.0

panel = PanelData(
    outcomes=np.vstack([target, donor1, donor2, donor3]),
    group_labels=("treated", "d1", "d2", "d3"),
    time_labels=tuple(range(2001, 2009)),
    target_index=0,
    intervention_time=6,
    populations={"treated": 30.0, "d1": 10.0, "d2": 1.0, "d3": 5.0},
)

weights = fit(panel, panel.donor_indices(), cfg=FitConfig(regularizer="simplex"))
print("donor weights:", dict(zip(("d1", "d2", "d3"), np.round(weights.beta, 4))))
print("converged:", weights.converged, "objective:", f"{weights.objective_value:.3e}")

# The estimate holds the synthetic control and the observed-minus-synthetic
# gap at every period; the post-intervention gaps are the effect.
effect = estimate_effect(weights, panel)
observed = panel.outcomes[panel.target_index]
print("\nper post-period gaps (time, observed, synthetic, gap):")
for k in range(panel.intervention_time, panel.n_periods):
    values = (observed[k], effect.synthetic[k], effect.gap[k])
    print("  ", (panel.time_labels[k], *(round(float(v), 3) for v in values)))
print("estimated effect at the final period:", round(effect.tau, 3), "(injected: -5)")

# Aggregation merges groups into super-groups, weighted by the panel's
# populations; a group mapped to itself passes through untouched.
merged = aggregate_groups(panel, {"treated": "treated", "d1": "west", "d2": "west", "d3": "east"})
print("\nafter aggregation:", merged.group_labels)
print("west at 2001:", round(merged.outcomes[merged.group_index("west"), 0], 3),
      "= (10*102 + 1*79) / 11")
