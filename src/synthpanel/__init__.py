"""Synthetic controls on panel data, with a ground-truth simulator.

Three layers:

* ``panel`` / ``estimators`` — validated panel data and synthetic-control
  weight fitting (least squares, ridge, elastic net, or simplex).
* ``microsim`` / ``identification`` — an individual-level generator whose
  studies carry their ground truth as two read-only matrices, the
  (groups x K) compositions and the K x T conditional means, and the oracle
  that owns the differing-category set S and decides when one weight vector
  reproduces the target's expected outcome (their product) at every period.
* ``evaluation`` / ``cli`` — seeded replication sweeps and the command
  line front end.

The package's public names are its modules' ``__all__`` lists, re-exported
here; each module's list is the one place a name is declared public.
"""

from .errors import *
from .estimators import *
from .evaluation import *
from .identification import *
from .microsim import *
from .panel import *

__version__ = "0.1.0"
