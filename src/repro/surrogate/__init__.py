"""Two-tier terminal evaluation: fast surrogate HPWL + top-K exact.

The exact terminal evaluation (legalize + cell place) dominates MCTS
wall-clock.  This package provides the cheap tier:

- :class:`GroupCentroidSurrogate` — group-centroid HPWL over the coarse
  netlist, with a precomputed linear cell response, so scoring a
  terminal assignment costs one matvec and a bounding box per net;
- :class:`SurrogateCalibration` — an online least-squares fit mapping
  surrogate wirelength to predicted exact wirelength, so pruned terminal
  leaves can still backpropagate a value on the exact reward scale;
- :func:`spearman` — rank correlation used by the fidelity gates
  (surrogate-vs-exact ordering agreement, per Cheng/Kahng 2302.11014:
  proxy fidelity must be measured, not assumed).

The surrogate *prunes* (decides which terminal candidates deserve the
exact pipeline); it never *reports* — ``best_terminal_assignment`` and
the final flow HPWL always come from exact evaluations.
"""

from repro.surrogate.calibrate import SurrogateCalibration, spearman
from repro.surrogate.hpwl import GroupCentroidSurrogate

__all__ = [
    "GroupCentroidSurrogate",
    "SurrogateCalibration",
    "spearman",
]
