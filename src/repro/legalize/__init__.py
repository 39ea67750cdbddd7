"""Macro legalization (Sec. II-B).

Three steps, after macro groups are allocated to grids by RL or MCTS:

1. cell groups placed by quadratic programming with macro groups fixed at
   their grid centers;
2. macro groups decomposed; member macros refined by QP with cell groups
   fixed, each macro confined to its group's grid span;
3. per-region overlap removal: geometric relations captured as a sequence
   pair [28], overlaps removed by an LP minimizing weighted one-dimensional
   wirelength (Eq. 3) [34].
"""

from repro.legalize.sequence_pair import SequencePair, extract_sequence_pair
from repro.legalize.lp_spread import lp_legalize_axis, pack_longest_path
from repro.legalize.pipeline import MacroLegalizer
from repro.legalize.cells import CellLegalizationResult, legalize_cells

__all__ = [
    "CellLegalizationResult",
    "MacroLegalizer",
    "SequencePair",
    "extract_sequence_pair",
    "legalize_cells",
    "lp_legalize_axis",
    "pack_longest_path",
]
