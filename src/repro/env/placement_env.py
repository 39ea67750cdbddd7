"""MDP environment over macro-group allocation.

An episode places the macro groups of a :class:`CoarseNetlist` one at a
time (largest area first — the ordering fixed in Algorithm 1).  Actions are
flat anchor-grid indices.  At the terminal state, the environment runs the
Sec. II-B legalizer and the Sec. II-C cell placement and reports the
measured HPWL, which a :class:`RewardFunction` turns into the episode
reward shared by every step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.agent.state import EnvState, StateBuilder
from repro.coarsen.coarse import CoarseNetlist
from repro.gp.mixed_size import place_cells_with_fixed_macros
from repro.gp.quadratic import CompiledQP, report_unconverged
from repro.legalize.pipeline import MacroLegalizer
from repro.utils.events import EventLog
from repro.utils.rng import ensure_rng


@dataclass
class EpisodeRecord:
    """Everything one episode produced."""

    actions: list[int] = field(default_factory=list)
    states: list[EnvState] = field(default_factory=list)
    wirelength: float = float("nan")
    reward: float = float("nan")


class MacroGroupPlacementEnv:
    """Sequential macro-group allocation with terminal legalize-and-measure.

    Args:
        coarse: the coarsened problem instance.
        cell_place_iters: spreading iterations of the terminal cell placer —
            the main runtime/fidelity knob of terminal evaluation.
        events: where the Sec. II-B legalizer records its solver fallbacks
            (an in-memory log if omitted).
    """

    def __init__(
        self,
        coarse: CoarseNetlist,
        cell_place_iters: int = 3,
        events: EventLog | None = None,
    ) -> None:
        self.coarse = coarse
        self.legalizer = MacroLegalizer(events=events)
        self.cell_place_iters = cell_place_iters
        #: the design's pin table and cell-placement QP plans, compiled by
        #: the first terminal evaluation and reused by every later one
        self._cell_qp = CompiledQP()
        self.builder = StateBuilder(coarse)
        self._assignment: list[int] = []

    @property
    def n_steps(self) -> int:
        return self.builder.n_steps

    @property
    def n_actions(self) -> int:
        return self.coarse.plan.n_grids

    @property
    def assignment(self) -> list[int]:
        return list(self._assignment)

    # -- episode control -------------------------------------------------------
    def reset(self) -> EnvState:
        self.builder.reset()
        self._assignment = []
        return self.builder.observe()

    def step(self, action: int) -> tuple[EnvState | None, bool]:
        """Commit *action*; returns (next state or None, done)."""
        if not 0 <= action < self.n_actions:
            raise ValueError(f"action {action} outside 0..{self.n_actions - 1}")
        self.builder.apply(action)
        self._assignment.append(int(action))
        if self.builder.done():
            return None, True
        return self.builder.observe(), False

    def finalize(self) -> float:
        """Legalize macros, place cells, return the measured HPWL."""
        if not self.builder.done():
            raise RuntimeError("episode incomplete: cannot finalize")
        return self.evaluate_assignment(self._assignment)

    # -- assignment evaluation ---------------------------------------------------
    def evaluate_assignment(self, assignment: list[int]) -> float:
        """Terminal evaluation of an arbitrary complete assignment.

        Used by the episode loop, by MCTS terminal nodes, and by the
        baselines that search directly over assignments.
        """
        self.legalizer.legalize(self.coarse, assignment)
        return place_cells_with_fixed_macros(
            self.coarse.design,
            n_iterations=self.cell_place_iters,
            compiled=self._cell_qp,
            on_unconverged=report_unconverged(
                self.legalizer.events, stage=None, step="cell_place"
            ),
        )

    # -- convenience rollouts -------------------------------------------------------
    def play_random_episode(
        self, rng: int | np.random.Generator | None = None
    ) -> EpisodeRecord:
        """Uniformly-random valid episode (the Eq. 9 calibration driver)."""
        g = ensure_rng(rng)
        record = EpisodeRecord()
        state = self.reset()
        done = False
        while not done:
            mask = state.action_mask
            probs = mask / mask.sum()
            action = int(g.choice(len(probs), p=probs))
            record.states.append(state)
            record.actions.append(action)
            state, done = self.step(action)
        record.wirelength = self.finalize()
        return record

    def play_greedy_episode(
        self, policy_fn
    ) -> EpisodeRecord:
        """Episode following argmax of *policy_fn(state) -> probs (ζ²,)*."""
        record = EpisodeRecord()
        state = self.reset()
        done = False
        while not done:
            probs = np.asarray(policy_fn(state), dtype=float)
            probs = probs * state.action_mask
            if probs.sum() <= 0:
                probs = state.action_mask
            action = int(np.argmax(probs))
            record.states.append(state)
            record.actions.append(action)
            state, done = self.step(action)
        record.wirelength = self.finalize()
        return record
