"""AlphaZero-style iterative MCTS↔RL training — the loop the paper avoids.

Sec. I-B recounts Silver et al.'s scheme: MCTS generates training samples,
the network trains on them, the improved network guides the next MCTS, and
so on.  The paper deliberately runs MCTS **once**, after A2C pre-training,
arguing the iterative loop's cost explodes with design size (every MCTS
sample requires cell placements).

This module implements the avoided loop as an *extension*, so the design
decision can be measured (see ``benchmarks/bench_ablation_iterative.py``):

- each round runs a full MCTS placement with the current network,
  recording for every committed step the state planes and the
  visit-count distribution over actions (the AlphaZero policy target);
- the terminal reward of the committed assignment becomes the value
  target z of every step;
- the network trains on cross-entropy(π_visit, p_θ) + MSE(z, v_θ).

The cost asymmetry the paper predicts is directly observable: one
iterative round costs roughly a whole MCTS placement, whereas one A2C
episode costs a single legalize-and-place call.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.agent.network import PolicyValueNet
from repro.agent.reward import RewardFunction
from repro.agent.state import StateBuilder
from repro.env.placement_env import MacroGroupPlacementEnv
from repro.mcts.search import MCTSConfig, MCTSPlacer
from repro.nn.functional import masked_softmax
from repro.nn.optim import Adam, clip_gradients
from repro.utils.events import EventLog


@dataclass
class _Sample:
    planes: np.ndarray  # (3, ζ, ζ)
    mask: np.ndarray  # (ζ²,)
    pi: np.ndarray  # (ζ²,) visit distribution
    z: float  # terminal value of the episode


@dataclass
class IterativeHistory:
    """Per-round telemetry of the iterative loop."""

    wirelengths: list[float] = field(default_factory=list)
    rewards: list[float] = field(default_factory=list)
    losses: list[float] = field(default_factory=list)
    terminal_evaluations: list[int] = field(default_factory=list)
    #: exact legalize-and-place calls per round — diverges from
    #: ``terminal_evaluations`` only when two-tier pruning
    #: (``MCTSConfig.exact_topk``) is active
    exact_evaluations: list[int] = field(default_factory=list)

    def best_wirelength(self) -> float:
        return min(self.wirelengths) if self.wirelengths else float("nan")


class IterativeMCTSTrainer:
    """Alternates MCTS sample generation and network updates."""

    def __init__(
        self,
        env: MacroGroupPlacementEnv,
        network: PolicyValueNet,
        reward_fn: RewardFunction,
        mcts_config: MCTSConfig = MCTSConfig(),
        lr: float = 1e-3,
        grad_clip: float = 5.0,
        train_epochs: int = 4,
        root_noise_frac: float = 0.25,
        events: EventLog | None = None,
        budget=None,
    ) -> None:
        self.env = env
        self.network = network
        self.reward_fn = reward_fn
        self.mcts_config = mcts_config
        self.optimizer = Adam(network.parameters(), lr=lr)
        self.grad_clip = grad_clip
        self.train_epochs = train_epochs
        self.root_noise_frac = root_noise_frac
        #: runtime plumbing: event log + wall-clock budget polled between
        #: rounds (a round is the natural anytime boundary of this loop).
        self.events = events if events is not None else EventLog()
        self.budget = budget
        #: tier-1 surrogate shared across rounds when two-tier pruning is
        #: on — the anchor-centroid tables cost O(groups × grids) to build,
        #: so each round's placer reuses one instance (its per-search top-K
        #: heap and calibration still reset with every placer).
        self._surrogate = None
        if mcts_config.exact_topk is not None:
            from repro.surrogate import GroupCentroidSurrogate

            self._surrogate = GroupCentroidSurrogate(env.coarse)

    # -- sample generation ---------------------------------------------------
    def _collect_round(self, seed: int) -> tuple[list[_Sample], float, "MCTSPlacer"]:
        """One MCTS placement; returns samples, wirelength, the placer."""
        config = replace(
            self.mcts_config,
            seed=seed,
            root_noise_frac=self.root_noise_frac,
        )
        samples: list[_Sample] = []
        builder = StateBuilder(self.env.coarse)

        def record(state: dict) -> None:
            # The decision node's visit counts, read at commit time: later
            # explorations back up through the committed path.
            *prefix, action = state["committed"]
            node = state["root"]
            for a in prefix:
                node = node.children[a]
            obs = builder.observe()
            pi = np.zeros(self.env.n_actions)
            visits = node.visit.sum()
            pi[node.actions] = (
                node.visit / visits if visits else 1.0 / len(node.actions)
            )
            samples.append(
                _Sample(
                    planes=self.network.pack_planes(
                        obs.s_p, obs.s_a, obs.t, obs.total_steps
                    )[0],
                    mask=obs.action_mask.copy(),
                    pi=pi,
                    z=0.0,  # filled after the terminal evaluation
                )
            )
            builder.apply(action)

        placer = MCTSPlacer(
            self.env, self.network, self.reward_fn, config,
            on_commit=record, surrogate=self._surrogate,
        )
        wirelength = placer.run().wirelength
        z = float(self.reward_fn(wirelength))
        for s in samples:
            s.z = z
        return samples, wirelength, placer

    # -- network update ---------------------------------------------------------
    def _train_on(self, samples: list[_Sample]) -> float:
        if not samples:
            return 0.0
        net = self.network
        net.train(True)
        x = np.stack([s.planes for s in samples])
        masks = np.stack([s.mask for s in samples])
        pis = np.stack([s.pi for s in samples])
        zs = np.array([s.z for s in samples])
        b = len(samples)
        loss = 0.0
        for _ in range(self.train_epochs):
            logits, values = net.forward(x)
            probs = masked_softmax(logits, masks, axis=1)
            # Cross-entropy to the visit distribution; same (p − π) gradient
            # shape as the A2C case.
            dlogits = (probs - pis) / b
            dvalues = 2.0 * (values - zs) / b
            safe = np.clip(probs, 1e-12, None)
            policy_loss = float(-(pis * np.log(safe)).sum(axis=1).mean())
            value_loss = float(((values - zs) ** 2).mean())
            loss = policy_loss + value_loss
            net.zero_grad()
            net.backward(dlogits, dvalues)
            clip_gradients(net.parameters(), self.grad_clip)
            self.optimizer.step()
        return loss

    # -- main loop -----------------------------------------------------------------
    def train(self, n_rounds: int) -> IterativeHistory:
        """Run *n_rounds* of generate-and-train; returns the telemetry.

        A wall-clock ``budget`` ends the loop between rounds with the
        anytime best-so-far history.
        """
        history = IterativeHistory()
        for round_idx in range(n_rounds):
            if self.budget is not None and self.budget.exhausted():
                self.events.emit(
                    "budget_exhausted",
                    stage="iterative",
                    round=round_idx,
                    elapsed=round(self.budget.elapsed(), 3),
                )
                break
            samples, wirelength, placer = self._collect_round(seed=round_idx)
            loss = self._train_on(samples)
            history.wirelengths.append(wirelength)
            history.rewards.append(float(self.reward_fn(wirelength)))
            history.losses.append(loss)
            history.terminal_evaluations.append(placer.n_terminal_evaluations)
            history.exact_evaluations.append(placer.n_exact_evaluations)
            self.events.emit(
                "round_completed",
                stage="iterative",
                round=round_idx,
                wirelength=wirelength,
            )
        return history
