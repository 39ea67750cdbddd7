"""Actor-Critic pre-training (Sec. III-D, Algorithm 1 lines 3–10).

Every episode walks the environment with actions sampled from the masked
policy; the terminal wirelength is converted to a reward that is assigned
to *every* step of the episode ("the reward value for each non-terminal
step ... is set according to the value obtained in the last step"), because
the value network must learn to judge *partial* placements — that is what
MCTS later uses at non-terminal nodes.

Losses (Eq. 5–8):

    L_policy = Σ_t −log p_θ,t(a_t) · A_t ,   A_t = R_t − v_θ,t
    L_value  = E[A_t²]
    L        = L_policy + L_value

The gradient of −log p(a) under the mask-renormalized softmax is the usual
``probs − onehot(a)`` (the mask is constant), so both heads reduce to dense
gradients on the network outputs.  Parameters update every
``update_every`` episodes (paper: 30).
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.agent.network import PolicyValueNet
from repro.agent.reward import RewardFunction
from repro.nn.functional import masked_softmax

if TYPE_CHECKING:  # avoids the env <-> agent import cycle at runtime
    from repro.env.placement_env import MacroGroupPlacementEnv
from repro.nn.optim import Adam, clip_gradients
from repro.runtime import faults
from repro.runtime.errors import PlacementError, TrainingDivergedError
from repro.utils.events import EventLog
from repro.utils.rng import ensure_rng


@dataclass
class _Transition:
    planes: np.ndarray  # (3, ζ, ζ)
    mask: np.ndarray  # (ζ²,)
    action: int
    #: (rows, cols) footprint of the group being placed — needed to mirror
    #: anchor-indexed data under symmetry augmentation.
    span: tuple[int, int] = (1, 1)
    reward: float = 0.0


@dataclass
class Snapshot:
    """Deep copy of network parameters + BN statistics (Fig. 5 checkpoints)."""

    episode: int
    params: list[np.ndarray]
    bn_stats: list[tuple[np.ndarray, np.ndarray]]


@dataclass
class TrainingHistory:
    """Per-episode telemetry of a training run."""

    rewards: list[float] = field(default_factory=list)
    wirelengths: list[float] = field(default_factory=list)
    losses: list[float] = field(default_factory=list)
    grad_norms: list[float] = field(default_factory=list)
    snapshots: list[Snapshot] = field(default_factory=list)

    def best_wirelength(self) -> float:
        return min(self.wirelengths) if self.wirelengths else float("nan")


class ActorCriticTrainer:
    """Trains a :class:`PolicyValueNet` on a placement environment.

    With ``n_envs > 1`` episodes roll out in synchronized waves: N
    environments step in lock-step and every step costs one *batched*
    network forward instead of N single-state forwards.  Each episode in a
    wave samples from its own deterministic RNG stream and keeps its own
    transition buffer; updates and checkpoints still fire on the same
    per-episode boundaries.  ``n_envs=1`` reproduces the sequential
    trainer bit-for-bit under a fixed seed.
    """

    def __init__(
        self,
        env: "MacroGroupPlacementEnv",
        network: PolicyValueNet,
        reward_fn: RewardFunction,
        lr: float = 1e-3,
        update_every: int = 30,
        grad_clip: float = 5.0,
        entropy_coef: float = 0.0,
        epochs_per_update: int = 1,
        augment_symmetry: bool = False,
        n_envs: int = 1,
        rng: int | np.random.Generator | None = None,
        events: EventLog | None = None,
        budget=None,
        max_divergence_rollbacks: int = 8,
        max_episode_failures: int = 8,
        terminal_pool=None,
    ) -> None:
        if network.config.zeta != env.coarse.plan.zeta:
            raise ValueError(
                f"network grid ({network.config.zeta}) != plan grid "
                f"({env.coarse.plan.zeta})"
            )
        self.env = env
        self.network = network
        self.reward_fn = reward_fn
        self.update_every = update_every
        self.grad_clip = grad_clip
        self.entropy_coef = entropy_coef
        self.epochs_per_update = max(1, epochs_per_update)
        self.augment_symmetry = augment_symmetry
        #: episodes rolled out per batched policy forward (N); 1 reproduces
        #: the sequential trainer bit-for-bit under a fixed seed.
        self.n_envs = max(1, int(n_envs))
        self.optimizer = Adam(network.parameters(), lr=lr)
        self.rng = ensure_rng(rng)
        self._buffer: list[_Transition] = []
        self._shadow_envs: list["MacroGroupPlacementEnv"] = []
        #: runtime plumbing (all optional): structured event log, wall-clock
        #: budget polled at episode boundaries, and a hook the harness uses
        #: to persist intra-stage snapshots (called as hook(trainer, hist)).
        self.events = events if events is not None else EventLog()
        self.budget = budget
        self.checkpoint_hook = None
        #: optional :class:`~repro.parallel.TerminalEvaluationPool`: the
        #: n_envs episodes of a rollout wave finalize concurrently through
        #: it (terminal evaluation is pure, so pooled results are
        #: bitwise-identical to sequential ``env.finalize()`` calls).
        self.terminal_pool = terminal_pool
        self.max_divergence_rollbacks = max_divergence_rollbacks
        self.max_episode_failures = max_episode_failures
        self.divergence_rollbacks = 0
        self.episode_failures = 0
        self._consecutive_divergences = 0

    # -- rollout --------------------------------------------------------------
    @staticmethod
    def _pick_action(
        probs: np.ndarray,
        mask: np.ndarray,
        rng: np.random.Generator,
        sample: bool,
    ) -> int:
        """Mask, renormalize, and sample/argmax one action.

        Shared by the sequential and batched rollout paths so their
        arithmetic (and therefore their RNG consumption) is identical.
        """
        probs = probs * mask
        total = probs.sum()
        if total <= 0:
            probs = mask / mask.sum()
        else:
            probs = probs / total
        if sample:
            return int(rng.choice(len(probs), p=probs))
        return int(np.argmax(probs))

    def play_episode(self, sample: bool = True) -> tuple[list[_Transition], float]:
        """One full episode; returns its transitions and terminal wirelength."""
        env = self.env
        net = self.network
        transitions: list[_Transition] = []
        state = env.reset()
        done = False
        while not done:
            probs, _v = net.evaluate(
                state.s_p, state.s_a, state.t, state.total_steps
            )
            action = self._pick_action(probs, state.action_mask, self.rng, sample)
            transitions.append(
                _Transition(
                    planes=net.pack_planes(
                        state.s_p, state.s_a, state.t, state.total_steps
                    )[0],
                    mask=state.action_mask.copy(),
                    action=action,
                    span=env.builder.footprint(state.t).shape,
                )
            )
            state, done = env.step(action)
        wirelength = env.finalize()
        return transitions, wirelength

    def _rollout_envs(self, n: int) -> list["MacroGroupPlacementEnv"]:
        """The first env plus lazily-built shadows sharing the coarse design.

        Shadows share the coarse netlist and legalizer — safe because
        terminal evaluations (the only mutating calls) run sequentially at
        wave end — but each owns its :class:`StateBuilder`, so the N
        occupancy grids evolve independently.
        """
        from repro.env.placement_env import MacroGroupPlacementEnv

        while len(self._shadow_envs) < n - 1:
            self._shadow_envs.append(
                MacroGroupPlacementEnv(
                    self.env.coarse,
                    legalizer=self.env.legalizer,
                    cell_place_iters=self.env.cell_place_iters,
                )
            )
        return [self.env] + self._shadow_envs[: n - 1]

    def play_episodes(
        self, n: int, sample: bool = True
    ) -> list[tuple[list[_Transition], float]]:
        """Roll out *n* synchronized episodes with one batched forward per step.

        All episodes place the same macro-group sequence, so the N
        environments stay in lock-step: each step packs the N states into
        one tensor, runs a single :meth:`PolicyValueNet.evaluate_batch`
        forward, and samples each env's action from its own RNG stream.
        At ``n == 1`` the single stream *is* ``self.rng`` and no extra
        entropy is drawn, which keeps the wave path bit-identical to
        :meth:`play_episode`; at ``n > 1`` per-env child streams are seeded
        from ``self.rng`` (one deterministic draw, captured by
        checkpoint/resume).  Terminal legalize-and-measure still runs
        per-episode, in env order, preserving per-episode semantics.
        """
        net = self.network
        envs = self._rollout_envs(n)
        if n == 1:
            rngs = [self.rng]
        else:
            seeds = self.rng.integers(0, 2**63, size=n)
            rngs = [np.random.default_rng(int(s)) for s in seeds]
        states = [env.reset() for env in envs]
        transitions: list[list[_Transition]] = [[] for _ in range(n)]
        for _step in range(envs[0].n_steps):
            probs_batch, _values = self.network.evaluate_batch(states)
            next_states = []
            for i, env in enumerate(envs):
                state = states[i]
                action = self._pick_action(
                    probs_batch[i], state.action_mask, rngs[i], sample
                )
                transitions[i].append(
                    _Transition(
                        planes=net.pack_planes(
                            state.s_p, state.s_a, state.t, state.total_steps
                        )[0],
                        mask=state.action_mask.copy(),
                        action=action,
                        span=env.builder.footprint(state.t).shape,
                    )
                )
                next_state, _done = env.step(action)
                next_states.append(next_state)
            states = next_states
        pool = self.terminal_pool
        if n > 1 and pool is not None and pool.parallel:
            # Concurrent episode finalization: purity guarantees the pooled
            # wirelengths match sequential finalize() calls bitwise.
            wirelengths = pool.evaluate_many([env.assignment for env in envs])
            return [(transitions[i], wirelengths[i]) for i in range(n)]
        return [(transitions[i], envs[i].finalize()) for i in range(n)]

    # -- update ------------------------------------------------------------------
    def _update(self) -> tuple[float, float]:
        """Gradient step(s) over the buffered transitions; returns (loss, norm).

        ``epochs_per_update > 1`` re-walks the same batch several times — a
        pragmatic sample-efficiency boost for short CPU training budgets
        (the paper's 30-episode single update assumes hours of training).
        """
        batch = self._buffer
        self._buffer = []
        if not batch:
            return 0.0, 0.0
        if self.augment_symmetry:
            from repro.agent.symmetry import OPS, augment_transition

            mirrored = []
            for t in batch:
                op = str(self.rng.choice(OPS[1:]))  # one non-identity op
                planes, mask, action = augment_transition(
                    t.planes, t.mask, t.action, t.span, op
                )
                mirrored.append(
                    _Transition(
                        planes=planes, mask=mask, action=action,
                        span=t.span, reward=t.reward,
                    )
                )
            batch = batch + mirrored
        net = self.network
        net.train(True)
        x = np.stack([t.planes for t in batch])
        masks = np.stack([t.mask for t in batch])
        rewards = np.array([t.reward for t in batch])
        actions = np.array([t.action for t in batch])
        b = len(batch)

        loss = norm = 0.0
        for _epoch in range(self.epochs_per_update):
            loss, norm = self._one_step(net, x, masks, rewards, actions, b)
        return loss, norm

    def _one_step(self, net, x, masks, rewards, actions, b) -> tuple[float, float]:
        logits, values = net.forward(x)
        probs = masked_softmax(logits, masks, axis=1)
        advantages = rewards - values  # A_t = R_t − v_θ,t  (Eq. 6)

        onehot = np.zeros_like(probs)
        onehot[np.arange(b), actions] = 1.0
        # Policy gradient: advantage treated as constant (standard A2C).
        dlogits = (probs - onehot) * advantages[:, None] / b
        if self.entropy_coef > 0.0:
            # Entropy bonus: ∂(−H)/∂logits = p ⊙ (log p − Σ p log p)
            safe = np.where(probs > 0, probs, 1.0)
            logp = np.log(safe)
            ent_grad = probs * (logp - (probs * logp).sum(axis=1, keepdims=True))
            dlogits += self.entropy_coef * ent_grad / b
        dvalues = -2.0 * advantages / b  # from L_value = E[A²]  (Eq. 7)

        p_sel = probs[np.arange(b), actions]
        policy_loss = float(
            (-np.log(np.clip(p_sel, 1e-12, None)) * advantages).mean()
        )
        value_loss = float((advantages**2).mean())
        loss = policy_loss + value_loss  # Eq. 8
        if faults.should_fire("trainer.nan_loss"):
            loss = float("nan")
            net.parameters()[0].data += float("nan")

        net.zero_grad()
        # Advantage/loss arithmetic stays float64; the backward pass runs in
        # the network dtype so float32 networks backprop without upcasting.
        net.backward(
            dlogits.astype(net.dtype, copy=False),
            dvalues.astype(net.dtype, copy=False),
        )
        norm = clip_gradients(net.parameters(), self.grad_clip)
        self.optimizer.step()
        return loss, norm

    # -- guarded update (NaN/divergence watchdog) ------------------------------------
    def _guarded_update(self, hist: "TrainingHistory") -> None:
        """Run one parameter update; roll back when it diverges.

        A non-finite loss, gradient norm, or parameter after the update
        discards the batch, restores parameters / BN statistics / optimizer
        moments to their pre-update values, and records a
        ``divergence_rollback`` event instead of appending to the loss
        history.  More than ``max_divergence_rollbacks`` *consecutive*
        failures escalate to :class:`TrainingDivergedError`.
        """
        from repro.nn.serialization import optimizer_state, restore_optimizer

        episode = len(hist.rewards)
        guard = self.snapshot(episode)
        guard_opt = optimizer_state(self.optimizer)
        loss, norm = self._update()
        healthy = (
            np.isfinite(loss)
            and np.isfinite(norm)
            and all(np.isfinite(p.data).all() for p in self.network.parameters())
        )
        if healthy:
            self._consecutive_divergences = 0
            hist.losses.append(loss)
            hist.grad_norms.append(norm)
            return
        self.restore(self.network, guard)
        restore_optimizer(self.optimizer, guard_opt)
        self.divergence_rollbacks += 1
        self._consecutive_divergences += 1
        self.events.emit(
            "divergence_rollback",
            stage="rl_training",
            episode=episode,
            loss=None if not np.isfinite(loss) else float(loss),
        )
        if self._consecutive_divergences > self.max_divergence_rollbacks:
            raise TrainingDivergedError(
                f"{self._consecutive_divergences} consecutive diverged "
                "updates; parameters rolled back to last healthy state",
                stage="rl_training",
                episode=episode,
            )

    # -- checkpoints ----------------------------------------------------------------
    def snapshot(self, episode: int) -> Snapshot:
        from repro.nn.serialization import _batchnorms

        return Snapshot(
            episode=episode,
            params=[p.data.copy() for p in self.network.parameters()],
            bn_stats=[
                (bn.running_mean.copy(), bn.running_var.copy())
                for bn in _batchnorms(self.network)
            ],
        )

    @staticmethod
    def restore(network: PolicyValueNet, snap: Snapshot) -> None:
        from repro.nn.serialization import _batchnorms

        for p, data in zip(network.parameters(), snap.params):
            p.data[...] = data
        for bn, (mean, var) in zip(_batchnorms(network), snap.bn_stats):
            bn.running_mean[...] = mean
            bn.running_var[...] = var

    def network_at(self, snap: Snapshot) -> PolicyValueNet:
        """A fresh network carrying *snap*'s weights."""
        net = PolicyValueNet(copy.deepcopy(self.network.config))
        self.restore(net, snap)
        return net

    # -- full-state checkpoint/resume ------------------------------------------------
    def export_state(self, history: "TrainingHistory") -> dict:
        """Everything needed to resume training bit-for-bit at this point:
        parameters, BN statistics, optimizer moments, RNG state, the
        not-yet-consumed transition buffer, and the telemetry so far
        (``history.snapshots`` excepted — Fig. 5 replay data, not resume
        state)."""
        from repro.nn.serialization import _batchnorms, optimizer_state

        return {
            "version": 1,
            "params": [p.data.copy() for p in self.network.parameters()],
            "bn": [
                (bn.running_mean.copy(), bn.running_var.copy())
                for bn in _batchnorms(self.network)
            ],
            "opt": optimizer_state(self.optimizer),
            "rng": self.rng.bit_generator.state,
            "buffer": [
                {
                    "planes": t.planes,
                    "mask": t.mask,
                    "action": t.action,
                    "span": t.span,
                    "reward": t.reward,
                }
                for t in self._buffer
            ],
            "history": {
                "rewards": list(history.rewards),
                "wirelengths": list(history.wirelengths),
                "losses": list(history.losses),
                "grad_norms": list(history.grad_norms),
            },
            "counters": {
                "divergence_rollbacks": self.divergence_rollbacks,
                "episode_failures": self.episode_failures,
            },
        }

    def restore_state(self, state: dict) -> "TrainingHistory":
        """Inverse of :meth:`export_state`; returns the restored history."""
        from repro.nn.serialization import _batchnorms, restore_optimizer

        for p, data in zip(self.network.parameters(), state["params"]):
            p.data[...] = data
        for bn, (mean, var) in zip(_batchnorms(self.network), state["bn"]):
            bn.running_mean[...] = mean
            bn.running_var[...] = var
        restore_optimizer(self.optimizer, state["opt"])
        self.rng.bit_generator.state = state["rng"]
        self._buffer = [
            _Transition(
                planes=t["planes"],
                mask=t["mask"],
                action=t["action"],
                span=tuple(t["span"]),
                reward=t["reward"],
            )
            for t in state["buffer"]
        ]
        counters = state.get("counters", {})
        self.divergence_rollbacks = counters.get("divergence_rollbacks", 0)
        self.episode_failures = counters.get("episode_failures", 0)
        h = state["history"]
        return TrainingHistory(
            rewards=list(h["rewards"]),
            wirelengths=list(h["wirelengths"]),
            losses=list(h["losses"]),
            grad_norms=list(h["grad_norms"]),
        )

    def _take_checkpoint(self, hist: TrainingHistory, episode_index: int) -> None:
        hist.snapshots.append(self.snapshot(episode_index))
        if self.checkpoint_hook is not None:
            self.checkpoint_hook(self, hist)

    # -- main loop ----------------------------------------------------------------
    def train(
        self,
        n_episodes: int,
        checkpoint_every: int | None = None,
        history: TrainingHistory | None = None,
    ) -> TrainingHistory:
        """Train until the history holds *n_episodes* episodes, updating
        every ``update_every``.

        With *checkpoint_every*, parameter snapshots are stored in the
        history — the Fig. 5 experiment replays MCTS from each of them —
        and the final episode is always snapshotted even when it does not
        land on a cadence boundary, so resume never loses the tail of
        training.  Passing a partially-filled *history* (stage resume)
        runs only the remaining episodes.  A wall-clock ``budget`` ends
        training early with the best-so-far (anytime) history; episode
        exceptions are skipped and non-finite updates rolled back, each
        within its configured tolerance.
        """
        hist = history if history is not None else TrainingHistory()
        while len(hist.rewards) < n_episodes:
            faults.check_kill("trainer.kill", stage="rl_training")
            if self.budget is not None and self.budget.exhausted():
                self.events.emit(
                    "budget_exhausted",
                    stage="rl_training",
                    episode=len(hist.rewards),
                    elapsed=round(self.budget.elapsed(), 3),
                )
                break
            n_wave = min(self.n_envs, n_episodes - len(hist.rewards))
            try:
                if faults.should_fire("trainer.episode"):
                    raise RuntimeError("injected episode fault")
                wave_started = time.perf_counter()
                episodes = self.play_episodes(n_wave, sample=True)
            except PlacementError:
                raise
            except Exception as exc:
                # A failure anywhere in the wave discards the whole wave
                # (at N=1 this is exactly the old single-episode skip).
                self.episode_failures += 1
                self.events.emit(
                    "episode_failed",
                    stage="rl_training",
                    episode=len(hist.rewards) + 1,
                    wave=n_wave,
                    error=str(exc),
                )
                if self.episode_failures > self.max_episode_failures:
                    raise TrainingDivergedError(
                        f"{self.episode_failures} failed episodes exceed "
                        "tolerance",
                        stage="rl_training",
                        last_error=str(exc),
                    ) from exc
                continue
            if n_wave > 1:
                self.events.emit(
                    "rollout_wave",
                    stage="rl_training",
                    episodes=n_wave,
                    seconds=round(time.perf_counter() - wave_started, 6),
                )
            # Episodes of one wave are consumed in env order: buffer append,
            # history append, and the update/checkpoint cadences all observe
            # the same per-episode boundaries the sequential trainer does.
            for transitions, wirelength in episodes:
                reward = float(self.reward_fn(wirelength))
                for t in transitions:
                    t.reward = reward  # r_t = r_n for every step (Sec. III-E)
                self._buffer.extend(transitions)
                hist.rewards.append(reward)
                hist.wirelengths.append(wirelength)

                episode_index = len(hist.rewards)
                if episode_index % self.update_every == 0:
                    self._guarded_update(hist)
                if checkpoint_every and episode_index % checkpoint_every == 0:
                    self._take_checkpoint(hist, episode_index)
        final_episode = len(hist.rewards)
        if (
            checkpoint_every
            and final_episode
            and (not hist.snapshots or hist.snapshots[-1].episode != final_episode)
        ):
            self._take_checkpoint(hist, final_episode)
        return hist
