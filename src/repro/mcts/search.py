"""Agent-guided MCTS over macro-group allocation (Sec. IV-B, Alg. 1 l.11–16).

The search runs once, after RL pre-training.  For each macro group in order
it performs γ *explorations* from the current committed node, then commits
the most-visited edge.  Each exploration:

1. **Selection** — descend by argmax(Q + U) (Eq. 10/11) until an
   unexplored node s_s is reached.
2. **Expansion** — mark s_s explored; create its edges with N=W=Q=0 and
   P = π_θ(s_s).
3. **Evaluation** — *non-terminal* s_s is scored by the value network
   v_θ(s_s) directly (no rollout); *terminal* s_s triggers the real
   legalize-and-place pipeline, whose measured wirelength is converted to a
   value by the same reward function used in training.  Terminal values are
   cached per assignment.
4. **Backpropagation** — N/W/Q updated along the whole path to the root
   (Eq. 12).

Throughput extensions (``MCTSConfig.leaf_batch`` / ``virtual_loss``):
explorations run in *waves* of up to K selection descents.  Each descent
pre-charges a virtual loss along its path (N+vl, W−vl) so the following
descents in the wave spread to different leaves; the wave's distinct
non-terminal leaves are then evaluated in **one**
:meth:`PolicyValueNet.evaluate_batch` forward, the virtual losses are
reverted, and every descent backpropagates its real value.  A
transposition-keyed evaluation cache — keyed on the canonical state
content ``(t, s_p)``, so different action orders reaching the same
placement condition genuinely share one entry — lets repeated states skip
the network entirely.  K=1 disables virtual loss and reproduces the
sequential search's committed paths exactly.

Terminal evaluations (the real legalize-and-place) are pure functions of
the assignment, so they are memoized in a shared
:class:`~repro.parallel.TerminalCache` (optionally persisted across runs)
and can be dispatched to a :class:`~repro.parallel.TerminalEvaluationPool`:
a wave submits its terminal leaves as soon as selection discovers them,
overlaps the in-flight legalizations with the batched network forward, and
resolves the results — in deterministic submission order — before
backpropagation.  Pooled and in-process evaluations agree bitwise, so the
search result is identical for every worker count.

Two-tier terminal evaluation (``MCTSConfig.exact_topk``): with a finite K,
every terminal leaf is first scored by an incremental
:class:`~repro.surrogate.GroupCentroidSurrogate` (tier 1, microseconds);
only candidates ranking in the search's running top-K by surrogate score
are admitted to the exact legalize-and-place pipeline (tier 2).  Pruned
leaves backpropagate a value calibrated from the (surrogate, exact) pairs
the search has already paid for — but the surrogate never *reports*:
``best_terminal_assignment`` and the final committed wirelength always
come from exact evaluations.  K=None (the default) disables tier 1
entirely and reproduces the single-tier search bit-for-bit.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field

import numpy as np

from repro.agent.network import PolicyValueNet
from repro.agent.reward import RewardFunction
from repro.agent.state import StateBuilder
from repro.env.placement_env import MacroGroupPlacementEnv
from repro.mcts.node import Node
from repro.parallel import TerminalCache, environment_fingerprint
from repro.runtime import faults
from repro.surrogate import GroupCentroidSurrogate, SurrogateCalibration
from repro.utils.events import EventLog
from repro.utils.rng import ensure_rng


def _state_key(state) -> tuple[int, bytes]:
    """Transposition key: the canonical state content.

    ``s_a``, the masks, and therefore the network outputs are all derived
    from ``(t, s_p)``, so two prefixes reaching the same placement
    condition share one cache entry — which is what makes the cache hit on
    genuine transpositions (e.g. equal-footprint groups swapping anchors)
    instead of keying on the unique path that reached the node.
    """
    return (state.t, state.s_p.tobytes())


@dataclass(frozen=True)
class MCTSConfig:
    """Search knobs.  ``c_puct`` defaults to the paper's 1.05."""

    c_puct: float = 1.05
    explorations: int = 40  # γ
    #: leaf-batch wave size K: selection descents collected per batched
    #: network evaluation.  1 keeps the sequential search (virtual loss is
    #: skipped entirely, so the committed path is reproduced exactly).
    leaf_batch: int = 1
    #: virtual-loss magnitude pre-charged along in-flight descent paths
    #: (only applied when ``leaf_batch`` > 1).
    virtual_loss: float = 1.0
    #: Dirichlet root noise (0 disables; the paper does not use noise, but
    #: the ablation benches expose it).
    root_noise_frac: float = 0.0
    root_noise_alpha: float = 0.3
    seed: int = 0
    #: two-tier terminal evaluation: admit only candidates ranking in the
    #: search's running top-K by surrogate HPWL to the exact
    #: legalize-and-place pipeline.  ``None`` (default) evaluates every
    #: terminal exactly — bit-for-bit today's behavior; ``0`` prunes every
    #: search-time exact call (the committed result is still evaluated
    #: exactly at the end).
    exact_topk: int | None = None


@dataclass
class SearchResult:
    """Outcome of one full MCTS placement."""

    assignment: list[int]
    wirelength: float
    reward: float
    #: committed (depth, action) pairs in order — the traced-back path
    path: list[tuple[int, int]] = field(default_factory=list)
    n_terminal_evaluations: int = 0
    n_network_evaluations: int = 0
    #: best *terminal* assignment visited anywhere during the search — an
    #: anytime byproduct; the committed path is the paper-faithful result.
    best_terminal_assignment: list[int] | None = None
    best_terminal_wirelength: float = float("inf")
    #: transposition-cache hits (network evaluations avoided)
    n_eval_cache_hits: int = 0
    #: terminal-cache hits (legalize-and-place calls avoided; includes
    #: entries carried over from a persisted cross-run cache)
    n_terminal_cache_hits: int = 0
    #: batched evaluation waves issued and leaves evaluated across them
    n_waves: int = 0
    n_wave_leaves: int = 0
    #: wall-clock seconds by stage (selection+backprop / network forward /
    #: terminal legalize-and-place)
    seconds_selection: float = 0.0
    seconds_evaluation: float = 0.0
    seconds_terminal: float = 0.0
    #: exact legalize-and-place pipeline invocations (tier 2).  Equal to
    #: ``n_terminal_evaluations`` today; kept separate so the two-tier
    #: scheme's pruning is measurable at a glance.
    n_exact_evaluations: int = 0
    #: tier-1 surrogate HPWL scores computed (0 when ``exact_topk`` is None)
    n_surrogate_evaluations: int = 0
    #: wall-clock seconds spent in tier-1 surrogate scoring
    seconds_surrogate: float = 0.0
    #: Spearman rank correlation between surrogate and exact HPWL over the
    #: (surrogate, exact) pairs observed during the search; ``None`` when
    #: the surrogate was off or saw < 2 exact results.
    surrogate_spearman: float | None = None


class MCTSPlacer:
    """Runs the placement-optimization stage against an environment."""

    def __init__(
        self,
        env: MacroGroupPlacementEnv,
        network: PolicyValueNet,
        reward_fn: RewardFunction,
        config: MCTSConfig = MCTSConfig(),
        events: EventLog | None = None,
        budget=None,
        on_commit=None,
        terminal_pool=None,
        terminal_cache: TerminalCache | None = None,
        surrogate: GroupCentroidSurrogate | None = None,
    ) -> None:
        self.env = env
        self.network = network
        self.reward_fn = reward_fn
        self.config = config
        self.rng = ensure_rng(config.seed)
        #: pure-terminal-evaluation memo (assignment tuple → HPWL); a shared,
        #: optionally run-dir-persisted cache may be passed in by the flow so
        #: results survive checkpoint/resume and later runs.
        self._terminal_cache = (
            terminal_cache
            if terminal_cache is not None
            else TerminalCache(environment_fingerprint(env))
        )
        #: optional :class:`~repro.parallel.TerminalEvaluationPool`; when it
        #: has live workers, waves dispatch terminal leaves asynchronously.
        self.terminal_pool = terminal_pool
        #: transposition-keyed evaluation cache: canonical state content
        #: ``(t, s_p bytes)`` maps to the network's (masked probs, value).
        self._eval_cache: dict[tuple[int, bytes], tuple[np.ndarray, float]] = {}
        #: tier-1 surrogate scorer.  Built automatically when the config
        #: asks for top-K pruning; passing one explicitly with
        #: ``exact_topk=None`` enables *measure-only* mode (every terminal
        #: still evaluated exactly, but fidelity pairs are collected so
        #: ``surrogate_spearman`` is reported without any pruning).
        self.surrogate = surrogate
        if self.surrogate is None and config.exact_topk is not None:
            self.surrogate = GroupCentroidSurrogate(env.coarse)
        self._calibration = SurrogateCalibration()
        #: max-heap (negated) of the K best surrogate scores seen so far —
        #: the streaming admission filter for tier 2.
        self._topk_heap: list[float] = []
        #: assignment key → in-flight pooled future; dedupes submissions so
        #: a key never runs on two workers at once (avoided resubmissions
        #: count as terminal-cache hits).
        self._inflight: dict[tuple[int, ...], object] = {}
        self.n_terminal_evaluations = 0
        self.n_network_evaluations = 0
        self.n_eval_cache_hits = 0
        self.n_terminal_cache_hits = 0
        self.n_waves = 0
        self.n_wave_leaves = 0
        self.n_exact_evaluations = 0
        self.n_surrogate_evaluations = 0
        self.seconds_selection = 0.0
        self.seconds_evaluation = 0.0
        self.seconds_terminal = 0.0
        self.seconds_surrogate = 0.0
        self.best_terminal_assignment: list[int] | None = None
        self.best_terminal_wirelength = float("inf")
        #: runtime plumbing (optional): event log, wall-clock budget polled
        #: between explorations, and a per-commit checkpoint hook called as
        #: ``on_commit(state_dict)`` with :meth:`export-compatible <run>` state.
        self.events = events if events is not None else EventLog()
        self.budget = budget
        self.on_commit = on_commit

    # -- node expansion helpers ---------------------------------------------------
    def _attach(self, node: Node, state, probs: np.ndarray) -> None:
        """Create *node*'s edges (N=W=Q=0, P=π_θ restricted to the mask)."""
        mask = state.action_mask
        actions = np.flatnonzero(mask > 0)
        prior = probs[actions]
        total = prior.sum()
        prior = prior / total if total > 0 else np.full(len(actions), 1.0 / len(actions))
        node.actions = actions.astype(np.int64)
        node.prior = prior
        node.visit = np.zeros(len(actions))
        node.total_value = np.zeros(len(actions))
        node.expanded = True

    def _expand(
        self, node: Node, builder: StateBuilder, prefix: list[int]
    ) -> float:
        """Expand *node* (state = builder's current) and return its value.

        The transposition evaluation cache is consulted before the network,
        keyed on the canonical state content (:func:`_state_key`) so equal
        states reached by different action orders share one entry.
        *prefix* is the action sequence leading to *node* — no longer the
        cache key, but kept in the signature because rollout-based variants
        (the Sec. IV-B3 ablation) need it to complete assignments.
        """
        state = builder.observe()
        key = _state_key(state)
        hit = self._eval_cache.get(key)
        if hit is not None:
            probs, value = hit
            self.n_eval_cache_hits += 1
        else:
            started = time.perf_counter()
            probs, value = self.network.evaluate(
                state.s_p, state.s_a, state.t, state.total_steps
            )
            self.seconds_evaluation += time.perf_counter() - started
            self.n_network_evaluations += 1
            self._eval_cache[key] = (probs, value)
        self._attach(node, state, probs)
        return value

    def _note_terminal(self, key: tuple[int, ...], wirelength: float) -> None:
        """Track the best terminal assignment seen anywhere in the search."""
        if wirelength < self.best_terminal_wirelength:
            self.best_terminal_wirelength = wirelength
            self.best_terminal_assignment = list(key)

    # -- two-tier terminal evaluation ------------------------------------------
    def _surrogate_score(self, key: tuple[int, ...]) -> float:
        """Tier-1 incremental surrogate HPWL of a complete assignment."""
        started = time.perf_counter()
        score = self.surrogate.score(key)
        self.seconds_surrogate += time.perf_counter() - started
        self.n_surrogate_evaluations += 1
        return score

    def _admit_exact(self, score: float) -> bool:
        """Streaming top-K admission: does *score* earn a tier-2 call?

        The first K distinct candidates are always admitted; afterwards a
        candidate must beat the current K-th best surrogate score
        (strictly — ties are pruned).  Total admissions can exceed K as
        better candidates keep arriving, but every admission was in the
        running top-K at the moment it was seen, which is the deterministic
        streaming analogue of "exact evaluation for the top-K finalists".
        """
        k = self.config.exact_topk
        if k is None:
            return True
        if k <= 0:
            return False
        heap = self._topk_heap
        if len(heap) < k:
            heapq.heappush(heap, -score)
            return True
        if -score > heap[0]:
            heapq.heapreplace(heap, -score)
            return True
        return False

    def _pruned_value(self, score: float) -> float:
        """Backprop value for a tier-1-pruned leaf: calibrated to the exact
        wirelength scale from the pairs the search has already paid for."""
        return float(self.reward_fn(self._calibration.predict(score)))

    def _evaluate_exact(
        self, key: tuple[int, ...], score: float | None = None
    ) -> float:
        """Tier 2: the real legalize-and-place, counted, cached, noted."""
        started = time.perf_counter()
        if self.terminal_pool is not None:
            wirelength = self.terminal_pool.evaluate(key)
        else:
            wirelength = self.env.evaluate_assignment(list(key))
        self.seconds_terminal += time.perf_counter() - started
        self.n_terminal_evaluations += 1
        self.n_exact_evaluations += 1
        self._terminal_cache.put(key, wirelength)
        if score is not None:
            self._calibration.observe(score, wirelength)
        self._note_terminal(key, wirelength)
        return float(self.reward_fn(wirelength))

    def _terminal_value(self, assignment: list[int]) -> float:
        """Reward of a complete assignment (cached, deduped, poolable).

        Order of business: memoized result → in-flight pooled future
        (reuse instead of resubmitting; the avoided call counts as a cache
        hit) → tier-1 surrogate gate (finite ``exact_topk`` only) → tier-2
        exact evaluation.
        """
        key = tuple(int(a) for a in assignment)
        wirelength = self._terminal_cache.get(key)
        if wirelength is not None:
            self.n_terminal_cache_hits += 1
            self._note_terminal(key, wirelength)
            return float(self.reward_fn(wirelength))
        inflight = self._inflight.get(key)
        if inflight is not None:
            started = time.perf_counter()
            wirelength = inflight.result()
            self.seconds_terminal += time.perf_counter() - started
            self.n_terminal_cache_hits += 1
            self._note_terminal(key, wirelength)
            return float(self.reward_fn(wirelength))
        score = None
        if self.surrogate is not None:
            score = self._surrogate_score(key)
            if not self._admit_exact(score):
                return self._pruned_value(score)
        return self._evaluate_exact(key, score)

    def _apply_root_noise(self, node: Node) -> None:
        frac = self.config.root_noise_frac
        if frac <= 0 or len(node.prior) == 0:
            return
        noise = self.rng.dirichlet(
            np.full(len(node.prior), self.config.root_noise_alpha)
        )
        node.prior = (1 - frac) * node.prior + frac * noise

    # -- explorations --------------------------------------------------------------
    def _explore(
        self,
        root: Node,
        committed: list[int],
        path_to_target: list[tuple[Node, int]],
        target: Node,
        prefix_builder: StateBuilder | None = None,
    ) -> None:
        """One selection→expansion→evaluation→backpropagation pass.

        *path_to_target* holds (node, action_index) pairs for the committed
        prefix so backpropagation can run all the way to the root, as the
        paper's Fig. 3 shows.  Leaf evaluation goes through :meth:`_expand`
        so subclasses overriding it (the Sec. IV-B3 rollout ablation) keep
        working; no virtual loss is involved.
        """
        started = time.perf_counter()
        if prefix_builder is not None:
            builder = prefix_builder.clone()
        else:
            builder = StateBuilder(self.env.coarse)
            for a in committed:
                builder.apply(a)

        path: list[tuple[Node, int]] = list(path_to_target)
        node = target
        actions_taken = list(committed)

        # Selection: descend through expanded nodes.
        while node.expanded and not node.terminal:
            idx = node.select_child_index(self.config.c_puct)
            path.append((node, idx))
            actions_taken.append(int(node.actions[idx]))
            builder.apply(int(node.actions[idx]))
            node = node.child_for(idx)
        self.seconds_selection += time.perf_counter() - started

        # Evaluation (+ expansion for non-terminals).
        if builder.done():
            node.terminal = True
            if node.terminal_value is None:
                node.terminal_value = self._terminal_value(actions_taken)
            value = node.terminal_value
        else:
            value = self._expand(node, builder, actions_taken)

        # Backpropagation to the root (Eq. 12).
        started = time.perf_counter()
        for parent, idx in path:
            parent.record(idx, value)
        self.seconds_selection += time.perf_counter() - started

    def _explore_wave(
        self,
        root: Node,
        committed: list[int],
        path_to_target: list[tuple[Node, int]],
        target: Node,
        k: int,
        prefix_builder: StateBuilder | None = None,
    ) -> None:
        """Up to *k* virtual-loss selection descents sharing one batched
        network evaluation.

        Each descent pre-charges ``config.virtual_loss`` along its path so
        later descents in the wave diversify; the wave's distinct
        non-terminal leaves (cache misses only) go through **one**
        :meth:`PolicyValueNet.evaluate_batch` call, then every virtual loss
        is reverted and every descent backpropagates its real value to the
        root (Eq. 12).  At k=1 virtual loss is skipped — float add/subtract
        round-trips are not bitwise identities — so the sequential search
        is reproduced exactly.

        With a live :attr:`terminal_pool`, terminal leaves are *submitted*
        to the workers the moment selection discovers them, overlap with
        the remaining descents and the network forward, and are resolved in
        deterministic submission order before backpropagation — terminal
        values never influence other descents of the same wave (backprop is
        deferred to wave end), so the deferral changes nothing but
        wall-clock.
        """
        k = max(1, int(k))
        if k == 1:
            self._explore(root, committed, path_to_target, target, prefix_builder)
            return
        vl = self.config.virtual_loss
        if prefix_builder is None:
            prefix_builder = StateBuilder(self.env.coarse)
            for a in committed:
                prefix_builder.apply(a)
        pool = self.terminal_pool
        if pool is not None and not pool.parallel:
            pool = None

        started = time.perf_counter()
        # descent := [path, vl_edges, node, state | None]; terminal descents
        # carry state=None and read node.terminal_value at backprop time.
        descents: list[list] = []
        #: in-flight pooled terminal evaluations, in submission order:
        #: assignment tuple → (future, node, surrogate score | None, owned).
        #: owned=False entries ride a future submitted earlier (the
        #: in-flight dedupe) — the owner counts and caches the result.
        pending: dict[tuple[int, ...], tuple[object, Node, float | None, bool]] = {}
        for _ in range(k):
            builder = prefix_builder.clone()
            path: list[tuple[Node, int]] = list(path_to_target)
            vl_edges: list[tuple[Node, int]] = []
            node = target
            actions_taken = list(committed)

            # Selection: descend through expanded nodes.
            while node.expanded and not node.terminal:
                idx = node.select_child_index(self.config.c_puct)
                path.append((node, idx))
                if vl:
                    node.apply_virtual_loss(idx, vl)
                    vl_edges.append((node, idx))
                action = int(node.actions[idx])
                actions_taken.append(action)
                builder.apply(action)
                node = node.child_for(idx)

            if builder.done():
                node.terminal = True
                key = tuple(int(a) for a in actions_taken)
                if node.terminal_value is None and key not in pending:
                    if pool is not None:
                        wirelength = self._terminal_cache.get(key)
                        inflight = (
                            self._inflight.get(key) if wirelength is None else None
                        )
                        if wirelength is not None:
                            self.n_terminal_cache_hits += 1
                            self._note_terminal(key, wirelength)
                            node.terminal_value = float(self.reward_fn(wirelength))
                        elif inflight is not None:
                            # a worker is already computing this key — ride
                            # the in-flight future instead of resubmitting
                            # (owned=False: the owner counts/caches it)
                            self.n_terminal_cache_hits += 1
                            pending[key] = (inflight, node, None, False)
                        else:
                            score = None
                            admit = True
                            if self.surrogate is not None:
                                self.seconds_selection += (
                                    time.perf_counter() - started
                                )
                                score = self._surrogate_score(key)
                                admit = self._admit_exact(score)
                                started = time.perf_counter()
                            if not admit:
                                node.terminal_value = self._pruned_value(score)
                            else:
                                # dispatch now; legalization overlaps with
                                # the rest of the wave and the network
                                # forward
                                future = pool.submit(key)
                                self._inflight[key] = future
                                pending[key] = (future, node, score, True)
                    else:
                        # keep the legalize-and-place call out of the
                        # selection timer — it bills to seconds_terminal
                        # (and the surrogate gate to seconds_surrogate)
                        self.seconds_selection += time.perf_counter() - started
                        node.terminal_value = self._terminal_value(actions_taken)
                        started = time.perf_counter()
                descents.append([path, vl_edges, node, None])
            else:
                descents.append([path, vl_edges, node, builder.observe()])
        self.seconds_selection += time.perf_counter() - started

        # One batched evaluation for the wave's distinct uncached leaves.
        miss_keys: list[tuple[int, bytes]] = []
        miss_states: list = []
        seen: set[tuple[int, bytes]] = set()
        for _, _, _, state in descents:
            if state is None:
                continue
            key = _state_key(state)
            if key in self._eval_cache or key in seen:
                self.n_eval_cache_hits += 1
            else:
                seen.add(key)
                miss_keys.append(key)
                miss_states.append(state)
        if miss_states:
            started = time.perf_counter()
            probs_batch, values = self.network.evaluate_batch(miss_states)
            self.seconds_evaluation += time.perf_counter() - started
            self.n_network_evaluations += len(miss_states)
            self.n_waves += 1
            self.n_wave_leaves += len(miss_states)
            for i, key in enumerate(miss_keys):
                self._eval_cache[key] = (probs_batch[i], float(values[i]))

        # Resolve the in-flight terminal evaluations (submission order is
        # deterministic, so best-terminal tie-breaking matches the
        # sequential path).
        for key, (future, node, score, owned) in pending.items():
            started = time.perf_counter()
            wirelength = future.result()
            self.seconds_terminal += time.perf_counter() - started
            if owned:
                self.n_terminal_evaluations += 1
                self.n_exact_evaluations += 1
                self._terminal_cache.put(key, wirelength)
                if score is not None:
                    self._calibration.observe(score, wirelength)
                self._note_terminal(key, wirelength)
                self._inflight.pop(key, None)
            node.terminal_value = float(self.reward_fn(wirelength))

        # Expansion, virtual-loss revert, backpropagation (Eq. 12).
        started = time.perf_counter()
        for path, vl_edges, node, state in descents:
            if state is not None:
                probs, value = self._eval_cache[_state_key(state)]
                if not node.expanded:
                    self._attach(node, state, probs)
            else:
                value = node.terminal_value
            for parent, idx in vl_edges:
                parent.revert_virtual_loss(idx, vl)
            for parent, idx in path:
                parent.record(idx, value)
        self.seconds_selection += time.perf_counter() - started

    # -- checkpoint/resume ---------------------------------------------------------------
    def _export_state(
        self,
        step: int,
        committed: list[int],
        path: list[tuple[int, int]],
        root: Node,
    ) -> dict:
        """Resumable search state after committing *step*'s move."""
        return {
            "version": 1,
            "step": step,
            "committed": list(committed),
            "path": [tuple(p) for p in path],
            "root": root,
            #: pure-terminal results (assignment → HPWL) — replaces the old
            #: value-keyed "terminal_cache" entry
            "terminal_wirelengths": self._terminal_cache.as_dict(),
            "eval_cache": dict(self._eval_cache),
            "best_terminal_assignment": self.best_terminal_assignment,
            "best_terminal_wirelength": self.best_terminal_wirelength,
            "n_terminal_evaluations": self.n_terminal_evaluations,
            "n_network_evaluations": self.n_network_evaluations,
            "n_eval_cache_hits": self.n_eval_cache_hits,
            "n_terminal_cache_hits": self.n_terminal_cache_hits,
            "n_waves": self.n_waves,
            "n_wave_leaves": self.n_wave_leaves,
            "seconds_selection": self.seconds_selection,
            "seconds_evaluation": self.seconds_evaluation,
            "seconds_terminal": self.seconds_terminal,
            "n_exact_evaluations": self.n_exact_evaluations,
            "n_surrogate_evaluations": self.n_surrogate_evaluations,
            "seconds_surrogate": self.seconds_surrogate,
            #: ordered (surrogate, exact) pairs — the calibration's running
            #: sums are rebuilt by replaying these, so a resumed search
            #: predicts (and therefore prunes) bit-identically
            "surrogate_pairs": self._calibration.export_pairs(),
            "topk_heap": list(self._topk_heap),
            "rng": self.rng.bit_generator.state,
        }

    def _restore_state(
        self, state: dict
    ) -> tuple[Node, list[int], list[tuple[Node, int]], list[tuple[int, int]], Node, int]:
        """Inverse of :meth:`_export_state`; rebuilds the committed path by
        walking the restored tree."""
        root = state["root"]
        committed = list(state["committed"])
        path = [tuple(p) for p in state["path"]]
        # Merge — not replace — the shared terminal cache: it may already
        # carry entries loaded from a run-dir persisted file.  Snapshots
        # from before the parallel engine stored reward *values* under
        # "terminal_cache"; those are ignored — purity makes recomputation
        # bitwise-identical, so dropping them costs time, never correctness.
        self._terminal_cache.update(state.get("terminal_wirelengths", {}))
        # .get defaults keep snapshots from before the batching engine loadable
        self._eval_cache = dict(state.get("eval_cache", {}))
        self.best_terminal_assignment = state["best_terminal_assignment"]
        self.best_terminal_wirelength = state["best_terminal_wirelength"]
        self.n_terminal_evaluations = state["n_terminal_evaluations"]
        self.n_network_evaluations = state["n_network_evaluations"]
        self.n_eval_cache_hits = state.get("n_eval_cache_hits", 0)
        self.n_terminal_cache_hits = state.get("n_terminal_cache_hits", 0)
        self.n_waves = state.get("n_waves", 0)
        self.n_wave_leaves = state.get("n_wave_leaves", 0)
        self.seconds_selection = state.get("seconds_selection", 0.0)
        self.seconds_evaluation = state.get("seconds_evaluation", 0.0)
        self.seconds_terminal = state.get("seconds_terminal", 0.0)
        # pre-two-tier snapshots: every terminal evaluation was exact
        self.n_exact_evaluations = state.get(
            "n_exact_evaluations", self.n_terminal_evaluations
        )
        self.n_surrogate_evaluations = state.get("n_surrogate_evaluations", 0)
        self.seconds_surrogate = state.get("seconds_surrogate", 0.0)
        self._calibration = SurrogateCalibration.from_pairs(
            state.get("surrogate_pairs", [])
        )
        self._topk_heap = list(state.get("topk_heap", []))
        self.rng.bit_generator.state = state["rng"]
        committed_path: list[tuple[Node, int]] = []
        current = root
        for action in committed:
            idx = int(np.flatnonzero(current.actions == action)[0])
            committed_path.append((current, idx))
            current = current.children[action]
        return root, committed, committed_path, path, current, state["step"] + 1

    # -- full placement ------------------------------------------------------------------
    def run(self, resume_state: dict | None = None) -> SearchResult:
        """Place every macro group; returns the final traced-back result.

        The search tree's root survives on ``self.last_root`` for post-hoc
        analysis (:func:`principal_variation`, visit statistics).

        *resume_state* (from :meth:`_export_state`, persisted by the run
        harness at every committed move) continues an interrupted search
        bit-for-bit.  When the wall-clock ``budget`` runs out mid-search the
        remaining groups are committed anytime-style: by visit count where
        explorations already happened, by policy prior otherwise.
        """
        env = self.env
        n_steps = env.n_steps
        if resume_state is not None:
            (root, committed, committed_path, path, current, start_step) = (
                self._restore_state(resume_state)
            )
            prefix_builder = StateBuilder(env.coarse)
            for a in committed:
                prefix_builder.apply(a)
        else:
            root = Node(depth=0)
            prefix_builder = StateBuilder(env.coarse)
            if n_steps > 0:
                self._expand(root, prefix_builder, [])
                self._apply_root_noise(root)
            committed = []
            committed_path = []
            path = []
            current = root
            start_step = 0
        self.last_root = root
        exhausted = False

        for step in range(start_step, n_steps):
            faults.check_kill("mcts.kill", stage="mcts")
            if not current.expanded:
                self._expand(current, prefix_builder.clone(), list(committed))
            remaining = int(self.config.explorations)
            wave_size = max(1, int(self.config.leaf_batch))
            while remaining > 0:
                if not exhausted and self.budget is not None and self.budget.exhausted():
                    exhausted = True
                    self.events.emit(
                        "budget_exhausted",
                        stage="mcts",
                        step=step,
                        elapsed=round(self.budget.elapsed(), 3),
                    )
                if exhausted:
                    break
                k = min(wave_size, remaining)
                self._explore_wave(
                    root, committed, committed_path, current, k,
                    prefix_builder=prefix_builder,
                )
                remaining -= k
            if current.visit.sum() > 0:
                idx = current.most_visited_index()
            else:
                # anytime fallback: no exploration happened under this node
                # (budget ran dry) — fall back to the policy prior.
                idx = int(np.argmax(current.prior))
            action = int(current.actions[idx])
            path.append((step, action))
            committed_path.append((current, idx))
            committed.append(action)
            prefix_builder.apply(action)
            current = current.child_for(idx)
            if self.on_commit is not None:
                self.on_commit(self._export_state(step, committed, path, root))

        wirelength = env.evaluate_assignment(committed)
        surrogate_spearman = self._surrogate_fidelity()
        self.events.emit(
            "search_stats",
            stage="mcts",
            network_evaluations=self.n_network_evaluations,
            terminal_evaluations=self.n_terminal_evaluations,
            eval_cache_hits=self.n_eval_cache_hits,
            terminal_cache_hits=self.n_terminal_cache_hits,
            waves=self.n_waves,
            wave_leaves=self.n_wave_leaves,
            exact_evaluations=self.n_exact_evaluations,
            surrogate_evaluations=self.n_surrogate_evaluations,
            surrogate_spearman=surrogate_spearman,
            seconds_selection=round(self.seconds_selection, 6),
            seconds_evaluation=round(self.seconds_evaluation, 6),
            seconds_terminal=round(self.seconds_terminal, 6),
            seconds_surrogate=round(self.seconds_surrogate, 6),
        )
        return SearchResult(
            assignment=committed,
            wirelength=wirelength,
            reward=float(self.reward_fn(wirelength)),
            path=path,
            n_terminal_evaluations=self.n_terminal_evaluations,
            n_network_evaluations=self.n_network_evaluations,
            best_terminal_assignment=self.best_terminal_assignment,
            best_terminal_wirelength=self.best_terminal_wirelength,
            n_eval_cache_hits=self.n_eval_cache_hits,
            n_terminal_cache_hits=self.n_terminal_cache_hits,
            n_waves=self.n_waves,
            n_wave_leaves=self.n_wave_leaves,
            seconds_selection=self.seconds_selection,
            seconds_evaluation=self.seconds_evaluation,
            seconds_terminal=self.seconds_terminal,
            n_exact_evaluations=self.n_exact_evaluations,
            n_surrogate_evaluations=self.n_surrogate_evaluations,
            seconds_surrogate=self.seconds_surrogate,
            surrogate_spearman=surrogate_spearman,
        )

    def _surrogate_fidelity(self) -> float | None:
        """JSON-safe Spearman of the observed (surrogate, exact) pairs."""
        if self.surrogate is None or len(self._calibration.pairs) < 2:
            return None
        fidelity = self._calibration.fidelity()
        if fidelity != fidelity:  # NaN: degenerate rank variance
            return None
        return float(fidelity)


def principal_variation(root: Node, max_depth: int = 10_000) -> list[int]:
    """The most-visited action sequence from *root* (diagnostics helper).

    Follows :meth:`Node.most_visited_index` until an unexpanded or terminal
    node; the committed path of a finished search is exactly this sequence.
    """
    actions: list[int] = []
    node = root
    while node.expanded and not node.terminal and len(actions) < max_depth:
        if node.visit.sum() == 0:
            break
        idx = node.most_visited_index()
        actions.append(int(node.actions[idx]))
        child = node.children.get(int(node.actions[idx]))
        if child is None:
            break
        node = child
    return actions
