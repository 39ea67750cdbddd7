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

A transposition-keyed evaluation cache — keyed on the canonical state
content ``(t, s_p)``, so different action orders reaching the same
placement condition genuinely share one entry — lets repeated states skip
the network entirely.  Terminal evaluations (the real legalize-and-place)
are pure functions of the assignment, so they are memoized in a shared
:class:`~repro.parallel.TerminalCache` (optionally persisted across runs).

Two-tier terminal evaluation (``MCTSConfig.exact_topk``): with a finite K,
every terminal leaf is first scored by a
:class:`~repro.surrogate.GroupCentroidSurrogate` (tier 1, array operations
only: tens of microseconds a score on the service workload's ibm01);
only candidates ranking in the search's running top-K by surrogate score
are admitted to the exact legalize-and-place pipeline (tier 2).  Pruned
leaves backpropagate a value calibrated from the (surrogate, exact) pairs
the search has already paid for — but the surrogate never *reports*:
``best_terminal_assignment`` and the final committed wirelength always
come from exact evaluations (the committed one from the search's own
result for that leaf when it holds one, see :meth:`MCTSPlacer.run`).
K=None (the default) disables tier 1 entirely and reproduces the
single-tier search bit-for-bit.
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
    #: wall-clock seconds by stage (selection+backprop / network
    #: evaluation: the input state, the forward pass or its cache hit and
    #: the new edges / terminal legalize-and-place)
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
    #: wall-clock seconds spent in the per-commit ``on_commit`` hook
    #: (exporting and writing the search snapshot)
    seconds_checkpoint: float = 0.0
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
        #: the terminal results this search evaluated itself — what its
        #: snapshots carry, however many entries the shared cache holds
        self._evaluated: dict[tuple[int, ...], float] = {}
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
        self.n_terminal_evaluations = 0
        self.n_network_evaluations = 0
        self.n_eval_cache_hits = 0
        self.n_terminal_cache_hits = 0
        self.n_exact_evaluations = 0
        self.n_surrogate_evaluations = 0
        self.seconds_selection = 0.0
        self.seconds_evaluation = 0.0
        self.seconds_terminal = 0.0
        self.seconds_surrogate = 0.0
        self.seconds_checkpoint = 0.0
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
        started = time.perf_counter()
        state = builder.observe()
        key = _state_key(state)
        hit = self._eval_cache.get(key)
        if hit is not None:
            probs, value = hit
            self.n_eval_cache_hits += 1
        else:
            probs, value = self.network.evaluate(
                state.s_p, state.s_a, state.t, state.total_steps
            )
            self.n_network_evaluations += 1
            self._eval_cache[key] = (probs, value)
        self._attach(node, state, probs)
        self.seconds_evaluation += time.perf_counter() - started
        return value

    def _note_terminal(self, key: tuple[int, ...], wirelength: float) -> None:
        """Track the best terminal assignment seen anywhere in the search."""
        if wirelength < self.best_terminal_wirelength:
            self.best_terminal_wirelength = wirelength
            self.best_terminal_assignment = list(key)

    # -- two-tier terminal evaluation ------------------------------------------
    def _surrogate_score(self, key: tuple[int, ...]) -> float:
        """Tier-1 surrogate HPWL of a complete assignment."""
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
        """Tier 2: the real legalize-and-place (or its memoized result),
        counted, cached, noted, and paired with *score*."""
        wirelength = self._terminal_cache.get(key)
        if wirelength is not None:
            self.n_terminal_cache_hits += 1
        else:
            started = time.perf_counter()
            wirelength = self.env.evaluate_assignment(list(key))
            self.seconds_terminal += time.perf_counter() - started
            self.n_terminal_evaluations += 1
            self.n_exact_evaluations += 1
            self._terminal_cache.put(key, wirelength)
            self._evaluated[key] = wirelength
        if score is not None:
            self._calibration.observe(score, wirelength)
        self._note_terminal(key, wirelength)
        return float(self.reward_fn(wirelength))

    def _terminal_value(self, assignment: list[int]) -> float:
        """Reward of a complete assignment.

        Order of business: tier-1 surrogate gate (when a surrogate is
        attached) → tier-2 exact evaluation, which the terminal cache
        answers when it holds the assignment.  The gate runs before the
        cache is read, so a search scores, admits and calibrates the same
        leaves whatever the shared cache already holds.
        """
        key = tuple(int(a) for a in assignment)
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
        with the full action prefix, so subclasses overriding it (the
        Sec. IV-B3 rollout ablation) keep working.
        """
        started = time.perf_counter()
        c = self.config.c_puct
        descent: list[tuple[Node, int]] = []
        tail: list[int] = []
        node = target

        # Selection: descend through expanded nodes, one call per level.
        while node.expanded and not node.terminal:
            index, action, child = node.select(c)
            descent.append((node, index))
            tail.append(action)
            node = child

        # Evaluation (+ expansion for non-terminals).  A terminal node that
        # already has its value needs no state: the builder is replayed and
        # the full assignment built only for a leaf that is checked for
        # completion, valued or expanded.
        if node.terminal and node.terminal_value is not None:
            self.seconds_selection += time.perf_counter() - started
            value = node.terminal_value
        else:
            if prefix_builder is not None:
                builder = prefix_builder.clone()
            else:
                builder = StateBuilder(self.env.coarse)
                for a in committed:
                    builder.apply(a)
            for a in tail:
                builder.apply(a)
            self.seconds_selection += time.perf_counter() - started
            assignment = committed + tail
            if builder.done():
                node.terminal = True
                if node.terminal_value is None:
                    node.terminal_value = self._terminal_value(assignment)
                value = node.terminal_value
            else:
                value = self._expand(node, builder, assignment)

        # Backpropagation to the root (Eq. 12).
        started = time.perf_counter()
        for parent, index in path_to_target:
            parent.record(index, value)
        for parent, index in descent:
            parent.record(index, value)
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
            #: the pure-terminal results (assignment → HPWL) this search
            #: evaluated — not the whole shared cache it may have been
            #: handed; replaces the old value-keyed "terminal_cache" entry
            "terminal_wirelengths": dict(self._evaluated),
            "eval_cache": dict(self._eval_cache),
            "best_terminal_assignment": self.best_terminal_assignment,
            "best_terminal_wirelength": self.best_terminal_wirelength,
            "n_terminal_evaluations": self.n_terminal_evaluations,
            "n_network_evaluations": self.n_network_evaluations,
            "n_eval_cache_hits": self.n_eval_cache_hits,
            "n_terminal_cache_hits": self.n_terminal_cache_hits,
            "seconds_selection": self.seconds_selection,
            "seconds_evaluation": self.seconds_evaluation,
            "seconds_terminal": self.seconds_terminal,
            "n_exact_evaluations": self.n_exact_evaluations,
            "n_surrogate_evaluations": self.n_surrogate_evaluations,
            "seconds_surrogate": self.seconds_surrogate,
            "seconds_checkpoint": self.seconds_checkpoint,
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
        self._evaluated = dict(state.get("terminal_wirelengths", {}))
        self._terminal_cache.update(self._evaluated)
        # .get defaults keep snapshots from before the batching engine loadable
        self._eval_cache = dict(state.get("eval_cache", {}))
        self.best_terminal_assignment = state["best_terminal_assignment"]
        self.best_terminal_wirelength = state["best_terminal_wirelength"]
        self.n_terminal_evaluations = state["n_terminal_evaluations"]
        self.n_network_evaluations = state["n_network_evaluations"]
        self.n_eval_cache_hits = state.get("n_eval_cache_hits", 0)
        self.n_terminal_cache_hits = state.get("n_terminal_cache_hits", 0)
        self.seconds_selection = state.get("seconds_selection", 0.0)
        self.seconds_evaluation = state.get("seconds_evaluation", 0.0)
        self.seconds_terminal = state.get("seconds_terminal", 0.0)
        # pre-two-tier snapshots: every terminal evaluation was exact
        self.n_exact_evaluations = state.get(
            "n_exact_evaluations", self.n_terminal_evaluations
        )
        self.n_surrogate_evaluations = state.get("n_surrogate_evaluations", 0)
        self.seconds_surrogate = state.get("seconds_surrogate", 0.0)
        self.seconds_checkpoint = state.get("seconds_checkpoint", 0.0)
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

    def _drop_unreachable(self, decision: Node, action: int) -> None:
        """Forget what the search cannot reach once *action* is committed
        at *decision*: the committed child's siblings (with their
        subtrees), *decision*'s PUCT statistics and every eval-cache entry
        shallower than that child.

        Selection starts at the committed child, backups update only the
        committed path's edge arrays, and every later expansion,
        transpositions included, is at least as deep as the child.  So
        the search reads nothing dropped, the backups that keep reaching
        *decision* touch only its arrays, and a checkpoint holds only
        what a resume can still use instead of growing with every commit.
        """
        decision.children = {action: decision.children[action]}
        decision._stats = None
        depth = decision.depth + 1
        self._eval_cache = {
            key: hit for key, hit in self._eval_cache.items() if key[0] >= depth
        }

    # -- full placement ------------------------------------------------------------------
    def run(self, resume_state: dict | None = None) -> SearchResult:
        """Search every macro group's anchor; returns the traced-back result.

        The committed wirelength is the exact result the search already
        holds for the committed leaf (its own evaluation, or the terminal
        cache's entry, read without counting a hit).  Only when it holds
        none — the leaf was surrogate-pruned, the budget ran out before it
        was reached, or ``exact_topk=0`` — is the assignment evaluated
        here.  So ``run`` does not in general leave the design at the
        committed coordinates: placing the committed assignment is the
        flow's ``final`` stage (or the caller's
        :meth:`~repro.env.placement_env.MacroGroupPlacementEnv.evaluate_assignment`).

        The search tree's root survives on ``self.last_root`` for post-hoc
        analysis (:func:`principal_variation`, visit statistics).  Every
        committed move drops its siblings, so above the last decision the
        tree holds only the committed path: each node on it keeps its
        edge statistics for every action, but only the committed child.

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
            for _ in range(int(self.config.explorations)):
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
                self._explore(
                    root, committed, committed_path, current,
                    prefix_builder=prefix_builder,
                )
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
            child = current.child_for(idx)
            self._drop_unreachable(current, action)
            current = child
            if self.on_commit is not None:
                started = time.perf_counter()
                self.on_commit(self._export_state(step, committed, path, root))
                self.seconds_checkpoint += time.perf_counter() - started

        wirelength = self._terminal_cache.peek(committed)
        if wirelength is None:
            wirelength = env.evaluate_assignment(committed)
        surrogate_spearman = self._surrogate_fidelity()
        self.events.emit(
            "search_stats",
            stage="mcts",
            network_evaluations=self.n_network_evaluations,
            terminal_evaluations=self.n_terminal_evaluations,
            eval_cache_hits=self.n_eval_cache_hits,
            terminal_cache_hits=self.n_terminal_cache_hits,
            exact_evaluations=self.n_exact_evaluations,
            surrogate_evaluations=self.n_surrogate_evaluations,
            surrogate_spearman=surrogate_spearman,
            seconds_selection=round(self.seconds_selection, 6),
            seconds_evaluation=round(self.seconds_evaluation, 6),
            seconds_terminal=round(self.seconds_terminal, 6),
            seconds_surrogate=round(self.seconds_surrogate, 6),
            seconds_checkpoint=round(self.seconds_checkpoint, 6),
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
            seconds_selection=self.seconds_selection,
            seconds_evaluation=self.seconds_evaluation,
            seconds_terminal=self.seconds_terminal,
            n_exact_evaluations=self.n_exact_evaluations,
            n_surrogate_evaluations=self.n_surrogate_evaluations,
            seconds_surrogate=self.seconds_surrogate,
            seconds_checkpoint=self.seconds_checkpoint,
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
