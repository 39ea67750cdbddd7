"""Algorithm 1 — the complete placement flow.

Stages (each timed on the result's :class:`~repro.utils.timer.Stopwatch`,
which is how the Table IV runtime benchmark isolates the MCTS stage):

1. ``prototype``     — analytical mixed-size prototype placement ([23]).
2. ``preprocess``    — grid partition + netlist coarsening (Sec. II-A).
3. ``calibration``   — 50 (configurable) random episodes fitting Eq. 9.
4. ``rl_training``   — Actor-Critic pre-training (Sec. III).
5. ``mcts``          — agent-guided search (Sec. IV).
6. ``final``         — legalization + cell placement of the committed
   assignment, its one placement in the flow: the search takes the
   committed wirelength from the exact result it already holds for that
   leaf, so this stage is what leaves the design object at the final
   coordinates.

``MCTSGuidedPlacer.place`` runs every stage through one driver,
``_run``, with or without a run dir.

Fault tolerance (:mod:`repro.runtime`): when ``place`` is given a
``run_dir`` every stage persists its outputs plus a JSON manifest there,
each file written whole by :func:`repro.runtime.resources.write_atomic`,
RL training snapshots its full state every ``checkpoint_every`` episodes
and MCTS after every committed move, and ``resume=True`` skips completed
stages and restores their artifacts — an interrupted run continues
bit-for-bit.  Stage budgets, solver fallbacks, and the divergence
watchdog degrade gracefully instead of crashing, recording structured
events in the run's JSONL log; so does a conjugate-gradient QP solve of
the prototype, a legalization or a cell placement that stops unconverged
(its positions are kept).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.agent.actorcritic import ActorCriticTrainer, TrainingHistory
from repro.agent.network import PolicyValueNet
from repro.agent.reward import NormalizedReward, calibrate_reward
from repro.coarsen.coarse import CoarseNetlist, coarsen_design
from repro.core.config import PlacerConfig
from repro.env.placement_env import MacroGroupPlacementEnv
from repro.gp.mixed_size import MixedSizePlacer
from repro.gp.quadratic import report_unconverged
from repro.grid.plan import GridPlan
from repro.mcts.search import MCTSPlacer, SearchResult
from repro.netlist.model import Design, NodeKind
from repro.parallel import TerminalCache, environment_fingerprint
from repro.runtime.errors import CalibrationError, UsageError
from repro.runtime.harness import RunContext
from repro.utils.events import EventLog
from repro.utils.rng import ensure_rng
from repro.utils.timer import Stopwatch


@dataclass
class FlowResult:
    """Everything a flow run produced."""

    hpwl: float
    assignment: list[int]
    history: TrainingHistory
    search: SearchResult
    reward_fn: NormalizedReward
    coarse: CoarseNetlist
    stopwatch: Stopwatch = field(default_factory=Stopwatch)
    #: HPWL after row-based cell legalization (None unless
    #: ``PlacerConfig.legalize_cells``); ``cell_legalization`` carries the
    #: pass statistics.
    legal_hpwl: float | None = None
    cell_legalization: object | None = None
    #: structured event log of the run (degradations, checkpoints,
    #: rollbacks, budget exhaustion, stage transitions)
    events: EventLog | None = None
    #: independent verification report (None unless
    #: ``PlacerConfig.verify_results``); the flow raises
    #: :class:`VerificationError` before returning a failing one
    verification: object | None = None

    #: canonical order of the per-stage wall-clock breakdown
    STAGE_ORDER = (
        "prototype", "preprocess", "calibration", "rl_training", "mcts",
        "final", "cell_legalization", "verify",
    )

    @property
    def mcts_runtime(self) -> float:
        """Seconds spent in the MCTS stage (the Table IV quantity)."""
        return self.stopwatch.total("mcts")

    @property
    def n_macro_groups(self) -> int:
        return self.coarse.n_macro_groups

    @property
    def stage_seconds(self) -> dict[str, float]:
        """Per-stage wall-clock breakdown in :attr:`STAGE_ORDER`.

        Sourced from the run's :class:`Stopwatch`; stages that never ran
        (skipped on resume, optional cell legalization) report 0.0.  The
        service metrics histograms consume exactly this mapping.
        """
        return {
            stage: self.stopwatch.total(stage) for stage in self.STAGE_ORDER
        }


class MCTSGuidedPlacer:
    """The paper's placer: RL pre-training followed by one MCTS pass."""

    def __init__(self, config: PlacerConfig = PlacerConfig()) -> None:
        self.config = config
        self._events = EventLog()

    # -- stages ----------------------------------------------------------------
    def _coarsen(self, design: Design) -> CoarseNetlist:
        """Grid partition + coarsening; a design with no movable macro
        group has nothing for the agent to place and fails here."""
        cfg = self.config
        plan = GridPlan(design.region, zeta=cfg.zeta)
        coarse = coarsen_design(
            design, plan, gamma=cfg.gamma_params, phi=cfg.phi_params
        )
        if coarse.n_macro_groups == 0:
            macros = sum(1 for n in design.netlist if n.kind is NodeKind.MACRO)
            reason = "every macro is preplaced" if macros else "it has no macros"
            raise UsageError(
                f"nothing to place in design {design.netlist.name!r}: {reason}",
                design=design.netlist.name,
                preplaced_macros=macros,
            )
        return coarse

    def build_environment(self, coarse: CoarseNetlist) -> MacroGroupPlacementEnv:
        return MacroGroupPlacementEnv(
            coarse,
            cell_place_iters=self.config.cell_place_iterations,
            events=self._events,
        )

    def _calibrate(self, env, rng) -> tuple[NormalizedReward, list[float]]:
        cfg = self.config
        reward_fn, samples = calibrate_reward(
            lambda g: env.play_random_episode(g).wirelength,
            alpha=cfg.alpha,
            n_episodes=cfg.calibration_episodes,
            rng=rng,
        )
        stats = (reward_fn.w_max, reward_fn.w_min, reward_fn.w_avg)
        if not all(np.isfinite(s) for s in stats):
            raise CalibrationError(
                "random-play calibration produced non-finite wirelength "
                "statistics (Eq. 9 undefined)",
                stage="calibration",
                w_max=reward_fn.w_max,
                w_min=reward_fn.w_min,
                w_avg=reward_fn.w_avg,
            )
        return reward_fn, samples

    def _build_trainer(
        self, env, network, reward_fn, rng, budget=None
    ) -> ActorCriticTrainer:
        cfg = self.config
        return ActorCriticTrainer(
            env,
            network,
            reward_fn,
            lr=cfg.learning_rate,
            update_every=cfg.update_every,
            entropy_coef=cfg.entropy_coef,
            epochs_per_update=cfg.epochs_per_update,
            rng=rng,
            events=self._events,
            budget=budget,
            max_divergence_rollbacks=cfg.max_divergence_rollbacks,
            max_episode_failures=cfg.max_episode_failures,
        )

    # -- entry point ---------------------------------------------------------------
    def place(
        self,
        design: Design,
        run_dir: str | None = None,
        resume: bool | None = None,
        faults=None,
        context: RunContext | None = None,
    ) -> FlowResult:
        """Run the full flow on *design* (mutates its node positions).

        *run_dir* (or ``config.run_dir``) makes the run durable: stage
        artifacts, intra-stage snapshots, the JSON manifest, and the JSONL
        event log are persisted there.  With *resume* (or
        ``config.resume``), stages the run dir already completed are
        skipped and their artifacts restored, continuing an interrupted
        run deterministically.  *faults* optionally installs a
        :class:`repro.runtime.faults.FaultPlan` for the duration of the
        run (testing hook).

        *context* hands in an externally owned, pre-built
        :class:`RunContext` instead — the placement service uses this to
        attach per-job budgets and pre-injected warm artifacts; when
        given, *run_dir*/*resume*/*faults* must be left unset (the
        context already owns them).
        """
        cfg = self.config
        if context is not None:
            if run_dir is not None or resume is not None or faults is not None:
                raise ValueError(
                    "place(context=...) excludes run_dir/resume/faults — "
                    "the injected RunContext already owns them"
                )
            ctx = context
        else:
            ctx = RunContext(
                run_dir if run_dir is not None else cfg.run_dir,
                cfg,
                design,
                resume=cfg.resume if resume is None else resume,
                fault_plan=faults,
            )
        self._events = ctx.events
        with ctx.activate_faults():
            return self._run(design, ctx)

    def _run(self, design: Design, ctx: RunContext) -> FlowResult:
        cfg = self.config
        events = ctx.events
        stopwatch = Stopwatch()
        events.emit("run_start", resume=ctx.resume, design=design.netlist.name)

        # -- stage 1: prototype --------------------------------------------------
        if ctx.completed("prototype"):
            ctx.load_positions("prototype", design)
            ctx.skip("prototype")
        else:
            budget = ctx.budget("prototype")
            with ctx.guard("prototype"):
                with stopwatch.measure("prototype"):
                    MixedSizePlacer(n_iterations=cfg.prototype_iterations).place(
                        design,
                        on_unconverged=report_unconverged(events, stage="prototype"),
                    )
                ctx.save_positions("prototype", design)
                ctx.mark(
                    "prototype", seconds=round(stopwatch.total("prototype"), 3)
                )
                budget.check()

        # -- stage 2: preprocess (cheap derivation; recomputed on resume) --------
        recompute = ctx.completed("preprocess")
        with ctx.guard("preprocess"):
            with stopwatch.measure("preprocess"):
                coarse = self._coarsen(design)
        if recompute:
            events.emit("stage_recomputed", stage="preprocess")
        else:
            ctx.mark(
                "preprocess",
                n_macro_groups=coarse.n_macro_groups,
                seconds=round(stopwatch.total("preprocess"), 3),
            )

        env = self.build_environment(coarse)
        rng = ensure_rng(cfg.seed)

        # -- stage 3: calibration ------------------------------------------------
        if ctx.completed("calibration"):
            reward_fn = ctx.load_calibration(rng)
            ctx.skip("calibration")
        else:
            budget = ctx.budget("calibration")
            with ctx.guard("calibration"):
                with stopwatch.measure("calibration"):
                    reward_fn, _samples = self._calibrate(env, rng)
                ctx.save_calibration(reward_fn, rng)
                ctx.mark(
                    "calibration",
                    w_avg=reward_fn.w_avg,
                    seconds=round(stopwatch.total("calibration"), 3),
                )
                budget.check()

        network = PolicyValueNet(cfg.network)

        # The cross-run wirelength cache (persisted to the run dir when
        # there is one) is a pure accelerator: every stage below produces
        # bitwise-identical results with or without it.
        terminal_cache = TerminalCache(
            environment_fingerprint(env),
            path=cfg.terminal_cache_path or ctx.terminal_cache_path(),
        )

        # -- stage 4: RL pre-training --------------------------------------------
        if ctx.completed("rl_training"):
            history = ctx.load_training(network, rng)
            ctx.skip("rl_training")
        else:
            trainer = self._build_trainer(
                env,
                network,
                reward_fn,
                rng,
                budget=ctx.budget("rl_training"),
            )
            history = ctx.load_training_snapshot(trainer)
            trainer.checkpoint_hook = (
                lambda t, h: ctx.save_training_snapshot(t, h)
            )
            with ctx.guard("rl_training"):
                with stopwatch.measure("rl_training"):
                    history = trainer.train(
                        cfg.episodes,
                        checkpoint_every=cfg.checkpoint_every,
                        history=history,
                    )
                ctx.save_training(network, history, rng)
                ctx.mark(
                    "rl_training",
                    episodes=len(history.rewards),
                    seconds=round(stopwatch.total("rl_training"), 3),
                )

        # -- stage 5: MCTS -------------------------------------------------------
        if ctx.completed("mcts"):
            search = ctx.load_search()
            ctx.skip("mcts")
        else:
            placer = MCTSPlacer(
                env,
                network,
                reward_fn,
                cfg.mcts,
                events=events,
                budget=ctx.budget("mcts"),
                on_commit=(
                    ctx.save_mcts_snapshot if ctx.dir is not None else None
                ),
                terminal_cache=terminal_cache,
            )
            resume_state = ctx.load_mcts_snapshot()
            with ctx.guard("mcts"):
                with stopwatch.measure("mcts"):
                    search = placer.run(resume_state=resume_state)
                ctx.save_search(search)
                ctx.mark(
                    "mcts",
                    wirelength=search.wirelength,
                    seconds=round(stopwatch.total("mcts"), 3),
                )

        # -- stage 6: final placement --------------------------------------------
        legal_hpwl = None
        cell_result = None
        if ctx.completed("final"):
            hpwl, legal_hpwl = ctx.load_final(design)
            ctx.skip("final")
        else:
            with ctx.guard("final"):
                # deliberately in-process: the design object must carry
                # the final coordinates
                with stopwatch.measure("final"):
                    hpwl = env.evaluate_assignment(search.assignment)
                if cfg.legalize_cells:
                    from repro.legalize.cells import legalize_cells
                    from repro.netlist.hpwl import FlatNetlist

                    with stopwatch.measure("cell_legalization"):
                        cell_result = legalize_cells(design)
                        legal_hpwl = FlatNetlist(design.netlist).total_hpwl()
                ctx.save_final(design, hpwl, legal_hpwl)
                ctx.mark("final", hpwl=hpwl)

        # -- independent verification (repro.verify): re-derive legality and
        # HPWL through code paths the optimizer does not share ---------------
        verification = None
        if cfg.verify_results:
            from repro.runtime.errors import VerificationError
            from repro.verify import verify_placement

            with ctx.guard("verify"):
                with stopwatch.measure("verify"):
                    verification = verify_placement(
                        design,
                        plan=GridPlan(design.region, zeta=cfg.zeta),
                        reported_hpwl=hpwl,
                    )
                events.emit(
                    "verification",
                    ok=verification.ok,
                    checks={c.name: c.ok for c in verification.checks},
                )
                if not verification.ok:
                    raise VerificationError(
                        "independent placement verification failed",
                        stage="verify",
                        failed=verification.failed,
                        detail=verification.summary(),
                    )

        events.emit(
            "terminal_cache",
            hits=terminal_cache.hits,
            misses=terminal_cache.misses,
            entries=len(terminal_cache),
        )
        events.emit("run_completed", hpwl=hpwl)
        return FlowResult(
            hpwl=hpwl,
            assignment=search.assignment,
            history=history,
            search=search,
            reward_fn=reward_fn,
            coarse=coarse,
            stopwatch=stopwatch,
            legal_hpwl=legal_hpwl,
            cell_legalization=cell_result,
            events=events,
            verification=verification,
        )
