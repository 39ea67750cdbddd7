"""Fault-tolerant runtime: checkpoint/resume, guards, budgets, injection.

The headline tests drive the full flow through ``place(run_dir=...)``
with deterministic injected faults and assert the two ISSUE acceptance
properties:

- a run killed mid-training (or mid-MCTS) and resumed from its run dir
  produces the *bit-for-bit* same final HPWL and macro positions as an
  uninterrupted same-seed run;
- injected LP-infeasibility and NaN-loss faults complete with recorded
  degradation events instead of raising.
"""

from __future__ import annotations

import copy
import json
from dataclasses import replace

import numpy as np
import pytest

from repro.core import MCTSGuidedPlacer
from repro.core.config import PlacerConfig as PC
from repro.netlist.generator import generate_design
from repro.runtime import faults as fault_mod
from repro.runtime.budget import StageBudget
from repro.runtime.checkpoint import (
    RunDir,
    config_fingerprint,
    pretraining_fingerprint,
)
from repro.runtime.errors import (
    CalibrationError,
    FaultInjected,
    PlacementError,
    SolverInfeasibleError,
    StageTimeoutError,
    TrainingDivergedError,
    UsageError,
)
from repro.runtime.faults import Fault, FaultPlan, inject
from repro.utils.events import EventLog
from tests.conftest import _SMALL_SPEC


def _design():
    return generate_design(copy.deepcopy(_SMALL_SPEC))


def _cfg(seed: int = 1, **overrides) -> PC:
    cfg = PC.fast(seed=seed)
    return replace(cfg, **overrides) if overrides else cfg


# ---------------------------------------------------------------------------
# unit level: errors, faults, budgets, events
# ---------------------------------------------------------------------------


class TestErrors:
    def test_exit_codes_distinct(self):
        codes = [
            PlacementError.exit_code,
            CalibrationError.exit_code,
            TrainingDivergedError.exit_code,
            SolverInfeasibleError.exit_code,
            StageTimeoutError.exit_code,
            FaultInjected.exit_code,
            UsageError.exit_code,
        ]
        assert len(set(codes)) == len(codes)

    def test_str_carries_stage_and_details(self):
        exc = SolverInfeasibleError("LP failed", stage="mcts", status=2)
        assert "[mcts]" in str(exc)
        assert "status=2" in str(exc)
        assert exc.details["status"] == 2

    def test_hierarchy(self):
        assert issubclass(TrainingDivergedError, PlacementError)
        assert issubclass(FaultInjected, PlacementError)
        # Bookshelf errors stay catchable as ValueError too.
        from repro.netlist.bookshelf import BookshelfError

        assert issubclass(BookshelfError, ValueError)
        assert issubclass(BookshelfError, PlacementError)


class TestFaultPlan:
    def test_arrival_window(self):
        f = Fault("x", at=3, count=2)
        assert [f.arrive() for _ in range(6)] == [
            False, False, True, True, False, False,
        ]

    def test_forever(self):
        f = Fault("x", at=2, count=None)
        assert [f.arrive() for _ in range(4)] == [False, True, True, True]

    def test_inject_scopes_active_plan(self):
        plan = FaultPlan(Fault("site.a", at=1))
        assert not fault_mod.should_fire("site.a")
        with inject(plan):
            assert fault_mod.should_fire("site.a")
            assert plan.total_fired("site.a") == 1
        assert fault_mod.active() is None

    def test_check_kill_raises_with_site(self):
        with inject(FaultPlan(Fault("k", at=1))):
            with pytest.raises(FaultInjected, match="injected fault at k"):
                fault_mod.check_kill("k", stage="rl_training")


class TestStageBudget:
    def test_unlimited_never_exhausts(self):
        b = StageBudget("s", None)
        assert not b.exhausted()
        assert b.remaining() == float("inf")

    def test_real_clock(self):
        b = StageBudget("s", 1e-9)
        assert b.exhausted()
        with pytest.raises(StageTimeoutError):
            b.check()

    def test_fault_forced_is_sticky(self):
        with inject(FaultPlan(Fault("budget.s", at=1, count=1))):
            b = StageBudget("s", None)
            assert b.exhausted()
            # count=1 expired, but exhaustion must not un-happen
            assert b.exhausted()


class TestEventLog:
    def test_jsonl_roundtrip_and_torn_tail(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        log = EventLog(path)
        log.emit("a", stage="s1", value=1)
        log.emit("b", value=2)
        with open(path, "a") as f:
            f.write('{"name": "torn')  # simulated crash mid-write
        records = EventLog.read(path)
        assert [r["event"] for r in records] == ["a", "b"]
        assert records[0]["stage"] == "s1"
        assert log.count("a") == 1


# ---------------------------------------------------------------------------
# solver guards
# ---------------------------------------------------------------------------


class TestLPDegradation:
    def test_infeasible_lp_falls_back_to_packing(self):
        from repro.legalize.lp_spread import lp_legalize_axis, lp_solve_axis

        # Two rectangles of width 10 chained into a span of 5: infeasible.
        sizes = np.array([10.0, 10.0])
        edges = [(0, 1)]
        with pytest.raises(SolverInfeasibleError):
            lp_solve_axis(sizes, edges, 0.0, 5.0, [])
        seen = []
        pos = lp_legalize_axis(
            sizes, edges, 0.0, 5.0, [], on_degrade=seen.append
        )
        assert len(seen) == 1 and isinstance(seen[0], SolverInfeasibleError)
        assert pos.shape == (2,)
        # Packing keeps the sequence-pair order even when clamped.
        assert pos[0] <= pos[1]

    def test_injected_lp_fault_degrades(self):
        from repro.legalize.lp_spread import lp_legalize_axis

        sizes = np.array([1.0, 1.0])
        edges = [(0, 1)]
        seen = []
        with inject(FaultPlan(Fault("lp.solve", at=1, count=None))):
            pos = lp_legalize_axis(
                sizes, edges, 0.0, 10.0, [], on_degrade=seen.append
            )
        assert len(seen) == 1
        assert pos[0] == 0.0 and pos[1] == 1.0

    def test_lp_fault_through_flow_records_degradations(self):
        design = _design()
        plan = FaultPlan(Fault("lp.solve", at=1, count=None))
        # zeta=4 coarsens this design into multi-macro groups, so the
        # per-region LP spread actually runs (singleton groups skip it).
        result = MCTSGuidedPlacer(_cfg(zeta=4)).place(design, faults=plan)
        assert result.hpwl > 0
        degradations = result.events.of("degradation")
        assert degradations and all(
            e.data["solver"] == "lp" for e in degradations
        )
        assert plan.total_fired("lp.solve") > 0

    def test_qp_fault_through_flow_records_degradations(self):
        design = _design()
        plan = FaultPlan(Fault("qp.solve", at=1, count=None))
        result = MCTSGuidedPlacer(_cfg()).place(design, faults=plan)
        assert result.hpwl > 0
        assert any(
            e.data["solver"] == "qp" for e in result.events.of("degradation")
        )


# ---------------------------------------------------------------------------
# trainer guards
# ---------------------------------------------------------------------------


class TestTrainerGuards:
    def test_nan_loss_rolls_back_and_completes(self):
        design = _design()
        plan = FaultPlan(Fault("trainer.nan_loss", at=1))
        result = MCTSGuidedPlacer(_cfg()).place(design, faults=plan)
        rollbacks = result.events.of("divergence_rollback")
        assert len(rollbacks) == 1
        assert len(result.history.rewards) == _cfg().episodes
        # The poisoned update was rolled back: parameters stayed finite and
        # only the healthy updates recorded a loss.
        assert len(result.history.losses) == _cfg().episodes // _cfg().update_every - 1

    def test_persistent_nan_raises_training_diverged(self):
        design = _design()
        # update_every=5 gives four updates over 20 episodes; every one is
        # poisoned, so the third consecutive rollback exceeds the tolerance.
        cfg = _cfg(max_divergence_rollbacks=2, update_every=5)
        plan = FaultPlan(Fault("trainer.nan_loss", at=1, count=None))
        with pytest.raises(TrainingDivergedError):
            MCTSGuidedPlacer(cfg).place(design, faults=plan)

    def test_episode_exception_skipped(self):
        design = _design()
        plan = FaultPlan(Fault("trainer.episode", at=2, count=3))
        result = MCTSGuidedPlacer(_cfg()).place(design, faults=plan)
        assert len(result.history.rewards) == _cfg().episodes
        assert len(result.events.of("episode_failed")) == 3

    def test_too_many_episode_failures_raise(self):
        design = _design()
        cfg = _cfg(max_episode_failures=2)
        plan = FaultPlan(Fault("trainer.episode", at=1, count=None))
        with pytest.raises(TrainingDivergedError, match="failed episodes"):
            MCTSGuidedPlacer(cfg).place(design, faults=plan)

    def test_final_partial_interval_snapshotted(self, coarse_small):
        """train(7, checkpoint_every=3) must snapshot the tail episode 7."""
        from repro.agent.actorcritic import ActorCriticTrainer
        from repro.agent.network import NetworkConfig, PolicyValueNet
        from repro.agent.reward import NormalizedReward
        from repro.env.placement_env import MacroGroupPlacementEnv

        env = MacroGroupPlacementEnv(coarse_small)
        net = PolicyValueNet(NetworkConfig(zeta=4, channels=4, res_blocks=1))
        reward = NormalizedReward(w_max=2.0, w_min=0.5, w_avg=1.0, alpha=0.75)
        trainer = ActorCriticTrainer(env, net, reward, update_every=3)
        hist = trainer.train(7, checkpoint_every=3)
        assert [s.episode for s in hist.snapshots] == [3, 6, 7]
        # On-cadence finals keep the historical behaviour (no duplicate).
        hist2 = ActorCriticTrainer(env, net, reward, update_every=3).train(
            6, checkpoint_every=3
        )
        assert [s.episode for s in hist2.snapshots] == [3, 6]


# ---------------------------------------------------------------------------
# budgets (fault-forced: no real waiting)
# ---------------------------------------------------------------------------


class TestBudgets:
    def test_rl_budget_gives_anytime_history(self):
        design = _design()
        # Exhaust the RL budget after 5 episode-boundary polls.
        plan = FaultPlan(Fault("budget.rl_training", at=6, count=None))
        result = MCTSGuidedPlacer(_cfg()).place(design, faults=plan)
        assert result.hpwl > 0
        assert len(result.history.rewards) == 5
        exhausted = result.events.of("budget_exhausted")
        assert exhausted and exhausted[0].stage == "rl_training"

    def test_mcts_budget_commits_by_prior(self):
        design = _design()
        plan = FaultPlan(Fault("budget.mcts", at=1, count=None))
        result = MCTSGuidedPlacer(_cfg()).place(design, faults=plan)
        assert result.hpwl > 0
        assert len(result.assignment) == result.n_macro_groups
        assert result.events.of("budget_exhausted")

    def test_hard_stage_budget_raises_timeout(self):
        design = _design()
        plan = FaultPlan(Fault("budget.calibration", at=1, count=None))
        with pytest.raises(StageTimeoutError) as err:
            MCTSGuidedPlacer(_cfg()).place(design, faults=plan)
        assert err.value.stage == "calibration"


# ---------------------------------------------------------------------------
# checkpoint / resume
# ---------------------------------------------------------------------------


class TestRunDir:
    def test_fingerprint_ignores_runtime_location(self):
        a = config_fingerprint(_cfg(run_dir="/tmp/a", resume=False))
        b = config_fingerprint(_cfg(run_dir="/tmp/b", resume=True))
        c = config_fingerprint(_cfg(episodes=7))
        assert a == b
        assert a != c

    @pytest.mark.parametrize(
        "preset, config_fp, pretraining_fp",
        [
            (PC, "7dc68bf2b125e8dc", "0373292c0b706c9a"),
            (PC.fast, "bb3e8143b90c7383", "4e7cc14686b0f1ab"),
            (PC.benchmark, "5ca3003f2a0a2958", "00148b856996f1c7"),
            (PC.paper, "34d6b40b0349990b", "59b78256cf93485e"),
        ],
        ids=["default", "fast", "benchmark", "paper"],
    )
    def test_fingerprint_values_pinned(self, preset, config_fp, pretraining_fp):
        """Both fingerprints key run-dir resume and the warm cache, so
        their values must survive refactors of PlacerConfig: a changed
        value orphans every existing run dir and warm entry."""
        cfg = preset()
        assert config_fingerprint(cfg) == config_fp
        assert pretraining_fingerprint(cfg) == pretraining_fp

    def test_resume_with_other_config_rejected(self, tmp_path):
        d = str(tmp_path / "run")
        design = _design()
        RunDir(d).init_manifest(_cfg(), design, resume=False)
        with pytest.raises(UsageError, match="different configuration"):
            RunDir(d).init_manifest(_cfg(episodes=7), design, resume=True)

    def test_torn_pickle_treated_as_absent(self, tmp_path):
        d = RunDir(str(tmp_path / "run"))
        d.save_snapshot("snap.pkl", {"ok": True})
        assert d.read_snapshot("snap.pkl")[1]
        with open(d.file("snap.pkl"), "wb") as f:
            f.write(b"\x80\x04garbage")
        _, intact = d.read_snapshot("snap.pkl")
        assert not intact
        assert d.read_snapshot("absent.pkl") is None


class TestKillAndResume:
    """The acceptance property: interrupted == uninterrupted, bit for bit."""

    SEED = 3

    def _baseline(self):
        design = _design()
        result = MCTSGuidedPlacer(_cfg(self.SEED, checkpoint_every=5)).place(
            design
        )
        return result, design.clone_placement()

    def test_kill_mid_training_then_resume_is_bit_for_bit(self, tmp_path):
        ref, ref_pos = self._baseline()
        d = str(tmp_path / "run")
        cfg = _cfg(self.SEED, checkpoint_every=5)
        design = _design()
        # Die at the 13th episode boundary: snapshots exist for 5 and 10.
        plan = FaultPlan(Fault("trainer.kill", at=13))
        with pytest.raises(FaultInjected):
            MCTSGuidedPlacer(cfg).place(design, run_dir=d, faults=plan)
        manifest = json.load(open(f"{d}/manifest.json"))
        assert not manifest["stages"].get("rl_training", {}).get("completed")

        design2 = _design()
        result = MCTSGuidedPlacer(cfg).place(design2, run_dir=d, resume=True)
        assert result.hpwl == ref.hpwl
        assert result.assignment == ref.assignment
        assert design2.clone_placement() == ref_pos
        # The completed early stages were skipped, training resumed from
        # the episode-10 snapshot rather than restarting.
        skipped = {e.stage for e in result.events.of("stage_skipped")}
        assert {"prototype", "calibration"} <= skipped
        resumes = result.events.of("resume")
        assert resumes and resumes[0].data["episode"] == 10

    def test_kill_before_first_snapshot_then_resume_is_bit_for_bit(
        self, tmp_path
    ):
        """The pre-PR3 latent divergence, now closed end-to-end.

        Dying before the first RL snapshot leaves nothing to restore:
        resume skips calibration (loaded from JSON) and restarts training
        from episode 0 inside an environment that never replayed the
        calibration episodes.  While terminal evaluation was
        history-dependent, that fresh-history environment could drift from
        the uninterrupted run by ~1e-2 HPWL at a later episode; the
        canonical-rewind purity fix makes the two runs bitwise-identical.
        """
        ref, ref_pos = self._baseline()
        d = str(tmp_path / "run")
        cfg = _cfg(self.SEED, checkpoint_every=5)
        design = _design()
        # Die at the 2nd episode boundary: before the episode-5 snapshot.
        plan = FaultPlan(Fault("trainer.kill", at=2))
        with pytest.raises(FaultInjected):
            MCTSGuidedPlacer(cfg).place(design, run_dir=d, faults=plan)
        manifest = json.load(open(f"{d}/manifest.json"))
        assert not manifest["stages"].get("rl_training", {}).get("completed")

        design2 = _design()
        result = MCTSGuidedPlacer(cfg).place(design2, run_dir=d, resume=True)
        assert result.hpwl == ref.hpwl
        assert result.assignment == ref.assignment
        assert design2.clone_placement() == ref_pos
        skipped = {e.stage for e in result.events.of("stage_skipped")}
        assert "calibration" in skipped
        # no snapshot existed — training restarted, nothing was resumed
        assert not result.events.of("resume")

    def test_kill_mid_mcts_then_resume_is_bit_for_bit(self, tmp_path):
        ref, ref_pos = self._baseline()
        d = str(tmp_path / "run")
        cfg = _cfg(self.SEED, checkpoint_every=5)
        design = _design()
        plan = FaultPlan(Fault("mcts.kill", at=3))
        with pytest.raises(FaultInjected):
            MCTSGuidedPlacer(cfg).place(design, run_dir=d, faults=plan)

        design2 = _design()
        result = MCTSGuidedPlacer(cfg).place(design2, run_dir=d, resume=True)
        assert result.hpwl == ref.hpwl
        assert result.assignment == ref.assignment
        assert design2.clone_placement() == ref_pos
        # rl_training completed before the kill, so resume skips it whole.
        skipped = {e.stage for e in result.events.of("stage_skipped")}
        assert "rl_training" in skipped
        resumes = result.events.of("resume")
        assert resumes and resumes[0].stage == "mcts"
        # the kill fired at the start of step 2, so the snapshot holds the
        # commit of step 1 and the search resumes at step 2
        assert resumes[0].data["step"] == 1

    def test_resume_after_completion_skips_everything(self, tmp_path):
        d = str(tmp_path / "run")
        cfg = _cfg(self.SEED, checkpoint_every=5)
        design = _design()
        first = MCTSGuidedPlacer(cfg).place(design, run_dir=d)

        design2 = _design()
        again = MCTSGuidedPlacer(cfg).place(design2, run_dir=d, resume=True)
        assert again.hpwl == first.hpwl
        assert again.assignment == first.assignment
        assert design2.clone_placement() == design.clone_placement()
        started = {e.stage for e in again.events.of("stage_start")}
        # preprocess is the only recomputed stage (cheap pure derivation).
        assert started == {"preprocess"}

    def test_fresh_run_ignores_stale_state(self, tmp_path):
        d = str(tmp_path / "run")
        cfg = _cfg(self.SEED, checkpoint_every=5)
        design = _design()
        plan = FaultPlan(Fault("trainer.kill", at=13))
        with pytest.raises(FaultInjected):
            MCTSGuidedPlacer(cfg).place(design, run_dir=d, faults=plan)
        # Without resume=True the same run dir starts from scratch.
        design2 = _design()
        result = MCTSGuidedPlacer(cfg).place(design2, run_dir=d)
        assert not result.events.of("stage_skipped")
        assert not result.events.of("resume")
        ref, _ = self._baseline()
        assert result.hpwl == ref.hpwl


# ---------------------------------------------------------------------------
# CLI exit codes
# ---------------------------------------------------------------------------


class TestCLIExitCodes:
    def test_unknown_circuit_is_usage_error(self, capsys):
        from repro.cli import main

        assert main(["place", "--circuit", "nosuch"]) == 64
        assert "unknown circuit" in capsys.readouterr().err

    def test_resume_without_run_dir_rejected(self, capsys):
        from repro.cli import main

        assert main(["place", "--resume"]) == 64
        assert "--run-dir" in capsys.readouterr().err
