"""The fault-tolerant run context threaded through the flow.

:class:`RunContext` is what turns ``MCTSGuidedPlacer.place`` from a
monolithic all-or-nothing call into a resumable pipeline: it owns the
run dir (when one is given), the structured event log, the per-stage
wall-clock budgets, and the save/load logic for every stage artifact.
Without a run dir it degrades to a pure in-memory observer — the flow
code is identical either way.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

import numpy as np

from repro.runtime import faults
from repro.runtime.budget import StageBudget
from repro.runtime.checkpoint import RunDir
from repro.runtime.errors import PlacementError
from repro.runtime.integrity import (
    CHECKSUMS_KEY,
    STAGE_ARTIFACTS,
    corrupt_file,
    sha256_file,
    verify_file,
)
from repro.utils.events import EventLog

TRAINING_SNAPSHOT = "training_snapshot.pkl"
MCTS_SNAPSHOT = "mcts_snapshot.pkl"
TERMINAL_CACHE = "terminal_cache.jsonl"


def rng_state(rng: np.random.Generator) -> dict:
    return rng.bit_generator.state


def restore_rng(rng: np.random.Generator, state: dict) -> None:
    rng.bit_generator.state = state


class RunContext:
    """Per-run state: manifest, events, budgets, artifacts."""

    def __init__(
        self,
        run_dir: str | None,
        config,
        design,
        resume: bool = False,
        fault_plan=None,
    ) -> None:
        self.config = config
        self.fault_plan = fault_plan
        self.dir = RunDir(run_dir) if run_dir else None
        self.events = EventLog(self.dir.events_path if self.dir else None)
        if self.dir is not None:
            self.manifest = self.dir.init_manifest(config, design, resume)
            if not resume:
                # a fresh run must not pick up a previous run's leftovers
                self.manifest["stages"] = {}
                self.dir.write_manifest(self.manifest)
                self.dir.remove(TRAINING_SNAPSHOT)
                self.dir.remove(MCTS_SNAPSHOT)
                self.dir.remove(TERMINAL_CACHE)
        else:
            self.manifest = {"stages": {}}
        self.resume = resume

    # -- fault plan -----------------------------------------------------------
    @contextmanager
    def activate_faults(self):
        from repro.runtime import faults

        if self.fault_plan is None:
            yield
        else:
            with faults.inject(self.fault_plan):
                yield

    # -- artifact integrity ---------------------------------------------------
    def _record_checksum(self, name: str) -> None:
        """Record the sha256 of artifact *name* in the manifest.

        The ``checkpoint.corrupt`` fault site fires *after* the digest is
        taken from the good bytes, then flips one byte on disk — exactly
        the failure mode (good write, later bit rot) the checksums exist
        to catch.
        """
        if self.dir is None:
            return
        path = self.dir.file(name)
        digest = sha256_file(path)
        if faults.should_fire("checkpoint.corrupt"):
            offset = corrupt_file(path)
            self.events.emit(
                "fault_injected", site="checkpoint.corrupt",
                artifact=name, offset=offset,
            )
        self.manifest.setdefault(CHECKSUMS_KEY, {})[name] = digest
        self.dir.write_manifest(self.manifest)

    def _drop_checksum(self, name: str) -> None:
        if self.dir is None:
            return
        if self.manifest.get(CHECKSUMS_KEY, {}).pop(name, None) is not None:
            self.dir.write_manifest(self.manifest)

    def _artifact_intact(self, name: str) -> bool:
        """True when *name* exists and matches its recorded checksum
        (artifacts from pre-checksum run dirs are accepted as-is)."""
        expected = self.manifest.get(CHECKSUMS_KEY, {}).get(name)
        return verify_file(self.dir.file(name), expected)

    def _snapshot_intact(self, name: str) -> bool:
        """Verify an intra-stage snapshot before unpickling it.

        A corrupt snapshot is discarded (with a degradation event) and
        reported absent, so the stage restarts from its last good state
        instead of loading damaged bytes.
        """
        path = self.dir.file(name)
        if not os.path.exists(path):
            return True  # absent is a normal state, not damage
        expected = self.manifest.get(CHECKSUMS_KEY, {}).get(name)
        if expected is None or sha256_file(path) == expected:
            return True
        self.events.emit(
            "degradation", solver="integrity",
            fallback="snapshot_discarded", artifact=name,
        )
        self.dir.remove(name)
        self._drop_checksum(name)
        return False

    # -- stage bookkeeping ----------------------------------------------------
    def completed(self, stage: str) -> bool:
        """True when *stage* completed AND its artifacts verify intact.

        A checksum mismatch (or a missing artifact) clears the stage's
        completion mark with a degradation event, so the flow recomputes
        the stage cold — a corrupted checkpoint costs time, never
        correctness.
        """
        if not self.manifest["stages"].get(stage, {}).get("completed"):
            return False
        if self.dir is None:
            return True
        for name in STAGE_ARTIFACTS.get(stage, ()):
            if self._artifact_intact(name):
                continue
            self.events.emit(
                "degradation", stage=stage, solver="integrity",
                fallback="stage_restart", artifact=name,
            )
            del self.manifest["stages"][stage]
            self.manifest.get(CHECKSUMS_KEY, {}).pop(name, None)
            self.dir.write_manifest(self.manifest)
            return False
        return True

    def mark(self, stage: str, **meta) -> None:
        entry = {"completed": True}
        entry.update(meta)
        self.manifest["stages"][stage] = entry
        if self.dir is not None:
            self.dir.write_manifest(self.manifest)
        self.events.emit("stage_completed", stage=stage, **meta)

    def skip(self, stage: str) -> None:
        self.events.emit("stage_skipped", stage=stage, reason="resumed")

    @contextmanager
    def guard(self, stage: str):
        """Tag/record failures of one stage; re-raises everything."""
        self.events.emit("stage_start", stage=stage)
        try:
            yield
        except PlacementError as exc:
            if exc.stage is None:
                exc.stage = stage
            self.events.emit("stage_failed", stage=stage, error=str(exc),
                             kind=type(exc).__name__)
            raise
        except Exception as exc:
            self.events.emit("stage_failed", stage=stage, error=str(exc),
                             kind=type(exc).__name__)
            raise

    def budget(self, stage: str) -> StageBudget:
        cfg = self.config
        if stage == "rl_training":
            seconds = getattr(cfg, "rl_budget_seconds", None)
        elif stage == "mcts":
            seconds = getattr(cfg, "mcts_budget_seconds", None)
        else:
            seconds = None
        if seconds is None:
            seconds = getattr(cfg, "stage_budget_seconds", None)
        return StageBudget(stage, seconds)

    # -- terminal cache --------------------------------------------------------
    def terminal_cache_path(self) -> str | None:
        """File the cross-run terminal cache persists to (None in-memory)."""
        return self.dir.file(TERMINAL_CACHE) if self.dir is not None else None

    # -- positions ------------------------------------------------------------
    def save_positions(self, name: str, design) -> None:
        if self.dir is not None:
            self.dir.save_positions(name, design)
            self._record_checksum(name + ".npz")

    def load_positions(self, name: str, design) -> None:
        self.dir.load_positions(name, design)

    # -- calibration ----------------------------------------------------------
    def save_calibration(self, reward_fn, rng) -> None:
        if self.dir is None:
            return
        self.dir.save_json(
            "calibration.json",
            {
                "w_max": reward_fn.w_max,
                "w_min": reward_fn.w_min,
                "w_avg": reward_fn.w_avg,
                "alpha": reward_fn.alpha,
                "rng_state": rng_state(rng),
            },
        )
        self._record_checksum("calibration.json")

    def load_calibration(self, rng):
        from repro.agent.reward import NormalizedReward

        payload = self.dir.load_json("calibration.json")
        if payload is None:
            raise PlacementError(
                "calibration marked complete but calibration.json is missing",
                stage="calibration", run_dir=self.dir.path,
            )
        restore_rng(rng, payload["rng_state"])
        return NormalizedReward(
            w_max=payload["w_max"],
            w_min=payload["w_min"],
            w_avg=payload["w_avg"],
            alpha=payload["alpha"],
        )

    # -- RL training ----------------------------------------------------------
    def save_training(self, network, history, rng) -> None:
        if self.dir is None:
            return
        from repro.nn.serialization import save_params

        save_params(network, self.dir.file("network.npz"))
        self.dir.save_json(
            "training.json",
            {
                "rewards": history.rewards,
                "wirelengths": history.wirelengths,
                "losses": history.losses,
                "grad_norms": history.grad_norms,
                "rng_state": rng_state(rng),
            },
        )
        self._record_checksum("network.npz")
        self._record_checksum("training.json")
        self.dir.remove(TRAINING_SNAPSHOT)
        self._drop_checksum(TRAINING_SNAPSHOT)

    def load_training(self, network, rng):
        from repro.agent.actorcritic import TrainingHistory
        from repro.nn.serialization import load_params

        payload = self.dir.load_json("training.json")
        if payload is None:
            raise PlacementError(
                "rl_training marked complete but training.json is missing",
                stage="rl_training", run_dir=self.dir.path,
            )
        load_params(network, self.dir.file("network.npz"))
        restore_rng(rng, payload["rng_state"])
        return TrainingHistory(
            rewards=list(payload["rewards"]),
            wirelengths=list(payload["wirelengths"]),
            losses=list(payload["losses"]),
            grad_norms=list(payload["grad_norms"]),
        )

    def save_training_snapshot(self, trainer, history) -> None:
        if self.dir is None:
            return
        self.dir.save_pickle(TRAINING_SNAPSHOT, trainer.export_state(history))
        self._record_checksum(TRAINING_SNAPSHOT)
        self.events.emit(
            "checkpoint", stage="rl_training", episode=len(history.rewards)
        )

    def load_training_snapshot(self, trainer):
        """Restore an intra-stage RL snapshot into *trainer*; returns the
        restored :class:`TrainingHistory` (or None when no snapshot)."""
        if self.dir is None:
            return None
        if not self._snapshot_intact(TRAINING_SNAPSHOT):
            return None
        state = self.dir.load_pickle(TRAINING_SNAPSHOT)
        if state is None:
            return None
        history = trainer.restore_state(state)
        self.events.emit(
            "resume", stage="rl_training", episode=len(history.rewards)
        )
        return history

    # -- MCTS ------------------------------------------------------------------
    def save_mcts_snapshot(self, state: dict) -> None:
        if self.dir is None:
            return
        self.dir.save_pickle(MCTS_SNAPSHOT, state)
        self._record_checksum(MCTS_SNAPSHOT)
        self.events.emit("checkpoint", stage="mcts", step=state["step"])

    def load_mcts_snapshot(self) -> dict | None:
        if self.dir is None:
            return None
        if not self._snapshot_intact(MCTS_SNAPSHOT):
            return None
        state = self.dir.load_pickle(MCTS_SNAPSHOT)
        if state is not None:
            self.events.emit("resume", stage="mcts", step=state["step"])
        return state

    def save_search(self, result) -> None:
        if self.dir is None:
            return
        best_w = result.best_terminal_wirelength
        self.dir.save_json(
            "search.json",
            {
                "assignment": result.assignment,
                "wirelength": result.wirelength,
                "reward": result.reward,
                "path": [list(p) for p in result.path],
                "n_terminal_evaluations": result.n_terminal_evaluations,
                "n_network_evaluations": result.n_network_evaluations,
                "best_terminal_assignment": result.best_terminal_assignment,
                "best_terminal_wirelength": (
                    None if best_w == float("inf") else best_w
                ),
                # seconds_surrogate is deliberately NOT persisted: search.json
                # must be bit-for-bit identical across kill/resume, and wall
                # clock is not part of the search result.
                "n_exact_evaluations": result.n_exact_evaluations,
                "n_surrogate_evaluations": result.n_surrogate_evaluations,
                "surrogate_spearman": result.surrogate_spearman,
            },
        )
        self._record_checksum("search.json")
        self.dir.remove(MCTS_SNAPSHOT)
        self._drop_checksum(MCTS_SNAPSHOT)

    def load_search(self):
        from repro.mcts.search import SearchResult

        payload = self.dir.load_json("search.json")
        if payload is None:
            raise PlacementError(
                "mcts marked complete but search.json is missing",
                stage="mcts", run_dir=self.dir.path,
            )
        best_w = payload["best_terminal_wirelength"]
        return SearchResult(
            assignment=list(payload["assignment"]),
            wirelength=payload["wirelength"],
            reward=payload["reward"],
            path=[tuple(p) for p in payload["path"]],
            n_terminal_evaluations=payload["n_terminal_evaluations"],
            n_network_evaluations=payload["n_network_evaluations"],
            best_terminal_assignment=payload["best_terminal_assignment"],
            best_terminal_wirelength=(
                float("inf") if best_w is None else best_w
            ),
            # .get defaults keep search.json files from before the two-tier
            # engine loadable (every terminal evaluation was exact then)
            n_exact_evaluations=payload.get(
                "n_exact_evaluations", payload["n_terminal_evaluations"]
            ),
            n_surrogate_evaluations=payload.get("n_surrogate_evaluations", 0),
            seconds_surrogate=payload.get("seconds_surrogate", 0.0),
            surrogate_spearman=payload.get("surrogate_spearman"),
        )

    # -- final -----------------------------------------------------------------
    def save_final(self, design, hpwl: float, legal_hpwl: float | None) -> None:
        if self.dir is None:
            return
        self.save_positions("final_positions", design)
        self.dir.save_json(
            "final.json", {"hpwl": hpwl, "legal_hpwl": legal_hpwl}
        )
        self._record_checksum("final.json")

    def load_final(self, design) -> tuple[float, float | None]:
        payload = self.dir.load_json("final.json")
        if payload is None:
            raise PlacementError(
                "final marked complete but final.json is missing",
                stage="final", run_dir=self.dir.path,
            )
        self.dir.load_positions("final_positions", design)
        return payload["hpwl"], payload.get("legal_hpwl")
