"""Self-healing supervision: heartbeats, watchdog, retry/quarantine,
artifact integrity, and independent result verification.

Unit layers (fake clocks, hand-built designs) pin the deterministic
pieces — backoff schedules, heartbeat ages, checksum round-trips, the
verifier's geometry checks — and one integration test runs the full
chaos drill: every injected failure (checkpoint bit-rot, stage stall,
warm-cache corruption, poison job) must end DONE-after-retry or
QUARANTINED, with DONE HPWLs bit-identical to the unfaulted reference.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import replace

import pytest

from repro.core import MCTSGuidedPlacer, PlacerConfig
from repro.netlist.hpwl import hpwl
from repro.runtime.checkpoint import (
    MCTS_SNAPSHOT,
    SNAPSHOT_HEADER,
    TRAINING_SNAPSHOT,
    RunDir,
)
from repro.runtime.errors import FaultInjected, StageTimeoutError
from repro.runtime.faults import Fault, FaultPlan, inject
from repro.runtime.integrity import corrupt_file, sha256_file, verify_file
from repro.runtime.resources import write_atomic
from repro.service import (
    DONE,
    QUARANTINED,
    QUEUED,
    RUNNING,
    Heartbeat,
    JobSpec,
    JobStore,
    PlacementService,
    Scheduler,
    ServiceMetrics,
    SupervisedBudget,
)
from repro.service.service import submit_job
from repro.service.supervisor import JobSupervisor, classify_transient
from repro.service.warm import WarmArtifactCache
from repro.utils.events import read_jsonl
from repro.verify import verify_placement
from repro.verify.doctor import doctor_run_dir
from tests.conftest import build_tiny_design

from repro.runtime.budget import StageBudget


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


# -- heartbeat + supervised budget -------------------------------------------
class TestHeartbeat:
    def test_beat_advances_and_tracks_stage(self):
        clock = FakeClock()
        hb = Heartbeat(clock=clock)
        clock.advance(5.0)
        assert hb.age() == 5.0
        hb.beat("mcts")
        assert hb.age() == 0.0
        assert hb.stage == "mcts"
        assert hb.beats == 1

    def test_freeze_fault_stops_beats(self):
        clock = FakeClock()
        hb = Heartbeat(clock=clock)
        with inject(FaultPlan(Fault("stall.freeze", at=1))):
            clock.advance(1.0)
            hb.beat()  # freezes instead of beating
            assert hb.frozen
            clock.advance(9.0)
            hb.beat()
        assert hb.age() == 10.0  # last_beat pinned at construction time

    def test_supervised_budget_beats_and_raises(self):
        clock = FakeClock()
        hb = Heartbeat(clock=clock)
        budget = SupervisedBudget(StageBudget("mcts", None), hb)
        clock.advance(2.0)
        assert not budget.exhausted()
        assert hb.age() == 0.0  # the poll beat
        assert hb.stage == "mcts"
        spent = SupervisedBudget(StageBudget("legalize", 0.0), hb)
        clock.advance(2.0)
        with pytest.raises(StageTimeoutError):
            spent.check()  # the inner budget raises, after the beat
        assert hb.age() == 0.0 and hb.stage == "legalize"


# -- retry / backoff / quarantine --------------------------------------------
def make_supervisor(tmp_path, **kw):
    store = JobStore(str(tmp_path / "jobs.jsonl"))
    metrics = ServiceMetrics()
    supervisor = JobSupervisor(
        store, metrics, str(tmp_path / "quarantine.jsonl"), **kw
    )
    return store, metrics, supervisor


class TestBackoff:
    def test_deterministic_and_exponential(self, tmp_path):
        _, _, sup = make_supervisor(tmp_path, backoff_base=0.5)
        d1 = sup.backoff_delay("job-x", 1)
        assert d1 == sup.backoff_delay("job-x", 1)  # replay-stable
        assert d1 != sup.backoff_delay("job-y", 1)  # decorrelated
        # jitter keeps each delay in [base, 1.5*base); doubling dominates
        # it, so the retry schedule is strictly increasing per attempt
        for attempt in range(1, 5):
            delay = sup.backoff_delay("job-x", attempt)
            base = 0.5 * 2 ** (attempt - 1)
            assert base <= delay < 1.5 * base
            assert delay > sup.backoff_delay("job-x", attempt - 1)

    def test_transient_classification(self):
        assert classify_transient("FaultInjected")
        assert classify_transient("StageStallError")
        assert classify_transient("ArtifactCorruptError")
        assert classify_transient("MemoryError")  # unknown: worth a retry
        assert not classify_transient("UsageError")
        assert not classify_transient("VerificationError")
        assert not classify_transient("StageTimeoutError")
        assert not classify_transient("BookshelfError")  # malformed input


class TestResolveFailure:
    def test_transient_retries_then_quarantines(self, tmp_path):
        clock = FakeClock()
        store, metrics, sup = make_supervisor(
            tmp_path, max_retries=2, backoff_base=0.5, clock=clock
        )
        job = store.add(JobSpec(circuit="ibm01"))
        error = {"kind": "FaultInjected", "message": "boom"}
        delays = []
        for attempt in (1, 2):
            store.transition(job.id, RUNNING, attempt=attempt)
            assert sup.resolve_failure(store.get(job.id), error) == "retry"
            assert store.get(job.id).state == QUEUED
            # not due until the backoff elapses
            assert sup.due_retries() == []
            delay = sup.backoff_delay(job.id, attempt)
            delays.append(delay)
            clock.advance(delay + 1e-6)
            assert sup.due_retries() == [job.id]
        assert delays[1] > delays[0]
        store.transition(job.id, RUNNING, attempt=3)
        assert sup.resolve_failure(store.get(job.id), error) == "quarantine"
        quarantined = store.get(job.id)
        assert quarantined.state == QUARANTINED
        assert quarantined.terminal
        records = sup.quarantined()
        assert len(records) == 1
        assert records[0]["id"] == job.id
        assert records[0]["error"]["kind"] == "FaultInjected"
        assert metrics.counter("jobs_retried") == 2
        assert metrics.counter("jobs_quarantined") == 1

    def test_permanent_error_fails_immediately(self, tmp_path):
        store, metrics, sup = make_supervisor(tmp_path, max_retries=5)
        job = store.add(JobSpec(circuit="ibm01"))
        store.transition(job.id, RUNNING, attempt=1)
        error = {"kind": "CalibrationError", "message": "deterministic"}
        assert sup.resolve_failure(store.get(job.id), error) == "fail"
        assert store.get(job.id).state == "FAILED"
        assert metrics.counter("jobs_retried") == 0

    def test_retry_journal_replays(self, tmp_path):
        store, _, sup = make_supervisor(tmp_path, max_retries=2)
        job = store.add(JobSpec(circuit="ibm01"))
        store.transition(job.id, RUNNING, attempt=1)
        sup.resolve_failure(
            store.get(job.id), {"kind": "FaultInjected", "message": "x"}
        )
        replayed = JobStore(store.path).load()
        assert replayed.get(job.id).state == QUEUED
        assert replayed.get(job.id).attempts == 1
        retry = [
            r for r in read_jsonl(store.path)
            if r.get("reason") == "retry"
        ]
        assert len(retry) == 1 and retry[0]["retry_delay"] > 0


# -- scheduler: retry re-enqueue ----------------------------------------------
class TestSchedulerAbandon:
    def test_dedup_released_at_dispatch_for_retries(self):
        started = threading.Event()
        release = threading.Event()

        def execute(job_id):
            started.set()
            release.wait(5.0)

        sched = Scheduler(execute, lambda _: True, workers=1)

        class J:
            id, priority, seq = "job-r", 0, 1

        assert sched.enqueue(J())
        assert not sched.enqueue(J())  # still queued: deduped
        sched.start()
        try:
            assert started.wait(5.0)
            # dispatched: a retry of the same id may enqueue again
            assert sched.enqueue(J())
        finally:
            release.set()
            sched.stop()


# -- artifact integrity --------------------------------------------------------
QUICK = dict(circuit="ibm01", scale=0.004, macro_scale=0.04)


def quick_design():
    from repro.service.jobs import resolve_design

    return resolve_design(**QUICK)[1]


class TestIntegrity:
    def test_checksum_roundtrip_and_corruption(self, tmp_path):
        path = str(tmp_path / "artifact.bin")
        with open(path, "wb") as f:
            f.write(b"deterministic bytes" * 100)
        digest = sha256_file(path)
        assert verify_file(path, digest)
        assert verify_file(path, None)  # legacy: no recorded checksum
        offset = corrupt_file(path)
        assert 0 <= offset < os.path.getsize(path)
        assert not verify_file(path, digest)

    def test_corrupt_checkpoint_triggers_stage_restart(self, tmp_path):
        config = PlacerConfig.fast(seed=3)
        design = quick_design()
        clean = MCTSGuidedPlacer(config).place(
            quick_design(), run_dir=str(tmp_path / "clean")
        )
        run_dir = str(tmp_path / "faulted")
        with inject(FaultPlan(Fault("trainer.kill", at=3))):
            with pytest.raises(Exception):
                MCTSGuidedPlacer(config).place(design, run_dir=run_dir)
        # bit-rot the completed calibration artifact behind the manifest
        corrupt_file(os.path.join(run_dir, "calibration.json"))
        resumed = MCTSGuidedPlacer(config).place(
            quick_design(), run_dir=run_dir, resume=True
        )
        assert resumed.hpwl == clean.hpwl  # restart healed it, bit-exactly
        degradations = [
            e for e in resumed.events.of("degradation")
            if e.data.get("fallback") == "stage_restart"
        ]
        assert len(degradations) == 1
        assert degradations[0].data["artifact"] == "calibration.json"

    def test_doctor_flags_corruption(self, tmp_path):
        run_dir = str(tmp_path / "run")
        MCTSGuidedPlacer(PlacerConfig.fast(seed=3)).place(
            quick_design(), run_dir=run_dir
        )
        report = doctor_run_dir(run_dir, design=quick_design(), zeta=8)
        assert report.ok, report.summary()
        corrupt_file(os.path.join(run_dir, "network.npz"))
        report = doctor_run_dir(run_dir)
        assert not report.ok
        assert "checksums" in report.failed

    def test_warm_cache_discards_corrupt_entry(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        for name in ("calibration.json", "training.json"):
            (src / name).write_text("{}")
        for name in ("network.npz", "prototype.npz"):
            (src / name).write_bytes(b"\x93NUMPY" + b"x" * 64)
        cache = WarmArtifactCache(str(tmp_path / "warm"))
        assert cache.store("key-a", str(src))
        assert cache.validate("key-a")
        corrupt_file(os.path.join(cache.root, "key-a", "network.npz"))
        assert not cache.validate("key-a")
        cache.discard("key-a")
        assert not cache.has("key-a")


class TestSelfCheckingSnapshots:
    """An intra-stage snapshot carries the sha256 of its pickle payload in
    a header line: it has no manifest entry, and is verified at load time
    and by ``repro doctor``."""

    CONFIG = replace(PlacerConfig.fast(seed=3), checkpoint_every=5)
    #: the kill that leaves each snapshot as a run's latest
    KILLS = {MCTS_SNAPSHOT: ("mcts.kill", 2), TRAINING_SNAPSHOT: ("trainer.kill", 13)}

    @pytest.fixture(scope="class")
    def clean(self, tmp_path_factory):
        return MCTSGuidedPlacer(self.CONFIG).place(
            quick_design(), run_dir=str(tmp_path_factory.mktemp("clean"))
        )

    def _killed(self, run_dir: str, name: str) -> str:
        """Kill a run while *name* is its latest snapshot; the path."""
        site, at = self.KILLS[name]
        with inject(FaultPlan(Fault(site, at=at))):
            with pytest.raises(FaultInjected):
                MCTSGuidedPlacer(self.CONFIG).place(
                    quick_design(), run_dir=run_dir
                )
        assert name not in RunDir(run_dir).read_manifest().get("checksums", {})
        path = os.path.join(run_dir, name)
        with open(path, "rb") as f:
            assert f.read().startswith(SNAPSHOT_HEADER)
        return path

    def _resume(self, run_dir: str):
        result = MCTSGuidedPlacer(self.CONFIG).place(
            quick_design(), run_dir=run_dir, resume=True
        )
        discarded = [
            e.data["artifact"] for e in result.events.of("degradation")
            if e.data.get("fallback") == "snapshot_discarded"
        ]
        return result, discarded

    @pytest.mark.parametrize("name", [MCTS_SNAPSHOT, TRAINING_SNAPSHOT])
    def test_a_flipped_byte_is_discarded_once_and_flagged_by_doctor(
        self, tmp_path, clean, name
    ):
        run_dir = str(tmp_path / "run")
        path = self._killed(run_dir, name)
        assert doctor_run_dir(run_dir).ok
        offset = corrupt_file(path)  # the middle byte: in the payload
        assert offset > len(SNAPSHOT_HEADER) + 64
        report = doctor_run_dir(run_dir)
        assert report.failed == ["snapshots"]
        resumed, discarded = self._resume(run_dir)
        assert discarded == [name]
        assert resumed.hpwl == clean.hpwl
        assert resumed.assignment == clean.assignment
        assert doctor_run_dir(run_dir).ok

    def test_an_old_format_snapshot_is_discarded_and_the_stage_restarts(
        self, tmp_path, clean
    ):
        """A bare pickle with its digest in the manifest, the format of
        older run dirs, reads as damaged: the resume discards it, runs
        the stage from its start, and ends on the clean run's result."""
        run_dir = str(tmp_path / "run")
        path = self._killed(run_dir, MCTS_SNAPSHOT)
        run = RunDir(run_dir)
        payload, _ = run.read_snapshot(MCTS_SNAPSHOT)
        write_atomic(path, payload)
        manifest = run.read_manifest()
        manifest.setdefault("checksums", {})[MCTS_SNAPSHOT] = sha256_file(path)
        run.write_manifest(manifest)
        assert doctor_run_dir(run_dir).failed == ["snapshots"]
        resumed, discarded = self._resume(run_dir)
        assert discarded == [MCTS_SNAPSHOT]
        assert not [e for e in resumed.events.of("resume") if e.stage == "mcts"]
        assert resumed.hpwl == clean.hpwl
        assert resumed.assignment == clean.assignment
        assert doctor_run_dir(run_dir).ok


# -- independent verification --------------------------------------------------
class TestVerifier:
    def test_clean_tiny_design_passes(self):
        design = build_tiny_design()
        report = verify_placement(design, reported_hpwl=hpwl(design.netlist))
        assert report.ok, report.summary()

    def test_overlap_detected(self):
        design = build_tiny_design()
        m0, m1 = design.netlist.macros[:2]
        m1.x, m1.y = m0.x + 1.0, m0.y + 1.0  # stack m1 onto m0
        report = verify_placement(design)
        assert "macro_overlap" in report.failed

    def test_out_of_bounds_detected(self):
        design = build_tiny_design()
        design.netlist.macros[1].x = design.region.width + 5.0
        report = verify_placement(design)
        assert "in_bounds" in report.failed

    def test_hpwl_mismatch_detected(self):
        design = build_tiny_design()
        report = verify_placement(design, reported_hpwl=hpwl(design.netlist) * 1.01)
        assert "hpwl_recompute" in report.failed


# -- service-level supervision -------------------------------------------------
def make_service(tmp_path, **kw):
    kw.setdefault("poll_interval", 0.02)
    kw.setdefault("backoff_base", 0.05)
    return PlacementService(str(tmp_path / "svc"), **kw)


class TestInboxQuarantine:
    def test_stale_malformed_submission_rejected(self, tmp_path):
        service = make_service(tmp_path, reject_malformed_after=0.5)
        bad = os.path.join(service.paths.inbox, "000-bad.json")
        with open(bad, "w") as f:
            f.write('{"id": "job-bad", "spec": {truncated')
        # fresh: still inside the half-written grace window
        service.poll()
        assert os.path.exists(bad)
        # stale: same file past the grace window is quarantined
        os.utime(bad, (time.time() - 10.0, time.time() - 10.0))
        service.poll()
        assert not os.path.exists(bad)
        rejected = os.path.join(service.paths.rejected, "000-bad.json")
        assert os.path.exists(rejected)
        with open(rejected + ".reason.json") as f:
            reason = json.load(f)
        assert reason["kind"] == "JSONDecodeError"
        assert service.metrics.counter("submissions_rejected_malformed") == 1
        # the quarantined file no longer blocks draining
        assert service._drained()

    def test_rejected_dir_not_treated_as_submission(self, tmp_path):
        service = make_service(tmp_path, reject_malformed_after=0.0)
        os.makedirs(service.paths.rejected, exist_ok=True)
        service.poll()  # must not crash on the .rejected subdirectory
        assert service.store.jobs() == []


class TestVerificationColdRetry:
    def test_verification_failure_on_warm_run_retries_cold(self, tmp_path):
        service = make_service(tmp_path)
        job = service.store.add(JobSpec(**QUICK))
        service.store.transition(job.id, RUNNING, attempt=1)
        error = {"kind": "VerificationError", "message": "overlap"}
        service._resolve_attempt_failure(job, time.perf_counter(), error,
                                         warm_hit=True)
        assert service.store.get(job.id).state == QUEUED
        assert service.supervisor.is_cold(job.id)
        assert service.metrics.counter("verify_cold_retries") == 1
        retry = [r for r in read_jsonl(service.store.path)
                 if r.get("reason") == "verify_cold_retry"]
        assert len(retry) == 1
        # a second verification failure on the cold attempt is final
        service.store.transition(job.id, RUNNING, attempt=2)
        service._resolve_attempt_failure(
            job, time.perf_counter(), error, warm_hit=False
        )
        assert service.store.get(job.id).state == "FAILED"

    def test_verification_failure_without_reuse_fails_directly(self, tmp_path):
        service = make_service(tmp_path)
        job = service.store.add(JobSpec(**QUICK))
        service.store.transition(job.id, RUNNING, attempt=1)
        error = {"kind": "VerificationError", "message": "overlap"}
        service._resolve_attempt_failure(
            job, time.perf_counter(), error, warm_hit=False
        )
        assert service.store.get(job.id).state == "FAILED"
        assert service.metrics.counter("verify_cold_retries") == 0


class TestChaosDrill:
    def test_every_fault_heals_or_quarantines(self, tmp_path):
        from repro.service.chaos import SINGLE_DAEMON, run_drill

        report = run_drill(str(tmp_path / "chaos"), SINGLE_DAEMON)
        failures = [
            f"{s['name']}: " + "; ".join(
                c["name"] for c in s["checks"] if not c["ok"]
            )
            for s in report["scenarios"] if not s["ok"]
        ]
        assert report["ok"], failures
        by_name = {s["name"]: s for s in report["scenarios"]}
        # retried scenarios healed on attempt 2, bit-identically
        for name in ("checkpoint_corrupt", "stage_stall"):
            job = by_name[name]["jobs"][0]
            assert job["state"] == DONE and job["attempts"] == 2
            assert job["hpwl"] == report["reference"][str(job["seed"])]
        # the poison job exhausted its retries into quarantine
        poison = by_name["poison"]["jobs"][0]
        assert poison["state"] == QUARANTINED and poison["attempts"] == 3
        # the common checks ran on every row, whatever its faults
        for scenario in report["scenarios"]:
            names = {c["name"] for c in scenario["checks"]}
            assert {
                "job0.one_terminal_record", "no_stray_jobs",
                "daemons_survived",
            } <= names, scenario["name"]

    def test_daemon_kill_drill_reduced_scale(self, tmp_path):
        """The ``daemon_kill`` row at reduced scale: a real ``repro
        serve`` process SIGKILLed with a job RUNNING and restarted on the
        same dir; the restart requeues it (``daemon_restart``) and the
        common checks hold."""
        from repro.service.chaos import DAEMON_KILL, run_drill

        row = replace(DAEMON_KILL, jobs=2, kills=1)
        report = run_drill(str(tmp_path / "chaos"), (row,))
        failed = [
            c for s in report["scenarios"] for c in s["checks"] if not c["ok"]
        ]
        assert report["ok"], f"failed checks: {failed}"
        killed = report["scenarios"][-1]
        assert killed["name"] == "daemon_kill"
        checks = {c["name"]: c["ok"] for c in killed["checks"]}
        assert checks["kills"] and checks["kill0.daemon_restart"]
        assert {j["state"] for j in killed["jobs"]} == {DONE, QUARANTINED}

    def test_a_used_out_dir_is_refused_before_any_daemon_starts(
        self, tmp_path
    ):
        """An earlier drill's journal and warm cache would change what the
        faults hit, so a second ``repro chaos --out`` there is a usage
        error, not a FAILED drill of a healthy service."""
        from repro.cli import main
        from repro.service.chaos import DEFAULT_SPEC

        out = tmp_path / "chaos"
        submit_job(str(out / "baseline"), DEFAULT_SPEC)  # the earlier drill
        assert main(["chaos", "--out", str(out)]) == 64
        assert sorted(os.listdir(out)) == ["baseline"]
        assert len(os.listdir(out / "baseline" / "inbox")) == 1
