"""Resource governance: probes, the ENOSPC write guard, quota GC,
load shedding, and end-to-end degradation through a live daemon.

Unit layers exercise :mod:`repro.runtime.resources` and
:class:`repro.service.governor.ResourceGovernor` against fabricated
service dirs with a fake clock; the drill layer submits ENOSPC-faulted
jobs to a real daemon and asserts the documented contract: a transient
full disk degrades (emergency GC + retry) and the job still finishes
DONE, a persistent one quarantines the job with a structured
``ResourceExhaustedError`` — and the daemon survives both.  The last
layer pins what collection must keep: an emergency GC loses no replay
state or warm answer, and usage plateaus under a quota across rounds.
"""

from __future__ import annotations

import copy
import json
import os
import time
from dataclasses import replace

import pytest

from repro.netlist.bookshelf import write_design
from repro.netlist.generator import generate_design
from repro.runtime import faults, resources
from repro.runtime.errors import ResourceExhaustedError
from repro.runtime.faults import Fault, FaultPlan, inject
from repro.runtime.resources import (
    dir_usage_bytes,
    disk_free_bytes,
    guarded_write,
    install_guard,
    process_rss_bytes,
    uninstall_guard,
)
from repro.service.chaos import DEFAULT_SPEC
from repro.service.governor import ResourceGovernor, resource_report
from repro.service.jobs import (
    DONE,
    QUARANTINED,
    JobSpec,
    JobStore,
    ServicePaths,
)
from repro.service.metrics import ServiceMetrics
from repro.service.service import PlacementService, submit_job
from repro.service.warm import ARTIFACTS, WarmArtifactCache
from repro.utils.events import append_jsonl, read_jsonl
from tests.conftest import _SMALL_SPEC


@pytest.fixture(scope="module")
def aux_path(tmp_path_factory) -> str:
    design = generate_design(copy.deepcopy(_SMALL_SPEC))
    return write_design(design, str(tmp_path_factory.mktemp("aux")))


def _spec(aux: str, **overrides) -> JobSpec:
    base = dict(aux=aux, preset="fast", seed=5)
    base.update(overrides)
    return JobSpec(**base)


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------


class TestProbes:
    def test_dir_usage_counts_nested_files(self, tmp_path):
        (tmp_path / "a.bin").write_bytes(b"x" * 100)
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "b.bin").write_bytes(b"y" * 50)
        assert dir_usage_bytes(str(tmp_path)) == 150

    def test_dir_usage_missing_is_zero_not_raise(self, tmp_path):
        assert dir_usage_bytes(str(tmp_path / "nope")) == 0

    def test_disk_free_positive_here_zero_when_unstatable(self, tmp_path):
        assert disk_free_bytes(str(tmp_path)) > 0
        assert disk_free_bytes(str(tmp_path / "nope" / "deeper")) == 0

    def test_rss_is_measurable(self):
        assert process_rss_bytes() > 0

    def test_rss_of_another_process(self):
        assert process_rss_bytes(os.getpid()) > 0
        assert process_rss_bytes(2**22 + 1) == 0  # beyond pid_max: no such process


# ---------------------------------------------------------------------------
# the ENOSPC write guard
# ---------------------------------------------------------------------------


class _Hooks:
    """Recording guard hooks for the unit drills."""

    def __init__(self, gc_raises: bool = False):
        self.degradations: list[dict] = []
        self.gc_calls = 0
        self._gc_raises = gc_raises

    def on_degradation(self, info: dict) -> None:
        self.degradations.append(info)

    def emergency_gc(self) -> None:
        self.gc_calls += 1
        if self._gc_raises:
            raise RuntimeError("GC itself exploded")


@pytest.fixture()
def hooks():
    h = _Hooks()
    handle = install_guard(h.on_degradation, h.emergency_gc)
    yield h
    uninstall_guard(handle)


class TestGuardedWrite:
    def test_clean_write_returns_value(self, hooks):
        assert guarded_write("t", lambda: 42) == 42
        assert hooks.degradations == [] and hooks.gc_calls == 0

    def test_transient_enospc_degrades_and_retries(self, hooks):
        with inject(FaultPlan(Fault("disk.enospc", at=1, count=1))):
            assert guarded_write("t", lambda: "ok") == "ok"
        assert hooks.gc_calls == 1
        [info] = hooks.degradations
        assert info["event"] == "degradation"
        assert info["site"] == "disk.enospc"
        assert info["label"] == "t"
        assert info["fallback"] == "emergency_gc"

    def test_persistent_enospc_raises_retryable(self, hooks):
        with inject(FaultPlan(Fault("disk.enospc", at=1, count=None))):
            with pytest.raises(ResourceExhaustedError) as exc_info:
                guarded_write("t", lambda: "never")
        err = exc_info.value
        assert err.exit_code == 19
        assert err.details["attempts"] == 2
        assert hooks.gc_calls == 1  # once, between the two attempts
        assert len(hooks.degradations) == 2

    def test_real_enospc_from_the_write_itself(self, hooks):
        import errno

        calls = [0]

        def write():
            calls[0] += 1
            if calls[0] == 1:
                raise OSError(errno.ENOSPC, "disk full")
            return "recovered"

        assert guarded_write("t", write) == "recovered"
        assert calls[0] == 2 and hooks.gc_calls == 1

    def test_other_oserror_passes_through_untouched(self, hooks):
        import errno

        def write():
            raise OSError(errno.EACCES, "permission")

        with pytest.raises(OSError) as exc_info:
            guarded_write("t", write)
        assert exc_info.value.errno == errno.EACCES
        assert hooks.degradations == [] and hooks.gc_calls == 0

    def test_hook_failures_never_mask_the_outcome(self):
        h = _Hooks(gc_raises=True)
        handle = install_guard(lambda info: 1 / 0, h.emergency_gc)
        try:
            with inject(FaultPlan(Fault("disk.enospc", at=1, count=1))):
                assert guarded_write("t", lambda: "ok") == "ok"
            assert h.gc_calls == 1
        finally:
            uninstall_guard(handle)

    def test_append_jsonl_enospc_drill(self, hooks, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with inject(FaultPlan(Fault("disk.enospc", at=1, count=1))):
            append_jsonl(path, {"k": 1})
        assert read_jsonl(path) == [{"k": 1}]
        with inject(FaultPlan(Fault("disk.enospc", at=1, count=None))):
            with pytest.raises(ResourceExhaustedError):
                append_jsonl(path, {"k": 2})
        assert read_jsonl(path) == [{"k": 1}]  # failed append left no tear

    def test_checkpoint_save_enospc_drill(self, hooks, tmp_path):
        from repro.runtime.checkpoint import RunDir

        run = RunDir(str(tmp_path / "run"))
        run.save_json("calibration.json", {"zeta": 4})
        with inject(FaultPlan(Fault("disk.enospc", at=1, count=None))):
            with pytest.raises(ResourceExhaustedError):
                run.save_json("calibration.json", {"zeta": 8})
        with open(os.path.join(run.path, "calibration.json")) as f:
            assert json.load(f) == {"zeta": 4}  # previous version intact

    def test_warm_store_enospc_drill(self, hooks, tmp_path):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        for name in ARTIFACTS:
            (run_dir / name).write_bytes(b"artifact")
        warm = WarmArtifactCache(str(tmp_path / "warm"))
        with inject(FaultPlan(Fault("disk.enospc", at=1, count=None))):
            with pytest.raises(ResourceExhaustedError):
                warm.store("key-a", str(run_dir))
        assert not warm.has("key-a")  # no half-written entry
        assert warm.store("key-a", str(run_dir))  # clean disk: succeeds
        assert warm.validate("key-a")


# ---------------------------------------------------------------------------
# governor policy against a fabricated service dir
# ---------------------------------------------------------------------------


class _Env:
    """One fabricated service dir + governor with a controllable clock."""

    def __init__(self, root: str, **kwargs):
        self.paths = ServicePaths(root).ensure()
        self.store = JobStore(self.paths.journal)
        self.store.load()
        self.metrics = ServiceMetrics()
        self.warm = WarmArtifactCache(self.paths.warm)
        self.now = time.time()
        self.governor = ResourceGovernor(
            self.paths, self.store, self.metrics, self.warm,
            clock=lambda: self.now, **kwargs,
        )

    def fill(self, name: str, size: int) -> str:
        path = os.path.join(self.paths.root, name)
        with open(path, "wb") as f:
            f.write(b"\0" * size)
        return path

    def terminal_job(self, state: str = DONE, rundir_bytes: int = 100):
        job = self.store.add(JobSpec(circuit="ibm01", seed=len(
            self.store.jobs())))
        self.store.transition(job.id, state, hpwl=1.0 if state == DONE
                              else None)
        run_dir = self.paths.run_dir(job.id)
        os.makedirs(run_dir, exist_ok=True)
        with open(os.path.join(run_dir, "artifact.bin"), "wb") as f:
            f.write(b"\0" * rundir_bytes)
        return job


class TestGovernorPolicy:
    def test_shedding_hysteresis(self, tmp_path):
        env = _Env(str(tmp_path / "svc"), disk_quota_bytes=1000,
                   high_water=0.8, low_water=0.4)
        ballast = env.fill("ballast.bin", 900)
        env.governor.sample()
        assert env.governor.shedding
        assert "disk pressure" in env.governor.admission_blocked()
        assert env.metrics.gauge("resource_shedding") == 1
        assert env.metrics.counter("pressure_shed_engaged") == 1

        # between low and high water: the latch holds (no flapping)
        os.truncate(ballast, 600)
        env.governor.sample()
        assert env.governor.shedding

        os.truncate(ballast, 100)
        env.governor.sample()
        assert not env.governor.shedding
        assert env.governor.admission_blocked() is None
        assert env.metrics.counter("pressure_shed_released") == 1

    def test_memory_pressure_sheds_admission(self, tmp_path):
        env = _Env(str(tmp_path / "svc"), mem_quota_bytes=1)
        env.governor.sample()
        assert env.governor.shedding
        assert "memory pressure" in env.governor.admission_blocked()

    def test_pressure_fault_sites_force_the_paths(self, tmp_path):
        env = _Env(str(tmp_path / "svc"), disk_quota_bytes=1 << 30)
        with inject(FaultPlan(Fault("disk.pressure", at=1, count=1))):
            env.governor.sample()
        assert env.governor.shedding  # synthetic quota-full sample
        env.governor.sample()  # un-faulted: real usage is tiny again
        assert not env.governor.shedding

        with inject(FaultPlan(Fault("mem.pressure", at=1, count=1))):
            env.governor.sample()
        assert env.governor.shedding
        assert "memory pressure" in env.governor.admission_blocked()

    def test_dispatch_pauses_without_headroom_and_resumes(self, tmp_path):
        env = _Env(str(tmp_path / "svc"), disk_quota_bytes=1000,
                   rundir_projection_bytes=300)
        ballast = env.fill("ballast.bin", 900)
        env.governor.sample()
        assert not env.governor.dispatch_ok()
        assert env.metrics.gauge("resource_dispatch_paused") == 1
        os.truncate(ballast, 100)
        env.governor.sample()
        assert env.governor.dispatch_ok()

    def test_poll_is_rate_limited(self, tmp_path):
        env = _Env(str(tmp_path / "svc"), sample_interval=10.0)
        env.governor.poll()
        first = env.governor._last_sample_ts
        env.now += 5.0
        env.governor.poll()
        assert env.governor._last_sample_ts == first
        env.now += 6.0
        env.governor.poll()
        assert env.governor._last_sample_ts > first

    def test_retention_gc_keeps_newest_and_quarantined(self, tmp_path):
        env = _Env(str(tmp_path / "svc"), retention_runs=1)
        old = env.terminal_job(DONE)
        kept_poison = env.terminal_job(QUARANTINED)
        newest = env.terminal_job(DONE)

        dry = env.governor.gc(dry_run=True)
        assert dry["run_dirs_deleted"] == 1
        assert os.path.isdir(env.paths.run_dir(old.id))  # dry run touched nothing

        summary = env.governor.gc()
        assert summary["run_dirs_deleted"] == 1
        assert summary["run_dir_bytes_freed"] >= 100
        assert not os.path.isdir(env.paths.run_dir(old.id))
        assert os.path.isdir(env.paths.run_dir(newest.id))
        assert os.path.isdir(env.paths.run_dir(kept_poison.id))

        # the deletion left a durable gc record and replay still works
        records = [r for r in read_jsonl(env.paths.journal)
                   if r.get("record") == "gc"]
        assert [r["id"] for r in records] == [old.id]
        assert records[0]["bytes_freed"] >= 100
        replayed = JobStore(env.paths.journal).load()
        assert replayed.get(old.id).state == DONE
        assert replayed.get(kept_poison.id).state == QUARANTINED

    def test_emergency_gc_collects_everything_but_quarantine(self, tmp_path):
        env = _Env(str(tmp_path / "svc"), retention_runs=5)
        done = env.terminal_job(DONE)
        poison = env.terminal_job(QUARANTINED)
        env.governor.emergency_gc()
        assert env.metrics.counter("emergency_gc_runs") == 1
        assert not os.path.isdir(env.paths.run_dir(done.id))
        assert os.path.isdir(env.paths.run_dir(poison.id))

    def test_rejected_ttl_sweep_and_gauge(self, tmp_path):
        env = _Env(str(tmp_path / "svc"), rejected_ttl=60.0)
        os.makedirs(env.paths.rejected, exist_ok=True)
        for name in ("bad.json", "bad.json.reason.json"):
            with open(os.path.join(env.paths.rejected, name), "w") as f:
                f.write("{}")
        env.governor.sample()
        assert env.metrics.gauge("rejected_pending") == 1

        assert env.governor.gc()["rejected_deleted"] == 0  # still fresh
        env.now += 61.0
        assert env.governor.gc()["rejected_deleted"] == 1
        assert os.listdir(env.paths.rejected) == []
        env.governor.sample()
        assert env.metrics.gauge("rejected_pending") == 0

    def test_warm_quota_evicts_lru(self, tmp_path):
        env = _Env(str(tmp_path / "svc"), warm_quota_bytes=1)
        run_dir = tmp_path / "fakerun"
        run_dir.mkdir()
        for name in ARTIFACTS:
            (run_dir / name).write_bytes(b"artifact-bytes")
        env.warm.store("key-a", str(run_dir))
        assert env.warm.total_bytes() > 1
        summary = env.governor.gc()
        assert summary["warm_evicted"] == 1
        assert env.warm.total_bytes() == 0

    def test_sample_over_high_water_auto_collects(self, tmp_path):
        env = _Env(str(tmp_path / "svc"), disk_quota_bytes=1000,
                   high_water=0.5, retention_runs=0)
        env.terminal_job(DONE, rundir_bytes=900)
        env.governor.sample()
        assert env.metrics.counter("gc_runs") >= 1
        assert dir_usage_bytes(env.paths.runs) == 0

    def test_fleet_lease_gates_shared_file_compaction(self, tmp_path):
        class BusyLeases:
            def acquire(self, lease_id):
                return None

            def release(self, lease_id):
                raise AssertionError("never acquired")

        env = _Env(str(tmp_path / "svc"), terminal_cache_quota_bytes=1,
                   journal_quota_bytes=0)
        env.store.add(JobSpec(circuit="ibm01"))  # materialize the journal
        env.governor.leases = BusyLeases()
        with open(env.paths.terminal_cache, "w") as f:
            f.write(json.dumps({"fingerprint": "fp", "assignment": [1],
                                "wirelength": 1.0}) + "\n")
        summary = env.governor.gc()
        assert summary["terminal_cache"] == {"skipped": "lease_busy"}
        assert summary["journal"]["skipped"] == "fleet_live"

    def test_resource_report_and_quota_verdict(self, tmp_path):
        env = _Env(str(tmp_path / "svc"))
        env.terminal_job(DONE, rundir_bytes=500)
        report = resource_report(env.paths, disk_quota_bytes=100)
        assert report["total_bytes"] >= 500
        assert report["run_dirs"] == 1
        assert report["over_quota"] is True
        assert report["breakdown"]["runs"] >= 500


# ---------------------------------------------------------------------------
# end to end: ENOSPC against a live daemon
# ---------------------------------------------------------------------------


class TestWorkerMemory:
    def test_sample_counts_the_live_workers(self, tmp_path):
        """Jobs run in worker processes, so the governor's RSS sample —
        what ``--mem-quota-bytes`` sheds on — must include theirs."""
        service = PlacementService(str(tmp_path / "svc"), workers=1)
        service.scheduler.start()
        try:
            (pid,) = service.scheduler.worker_pids()
            own = process_rss_bytes()
            worker = process_rss_bytes(pid)
            assert worker > 0
            rss = service.governor.sample()["rss_bytes"]
            assert rss >= worker
            assert rss >= own + worker - (4 << 20)  # the sum, not the daemon alone
            assert service.metrics.gauge("resource_rss_bytes") == rss
        finally:
            service.scheduler.stop()
            service.governor.uninstall()
        assert process_rss_bytes(pid) == 0  # stop() ended the worker


class TestServiceDegradation:
    def test_enospc_degrades_quarantines_and_daemon_survives(
        self, aux_path, tmp_path
    ):
        sdir = str(tmp_path / "svc")
        clean = submit_job(sdir, _spec(aux_path, seed=5))
        transient = submit_job(
            sdir,
            _spec(aux_path, seed=6, faults=(("disk.enospc", 1, 1),)),
        )
        poison = submit_job(
            sdir,
            _spec(aux_path, seed=7, faults=(("disk.enospc", 1, None),)),
        )
        service = PlacementService(
            sdir, workers=1, poll_interval=0.02, backoff_base=0.05,
        )
        try:
            service.run(drain=True, max_seconds=150.0)

            assert service.store.get(clean).state == DONE
            faulted = service.store.get(transient)
            assert faulted.state == DONE  # degradation, not failure
            assert service.metrics.counter("resource_degradations") >= 1
            assert service.metrics.counter("emergency_gc_runs") >= 1

            doomed = service.store.get(poison)
            assert doomed.state == QUARANTINED
            assert doomed.error["kind"] == "ResourceExhaustedError"
            assert doomed.attempts == service.supervisor.max_retries + 1

            # the daemon survived: another cycle and a fresh admission
            # still work on the same instance
            followup = submit_job(sdir, _spec(aux_path, seed=5))
            service.run(drain=True, max_seconds=150.0)
            assert service.store.get(followup).state == DONE
        finally:
            service.governor.uninstall()


# ---------------------------------------------------------------------------
# collection keeps every answer
# ---------------------------------------------------------------------------


def _drain(service_dir: str, **governed) -> PlacementService:
    """Drain a one-worker daemon on *service_dir*, then drop its hooks."""
    service = PlacementService(
        service_dir, workers=1, poll_interval=0.02, backoff_base=0.05,
        **governed,
    )
    try:
        service.run(drain=True, max_seconds=150.0)
    finally:
        service.governor.uninstall()
    return service


def _ledger(store: JobStore) -> list[tuple]:
    """The replayed journal, reduced to what collection must keep."""
    return sorted(
        (j.id, j.state, j.attempts, j.hpwl, j.warm_hit,
         (j.error or {}).get("kind"))
        for j in store.jobs()
    )


class TestCollectionKeepsAnswers:
    def test_emergency_gc_keeps_the_ledger_and_warm_answers(self, tmp_path):
        sdir = str(tmp_path / "svc")
        for seed in (3, 4):
            submit_job(sdir, replace(DEFAULT_SPEC, seed=seed))
        service = _drain(sdir)
        before = _ledger(service.store)
        assert [row[1] for row in before] == [DONE, DONE]
        hpwl = {j.spec.seed: j.hpwl for j in service.store.jobs()}

        # the offline collector, as ``repro gc --emergency`` builds it
        paths = ServicePaths(sdir).ensure()
        governor = ResourceGovernor(
            paths, JobStore(paths.journal).load(), ServiceMetrics(),
            WarmArtifactCache(paths.warm), retention_runs=0,
        )
        summary = governor.gc(emergency=True)
        assert summary["run_dirs_deleted"] == 2
        assert _ledger(JobStore(paths.journal).load()) == before

        again = submit_job(sdir, replace(DEFAULT_SPEC, seed=3))
        job = _drain(sdir).store.get(again)
        assert job.state == DONE and job.warm_hit
        assert job.hpwl == hpwl[3]

    def test_soak_footprint_plateaus_under_quota(self, tmp_path):
        """Fresh-seed rounds under a quota sized from round one: growth
        is collected, not accumulated."""
        sdir = str(tmp_path / "soak")
        seed0 = DEFAULT_SPEC.seed + 100
        submit_job(sdir, replace(DEFAULT_SPEC, seed=seed0))
        _drain(sdir)
        round1 = dir_usage_bytes(sdir)
        quota = int(round1 * 2.5)
        governed = dict(
            disk_quota_bytes=quota,
            retention_runs=1,
            warm_quota_bytes=int(
                max(1, dir_usage_bytes(ServicePaths(sdir).warm)) * 1.5
            ),
            journal_quota_bytes=round1,
            terminal_cache_quota_bytes=round1,
            high_water=0.8,
            low_water=0.5,
            rundir_projection_bytes=max(1, round1 // 2),
            resource_sample_interval=0.02,
        )
        for i in range(1, 4):
            job_id = submit_job(sdir, replace(DEFAULT_SPEC, seed=seed0 + i))
            service = _drain(sdir, **governed)
            assert service.store.get(job_id).state == DONE, i
            assert dir_usage_bytes(sdir) <= quota, i
