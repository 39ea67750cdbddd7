"""Placement service: job store, scheduler, warm reuse, metrics, daemon.

The integration tests drive :class:`~repro.service.service.PlacementService`
through the same file protocol the CLI verbs use and assert the ISSUE
acceptance properties:

- a duplicate-fingerprint job skips pre-training via the warm artifact
  cache and lands on the *bit-for-bit* same HPWL as an uninterrupted
  single-shot run of the same spec;
- a daemon restarted after dying mid-job resumes the RUNNING job from
  its per-job checkpoints (no re-queue of completed jobs);
- a budget-exceeding job fails with a structured error without taking
  down the scheduler or its sibling jobs;
- ``metrics.json`` carries queue depth, per-state counts, per-stage
  latency histograms, and warm/terminal cache hit counters;
- attempts run in one worker process per scheduler slot: two slots place
  two jobs at once with the HPWLs of one slot, a worker killed
  mid-attempt costs one transient retry, and a SIGKILLed daemon leaves
  no worker behind.
"""

from __future__ import annotations

import copy
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import pytest

from repro.core import MCTSGuidedPlacer
from repro.netlist.bookshelf import read_aux, write_design
from repro.netlist.generator import generate_design
from repro.runtime.errors import FaultInjected, UsageError
from repro.runtime.faults import Fault, FaultPlan, inject
from repro.service import (
    CANCELLED,
    DONE,
    FAILED,
    QUARANTINED,
    QUEUED,
    RUNNING,
    JobSpec,
    JobStore,
    PlacementService,
    Scheduler,
    ServiceMetrics,
    ServicePaths,
    WarmArtifactCache,
)
from repro.service.service import (
    read_result,
    request_cancel,
    request_stop,
    submit_job,
)
from repro.utils.events import read_jsonl
from tests.conftest import _SMALL_SPEC


@pytest.fixture(scope="module")
def aux_path(tmp_path_factory) -> str:
    """The small generated design exported as a Bookshelf bundle, so job
    specs and the single-shot reference build the identical netlist."""
    design = generate_design(copy.deepcopy(_SMALL_SPEC))
    return write_design(design, str(tmp_path_factory.mktemp("aux")))


def _spec(aux: str, **overrides) -> JobSpec:
    base = dict(aux=aux, preset="fast", seed=5)
    base.update(overrides)
    return JobSpec(**base)


# ---------------------------------------------------------------------------
# unit level: specs, store, metrics, scheduler, warm keys
# ---------------------------------------------------------------------------


class TestJobSpec:
    def test_validate_needs_a_source(self):
        with pytest.raises(UsageError):
            JobSpec().validate()

    def test_validate_rejects_unknown_preset(self):
        with pytest.raises(UsageError):
            JobSpec(circuit="ibm01", preset="huge").validate()

    def test_json_roundtrip_ignores_unknown_keys(self):
        spec = JobSpec(circuit="ibm01", seed=9, budget_seconds=3.5)
        payload = dict(spec.to_json(), future_field="ignored")
        assert JobSpec.from_json(payload) == spec

    def test_build_config_applies_seed_and_knobs(self, tmp_path):
        spec = JobSpec(circuit="ibm01", seed=11)
        cfg = spec.build_config(terminal_cache_path=str(tmp_path / "tc"))
        assert cfg.seed == 11
        assert cfg.terminal_cache_path == str(tmp_path / "tc")


class TestJobStore:
    def test_replay_reproduces_state(self, tmp_path):
        path = str(tmp_path / "jobs.jsonl")
        store = JobStore(path)
        a = store.add(JobSpec(circuit="ibm01"), priority=2)
        b = store.add(JobSpec(circuit="ibm02"))
        store.transition(a.id, RUNNING, attempt=1)
        store.transition(a.id, DONE, hpwl=42.5, warm_hit=True, seconds=1.25)
        store.transition(b.id, CANCELLED)

        replayed = JobStore(path).load()
        ra, rb = replayed.get(a.id), replayed.get(b.id)
        assert ra.state == DONE and ra.hpwl == 42.5 and ra.warm_hit
        assert ra.seconds == 1.25 and ra.attempts == 1
        assert ra.finished_ts and rb.finished_ts
        assert rb.state == CANCELLED
        assert replayed.counts() == {
            QUEUED: 0, RUNNING: 0, DONE: 1, FAILED: 0, CANCELLED: 1,
            QUARANTINED: 0,
        }

    def test_torn_tail_forgets_only_last_transition(self, tmp_path):
        path = str(tmp_path / "jobs.jsonl")
        store = JobStore(path)
        job = store.add(JobSpec(circuit="ibm01"))
        store.transition(job.id, RUNNING, attempt=1)
        with open(path, "a") as f:
            f.write('{"record": "state", "id": "%s", "sta' % job.id)

        replayed = JobStore(path).load()
        assert replayed.get(job.id).state == RUNNING
        assert replayed.queue_depth() == 0

    def test_flipped_high_bit_drops_only_that_record(self, tmp_path):
        path = str(tmp_path / "jobs.jsonl")
        store = JobStore(path)
        lost = store.add(JobSpec(circuit="ibm01"))
        kept = store.add(JobSpec(circuit="ibm02"))
        store.transition(kept.id, RUNNING, attempt=1)
        store.transition(kept.id, DONE, hpwl=42.5)
        with open(path, "rb") as f:
            data = bytearray(f.read())
        data[2] ^= 0x80  # inside the first submit record: no longer UTF-8
        with open(path, "wb") as f:
            f.write(data)

        replayed = JobStore(path).load()
        assert replayed.get(lost.id) is None
        assert replayed.get(kept.id).state == DONE
        assert replayed.get(kept.id).hpwl == 42.5

    def test_restart_after_compact_replays_identically(self, tmp_path):
        path = str(tmp_path / "jobs.jsonl")
        store = JobStore(path)
        done = store.add(JobSpec(circuit="ibm01"), priority=1)
        store.transition(done.id, RUNNING, attempt=1)
        store.transition(done.id, DONE, hpwl=42.5, warm_hit=True, seconds=1.25)
        poison = store.add(JobSpec(circuit="ibm02"))
        store.transition(poison.id, RUNNING, attempt=1)
        store.transition(poison.id, QUEUED)
        store.transition(poison.id, RUNNING, attempt=2)
        store.transition(
            poison.id, QUARANTINED, error={"kind": "PoisonError"}
        )
        live = store.add(JobSpec(circuit="ibm03"), priority=3)

        def ledger(s):
            return [
                (j.id, j.state, j.attempts, j.hpwl, j.warm_hit, j.priority,
                 (j.error or {}).get("kind"))
                for j in sorted(s.jobs(), key=lambda j: j.seq)
            ]

        before = ledger(store)
        summary = store.compact()
        assert summary["jobs_folded"] == 2 and summary["jobs_live"] == 1
        assert summary["after_bytes"] < summary["before_bytes"]

        restarted = JobStore(path).load()
        assert ledger(restarted) == before
        assert restarted.counts() == store.counts()
        assert [j.id for j in restarted.in_state(QUEUED)] == [live.id]

        # the compacted journal is a normal journal: the live job keeps
        # transitioning and a restart replays the continuation too
        restarted.transition(live.id, RUNNING, attempt=1)
        restarted.transition(live.id, DONE, hpwl=7.0)
        final = JobStore(path).load()
        assert final.get(live.id).state == DONE
        assert final.get(done.id).hpwl == 42.5
        assert final.get(poison.id).state == QUARANTINED

        # torn tail after compaction is still forgotten, nothing else
        with open(path, "a") as f:
            f.write('{"record": "state", "id": "%s", "sta' % live.id)
        torn = JobStore(path).load()
        assert ledger(torn) == ledger(final)

    def test_priority_then_fifo_order(self, tmp_path):
        store = JobStore(str(tmp_path / "jobs.jsonl"))
        low = store.add(JobSpec(circuit="ibm01"), priority=0)
        high = store.add(JobSpec(circuit="ibm01"), priority=5)
        low2 = store.add(JobSpec(circuit="ibm01"), priority=0)
        assert [j.id for j in store.in_state(QUEUED)] == [
            high.id, low.id, low2.id,
        ]

    def test_duplicate_id_rejected(self, tmp_path):
        store = JobStore(str(tmp_path / "jobs.jsonl"))
        job = store.add(JobSpec(circuit="ibm01"))
        with pytest.raises(UsageError):
            store.add(JobSpec(circuit="ibm01"), job_id=job.id)


class TestServiceMetrics:
    def test_counters_gauges_histograms(self):
        m = ServiceMetrics()
        m.inc("hits")
        m.inc("hits", 2)
        m.set_gauge("depth", 7)
        for v in (1.0, 2.0, 3.0, 4.0, 5.0):
            m.observe("latency", v)
        snap = m.snapshot()
        assert snap["counters"]["hits"] == 3
        assert snap["gauges"]["depth"] == 7
        hist = snap["histograms"]["latency"]
        assert hist["count"] == 5 and hist["sum"] == 15.0
        assert hist["min"] == 1.0 and hist["max"] == 5.0
        assert hist["mean"] == 3.0
        assert hist["p50"] == 3.0 and hist["p90"] == 5.0

    def test_write_merges_top_level(self, tmp_path):
        m = ServiceMetrics()
        m.inc("n")
        path = str(tmp_path / "metrics.json")
        m.write(path, queue_depth=3)
        payload = json.load(open(path))
        assert payload["queue_depth"] == 3
        assert payload["counters"]["n"] == 1
        assert "ts" in payload


class _FakeJob:
    def __init__(self, job_id, priority, seq):
        self.id, self.priority, self.seq = job_id, priority, seq


class TestScheduler:
    def test_priority_then_fifo_dispatch(self):
        ran: list[str] = []
        done = threading.Event()

        def execute(job_id):
            ran.append(job_id)
            if len(ran) == 3:
                done.set()

        sched = Scheduler(execute, lambda _id: True, workers=1)
        sched.enqueue(_FakeJob("low", 0, 1))
        sched.enqueue(_FakeJob("high", 9, 2))
        sched.enqueue(_FakeJob("low2", 0, 3))
        sched.start()
        assert done.wait(5.0)
        sched.stop()
        assert ran == ["high", "low", "low2"]

    def test_cancelled_jobs_skipped_and_enqueue_idempotent(self):
        ran: list[str] = []
        sched = Scheduler(ran.append, lambda job_id: job_id != "dead",
                          workers=1)
        assert sched.enqueue(_FakeJob("dead", 0, 1))
        assert not sched.enqueue(_FakeJob("dead", 0, 1))
        sched.enqueue(_FakeJob("alive", 0, 2))
        sched.start()
        deadline = 5.0
        while not sched.idle() and deadline > 0:
            import time

            time.sleep(0.01)
            deadline -= 0.01
        sched.stop()
        assert ran == ["alive"]


class TestWarmKeys:
    def test_key_separates_config_and_design(self, aux_path, tmp_path):
        cache = WarmArtifactCache(str(tmp_path / "warm"))
        design = read_aux(aux_path)
        cfg_a = _spec(aux_path, seed=1).build_config()
        cfg_b = _spec(aux_path, seed=2).build_config()
        assert cache.key(cfg_a, design) == cache.key(cfg_a, design)
        assert cache.key(cfg_a, design) != cache.key(cfg_b, design)
        assert not cache.has(cache.key(cfg_a, design))

    def test_execution_knobs_do_not_split_the_key(self, aux_path, tmp_path):
        """terminal_cache_path is an execution knob: two jobs differing
        only there must share warm artifacts."""
        cache = WarmArtifactCache(str(tmp_path / "warm"))
        design = read_aux(aux_path)
        cfg_a = _spec(aux_path).build_config()
        cfg_b = _spec(aux_path).build_config(
            terminal_cache_path=str(tmp_path / "tc.jsonl")
        )
        assert cache.key(cfg_a, design) == cache.key(cfg_b, design)


# ---------------------------------------------------------------------------
# integration: admission, cancellation, warm reuse, budgets, restart
# ---------------------------------------------------------------------------


class TestAdmissionAndCancel:
    def test_backpressure_rejects_beyond_max_queue(self, aux_path, tmp_path):
        sdir = str(tmp_path / "svc")
        ids = [submit_job(sdir, _spec(aux_path, seed=i)) for i in range(3)]
        service = PlacementService(sdir, workers=1, max_queue=1)
        service.poll()  # admit without any workers running

        states = {i: service.store.get(i).state for i in ids}
        assert states[ids[0]] == QUEUED
        assert states[ids[1]] == states[ids[2]] == FAILED
        for rejected in ids[1:]:
            result = read_result(sdir, rejected)
            assert result["state"] == FAILED
            assert result["error"]["kind"] == "Backpressure"
        assert service.metrics.counter("jobs_rejected") == 2
        snapshot = json.load(open(service.paths.metrics))
        assert snapshot["queue_depth"] == 1
        assert snapshot["jobs"][FAILED] == 2

    def test_cancel_queued_via_control_file(self, aux_path, tmp_path):
        sdir = str(tmp_path / "svc")
        job_id = submit_job(sdir, _spec(aux_path))
        service = PlacementService(sdir, workers=1)
        service.poll()
        assert service.store.get(job_id).state == QUEUED

        request_cancel(sdir, job_id)
        request_cancel(sdir, "job-does-not-exist")
        service.poll()
        assert service.store.get(job_id).state == CANCELLED
        assert read_result(sdir, job_id)["state"] == CANCELLED
        assert service.metrics.counter("jobs_cancelled") == 1
        assert service.metrics.counter("cancel_unknown") == 1

        # Terminal jobs refuse further cancels; drain skips the corpse.
        assert not service.cancel(job_id)
        assert service.metrics.counter("cancel_refused") == 1
        service.run(drain=True)
        assert service.store.get(job_id).state == CANCELLED

    def test_stop_file_ends_the_daemon(self, aux_path, tmp_path):
        sdir = str(tmp_path / "svc")
        request_stop(sdir)
        service = PlacementService(sdir, workers=1, poll_interval=0.01)
        service.run()  # would serve forever without the stop file
        assert not os.path.exists(service.paths.stop_file)


class TestWarmReuseAndBudgets:
    SEED = 5

    @pytest.fixture(scope="class")
    def served(self, aux_path, tmp_path_factory):
        """One drained daemon serving a cold job, its warm duplicate, and
        a budget-doomed sibling — plus the single-shot reference run."""
        sdir = str(tmp_path_factory.mktemp("svc"))
        spec = _spec(aux_path, seed=self.SEED)
        reference = MCTSGuidedPlacer(spec.build_config()).place(
            read_aux(aux_path)
        )

        cold = submit_job(sdir, spec)
        service = PlacementService(sdir, workers=1)
        service.run(drain=True)
        warm = submit_job(sdir, spec)
        doomed = submit_job(sdir, _spec(aux_path, seed=self.SEED,
                                        budget_seconds=0.002))
        service.run(drain=True)
        return sdir, service, reference, {
            "cold": cold, "warm": warm, "doomed": doomed,
        }

    def test_warm_duplicate_is_bitwise_identical(self, served):
        sdir, service, reference, ids = served
        cold = read_result(sdir, ids["cold"])
        warm = read_result(sdir, ids["warm"])
        assert cold["state"] == warm["state"] == DONE
        assert not cold["warm_hit"] and warm["warm_hit"]
        assert cold["hpwl"] == reference.hpwl
        assert warm["hpwl"] == reference.hpwl
        assert warm["best_hpwl"] == cold["best_hpwl"]

    def test_warm_job_skipped_pretraining(self, served):
        sdir, service, _, ids = served
        events = read_jsonl(os.path.join(
            service.paths.run_dir(ids["warm"]), "events.jsonl"
        ))
        names = [e.get("event") for e in events]
        assert "warm_artifacts_injected" in names
        skipped = {e.get("stage") for e in events
                   if e.get("event") == "stage_skipped"}
        assert {"calibration", "rl_training"} <= skipped

    def test_budget_failure_is_structured_and_isolated(self, served):
        sdir, service, _, ids = served
        doomed = read_result(sdir, ids["doomed"])
        assert doomed["state"] == FAILED
        assert doomed["error"]["kind"] == "StageTimeoutError"
        assert doomed["error"]["exit_code"] == 14
        # The sibling submitted alongside it still completed.
        assert read_result(sdir, ids["warm"])["state"] == DONE

    def test_metrics_surface_is_complete(self, served):
        _, service, _, ids = served
        snapshot = json.load(open(service.paths.metrics))
        assert snapshot["queue_depth"] == 0
        assert snapshot["jobs"][DONE] == 2
        assert snapshot["jobs"][FAILED] == 1
        counters = snapshot["counters"]
        # The warm duplicate AND the budget-doomed sibling share the cold
        # job's fingerprint (the budget is a job knob, not config), so
        # both hit; only the cold job misses.
        assert counters["warm_hits"] == 2
        assert counters["warm_misses"] == 1
        assert counters["terminal_cache_hits"] > 0
        assert counters["terminal_cache_misses"] > 0
        hists = snapshot["histograms"]
        assert "job_seconds" in hists
        for stage in ("prototype", "calibration", "rl_training", "mcts",
                      "final"):
            assert hists[f"stage_seconds.{stage}"]["count"] >= 1
        assert snapshot["gauges"]["warm_cache_entries"] == 1

    def test_worker_warm_counts_reach_the_metrics(self, served):
        """Injection runs in the attempt's worker process; the hits and
        misses it saw land in the daemon's cache and ``metrics.json``."""
        _, service, _, _ = served
        snapshot = json.load(open(service.paths.metrics))
        assert snapshot["counters"]["warm_hits"] == 2
        ((key, counts),) = snapshot["warm_fingerprints"].items()
        assert key in service.warm.keys()
        assert counts["hits"] == 2 and counts["misses"] == 1
        assert counts["stores"] == 1 and counts["corruptions"] == 0
        assert service.warm.hits == 2 and service.warm.misses == 1


class TestRestartRecovery:
    def test_restart_resumes_running_job_bitwise(self, aux_path, tmp_path):
        sdir = str(tmp_path / "svc")
        spec = _spec(aux_path, seed=8)
        done_id = submit_job(sdir, spec)
        PlacementService(sdir, workers=1).run(drain=True)

        # Simulate a daemon dying mid-job: journal a RUNNING job whose
        # run dir holds a partial checkpoint (killed at episode 13).
        paths = ServicePaths(sdir)
        crashed = JobSpec(aux=spec.aux, preset="fast", seed=21)
        config = crashed.build_config(
            terminal_cache_path=paths.terminal_cache
        )
        crash_id = "job-crashed00001"
        with pytest.raises(FaultInjected):
            MCTSGuidedPlacer(config).place(
                read_aux(spec.aux),
                run_dir=paths.run_dir(crash_id),
                faults=FaultPlan(Fault("trainer.kill", at=13)),
            )
        store = JobStore(paths.journal).load()
        store.add(crashed, job_id=crash_id)
        store.transition(crash_id, RUNNING, attempt=1)
        reference = MCTSGuidedPlacer(crashed.build_config()).place(
            read_aux(spec.aux)
        )

        restarted = PlacementService(sdir, workers=1)
        assert restarted.store.get(crash_id).state == QUEUED
        assert restarted.store.get(done_id).state == DONE
        assert restarted.metrics.counter("jobs_recovered") == 1
        restarted.run(drain=True)

        result = read_result(sdir, crash_id)
        assert result["state"] == DONE
        assert result["attempts"] == 2
        assert result["hpwl"] == reference.hpwl
        # The completed job was not re-queued or re-run on restart.
        assert restarted.store.get(done_id).attempts == 1
        running = [r for r in read_jsonl(paths.journal)
                   if r.get("record") == "state"
                   and r.get("state") == RUNNING]
        assert [r["id"] for r in running].count(done_id) == 1
        # The recovered attempt went down the resume path.
        assert running[-1]["id"] == crash_id and running[-1]["resume"]


@dataclass
class _HangOnce(Fault):
    """A fault that never fires.  Its first arrival, in whichever process
    polls the site, hangs the caller without a beat or a budget poll —
    a hung solver; the marker file keeps later attempts from hanging."""

    marker: str = ""

    def arrive(self) -> bool:
        if not os.path.exists(self.marker):
            open(self.marker, "w").close()
            time.sleep(600)
        return False


def _journal_states(service, state: str) -> list[dict]:
    return [r for r in read_jsonl(service.store.path)
            if r.get("record") == "state" and r.get("state") == state]


def _children(pid: int) -> list[int]:
    """Pids whose parent is *pid* (Linux ``/proc``)."""
    out = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                fields = f.read().rpartition(")")[2].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            out.append(int(name))
    return out


def _alive(pid: int) -> bool:
    """Running — neither gone nor a zombie waiting for its reaper."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            state = f.read().rpartition(")")[2].split()[0]
    except OSError:
        return False
    return state not in ("Z", "X")


class TestWorkerProcesses:
    def test_two_slots_place_two_jobs_at_once_bitwise(self, aux_path, tmp_path):
        specs = [_spec(aux_path, seed=s) for s in (11, 12)]
        hpwls = {}
        for workers in (1, 2):
            sdir = str(tmp_path / f"w{workers}")
            ids = [submit_job(sdir, spec) for spec in specs]
            service = PlacementService(sdir, workers=workers,
                                       poll_interval=0.01)
            service.run(drain=True, max_seconds=150.0)
            assert [service.store.get(i).state for i in ids] == [DONE, DONE]
            hpwls[workers] = [service.store.get(i).hpwl for i in ids]
        running = {r["id"]: r for r in _journal_states(service, RUNNING)}
        done = {r["id"]: r for r in _journal_states(service, DONE)}
        # the two RUNNING -> DONE intervals overlap ...
        assert max(running[i]["ts"] for i in ids) < min(
            done[i]["ts"] for i in ids
        )
        # ... in two different worker processes ...
        pids = {running[i]["worker"] for i in ids}
        assert len(pids) == 2 and os.getpid() not in pids
        # ... and the answers are those of one slot, bit for bit
        assert hpwls[2] == hpwls[1]

    def test_killed_worker_costs_one_transient_retry(self, aux_path, tmp_path):
        sdir = str(tmp_path / "svc")
        spec = _spec(aux_path, seed=13)
        reference = MCTSGuidedPlacer(spec.build_config()).place(
            read_aux(aux_path)
        )
        job_id = submit_job(sdir, spec)
        service = PlacementService(sdir, workers=2, poll_interval=0.01,
                                   backoff_base=0.05)
        killed: list[int] = []

        def serve_until_done(job_id: str) -> None:
            deadline = time.monotonic() + 150.0
            while True:
                service.poll()
                job = service.store.get(job_id)
                if job is not None and job.state == DONE:
                    return
                if not killed and job is not None and job.state == RUNNING:
                    pid = _journal_states(service, RUNNING)[-1]["worker"]
                    os.kill(pid, signal.SIGKILL)  # mid-attempt
                    killed.append(pid)
                assert time.monotonic() < deadline, service.store.counts()
                time.sleep(0.01)

        service.scheduler.start()
        try:
            serve_until_done(job_id)
            job = service.store.get(job_id)
            assert job.attempts == 2 and job.hpwl == reference.hpwl
            retry = [r for r in _journal_states(service, QUEUED)
                     if r.get("reason") == "retry"]
            assert [r["error"]["kind"] for r in retry] == ["WorkerDied"]
            assert service.metrics.counter("jobs_retried") == 1
            # the daemon keeps serving, on a pool back to two live workers
            followup = submit_job(sdir, _spec(aux_path, seed=14))
            serve_until_done(followup)
            pids = service.scheduler.worker_pids()
            assert len(pids) == 2 and killed[0] not in pids
        finally:
            service.scheduler.stop()
            service.governor.uninstall()
        assert not any(_alive(pid) for pid in pids)  # stop() ended them

    def test_watchdog_kills_a_hung_worker(self, aux_path, tmp_path):
        """A solver that hangs without ever polling its budget: watchdog
        phase 2 kills the worker, the job is retried on a fresh one, and
        the abandoned attempt's report of its death is dropped."""
        marker = str(tmp_path / "hung-once")
        sdir = str(tmp_path / "svc")
        job_id = submit_job(sdir, _spec(aux_path, seed=16))
        service = PlacementService(sdir, workers=1, poll_interval=0.02,
                                   stall_seconds=0.3, backoff_base=0.05)
        # a plan installed around the daemon travels with every attempt
        plan = FaultPlan(_HangOnce("trainer.kill", marker=marker))
        try:
            with inject(plan):
                service.run(drain=True, max_seconds=120.0)
        finally:
            service.governor.uninstall()
        job = service.store.get(job_id)
        assert job.state == DONE and job.attempts == 2
        assert os.path.exists(marker)
        assert service.metrics.counter("jobs_abandoned") == 1
        assert service.metrics.counter("stale_attempts_dropped") == 1
        abandoned = [r for r in _journal_states(service, QUEUED)
                     if r.get("reason") == "retry"]
        assert "watchdog abandoned" in abandoned[0]["error"]["message"]

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
    def test_sigkilled_daemon_leaves_no_worker(self, aux_path, tmp_path):
        sdir = str(tmp_path / "svc")
        job_id = submit_job(sdir, _spec(aux_path, seed=15))
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            sys.modules["repro"].__file__
        )))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--service-dir", sdir,
             "--workers", "2", "--poll-interval", "0.02"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            store = JobStore(ServicePaths(sdir).journal)
            deadline = time.monotonic() + 60.0
            while True:
                job = store.load().get(job_id)
                if job is not None and job.state == RUNNING:
                    break
                assert job is None or job.state == QUEUED, job.state
                assert time.monotonic() < deadline, "the job never started"
                time.sleep(0.005)
            workers = _children(daemon.pid)
            assert len(workers) == 2
            daemon.kill()  # SIGKILL mid-job: no cleanup runs
            daemon.wait()
            deadline = time.monotonic() + 5.0
            while any(_alive(p) for p in workers):
                assert time.monotonic() < deadline, [
                    p for p in workers if _alive(p)
                ]
                time.sleep(0.05)
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()


class TestCLIService:
    def test_cli_roundtrip(self, aux_path, tmp_path, capsys):
        from repro.cli import main

        sdir = str(tmp_path / "svc")
        assert main(["submit", "--service-dir", sdir, "--aux", aux_path,
                     "--preset", "fast", "--seed", "6"]) == 0
        job_id = capsys.readouterr().out.strip()
        assert main(["serve", "--service-dir", sdir, "--workers", "1",
                     "--drain"]) == 0
        assert main(["status", "--service-dir", sdir]) == 0
        out = capsys.readouterr().out
        assert job_id in out and "DONE=1" in out
        assert main(["result", "--service-dir", sdir, "--job", job_id]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["state"] == DONE and result["hpwl"] > 0
