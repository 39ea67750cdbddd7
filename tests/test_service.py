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
import errno
import json
import multiprocessing
import os
import signal
import stat
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import asdict, dataclass
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MCTSGuidedPlacer, PlacerConfig
from repro.core.config import PRESETS
from repro.netlist.bookshelf import read_aux, write_design
from repro.netlist.generator import generate_design
from repro.runtime import resources
from repro.runtime.checkpoint import RunDir
from repro.runtime.errors import FaultInjected, UsageError
from repro.runtime.faults import Fault, FaultPlan, inject
from repro.runtime.integrity import corrupt_file
from repro.service import (
    CANCELLED,
    DONE,
    FAILED,
    QUARANTINED,
    QUEUED,
    RUNNING,
    Heartbeat,
    JobSpec,
    JobStore,
    PlacementService,
    Scheduler,
    ServiceMetrics,
    ServicePaths,
    WarmArtifactCache,
)
from repro.service.jobs import STATES, TERMINAL_STATES
from repro.service.scheduler import JobRunContext
from repro.service.warm import DESIGN, design_digest, warm_key
from repro.service.service import (
    read_result,
    request_cancel,
    request_stop,
    submit_job,
)
from repro.service.worker import AttemptReply, AttemptRequest, AttemptWorker
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

    @pytest.mark.parametrize("preset", PRESETS)
    @pytest.mark.parametrize("seed", [0, 3])
    def test_cli_place_runs_the_service_config(self, monkeypatch, preset, seed):
        """``repro place`` and a service job of the same spec run one
        config, so their HPWLs agree."""
        from repro import cli

        class Captured(Exception):
            pass

        def capture(config):
            raise Captured(config)

        monkeypatch.setattr(cli, "MCTSGuidedPlacer", capture)
        with pytest.raises(Captured) as got:
            cli.main(["place", "--circuit", "ibm01", "--scale", "0.004",
                      "--macro-scale", "0.04", "--preset", preset,
                      "--seed", str(seed)])
        spec = JobSpec(circuit="ibm01", preset=preset, seed=seed)
        assert got.value.args[0] == spec.build_config()
        assert got.value.args[0].seed == seed

    def test_design_name_is_the_name_build_design_gives(self, aux_path):
        for spec in (
            JobSpec(aux=aux_path),
            JobSpec(circuit="ibm01", scale=0.004, macro_scale=0.04),
            JobSpec(circuit="ibm01", aux=aux_path),  # the .aux wins
        ):
            assert spec.design_name == spec.build_design()[0]
        assert JobSpec(circuit="nosuch").design_name == "nosuch"

    def test_unknown_preset_is_one_usage_error(self):
        with pytest.raises(UsageError) as err:
            PlacerConfig.preset("huge", seed=3)
        assert str(err.value).startswith(
            "unknown preset 'huge'; choose from ['benchmark', 'fast', 'paper']"
        )


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

    def test_first_terminal_wins_in_replay_and_live(self, tmp_path):
        path = str(tmp_path / "jobs.jsonl")
        store = JobStore(path)
        store.add(JobSpec(circuit="ibm01"), job_id="job-x")
        store.transition("job-x", DONE, hpwl=123.0)
        n_lines = len(open(path).readlines())
        # Live: a late transition cannot re-decide the finished job:
        # nothing is applied or journaled, and the stale counter moves.
        late = store.transition("job-x", FAILED, error={"kind": "Late"})
        assert late.state == DONE and late.hpwl == 123.0
        assert store.stale_records == 1
        assert len(open(path).readlines()) == n_lines
        # Replay: a terminal record after the first one, and a second
        # submit of a known id, are dropped the same way.
        with open(path, "a") as f:
            f.write(json.dumps({"record": "state", "id": "job-x",
                                "state": FAILED, "ts": 1.0}) + "\n")
            f.write(json.dumps({"record": "submit", "id": "job-x", "seq": 9,
                                "spec": {"circuit": "ibm02"}}) + "\n")
        replayed = JobStore(path).load()
        job = replayed.get("job-x")
        assert job.state == DONE and job.hpwl == 123.0
        assert job.spec.circuit == "ibm01"
        assert replayed.stale_records == 2

    def test_transition_after_a_torn_tail_survives_reload(self, tmp_path):
        """A daemon killed mid-append leaves a torn fragment; the
        restarted daemon's next transition must not glue onto it."""
        path = str(tmp_path / "jobs.jsonl")
        store = JobStore(path)
        job = store.add(JobSpec(circuit="ibm01"))
        store.transition(job.id, RUNNING, attempt=1)
        with open(path, "a") as f:
            f.write('{"record": "state", "id": "%s", "sta' % job.id)

        restarted = JobStore(path).load()
        restarted.transition(job.id, DONE, hpwl=42.5)
        replayed = JobStore(path).load()
        assert replayed.get(job.id).state == DONE
        assert replayed.get(job.id).hpwl == 42.5

    def test_record_cut_before_its_newline_stays_forgotten(self, tmp_path):
        """An append cut just before its newline is whole JSON; replay
        skips it, and the next append must not bring it back."""
        path = str(tmp_path / "jobs.jsonl")
        store = JobStore(path)
        job = store.add(JobSpec(circuit="ibm01"))
        store.transition(job.id, FAILED, error={"kind": "K"})
        with open(path, "rb+") as f:
            f.truncate(os.path.getsize(path) - 1)

        restarted = JobStore(path).load()
        assert restarted.get(job.id).state == QUEUED
        restarted.transition(job.id, RUNNING, attempt=1)
        replayed = JobStore(path).load()
        assert replayed.get(job.id).state == RUNNING
        assert replayed.stale_records == 0
        assert len(read_jsonl(path)) == 2


def _table(store: JobStore) -> list[dict]:
    return [asdict(job) for job in store.jobs()]


class TestJournalTornTailProperty:
    """Replay of any journal cut at any byte (a kill mid-append, or a
    crash of the disk under it) never raises, keeps exactly the complete
    lines, and takes appends again."""

    OPS = st.lists(
        st.one_of(
            st.tuples(st.just("add"), st.integers(0, 3)),
            st.tuples(st.just("transition"), st.integers(0, 9),
                      st.sampled_from(STATES)),
            st.tuples(st.just("compact")),
        ),
        min_size=1, max_size=20,
    )

    @given(ops=OPS, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_replay_survives_any_torn_tail(self, ops, data):
        with tempfile.TemporaryDirectory() as root:
            path = os.path.join(root, "jobs.jsonl")
            store = JobStore(path)
            ids = [store.add(JobSpec(circuit="ibm01")).id]
            for i, op in enumerate(ops):
                if op[0] == "add":
                    ids.append(store.add(
                        JobSpec(circuit="ibm01", seed=i), priority=op[1]
                    ).id)
                elif op[0] == "transition":
                    store.transition(
                        ids[op[1] % len(ids)], op[2], hpwl=float(i),
                        error={"kind": "K", "at": i},
                    )
                elif op[0] == "compact":
                    store.compact()
            with open(path, "rb") as f:
                raw = f.read()
            # records carry wall-clock stamps, so the journal's length
            # varies from run to run: draw in a fixed range, then fold
            cut = data.draw(st.integers(0, 1 << 20), label="cut") % (
                len(raw) + 1
            )
            with open(path, "wb") as f:
                f.write(raw[:cut])
            complete = os.path.join(root, "complete.jsonl")
            with open(complete, "wb") as f:
                f.write(raw[:raw.rfind(b"\n", 0, cut) + 1])

            loaded = JobStore(path).load()
            assert _table(loaded) == _table(JobStore(complete).load())

            # The first append after the cut lands on a line of its own:
            # a transition of a live job, else a new job and its first
            # transition.
            live = [j for j in loaded.jobs() if not j.terminal]
            if live:
                job_id = live[0].id
            else:
                job_id = loaded.add(JobSpec(circuit="ibm02")).id
            loaded.transition(job_id, RUNNING, attempt=7)
            reloaded = JobStore(path).load()
            assert reloaded.get(job_id).state == RUNNING
            assert reloaded.get(job_id).attempts == 7
            assert _table(reloaded) == _table(loaded)


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
        a budget-doomed sibling — plus the single-shot reference run.

        The doomed sibling has a seed of its own, so it misses the warm
        cache and runs out of time in the prototype, a hard stage; a warm
        job runs no hard stage."""
        sdir = str(tmp_path_factory.mktemp("svc"))
        spec = _spec(aux_path, seed=self.SEED)
        reference = MCTSGuidedPlacer(spec.build_config()).place(
            read_aux(aux_path)
        )

        cold = submit_job(sdir, spec)
        service = PlacementService(sdir, workers=1)
        service.run(drain=True)
        warm = submit_job(sdir, spec)
        doomed = submit_job(sdir, _spec(aux_path, seed=self.SEED + 1,
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

    def test_warm_job_skipped_the_prototype(self, served):
        """The warm entry carries the prototype placement: a warm job
        loads its positions instead of running the prototype."""
        sdir, service, _, ids = served
        (key,) = service.warm.keys()
        assert "prototype.npz" in service.warm.checksums(key)
        run_dir = service.paths.run_dir(ids["warm"])
        events = read_jsonl(os.path.join(run_dir, "events.jsonl"))
        skipped = {e.get("stage") for e in events
                   if e.get("event") == "stage_skipped"}
        assert {"prototype", "calibration", "rl_training"} <= skipped
        assert not [e for e in events if e.get("event") == "stage_start"
                    and e.get("stage") == "prototype"]
        manifest = RunDir(run_dir).read_manifest()
        assert manifest["stages"]["prototype"] == {"completed": True, "warm": True}
        assert read_result(sdir, ids["warm"])["stage_seconds"]["prototype"] == 0.0

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
        # The warm duplicate shares the cold job's fingerprint and hits;
        # the cold job and the budget-doomed sibling (another seed) miss.
        assert counters["warm_hits"] == 1
        assert counters["warm_misses"] == 2
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
        assert snapshot["counters"]["warm_hits"] == 1
        (stored,) = service.warm.keys()
        fingerprints = dict(snapshot["warm_fingerprints"])
        counts = fingerprints.pop(stored)
        assert counts["hits"] == 1 and counts["misses"] == 1
        assert counts["stores"] == 1 and counts["corruptions"] == 0
        # the doomed sibling's key: one miss, never stored
        ((_, doomed),) = fingerprints.items()
        assert doomed["misses"] == 1 and doomed["stores"] == 0
        assert service.warm.hits == 1 and service.warm.misses == 2


class TestWarmPrototype:
    """A warm attempt as the worker runs it, in process: the entry's
    prototype and pre-training artifacts are injected, and the job runs
    only its search."""

    SPEC = JobSpec(circuit="ibm01", scale=0.004, macro_scale=0.04,
                   preset="fast", seed=3)

    @pytest.fixture(scope="class")
    def cold(self, tmp_path_factory):
        """A cold run, and the warm cache it was stored into."""
        root = tmp_path_factory.mktemp("warm")
        _, design = self.SPEC.build_design()
        config = self.SPEC.build_config()
        key, digest = warm_key(config, design), design_digest(design)
        result = MCTSGuidedPlacer(config).place(design, run_dir=str(root / "cold"))
        cache = WarmArtifactCache(str(root / "cache"))
        assert cache.store(key, str(root / "cold"), digest)
        return cache, result

    def _warm(self, cache_root: str, run_dir: str):
        """One attempt on a fresh cache instance: (hit, FlowResult)."""
        cache = WarmArtifactCache(cache_root)
        _, design = self.SPEC.build_design()
        config = self.SPEC.build_config()
        ctx = JobRunContext(run_dir, config, design)
        hit = cache.inject(cache.key(config, design), ctx, design_digest(design))
        return hit, MCTSGuidedPlacer(config).place(design, context=ctx)

    def test_a_warm_job_writes_its_manifest_at_most_six_times(
        self, cold, tmp_path, monkeypatch
    ):
        cache, want = cold
        writes = []
        write_manifest = RunDir.write_manifest

        def counting(run, manifest):
            writes.append(sorted(manifest["stages"]))
            write_manifest(run, manifest)

        monkeypatch.setattr(RunDir, "write_manifest", counting)
        hit, got = self._warm(cache.root, str(tmp_path / "run"))
        monkeypatch.undo()
        assert hit
        assert len(writes) <= 6
        assert got.hpwl == want.hpwl and got.assignment == want.assignment
        skipped = {e.stage for e in got.events.of("stage_skipped")}
        assert skipped == {"prototype", "calibration", "rl_training"}
        assert got.stage_seconds["prototype"] == 0.0

    def test_an_entry_without_the_prototype_is_replaced(self, cold, tmp_path):
        """An entry stored before the prototype was one of its artifacts
        reads as absent: the job runs cold, with the same bits, and
        storing its run dir replaces the entry with a whole one."""
        import shutil

        cache, want = cold
        (key,) = cache.keys()
        old_root = tmp_path / "old"
        shutil.copytree(cache.root, old_root)
        os.remove(old_root / key / "prototype.npz")
        old = WarmArtifactCache(str(old_root))
        assert old.keys() == []

        run_dir = str(tmp_path / "run")
        hit, got = self._warm(str(old_root), run_dir)
        assert not hit
        assert got.hpwl == want.hpwl and got.assignment == want.assignment
        assert not got.events.of("stage_skipped")
        _, design = self.SPEC.build_design()
        assert old.store(key, run_dir, design_digest(design))
        assert old.keys() == [key] and old.validate(key)
        assert self._warm(str(old_root), str(tmp_path / "again"))[0]

    def test_a_damaged_prototype_discards_the_entry(self, cold, tmp_path):
        import shutil

        cache, _ = cold
        (key,) = cache.keys()
        root = tmp_path / "damaged"
        shutil.copytree(cache.root, root)
        corrupt_file(str(root / key / "prototype.npz"))
        hit, _ = self._warm(str(root), str(tmp_path / "run"))
        assert not hit
        assert not WarmArtifactCache(str(root)).has(key)


class TestWarmEntryServesItsOwnDesign:
    def test_a_moved_pad_misses_its_namesakes_entry(self, tmp_path):
        """Two ``.aux`` designs of one name, with equal counts, area and
        region, share a warm key; they differ only in where one fixed pad
        sits.  The second job must not start from the first one's
        prototype (which would put the pad back where the first design
        had it) or its weights: it misses the entry and runs cold."""
        design = generate_design(copy.deepcopy(_SMALL_SPEC))
        first = write_design(design, str(tmp_path / "first"))
        pad = design.netlist.pads[0]
        pad.x += 7.0
        second = write_design(design, str(tmp_path / "second"))
        specs = (_spec(first), _spec(second))
        config = specs[0].build_config()
        (_, a), (_, b) = (spec.build_design() for spec in specs)
        assert warm_key(config, a) == warm_key(config, b)
        assert design_digest(a) != design_digest(b)
        want_x = b.netlist[pad.name].x
        assert want_x != a.netlist[pad.name].x

        sdir = str(tmp_path / "svc")
        service = PlacementService(sdir, workers=1, poll_interval=0.01)
        ids = []
        for spec in specs:
            ids.append(submit_job(sdir, spec))
            service.run(drain=True, max_seconds=120.0)
        results = [read_result(sdir, job_id) for job_id in ids]
        assert [r["state"] for r in results] == [DONE, DONE]
        assert [r["warm_hit"] for r in results] == [False, False]
        run_dir = RunDir(service.paths.run_dir(ids[1]))
        for name in ("prototype", "final_positions"):
            with np.load(run_dir.file(name + ".npz")) as saved:
                (i,) = np.flatnonzero(saved["names"] == pad.name)
                assert saved["x"][i] == want_x, name
        # the entry stays the first design's
        (key,) = service.warm.keys()
        assert service.warm.checksums(key)[DESIGN] == design_digest(a)


class TestTheDaemonBuildsNoDesign:
    def test_the_daemon_never_calls_resolve_design(
        self, aux_path, tmp_path, monkeypatch
    ):
        """The attempt worker builds the design and reports the warm key;
        the daemon journals the design's name from the spec alone."""
        from repro.service import jobs

        daemon = os.getpid()
        resolve = jobs.resolve_design

        def in_workers_only(*args, **kwargs):
            assert os.getpid() != daemon, "the daemon built a design"
            return resolve(*args, **kwargs)

        monkeypatch.setattr(jobs, "resolve_design", in_workers_only)
        sdir = str(tmp_path / "svc")
        service = PlacementService(sdir, workers=1, poll_interval=0.01)
        ids = []
        for _ in range(2):  # cold, then its warm duplicate
            ids.append(submit_job(sdir, _spec(aux_path)))
            service.run(drain=True, max_seconds=120.0)
        cold, warm = (read_result(sdir, job_id) for job_id in ids)
        assert cold["state"] == warm["state"] == DONE
        assert not cold["warm_hit"] and warm["warm_hit"]
        assert cold["hpwl"] == warm["hpwl"]
        assert len(service.warm.keys()) == 1
        designs = {r["design"] for r in read_jsonl(service.store.path)
                   if r.get("state") == RUNNING}
        assert designs == {os.path.splitext(os.path.basename(aux_path))[0]}


class TestUnbuildableJobs:
    """A job whose design or config cannot be built fails like any other
    attempt: once, through the supervisor, with a result file -- it must
    not sit QUEUED forever and keep a draining daemon alive."""

    def test_each_fails_once_and_drain_returns(self, aux_path, tmp_path):
        import shutil

        bad = tmp_path / "bad"
        shutil.copytree(os.path.dirname(aux_path), bad)
        nodes = next(bad.glob("*.nodes"))
        lines = nodes.read_text().splitlines()
        row = next(i for i, l in enumerate(lines) if l.startswith("  "))
        name, _, height, *rest = lines[row].split()
        lines[row] = " ".join(["  " + name, "1.5.0", height, *rest])
        nodes.write_text("\n".join(lines) + "\n")

        sdir = str(tmp_path / "svc")
        jobs = {
            "UsageError": submit_job(sdir, JobSpec(circuit="nosuch", preset="fast")),
            "BookshelfError": submit_job(
                sdir, _spec(str(bad / os.path.basename(aux_path)))
            ),
        }
        knob = submit_job(sdir, _spec(aux_path, overrides=(("mcts.no_such_knob", 3),)))
        good = submit_job(sdir, _spec(aux_path))
        service = PlacementService(sdir, workers=1, poll_interval=0.01)
        started = time.monotonic()
        service.run(drain=True, max_seconds=60.0)
        assert time.monotonic() - started < 60.0  # drained, not timed out

        for kind, job_id in [*jobs.items(), ("UsageError", knob)]:
            job = service.store.get(job_id)
            assert job.state == FAILED and job.attempts == 1, kind
            result = read_result(sdir, job_id)
            assert result["state"] == FAILED and result["attempts"] == 1
            assert result["error"]["kind"] == kind
            records = [r for r in read_jsonl(service.store.path) if r.get("id") == job_id]
            assert [r.get("state") for r in records if r.get("record") == "state"] == [
                RUNNING, FAILED
            ]
        assert read_result(sdir, good)["state"] == DONE


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


def _repro_env() -> dict:
    """Environment for a ``python -m repro`` child of this checkout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        sys.modules["repro"].__file__
    )))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return env


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


class _StubProcess:
    """Stands in for a worker process: counts kills, never runs."""

    pid = 4242

    def __init__(self) -> None:
        self.kills = 0

    def kill(self) -> None:
        self.kills += 1

    def join(self, timeout=None) -> None:
        pass


class TestAttemptRelay:
    """``AttemptWorker.run`` over a real pipe, the worker end driven by a
    thread: the relay is the watchdog."""

    def _relay(self, behave, stall_seconds: float):
        """Relay one attempt to *behave* (called with the worker end and
        a list to record what it receives); returns the reply, the
        handle and the worker end."""
        ours, theirs = multiprocessing.Pipe()
        handle = AttemptWorker()
        handle._process, handle._conn = _StubProcess(), ours
        request = AttemptRequest(
            job_id="job-r", attempt=1, spec=None, config=None, run_dir="",
            resume=False, warm_root="", warm=False, plan=None,
        )
        self.received: list = []
        end = threading.Thread(target=behave, args=(theirs, self.received))
        end.start()
        try:
            reply = handle.run(request, Heartbeat(), stall_seconds)
        finally:
            end.join(10.0)
        assert not end.is_alive()
        return reply, handle, theirs

    def test_a_silent_worker_is_killed_once(self):
        def silent(conn, received):
            received.append(conn.recv()[0])
            conn.send(("beat", "mcts"))

        started = time.monotonic()
        reply, handle, theirs = self._relay(silent, stall_seconds=0.2)
        assert time.monotonic() - started < 5.0
        assert self.received == ["attempt"]
        assert handle._process.kills == 1
        assert reply.summary is None
        assert reply.error["kind"] == "StageStallError"
        assert reply.error["exit_code"] == 16
        assert reply.error["stage"] == "mcts"  # the last relayed stage
        details = reply.error["details"]
        assert details["stall_seconds"] == "0.2"
        assert float(details["stalled_seconds"]) >= 0.2
        assert not theirs.poll()  # nothing else was sent to the worker

    def test_an_emergency_gc_round_trip_counts_as_a_beat(self, monkeypatch):
        gcs = []
        monkeypatch.setattr(resources, "run_emergency_gc",
                            lambda: gcs.append(1))
        done = AttemptReply(None, None, None, {})

        def collecting(conn, received):
            received.append(conn.recv()[0])
            time.sleep(0.6)
            conn.send(("gc",))
            received.append(conn.recv())
            time.sleep(0.6)
            conn.send(("reply", done, []))

        reply, handle, _ = self._relay(collecting, stall_seconds=1.0)
        assert self.received == ["attempt", ("gc_done",)]
        assert handle._process.kills == 0
        assert reply == done
        assert gcs == [1]  # the daemon ran the GC in the relay loop


class TestWorkerLink:
    def test_a_stage_change_is_relayed_at_once(self, monkeypatch):
        from repro.service import worker

        now = [100.0]
        monkeypatch.setattr(
            worker, "time", SimpleNamespace(monotonic=lambda: now[0])
        )
        sent: list = []
        link = worker._Link(SimpleNamespace(send=sent.append))
        link.beat("rl_training")
        link.beat("mcts")
        link.beat("mcts")  # same stage, within BEAT_INTERVAL: held back
        link.beat()
        assert sent == [("beat", "rl_training"), ("beat", "mcts")]
        now[0] += 2 * worker.BEAT_INTERVAL
        link.beat()
        assert sent[2:] == [("beat", "mcts")]


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
        """A solver that hangs without ever polling its budget: the slot
        relaying the attempt kills its worker once the heartbeat is
        ``stall_seconds`` old, and the job is retried on a fresh worker
        in the same slot."""
        marker = str(tmp_path / "hung-once")
        sdir = str(tmp_path / "svc")
        spec = _spec(aux_path, seed=16)
        reference = MCTSGuidedPlacer(spec.build_config()).place(
            read_aux(aux_path)
        )
        job_id = submit_job(sdir, spec)
        workers = 2
        service = PlacementService(sdir, workers=workers, poll_interval=0.02,
                                   stall_seconds=0.3, backoff_base=0.05)
        # a plan installed around the daemon travels with every attempt
        plan = FaultPlan(_HangOnce("trainer.kill", marker=marker))
        service.scheduler.start()
        try:
            with inject(plan):
                deadline = time.monotonic() + 120.0
                while True:
                    service.poll()
                    job = service.store.get(job_id)
                    if job is not None and job.terminal:
                        break
                    assert time.monotonic() < deadline, service.store.counts()
                    time.sleep(0.02)
            slots = [t for t in threading.enumerate()
                     if t.name.startswith("repro-slot-")]
            assert len(slots) == workers
            assert all(t.is_alive() for t in slots)
        finally:
            service.scheduler.stop()
            service.governor.uninstall()
        job = service.store.get(job_id)
        assert job.state == DONE and job.attempts == 2
        assert job.hpwl == reference.hpwl
        assert os.path.exists(marker)
        assert service.metrics.counter("stalls_detected") == 1
        retry = [r for r in _journal_states(service, QUEUED)
                 if r.get("reason") == "retry"]
        assert [r["error"]["kind"] for r in retry] == ["StageStallError"]
        assert retry[0]["error"]["stage"] == "rl_training"
        assert retry[0]["error"]["details"]["stall_seconds"] == "0.3"
        # the hung worker was killed and reaped; attempt 2 ran on another
        hung, fresh = [r["worker"] for r in _journal_states(service, RUNNING)]
        assert hung != fresh and not _alive(hung)

    def test_watchdog_leaves_a_healthy_job_alone(self, aux_path, tmp_path):
        spec = _spec(aux_path, seed=17)
        reference = MCTSGuidedPlacer(spec.build_config()).place(
            read_aux(aux_path)
        )
        sdir = str(tmp_path / "svc")
        job_id = submit_job(sdir, spec)
        service = PlacementService(sdir, workers=1, poll_interval=0.01,
                                   stall_seconds=5.0)
        service.run(drain=True, max_seconds=120.0)
        job = service.store.get(job_id)
        assert job.state == DONE and job.attempts == 1
        assert job.hpwl == reference.hpwl
        assert service.metrics.counter("stalls_detected") == 0

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
    def test_sigkilled_daemon_leaves_no_worker(self, aux_path, tmp_path):
        sdir = str(tmp_path / "svc")
        job_id = submit_job(sdir, _spec(aux_path, seed=15))
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--service-dir", sdir,
             "--workers", "2", "--poll-interval", "0.02"],
            env=_repro_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
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


def _terminal_records(journal: list[dict], job_id: str) -> list[dict]:
    return [
        r for r in journal
        if r.get("id") == job_id and r.get("record") == "state"
        and r.get("state") in TERMINAL_STATES
    ]


class TestOneDaemonPerDir:
    def test_second_serve_on_a_live_dir_exits_64(self, aux_path, tmp_path):
        """A second daemon on a live dir would requeue the first one's
        RUNNING jobs and run every job again: it must exit 64 naming the
        holder, and every job must end with one terminal record."""
        sdir = str(tmp_path / "svc")
        paths = ServicePaths(sdir)
        ids = [submit_job(sdir, _spec(aux_path, seed=s)) for s in (31, 32)]
        serve = [sys.executable, "-m", "repro", "serve", "--service-dir",
                 sdir, "--workers", "1", "--poll-interval", "0.02"]
        first = subprocess.Popen(
            serve, env=_repro_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 60.0
            while not os.path.exists(paths.metrics):  # first poll done
                assert first.poll() is None and time.monotonic() < deadline
                time.sleep(0.01)
            second = subprocess.run(
                [*serve, "--drain"], env=_repro_env(), capture_output=True,
                text=True, timeout=120,
            )
            assert second.returncode == 64, second.stderr
            assert f"pid {first.pid}" in second.stderr
            store = JobStore(paths.journal)
            while store.load().active():
                assert first.poll() is None and time.monotonic() < deadline
                time.sleep(0.02)
            request_stop(sdir)
            assert first.wait(timeout=60) == 0
        finally:
            if first.poll() is None:
                first.kill()
                first.wait()
        journal = read_jsonl(paths.journal)
        for job_id in ids:
            assert store.get(job_id).state == DONE
            assert len(_terminal_records(journal, job_id)) == 1
        assert not [r for r in journal if r.get("reason") == "daemon_restart"]

    def test_lock_refuses_serve_and_gc_until_its_holder_dies(self, tmp_path):
        from repro.cli import main

        sdir = str(tmp_path / "svc")
        ServicePaths(sdir).ensure()
        holder = subprocess.Popen(
            [sys.executable, "-c",
             "import sys, time\n"
             "from repro.service.service import lock_service_dir\n"
             "lock_service_dir(sys.argv[1])\n"
             "print('locked', flush=True)\n"
             "time.sleep(120)\n", sdir],
            env=_repro_env(), stdout=subprocess.PIPE, text=True,
        )
        try:
            assert holder.stdout.readline().strip() == "locked"
            with pytest.raises(UsageError, match=f"pid {holder.pid}"):
                PlacementService(sdir, workers=1)
            assert main(["gc", "--service-dir", sdir, "--emergency"]) == 64
            assert main(["gc", "--service-dir", sdir, "--dry-run"]) == 0
            holder.kill()  # SIGKILL: the kernel drops the lock
            holder.wait()
            assert main(["gc", "--service-dir", sdir, "--emergency"]) == 0
            request_stop(sdir)
            service = PlacementService(sdir, workers=1, poll_interval=0.01)
            service.run()
        finally:
            if holder.poll() is None:
                holder.kill()
                holder.wait()
            holder.stdout.close()


#: an unbuildable job: journalled RUNNING, then FAILED without placing
_NOSUCH = JobSpec(circuit="nosuch")


def _state_records(paths: ServicePaths, job_id: str, state: str) -> list[dict]:
    return [
        r for r in read_jsonl(paths.journal)
        if r.get("id") == job_id and r.get("record") == "state"
        and r.get("state") == state
    ]


class _ServingThread:
    """``PlacementService.run()`` on a thread, idle and waiting on its
    wake once started; a stop on exit, however the test ends."""

    def __init__(self, sdir: str, **kwargs) -> None:
        self.service = PlacementService(sdir, workers=1, **kwargs)
        self.thread = threading.Thread(target=self.service.run, daemon=True)

    def __enter__(self) -> "_ServingThread":
        self.thread.start()
        deadline = time.monotonic() + 60.0
        while not os.path.exists(self.service.paths.metrics):  # first poll
            assert self.thread.is_alive() and time.monotonic() < deadline
            time.sleep(0.01)
        time.sleep(0.5)  # well into the wait
        return self

    def stop(self, within: float) -> float:
        """Request a stop; seconds until ``run()`` returned."""
        asked = time.monotonic()
        request_stop(self.service.paths.root)
        self.thread.join(within)
        return time.monotonic() - asked

    def __exit__(self, *exc) -> None:
        if self.thread.is_alive():
            self.stop(within=60.0)
        self.service.governor.uninstall()


class TestWake:
    """Submissions, cancels, stops, settled attempts and due retries wake
    the daemon: every daemon here polls only every 30 s otherwise."""

    def test_a_submission_to_an_idle_daemon_runs_at_once(self, tmp_path):
        sdir = str(tmp_path / "svc")
        paths = ServicePaths(sdir)
        with _ServingThread(sdir, poll_interval=30.0):
            assert stat.S_ISFIFO(os.lstat(paths.wake).st_mode)
            submitted = time.time()
            job_id = submit_job(sdir, _NOSUCH)
            deadline = time.monotonic() + 10.0
            while not _state_records(paths, job_id, RUNNING):
                assert time.monotonic() < deadline
                time.sleep(0.01)
        [running] = _state_records(paths, job_id, RUNNING)
        assert running["ts"] - submitted < 2.0
        assert not os.path.exists(paths.wake)  # removed when run() returned

    def test_request_stop_ends_the_daemon_at_once(self, tmp_path):
        with _ServingThread(str(tmp_path / "svc"), poll_interval=30.0) as d:
            assert d.stop(within=10.0) < 2.0
            assert not d.thread.is_alive()

    def test_drain_returns_once_the_last_job_settles(self, tmp_path):
        sdir = str(tmp_path / "svc")
        paths = ServicePaths(sdir).ensure()
        os.mkfifo(paths.wake, 0o600)  # as a SIGKILLed daemon leaves it
        job_id = submit_job(sdir, _NOSUCH)
        service = PlacementService(sdir, workers=1, poll_interval=30.0)
        try:
            service.run(drain=True, max_seconds=60.0)
        finally:
            service.governor.uninstall()
        returned = time.time()
        [failed] = _state_records(paths, job_id, FAILED)
        assert returned - failed["ts"] < 2.0
        assert not os.path.exists(paths.wake)

    def test_a_due_retry_starts_at_once(self, aux_path, tmp_path):
        sdir = str(tmp_path / "svc")
        paths = ServicePaths(sdir)
        # every attempt dies at its first training episode: one retry
        spec = _spec(aux_path, faults=(("trainer.kill", 1, 1),))
        job_id = submit_job(sdir, spec)
        service = PlacementService(sdir, workers=1, poll_interval=30.0,
                                   max_retries=1, backoff_base=0.2)
        try:
            service.run(drain=True, max_seconds=60.0)
        finally:
            service.governor.uninstall()
        assert service.store.get(job_id).state == QUARANTINED
        [retry] = [r for r in _state_records(paths, job_id, QUEUED)
                   if r.get("reason") == "retry"]
        assert 0.2 <= retry["retry_delay"] < 0.3
        due = retry["ts"] + retry["retry_delay"]
        first, second = _state_records(paths, job_id, RUNNING)
        assert -0.05 < second["ts"] - due < 1.0

    @pytest.mark.parametrize("wake", ["absent", "no_reader", "full"])
    def test_clients_never_block_or_fail_on_the_wake(self, tmp_path, wake):
        sdir = str(tmp_path / "svc")
        paths = ServicePaths(sdir).ensure()
        fds = []
        if wake != "absent":
            os.mkfifo(paths.wake, 0o600)
        if wake == "full":
            fds.append(os.open(paths.wake, os.O_RDONLY | os.O_NONBLOCK))
            fds.append(os.open(paths.wake, os.O_WRONLY | os.O_NONBLOCK))
            with pytest.raises(BlockingIOError):
                while True:
                    os.write(fds[1], b"\0" * 4096)
        try:
            started = time.monotonic()
            job_id = submit_job(sdir, _NOSUCH)
            request_cancel(sdir, job_id)
            request_stop(sdir)
            assert time.monotonic() - started < 5.0
        finally:
            for fd in fds:
                os.close(fd)
        assert len(os.listdir(paths.inbox)) == 1
        assert os.path.exists(paths.stop_file)

    def test_a_regular_file_at_wake_is_left_alone(self, tmp_path):
        sdir = str(tmp_path / "svc")
        paths = ServicePaths(sdir).ensure()
        with open(paths.wake, "wb") as f:
            f.write(b"not a fifo")
        before = os.stat(paths.wake)
        job_id = submit_job(sdir, _NOSUCH)
        request_cancel(sdir, job_id)
        request_stop(sdir)
        service = PlacementService(sdir, workers=1, poll_interval=30.0)
        try:
            with pytest.raises(UsageError, match=paths.wake) as refused:
                service.run()
        finally:
            service.governor.uninstall()
        assert refused.value.exit_code == 64
        after = os.stat(paths.wake)
        assert (after.st_size, after.st_mtime_ns) == (
            before.st_size, before.st_mtime_ns
        )
        with open(paths.wake, "rb") as f:
            assert f.read() == b"not a fifo"

    def test_without_fifos_the_daemon_polls(self, tmp_path, monkeypatch):
        def no_fifos(path, mode=0o666):
            raise OSError(errno.EPERM, "no FIFOs here", path)

        monkeypatch.setattr(os, "mkfifo", no_fifos)
        sdir = str(tmp_path / "svc")
        paths = ServicePaths(sdir)
        with _ServingThread(sdir, poll_interval=0.05):
            assert not os.path.exists(paths.wake)
            job_id = submit_job(sdir, _NOSUCH)
            deadline = time.monotonic() + 10.0
            while read_result(sdir, job_id) is None:
                assert time.monotonic() < deadline
                time.sleep(0.01)
        assert read_result(sdir, job_id)["state"] == FAILED


class TestOldServiceDirs:
    def test_fleet_written_dir_loads_and_drains(
        self, aux_path, tmp_path, capsys
    ):
        """A service dir that a sharded fleet of an earlier version left
        behind, written as literal journal lines: shard-tagged records,
        lease tokens, a ``lease_reclaim`` transition, a snapshot whose
        jobs carry a shard, a raced re-admission, a fenced zombie's late
        report, and the fleet's leases/, shards/ and fleet_metrics.json.
        It loads, ``repro status --json`` shows it without a ``shard``
        key, and ``repro serve --drain`` finishes it."""
        from repro.cli import main

        sdir = str(tmp_path / "svc")
        paths = ServicePaths(sdir).ensure()
        orphan_spec = _spec(aux_path, seed=33)
        spec = orphan_spec.to_json()
        folded = {
            "id": "job-folded", "priority": 0, "seq": 1, "state": DONE,
            "ts": 1.0, "finished_ts": 2.0, "attempts": 1, "error": None,
            "warm_hit": False, "hpwl": 11.5, "seconds": 0.5,
            "shard": "shard-1", "spec": spec,
        }
        lines = [
            {"record": "snapshot", "shard": "shard-0", "ts": 10.0, "seq": 1,
             "jobs": [folded]},
            {"record": "submit", "shard": "shard-0", "id": "job-reclaimed",
             "ts": 11.0, "seq": 2, "priority": 1, "state": QUEUED,
             "spec": spec},
            {"record": "submit", "shard": "shard-2", "id": "job-reclaimed",
             "ts": 11.5, "seq": 3, "priority": 0, "state": QUEUED,
             "spec": spec},
            {"record": "state", "shard": "shard-0", "id": "job-reclaimed",
             "state": RUNNING, "ts": 12.0, "attempt": 1, "resume": False,
             "cold": False, "worker": 4242},
            {"record": "state", "shard": "shard-1", "id": "job-reclaimed",
             "state": QUEUED, "ts": 13.0, "reason": "lease_reclaim",
             "token": 2},
            {"record": "state", "shard": "shard-1", "id": "job-reclaimed",
             "state": RUNNING, "ts": 14.0, "attempt": 2, "resume": True,
             "cold": False, "worker": 4343},
            {"record": "state", "shard": "shard-1", "id": "job-reclaimed",
             "state": DONE, "ts": 15.0, "hpwl": 12.5, "warm_hit": False,
             "seconds": 1.0, "error": None},
            {"record": "state", "shard": "shard-0", "id": "job-reclaimed",
             "state": FAILED, "ts": 15.5, "error": {"kind": "Zombie"}},
            {"record": "submit", "shard": "shard-2", "id": "job-orphan",
             "ts": 16.0, "seq": 4, "priority": 0, "state": QUEUED,
             "spec": spec},
            {"record": "state", "shard": "shard-2", "id": "job-orphan",
             "state": RUNNING, "ts": 17.0, "attempt": 1, "resume": False,
             "cold": False, "worker": 4444, "token": 1},
        ]
        with open(paths.journal, "w") as f:
            f.write("".join(json.dumps(r) + "\n" for r in lines))
        os.makedirs(os.path.join(sdir, "leases"))
        with open(os.path.join(sdir, "leases", "job-orphan.lease"), "w") as f:
            json.dump({"job_id": "job-orphan", "shard": "shard-2",
                       "token": 1, "nonce": "ab12", "expires": 18.0}, f)
        os.makedirs(os.path.join(sdir, "shards"))
        with open(os.path.join(sdir, "shards", "shard-2.json"), "w") as f:
            json.dump({"shard": "shard-2", "counters": {}}, f)
        with open(os.path.join(sdir, "fleet_metrics.json"), "w") as f:
            json.dump({"n_shards": 3, "counters": {"jobs_done": 2}}, f)

        def table(store):
            return {j.id: (j.state, j.attempts, j.hpwl, j.priority)
                    for j in store.jobs()}

        store = JobStore(paths.journal).load()
        assert table(store) == {
            "job-folded": (DONE, 1, 11.5, 0),
            "job-reclaimed": (DONE, 2, 12.5, 1),
            "job-orphan": (RUNNING, 1, None, 0),
        }
        assert store.stale_records == 2  # the raced submit, the zombie
        assert main(["status", "--service-dir", sdir, "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert {j["id"] for j in status["jobs"]} == set(table(store))
        assert not [j for j in status["jobs"] if "shard" in j]

        assert main(["serve", "--service-dir", sdir, "--workers", "1",
                     "--drain"]) == 0
        reference = MCTSGuidedPlacer(orphan_spec.build_config()).place(
            read_aux(aux_path)
        )
        drained = JobStore(paths.journal).load()
        assert table(drained) == {
            **table(store), "job-orphan": (DONE, 2, reference.hpwl, 0),
        }
        journal = read_jsonl(paths.journal)
        assert [r["id"] for r in journal
                if r.get("reason") == "daemon_restart"] == ["job-orphan"]
        assert len(_terminal_records(journal, "job-orphan")) == 1


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
