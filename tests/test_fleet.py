"""Sharded placement fleet (PR 6).

Covers the lease protocol (exclusive create, expiry steal with fencing
token + nonce read-back, renewal, same-shard takeover, release), the
shared multi-writer journal (incremental refresh, first-submit-wins /
first-terminal-wins replay, two OS processes appending concurrently),
fleet-wide metrics aggregation, in-process shard cooperation (work
sharing, reclaim of a dead shard's QUEUED and RUNNING jobs, fencing of
disowned attempts), and — as the capstone — the multi-process shard-kill
drill at reduced scale.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from dataclasses import replace

import pytest

from repro.parallel import TerminalCache
from repro.service.chaos import FLEET_KILL, run_drill
from repro.service.fleet import (
    FleetPaths,
    FleetShard,
    LeaseManager,
    fleet_status,
    write_fleet_metrics,
)
from repro.service.jobs import (
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    JobSpec,
    JobStore,
)
from repro.service.service import submit_job

#: tiny-but-real spec: one full flow run in well under a second
SPEC = JobSpec(
    circuit="ibm01", scale=0.004, macro_scale=0.04, preset="fast", seed=3
)


class FakeClock:
    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# -- lease protocol -----------------------------------------------------------
class TestLeaseProtocol:
    def test_exclusive_create_blocks_peers(self, tmp_path):
        clock = FakeClock()
        a = LeaseManager(str(tmp_path), "a", ttl=5.0, clock=clock)
        b = LeaseManager(str(tmp_path), "b", ttl=5.0, clock=clock)
        lease = a.acquire("job-1")
        assert lease is not None and lease.token == 1
        assert a.owns("job-1")
        assert b.acquire("job-1") is None
        assert not b.owns("job-1")

    def test_acquire_is_idempotent_for_the_owner(self, tmp_path):
        a = LeaseManager(str(tmp_path), "a", ttl=5.0, clock=FakeClock())
        first = a.acquire("job-1")
        again = a.acquire("job-1")
        assert again is first

    def test_expired_lease_is_stolen_with_higher_token(self, tmp_path):
        clock = FakeClock()
        a = LeaseManager(str(tmp_path), "a", ttl=5.0, clock=clock)
        b = LeaseManager(str(tmp_path), "b", ttl=5.0, clock=clock)
        a.acquire("job-1")
        clock.advance(5.1)
        stolen = b.acquire("job-1")
        assert stolen is not None and stolen.token == 2
        assert b.owns("job-1")
        # the old owner discovers the loss at its next renewal
        assert not a.renew("job-1")
        assert not a.owns("job-1")

    def test_renewal_keeps_a_lease_alive_past_the_ttl(self, tmp_path):
        clock = FakeClock()
        a = LeaseManager(str(tmp_path), "a", ttl=5.0, clock=clock)
        b = LeaseManager(str(tmp_path), "b", ttl=5.0, clock=clock)
        a.acquire("job-1")
        for _ in range(3):
            clock.advance(4.0)
            assert a.renew("job-1")
        assert b.acquire("job-1") is None  # still live after 12s of ttl=5

    def test_same_shard_takeover_skips_the_ttl(self, tmp_path):
        clock = FakeClock()
        a1 = LeaseManager(str(tmp_path), "a", ttl=5.0, clock=clock)
        a1.acquire("job-1")
        # Replacement daemon under the same shard id: supersedes its dead
        # predecessor immediately — no TTL wait.
        a2 = LeaseManager(str(tmp_path), "a", ttl=5.0, clock=clock)
        lease = a2.acquire("job-1")
        assert lease is not None and lease.token == 2
        assert not a1.renew("job-1")

    def test_release_frees_the_id(self, tmp_path):
        clock = FakeClock()
        a = LeaseManager(str(tmp_path), "a", ttl=5.0, clock=clock)
        b = LeaseManager(str(tmp_path), "b", ttl=5.0, clock=clock)
        a.acquire("job-1")
        a.release("job-1")
        assert not a.owns("job-1")
        fresh = b.acquire("job-1")
        assert fresh is not None and fresh.token == 1

    def test_corrupt_lease_file_is_stealable(self, tmp_path):
        clock = FakeClock()
        b = LeaseManager(str(tmp_path), "b", ttl=5.0, clock=clock)
        with open(tmp_path / "job-1.lease", "w") as f:
            f.write("not json at all")
        lease = b.acquire("job-1")
        assert lease is not None and lease.token == 1

    def test_racing_stealers_last_writer_wins(self, tmp_path):
        clock = FakeClock()
        a = LeaseManager(str(tmp_path), "a", ttl=5.0, clock=clock)
        b = LeaseManager(str(tmp_path), "b", ttl=5.0, clock=clock)
        c = LeaseManager(str(tmp_path), "c", ttl=5.0, clock=clock)
        a.acquire("job-1")
        clock.advance(6.0)
        expired = a._read("job-1")
        # Both stealers observed the same expired lease; their replaces
        # race and the read-back decides: the later write wins, the
        # earlier contender is fenced out.
        assert b._steal("job-1", expired) is not None
        assert c._steal("job-1", expired) is not None
        assert c.owns("job-1")
        assert not b.renew("job-1")
        assert not b.owns("job-1")

    def test_renewal_detects_mid_flight_theft(self, tmp_path):
        clock = FakeClock()
        a = LeaseManager(str(tmp_path), "a", ttl=5.0, clock=clock)
        b = LeaseManager(str(tmp_path), "b", ttl=5.0, clock=clock)
        a.acquire("job-1")
        clock.advance(6.0)
        assert b.acquire("job-1") is not None
        assert not a.renew("job-1")  # write-back loses to b's newer nonce
        assert b.renew("job-1")


# -- the shared multi-writer journal ------------------------------------------
class TestSharedJournal:
    def test_refresh_folds_in_peer_appends(self, tmp_path):
        path = str(tmp_path / "jobs.jsonl")
        a = JobStore(path).load()
        b = JobStore(path).load()
        job = a.add(SPEC, job_id="job-x")
        assert b.get("job-x") is None
        b.refresh()
        assert b.get("job-x").state == QUEUED
        b.transition("job-x", RUNNING, attempt=1)
        a.refresh()
        assert a.get("job-x").state == RUNNING
        assert a.get("job-x").attempts == 1
        assert job.id == "job-x"

    def test_first_terminal_wins_in_replay_and_live(self, tmp_path):
        path = str(tmp_path / "jobs.jsonl")
        a = JobStore(path).load()
        b = JobStore(path).load()
        a.add(SPEC, job_id="job-x")
        b.refresh()
        a.transition("job-x", DONE, hpwl=123.0)
        b.refresh()
        n_records = len(open(path).readlines())
        # A fenced-out writer trying to re-decide the finished job is a
        # no-op: nothing journaled, stale counter bumped.
        result = b.transition("job-x", FAILED, error={"kind": "Zombie"})
        assert result.state == DONE
        assert b.stale_records >= 1
        assert len(open(path).readlines()) == n_records
        assert JobStore(path).load().get("job-x").hpwl == 123.0

    def test_own_records_reapply_as_noops(self, tmp_path):
        path = str(tmp_path / "jobs.jsonl")
        a = JobStore(path).load()
        a.add(SPEC, job_id="job-x")
        a.transition("job-x", RUNNING, attempt=1)
        a.transition("job-x", DONE, hpwl=9.0)
        before = {j.id: (j.state, j.hpwl) for j in a.jobs()}
        a.refresh()  # re-reads its own appends
        assert {j.id: (j.state, j.hpwl) for j in a.jobs()} == before

    def test_shard_tag_lands_in_every_record(self, tmp_path):
        path = str(tmp_path / "jobs.jsonl")
        a = JobStore(path)
        a.tag = {"shard": "shard-7"}
        a.load()
        a.add(SPEC, job_id="job-x")
        a.transition("job-x", RUNNING, attempt=1)
        records = [json.loads(line) for line in open(path)]
        assert all(r["shard"] == "shard-7" for r in records)
        reloaded = JobStore(path).load()
        assert reloaded.get("job-x").shard == "shard-7"

    def test_two_processes_append_concurrently(self, tmp_path):
        """Two OS processes hammer one journal and one terminal-cache
        file; the replayed state is the exact union — no loss, no
        duplicates, no corrupt entries."""
        journal = str(tmp_path / "jobs.jsonl")
        cache_path = str(tmp_path / "terminal_cache.jsonl")
        n = 60
        script = (
            "import sys\n"
            "from repro.service.jobs import JobSpec, JobStore\n"
            "from repro.parallel import TerminalCache\n"
            "who, journal, cache_path, n = sys.argv[1:5]\n"
            "n = int(n)\n"
            "store = JobStore(journal)\n"
            "store.tag = {'shard': who}\n"
            "store.load()\n"
            "cache = TerminalCache('fp', path=cache_path)\n"
            "spec = JobSpec(circuit='ibm01')\n"
            "for i in range(n):\n"
            "    store.add(spec, job_id=f'job-{who}-{i}')\n"
            "    store.transition(f'job-{who}-{i}', 'DONE', hpwl=float(i))\n"
            "    cache.put([ord(who), i], float(i))\n"
            "    cache.put([0, i], float(i))  # shared key, same value\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, who, journal, cache_path,
                 str(n)],
                env=env,
            )
            for who in ("a", "b")
        ]
        assert [p.wait() for p in procs] == [0, 0]

        store = JobStore(journal).load()
        jobs = store.jobs()
        assert len(jobs) == 2 * n
        assert {j.id for j in jobs} == {
            f"job-{who}-{i}" for who in "ab" for i in range(n)
        }
        assert all(j.state == DONE for j in jobs)
        # every line parses whole: single-syscall appends never interleave
        for line in open(journal):
            json.loads(line)
        cache = TerminalCache("fp", path=cache_path)
        assert cache.corrupt_entries == 0
        assert len(cache) == 3 * n  # a-keys + b-keys + shared keys
        for i in range(n):
            assert cache.get([0, i]) == float(i)


# -- fleet metrics aggregation ------------------------------------------------
class TestFleetMetrics:
    def test_merge_counters_gauges_histograms(self, tmp_path):
        paths = FleetPaths(str(tmp_path)).ensure()
        for shard, done in (("s0", 2), ("s1", 3)):
            snap = {
                "shard": shard,
                "ts": 1.0,
                "queue_depth": 0,
                "jobs": {"DONE": done},
                "counters": {"jobs_done": done, "leases_lost": 1},
                "gauges": {"leases_held": 1},
                "histograms": {
                    "job_seconds": {
                        "count": done, "sum": float(done), "mean": 1.0,
                        "min": 0.5, "max": 1.5, "p50": 1.0, "p90": 1.5,
                    }
                },
            }
            with open(paths.shard_metrics(shard), "w") as f:
                json.dump(snap, f)
        merged = write_fleet_metrics(paths, counts={"DONE": 5})
        assert merged["n_shards"] == 2
        assert merged["counters"]["jobs_done"] == 5
        assert merged["counters"]["leases_lost"] == 2
        assert merged["gauges"]["leases_held"] == 2
        hist = merged["histograms"]["job_seconds"]
        assert hist["count"] == 5 and hist["sum"] == 5.0
        assert hist["min"] == 0.5 and hist["max"] == 1.5
        assert "p50" not in hist  # cross-shard percentiles are dropped
        assert os.path.exists(paths.fleet_metrics)


# -- in-process shard cooperation ---------------------------------------------
def _shard(tmp_path, name, **kw):
    kw.setdefault("lease_ttl", 5.0)
    kw.setdefault("poll_interval", 0.01)
    kw.setdefault("backoff_base", 0.05)
    return FleetShard(str(tmp_path), shard=name, **kw)


def _drive(shards, total, timeout=90.0):
    for s in shards:
        s.scheduler.start()
    deadline = time.monotonic() + timeout
    try:
        while time.monotonic() < deadline:
            for s in shards:
                s.poll()
            counts = shards[0].store.counts()
            if sum(counts[st] for st in TERMINAL_STATES) >= total:
                return
            time.sleep(0.01)
        raise AssertionError(
            f"fleet did not converge: {shards[0].store.counts()}"
        )
    finally:
        for s in shards:
            s.scheduler.stop()


class TestFleetShard:
    def test_two_shards_share_one_directory(self, tmp_path):
        ids = [
            submit_job(str(tmp_path), JobSpec(**{**SPEC.to_json(), "seed": s}))
            for s in (3, 4)
        ]
        a = _shard(tmp_path, "a")
        b = _shard(tmp_path, "b")
        _drive([a, b], total=2)
        for shard in (a, b):
            shard.store.refresh()
            for job_id in ids:
                job = shard.store.get(job_id)
                assert job.state == DONE and job.hpwl is not None
                assert job.shard in ("a", "b")
        # leases are released once jobs are terminal
        a.poll()
        b.poll()
        assert fleet_status(str(tmp_path))["leases"] == []
        # every result file exists exactly once
        for job_id in ids:
            assert os.path.exists(a.paths.result_file(job_id))

    def test_queued_orphan_reclaimed_after_ttl(self, tmp_path):
        job_id = submit_job(str(tmp_path), SPEC)
        a = _shard(tmp_path, "a", lease_ttl=0.2)
        a.poll()  # admits + leases the job; scheduler never started = death
        assert a.store.get(job_id).state == QUEUED
        b = _shard(tmp_path, "b", lease_ttl=0.2)
        b.poll()
        assert not b.leases.owns(job_id)  # a's lease still live
        time.sleep(0.25)
        _drive([b], total=1)
        job = b.store.get(job_id)
        assert job.state == DONE and job.shard == "b"

    def test_running_orphan_reclaimed_and_resumed(self, tmp_path):
        job_id = submit_job(str(tmp_path), SPEC)
        a = _shard(tmp_path, "a", lease_ttl=0.2)
        a.poll()
        # Simulate a SIGKILL mid-run: the journal says RUNNING, the lease
        # stops being renewed, and the daemon is gone.
        a.store.transition(job_id, RUNNING, attempt=1)
        time.sleep(0.25)
        b = _shard(tmp_path, "b", lease_ttl=5.0)
        _drive([b], total=1)
        job = b.store.get(job_id)
        assert job.state == DONE
        assert job.attempts == 2  # the reclaimed attempt, not a fresh job
        assert b.metrics.counter("jobs_reclaimed") == 1
        journal = [json.loads(line) for line in open(b.store.path)]
        assert any(r.get("reason") == "lease_reclaim" for r in journal)

    def test_unleased_attempt_is_fenced(self, tmp_path):
        a = _shard(tmp_path, "a")
        job = a.store.add(SPEC, job_id="job-x")
        # No lease held (a peer owns it): the executor must drop the
        # attempt before journaling anything.
        a._execute(job.id)
        assert a.store.get("job-x").state == QUEUED
        assert a.metrics.counter("stale_lease_drops") == 1

    def test_lost_lease_cancels_the_running_heartbeat(self, tmp_path):
        a = _shard(tmp_path, "a", lease_ttl=0.2)
        a.store.add(SPEC, job_id="job-x")
        assert a.leases.acquire("job-x") is not None
        hb = a.supervisor.begin("job-x", 1)
        time.sleep(0.25)
        b = _shard(tmp_path, "b", lease_ttl=5.0)
        assert b.leases.acquire("job-x") is not None  # steals the expired lease
        a._renew_leases()
        assert not a.leases.owns("job-x")
        assert hb.cancelled
        assert a.metrics.counter("leases_lost") == 1


# -- the capstone: whole-shard SIGKILL drill ----------------------------------
class TestFleetDrill:
    def test_shard_kill_drill_reduced_scale(self, tmp_path):
        row = replace(FLEET_KILL, jobs=2, kills=1, lease_ttl=1.0)
        report = run_drill(str(tmp_path), (row,))
        failed = [
            c for s in report["scenarios"] for c in s["checks"] if not c["ok"]
        ]
        assert report["ok"], f"failed checks: {failed}"
        fleet = report["scenarios"][-1]
        assert fleet["name"] == "fleet_kill"
        assert {c["name"]: c["ok"] for c in fleet["checks"]}["kills"]
        states = {j["state"] for j in fleet["jobs"]}
        assert states == {"DONE", "QUARANTINED"}


# -- `fleet serve` hands every option to its shards ---------------------------
def _subparser(parser, *names):
    for name in names:
        (sub,) = [
            a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)
        ]
        parser = sub.choices[name]
    return parser


class TestFleetServeArgv:
    def test_every_fleet_option_reaches_each_shard(self, tmp_path, monkeypatch):
        """A non-default value for every option ``fleet serve`` shares with
        ``fleet shard`` must reach each shard's argv unchanged."""
        from repro import cli

        argv = ["fleet", "serve", "--service-dir", str(tmp_path),
                "--shards", "2"]
        for action in _subparser(cli.build_parser(), "fleet", "serve")._actions:
            if action.dest in ("help", "service_dir", "shards"):
                continue
            flag = action.option_strings[0]
            if action.nargs == 0:
                argv.append(flag)
            else:
                value = action.type(3) + action.type(action.default or 1)
                argv += [flag, str(value)]
        launched = []

        class Shard:
            def __init__(self, cmd):
                launched.append(cmd)

            def wait(self):
                return 0

        monkeypatch.setattr(subprocess, "Popen", Shard)
        assert cli.main(argv) == 0
        served = vars(cli.build_parser().parse_args(argv))
        assert len(launched) == 2
        for i, cmd in enumerate(launched):
            assert cmd[:5] == [sys.executable, "-m", "repro", "fleet", "shard"]
            shard = vars(cli.build_parser().parse_args(cmd[3:]))
            assert shard["shard"] == f"shard-{i}"
            for dest, value in served.items():
                if dest not in ("fleet_command", "func", "shards"):
                    assert shard[dest] == value, dest
