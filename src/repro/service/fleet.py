"""Sharded placement fleet: crash-safe work-stealing daemons.

A *fleet* is N :class:`~repro.service.service.PlacementService` daemons
(shards) sharing one service directory on a common filesystem.  Clients
are unchanged — they drop submissions into the same inbox and read the
same result files.  The shards coordinate through files only; there is
no coordinator process and no lock that can be held across a crash:

- **Leases** (``leases/<job_id>.lease``) are the only ownership
  mechanism.  A shard must hold a job's lease to admit it, run it, or
  journal its transitions.  A lease file carries the owning shard id, a
  monotonically increasing **fencing token**, a unique **nonce**, and a
  wall-clock **expiry** that the owner refreshes every poll cycle (the
  daemon's poll loop is the lease heartbeat).  Acquisition is an atomic
  exclusive create (tmp file + ``os.link`` — lease files are never
  torn); takeover of an *expired* lease is an atomic ``os.replace``
  with ``token + 1`` followed by a read-back: whoever's nonce survived
  the race owns the job (last-writer-wins among concurrent stealers).

- **Crash recovery is lease expiry.**  A SIGKILLed shard stops
  refreshing; once its leases expire, peers reclaim its jobs: a QUEUED
  orphan is simply enqueued, a RUNNING orphan is journaled back to
  QUEUED (``reason="lease_reclaim"``) and re-dispatched — its shared
  run dir already holds integrity-checked checkpoints, so the PR 1
  resume path replays completed stages and the whole-shard loss costs
  at most one stage of recompute, never a wrong answer.

- **Fencing makes the dual-ownership window harmless.**  Between a
  lease being stolen and the old owner noticing, both shards may run
  the same job.  That is safe by construction: the flow is
  deterministic (both compute byte-identical artifacts), every run-dir
  write is an atomic rename, and every *decision* — journal
  transitions, result files, warm-cache publication — is gated on
  :meth:`FleetShard._still_owner`.  The journal replay adds a second,
  independent guard: *first terminal wins*, so even a fenced-out
  zombie's late append cannot re-decide a finished job.  Losing a
  lease also cancels the local attempt's heartbeat, so the disowned
  attempt unwinds at its next progress poll instead of running to
  completion for nothing.

- **Shared caches.**  The warm-artifact cache (atomic rename + sha256
  manifest) and the terminal cache (single-``write``-syscall JSONL
  appends, per-entry sha256 validated on read, last-writer-wins) are
  fleet-wide: any shard's finished stage warms every peer.

- **Metrics.**  Each shard snapshots to ``shards/<shard>.json``;
  :func:`write_fleet_metrics` merges them (counters sum, gauges sum,
  histograms combine) with fleet-wide job counts into
  ``fleet_metrics.json``.

The shard-kill drill (the ``fleet_kill`` row of
:mod:`repro.service.chaos`) SIGKILLs whole shards mid-fleet and gates
on: every job DONE with HPWL bit-identical to a single-daemon reference,
or QUARANTINED with a journaled reason — never lost, duplicated, or
silently corrupted.
"""

from __future__ import annotations

import json
import os
import time
import uuid
from dataclasses import dataclass

from repro.runtime.errors import ResourceExhaustedError
from repro.service.jobs import (
    QUEUED,
    RUNNING,
    Job,
    JobSpec,
    JobStore,
    ServicePaths,
    new_job_id,
    write_json_atomic,
)
from repro.service.service import PlacementService
from repro.utils.events import read_jsonl


# -- layout -----------------------------------------------------------------
@dataclass(frozen=True)
class FleetPaths(ServicePaths):
    """Service directory layout plus the fleet's coordination files."""

    @property
    def leases(self) -> str:
        return os.path.join(self.root, "leases")

    @property
    def shards(self) -> str:
        """Per-shard metrics snapshots (``shards/<shard>.json``)."""
        return os.path.join(self.root, "shards")

    @property
    def fleet_metrics(self) -> str:
        return os.path.join(self.root, "fleet_metrics.json")

    def lease_file(self, job_id: str) -> str:
        return os.path.join(self.leases, job_id + ".lease")

    def shard_metrics(self, shard: str) -> str:
        return os.path.join(self.shards, shard + ".json")

    def ensure(self) -> "FleetPaths":
        super().ensure()
        for d in (self.leases, self.shards):
            os.makedirs(d, exist_ok=True)
        return self


# -- leases -----------------------------------------------------------------
@dataclass
class Lease:
    """One job's ownership record as stored in its lease file."""

    job_id: str
    shard: str
    #: fencing token — strictly increases across ownership changes, so
    #: any two owners in a job's history are ordered
    token: int
    #: unique per-acquisition id; the read-back after a contested write
    #: compares nonces to learn who actually won
    nonce: str
    #: wall-clock expiry; the owner refreshes it every poll cycle
    expires: float

    def to_json(self) -> dict:
        return {
            "job_id": self.job_id,
            "shard": self.shard,
            "token": self.token,
            "nonce": self.nonce,
            "expires": self.expires,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "Lease":
        return cls(
            job_id=str(payload["job_id"]),
            shard=str(payload["shard"]),
            token=int(payload["token"]),
            nonce=str(payload["nonce"]),
            expires=float(payload["expires"]),
        )


class LeaseManager:
    """Lease acquisition, renewal, and theft for one shard.

    All mutation is by atomic filesystem primitives (``link`` for
    exclusive create, ``replace`` for takeover), so a crash at any
    instruction leaves either the old lease or the new one — never a
    torn file, and never a lock a peer must wait out beyond the TTL.

    *clock* is injectable so tests can expire leases without sleeping.
    """

    def __init__(
        self,
        leases_dir: str,
        shard: str,
        ttl: float = 10.0,
        clock=time.time,
    ) -> None:
        self.dir = leases_dir
        self.shard = shard
        self.ttl = float(ttl)
        self.clock = clock
        #: job id -> our live Lease (in-memory ownership view; renewal
        #: against the file is what detects losing a lease)
        self._owned: dict[str, Lease] = {}

    def _path(self, job_id: str) -> str:
        return os.path.join(self.dir, job_id + ".lease")

    def _read(self, job_id: str) -> Lease | None:
        try:
            with open(self._path(job_id)) as f:
                return Lease.from_json(json.load(f))
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, KeyError, TypeError, ValueError, OSError):
            # Lease writes are atomic, so damage is external (disk fault,
            # hand edit).  Treat it as an expired token-0 lease: stealable.
            return Lease(job_id, "?corrupt", 0, "", 0.0)

    def _write(self, lease: Lease) -> None:
        tmp = os.path.join(
            self.dir, f".{lease.job_id}.{self.shard}.{uuid.uuid4().hex[:6]}.tmp"
        )
        with open(tmp, "w") as f:
            json.dump(lease.to_json(), f, sort_keys=True)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, self._path(lease.job_id))

    # -- ownership -------------------------------------------------------------
    def owns(self, job_id: str) -> bool:
        """In-memory ownership check (the fencing fast path).

        Authoritative loss detection happens in :meth:`renew`, which
        runs every poll cycle; between renewals this view can be at most
        one cycle stale, which the journal's first-terminal-wins replay
        and the owner checks at every decision point absorb.
        """
        return job_id in self._owned

    def owned_ids(self) -> list[str]:
        return list(self._owned)

    def token(self, job_id: str) -> int | None:
        lease = self._owned.get(job_id)
        return None if lease is None else lease.token

    def acquire(self, job_id: str) -> Lease | None:
        """Try to take *job_id*'s lease; None means a live peer owns it.

        Succeeds when the lease is free, expired, corrupt, or held by
        this shard id (a previous incarnation of us — the replacement
        daemon supersedes its dead predecessor without waiting out the
        TTL; with one live daemon per shard id this is always safe).
        """
        held = self._owned.get(job_id)
        if held is not None:
            return held
        cur = self._read(job_id)
        if cur is None:
            return self._create(job_id)
        if cur.shard != self.shard and self.clock() < cur.expires:
            return None  # live peer
        return self._steal(job_id, cur)

    def _create(self, job_id: str) -> Lease | None:
        """Exclusive create via tmp + ``os.link`` (atomic, never torn)."""
        lease = Lease(
            job_id, self.shard, token=1, nonce=uuid.uuid4().hex,
            expires=self.clock() + self.ttl,
        )
        tmp = os.path.join(
            self.dir, f".{job_id}.{self.shard}.{uuid.uuid4().hex[:6]}.tmp"
        )
        with open(tmp, "w") as f:
            json.dump(lease.to_json(), f, sort_keys=True)
            f.flush()
            os.fsync(f.fileno())
        try:
            os.link(tmp, self._path(job_id))
        except FileExistsError:
            return None  # lost the create race; caller may retry next cycle
        finally:
            os.unlink(tmp)
        self._owned[job_id] = lease
        return lease

    def _steal(self, job_id: str, cur: Lease) -> Lease | None:
        """Replace an expired/corrupt/own-shard lease, then read back.

        ``os.replace`` is last-writer-wins: of N concurrent stealers the
        file ends up holding exactly one nonce, and the read-back tells
        each contender whether it was theirs.  The fencing token strictly
        increases because every contender writes ``cur.token + 1`` over
        the same observed token.
        """
        lease = Lease(
            job_id, self.shard, token=cur.token + 1, nonce=uuid.uuid4().hex,
            expires=self.clock() + self.ttl,
        )
        self._write(lease)
        after = self._read(job_id)
        if after is None or after.nonce != lease.nonce:
            return None  # a peer's replace landed after ours
        self._owned[job_id] = lease
        return lease

    def renew(self, job_id: str) -> bool:
        """Refresh our lease's expiry; False means we lost it.

        Loss (the file now carries someone else's nonce — a peer stole
        an expired lease, perhaps during a long GC pause or scheduler
        starvation on our side) drops the in-memory claim immediately so
        every subsequent :meth:`owns` check fences this shard out.
        """
        held = self._owned.get(job_id)
        if held is None:
            return False
        cur = self._read(job_id)
        if cur is None or cur.nonce != held.nonce:
            del self._owned[job_id]
            return False
        held.expires = self.clock() + self.ttl
        self._write(held)
        after = self._read(job_id)
        if after is None or after.nonce != held.nonce:
            # A peer deemed us expired and replaced the file between our
            # read and write-back (or right after).  Their replace wins.
            self._owned.pop(job_id, None)
            return False
        return True

    def release(self, job_id: str) -> None:
        """Drop a lease we hold (only after its job is terminal).

        Racy-by-design but safe: by the time a lease is released the
        job's fate is sealed in the journal (first terminal wins), so
        even if a peer acquired the id after our unlink it would find a
        terminal job and do nothing.
        """
        held = self._owned.pop(job_id, None)
        if held is None:
            return
        cur = self._read(job_id)
        if cur is not None and cur.nonce == held.nonce:
            try:
                os.unlink(self._path(job_id))
            except FileNotFoundError:
                pass

    def live_leases(self) -> list[Lease]:
        """Every parseable lease currently on disk (status surface)."""
        try:
            names = os.listdir(self.dir)
        except FileNotFoundError:
            return []
        out = []
        for name in sorted(names):
            if not name.endswith(".lease"):
                continue
            lease = self._read(name[: -len(".lease")])
            if lease is not None:
                out.append(lease)
        return out


# -- the shard daemon -------------------------------------------------------
class FleetShard(PlacementService):
    """One fleet member: a PlacementService whose every decision about a
    job is gated on holding that job's lease."""

    def __init__(
        self,
        service_dir: str,
        shard: str | None = None,
        lease_ttl: float = 10.0,
        **kwargs,
    ) -> None:
        paths = FleetPaths(service_dir).ensure()
        self.shard = shard or f"shard-{uuid.uuid4().hex[:8]}"
        self.leases = LeaseManager(paths.leases, self.shard, ttl=lease_ttl)
        super().__init__(service_dir, paths=paths, **kwargs)
        # Tag every journal append with our shard id (observability: the
        # journal shows which shard decided each transition).
        self.store.tag = {"shard": self.shard}

    # -- recovery --------------------------------------------------------------
    def _recover(self) -> None:
        """Fleet shards never blanket-requeue RUNNING jobs on start.

        The single-daemon recovery rule ("RUNNING at startup means the
        daemon died mid-job") is wrong in a fleet: a RUNNING job is most
        likely live *on a peer*.  Recovery is instead continuous — the
        reclaim scan in :meth:`poll` re-queues exactly those non-terminal
        jobs whose lease this shard can legitimately take (missing,
        expired, or left by our own dead predecessor)."""

    # -- fencing ---------------------------------------------------------------
    def _still_owner(self, job_id: str) -> bool:
        return self.leases.owns(job_id)

    def _dispatchable(self, job_id: str) -> bool:
        return super()._dispatchable(job_id) and self.leases.owns(job_id)

    # -- poll cycle ------------------------------------------------------------
    def poll(self) -> None:
        self.governor.poll()  # sample pressure, publish gauges, auto-GC
        self.store.refresh()  # fold in peers' journal appends
        self._renew_leases()
        self._release_terminal_leases()
        admitted = self._poll_inbox()
        self._poll_control()
        self.supervisor.check_stalls()
        for job_id in self.supervisor.due_retries():
            job = self.store.get(job_id)
            if job is not None and job.state == QUEUED:
                self.scheduler.enqueue(job)
        reclaimed = self._reclaim_orphans()
        for job in admitted + reclaimed:
            if job.state == QUEUED:
                self.scheduler.enqueue(job)
        self.write_metrics()

    def _renew_leases(self) -> None:
        """Refresh every held lease; losing one fences the local attempt.

        This poll-loop call *is* the lease heartbeat: a shard that stops
        polling (SIGKILL, hang) stops renewing, and its leases expire on
        their own — no cross-process cleanup required."""
        for job_id in self.leases.owned_ids():
            if self.leases.renew(job_id):
                continue
            self.metrics.inc("leases_lost")
            hb = self.supervisor.heartbeat(job_id)
            if hb is not None:
                # Unwind the disowned attempt at its next progress poll;
                # _still_owner() then drops its failure report unjournaled.
                hb.cancel(f"lease lost to a peer (job {job_id})")

    def _release_terminal_leases(self) -> None:
        for job_id in self.leases.owned_ids():
            job = self.store.get(job_id)
            if job is not None and job.terminal:
                self.leases.release(job_id)

    def _reclaim_orphans(self) -> list[Job]:
        """Adopt non-terminal jobs whose lease is takeable (work stealing).

        A RUNNING orphan — the signature of a dead shard — goes back to
        QUEUED with a journaled reason; its shared run dir still holds
        every completed stage's integrity-checked checkpoint, so the
        resumed attempt replays instead of recomputing."""
        reclaimed: list[Job] = []
        for job in self.store.jobs():
            if job.terminal or self.leases.owns(job.id):
                continue
            if self.leases.acquire(job.id) is None:
                continue  # a live peer owns it
            if job.state == RUNNING:
                self.store.transition(
                    job.id, QUEUED,
                    reason="lease_reclaim",
                    token=self.leases.token(job.id),
                )
                self.metrics.inc("jobs_reclaimed")
            reclaimed.append(self.store.get(job.id))
        return reclaimed

    # -- admission + control ---------------------------------------------------
    def _poll_inbox(self) -> list[Job]:
        """Claim-gated admission from the shared inbox.

        Every shard sees every submission; the job lease decides who
        admits it.  The winner journals the job and removes the file;
        losers leave the file alone (if the winner dies first, its lease
        expires and the next shard to claim re-admits — the journal's
        first-submit-wins rule absorbs the overlap)."""
        admitted: list[Job] = []
        try:
            names = sorted(os.listdir(self.paths.inbox))
        except FileNotFoundError:
            return admitted
        for name in names:
            if not name.endswith(".json"):
                continue
            path = os.path.join(self.paths.inbox, name)
            try:
                with open(path) as f:
                    payload = json.load(f)
                spec = JobSpec.from_json(payload.get("spec", {}))
                job_id = payload.get("id") or new_job_id()
                priority = int(payload.get("priority", 0))
                submitted_ts = payload.get("ts")
            except (json.JSONDecodeError, TypeError, ValueError, OSError) as exc:
                self._reject_malformed(path, name, exc)
                continue
            if self.store.get(job_id) is not None:
                self._remove_quiet(path)  # duplicate; already journaled
                continue
            if self.leases.acquire(job_id) is None:
                continue  # a peer is admitting this one
            self.metrics.inc("jobs_submitted")
            job = self._journal_admission(spec, job_id, priority, submitted_ts)
            if job.state == QUEUED:
                admitted.append(job)
            else:
                self.leases.release(job_id)  # rejected at admission
            self._remove_quiet(path)
        return admitted

    def _poll_control(self) -> None:
        """Owner-only cancel processing.

        A cancel for a job a live peer owns is left in place for that
        owner; a cancel for an unknown or terminal job is consumed (with
        the base bookkeeping)."""
        try:
            names = sorted(os.listdir(self.paths.control))
        except FileNotFoundError:
            return
        for name in names:
            if not name.startswith("cancel-") or not name.endswith(".json"):
                continue
            path = os.path.join(self.paths.control, name)
            try:
                with open(path) as f:
                    job_id = json.load(f).get("id")
            except (json.JSONDecodeError, OSError):
                continue
            job = self.store.get(job_id)
            if job is not None and not job.terminal and not self.leases.owns(job_id):
                continue  # the owning peer will consume this file
            self.cancel(job_id)
            self._remove_quiet(path)

    @staticmethod
    def _remove_quiet(path: str) -> None:
        try:
            os.remove(path)
        except FileNotFoundError:
            pass  # a racing peer already consumed it

    # -- daemon loop -----------------------------------------------------------
    def _clear_stop(self) -> None:
        """Leave the stop file: one shard exiting must not un-stop peers.

        The fleet launcher (``repro fleet serve`` / the drill harness)
        owns the stop file's lifecycle instead."""

    # -- metrics ---------------------------------------------------------------
    def write_metrics(self) -> dict:
        counts = self.store.counts()
        self.metrics.set_gauge("queue_depth", counts[QUEUED])
        self.metrics.set_gauge("running", counts[RUNNING])
        self.metrics.set_gauge("warm_cache_entries", len(self.warm.keys()))
        self.metrics.set_gauge(
            "pending_retries", self.supervisor.pending_retries()
        )
        self.metrics.set_gauge("leases_held", len(self.leases.owned_ids()))
        try:
            snapshot = self.metrics.write(
                self.paths.shard_metrics(self.shard),
                shard=self.shard,
                queue_depth=counts[QUEUED],
                jobs=counts,
                warm_fingerprints=self.warm.per_key(),
            )
        except ResourceExhaustedError:
            # Observability write on a dry disk: shed it, keep serving
            # (mirrors PlacementService.write_metrics).
            self.metrics.inc("metrics_writes_shed")
            return self.metrics.snapshot()
        try:
            write_fleet_metrics(self.paths, counts=counts)
        except (OSError, ResourceExhaustedError):
            pass  # aggregation is best-effort; per-shard files are canonical
        return snapshot


# -- fleet-wide metrics + status --------------------------------------------
def _merge_histograms(into: dict, add: dict) -> None:
    for name, hist in add.items():
        cur = into.get(name)
        if cur is None:
            into[name] = dict(hist)
            continue
        cur["count"] += hist["count"]
        cur["sum"] = round(cur["sum"] + hist["sum"], 6)
        cur["min"] = min(cur["min"], hist["min"])
        cur["max"] = max(cur["max"], hist["max"])
        cur["mean"] = round(cur["sum"] / cur["count"], 6) if cur["count"] else 0.0
        # Percentiles don't compose across shards; drop them rather than
        # report a number that is not a percentile of anything.
        cur.pop("p50", None)
        cur.pop("p90", None)


def write_fleet_metrics(
    paths: FleetPaths, counts: dict | None = None
) -> dict:
    """Merge every shard's metrics snapshot into ``fleet_metrics.json``.

    Counters and gauges sum across shards; histograms combine
    count/sum/min/max (cross-shard percentiles are dropped, not faked).
    Fleet-wide job counts come from the shared journal (or the caller's
    already-refreshed view).  Any shard may call this concurrently —
    the write is atomic and last-writer-wins on a fresh read of the
    same inputs.
    """
    if counts is None:
        counts = JobStore(paths.journal).load().counts()
    counters: dict[str, float] = {}
    gauges: dict[str, float] = {}
    histograms: dict[str, dict] = {}
    warm_fingerprints: dict[str, dict] = {}
    shards: dict[str, dict] = {}
    try:
        names = sorted(os.listdir(paths.shards))
    except FileNotFoundError:
        names = []
    for name in names:
        if not name.endswith(".json"):
            continue
        try:
            with open(os.path.join(paths.shards, name)) as f:
                snap = json.load(f)
        except (json.JSONDecodeError, OSError):
            continue  # shard mid-replace; next aggregation catches it
        shard = snap.get("shard", name[:-5])
        shards[shard] = {
            "ts": snap.get("ts"),
            "jobs": snap.get("jobs", {}),
            "queue_depth": snap.get("queue_depth"),
        }
        for key, value in snap.get("counters", {}).items():
            counters[key] = counters.get(key, 0) + value
        for key, value in snap.get("gauges", {}).items():
            gauges[key] = gauges.get(key, 0) + value
        _merge_histograms(histograms, snap.get("histograms", {}))
        for key, counts_by_event in snap.get("warm_fingerprints", {}).items():
            merged = warm_fingerprints.setdefault(key, {})
            for event, value in counts_by_event.items():
                merged[event] = merged.get(event, 0) + value
    payload = {
        "ts": round(time.time(), 3),
        "n_shards": len(shards),
        "jobs": counts,
        "shards": shards,
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "histograms": dict(sorted(histograms.items())),
        "warm_fingerprints": dict(sorted(warm_fingerprints.items())),
    }
    write_json_atomic(paths.fleet_metrics, payload)
    return payload


def fleet_status(service_dir: str) -> dict:
    """Read-only fleet view for ``repro fleet status`` (no daemon needed)."""
    paths = FleetPaths(service_dir)
    store = JobStore(paths.journal).load()
    now = time.time()
    leases = []
    try:
        names = sorted(os.listdir(paths.leases))
    except FileNotFoundError:
        names = []
    for name in names:
        if not name.endswith(".lease"):
            continue
        try:
            with open(os.path.join(paths.leases, name)) as f:
                lease = json.load(f)
        except (json.JSONDecodeError, OSError):
            continue
        lease["expired"] = now >= float(lease.get("expires", 0.0))
        leases.append(lease)
    jobs = [
        {
            "id": j.id,
            "state": j.state,
            "shard": j.shard,
            "attempts": j.attempts,
            "hpwl": j.hpwl,
        }
        for j in store.jobs()
    ]
    metrics = None
    if os.path.exists(paths.fleet_metrics):
        with open(paths.fleet_metrics) as f:
            metrics = json.load(f)
    quarantine = read_jsonl(paths.quarantine)
    return {
        "counts": store.counts(),
        "jobs": jobs,
        "leases": leases,
        "quarantined": [q.get("id") for q in quarantine],
        "fleet_metrics": metrics,
    }
