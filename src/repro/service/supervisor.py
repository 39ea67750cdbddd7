"""Self-healing job supervision: heartbeats, watchdog, retry, quarantine.

PR 4 gave the service a scheduler; this module gives it *judgment about
failure*.  Three cooperating pieces:

**Heartbeats** (:class:`Heartbeat`) — every job attempt carries one.
Beats come from two existing progress streams, so no flow code had to
learn about supervision: every :class:`~repro.utils.events.EventLog`
emission (stage transitions, checkpoints, degradations) beats via the
log's listener hook, and every budget poll beats via
:class:`SupervisedBudget` — the flow polls budgets each RL episode
and each MCTS exploration, which bounds heartbeat granularity by the
cost of one episode.

The flow runs in the slot's attempt worker process
(:mod:`repro.service.worker`); its beats cross the worker pipe and feed
the daemon-side heartbeat, where the ``stall.freeze`` fault site is
polled.

**Watchdog** — :meth:`JobSupervisor.check_stalls` runs inside the
daemon's poll cycle.  A heartbeat older than ``stall_seconds`` is
*cancelled*: the cancel is forwarded to the worker, whose next budget
poll raises a structured :class:`~repro.runtime.errors.StageStallError`
(cooperative kill — the attempt unwinds through the normal failure
path).  If the job still hasn't unwound after a further grace period (a
truly hung solver never polls), the watchdog force-abandons it: the
scheduler kills the slot's worker process, releases the slot (spawning
a replacement scheduler thread with a fresh worker), and the supervisor
resolves the failure on the attempt's behalf.  The abandoned attempt's
report — the worker died — is detected by its attempt number and
dropped.

**Retry / quarantine** (:meth:`JobSupervisor.resolve_failure`) —
transient failures (injected faults, stalls, artifact corruption,
unexpected non-placement exceptions) are retried with exponential
backoff and *deterministic* jitter (hash of job id + attempt, so two
daemons replaying the same journal schedule identical delays).  After
``max_retries`` retries the job is QUARANTINED — a terminal state with
its own JSONL journal (``<service_dir>/quarantine.jsonl``) recording
the poison job's spec and final error for offline triage.  Structured
domain failures (bad usage, calibration/divergence errors) fail
immediately: retrying a deterministic failure is pure waste.
"""

from __future__ import annotations

import hashlib
import heapq
import threading
import time

from repro.runtime import faults
from repro.runtime.errors import PlacementError, StageStallError
from repro.utils.events import append_jsonl
from repro.service.jobs import (
    FAILED,
    QUARANTINED,
    QUEUED,
    RUNNING,
    write_json_atomic,
)

#: error kinds whose recurrence is plausibly environmental — worth a
#: retry.  Everything not listed and not a PlacementError (worker crash,
#: MemoryError, a plain bug) is treated as transient too: the retry
#: either heals it or escalates it to quarantine with evidence.
TRANSIENT_KINDS = frozenset(
    {
        "FaultInjected",
        "StageStallError",
        "ArtifactCorruptError",
        # ENOSPC after an emergency GC pass: by the retry the governor
        # (or an operator) may have freed space — never a daemon-killer
        "ResourceExhaustedError",
    }
)
#: structured kinds that are deterministic properties of the job — a
#: retry would fail identically, so they go straight to FAILED
PERMANENT_KINDS = frozenset(
    {
        "UsageError",
        "CalibrationError",
        "TrainingDivergedError",
        "SolverInfeasibleError",
        "StageTimeoutError",
        "Backpressure",
        # admission shed above the resource high-water mark: the client
        # resubmits once pressure clears; the journaled job stays FAILED
        "ResourcePressure",
        "VerificationError",
        # malformed Bookshelf input fails the same way on every attempt
        "BookshelfError",
    }
)


def classify_transient(kind: str | None) -> bool:
    """Is an error of *kind* worth retrying?"""
    if kind in TRANSIENT_KINDS:
        return True
    return kind not in PERMANENT_KINDS


def error_record(exc: Exception) -> dict:
    """The journaled error of a failed attempt: a structured
    :class:`~repro.runtime.errors.PlacementError`'s fields, or the kind
    and message of anything else."""
    if isinstance(exc, PlacementError):
        return {
            "kind": type(exc).__name__,
            "message": exc.message,
            "stage": exc.stage,
            "exit_code": exc.exit_code,
            "details": {k: repr(v) for k, v in exc.details.items()},
        }
    return {"kind": type(exc).__name__, "message": str(exc)}


class Heartbeat:
    """Monotonic progress clock of one job attempt.

    ``beat`` (from the event-log listener and budget polls) advances the
    clock; ``poll`` is the raising variant used at the flow's safe
    points — once the watchdog has cancelled the heartbeat, the next
    poll raises :class:`StageStallError` inside the job, unwinding it
    through its ordinary failure path.

    The ``stall.freeze`` fault site hooks ``beat``: once fired, beats
    stop registering, which is exactly what a hung solver looks like
    from the outside.
    """

    def __init__(self, job_id: str, attempt: int, clock=time.monotonic) -> None:
        self.job_id = job_id
        self.attempt = attempt
        self._clock = clock
        self.started = self.last_beat = clock()
        self.stage: str | None = None
        self.beats = 0
        self.frozen = False
        self.abandoned = False
        self._cancel_reason: str | None = None

    # -- progress --------------------------------------------------------------
    def beat(self, stage: str | None = None) -> None:
        if not self.frozen and faults.should_fire("stall.freeze"):
            self.frozen = True
        if self.frozen or self.cancelled:
            return
        self.beats += 1
        if stage is not None:
            self.stage = stage
        self.last_beat = self._clock()

    def beat_event(self, event) -> None:
        """EventLog listener adapter."""
        self.beat(event.stage)

    def poll(self, stage: str | None = None) -> None:
        """Beat — or raise if the watchdog cancelled this attempt."""
        if self.cancelled:
            raise StageStallError(
                self._cancel_reason or "job heartbeat cancelled",
                stage=stage or self.stage,
                job=self.job_id,
                attempt=self.attempt,
                stalled_seconds=round(self.age(), 3),
            )
        self.beat(stage)

    # -- watchdog side ---------------------------------------------------------
    def age(self, now: float | None = None) -> float:
        return (self._clock() if now is None else now) - self.last_beat

    @property
    def cancelled(self) -> bool:
        return self._cancel_reason is not None

    @property
    def cancel_reason(self) -> str | None:
        return self._cancel_reason

    def cancel(self, reason: str) -> None:
        self._cancel_reason = reason


class SupervisedBudget:
    """Budget proxy that beats (and enforces) a heartbeat on every poll.

    Wraps the :class:`~repro.runtime.budget.StageBudget` a
    :class:`JobRunContext` hands the flow; the flow already polls
    budgets at every safe point, so piggybacking costs nothing and
    requires no flow changes.
    """

    __slots__ = ("inner", "heartbeat")

    def __init__(self, inner, heartbeat: Heartbeat) -> None:
        self.inner = inner
        self.heartbeat = heartbeat

    @property
    def stage(self) -> str:
        return self.inner.stage

    @property
    def seconds(self):
        return self.inner.seconds

    def elapsed(self) -> float:
        return self.inner.elapsed()

    def remaining(self):
        return self.inner.remaining()

    def exhausted(self) -> bool:
        self.heartbeat.poll(self.inner.stage)
        return self.inner.exhausted()

    def check(self) -> None:
        self.heartbeat.poll(self.inner.stage)
        self.inner.check()


class JobSupervisor:
    """Watchdog + retry/backoff/quarantine policy of one service daemon.

    Owns no threads: the daemon calls :meth:`check_stalls` and
    :meth:`due_retries` from its poll loop (``poll_interval`` is the
    watchdog resolution), and the scheduler's slot threads call
    :meth:`begin`/:meth:`end`/:meth:`resolve_failure` around each
    attempt.
    """

    def __init__(
        self,
        store,
        metrics,
        quarantine_path: str,
        *,
        scheduler=None,
        finalize=None,
        stall_seconds: float | None = None,
        stall_grace: float | None = None,
        max_retries: int = 2,
        backoff_base: float = 0.5,
        clock=time.monotonic,
    ) -> None:
        self.store = store
        self.metrics = metrics
        self.quarantine_path = quarantine_path
        self.scheduler = scheduler
        #: called with the (terminal) job after quarantine/fail decisions
        #: the supervisor makes on a worker's behalf (result-file writer)
        self.finalize = finalize
        self.stall_seconds = stall_seconds
        self.stall_grace = (
            stall_grace if stall_grace is not None
            else (stall_seconds if stall_seconds is not None else 0.0)
        )
        self.max_retries = max(0, int(max_retries))
        self.backoff_base = float(backoff_base)
        self._clock = clock
        self._lock = threading.Lock()
        self._heartbeats: dict[str, Heartbeat] = {}
        self._retries: list[tuple[float, str]] = []  # (due, job_id) heap
        self._cold: set[str] = set()

    # -- attempt lifecycle -----------------------------------------------------
    def begin(self, job_id: str, attempt: int) -> Heartbeat:
        hb = Heartbeat(job_id, attempt, clock=self._clock)
        with self._lock:
            self._heartbeats[job_id] = hb
        return hb

    def end(self, job_id: str, attempt: int) -> None:
        with self._lock:
            hb = self._heartbeats.get(job_id)
            if hb is not None and hb.attempt == attempt:
                del self._heartbeats[job_id]

    def attempt_current(self, job_id: str, attempt: int) -> bool:
        """Is *attempt* still the live attempt of *job_id*?  False once
        the watchdog force-abandoned it (its slot was already resolved)."""
        job = self.store.get(job_id)
        return (
            job is not None
            and job.attempts == attempt
            and job.state == RUNNING
        )

    # -- cold-retry flags (verification failures) ------------------------------
    def set_cold(self, job_id: str) -> None:
        with self._lock:
            self._cold.add(job_id)

    def is_cold(self, job_id: str) -> bool:
        with self._lock:
            return job_id in self._cold

    def clear_cold(self, job_id: str) -> None:
        with self._lock:
            self._cold.discard(job_id)

    # -- backoff ---------------------------------------------------------------
    def backoff_delay(self, job_id: str, attempt: int) -> float:
        """``backoff_base * 2^(attempt-1)`` with deterministic jitter.

        The jitter factor (in [1.0, 1.5)) is a hash of job id + attempt:
        it decorrelates a thundering herd of retries without making the
        schedule irreproducible — replaying the same journal yields the
        same delays, which the determinism tests assert.
        """
        base = self.backoff_base * (2.0 ** max(0, attempt - 1))
        digest = hashlib.sha256(f"{job_id}:{attempt}".encode()).digest()
        jitter = int.from_bytes(digest[:8], "big") / 2.0**64
        return base * (1.0 + 0.5 * jitter)

    # -- failure resolution ----------------------------------------------------
    def resolve_failure(
        self,
        job,
        error: dict,
        transient: bool | None = None,
        seconds: float | None = None,
    ) -> str:
        """Decide (and journal) what happens after a failed attempt.

        Returns ``"retry"``, ``"quarantine"``, or ``"fail"``.  Retries
        transition the job back to QUEUED with the computed backoff delay
        recorded; it is re-enqueued by the daemon once the delay elapses
        (:meth:`due_retries`).
        """
        if transient is None:
            transient = classify_transient(error.get("kind"))
        extra = {} if seconds is None else {"seconds": seconds}
        if transient and job.attempts <= self.max_retries:
            delay = self.backoff_delay(job.id, job.attempts)
            self.store.transition(
                job.id, QUEUED,
                reason="retry",
                error=error,
                retry_delay=round(delay, 4),
                **extra,
            )
            with self._lock:
                heapq.heappush(self._retries, (self._clock() + delay, job.id))
            self.metrics.inc("jobs_retried")
            return "retry"
        if transient:
            self.store.transition(job.id, QUARANTINED, error=error, **extra)
            self._journal_quarantine(job, error)
            self.metrics.inc("jobs_quarantined")
            return "quarantine"
        self.store.transition(job.id, FAILED, error=error, **extra)
        self.metrics.inc("jobs_failed")
        return "fail"

    def _journal_quarantine(self, job, error: dict) -> None:
        record = {
            "ts": round(time.time(), 3),
            "id": job.id,
            "attempts": job.attempts,
            "error": error,
            "spec": job.spec.to_json(),
        }
        append_jsonl(self.quarantine_path, record, fsync=True)

    def quarantined(self) -> list[dict]:
        """Parsed quarantine journal (offline triage surface)."""
        from repro.utils.events import read_jsonl

        return read_jsonl(self.quarantine_path)

    # -- retry scheduling ------------------------------------------------------
    def schedule_retry(self, job, error: dict, reason: str, seconds: float | None = None) -> float:
        """Explicitly schedule one retry outside the attempt budget (used
        for the verification cold-retry); returns the delay."""
        delay = self.backoff_delay(job.id, max(1, job.attempts))
        extra = {} if seconds is None else {"seconds": seconds}
        self.store.transition(
            job.id, QUEUED,
            reason=reason, error=error, retry_delay=round(delay, 4), **extra,
        )
        with self._lock:
            heapq.heappush(self._retries, (self._clock() + delay, job.id))
        self.metrics.inc("jobs_retried")
        return delay

    def due_retries(self) -> list[str]:
        """Job ids whose backoff delay has elapsed (ready to enqueue)."""
        now = self._clock()
        due: list[str] = []
        with self._lock:
            while self._retries and self._retries[0][0] <= now:
                due.append(heapq.heappop(self._retries)[1])
        return due

    def pending_retries(self) -> int:
        with self._lock:
            return len(self._retries)

    # -- watchdog --------------------------------------------------------------
    def check_stalls(self) -> None:
        """One watchdog sweep (called from the daemon's poll cycle).

        Phase 1: a heartbeat past ``stall_seconds`` is cancelled — the
        job raises :class:`StageStallError` at its next progress poll.
        Phase 2: a cancelled heartbeat still unreported after a further
        ``stall_grace`` means the attempt never polls (hard hang): the
        job's worker process is killed, its slot force-abandoned, and
        the failure resolved here.
        """
        if self.stall_seconds is None:
            return
        now = self._clock()
        with self._lock:
            beats = list(self._heartbeats.items())
        for job_id, hb in beats:
            age = hb.age(now)
            if not hb.cancelled:
                if age > self.stall_seconds:
                    hb.cancel(
                        f"no progress for {age:.2f}s "
                        f"(stall_seconds={self.stall_seconds})"
                    )
                    self.metrics.inc("stalls_detected")
            elif not hb.abandoned and age > self.stall_seconds + self.stall_grace:
                hb.abandoned = True
                self._force_abandon(job_id, hb)

    def _force_abandon(self, job_id: str, hb: Heartbeat) -> None:
        with self._lock:
            if self._heartbeats.get(job_id) is hb:
                del self._heartbeats[job_id]
        job = self.store.get(job_id)
        if job is None or job.state != RUNNING or job.attempts != hb.attempt:
            return  # the attempt reported in the meantime
        self.metrics.inc("jobs_abandoned")
        error = {
            "kind": "StageStallError",
            "message": (
                f"watchdog abandoned hung attempt {hb.attempt} "
                f"(no progress for {hb.age():.2f}s, stage {hb.stage})"
            ),
            "stage": hb.stage,
            "exit_code": StageStallError.exit_code,
        }
        action = self.resolve_failure(job, error, transient=True)
        if action in ("quarantine", "fail") and self.finalize is not None:
            self.finalize(self.store.get(job_id))
        if self.scheduler is not None:
            # Only now kill the worker: the attempt's own report of its
            # death must find the failure resolved, and drop as stale.
            self.scheduler.abandon(job_id)
