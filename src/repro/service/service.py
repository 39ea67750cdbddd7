"""The placement service daemon and its file-based client protocol.

Protocol (everything under one ``--service-dir``):

- **submit** — a client drops ``inbox/<ns>-<job_id>.json`` (atomic
  tmp+rename) holding the job id, spec, and priority.  The daemon admits
  inbox files in filename order (the ``<ns>`` prefix is a nanosecond
  timestamp, so admission is FIFO) and journals them; when the queue is
  at ``max_queue`` the job is journaled FAILED with a structured
  backpressure error instead — admission control, not silent loss.
- **cancel** — a client drops ``control/cancel-<job_id>.json``.  A
  QUEUED job flips to CANCELLED; a RUNNING or finished job is left
  alone and the refusal is journaled as an event in the metrics.
- **stop** — the ``control/stop`` file asks the daemon to exit after
  in-flight jobs finish.
- **wake** — after each of those atomic writes the client pokes one byte
  into the ``wake`` FIFO, and the daemon, waiting on it instead of
  sleeping, runs its poll cycle at once.  The file stays the request: a
  poke that finds no FIFO, no reader or a full pipe is dropped, and the
  daemon still polls every ``poll_interval``.
- **results** — the daemon writes ``results/<job_id>.json`` when a job
  reaches a terminal state; ``jobs.jsonl`` carries every transition and
  ``metrics.json`` the latest metrics snapshot.

One daemon serves a service dir: it holds an exclusive lock on
``daemon.lock`` (:func:`lock_service_dir`) from before its recovery pass
until :meth:`PlacementService.run` returns, and a second daemon (or an
offline ``repro gc``) on the same dir fails with a ``UsageError``.  The
daemon scales with ``workers=N``, not with more daemons.

Each job runs in its own run dir under ``runs/<job_id>/`` with the full
PR 1 checkpoint/resume machinery, so killing the daemon mid-job and
restarting resumes RUNNING jobs from their checkpoints (the recovery
pass re-queues them; the executor sees the existing manifest and resumes)
without re-running completed ones.  The flow itself runs in the
scheduler slot's attempt worker process (:mod:`repro.service.worker`),
so ``workers=N`` places on N CPUs; the daemon journals, publishes and
counts.

The daemon's loop waits on the wake FIFO, which it creates (or reuses
after a SIGKILL) once its workers have forked and removes on exit.  A
cycle runs when a client pokes it, when a slot has journalled an
attempt's outcome (so a drain, a stop and a retry's re-queue act at
once), when the next backoff retry falls due, and otherwise every
``poll_interval`` seconds, which also covers files dropped without a
poke and a filesystem without FIFOs.

Self-healing: every attempt carries a heartbeat, and with
``stall_seconds`` set the slot relaying the attempt kills a worker whose
heartbeat is older than that (a structured ``StageStallError``); the
daemon's poll cycle re-enqueues retries whose backoff elapsed.
Transient failures (stalls and dead workers among them) retry with
exponential backoff, poison jobs land in QUARANTINED, results are
independently verified (``repro.verify``), and a verification failure on
a run that used warm artifacts or the shared terminal cache triggers one
*cold* retry — fresh run dir, no warm injection, no shared cache — before
the job is failed for real.  Malformed inbox files older than
``reject_malformed_after`` are quarantined into ``inbox/.rejected/``
with a reason sidecar instead of being re-parsed forever.
"""

from __future__ import annotations

import fcntl
import json
import os
import select
import shutil
import stat
import time
from dataclasses import replace

from repro.runtime import faults
from repro.runtime.errors import ResourceExhaustedError, UsageError
from repro.service.governor import ResourceGovernor
from repro.service.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    Job,
    JobSpec,
    JobStore,
    ServicePaths,
    new_job_id,
    write_json_atomic,
)
from repro.service.metrics import ServiceMetrics
from repro.service.scheduler import Scheduler
from repro.service.supervisor import Heartbeat, JobSupervisor, error_record
from repro.service.warm import WarmArtifactCache


# -- client side (no daemon required) ---------------------------------------
def submit_job(
    service_dir: str,
    spec: JobSpec,
    priority: int = 0,
    job_id: str | None = None,
) -> str:
    """Drop one submission into the service inbox; returns the job id."""
    spec.validate()
    paths = ServicePaths(service_dir).ensure()
    job_id = job_id or new_job_id()
    payload = {
        "id": job_id,
        "priority": priority,
        "ts": time.time(),
        "spec": spec.to_json(),
    }
    final = os.path.join(paths.inbox, f"{time.time_ns():020d}-{job_id}.json")
    write_json_atomic(final, payload)
    _poke(paths.wake)
    return job_id


def request_cancel(service_dir: str, job_id: str) -> None:
    paths = ServicePaths(service_dir).ensure()
    write_json_atomic(
        os.path.join(paths.control, f"cancel-{job_id}.json"), {"id": job_id}
    )
    _poke(paths.wake)


def request_stop(service_dir: str) -> None:
    paths = ServicePaths(service_dir).ensure()
    write_json_atomic(paths.stop_file, {"ts": time.time()})
    _poke(paths.wake)


def _poke(path: str) -> None:
    """Poke the wake FIFO at *path* so a waiting daemon polls at once.

    Writes one byte, and only into a FIFO; never blocks and never raises.
    No FIFO (ENOENT), no daemon reading (ENXIO) and a full pipe (EAGAIN:
    a wake is already pending) are the usual misses.  The request file is
    already written, so a missed poke only costs the daemon's next poll.
    """
    try:
        fd = os.open(path, os.O_WRONLY | os.O_NONBLOCK)
    except OSError:
        return
    try:
        if stat.S_ISFIFO(os.fstat(fd).st_mode):
            os.write(fd, b"\0")
    except OSError:
        pass
    finally:
        os.close(fd)


def read_result(service_dir: str, job_id: str) -> dict | None:
    path = ServicePaths(service_dir).result_file(job_id)
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def wait_for_result(
    service_dir: str, job_id: str, timeout: float, poll: float = 0.25
) -> dict | None:
    """Poll until the job's result file appears (None on timeout)."""
    deadline = time.monotonic() + timeout
    while True:
        result = read_result(service_dir, job_id)
        if result is not None:
            return result
        if time.monotonic() >= deadline:
            return None
        time.sleep(poll)


def lock_service_dir(service_dir: str) -> int:
    """Take the one-daemon-per-dir lock; returns its fd (close to release).

    An exclusive POSIX record lock on ``<service_dir>/daemon.lock``.  The
    kernel drops it when the holder dies, and forked attempt workers do
    not inherit it, so a SIGKILLed daemon's replacement takes it at once.
    The holder writes its pid into the file; a held lock raises
    :class:`UsageError` naming that pid.  Closing *any* descriptor of the
    file releases the lock, so the holder opens it nowhere else.
    """
    path = os.path.join(service_dir, "daemon.lock")
    fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
    try:
        fcntl.lockf(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except OSError:
        holder = os.pread(fd, 32, 0).decode(errors="replace").strip()
        os.close(fd)
        raise UsageError(
            f"service dir {service_dir} is locked by pid {holder or '?'}: "
            "one daemon per service dir (scale with --workers)",
            service_dir=service_dir,
        ) from None
    os.ftruncate(fd, 0)
    os.pwrite(fd, f"{os.getpid()}\n".encode(), 0)
    return fd


class PlacementService:
    """The daemon: admission, scheduling, warm reuse, metrics, recovery."""

    def __init__(
        self,
        service_dir: str,
        workers: int = 1,
        max_queue: int = 64,
        poll_interval: float = 0.2,
        stall_seconds: float | None = None,
        max_retries: int = 2,
        backoff_base: float = 0.5,
        verify_results: bool = True,
        reject_malformed_after: float = 5.0,
        disk_quota_bytes: int | None = None,
        mem_quota_bytes: int | None = None,
        high_water: float = 0.9,
        low_water: float = 0.75,
        retention_runs: int | None = None,
        rejected_ttl: float = 3600.0,
        warm_quota_bytes: int | None = None,
        terminal_cache_quota_bytes: int | None = None,
        journal_quota_bytes: int | None = None,
        rundir_projection_bytes: int = 4 << 20,
        resource_sample_interval: float = 1.0,
    ) -> None:
        self.paths = ServicePaths(service_dir).ensure()
        # Held before _recover journals anything; released by run().
        self._lock_fd: int | None = lock_service_dir(self.paths.root)
        self.store = JobStore(self.paths.journal).load()
        self.metrics = ServiceMetrics()
        self.warm = WarmArtifactCache(self.paths.warm)
        self.max_queue = max_queue
        self.poll_interval = poll_interval
        self.stall_seconds = stall_seconds
        self.verify_results = verify_results
        self.reject_malformed_after = reject_malformed_after
        #: (read, write) ends of the wake FIFO while run() serves; None
        #: outside it and where the filesystem has no FIFOs
        self._wake_fds: tuple[int, int] | None = None
        # Imported here, not at module level: only a daemon needs worker
        # processes, and ``import repro.service`` stays as light as it was.
        from repro.service.worker import AttemptWorker

        self.scheduler = Scheduler(
            self._execute, self._dispatchable, workers=workers,
            worker_factory=AttemptWorker,
        )
        self.supervisor = JobSupervisor(
            self.store,
            self.metrics,
            self.paths.quarantine,
            max_retries=max_retries,
            backoff_base=backoff_base,
        )
        # Resource governance: quotas default to None (inert monitoring),
        # so a service without explicit limits behaves exactly as before.
        self.governor = ResourceGovernor(
            self.paths,
            self.store,
            self.metrics,
            self.warm,
            disk_quota_bytes=disk_quota_bytes,
            mem_quota_bytes=mem_quota_bytes,
            high_water=high_water,
            low_water=low_water,
            retention_runs=retention_runs,
            rejected_ttl=rejected_ttl,
            warm_quota_bytes=warm_quota_bytes,
            terminal_cache_quota_bytes=terminal_cache_quota_bytes,
            journal_quota_bytes=journal_quota_bytes,
            rundir_projection_bytes=rundir_projection_bytes,
            sample_interval=resource_sample_interval,
            worker_pids=self.scheduler.worker_pids,
        ).install()
        # Pressure pauses *dispatch* (queued jobs requeue), never
        # running jobs; admission shedding is handled at the journal.
        self.scheduler.dispatch_gate = self.governor.dispatch_ok
        self.scheduler.on_settled = self._wake_self
        self._recover()

    # -- recovery --------------------------------------------------------------
    def _recover(self) -> None:
        """Re-queue interrupted work from the journal.

        RUNNING jobs were in flight when the previous daemon died: they
        go back to QUEUED (journaled, reason-tagged) and — because their
        run dir already holds a manifest — the executor resumes them from
        their checkpoints rather than starting over.  Jobs already in a
        terminal state are left exactly as the journal says.
        """
        for job in self.store.in_state(RUNNING):
            self.store.transition(job.id, QUEUED, reason="daemon_restart")
            self.metrics.inc("jobs_recovered")
        for job in self.store.in_state(QUEUED):
            self.scheduler.enqueue(job)

    # -- admission + control ---------------------------------------------------
    def poll(self) -> None:
        """One daemon cycle: admit inbox, apply control, re-enqueue due
        retries, dispatch."""
        self.governor.poll()
        admitted = self._poll_inbox()
        self._poll_control()
        for job_id in self.supervisor.due_retries():
            job = self.store.get(job_id)
            if job is not None and job.state == QUEUED:
                self.scheduler.enqueue(job)
        # Dispatch after control so a cancel dropped alongside (or before)
        # a submission deterministically beats the dispatch.
        for job in admitted:
            if job.state == QUEUED:
                self.scheduler.enqueue(job)
        self.write_metrics()

    def _poll_inbox(self) -> list[Job]:
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
                # Usually a half-written submission that finishes by the
                # next cycle — but a file that *stays* unparseable would
                # be retried forever, so past the grace window it is
                # quarantined out of the inbox with a structured reason.
                self._reject_malformed(path, name, exc)
                continue
            self.metrics.inc("jobs_submitted")
            if self.store.get(job_id) is not None:
                os.remove(path)  # duplicate redelivery; already journaled
                continue
            job = self._journal_admission(
                spec, job_id, priority, submitted_ts
            )
            if job.state == QUEUED:
                admitted.append(job)
            os.remove(path)
        return admitted

    def _journal_admission(
        self, spec: JobSpec, job_id: str, priority: int, submitted_ts
    ) -> Job:
        """Journal one parsed submission: admit it QUEUED, or reject it
        FAILED with a structured backpressure error when the queue is
        full (or with ``RESOURCE_PRESSURE`` while the governor sheds)."""
        pressure = self.governor.admission_blocked()
        if pressure is not None:
            # Load shedding: above the high-water mark new work is
            # refused with a structured, client-visible reason instead of
            # being admitted onto a disk that cannot hold its run dir.
            # Hysteresis in the governor resumes admission below the
            # low-water mark.
            error = {
                "kind": "ResourcePressure",
                "reason": "RESOURCE_PRESSURE",
                "message": f"admission shed: {pressure}",
            }
            job = self.store.add(
                spec, job_id=job_id, priority=priority, state=FAILED,
                error=error, submitted_ts=submitted_ts,
            )
            self._write_result(job)
            self.metrics.inc("jobs_rejected")
            self.metrics.inc("jobs_rejected_pressure")
            return job
        if self.store.queue_depth() >= self.max_queue:
            error = {
                "kind": "Backpressure",
                "message": (
                    f"admission rejected: queue depth "
                    f"{self.store.queue_depth()} >= max_queue "
                    f"{self.max_queue}"
                ),
            }
            job = self.store.add(
                spec, job_id=job_id, priority=priority, state=FAILED,
                error=error, submitted_ts=submitted_ts,
            )
            self._write_result(job)
            self.metrics.inc("jobs_rejected")
        else:
            job = self.store.add(
                spec, job_id=job_id, priority=priority,
                submitted_ts=submitted_ts,
            )
            self.metrics.inc("jobs_admitted")
        return job

    def _reject_malformed(self, path: str, name: str, exc: Exception) -> None:
        """Quarantine an inbox file that outlived the half-written grace."""
        try:
            age = time.time() - os.path.getmtime(path)
        except OSError:
            return  # racing remove/rename; nothing left to quarantine
        if age <= self.reject_malformed_after:
            return  # still plausibly mid-write; retry next cycle
        os.makedirs(self.paths.rejected, exist_ok=True)
        dest = os.path.join(self.paths.rejected, name)
        try:
            os.replace(path, dest)
        except OSError:
            return
        write_json_atomic(
            dest + ".reason.json",
            {
                "name": name,
                "kind": type(exc).__name__,
                "reason": str(exc),
                "age_seconds": round(age, 3),
                "ts": time.time(),
            },
        )
        self.metrics.inc("submissions_rejected_malformed")

    def _poll_control(self) -> None:
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
            self.cancel(job_id)
            os.remove(path)

    def cancel(self, job_id: str) -> bool:
        """Cancel a QUEUED job; refuse (journaled in metrics) otherwise."""
        job = self.store.get(job_id)
        if job is None:
            self.metrics.inc("cancel_unknown")
            return False
        if job.state != QUEUED:
            # RUNNING jobs are not preempted (the flow has no safe
            # interruption point we control from outside); terminal jobs
            # have nothing to cancel.
            self.metrics.inc("cancel_refused")
            return False
        self.store.transition(job_id, CANCELLED)
        self._write_result(self.store.get(job_id))
        self.metrics.inc("jobs_cancelled")
        return True

    def stop_requested(self) -> bool:
        return os.path.exists(self.paths.stop_file)

    # -- execution -------------------------------------------------------------
    def _dispatchable(self, job_id: str) -> bool:
        job = self.store.get(job_id)
        return job is not None and job.state == QUEUED

    def _execute(self, job_id: str) -> None:
        """Run one job attempt; never raises (scheduler contract).

        The attempt body routes every failure it understands through the
        supervisor; this wrapper is the last line of the contract — an
        exception escaping the bookkeeping itself (e.g. the disk filling
        up while *recording* a result) is counted, and the daemon lives.
        """
        try:
            self._execute_attempt(job_id)
        except Exception:  # noqa: BLE001 — workers must survive anything
            self.metrics.inc("executor_errors")

    def _execute_attempt(self, job_id: str) -> None:
        """One attempt end to end: the slot's worker process runs the
        flow, this thread journals the outcome.  Failures are routed
        through the supervisor, which decides retry / quarantine / fail."""
        from repro.service.worker import AttemptRequest

        job = self.store.get(job_id)
        run_dir = self.paths.run_dir(job.id)
        attempt = job.attempts + 1
        cold = self.supervisor.is_cold(job.id)
        if cold:
            # A verification failure implicated reused artifacts: wipe the
            # run dir so nothing from the suspect attempt survives.
            shutil.rmtree(run_dir, ignore_errors=True)
        resume = os.path.exists(os.path.join(run_dir, "manifest.json"))
        started = time.perf_counter()
        running = False
        try:
            config = job.spec.build_config(
                terminal_cache_path=None if cold else self.paths.terminal_cache
            )
            if self.verify_results:
                config = replace(config, verify_results=True)
            worker = self.scheduler.worker()
            self.store.transition(
                job.id, RUNNING, attempt=attempt, resume=resume,
                design=job.spec.design_name, cold=cold, worker=worker.pid,
            )
            running = True
            self.write_metrics()
            reply = worker.run(
                AttemptRequest(
                    job_id=job.id,
                    attempt=attempt,
                    spec=job.spec,
                    config=config,
                    run_dir=run_dir,
                    resume=resume,
                    warm_root=self.warm.root,
                    warm=not (resume or cold),
                    plan=faults.active(),
                ),
                Heartbeat(),
                self.stall_seconds,
            )
        except Exception as exc:  # noqa: BLE001 — jobs must not kill slots
            if not running:
                # The attempt failed before it could start: its config
                # cannot be built (an unknown preset or knob) or its
                # worker would not start.  A design that cannot be built
                # fails in the worker, like any other attempt.
                # Journal it as started so the supervisor decides it like
                # any failed attempt; a permanent kind ends FAILED now.
                self.store.transition(
                    job.id, RUNNING, attempt=attempt, resume=resume, cold=cold
                )
            self._resolve_attempt_failure(job, started, error_record(exc))
            return
        self.warm.absorb(reply.warm_counts)
        warm_hit = bool(reply.warm_hit)
        if reply.warm_hit is not None:
            self.metrics.inc("warm_hits" if warm_hit else "warm_misses")
        if reply.error is not None:
            if reply.error["kind"] == "StageStallError":
                self.metrics.inc("stalls_detected")
            self._resolve_attempt_failure(
                job, started, reply.error, warm_hit=warm_hit
            )
            return
        seconds = time.perf_counter() - started
        self.supervisor.clear_cold(job.id)
        try:
            # Publishing the warm entry is itself a durable write: a full
            # disk here (after the guarded write's own emergency GC +
            # retry) fails the *attempt* — retryable, supervisor-routed —
            # not the slot thread or the daemon.
            self.warm.store(reply.warm_key, run_dir, reply.design_digest)
        except ResourceExhaustedError as exc:
            self._resolve_attempt_failure(
                job, started, error_record(exc), warm_hit=warm_hit
            )
            return
        result = reply.summary
        for stage, stage_seconds in result.stage_seconds.items():
            if stage_seconds > 0.0:
                self.metrics.observe(f"stage_seconds.{stage}", stage_seconds)
        self.metrics.observe("job_seconds", seconds)
        for hits, misses in result.terminal_cache:
            self.metrics.inc("terminal_cache_hits", hits)
            self.metrics.inc("terminal_cache_misses", misses)
        self.metrics.inc("exact_evaluations", result.exact_evaluations)
        self.metrics.inc("surrogate_evaluations", result.surrogate_evaluations)
        if result.surrogate_spearman is not None:
            self.metrics.observe(
                "surrogate_spearman", result.surrogate_spearman
            )
        self.metrics.inc("degradations", result.degradations)
        if result.verified:
            self.metrics.inc("jobs_verified")
        self.store.transition(
            job.id, DONE,
            hpwl=result.hpwl,
            warm_hit=warm_hit,
            seconds=round(seconds, 3),
            error=None,  # clear the last retried attempt's error
        )
        self.metrics.inc("jobs_done")
        self._write_result(
            self.store.get(job.id),
            hpwl=result.hpwl,
            best_hpwl=result.best_hpwl,
            n_macro_groups=result.n_macro_groups,
            verified=result.verified,
            stage_seconds={
                k: round(v, 6) for k, v in result.stage_seconds.items()
            },
        )
        self.write_metrics()

    def _resolve_attempt_failure(
        self,
        job: Job,
        started: float,
        error: dict,
        warm_hit: bool = False,
    ) -> None:
        """Route one attempt's failure through the supervisor."""
        seconds = round(time.perf_counter() - started, 3)
        if error.get("kind") == "VerificationError":
            self.metrics.inc("verification_failures")
            # A wrong result on a run that reused anything — warm
            # artifacts or the shared terminal cache — gets exactly one
            # retry with all reuse disabled, in case the reused data
            # (not the job) was the poison.
            reused = warm_hit or os.path.exists(self.paths.terminal_cache)
            if reused and not self.supervisor.is_cold(job.id):
                self.supervisor.set_cold(job.id)
                self.supervisor.schedule_retry(
                    job, error, reason="verify_cold_retry", seconds=seconds
                )
                self.metrics.inc("verify_cold_retries")
                self.write_metrics()
                return
        action = self.supervisor.resolve_failure(job, error, seconds=seconds)
        if action != "retry":
            self.supervisor.clear_cold(job.id)
            self._write_result(self.store.get(job.id))
        self.write_metrics()

    def _write_result(self, job: Job, **extra) -> None:
        payload = {
            "id": job.id,
            "state": job.state,
            "spec": job.spec.to_json(),
            "priority": job.priority,
            "attempts": job.attempts,
            "warm_hit": job.warm_hit,
            "seconds": job.seconds,
            "error": job.error,
            **extra,
        }
        write_json_atomic(self.paths.result_file(job.id), payload)

    # -- metrics ---------------------------------------------------------------
    def write_metrics(self) -> dict:
        counts = self.store.counts()
        self.metrics.set_gauge("queue_depth", counts[QUEUED])
        self.metrics.set_gauge("running", counts[RUNNING])
        self.metrics.set_gauge("warm_cache_entries", len(self.warm.keys()))
        self.metrics.set_gauge(
            "pending_retries", self.supervisor.pending_retries()
        )
        try:
            return self.metrics.write(
                self.paths.metrics,
                queue_depth=counts[QUEUED],
                jobs=counts,
                warm_fingerprints=self.warm.per_key(),
            )
        except ResourceExhaustedError:
            # The metrics snapshot is observability, not state: on a
            # disk too full even after emergency GC, shed the write and
            # keep serving — the next cycle retries.
            self.metrics.inc("metrics_writes_shed")
            return self.metrics.snapshot()

    # -- daemon loop -----------------------------------------------------------
    def run(
        self,
        drain: bool = False,
        max_seconds: float | None = None,
    ) -> dict:
        """Serve until stopped.

        *drain* exits once the inbox is empty and every job is terminal
        (the batch mode CI and tests use); otherwise the daemon serves
        until ``control/stop`` appears or *max_seconds* elapses.  Returns
        the final metrics snapshot and releases the service dir's lock
        (a later ``run`` on the same object takes it again).
        """
        started = time.monotonic()
        if self._lock_fd is None:
            self._lock_fd = lock_service_dir(self.paths.root)
        try:
            self.scheduler.start()
            try:
                # After start(): the forked workers inherit no FIFO end.
                self._open_wake()
                while True:
                    try:
                        self.poll()
                    except ResourceExhaustedError:
                        # A poll cycle's durable write ran the disk dry
                        # even after emergency GC.  The daemon stays up:
                        # shedding is already engaged (the governor
                        # sampled en route), and the next cycle retries
                        # once GC or the operator frees space.
                        self.metrics.inc("poll_cycles_shed")
                    if drain and self._drained():
                        break
                    if self.stop_requested():
                        break
                    timeout = self.poll_interval
                    if max_seconds is not None:
                        left = started + max_seconds - time.monotonic()
                        if left <= 0:
                            break
                        timeout = min(timeout, left)
                    self._wait(timeout)
            finally:
                self.scheduler.stop()
                # After stop(): no slot thread writes to a closed end.
                self._close_wake()
                self._clear_stop()
            return self.write_metrics()
        finally:
            os.close(self._lock_fd)
            self._lock_fd = None

    # -- wake FIFO ---------------------------------------------------------------
    def _open_wake(self) -> None:
        """Create the wake FIFO (or reuse one a SIGKILLed daemon left) and
        open its read end and one write end of the daemon's own.

        The held write end keeps the read end from ever reporting EOF.
        Anything but a FIFO at the path is refused, never written into or
        removed; where ``mkfifo`` fails the loop sleeps out its polls.
        """
        path = self.paths.wake
        try:
            os.mkfifo(path, 0o600)
        except FileExistsError:
            if not stat.S_ISFIFO(os.lstat(path).st_mode):
                raise UsageError(
                    f"{path} is in the way of the daemon's wake FIFO: "
                    "remove it",
                    path=path,
                ) from None
        except OSError:
            return  # a filesystem without FIFOs
        reader = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
        self._wake_fds = (reader, os.open(path, os.O_WRONLY | os.O_NONBLOCK))

    def _close_wake(self) -> None:
        """Close both ends and remove the FIFO they were opened on."""
        if self._wake_fds is None:
            return
        reader, writer = self._wake_fds
        self._wake_fds = None
        try:
            if os.path.samestat(os.lstat(self.paths.wake), os.fstat(reader)):
                os.remove(self.paths.wake)
        except OSError:
            pass
        os.close(writer)
        os.close(reader)

    def _wake_self(self) -> None:
        """A slot's attempt has settled: poke the daemon's own write end."""
        fds = self._wake_fds
        if fds is None:
            return
        try:
            os.write(fds[1], b"\0")
        except OSError:
            pass  # EAGAIN: the pipe is full, a wake is already pending

    def _wait(self, timeout: float) -> None:
        """Wait up to *timeout* seconds, less if a retry falls due sooner,
        for a wake; then read the pipe empty, so a burst costs one cycle.

        An overdue retry does not shorten the wait: the poll that just
        ran enqueued every due retry unless it was shed (a full disk),
        and a shed poll is tried again after the whole *timeout*.
        """
        retry_in = self.supervisor.next_retry_in()
        if retry_in is not None and 0 < retry_in < timeout:
            timeout = retry_in
        if self._wake_fds is None:
            time.sleep(timeout)
            return
        reader = self._wake_fds[0]
        if select.select([reader], [], [], timeout)[0]:
            try:
                while os.read(reader, 4096):
                    pass
            except BlockingIOError:
                pass

    def _clear_stop(self) -> None:
        """Consume the stop file on exit."""
        try:
            os.remove(self.paths.stop_file)
        except FileNotFoundError:
            pass

    def _drained(self) -> bool:
        if not self.scheduler.idle() or self.store.active():
            return False
        try:
            inbox_empty = not any(
                n.endswith(".json") for n in os.listdir(self.paths.inbox)
            )
        except FileNotFoundError:
            inbox_empty = True
        return inbox_empty
