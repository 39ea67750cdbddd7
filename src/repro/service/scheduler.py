"""Worker scheduling and per-job budgets.

The :class:`Scheduler` multiplexes admitted jobs over a bounded pool of
worker threads — priority first, FIFO within a priority (the dispatch key
is ``(-priority, seq)``).  Workers re-check a job's state at dispatch
time, so a job cancelled while queued is simply skipped.  A job that
raises — structured :class:`~repro.runtime.errors.PlacementError`,
budget exhaustion, anything — is contained by its executor: the worker
records the failure and moves on to the next job; siblings and the
daemon never see the exception.

Supervision hooks (PR 5):

- A job id may be re-enqueued after its attempt finished (retry with
  backoff): the dedup set is released at dispatch, not at completion.
- :meth:`Scheduler.abandon` lets the watchdog give up on a hung attempt
  *without* killing its thread (Python can't): the attempt's slot is
  released for :meth:`idle` accounting and a **replacement worker
  thread** is spawned so capacity survives.  When the stuck thread
  eventually returns, it consumes its own abandon ticket and exits.

:class:`JobRunContext` extends the PR 1 :class:`RunContext` with a
*job-level* wall-clock budget: every stage budget the flow requests is
clipped to the job's remaining allowance (reusing
:class:`~repro.runtime.budget.StageBudget` unchanged), so anytime stages
stop early and hard stages raise ``StageTimeoutError`` once the job is
out of time — which the executor turns into a FAILED job.  When a
:class:`~repro.service.supervisor.Heartbeat` is attached, the context
also wires the two progress streams that feed it: every event-log
emission beats, and every budget poll goes through
:class:`~repro.service.supervisor.SupervisedBudget` (which beats, and
raises ``StageStallError`` once the watchdog cancels the attempt).
"""

from __future__ import annotations

import queue
import threading

from repro.runtime.budget import StageBudget
from repro.runtime.harness import RunContext


class JobRunContext(RunContext):
    """RunContext whose stage budgets are clipped by a whole-job budget."""

    def __init__(
        self,
        run_dir: str | None,
        config,
        design,
        resume: bool = False,
        job_budget: StageBudget | None = None,
        heartbeat=None,
    ) -> None:
        super().__init__(run_dir, config, design, resume=resume)
        self.job_budget = job_budget
        self.heartbeat = heartbeat
        if heartbeat is not None:
            self.events.listener = heartbeat.beat_event

    def budget(self, stage: str) -> StageBudget:
        base = super().budget(stage)
        job = self.job_budget
        if job is not None and job.seconds is not None:
            remaining = max(0.0, job.remaining())
            if base.seconds is None or remaining < base.seconds:
                base = StageBudget(stage, remaining)
        if self.heartbeat is not None:
            from repro.service.supervisor import SupervisedBudget

            return SupervisedBudget(base, self.heartbeat)
        return base


class Scheduler:
    """Dispatches queued jobs to a bounded pool of worker threads.

    Args:
        execute: callable invoked with a job id; owns all state
            transitions and must not raise (the service's executor
            converts failures into FAILED transitions).
        should_run: callable returning True when the job id is still
            dispatchable (i.e. QUEUED) — the cancel-while-queued check.
        workers: thread count; the bounded capacity every job shares.
    """

    def __init__(self, execute, should_run, workers: int = 1) -> None:
        self.execute = execute
        self.should_run = should_run
        #: optional callable polled before each dispatch: while it
        #: returns False the dequeued job is requeued (not dropped — the
        #: ``should_run`` check is for jobs that must *never* run, this
        #: gate is for jobs that must run *later*).  The resource
        #: governor pauses dispatch through this when disk headroom
        #: cannot fit a projected run dir; running jobs are untouched.
        self.dispatch_gate = None
        self.workers = max(1, int(workers))
        self._queue: queue.PriorityQueue = queue.PriorityQueue()
        self._threads: list[threading.Thread] = []
        self._stop = threading.Event()
        self._inflight = 0
        self._lock = threading.Lock()
        self._enqueued: set[str] = set()
        #: monotonic attempt-dispatch counter; each dequeue gets a ticket
        self._next_ticket = 0
        #: job id -> ticket of the attempt currently holding a worker
        self._running: dict[str, int] = {}
        #: tickets the watchdog force-abandoned; their (stuck) threads
        #: consume them on eventual return
        self._abandoned: set[int] = set()

    # -- lifecycle -------------------------------------------------------------
    def start(self) -> None:
        if self._threads:
            return
        self._stop.clear()
        for i in range(self.workers):
            self._spawn_worker(i)

    def _spawn_worker(self, index: int) -> None:
        t = threading.Thread(
            target=self._worker, name=f"repro-worker-{index}", daemon=True
        )
        t.start()
        self._threads.append(t)

    def stop(self, timeout: float | None = None) -> None:
        """Stop dispatching and wait for in-flight jobs to finish.

        Abandoned (hung) attempts may never return; their daemon threads
        are joined with a bounded *timeout* (default 1s each when any
        abandon ticket is outstanding) and otherwise left to die with the
        process.
        """
        self._stop.set()
        with self._lock:
            if timeout is None and self._abandoned:
                timeout = 1.0
        for t in self._threads:
            t.join(timeout)
        self._threads.clear()

    # -- dispatch --------------------------------------------------------------
    def enqueue(self, job) -> bool:
        """Queue *job* for dispatch (idempotent per queued job id).

        The dedup set is released when the job is *dequeued*, so a
        retried job can be enqueued again after its failed attempt —
        while still collapsing duplicate enqueues of a waiting job.
        """
        with self._lock:
            if job.id in self._enqueued:
                return False
            self._enqueued.add(job.id)
        self._queue.put((-job.priority, job.seq, job.id))
        return True

    def abandon(self, job_id: str) -> bool:
        """Release the slot of *job_id*'s running attempt (hung thread).

        The stuck thread is not killed — it keeps its own ticket and
        exits when (if) it ever returns.  A replacement worker thread is
        spawned so the pool keeps its capacity.
        """
        with self._lock:
            ticket = self._running.pop(job_id, None)
            if ticket is None:
                return False
            self._abandoned.add(ticket)
            index = len(self._threads)
        self._spawn_worker(index)
        return True

    def idle(self) -> bool:
        with self._lock:
            return (
                self._queue.empty()
                and self._inflight - len(self._abandoned) <= 0
            )

    def _worker(self) -> None:
        while not self._stop.is_set():
            try:
                item = self._queue.get(timeout=0.05)
            except queue.Empty:
                continue
            gate = self.dispatch_gate
            if gate is not None and not gate():
                # Dispatch paused (resource pressure): the job goes back
                # to the queue intact — it stays enqueued/deduped and
                # runs once the governor reopens the gate.
                self._queue.put(item)
                self._queue.task_done()
                self._stop.wait(0.05)
                continue
            _, _, job_id = item
            with self._lock:
                self._inflight += 1
                self._next_ticket += 1
                ticket = self._next_ticket
                self._running[job_id] = ticket
                self._enqueued.discard(job_id)
            abandoned = False
            try:
                if self.should_run(job_id):
                    self.execute(job_id)
            finally:
                with self._lock:
                    self._inflight -= 1
                    if self._running.get(job_id) == ticket:
                        del self._running[job_id]
                    elif ticket in self._abandoned:
                        # the watchdog gave up on this attempt and spawned
                        # a replacement thread; consume the ticket and exit
                        self._abandoned.discard(ticket)
                        abandoned = True
                self._queue.task_done()
            if abandoned:
                return
