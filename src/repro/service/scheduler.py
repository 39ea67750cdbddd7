"""Slot scheduling and per-job budgets.

The :class:`Scheduler` multiplexes admitted jobs over a bounded number
of slots — priority first, FIFO within a priority (the dispatch key is
``(-priority, seq)``).  Each slot is a scheduler thread that owns a
persistent attempt worker process (:mod:`repro.service.worker`): the
thread dispatches, relays and journals, the worker runs the flow, so N
slots place on N CPUs.  The workers are created when the scheduler
starts, before its threads, so they can fork; a slot replaces a worker
that died or that its watchdog killed.  Slot threads re-check a job's
state at dispatch time, so a job cancelled while queued is simply
skipped.  A job that raises —
structured :class:`~repro.runtime.errors.PlacementError`, budget
exhaustion, a stall, a dead worker, anything — is contained by its
executor: the slot records the failure and moves on to the next job;
siblings and the daemon never see the exception.  A job id may be
re-enqueued after its attempt finished (retry with backoff): the dedup
set is released at dispatch, not at completion.

:class:`JobRunContext` extends the PR 1 :class:`RunContext` with a
*job-level* wall-clock budget: every stage budget the flow requests is
clipped to the job's remaining allowance (reusing
:class:`~repro.runtime.budget.StageBudget` unchanged), so anytime stages
stop early and hard stages raise ``StageTimeoutError`` once the job is
out of time — which the executor turns into a FAILED job.  When a
heartbeat is attached (a :class:`~repro.service.supervisor.Heartbeat`,
or in an attempt worker the pipe link that relays to the daemon's), the
context also wires the two progress streams that feed it: every
event-log emission beats, and every budget poll goes through
:class:`~repro.service.supervisor.SupervisedBudget`, which beats.
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
    """Dispatches queued jobs to a bounded number of slots.

    Args:
        execute: callable invoked with a job id on a slot thread; owns
            all state transitions and must not raise (the service's
            executor converts failures into FAILED transitions).
        should_run: callable returning True when the job id is still
            dispatchable (i.e. QUEUED) — the cancel-while-queued check.
        workers: slot count; the bounded capacity every job shares.
        worker_factory: callable returning a new, unstarted attempt
            worker handle (:class:`~repro.service.worker.AttemptWorker`);
            every slot owns one, and *execute* reaches it through
            :meth:`worker`.  Without a factory the slots own no process.
    """

    def __init__(
        self, execute, should_run, workers: int = 1, worker_factory=None
    ) -> None:
        self.execute = execute
        self.should_run = should_run
        self.worker_factory = worker_factory
        #: optional callable polled before each dispatch: while it
        #: returns False the dequeued job is requeued (not dropped — the
        #: ``should_run`` check is for jobs that must *never* run, this
        #: gate is for jobs that must run *later*).  The resource
        #: governor pauses dispatch through this when disk headroom
        #: cannot fit a projected run dir; running jobs are untouched.
        self.dispatch_gate = None
        #: optional callable run on the slot thread once a dequeued job has
        #: settled (its attempt journalled and the slot counted idle): the
        #: daemon's wake, so a drain or a due retry is seen at once.
        self.on_settled = None
        self.workers = max(1, int(workers))
        self._queue: queue.PriorityQueue = queue.PriorityQueue()
        self._threads: list[threading.Thread] = []
        self._stop = threading.Event()
        self._inflight = 0
        self._lock = threading.Lock()
        self._enqueued: set[str] = set()
        #: the worker handle of each slot, by slot index
        self._procs: list = []
        self._local = threading.local()

    # -- lifecycle -------------------------------------------------------------
    def start(self) -> None:
        if self._threads:
            return
        self._stop.clear()
        if self.worker_factory is not None:
            # Workers first: while no scheduler thread runs they can fork.
            self._procs = [
                self.worker_factory().ensure() for _ in range(self.workers)
            ]
        for i in range(self.workers):
            t = threading.Thread(
                target=self._serve_slot, args=(i,),
                name=f"repro-slot-{i}", daemon=True,
            )
            t.start()
            self._threads.append(t)

    def stop(self) -> None:
        """Stop dispatching, wait for in-flight jobs, end the workers."""
        self._stop.set()
        for t in self._threads:
            t.join()
        self._threads.clear()
        procs, self._procs = self._procs, []
        for proc in procs:
            proc.stop()

    # -- worker processes ------------------------------------------------------
    def worker(self):
        """The calling slot's worker, started (or replaced) if needed."""
        return self._procs[self._local.slot].ensure()

    def worker_pids(self) -> list[int]:
        """Pids of the live worker processes (the governor's RSS sample)."""
        return [p.pid for p in self._procs if p.alive()]

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

    def idle(self) -> bool:
        with self._lock:
            return self._queue.empty() and self._inflight <= 0

    def _serve_slot(self, index: int) -> None:
        self._local.slot = index
        while not self._stop.is_set():
            if self.worker_factory is not None:
                try:
                    self.worker()  # a worker that died is replaced now
                except OSError:
                    self._stop.wait(0.05)
                    continue  # no process to be had: dispatch nothing yet
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
                self._enqueued.discard(job_id)
            try:
                if self.should_run(job_id):
                    self.execute(job_id)
            finally:
                with self._lock:
                    self._inflight -= 1
                self._queue.task_done()
                if self.on_settled is not None:
                    self.on_settled()
