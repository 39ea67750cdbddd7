"""Attempt worker processes: one per scheduler slot.

A job attempt is interpreter-bound Python (RL pre-training, MCTS,
legalization), so attempts on threads of one process share one GIL and a
second scheduler thread buys nothing.  Every attempt therefore runs in a
persistent worker process owned by its scheduler slot
(:class:`AttemptWorker`).  The daemon keeps all state — journal,
supervisor, warm publishing, result files, metrics — and the worker runs
the attempt body (:func:`_attempt`): build the design, compute its
warm-cache key and digest, open the
:class:`~repro.service.scheduler.JobRunContext` over the run dir, inject
the warm artifacts, install the job's fault plan, and call
``MCTSGuidedPlacer.place``.  The daemon never builds a design: the reply
carries the key and digest it publishes the warm entry under.

One pipe per worker carries an attempt:

- daemon to worker: ``attempt`` (an :class:`AttemptRequest`),
  ``gc_done`` and ``stop``;
- worker to daemon: ``beat`` (event-log emissions and budget polls, at
  most ``1 / BEAT_INTERVAL`` a second unless the stage changes, fed into
  the daemon-side :class:`~repro.service.supervisor.Heartbeat`),
  ``degradation`` and ``gc`` (the worker's ENOSPC guard hooks, handed to
  the daemon's, which own the governor, the job store and the metrics),
  and the final ``reply``: an :class:`AttemptReply` plus the fault
  arrivals to add back into the daemon's plan, so arrival counts stay
  cumulative across attempts.

The slot thread relaying that traffic (:meth:`AttemptWorker.run`) is the
watchdog: with ``stall_seconds`` set it waits on the pipe no longer than
the heartbeat has left, and once the heartbeat is older than that it
SIGKILLs and reaps the worker and returns a ``StageStallError`` reply.

Workers fork while the process is single-threaded (``repro serve``
before the scheduler threads start: the child inherits the imported
placer and starts in milliseconds) and spawn otherwise.
They die with the daemon: ``PR_SET_PDEATHSIG`` on Linux, and a closed
pipe ends an idle worker.  A worker that dies mid-attempt fails the
attempt with kind ``WorkerDied``; like a stall, that is transient (the
supervisor retries it), and the slot gets a fresh worker.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
import weakref
from contextlib import nullcontext
from dataclasses import dataclass
from multiprocessing import util
from typing import NamedTuple

from repro.runtime import faults, resources
from repro.runtime.budget import StageBudget
from repro.runtime.errors import StageStallError
from repro.service.scheduler import JobRunContext
from repro.service.supervisor import error_record
from repro.service.warm import WarmArtifactCache, design_digest

#: minimum seconds between two same-stage beats a worker relays
BEAT_INTERVAL = 0.05
#: seconds a new worker gets to report ready (a spawned one imports first)
START_TIMEOUT = 60.0
#: seconds a stopping worker gets to exit before it is killed
STOP_TIMEOUT = 5.0


@dataclass
class AttemptRequest:
    """Everything a worker needs to run one attempt."""

    job_id: str
    attempt: int
    spec: object  # JobSpec: the design, the job budget, the job's faults
    config: object  # the PlacerConfig the daemon derived from the spec
    run_dir: str
    resume: bool
    warm_root: str
    #: inject the warm artifacts; False when the attempt must not (a
    #: resumed or cold attempt)
    warm: bool
    #: the plan installed around the daemon, if any
    plan: object


@dataclass(frozen=True)
class AttemptSummary:
    """The fields of a ``FlowResult`` the daemon journals and counts."""

    hpwl: float
    best_hpwl: float
    n_macro_groups: int
    stage_seconds: dict
    #: ``(hits, misses)`` of every ``terminal_cache`` event
    terminal_cache: tuple
    exact_evaluations: int
    surrogate_evaluations: int
    surrogate_spearman: float | None
    degradations: int
    verified: bool

    @classmethod
    def of(cls, result) -> "AttemptSummary":
        search = result.search
        return cls(
            hpwl=result.hpwl,
            best_hpwl=min(result.hpwl, search.best_terminal_wirelength),
            n_macro_groups=result.n_macro_groups,
            stage_seconds=dict(result.stage_seconds),
            terminal_cache=tuple(
                (e.data["hits"], e.data["misses"])
                for e in result.events.of("terminal_cache")
            ),
            exact_evaluations=search.n_exact_evaluations,
            surrogate_evaluations=search.n_surrogate_evaluations,
            surrogate_spearman=search.surrogate_spearman,
            degradations=len(result.events.of("degradation")),
            verified=result.verification is not None,
        )


class AttemptReply(NamedTuple):
    """How an attempt ended: a summary, or the error record."""

    summary: AttemptSummary | None
    error: dict | None
    #: the warm injection's outcome (None: the attempt failed before it)
    warm_hit: bool | None
    #: per-key counts of the worker's warm-cache instance
    warm_counts: dict
    #: the warm-cache key of the attempt's design and config, and the
    #: design's :func:`~repro.service.warm.design_digest` (None: the
    #: attempt failed before its design was built)
    warm_key: str | None = None
    design_digest: str | None = None


# -- daemon side --------------------------------------------------------------
#: every handle with a live worker; a forked worker closes their pipe ends
_HANDLES: "weakref.WeakSet[AttemptWorker]" = weakref.WeakSet()


def _end(process, conn, timeout: float) -> None:
    """Ask a worker to exit, kill it if it does not, reap it."""
    try:
        conn.send(("stop",))
    except OSError:
        pass  # already gone
    process.join(timeout)
    if process.exitcode is None:
        process.kill()
        process.join()
    conn.close()


class AttemptWorker:
    """Daemon-side handle of one attempt worker process."""

    def __init__(self) -> None:
        self._process = None
        self._conn = None
        self._finalizer = None

    @property
    def pid(self) -> int | None:
        return None if self._process is None else self._process.pid

    def alive(self) -> bool:
        process = self._process  # other threads may replace it
        return process is not None and process.is_alive()

    def ensure(self) -> "AttemptWorker":
        """Start the worker unless it is running (a dead one is reaped and
        replaced), and wait until it is ready.  Forks when this process is
        single-threaded, spawns otherwise; raises OSError when no worker
        comes up."""
        if self.alive():
            return self
        self.stop()
        method = "fork" if threading.active_count() == 1 else "spawn"
        context = multiprocessing.get_context(method)
        ours, theirs = context.Pipe()
        # A forked child holds a copy of every daemon-side pipe end; it
        # closes them, so each worker sees EOF once its daemon is gone.
        inherited = (
            [h._conn for h in _HANDLES if h._conn is not None] + [ours]
            if method == "fork" else []
        )
        process = context.Process(
            target=_serve, args=(theirs, os.getpid(), inherited),
            name="repro-attempt-worker",
        )
        process.start()
        theirs.close()
        self._process, self._conn = process, ours
        # Ends the worker when the handle is collected or the daemon
        # exits (before multiprocessing joins its children).
        self._finalizer = util.Finalize(
            self, _end, args=(process, ours, STOP_TIMEOUT), exitpriority=10
        )
        _HANDLES.add(self)
        # Ready means imported: a spawned worker's imports must not count
        # against the heartbeat of the first attempt it is given.
        try:
            ready = ours.poll(START_TIMEOUT) and ours.recv() == ("ready",)
        except (EOFError, OSError):
            ready = False
        if not ready:
            self.stop()
            raise OSError(f"attempt worker (pid {process.pid}) did not start")
        return self

    def stop(self) -> None:
        """End the worker (idempotent; :attr:`pid` keeps the last pid)."""
        if self._finalizer is not None:
            self._finalizer()
        self._conn = self._finalizer = None
        _HANDLES.discard(self)

    def run(
        self,
        request: AttemptRequest,
        heartbeat,
        stall_seconds: float | None = None,
    ) -> AttemptReply:
        """Run one attempt in the worker; relay its traffic until it ends.

        *heartbeat* is the attempt's daemon-side
        :class:`~repro.service.supervisor.Heartbeat`: relayed beats and
        emergency-GC round trips feed it.  With *stall_seconds* set, a
        heartbeat older than that gets the worker SIGKILLed and reaped,
        and the attempt a ``StageStallError`` reply.
        """
        conn = self._conn
        try:
            conn.send(("attempt", request))
            while True:
                wait = None
                if stall_seconds is not None:
                    wait = stall_seconds - heartbeat.age()
                    if wait <= 0:
                        break  # stalled: killed below
                if not conn.poll(wait):
                    continue
                message = conn.recv()
                kind = message[0]
                if kind == "beat":
                    heartbeat.beat(message[1])
                elif kind == "degradation":
                    resources.report_degradation(message[1])
                elif kind == "gc":
                    resources.run_emergency_gc()
                    conn.send(("gc_done",))
                    heartbeat.beat()
                elif kind == "reply":
                    _, reply, arrivals = message
                    if request.plan is not None:
                        for fault, (arrived, fired) in zip(
                            request.plan.faults, arrivals
                        ):
                            fault.arrivals += arrived
                            fault.fired += fired
                    return reply
        except (EOFError, OSError):
            self._process.join(1.0)
            return AttemptReply(None, {
                "kind": "WorkerDied",
                "message": (
                    f"attempt worker (pid {self.pid}) exited with code "
                    f"{self._process.exitcode} mid-attempt"
                ),
            }, None, {})
        age = heartbeat.age()
        self._process.kill()
        self._process.join()
        return AttemptReply(None, error_record(StageStallError(
            f"no progress for {age:.2f}s (stall_seconds={stall_seconds}); "
            f"killed attempt worker (pid {self.pid})",
            stage=heartbeat.stage,
            job=request.job_id,
            attempt=request.attempt,
            stalled_seconds=round(age, 3),
            stall_seconds=stall_seconds,
        )), None, {})


# -- worker side --------------------------------------------------------------
def _exit_with_parent(parent_pid: int) -> None:
    """Have the kernel SIGKILL this worker when its daemon dies (Linux)."""
    try:
        import ctypes

        ctypes.CDLL(None).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    except (OSError, AttributeError):
        pass  # no prctl: the closed pipe still ends an idle worker
    if os.getppid() != parent_pid:
        os._exit(0)  # the daemon died before the signal was armed


class _Link:
    """The worker's end of the pipe.

    It stands in for the attempt's heartbeat inside the flow (the
    ``beat``/``beat_event`` interface of
    :class:`~repro.service.scheduler.JobRunContext` and
    :class:`~repro.service.supervisor.SupervisedBudget`) and provides the
    worker's ENOSPC guard hooks.
    """

    def __init__(self, conn) -> None:
        self.conn = conn
        self.begin()

    def begin(self) -> None:
        """Reset the per-attempt state."""
        self.stage: str | None = None
        self.sent = 0.0  # monotonic time of the last relayed beat

    # -- pipe -------------------------------------------------------------------
    def send(self, message) -> None:
        try:
            self.conn.send(message)
        except OSError:
            os._exit(1)  # the daemon is gone

    def recv(self):
        try:
            return self.conn.recv()
        except (EOFError, OSError):
            os._exit(0)  # the daemon is gone

    # -- heartbeat --------------------------------------------------------------
    def beat(self, stage: str | None = None) -> None:
        """Relay a beat: at once on a stage change, otherwise at most
        once per :data:`BEAT_INTERVAL`."""
        now = time.monotonic()
        changed = stage is not None and stage != self.stage
        if changed:
            self.stage = stage
        if changed or now - self.sent >= BEAT_INTERVAL:
            self.sent = now
            self.send(("beat", self.stage))

    def beat_event(self, event) -> None:
        self.beat(event.stage)

    # -- guard hooks ------------------------------------------------------------
    def degradation(self, info: dict) -> None:
        self.send(("degradation", info))

    def emergency_gc(self) -> None:
        self.send(("gc",))
        self.recv()  # gc_done


def _serve(conn, parent_pid: int, inherited: list) -> None:
    """Worker main loop: run attempts until stopped or orphaned."""
    for end in inherited:
        end.close()
    _exit_with_parent(parent_pid)
    # Ctrl-C stops the daemon, which lets in-flight attempts finish.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    link = _Link(conn)
    # A forked worker inherits the daemon's hooks; these sit above them.
    resources.install_guard(
        on_degradation=link.degradation, emergency_gc=link.emergency_gc
    )
    from repro.core.flow import MCTSGuidedPlacer  # noqa: F401 — import once, idle

    link.send(("ready",))
    while True:
        message = link.recv()
        if message[0] == "stop":
            return
        request = message[1]
        plan = request.plan
        before = [] if plan is None else [
            (f.arrivals, f.fired) for f in plan.faults
        ]
        link.begin()
        reply = _attempt(request, link)
        arrivals = [] if plan is None else [
            (f.arrivals - a, f.fired - b)
            for f, (a, b) in zip(plan.faults, before)
        ]
        link.send(("reply", reply, arrivals))


def _attempt(request: AttemptRequest, link: _Link) -> AttemptReply:
    """The attempt body, exactly as a scheduler thread used to run it."""
    from repro.core.flow import MCTSGuidedPlacer

    spec = request.spec
    cache = WarmArtifactCache(request.warm_root)
    warm_hit = warm_key = digest = None
    try:
        # The daemon's plan covers the whole attempt (it replaces one a
        # forked worker inherited); a job's own plan covers the flow.
        with faults.inject(request.plan):
            _name, design = spec.build_design()
            warm_key = cache.key(request.config, design)
            digest = design_digest(design)
            ctx = JobRunContext(
                request.run_dir,
                request.config,
                design,
                resume=request.resume,
                job_budget=StageBudget("job", spec.budget_seconds),
                heartbeat=link,
            )
            warm_hit = request.warm and cache.inject(warm_key, ctx, digest)
            job_plan = spec.build_fault_plan()
            with faults.inject(job_plan) if job_plan is not None else nullcontext():
                result = MCTSGuidedPlacer(request.config).place(
                    design, context=ctx
                )
    except Exception as exc:  # noqa: BLE001 — reported, never fatal
        return AttemptReply(
            None, error_record(exc), warm_hit, cache.per_key(), warm_key,
            digest,
        )
    return AttemptReply(
        AttemptSummary.of(result), None, warm_hit, cache.per_key(), warm_key,
        digest,
    )
