"""Deterministic fault-injection harness.

Recovery code that never runs is broken code you have not noticed yet.
This module lets tests (and the CI resume drill) trigger every failure
path of the runtime at an exactly chosen point:

    plan = FaultPlan(
        Fault("trainer.nan_loss", at=2),          # 2nd update goes NaN
        Fault("lp.solve", at=1, count=None),      # every LP solve fails
        Fault("mcts.kill", at=3),                 # die at the 3rd commit
    )
    with inject(plan):
        MCTSGuidedPlacer(cfg).place(design, run_dir=d)

Instrumented sites poll :func:`should_fire` with their site name; each
poll counts as one *arrival* and a fault fires on arrivals
``at .. at+count-1`` (``count=None`` keeps firing forever).  Because
arrivals are counted, not timed, injection is fully deterministic and
independent of machine speed.

Known sites
-----------
- ``trainer.episode``   — raise inside an episode rollout (guarded: skipped)
- ``trainer.nan_loss``  — corrupt an update's loss/params with NaN
- ``trainer.kill``      — :class:`FaultInjected` out of the training loop
- ``mcts.kill``         — :class:`FaultInjected` at an MCTS commit point
- ``lp.solve``          — LP spread reports infeasible (degrades to packing)
- ``qp.solve``          — QP placement solve raises (degrades to no-op)
- ``budget.<stage>``    — the stage's wall-clock budget reads as exhausted
- ``checkpoint.corrupt``— flip one byte of a just-written run-dir
  artifact *after* its sha256 was recorded (bit-rot simulation; caught
  by integrity verification on the next resume/load)
- ``warm.corrupt``      — flip one byte of a just-stored warm-cache
  entry (caught by entry validation before injection → cold run)
- ``stall.freeze``      — freeze a job's progress heartbeat (beats stop
  registering; the service kills the attempt's worker at
  ``stall_seconds`` and fails the attempt with ``StageStallError``)
- ``disk.enospc``       — a guarded durable write fails with ``OSError
  ENOSPC`` (polled by :func:`repro.runtime.resources.guarded_write`
  before each attempt: ``at=1`` fails once and lets the post-GC retry
  succeed; ``count=None`` simulates a disk that never frees)
- ``disk.pressure``     — the governor's next disk sample reads as
  quota-full (admission shedding engages without filling a real disk)
- ``mem.pressure``      — the governor's next RSS sample reads as over
  the memory quota (same shedding path, memory-driven)
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.runtime.errors import FaultInjected


@dataclass
class Fault:
    """One deterministic trigger: fire on arrivals ``at .. at+count-1``."""

    site: str
    at: int = 1
    #: number of consecutive firings; ``None`` = fire forever from ``at``
    count: int | None = 1
    arrivals: int = field(default=0, repr=False)
    fired: int = field(default=0, repr=False)

    def arrive(self) -> bool:
        self.arrivals += 1
        if self.arrivals < self.at:
            return False
        if self.count is not None and self.arrivals >= self.at + self.count:
            return False
        self.fired += 1
        return True


class FaultPlan:
    """A set of faults plus arrival bookkeeping."""

    def __init__(self, *faults: Fault) -> None:
        self.faults = list(faults)

    def should_fire(self, site: str) -> bool:
        fired = False
        for fault in self.faults:
            if fault.site == site and fault.arrive():
                fired = True
        return fired

    def total_fired(self, site: str | None = None) -> int:
        return sum(
            f.fired for f in self.faults if site is None or f.site == site
        )


#: currently installed plan (module-global: the flow is single-threaded)
_ACTIVE: FaultPlan | None = None


def active() -> FaultPlan | None:
    return _ACTIVE


def should_fire(site: str) -> bool:
    """Poll *site*; True when an installed fault fires on this arrival."""
    return _ACTIVE is not None and _ACTIVE.should_fire(site)


def check_kill(site: str, stage: str | None = None) -> None:
    """Raise :class:`FaultInjected` when a kill fault fires at *site*."""
    if should_fire(site):
        raise FaultInjected(f"injected fault at {site}", stage=stage, site=site)


@contextmanager
def inject(plan: FaultPlan):
    """Install *plan* for the duration of the block (re-entrant safe)."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = plan
    try:
        yield plan
    finally:
        _ACTIVE = previous
