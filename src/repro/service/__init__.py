"""Placement-as-a-service: a concurrent job scheduler over the flow.

The service turns the one-shot ``MCTSGuidedPlacer`` flow into a
multi-tenant system: a long-lived daemon accepts many placement jobs
(design + :class:`~repro.core.config.PlacerConfig` + seed), multiplexes
them over a bounded worker budget, reuses pre-trained artifacts across
jobs on the same problem, and exposes a metrics surface.  Everything is
file-based — submission inbox, control requests, the job journal, per-job
run dirs, results, and ``metrics.json`` all live under one service
directory — so no network stack is required and every piece survives a
daemon restart.

Layers:

- :mod:`repro.service.jobs`      — job specs, states, the durable journal
- :mod:`repro.service.warm`      — warm-artifact cache (skip pre-training)
- :mod:`repro.service.metrics`   — counters / gauges / histograms
- :mod:`repro.service.scheduler` — slot threads + per-job budgets
- :mod:`repro.service.worker`    — attempt worker processes, one per slot
- :mod:`repro.service.supervisor`— heartbeats, watchdog, retry, quarantine
- :mod:`repro.service.service`   — the daemon: inbox, control, recovery
- :mod:`repro.service.chaos`     — fault drills: one scenario table
"""

from repro.service.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    QUARANTINED,
    QUEUED,
    RUNNING,
    Job,
    JobSpec,
    JobStore,
    ServicePaths,
    resolve_design,
)
from repro.service.metrics import ServiceMetrics
from repro.service.scheduler import JobRunContext, Scheduler
from repro.service.service import PlacementService
from repro.service.supervisor import Heartbeat, JobSupervisor, SupervisedBudget
from repro.service.warm import WarmArtifactCache

__all__ = [
    "CANCELLED",
    "DONE",
    "FAILED",
    "QUARANTINED",
    "QUEUED",
    "RUNNING",
    "Heartbeat",
    "Job",
    "JobRunContext",
    "JobSpec",
    "JobStore",
    "JobSupervisor",
    "PlacementService",
    "Scheduler",
    "ServiceMetrics",
    "ServicePaths",
    "SupervisedBudget",
    "WarmArtifactCache",
    "resolve_design",
]
