"""Structured exception hierarchy of the fault-tolerant runtime.

Every failure the flow can surface derives from :class:`PlacementError`,
which carries the flow *stage* it occurred in plus arbitrary keyword
``details`` (episode index, solver status, budget seconds, ...) so a
supervisor — the CLI, a batch driver, a test — can decide whether to
resume, degrade, or abort without parsing message strings.  Each subclass
maps to a distinct process exit code (``repro.cli`` returns them), in the
spirit of sysexits: anything ≥ 10 is a placement-runtime failure, 64 is
bad usage (EX_USAGE).
"""

from __future__ import annotations


class PlacementError(Exception):
    """Base class of all structured placement-flow failures."""

    #: process exit code the CLI maps this class to
    exit_code = 10

    def __init__(self, message: str, *, stage: str | None = None, **details):
        super().__init__(message)
        self.message = message
        self.stage = stage
        self.details = details

    def __str__(self) -> str:
        prefix = f"[{self.stage}] " if self.stage else ""
        suffix = ""
        if self.details:
            pairs = ", ".join(f"{k}={v!r}" for k, v in sorted(self.details.items()))
            suffix = f" ({pairs})"
        return f"{prefix}{self.message}{suffix}"


class UsageError(PlacementError):
    """Bad CLI input / run-dir mismatch — the EX_USAGE class of failures."""

    exit_code = 64


class CalibrationError(PlacementError):
    """Reward calibration produced unusable statistics (Eq. 9 undefined)."""

    exit_code = 11


class TrainingDivergedError(PlacementError):
    """RL training could not recover (repeated NaN/inf updates or episode
    failures beyond the configured tolerance)."""

    exit_code = 12


class SolverInfeasibleError(PlacementError):
    """An LP/QP solve failed or reported infeasibility.

    Raised by the *inner* solver helpers; the legalization pipeline
    normally catches it and degrades to the greedy sequence-pair packing,
    so callers only see it when degradation is impossible too.
    """

    exit_code = 13


class StageTimeoutError(PlacementError):
    """A stage exceeded its wall-clock budget and has no anytime result."""

    exit_code = 14


class FaultInjected(PlacementError):
    """Deliberate failure raised by the fault-injection harness.

    Used by tests and the resume smoke-drill to simulate a killed process
    at a deterministic point; it deliberately subclasses
    :class:`PlacementError` so stage guards re-raise it instead of
    swallowing it like an ordinary episode exception.
    """

    exit_code = 15


class StageStallError(PlacementError):
    """A job's progress heartbeat stalled past ``stall_seconds``.

    The service slot relaying the attempt kills the attempt's worker
    process and reports this error for it; the job's heartbeat beats on
    every event emission and budget poll (every RL episode and every
    MCTS exploration).  Classified as transient — a stalled solver is
    usually a one-off scheduling or I/O hiccup — so the supervisor
    retries it with backoff before quarantining.
    """

    exit_code = 16


class ArtifactCorruptError(PlacementError):
    """A checkpoint/artifact failed its recorded sha256 verification.

    Most corruption is absorbed silently (a corrupt snapshot is discarded,
    a corrupt completed-stage artifact triggers a cold stage restart, a
    corrupt warm-cache entry becomes a cold run); this error surfaces only
    when nothing can be recomputed — e.g. ``repro doctor`` validating a
    run dir offline.
    """

    exit_code = 17


class VerificationError(PlacementError):
    """The independent placement verifier rejected a final placement.

    Carries the failed check names in ``details`` so a supervisor can
    distinguish an overlap from an HPWL mismatch without string parsing.
    """

    exit_code = 18


class ResourceExhaustedError(PlacementError):
    """A durable write hit ENOSPC twice — once before and once after an
    emergency garbage-collection pass
    (:func:`repro.runtime.resources.guarded_write`).

    Classified *transient* by the service supervisor: the failing
    attempt re-enters the ordinary retry/backoff machinery (by the next
    attempt the governor's GC, or an operator, may have freed space)
    and the daemon itself keeps serving.
    """

    exit_code = 19
