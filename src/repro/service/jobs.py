"""Job model, durable journal, and the service directory layout.

A *job* is one placement request: a design source (suite circuit or
Bookshelf ``.aux``), a :class:`~repro.core.config.PlacerConfig` preset
with a seed, a priority, and an optional wall-clock budget.  Jobs move
through the state machine::

    QUEUED -> RUNNING -> DONE | FAILED | CANCELLED | QUARANTINED
    RUNNING -> QUEUED (retry with backoff while attempts <= max_retries)

QUARANTINED is the poison-job terminal state: a transiently-failing job
that exhausted its retry budget (see
:class:`~repro.service.supervisor.JobSupervisor`), journalled separately
in ``<service_dir>/quarantine.jsonl`` for offline triage.

Every transition is appended to ``<service_dir>/jobs.jsonl`` — the
journal is the single source of truth, replayed on daemon start the same
way :class:`~repro.runtime.checkpoint.RunDir` replays a run manifest.  A
torn trailing line (daemon killed mid-append) is tolerated exactly like
the event log and terminal cache (:func:`repro.utils.events.read_jsonl`).

The journal supports **multiple concurrent writer processes** (a fleet
of shard daemons sharing one directory, :mod:`repro.service.fleet`):

- every append is a single ``write`` syscall on an ``O_APPEND``
  descriptor (:func:`repro.utils.events.append_jsonl`), so records from
  different shards interleave whole, never byte-wise;
- :meth:`JobStore.refresh` tails the journal incrementally, folding in
  peers' records without re-reading the file — a shard's in-memory
  table converges to the union of every writer's appends;
- replay is *first-submit-wins* per job id and *first-terminal-wins*
  per job: once a job reaches a terminal state, later state records for
  it (a fenced-out zombie shard's stale report) are counted and
  dropped, which makes double-completion structurally impossible in the
  replayed state.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from dataclasses import asdict, dataclass, replace

from repro.runtime.errors import UsageError
from repro.utils.events import append_jsonl, read_jsonl

#: job lifecycle states
QUEUED = "QUEUED"
RUNNING = "RUNNING"
DONE = "DONE"
FAILED = "FAILED"
CANCELLED = "CANCELLED"
QUARANTINED = "QUARANTINED"

STATES = (QUEUED, RUNNING, DONE, FAILED, CANCELLED, QUARANTINED)
#: states a job never leaves
TERMINAL_STATES = (DONE, FAILED, CANCELLED, QUARANTINED)


def new_job_id() -> str:
    return "job-" + uuid.uuid4().hex[:12]


def resolve_design(
    circuit: str | None = None,
    aux: str | None = None,
    scale: float = 0.01,
    macro_scale: float = 0.08,
):
    """Build the design a job (or a CLI invocation) asks for.

    Shared by ``repro place``/``compare`` and the service scheduler so a
    job's design is constructed exactly like the single-shot CLI's —
    which is what makes service HPWLs comparable to ``repro place`` runs.
    """
    from repro.netlist.bookshelf import read_aux
    from repro.netlist.suites import (
        ICCAD04_STATS,
        INDUSTRIAL_STATS,
        make_iccad04_circuit,
        make_industrial_circuit,
    )

    if aux:
        design = read_aux(aux)
        return design.name, design
    if circuit in ICCAD04_STATS:
        return circuit, make_iccad04_circuit(
            circuit, scale=scale, macro_scale=macro_scale
        ).design
    if circuit in INDUSTRIAL_STATS:
        return circuit, make_industrial_circuit(
            circuit, scale=scale / 5.0, macro_scale=max(macro_scale * 5, 0.3)
        ).design
    raise UsageError(
        f"unknown circuit {circuit!r}; see 'python -m repro suites'",
        circuit=circuit,
    )


@dataclass(frozen=True)
class JobSpec:
    """Everything needed to reconstruct one placement job's inputs."""

    circuit: str | None = None
    aux: str | None = None
    scale: float = 0.01
    macro_scale: float = 0.08
    preset: str = "fast"
    seed: int = 0
    #: whole-job wall-clock allowance; stages see the remaining budget
    #: through :class:`repro.service.scheduler.JobRunContext` (None = no cap)
    budget_seconds: float | None = None
    #: deterministic faults injected into every attempt of *this job
    #: only*: ``((site, at, count), ...)`` triples (count ``None`` =
    #: forever) building a :class:`~repro.runtime.faults.FaultPlan`
    #: around the flow call.  A chaos-drill facility — it lets a fleet
    #: drill poison one job in a mix without touching the shard
    #: processes — meaningful on single-worker daemons (the plan is
    #: process-global while the attempt runs).
    faults: tuple | list | None = None
    #: dotted-path config overrides applied on top of the preset:
    #: ``((\"mcts.c_puct\", 2.5), ...)`` pairs, routed through
    #: :func:`repro.core.config.apply_overrides` so the same validation
    #: and coercion rules cover study sweep points and ``repro submit
    #: --set``.  The reserved knobs (run dir, resume, terminal cache
    #: path) stay under the service's control and cannot be overridden.
    overrides: tuple | list | None = None

    def validate(self) -> None:
        if not self.circuit and not self.aux:
            raise UsageError("job spec needs a circuit name or an aux path")
        if self.preset not in ("fast", "benchmark", "paper"):
            raise UsageError(
                f"unknown preset {self.preset!r}; choose from "
                "['benchmark', 'fast', 'paper']",
                preset=self.preset,
            )
        for item in self.faults or ():
            if not isinstance(item, (list, tuple)) or not (1 <= len(item) <= 3):
                raise UsageError(
                    "job faults must be (site, at?, count?) triples",
                    faults=self.faults,
                )
        for item in self.overrides or ():
            if (
                not isinstance(item, (list, tuple))
                or len(item) != 2
                or not isinstance(item[0], str)
            ):
                raise UsageError(
                    "job overrides must be (knob_path, value) pairs",
                    overrides=self.overrides,
                )

    def build_design(self):
        return resolve_design(
            circuit=self.circuit,
            aux=self.aux,
            scale=self.scale,
            macro_scale=self.macro_scale,
        )

    def build_config(self, terminal_cache_path: str | None = None):
        from repro.core.config import PlacerConfig, apply_overrides

        self.validate()
        if self.preset == "paper":
            config = replace(PlacerConfig.paper(), seed=self.seed)
        else:
            config = getattr(PlacerConfig, self.preset)(seed=self.seed)
        if self.overrides:
            config = apply_overrides(config, self.overrides)
        return replace(config, terminal_cache_path=terminal_cache_path)

    def build_fault_plan(self):
        """The per-job :class:`~repro.runtime.faults.FaultPlan` (or None)."""
        if not self.faults:
            return None
        from repro.runtime.faults import Fault, FaultPlan

        built = []
        for item in self.faults:
            site, at, count = (tuple(item) + (1, 1))[:3]
            built.append(
                Fault(
                    str(site),
                    at=int(at),
                    count=None if count is None else int(count),
                )
            )
        return FaultPlan(*built)

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, payload: dict) -> "JobSpec":
        known = {k: payload[k] for k in cls.__dataclass_fields__ if k in payload}
        if known.get("overrides"):
            # JSON round-trips tuples as lists; renormalize so replayed
            # specs compare equal to freshly built ones.
            known["overrides"] = tuple(
                tuple(pair) if isinstance(pair, (list, tuple)) else pair
                for pair in known["overrides"]
            )
        return cls(**known)


@dataclass
class Job:
    """One job's live state, rebuilt from the journal on load."""

    id: str
    spec: JobSpec
    priority: int = 0
    #: admission order; ties in priority dispatch FIFO on this
    seq: int = 0
    state: str = QUEUED
    submitted_ts: float = 0.0
    finished_ts: float | None = None
    attempts: int = 0
    error: dict | None = None
    warm_hit: bool = False
    hpwl: float | None = None
    seconds: float | None = None
    #: fleet shard that wrote the job's latest transition (None outside
    #: fleet mode); purely observational
    shard: str | None = None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def to_json(self) -> dict:
        """Machine-readable snapshot for ``repro status --json`` pollers."""
        return {
            "id": self.id,
            "state": self.state,
            "priority": self.priority,
            "seq": self.seq,
            "attempts": self.attempts,
            "submitted_ts": self.submitted_ts,
            "finished_ts": self.finished_ts,
            "warm_hit": self.warm_hit,
            "hpwl": self.hpwl,
            "seconds": self.seconds,
            "shard": self.shard,
            "error": self.error,
            "spec": self.spec.to_json(),
        }


@dataclass(frozen=True)
class ServicePaths:
    """File layout of one service directory."""

    root: str

    @property
    def inbox(self) -> str:
        return os.path.join(self.root, "inbox")

    @property
    def control(self) -> str:
        return os.path.join(self.root, "control")

    @property
    def runs(self) -> str:
        return os.path.join(self.root, "runs")

    @property
    def results(self) -> str:
        return os.path.join(self.root, "results")

    @property
    def warm(self) -> str:
        return os.path.join(self.root, "warm")

    @property
    def journal(self) -> str:
        return os.path.join(self.root, "jobs.jsonl")

    @property
    def metrics(self) -> str:
        return os.path.join(self.root, "metrics.json")

    @property
    def terminal_cache(self) -> str:
        """One fleet-wide terminal cache file; entries are keyed by an
        environment fingerprint, so jobs on different designs coexist."""
        return os.path.join(self.root, "terminal_cache.jsonl")

    @property
    def rejected(self) -> str:
        """Malformed-submission quarantine: files the inbox poller could
        never parse are moved here (with a ``.reason.json`` sidecar)
        instead of being re-parsed forever."""
        return os.path.join(self.inbox, ".rejected")

    @property
    def quarantine(self) -> str:
        """JSONL journal of poison jobs (transient failures that
        exhausted their retry budget)."""
        return os.path.join(self.root, "quarantine.jsonl")

    @property
    def stop_file(self) -> str:
        return os.path.join(self.control, "stop")

    def run_dir(self, job_id: str) -> str:
        return os.path.join(self.runs, job_id)

    def result_file(self, job_id: str) -> str:
        return os.path.join(self.results, job_id + ".json")

    def ensure(self) -> "ServicePaths":
        for d in (self.root, self.inbox, self.control, self.runs,
                  self.results, self.warm):
            os.makedirs(d, exist_ok=True)
        return self


def write_json_atomic(path: str, payload: dict) -> None:
    """tmp-file + ``os.replace`` write, the run-manifest convention.

    ENOSPC-guarded (:func:`repro.runtime.resources.guarded_write`): a
    full disk degrades — emergency GC, one retry — before failing the
    attempt with a retryable ``ResourceExhaustedError``.
    """
    from repro.runtime.resources import guarded_write

    def _write() -> None:
        tmp = f"{path}.{os.getpid()}.{uuid.uuid4().hex[:6]}.tmp"
        with open(tmp, "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)

    guarded_write(f"json:{os.path.basename(path)}", _write)


class JobStore:
    """In-memory job table backed by the append-only JSONL journal.

    Thread-safe: the daemon's poll loop and every scheduler worker
    transition jobs concurrently.  ``load()`` replays the journal, so a
    restarted daemon (or a read-only CLI like ``repro status``) sees the
    exact pre-crash state; a torn tail line is skipped, which at worst
    forgets the very last transition — never corrupts earlier ones.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._lock = threading.RLock()
        self._jobs: dict[str, Job] = {}
        self._seq = 0
        #: byte offset up to which the journal has been folded in; refresh
        #: resumes tailing here (only ever advanced past complete lines)
        self._offset = 0
        #: records dropped by the first-terminal-wins replay rule — a
        #: nonzero count means a fenced-out writer tried to re-decide a
        #: finished job (or replayed its own record, which is benign)
        self.stale_records = 0
        #: extra keys merged into every record this store writes (a fleet
        #: shard tags its appends with its shard id)
        self.tag: dict = {}

    # -- journal ---------------------------------------------------------------
    def _append(self, record: dict) -> None:
        # Single-syscall atomic append: fleet shards share this journal.
        append_jsonl(self.path, {**self.tag, **record}, fsync=True)

    def load(self) -> "JobStore":
        """Replay the whole journal from the top (daemon start, CLI)."""
        with self._lock:
            self._jobs.clear()
            self._seq = 0
            self._offset = 0
            self.stale_records = 0
            self._tail()
        return self

    def refresh(self) -> "JobStore":
        """Fold in records appended since the last load/refresh.

        Tails the journal from the saved byte offset, so concurrent
        writers' records (and this store's own, which re-apply as no-ops
        under the replay rules) converge into the in-memory table without
        re-reading the file.  Only newline-terminated lines advance the
        offset — a torn tail is re-examined on the next refresh, by which
        time the writer's atomic append has completed.
        """
        with self._lock:
            self._tail()
        return self

    def _tail(self) -> None:
        try:
            f = open(self.path, "rb")
        except FileNotFoundError:
            return
        with f:
            f.seek(0, os.SEEK_END)
            if f.tell() < self._offset:
                # The journal shrank under us: a peer (or an offline
                # ``repro gc``) compacted it into a snapshot + tail.
                # Replay from the top — the first-submit-wins /
                # first-terminal-wins rules make re-application of
                # already-known records a counted no-op.
                self._offset = 0
            f.seek(self._offset)
            for line in f:
                if not line.endswith(b"\n"):
                    break  # in-flight append; retry next refresh
                self._offset = f.tell()
                try:
                    record = json.loads(line.decode("utf-8"))
                except ValueError:
                    # damaged line (skipped, like read_jsonl): torn JSON,
                    # or a flipped high bit that is not UTF-8
                    continue
                if isinstance(record, dict):
                    self._apply_record(record)

    def _apply_record(self, record: dict) -> None:
        kind = record.get("record")
        if kind == "submit":
            if record.get("id") in self._jobs:
                # First submit wins: a re-read of our own append, or a
                # redundant re-admission raced by a peer.
                self.stale_records += 1
                return
            try:
                job = Job(
                    id=record["id"],
                    spec=JobSpec.from_json(record.get("spec", {})),
                    priority=int(record.get("priority", 0)),
                    seq=int(record.get("seq", 0)),
                    state=record.get("state", QUEUED),
                    submitted_ts=float(record.get("ts", 0.0)),
                    error=record.get("error"),
                    shard=record.get("shard"),
                )
            except (KeyError, TypeError, ValueError):
                return
            self._jobs[job.id] = job
            self._seq = max(self._seq, job.seq)
        elif kind == "state":
            job = self._jobs.get(record.get("id"))
            if job is None or record.get("state") not in STATES:
                return
            if job.terminal:
                # First terminal wins: a finished job's fate is sealed.
                # Anything after — a zombie shard's late report, or this
                # store re-reading its own terminal append — is dropped,
                # so double-completion cannot exist in replayed state.
                self.stale_records += 1
                return
            self._apply(job, record)
        elif kind == "snapshot":
            # A compaction fold: whole jobs (usually terminal) written as
            # one line in place of their submit+state history.  Replay
            # rules match the incremental ones: an unknown job is taken
            # whole; a known non-terminal job may be sealed by a terminal
            # snapshot entry; a known terminal job is never re-decided.
            for payload in record.get("jobs", ()):
                if not isinstance(payload, dict):
                    continue
                if payload.get("state") not in STATES:
                    continue
                try:
                    job = Job(
                        id=payload["id"],
                        spec=JobSpec.from_json(payload.get("spec", {})),
                        priority=int(payload.get("priority", 0)),
                        seq=int(payload.get("seq", 0)),
                        state=payload["state"],
                        submitted_ts=float(payload.get("ts", 0.0)),
                        finished_ts=payload.get("finished_ts"),
                        attempts=int(payload.get("attempts", 0)),
                        error=payload.get("error"),
                        warm_hit=bool(payload.get("warm_hit", False)),
                        hpwl=payload.get("hpwl"),
                        seconds=payload.get("seconds"),
                        shard=payload.get("shard"),
                    )
                except (KeyError, TypeError, ValueError):
                    continue
                existing = self._jobs.get(job.id)
                if existing is None:
                    self._jobs[job.id] = job
                elif not existing.terminal and job.terminal:
                    self._jobs[job.id] = job
                else:
                    self.stale_records += 1
                self._seq = max(self._seq, job.seq)
            try:
                self._seq = max(self._seq, int(record.get("seq", 0)))
            except (TypeError, ValueError):
                pass

    @staticmethod
    def _apply(job: Job, record: dict) -> None:
        job.state = record["state"]
        if job.state == RUNNING:
            job.attempts = int(record.get("attempt", job.attempts + 1))
        if "error" in record:
            job.error = record["error"]
        if "warm_hit" in record:
            job.warm_hit = bool(record["warm_hit"])
        if "hpwl" in record:
            job.hpwl = record["hpwl"]
        if "seconds" in record:
            job.seconds = record["seconds"]
        if "shard" in record:
            job.shard = record["shard"]
        if job.terminal:
            job.finished_ts = float(record.get("ts", 0.0))

    # -- mutations -------------------------------------------------------------
    def add(
        self,
        spec: JobSpec,
        job_id: str | None = None,
        priority: int = 0,
        state: str = QUEUED,
        error: dict | None = None,
        submitted_ts: float | None = None,
    ) -> Job:
        """Admit one job (or record its rejection when *state* is FAILED)."""
        with self._lock:
            self._seq += 1
            job = Job(
                id=job_id or new_job_id(),
                spec=spec,
                priority=priority,
                seq=self._seq,
                state=state,
                submitted_ts=(
                    time.time() if submitted_ts is None else submitted_ts
                ),
                error=error,
            )
            if job.id in self._jobs:
                raise UsageError(f"duplicate job id {job.id!r}")
            self._jobs[job.id] = job
            self._append(
                {
                    "record": "submit",
                    "id": job.id,
                    "ts": job.submitted_ts,
                    "seq": job.seq,
                    "priority": job.priority,
                    "state": job.state,
                    "spec": job.spec.to_json(),
                    **({"error": error} if error else {}),
                }
            )
        return job

    def transition(self, job_id: str, state: str, **extra) -> Job:
        with self._lock:
            job = self._jobs[job_id]
            if job.terminal:
                # First terminal wins, live edition: once a job finished
                # (possibly decided by a peer shard and folded in via
                # refresh), nothing re-decides it — the attempted record
                # is neither applied nor journaled.
                self.stale_records += 1
                return job
            record = {
                "record": "state",
                "id": job_id,
                "state": state,
                "ts": time.time(),
                **extra,
            }
            self._apply(job, record)
            self._append(record)
            return job

    # -- compaction ------------------------------------------------------------
    @staticmethod
    def _snapshot_job(job: Job) -> dict:
        return {
            "id": job.id,
            "priority": job.priority,
            "seq": job.seq,
            "state": job.state,
            "ts": job.submitted_ts,
            "finished_ts": job.finished_ts,
            "attempts": job.attempts,
            "error": job.error,
            "warm_hit": job.warm_hit,
            "hpwl": job.hpwl,
            "seconds": job.seconds,
            "shard": job.shard,
            "spec": job.spec.to_json(),
        }

    def compact(self) -> dict:
        """Fold terminal replay state into one snapshot line + a live tail.

        A month of jobs replays as one ``snapshot`` record (terminal jobs,
        whose state is sticky and can never change again) followed by
        regenerated submit/state lines for the still-live jobs — instead
        of a million-line history.  The rewrite lands via tmp +
        ``os.replace`` and the reload path keeps its torn-tail tolerance
        unchanged.  Concurrent *readers* detect the shrink (see
        :meth:`_tail`) and replay from the top, which the replay rules
        make idempotent; concurrent **writers** must be excluded by the
        caller (the governor compacts under the fleet GC lease with no
        live shard leases, or offline via ``repro gc``) — an append racing
        the rename could otherwise be lost.

        Returns ``{"before_bytes", "after_bytes", "jobs_folded",
        "jobs_live"}``.
        """
        with self._lock:
            self._tail()  # fold any records appended since the last poll
            jobs = sorted(self._jobs.values(), key=lambda j: j.seq)
            terminal = [j for j in jobs if j.terminal]
            live = [j for j in jobs if not j.terminal]
            lines = [
                json.dumps(
                    {
                        **self.tag,
                        "record": "snapshot",
                        "ts": time.time(),
                        "seq": self._seq,
                        "jobs": [self._snapshot_job(j) for j in terminal],
                    },
                    sort_keys=True,
                )
            ]
            for job in live:
                lines.append(json.dumps(
                    {
                        **self.tag,
                        "record": "submit",
                        "id": job.id,
                        "ts": job.submitted_ts,
                        "seq": job.seq,
                        "priority": job.priority,
                        "state": QUEUED,
                        "spec": job.spec.to_json(),
                    },
                    sort_keys=True,
                ))
                if job.state != QUEUED or job.attempts or job.error:
                    record = {
                        **self.tag,
                        "record": "state",
                        "id": job.id,
                        "state": job.state,
                        "ts": job.submitted_ts,
                        "attempt": job.attempts,
                    }
                    if job.error is not None:
                        record["error"] = job.error
                    if job.warm_hit:
                        record["warm_hit"] = True
                    if job.shard is not None:
                        record["shard"] = job.shard
                    lines.append(json.dumps(record, sort_keys=True))
            before_bytes = 0
            if os.path.exists(self.path):
                before_bytes = os.path.getsize(self.path)
            from repro.runtime.resources import guarded_write

            def _rewrite() -> None:
                tmp = f"{self.path}.{os.getpid()}.{uuid.uuid4().hex[:6]}.tmp"
                with open(tmp, "w") as f:
                    f.write("".join(line + "\n" for line in lines))
                    f.flush()
                    os.fsync(f.fileno())
                os.replace(tmp, self.path)

            guarded_write("compact:jobs.jsonl", _rewrite)
            self._offset = os.path.getsize(self.path)
            return {
                "before_bytes": before_bytes,
                "after_bytes": self._offset,
                "jobs_folded": len(terminal),
                "jobs_live": len(live),
            }

    def note_gc(self, job: Job, **info) -> None:
        """Journal a GC summary for *job* before its run dir is deleted.

        The record kind (``gc``) is ignored by replay — the job's
        terminal state is already journaled — but it preserves a durable
        trace (id, final state, hpwl, reclaimed bytes) of what the
        retention policy removed and when.
        """
        with self._lock:
            self._append(
                {
                    "record": "gc",
                    "id": job.id,
                    "ts": time.time(),
                    "state": job.state,
                    "hpwl": job.hpwl,
                    "attempts": job.attempts,
                    **info,
                }
            )

    # -- queries ---------------------------------------------------------------
    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        with self._lock:
            return sorted(self._jobs.values(), key=lambda j: j.seq)

    def in_state(self, state: str) -> list[Job]:
        with self._lock:
            return sorted(
                (j for j in self._jobs.values() if j.state == state),
                key=lambda j: (-j.priority, j.seq),
            )

    def counts(self) -> dict[str, int]:
        with self._lock:
            out = {state: 0 for state in STATES}
            for job in self._jobs.values():
                out[job.state] += 1
            return out

    def queue_depth(self) -> int:
        return self.counts()[QUEUED]

    def active(self) -> bool:
        counts = self.counts()
        return counts[QUEUED] > 0 or counts[RUNNING] > 0
