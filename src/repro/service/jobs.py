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

One daemon writes the journal (it holds the service dir's lock, see
:func:`repro.service.service.lock_service_dir`); its poll loop and slot
threads append through one :class:`JobStore`:

- every append is a single ``write`` syscall on an ``O_APPEND``
  descriptor (:func:`repro.utils.events.append_jsonl`), so a kill
  mid-append leaves at worst one torn tail line, which replay skips and
  the next append truncates;
- replay is *first-submit-wins* per job id and *first-terminal-wins*
  per job: once a job reaches a terminal state, later state records for
  it are counted and dropped, which makes double-completion
  structurally impossible in the replayed state.

Journals written by older versions replay unchanged: replay ignores the
keys it does not read.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from dataclasses import asdict, dataclass, replace

from repro.core.config import PlacerConfig, apply_overrides
from repro.runtime.errors import UsageError
from repro.runtime.resources import write_atomic
from repro.utils.events import append_jsonl

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
    #: around the flow call in the attempt's worker process.  A
    #: chaos-drill facility — it lets a drill poison one job in a mix
    #: without touching the daemon's own fault plan.
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
        PlacerConfig.preset(self.preset)  # an unknown name raises
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

    @property
    def design_name(self) -> str | None:
        """The name :meth:`build_design` gives the design, without
        building it: the ``.aux`` basename without its extension (as
        :func:`~repro.netlist.bookshelf.read_aux` names it), else the
        circuit."""
        if self.aux:
            return os.path.splitext(os.path.basename(self.aux))[0]
        return self.circuit

    def build_design(self):
        return resolve_design(
            circuit=self.circuit,
            aux=self.aux,
            scale=self.scale,
            macro_scale=self.macro_scale,
        )

    def build_config(self, terminal_cache_path: str | None = None):
        self.validate()
        config = PlacerConfig.preset(self.preset, self.seed)
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
        """One terminal cache file shared by every job and attempt
        worker; entries are keyed by an environment fingerprint, so jobs
        on different designs coexist."""
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

    @property
    def wake(self) -> str:
        """The daemon's wake FIFO: a client pokes one byte into it after
        each submission, cancel or stop so the daemon polls at once."""
        return os.path.join(self.root, "wake")

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
    """Write *payload* as indented, key-sorted JSON through
    :func:`~repro.runtime.resources.write_atomic`."""
    write_atomic(path, json.dumps(payload, indent=2, sort_keys=True))


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
        #: records dropped by the first-submit-wins / first-terminal-wins
        #: replay rules; a nonzero count means some record tried to
        #: re-admit a known job or re-decide a finished one
        self.stale_records = 0

    # -- journal ---------------------------------------------------------------
    def _append(self, record: dict) -> None:
        self._cut_torn_tail()
        append_jsonl(self.path, record, fsync=True)

    def _cut_torn_tail(self) -> None:
        """Truncate an unterminated tail line before the next append.

        :meth:`load` never applies that line: the append that wrote it
        never completed.  ``append_jsonl`` would only start a new line
        after it, and a fragment that is whole JSON but for its newline
        would then replay as a record the daemon never acted on.  The
        daemon is the journal's only writer, so the cut races no append.
        """
        try:
            fd = os.open(self.path, os.O_RDWR)
        except FileNotFoundError:
            return
        try:
            size = os.fstat(fd).st_size
            if not size or os.pread(fd, 1, size - 1) == b"\n":
                return
            end = size
            while end:
                start = max(0, end - 4096)
                newline = os.pread(fd, end - start, start).rfind(b"\n")
                if newline >= 0:
                    end = start + newline + 1
                    break
                end = start
            os.ftruncate(fd, end)
            os.fsync(fd)
        finally:
            os.close(fd)

    def load(self) -> "JobStore":
        """Replay the whole journal from the top (daemon start, CLI).

        Only newline-terminated lines count: an unterminated tail is an
        append that never completed.  A damaged line (torn JSON, or a
        flipped high bit that is not UTF-8) is skipped, like
        :func:`repro.utils.events.read_jsonl` does.
        """
        with self._lock:
            self._jobs.clear()
            self._seq = 0
            self.stale_records = 0
            try:
                f = open(self.path, "rb")
            except FileNotFoundError:
                return self
            with f:
                for line in f:
                    if not line.endswith(b"\n"):
                        break
                    try:
                        record = json.loads(line.decode("utf-8"))
                    except ValueError:
                        continue
                    if isinstance(record, dict):
                        self._apply_record(record)
        return self

    def _apply_record(self, record: dict) -> None:
        kind = record.get("record")
        if kind == "submit":
            if record.get("id") in self._jobs:
                # First submit wins: a redundant re-admission of a job
                # the journal already holds.
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
                # Anything after is dropped, so double-completion cannot
                # exist in replayed state.
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
                # First terminal wins, live edition: once a job finished,
                # nothing re-decides it — a later transition is neither
                # applied nor journaled, as replay would drop it.
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
            "spec": job.spec.to_json(),
        }

    def compact(self) -> dict:
        """Fold terminal replay state into one snapshot line + a live tail.

        A month of jobs replays as one ``snapshot`` record (terminal jobs,
        whose state is sticky and can never change again) followed by
        regenerated submit/state lines for the still-live jobs — instead
        of a million-line history.  The rewrite lands through
        :func:`~repro.runtime.resources.write_atomic` and the reload path
        keeps its torn-tail tolerance unchanged.  Concurrent readers see
        the old or the new file, never a mix.  Other **writers** must be
        excluded by the caller — an append racing the rename could be
        lost — which is why only the daemon compacts its own journal, and
        an offline ``repro gc`` takes the service dir's lock first.

        Returns ``{"before_bytes", "after_bytes", "jobs_folded",
        "jobs_live"}``.
        """
        with self._lock:
            jobs = sorted(self._jobs.values(), key=lambda j: j.seq)
            terminal = [j for j in jobs if j.terminal]
            live = [j for j in jobs if not j.terminal]
            lines = [
                json.dumps(
                    {
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
                    lines.append(json.dumps(record, sort_keys=True))
            before_bytes = 0
            if os.path.exists(self.path):
                before_bytes = os.path.getsize(self.path)
            write_atomic(self.path, "".join(line + "\n" for line in lines))
            return {
                "before_bytes": before_bytes,
                "after_bytes": os.path.getsize(self.path),
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
