"""Structured JSONL event log.

Every noteworthy runtime occurrence — stage transitions, checkpoints,
degradations, divergence rollbacks, budget exhaustion — is recorded as
one :class:`Event` and, when the log is backed by a file, appended as a
single JSON line so a crashed run leaves a complete, machine-readable
trace.  The in-memory list always exists, so library code can emit
unconditionally and tests can assert on what happened without a run dir.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field


def append_jsonl(path: str, record: dict, fsync: bool = False) -> None:
    """Append *record* as one JSONL line in a single ``write`` syscall.

    This is the repo-wide convention for JSONL files that may have
    **concurrent writers in different processes** (the terminal cache,
    which a daemon's attempt workers all append to): the line is encoded
    first and handed to one ``os.write`` on an ``O_APPEND`` descriptor,
    which POSIX serializes against other appends to the same file — two
    processes appending concurrently can interleave *records* but never
    *bytes within a record*.  Buffered ``f.write`` gives no such
    guarantee (the stdlib may split one line across flushes).

    A partial write (a kill, ENOSPC) leaves a torn tail line that does
    not end in a newline.  The next append sees that from the file's
    last byte and starts its one ``write`` with a newline, so the torn
    fragment becomes a dead line every reader skips and the new record
    lands on a line of its own.  (When the unterminated tail was another
    process's append still in flight, the extra newline leaves a blank
    line, which readers skip as well.)

    Appends are routed through the ENOSPC guard
    (:func:`repro.runtime.resources.guarded_write`): a full disk emits a
    degradation, triggers an emergency GC pass, and retries once before
    failing the *attempt* with a retryable
    :class:`~repro.runtime.errors.ResourceExhaustedError`.
    """
    from repro.runtime.resources import guarded_write

    data = (json.dumps(record, sort_keys=True) + "\n").encode()

    def _append() -> None:
        fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            size = os.fstat(fd).st_size
            line = data
            if size and os.pread(fd, 1, size - 1) != b"\n":
                line = b"\n" + data  # close off a torn tail first
            written = os.write(fd, line)
            while written < len(line):  # pathological; finish the tail
                written += os.write(fd, line[written:])
            if fsync:
                os.fsync(fd)
        finally:
            os.close(fd)

    guarded_write(f"append:{os.path.basename(path)}", _append)


def read_jsonl(path: str) -> list[dict]:
    """Parse a JSONL file into dicts, tolerating damaged lines.

    This is the repo-wide convention for append-only JSONL state (event
    logs, the terminal cache, the service job journal): a process killed
    mid-append leaves a torn trailing line, which is skipped rather than
    raised on — everything written before the crash stays readable.
    Non-dict records (a bare number or string that happens to parse) are
    skipped for the same reason, and so is a line that is not UTF-8: the
    writers emit pure ASCII, so a byte >= 0x80 is damage (a flipped bit),
    not data.
    """
    records: list[dict] = []
    if not os.path.exists(path):
        return records
    with open(path, "rb") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line.decode("utf-8"))
            except ValueError:
                continue  # torn line from a kill mid-write, or bit rot
            if isinstance(record, dict):
                records.append(record)
    return records


@dataclass
class Event:
    """One structured occurrence."""

    name: str
    stage: str | None = None
    ts: float = 0.0
    data: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        record = {"ts": round(self.ts, 6), "event": self.name}
        if self.stage is not None:
            record["stage"] = self.stage
        record.update(self.data)
        return record


class EventLog:
    """Append-only event sink, optionally mirrored to a JSONL file.

    An optional ``listener`` callable is invoked with every event after
    it is recorded — the service supervisor uses this as a progress
    heartbeat.  Listeners observe; they must not raise.
    """

    def __init__(self, path: str | None = None) -> None:
        self.path = path
        self.events: list[Event] = []
        self.listener = None

    def emit(self, name: str, stage: str | None = None, **data) -> Event:
        """Record (and persist, if file-backed) one event."""
        event = Event(name=name, stage=stage, ts=time.time(), data=data)
        self.events.append(event)
        if self.path is not None:
            append_jsonl(self.path, event.to_json(), fsync=True)
        if self.listener is not None:
            self.listener(event)
        return event

    def of(self, name: str) -> list[Event]:
        """All recorded events called *name*."""
        return [e for e in self.events if e.name == name]

    def count(self, name: str) -> int:
        return len(self.of(name))

    @staticmethod
    def read(path: str) -> list[dict]:
        """Parse a JSONL event file back into dicts (tolerates a torn tail
        line, which a kill mid-write can leave behind)."""
        return read_jsonl(path)
