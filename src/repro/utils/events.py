"""Structured JSONL event log.

Every noteworthy runtime occurrence — stage transitions, checkpoints,
degradations, divergence rollbacks, budget exhaustion — is recorded as
one :class:`Event` and, when the log is backed by a file, appended as a
single JSON line so a crashed run leaves a complete, machine-readable
trace (events emitted inside :meth:`EventLog.batch` reach the file
together when the batch ends).  The in-memory list always exists, so
library code can emit unconditionally and tests can assert on what
happened without a run dir.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


def append_jsonl(path: str, record: dict | list[dict], fsync: bool = False) -> None:
    """Append *record* -- one dict, or a list of dicts, one line each -- in
    a single ``write`` syscall (and, with *fsync*, one ``fsync``).

    This is the repo-wide convention for JSONL files that may have
    **concurrent writers in different processes** (the terminal cache,
    which a daemon's attempt workers all append to): the line is encoded
    first and handed to one ``os.write`` on an ``O_APPEND`` descriptor,
    which POSIX serializes against other appends to the same file — two
    processes appending concurrently can interleave *appends* but never
    *bytes within an append*.  Buffered ``f.write`` gives no such
    guarantee (the stdlib may split one line across flushes).

    A partial write (a kill, ENOSPC) leaves a torn tail line that does
    not end in a newline; the complete lines before it, a cut batch's
    among them, stay readable.  The next append sees that from the file's
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

    records = record if isinstance(record, list) else [record]
    data = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records).encode()

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

    Each event reaches the file as one fsynced append, except inside
    :meth:`batch`: there the file records wait, and the batch writes them
    all in one append when it ends.
    """

    def __init__(self, path: str | None = None) -> None:
        self.path = path
        self.events: list[Event] = []
        self.listener = None
        #: file records waiting for the open :meth:`batch` to end
        self._held: list[dict] | None = None

    def emit(self, name: str, stage: str | None = None, **data) -> Event:
        """Record (and persist, if file-backed) one event."""
        event = Event(name=name, stage=stage, ts=time.time(), data=data)
        self.events.append(event)
        if self._held is not None:
            self._held.append(event.to_json())
        elif self.path is not None:
            append_jsonl(self.path, event.to_json(), fsync=True)
        if self.listener is not None:
            self.listener(event)
        return event

    @contextmanager
    def batch(self):
        """Hold the file records of the events emitted inside the block and
        write them with one fsynced :func:`append_jsonl` when it ends, by
        returning or by raising.

        The unit of durability becomes the block: a kill inside it loses
        the block's lines (a resumed run emits them again).  The in-memory
        events, the listener calls and the records are what they would be
        without the batch.  An inner batch joins the outer one.  When the
        block raises, a failed write does not replace its exception.
        """
        if self.path is None or self._held is not None:
            yield
            return
        held = self._held = []
        try:
            yield
        except BaseException:
            self._held = None
            try:
                if held:
                    append_jsonl(self.path, held, fsync=True)
            except Exception:
                pass  # the block's own exception is the one to report
            raise
        self._held = None
        if held:
            append_jsonl(self.path, held, fsync=True)

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
