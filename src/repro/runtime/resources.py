"""Resource probes and the ENOSPC-safe durable-write guard.

Two concerns live here, deliberately below the service layer so every
durable writer in the tree can use them without import cycles:

**Probes** — cheap, dependency-free measurements of the two resources a
long-running placement service can exhaust: bytes under a directory tree
(:func:`dir_usage_bytes`, the service root's footprint) and a process'
resident set (:func:`process_rss_bytes`).  The service governor samples
both on its poll loop — the resident set of the daemon plus its attempt
workers — and publishes them as ``resource_*`` gauges.

**The durable write** — :func:`write_atomic` is the one way a whole
file is written (run-dir manifest and artifacts, snapshots, warm
artifacts injected into a run dir, service JSON, compacted JSONL): a
uniquely named tmp file beside the target, flushed, fsynced and
renamed onto it, removed again when any step fails, so readers see the
old file or the new one and a failed write leaves nothing behind.

**The write guard** — :func:`guarded_write` wraps one durable write
(a :func:`write_atomic`, a journal append, the warm cache's entry
rename) so that ``OSError ENOSPC`` degrades instead of killing the
daemon:

1. an installed degradation hook is notified (structured, best-effort);
2. an installed emergency-GC hook runs — the governor's quota collector,
   which frees terminal run dirs and compacts caches;
3. the write is retried once;
4. a write that *still* fails raises :class:`ResourceExhaustedError`,
   a transient :class:`~repro.runtime.errors.PlacementError` — the
   attempt fails and re-enters the existing retry/backoff machinery,
   the daemon survives.

The ``disk.enospc`` fault site is polled before every guarded attempt,
so chaos drills can exhaust "disk" deterministically on any machine:
``Fault("disk.enospc", at=1)`` fails the first guarded write and lets
the retry succeed (degradation exercised, result unchanged), while
``count=None`` simulates a disk that never frees (attempt quarantined,
daemon alive).  Hooks are installed by the service governor
(:class:`repro.service.governor.ResourceGovernor`); library code and
tests may install their own via :func:`install_guard`.  A service
attempt worker installs hooks that relay to its daemon, which hands the
relayed calls to its own hooks (:func:`report_degradation`,
:func:`run_emergency_gc`).
"""

from __future__ import annotations

import errno
import os
import shutil
import threading
import uuid
from dataclasses import dataclass

from repro.runtime import faults
from repro.runtime.errors import ResourceExhaustedError

#: fault site polled by every guarded write attempt
ENOSPC_SITE = "disk.enospc"


# -- probes -------------------------------------------------------------------
def disk_free_bytes(path: str) -> int:
    """Free bytes on the filesystem holding *path* (0 when unstatable)."""
    try:
        return shutil.disk_usage(path).free
    except OSError:
        return 0


def dir_usage_bytes(root: str) -> int:
    """Total ``st_size`` bytes under *root* (0 when missing).

    Iterative scandir walk; symlinks are not followed and unreadable
    entries are skipped — the probe must never raise out of a poll loop.
    """
    total = 0
    stack = [root]
    while stack:
        path = stack.pop()
        try:
            with os.scandir(path) as entries:
                for entry in entries:
                    try:
                        if entry.is_dir(follow_symlinks=False):
                            stack.append(entry.path)
                        elif entry.is_file(follow_symlinks=False):
                            total += entry.stat(follow_symlinks=False).st_size
                    except OSError:
                        continue
        except OSError:
            continue
    return total


def process_rss_bytes(pid: int | None = None) -> int:
    """Resident-set size of process *pid* (default: this one) in bytes,
    0 when unmeasurable.

    Reads ``/proc/<pid>/status`` (Linux).  For this process it falls back
    to ``ru_maxrss`` (peak, not current — still a usable upper bound)
    elsewhere; another process without a readable status (gone, or not
    Linux) measures 0.
    """
    try:
        with open(f"/proc/{'self' if pid is None else pid}/status") as f:
            for line in f:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    if pid is not None:
        return 0
    try:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    except Exception:
        return 0


# -- guard hooks --------------------------------------------------------------
@dataclass
class GuardHooks:
    """Callbacks one guard installation contributes.

    ``on_degradation(info: dict)`` observes every ENOSPC degradation
    (best-effort: exceptions are swallowed — a full disk must not make
    the *report* of a full disk fatal).  ``emergency_gc()`` should free
    space and may return a summary dict; it too is best-effort.
    """

    on_degradation: object = None
    emergency_gc: object = None


#: installed hook stack; :func:`guarded_write` uses the most recent
_HOOKS: list[GuardHooks] = []
#: re-entrancy latch: an emergency GC pass whose *own* writes hit ENOSPC
#: must not recurse into another GC pass
_IN_GC = threading.local()


def install_guard(on_degradation=None, emergency_gc=None) -> GuardHooks:
    """Install degradation/GC hooks; returns a handle for removal."""
    hooks = GuardHooks(on_degradation, emergency_gc)
    _HOOKS.append(hooks)
    return hooks


def uninstall_guard(hooks: GuardHooks) -> None:
    try:
        _HOOKS.remove(hooks)
    except ValueError:
        pass


def _current_hooks() -> GuardHooks | None:
    return _HOOKS[-1] if _HOOKS else None


def report_degradation(info: dict) -> None:
    """Hand one degradation record to the installed hooks (best-effort)."""
    hooks = _current_hooks()
    if hooks is None or hooks.on_degradation is None:
        return
    try:
        hooks.on_degradation(info)
    except Exception:
        pass  # reporting is best-effort by contract


def _notify_degradation(label: str, attempt: int, exc: OSError) -> None:
    report_degradation(
        {
            "event": "degradation",
            "solver": "resources",
            "fallback": "emergency_gc",
            "site": ENOSPC_SITE,
            "label": label,
            "attempt": attempt,
            "errno": exc.errno,
        }
    )


def run_emergency_gc() -> None:
    """Run the installed emergency-GC hook once (best-effort, and never
    re-entered from a GC pass on the same thread)."""
    hooks = _current_hooks()
    if hooks is None or hooks.emergency_gc is None:
        return
    if getattr(_IN_GC, "active", False):
        return  # a GC pass is already running on this thread
    _IN_GC.active = True
    try:
        hooks.emergency_gc()
    except Exception:
        pass  # GC is best-effort; the retry decides the outcome
    finally:
        _IN_GC.active = False


# -- the guard ----------------------------------------------------------------
def guarded_write(label: str, write, retries: int = 1):
    """Run *write()* with ENOSPC degradation; returns its result.

    Non-ENOSPC ``OSError`` passes through untouched (callers keep their
    existing handling for permission races etc.).  ENOSPC — real, or
    injected via the ``disk.enospc`` fault site — triggers degradation
    notification, one emergency-GC pass, and up to *retries* re-attempts
    before raising :class:`ResourceExhaustedError` (transient: it fails
    the attempt, not the daemon).
    """
    attempt = 0
    while True:
        try:
            if faults.should_fire(ENOSPC_SITE):
                raise OSError(
                    errno.ENOSPC, f"injected ENOSPC during {label}"
                )
            return write()
        except OSError as exc:
            if exc.errno != errno.ENOSPC:
                raise
            _notify_degradation(label, attempt, exc)
            if attempt >= retries:
                raise ResourceExhaustedError(
                    f"out of disk space during {label} "
                    f"(after {attempt + 1} attempts and an emergency GC pass)",
                    label=label,
                    attempts=attempt + 1,
                ) from exc
            run_emergency_gc()
            attempt += 1


def write_atomic(path: str, data: bytes | str) -> None:
    """Replace *path* with *data* (bytes, or a str written as UTF-8).

    *data* goes to a uniquely named tmp file in *path*'s directory, which
    is flushed, fsynced and ``os.replace``d onto *path*, all inside
    :func:`guarded_write`.  A step that raises removes the tmp file, so
    *path* keeps its previous bytes (or stays absent) and no ``*.tmp``
    is left behind.
    """
    if isinstance(data, str):
        data = data.encode()

    def _write() -> None:
        tmp = f"{path}.{os.getpid()}.{uuid.uuid4().hex[:6]}.tmp"
        try:
            with open(tmp, "wb") as f:
                f.write(data)
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.remove(tmp)
            except OSError:
                pass
            raise

    guarded_write(f"write:{os.path.basename(path)}", _write)
