"""Resource governance: pressure detection, quotas, and safe GC.

The service can survive crashes, stalls, corruption, and daemon kills —
but without this module it cannot survive *success*: run dirs, the
terminal cache, warm artifacts, journals, and the malformed-submission
quarantine all grow without bound.  :class:`ResourceGovernor` is the
layer that turns "self-healing" into "runs indefinitely":

**Monitoring** — :meth:`poll` samples the service root's disk footprint
(:func:`~repro.runtime.resources.dir_usage_bytes`), filesystem headroom,
and the RSS of the daemon plus its attempt worker processes (where the
jobs' memory lives) on a rate-limited schedule, publishing them as
``resource_*`` gauges into ``metrics.json``.

**Quotas + GC** — :meth:`gc` enforces the configured bounds with a
*safe* collector: terminal run dirs beyond the retention count are
summarized into the journal (``record: gc``) before deletion and
QUARANTINED run dirs are always kept (they are the triage evidence);
the warm-artifact cache evicts LRU entries down to its byte quota; the
terminal cache and the job journal are compacted via atomic rewrites
(:meth:`TerminalCache.compact` / :meth:`JobStore.compact`) by the one
process that may rewrite them — the daemon, or ``repro gc`` holding the
service dir's lock; ``inbox/.rejected/`` sidecars older than a TTL are
swept (with a ``rejected_pending`` gauge so the backlog is visible).

**Load shedding** — above ``high_water`` (fraction of the disk quota,
or of the filesystem when no quota is set, or a memory-quota breach)
admission is rejected with a structured ``RESOURCE_PRESSURE`` reason;
shedding releases below ``low_water`` (hysteresis, so admission does
not flap).  Independently, :meth:`dispatch_ok` pauses *dispatch* —
never running jobs — while remaining quota headroom cannot fit a
projected run dir; the scheduler requeues instead of dropping.

**ENOSPC degradation** — :meth:`install` registers the governor with
:mod:`repro.runtime.resources` so every guarded durable write that hits
ENOSPC notifies metrics (``resource_degradations``) and triggers
:meth:`emergency_gc` before its one retry.

All knobs are execution policy (constructor/CLI level, never part of a
config fingerprint): they change how much history the service keeps,
never what any job computes.
"""

from __future__ import annotations

import os
import shutil
import time

from repro.runtime import faults, resources
from repro.service.jobs import QUARANTINED, Job, JobStore, ServicePaths
from repro.service.metrics import ServiceMetrics
from repro.service.warm import WarmArtifactCache


def resource_report(
    paths: ServicePaths, disk_quota_bytes: int | None = None
) -> dict:
    """Offline usage breakdown of one service directory.

    The ``repro doctor --resources`` surface: per-component byte counts,
    file tallies, and a quota verdict — computed from the filesystem
    alone, no daemon required.
    """
    components = {
        "runs": paths.runs,
        "warm": paths.warm,
        "results": paths.results,
        "inbox": paths.inbox,
    }
    breakdown = {
        name: resources.dir_usage_bytes(path)
        for name, path in components.items()
    }
    for name, path in (
        ("journal", paths.journal),
        ("terminal_cache", paths.terminal_cache),
        ("quarantine", paths.quarantine),
        ("metrics", paths.metrics),
    ):
        try:
            breakdown[name] = os.path.getsize(path)
        except OSError:
            breakdown[name] = 0
    total = resources.dir_usage_bytes(paths.root)
    try:
        run_dirs = sum(
            1 for n in os.listdir(paths.runs)
            if os.path.isdir(os.path.join(paths.runs, n))
        )
    except OSError:
        run_dirs = 0
    try:
        rejected = sum(
            1 for n in os.listdir(paths.rejected)
            if not n.endswith(".reason.json")
        )
    except OSError:
        rejected = 0
    report = {
        "root": paths.root,
        "total_bytes": total,
        "breakdown": dict(sorted(breakdown.items())),
        "run_dirs": run_dirs,
        "rejected_pending": rejected,
        "disk_free_bytes": resources.disk_free_bytes(paths.root),
        "rss_bytes": resources.process_rss_bytes(),
        "disk_quota_bytes": disk_quota_bytes,
    }
    if disk_quota_bytes:
        report["quota_used_frac"] = round(total / disk_quota_bytes, 4)
        report["over_quota"] = total > disk_quota_bytes
    return report


class ResourceGovernor:
    """Disk/memory monitor, quota collector, and load-shedding policy.

    Operates on the service's components (paths, store, metrics, warm
    cache) rather than the service object,
    so ``repro gc`` can run the identical collector offline.
    """

    def __init__(
        self,
        paths: ServicePaths,
        store: JobStore,
        metrics: ServiceMetrics,
        warm: WarmArtifactCache,
        *,
        disk_quota_bytes: int | None = None,
        mem_quota_bytes: int | None = None,
        high_water: float = 0.9,
        low_water: float = 0.75,
        retention_runs: int | None = None,
        rejected_ttl: float = 3600.0,
        warm_quota_bytes: int | None = None,
        terminal_cache_quota_bytes: int | None = None,
        journal_quota_bytes: int | None = None,
        rundir_projection_bytes: int = 4 << 20,
        sample_interval: float = 1.0,
        worker_pids=None,
        clock=time.time,
    ) -> None:
        self.paths = paths
        self.store = store
        self.metrics = metrics
        self.warm = warm
        self.disk_quota_bytes = disk_quota_bytes
        self.mem_quota_bytes = mem_quota_bytes
        self.high_water = float(high_water)
        self.low_water = float(low_water)
        self.retention_runs = retention_runs
        self.rejected_ttl = float(rejected_ttl)
        self.warm_quota_bytes = warm_quota_bytes
        self.terminal_cache_quota_bytes = terminal_cache_quota_bytes
        self.journal_quota_bytes = journal_quota_bytes
        self.rundir_projection_bytes = int(rundir_projection_bytes)
        self.sample_interval = float(sample_interval)
        #: callable listing the pids of the live attempt workers
        self.worker_pids = worker_pids or (lambda: [])
        self._clock = clock
        self._last_sample_ts: float | None = None
        #: latest sample (updated by :meth:`poll`/:meth:`sample`); free
        #: space is probed eagerly so the dispatch gate opens correctly
        #: even before the first poll cycle samples
        self.disk_used_bytes = 0
        self.disk_free_bytes = resources.disk_free_bytes(paths.root)
        self.rss_bytes = 0
        self.rejected_pending = 0
        #: admission hysteresis latch
        self.shedding = False
        self._mem_pressure = False
        self._hooks = None

    # -- guard registration ----------------------------------------------------
    def install(self) -> "ResourceGovernor":
        """Register this governor as the process' ENOSPC guard hooks."""
        if self._hooks is None:
            self._hooks = resources.install_guard(
                on_degradation=self._on_degradation,
                emergency_gc=self.emergency_gc,
            )
        return self

    def uninstall(self) -> None:
        if self._hooks is not None:
            resources.uninstall_guard(self._hooks)
            self._hooks = None

    def _on_degradation(self, info: dict) -> None:
        self.metrics.inc("resource_degradations")
        self.metrics.inc(f"events_{info.get('event', 'degradation')}")

    # -- sampling + pressure ---------------------------------------------------
    def sample(self) -> dict:
        """Measure disk/RSS now, update pressure state, maybe auto-GC."""
        self._last_sample_ts = self._clock()
        usage = resources.dir_usage_bytes(self.paths.root)
        free = resources.disk_free_bytes(self.paths.root)
        rss = resources.process_rss_bytes() + sum(
            resources.process_rss_bytes(pid) for pid in self.worker_pids()
        )
        if faults.should_fire("disk.pressure"):
            # synthetic quota-full sample: shedding engages without a
            # real full disk (released once real usage drops below the
            # low-water mark on a later, un-faulted sample)
            usage = max(
                usage,
                self.disk_quota_bytes
                if self.disk_quota_bytes
                else usage + free,
            )
        mem_fault = faults.should_fire("mem.pressure")
        self.disk_used_bytes = usage
        self.disk_free_bytes = free
        self.rss_bytes = rss
        self._mem_pressure = mem_fault or (
            self.mem_quota_bytes is not None
            and rss >= self.mem_quota_bytes
        )
        frac = self._disk_frac()
        if self._mem_pressure or frac >= self.high_water:
            if not self.shedding:
                self.shedding = True
                self.metrics.inc("pressure_shed_engaged")
        elif self.shedding and frac <= self.low_water:
            self.shedding = False
            self.metrics.inc("pressure_shed_released")
        try:
            self.rejected_pending = sum(
                1 for n in os.listdir(self.paths.rejected)
                if not n.endswith(".reason.json")
            )
        except OSError:
            self.rejected_pending = 0
        # quota-driven collection: keep usage under the quota while the
        # daemon is healthy, instead of waiting for an ENOSPC emergency
        if (
            self.disk_quota_bytes
            and usage > self.disk_quota_bytes * self.high_water
        ):
            self.gc()
        self.publish()
        return {
            "disk_used_bytes": self.disk_used_bytes,
            "disk_free_bytes": self.disk_free_bytes,
            "rss_bytes": self.rss_bytes,
            "shedding": self.shedding,
        }

    def _disk_frac(self) -> float:
        if self.disk_quota_bytes:
            return self.disk_used_bytes / self.disk_quota_bytes
        total = self.disk_used_bytes + self.disk_free_bytes
        return 0.0 if total <= 0 else 1.0 - self.disk_free_bytes / total

    def poll(self) -> None:
        """Rate-limited :meth:`sample` — cheap enough for every daemon
        poll cycle (the dir walk runs at most once per
        ``sample_interval``)."""
        now = self._clock()
        if (
            self._last_sample_ts is None
            or now - self._last_sample_ts >= self.sample_interval
        ):
            self.sample()

    def publish(self) -> None:
        """Export the latest sample as ``resource_*`` gauges."""
        m = self.metrics
        m.set_gauge("resource_disk_used_bytes", self.disk_used_bytes)
        m.set_gauge("resource_disk_free_bytes", self.disk_free_bytes)
        m.set_gauge("resource_disk_quota_bytes", self.disk_quota_bytes or 0)
        m.set_gauge("resource_rss_bytes", self.rss_bytes)
        m.set_gauge("resource_mem_quota_bytes", self.mem_quota_bytes or 0)
        m.set_gauge("resource_shedding", 1 if self.shedding else 0)
        m.set_gauge(
            "resource_dispatch_paused", 0 if self.dispatch_ok() else 1
        )
        m.set_gauge("rejected_pending", self.rejected_pending)

    # -- admission + dispatch policy -------------------------------------------
    def admission_blocked(self) -> str | None:
        """Reason string when new submissions must be shed (None = admit)."""
        if not self.shedding:
            return None
        if self._mem_pressure:
            return (
                f"memory pressure: rss {self.rss_bytes} >= "
                f"quota {self.mem_quota_bytes}"
            )
        return (
            f"disk pressure: {self.disk_used_bytes} bytes used, "
            f"{round(self._disk_frac() * 100, 1)}% of "
            + (
                f"quota {self.disk_quota_bytes}"
                if self.disk_quota_bytes
                else "the filesystem"
            )
            + f" (high_water {self.high_water})"
        )

    def dispatch_ok(self) -> bool:
        """False while quota headroom cannot fit a projected run dir.

        Consulted by the scheduler's dispatch gate: a closed gate
        requeues QUEUED jobs (it never touches running ones) until a GC
        pass — or the operator — restores headroom.
        """
        if self.disk_quota_bytes:
            headroom = self.disk_quota_bytes - self.disk_used_bytes
        else:
            headroom = self.disk_free_bytes
        return headroom >= self.rundir_projection_bytes

    # -- garbage collection ----------------------------------------------------
    def emergency_gc(self) -> dict:
        """The ENOSPC hook: collect as much as safely possible, now."""
        self.metrics.inc("emergency_gc_runs")
        summary = self.gc(emergency=True)
        self.sample()  # refresh headroom so dispatch/admission react
        return summary

    def gc(self, emergency: bool = False, dry_run: bool = False) -> dict:
        """One collection pass; returns a summary dict.

        Steps (each independently safe to skip): sweep expired
        ``inbox/.rejected/`` sidecars, retire terminal run dirs beyond
        the retention count (journal summary first, QUARANTINED always
        kept), evict the warm cache to its byte quota, compact the
        terminal cache, compact the job journal.  *emergency* collects
        regardless of quotas (retention drops to 0); *dry_run* reports
        what would be collected without touching anything.
        """
        summary: dict = {"emergency": emergency, "dry_run": dry_run}
        if not dry_run:
            self.metrics.inc("gc_runs")
        summary["rejected_deleted"] = self._gc_rejected(emergency, dry_run)
        deleted, freed = self._gc_run_dirs(emergency, dry_run)
        summary["run_dirs_deleted"] = deleted
        summary["run_dir_bytes_freed"] = freed
        summary["warm_evicted"] = self._gc_warm(emergency, dry_run)
        summary["terminal_cache"] = self._gc_terminal_cache(
            emergency, dry_run
        )
        summary["journal"] = self._gc_journal(emergency, dry_run)
        return summary

    def _gc_rejected(self, emergency: bool, dry_run: bool) -> int:
        """Sweep ``inbox/.rejected/`` entries older than the TTL."""
        ttl = 0.0 if emergency else self.rejected_ttl
        now = self._clock()
        deleted = 0
        try:
            names = os.listdir(self.paths.rejected)
        except OSError:
            return 0
        for name in names:
            path = os.path.join(self.paths.rejected, name)
            try:
                if now - os.path.getmtime(path) <= ttl:
                    continue
                if not dry_run:
                    os.remove(path)
            except OSError:
                continue
            if not name.endswith(".reason.json"):
                deleted += 1
        if deleted and not dry_run:
            self.metrics.inc("gc_rejected_deleted", deleted)
        return deleted

    def _gc_run_dirs(
        self, emergency: bool, dry_run: bool
    ) -> tuple[int, int]:
        """Retire terminal run dirs beyond the retention count.

        QUARANTINED dirs are never deleted — they are the forensic
        evidence ``repro doctor`` triages.  Everything a DONE job's dir
        contributed that the service still needs has already left it:
        the HPWL is journaled, the result file lives under ``results/``,
        and the pre-training artifacts were copied into the warm cache —
        so a summary record (``note_gc``) plus deletion loses nothing
        the protocol promises.
        """
        retention = 0 if emergency else self.retention_runs
        if retention is None:
            return 0, 0
        candidates: list[tuple[float, Job]] = []
        for job in self.store.jobs():
            if not job.terminal or job.state == QUARANTINED:
                continue
            run_dir = self.paths.run_dir(job.id)
            if not os.path.isdir(run_dir):
                continue
            candidates.append((job.finished_ts or job.submitted_ts, job))
        candidates.sort(key=lambda item: item[0], reverse=True)
        deleted = 0
        freed = 0
        for _, job in candidates[retention:]:
            run_dir = self.paths.run_dir(job.id)
            size = resources.dir_usage_bytes(run_dir)
            if dry_run:
                deleted += 1
                freed += size
                continue
            try:
                # Summarize first (durable trace of what GC removed) —
                # but never let a full disk block the very deletion that
                # would unblock it.
                self.store.note_gc(job, bytes_freed=size)
            except Exception:
                pass
            shutil.rmtree(run_dir, ignore_errors=True)
            deleted += 1
            freed += size
        if deleted and not dry_run:
            self.metrics.inc("gc_rundirs_deleted", deleted)
        return deleted, freed

    def _gc_warm(self, emergency: bool, dry_run: bool) -> int:
        if self.warm_quota_bytes is None:
            return 0
        if dry_run:
            over = self.warm.total_bytes() - self.warm_quota_bytes
            return 0 if over <= 0 else -1  # unknown count without acting
        evicted = self.warm.evict_lru(self.warm_quota_bytes)
        if evicted:
            self.metrics.inc("gc_warm_evicted", len(evicted))
        return len(evicted)

    def _gc_terminal_cache(self, emergency: bool, dry_run: bool) -> dict:
        path = self.paths.terminal_cache
        try:
            size = os.path.getsize(path)
        except OSError:
            return {"skipped": "absent"}
        quota = self.terminal_cache_quota_bytes
        if not emergency and (quota is None or size <= quota):
            return {"skipped": "under_quota", "bytes": size}
        if dry_run:
            return {"would_compact": True, "bytes": size}
        from repro.parallel.cache import TerminalCache

        # compact() validates each record against its *own* fingerprint,
        # so the instance fingerprint is irrelevant; constructing without
        # a path skips the (pointless here) full in-memory load.
        cache = TerminalCache("", path=None)
        cache.path = path
        result = cache.compact()
        self.metrics.inc("gc_cache_compactions")
        return result

    def _gc_journal(self, emergency: bool, dry_run: bool) -> dict:
        try:
            size = os.path.getsize(self.store.path)
        except OSError:
            return {"skipped": "absent"}
        quota = self.journal_quota_bytes
        if not emergency and (quota is None or size <= quota):
            return {"skipped": "under_quota", "bytes": size}
        if dry_run:
            return {"would_compact": True, "bytes": size}
        result = self.store.compact()
        self.metrics.inc("gc_journal_compactions")
        return result
