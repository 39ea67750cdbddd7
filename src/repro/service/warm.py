"""Warm-artifact cache: skip pre-training on repeat jobs.

Pre-training (reward calibration + Actor-Critic episodes) dominates a
job's wall-clock and is a pure function of (design, config) — seed
included, since the trained weights depend on it.  The cache stores the
four stage artifacts the run harness already knows how to restore
(``prototype.npz``, ``calibration.json``, ``network.npz``,
``training.json``) under a fingerprint key; a later job with the same
key gets them *injected* into its fresh run dir with their stages
pre-marked complete, so the flow's ordinary resume path loads them —
prototype positions, network weights plus the post-training RNG state —
and continues straight into MCTS.  Because that is exactly the code path
the kill-and-resume tests prove bit-for-bit, a warm job's HPWL is
bitwise-identical to an uninterrupted cold run with the same seed: the
cache trades time, never determinism.

The key hashes the design coarsely (:func:`design_key`), so two designs
can share it — a resubmission after one fixed pad moved, say.  An entry
therefore also records the :func:`design_digest` of the design it was
computed from, and a job on a design with another digest misses: it
runs cold instead of placing against the other design's prototype and
weights.

In the service, the attempt's worker process computes the key and the
digest from the design it builds and runs the injection, on a fresh
instance over the same root; the daemon's instance, which stores entries
under what the worker reports and publishes the counts, adds what the
worker saw with :meth:`WarmArtifactCache.absorb`.

Integrity (PR 5): every stored entry carries a ``checksums.json`` of
sha256 digests, verified *before* injection — a corrupted entry (bit
rot, torn copy, the ``warm.corrupt`` fault site) is discarded with a
``warm_artifact_corrupt`` event and the job simply runs cold.  The
digests are also recorded into the receiving run dir's manifest, so the
harness's own artifact verification covers injected files too.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import uuid

import numpy as np

from repro.runtime import faults
from repro.runtime.checkpoint import pretraining_fingerprint
from repro.runtime.errors import ResourceExhaustedError
from repro.runtime.integrity import CHECKSUMS_KEY, corrupt_file, sha256_file
from repro.runtime.resources import dir_usage_bytes, guarded_write, write_atomic

#: the stage artifacts a warm job starts from: the prototype placement
#: and what constitutes "pre-training is done"
ARTIFACTS = ("prototype.npz", "calibration.json", "network.npz", "training.json")
#: stages those artifacts complete
WARM_STAGES = ("prototype", "calibration", "rl_training")
#: per-entry digest record, written last so its presence implies a
#: complete copy: each artifact's sha256, and under :data:`DESIGN` the
#: :func:`design_digest` of the design the artifacts were computed from
CHECKSUM_FILE = "checksums.json"
DESIGN = "design"


def design_key(design) -> str:
    """Content hash of the design identity (finer than the manifest's
    coarse fingerprint: includes region geometry and total node area, so
    two same-named designs with equal counts don't alias)."""
    nl = design.netlist
    payload = {
        "name": nl.name,
        "n_nodes": len(nl),
        "n_nets": len(nl.nets),
        "area": repr(float(sum(node.area for node in nl))),
        "region": [
            repr(float(v))
            for v in (design.region.x, design.region.y,
                      design.region.width, design.region.height)
        ],
    }
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def design_digest(design) -> str:
    """sha256 of everything the flow reads from *design*: every node's
    name, kind, hierarchy, size, position and fixed flag, every net's
    weight and pins, and the region.  Unlike :func:`design_key` it tells
    apart two designs that differ only in where one pad sits."""
    nl = design.netlist
    region = design.region
    pins = [pin for net in nl.nets for pin in net.pins]
    text = "\n".join([
        nl.name,
        *(f"{node.name} {type(node).__name__} {node.hierarchy}" for node in nl),
        *(pin.node for pin in pins),
    ])
    numbers = np.array(
        [len(nl), len(nl.nets), region.x, region.y, region.width, region.height]
        + [v for node in nl
           for v in (node.width, node.height, node.x, node.y, node.fixed)]
        + [v for net in nl.nets for v in (net.weight, len(net.pins))]
        + [v for pin in pins for v in (pin.dx, pin.dy)],
        dtype=np.float64,
    )
    digest = hashlib.sha256(text.encode())
    digest.update(numbers.tobytes())
    return digest.hexdigest()


def warm_key(config, design) -> str:
    """``<pre-training fingerprint>-<design hash>`` — the cache key.

    Keyed on :func:`pretraining_fingerprint`, not the full config
    fingerprint: the cached artifacts are produced before the MCTS stage
    ever runs, so search-only knobs (``mcts.*``, ``exact_topk``, the MCTS
    budget, cell legalization) must not split the key.  That is what lets
    a sweep over MCTS knobs pre-train once and serve every other point
    warm.  Execution knobs are already excluded by the fingerprint
    itself.
    """
    return f"{pretraining_fingerprint(config)}-{design_key(design)}"


class WarmArtifactCache:
    """Fingerprint-keyed store of pre-trained flow artifacts."""

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corruptions = 0
        self.evictions = 0
        # per-fingerprint counters, surfaced in metrics.json so a study
        # report can prove the one-cold-pretrain-per-fingerprint property
        self._by_key: dict[str, dict[str, int]] = {}

    def key(self, config, design) -> str:
        """See :func:`warm_key`."""
        return warm_key(config, design)

    def _count(self, key: str, event: str, n: int = 1) -> None:
        entry = self._by_key.setdefault(
            key,
            {"hits": 0, "misses": 0, "stores": 0, "corruptions": 0,
             "evictions": 0},
        )
        entry[event] = entry.get(event, 0) + n

    def per_key(self) -> dict[str, dict[str, int]]:
        """Snapshot of per-fingerprint hit/miss/store/corruption counts."""
        return {key: dict(counts) for key, counts in sorted(self._by_key.items())}

    def absorb(self, per_key: dict[str, dict[str, int]]) -> None:
        """Add the counts another instance recorded (an attempt worker's
        :meth:`per_key`) to this one's totals and per-key counts."""
        for key, counts in per_key.items():
            for event, n in counts.items():
                if n:
                    setattr(self, event, getattr(self, event) + n)
                    self._count(key, event, n)

    def _entry_dir(self, key: str) -> str:
        return os.path.join(self.root, key)

    def has(self, key: str) -> bool:
        entry = self._entry_dir(key)
        return all(
            os.path.exists(os.path.join(entry, name)) for name in ARTIFACTS
        )

    # -- population ------------------------------------------------------------
    def store(self, key: str, run_dir: str, digest: str | None = None) -> bool:
        """Copy a completed run dir's artifacts under *key*, recording
        *digest*, the :func:`design_digest` of the design the run placed.

        No-op when the key is already populated or the run dir is missing
        an artifact.  The copy lands in a temp dir first, every file of it
        written and fsynced, and is renamed into place, so a concurrently
        reading (or crashing) daemon never observes a half-written entry
        and a power loss never publishes one with empty files.  An entry
        that lacks an artifact (one stored before the prototype was one)
        reads as absent, and the rename replaces it.
        """
        if self.has(key):
            return False
        sources = [os.path.join(run_dir, name) for name in ARTIFACTS]
        if not all(os.path.exists(src) for src in sources):
            return False
        entry = self._entry_dir(key)
        tmp = os.path.join(self.root, f".{key}.{uuid.uuid4().hex[:6]}.tmp")
        os.makedirs(tmp, exist_ok=True)

        def _write(name: str, data: bytes) -> None:
            with open(os.path.join(tmp, name), "wb") as f:
                f.write(data)
                f.flush()
                os.fsync(f.fileno())

        def _copy() -> None:
            record = {DESIGN: digest}
            for src, name in zip(sources, ARTIFACTS):
                with open(src, "rb") as f:
                    data = f.read()
                _write(name, data)
                record[name] = hashlib.sha256(data).hexdigest()
            _write(CHECKSUM_FILE,
                   json.dumps(record, indent=2, sort_keys=True).encode())
            if not self.has(key):
                shutil.rmtree(entry, ignore_errors=True)
            os.replace(tmp, entry)

        try:
            # ENOSPC-guarded: a full disk degrades (emergency GC + one
            # retry) and otherwise raises ResourceExhaustedError, which
            # the service resolves as a retryable attempt failure.
            guarded_write(f"warm:{key}", _copy)
        except OSError:
            shutil.rmtree(tmp, ignore_errors=True)
            return self.has(key)  # lost a benign race to a sibling worker
        except ResourceExhaustedError:
            shutil.rmtree(tmp, ignore_errors=True)
            raise
        if faults.should_fire("warm.corrupt"):
            corrupt_file(os.path.join(entry, "network.npz"))
        self.stores += 1
        self._count(key, "stores")
        return True

    # -- validation ------------------------------------------------------------
    def checksums(self, key: str) -> dict:
        """The entry's digest record (empty when it is missing or
        unreadable: every artifact is then suspect)."""
        try:
            with open(os.path.join(self._entry_dir(key), CHECKSUM_FILE)) as f:
                return json.load(f)
        except (OSError, json.JSONDecodeError):
            return {}

    def validate(self, key: str) -> bool:
        """Verify the entry's artifacts against its recorded digests."""
        checksums = self.checksums(key)
        entry = self._entry_dir(key)
        return all(
            checksums.get(name) is not None
            and os.path.exists(os.path.join(entry, name))
            and sha256_file(os.path.join(entry, name)) == checksums[name]
            for name in ARTIFACTS
        )

    def discard(self, key: str) -> None:
        shutil.rmtree(self._entry_dir(key), ignore_errors=True)

    # -- injection -------------------------------------------------------------
    def _miss(self, key: str) -> bool:
        self.misses += 1
        self._count(key, "misses")
        return False

    def inject(self, key: str, ctx, digest: str | None = None) -> bool:
        """Pre-complete prototype, calibration and rl_training in *ctx*'s
        run dir from the entry under *key*, when that entry was stored
        for the design whose :func:`design_digest` is *digest*.

        Writes the cached artifacts into the run dir (each through
        :func:`~repro.runtime.resources.write_atomic`) and marks their
        stages completed in the manifest (tagged ``warm``), so the flow's
        resume path restores them instead of re-computing them.  Returns
        True on a hit.

        The entry is validated against its recorded digests first: a
        corrupted entry is discarded (the cache must never poison a job)
        and the miss is reported with a ``warm_artifact_corrupt`` event —
        the job just runs cold.  An entry stored for another design (one
        that shares the key) is kept, and the job misses and runs cold.
        """
        if ctx.dir is None:
            return False
        if not self.has(key):
            return self._miss(key)
        if not self.validate(key):
            self.discard(key)
            self.corruptions += 1
            self._count(key, "corruptions")
            ctx.events.emit(
                "warm_artifact_corrupt", key=key, action="discarded"
            )
            return self._miss(key)
        checksums = self.checksums(key)
        if checksums.get(DESIGN) != digest:
            return self._miss(key)
        entry = self._entry_dir(key)
        try:
            os.utime(entry)  # LRU recency: a hit keeps the entry warm
        except OSError:
            pass
        for name in ARTIFACTS:
            with open(os.path.join(entry, name), "rb") as f:
                write_atomic(ctx.dir.file(name), f.read())
        for stage in WARM_STAGES:
            ctx.manifest["stages"][stage] = {"completed": True, "warm": True}
        ctx.manifest.setdefault(CHECKSUMS_KEY, {}).update(
            (name, checksums[name]) for name in ARTIFACTS
        )
        ctx.dir.write_manifest(ctx.manifest)
        self.hits += 1
        self._count(key, "hits")
        ctx.events.emit("warm_artifacts_injected", key=key)
        return True

    def keys(self) -> list[str]:
        return sorted(
            name for name in os.listdir(self.root)
            if not name.startswith(".") and self.has(name)
        )

    # -- size governance -------------------------------------------------------
    def entry_bytes(self, key: str) -> int:
        return dir_usage_bytes(self._entry_dir(key))

    def total_bytes(self) -> int:
        """Bytes under the cache root (stale tmp dirs included — they are
        reclaimable and the eviction pass removes them first)."""
        return dir_usage_bytes(self.root)

    def evict_lru(self, max_bytes: int) -> list[str]:
        """Evict least-recently-used entries until the cache fits
        *max_bytes*; returns the evicted keys.

        Recency is the entry directory's mtime: ``os.replace`` stamps it
        at store time and :meth:`inject` re-touches it on every hit, so
        eviction order tracks *use*, not just age.  Orphaned ``.tmp``
        dirs (a crashed store) and entries that lack an artifact (stored
        before the prototype was one) are swept unconditionally.
        """
        for name in os.listdir(self.root):
            stale = (name.endswith(".tmp") if name.startswith(".")
                     else not self.has(name))
            if stale:
                shutil.rmtree(os.path.join(self.root, name),
                              ignore_errors=True)
        entries = []
        for key in self.keys():
            try:
                mtime = os.path.getmtime(self._entry_dir(key))
            except OSError:
                continue
            entries.append((mtime, key, self.entry_bytes(key)))
        entries.sort()
        total = sum(size for _, _, size in entries)
        evicted: list[str] = []
        for _, key, size in entries:
            if total <= max_bytes:
                break
            self.discard(key)
            self._count(key, "evictions")
            total -= size
            evicted.append(key)
        self.evictions += len(evicted)
        return evicted
