"""Cross-run terminal-evaluation cache.

Terminal evaluation (legalize + cell placement) became a pure function of
the assignment once :meth:`CoarseNetlist.restore_canonical` landed, so its
results are cacheable forever — not just within one search, but across
checkpoint/resume boundaries and across entirely separate runs on the same
problem.  :class:`TerminalCache` maps assignment tuples to measured HPWL
and can optionally mirror itself to a JSONL file in the run directory.

The cache key is the assignment tuple *plus* an environment fingerprint
(:func:`environment_fingerprint`): a hash of everything that changes the
measured wirelength — the design, the grid plan, the group structure, the
legalizer's constants, and the cell-placement effort.  Persisted entries
whose fingerprint does not match the live environment are ignored on
load, so a stale file can never poison a run.  Loads tolerate a torn
tail line (a kill mid-append), matching the event-log convention.

The persisted file is safe to share across **concurrent writer
processes** (a service daemon's attempt workers all append to one file):
every append is a single ``write`` syscall on an ``O_APPEND`` descriptor
(:func:`repro.utils.events.append_jsonl`), so records from different
workers interleave whole, never byte-wise.  Each record carries a sha256
of its own content, verified on load — a flipped bit (disk rot, an
interleaved torn write) drops that one record instead of poisoning a
search with a wrong wirelength.  Replays are last-writer-wins per key,
which dedupes the benign case of two workers measuring (and appending)
the same assignment: both wrote the identical value, so either wins.
"""

from __future__ import annotations

import hashlib
import json
import os
import uuid

from repro.legalize.pipeline import LP_NET_LIMIT, QP_CLIQUE_THRESHOLD
from repro.utils.events import append_jsonl, read_jsonl


def environment_fingerprint(env) -> str:
    """Hash of every knob that affects a terminal evaluation's result.

    Covers the design identity (name, node/net counts, total node area),
    the grid plan, the macro-group structure (count + per-group spans, the
    action-space geometry), the legalizer's constants, and
    ``cell_place_iters``.  The constants are hashed under the names of
    the constructor knobs they replaced, so fingerprints written before
    stay valid.  Two environments with equal fingerprints return
    bitwise-identical HPWL for equal assignments (given the purity
    guarantee of :meth:`MacroLegalizer.legalize`).
    """
    coarse = env.coarse
    nl = coarse.design.netlist
    plan = coarse.plan
    payload = {
        "design": {
            "name": nl.name,
            "n_nodes": len(nl),
            "n_nets": len(nl.nets),
            "area": repr(float(sum(node.area for node in nl))),
        },
        "region": [
            repr(float(v))
            for v in (
                coarse.design.region.x,
                coarse.design.region.y,
                coarse.design.region.width,
                coarse.design.region.height,
            )
        ],
        "zeta": plan.zeta,
        "groups": {
            "macro": coarse.n_macro_groups,
            "cell": len(coarse.cell_groups),
            "fixed": len(coarse.fixed_groups),
            "spans": [
                list(coarse.group_span(i)) for i in range(coarse.n_macro_groups)
            ],
        },
        "legalizer": {
            "lp_net_limit": LP_NET_LIMIT,
            "cleanup": True,
            "qp_clique_threshold": QP_CLIQUE_THRESHOLD,
        },
        "cell_place_iters": env.cell_place_iters,
    }
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class TerminalCache:
    """Assignment-tuple → HPWL map with optional JSONL persistence.

    Shared by the MCTS search (in place of its old private value cache)
    and, through the run harness, across resume boundaries: the flow binds
    the cache to ``<run_dir>/terminal_cache.jsonl`` so a resumed — or a
    completely separate — run on the same problem skips every terminal
    evaluation it has already paid for.
    """

    def __init__(self, fingerprint: str, path: str | None = None) -> None:
        self.fingerprint = fingerprint
        self.path = path
        self._entries: dict[tuple[int, ...], float] = {}
        self.hits = 0
        self.misses = 0
        self.corrupt_entries = 0
        if path is not None:
            self._load(path)

    def __len__(self) -> int:
        return len(self._entries)

    # -- lookups ---------------------------------------------------------------
    def get(self, assignment) -> float | None:
        key = tuple(int(a) for a in assignment)
        wirelength = self._entries.get(key)
        if wirelength is None:
            self.misses += 1
        else:
            self.hits += 1
        return wirelength

    def put(self, assignment, wirelength: float) -> None:
        key = tuple(int(a) for a in assignment)
        if key in self._entries:
            return
        self._entries[key] = float(wirelength)
        if self.path is not None:
            self._append(key, float(wirelength))

    def update(self, entries: dict) -> None:
        """Merge *entries* (e.g. from a search snapshot) into the cache."""
        for key, wirelength in entries.items():
            self.put(key, wirelength)

    def as_dict(self) -> dict[tuple[int, ...], float]:
        return dict(self._entries)

    # -- persistence -----------------------------------------------------------
    @staticmethod
    def _record_sha(fingerprint: str, key: tuple[int, ...], wirelength: float) -> str:
        """Content digest of one persisted entry.

        ``repr`` of the float keeps the digest exact down to the last
        bit — the whole point of the cache is bitwise-identical replay.
        """
        text = f"{fingerprint}|{','.join(str(a) for a in key)}|{wirelength!r}"
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def _append(self, key: tuple[int, ...], wirelength: float) -> None:
        record = {
            "fingerprint": self.fingerprint,
            "assignment": list(key),
            "wirelength": wirelength,
            "sha": self._record_sha(self.fingerprint, key, wirelength),
        }
        # Single-syscall append: attempt workers share this file.
        append_jsonl(self.path, record)

    def _load(self, path: str) -> None:
        for record in read_jsonl(path):  # tolerates a torn tail line
            if record.get("fingerprint") != self.fingerprint:
                continue
            try:
                key = tuple(int(a) for a in record["assignment"])
                wirelength = float(record["wirelength"])
            except (KeyError, TypeError, ValueError):
                continue
            sha = record.get("sha")
            if sha is not None and sha != self._record_sha(
                self.fingerprint, key, wirelength
            ):
                self.corrupt_entries += 1
                continue  # bit rot / damaged record: drop it, keep the rest
            # Last-writer-wins: concurrent workers may append the same key
            # (with identical values — evaluation is pure); later records
            # simply overwrite earlier ones.
            self._entries[key] = wirelength

    def compact(self) -> dict:
        """Atomically rewrite the JSONL keeping only winning, valid records.

        Reads tolerate duplicates and corruption forever, but the file
        itself only ever grows — this is the governor's shrink path.  The
        rewrite keeps, for **every** fingerprint present (not just this
        instance's), the last-writer-wins record per assignment whose
        content sha verifies; corrupt and superseded records are dropped
        and legacy records without a sha are rewritten with one.  The new
        file lands via tmp + ``os.replace``, so concurrent readers see
        either the old or the new version, never a half-rewrite.  An
        attempt worker's append racing the rename can be lost (it
        re-appends on its next miss — a cache entry is a pure
        accelerator), but two concurrent compactions could drop each
        other's survivors, so only the daemon's governor (or ``repro gc``
        holding the service dir's lock) compacts the service's file.

        Returns ``{"kept", "dropped_corrupt", "dropped_superseded",
        "before_bytes", "after_bytes"}``.
        """
        empty = {
            "kept": 0, "dropped_corrupt": 0, "dropped_superseded": 0,
            "before_bytes": 0, "after_bytes": 0,
        }
        if self.path is None or not os.path.exists(self.path):
            return empty
        before_bytes = os.path.getsize(self.path)
        raw = read_jsonl(self.path)
        winners: dict[tuple, dict] = {}
        dropped_corrupt = 0
        for record in raw:
            fingerprint = record.get("fingerprint")
            try:
                key = tuple(int(a) for a in record["assignment"])
                wirelength = float(record["wirelength"])
            except (KeyError, TypeError, ValueError):
                dropped_corrupt += 1
                continue
            if not isinstance(fingerprint, str):
                dropped_corrupt += 1
                continue
            sha = self._record_sha(fingerprint, key, wirelength)
            if record.get("sha") is not None and record["sha"] != sha:
                dropped_corrupt += 1
                continue
            winners[(fingerprint, key)] = {
                "fingerprint": fingerprint,
                "assignment": list(key),
                "wirelength": wirelength,
                "sha": sha,
            }
        lines = [
            json.dumps(winners[k], sort_keys=True)
            for k in sorted(winners)
        ]
        from repro.runtime.resources import guarded_write

        def _rewrite() -> None:
            tmp = f"{self.path}.{os.getpid()}.{uuid.uuid4().hex[:6]}.tmp"
            with open(tmp, "w") as f:
                f.write("".join(line + "\n" for line in lines))
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, self.path)

        guarded_write(f"compact:{os.path.basename(self.path)}", _rewrite)
        self.corrupt_entries = 0  # the rewritten file holds none
        return {
            "kept": len(winners),
            "dropped_corrupt": dropped_corrupt,
            "dropped_superseded": len(raw) - dropped_corrupt - len(winners),
            "before_bytes": before_bytes,
            "after_bytes": os.path.getsize(self.path),
        }
