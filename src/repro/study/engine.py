"""Study orchestration: spec → warm-aware job DAG → placement service.

A :class:`Study` lives in its own directory::

    <study_dir>/
      spec.json        # the frozen StudySpec (drift-guarded by fingerprint)
      journal.jsonl    # append-only point-state journal (crash-safe)
      report.json      # latest consolidated report (study.report)
      records/         # experiments.records.RecordStore history

The engine's one scheduling idea is the **warm DAG**: points are grouped
by pre-training fingerprint (:func:`repro.service.warm.warm_key` of
their expanded config × the design), and each group submits a single
*leader* first.  Only once the leader is DONE — by which time the
daemon has stored the pre-training artifacts in the
:class:`~repro.service.warm.WarmArtifactCache`, since the store happens
before the DONE transition — are the *followers* released, so every
unique fingerprint pays for exactly one cold pre-train and the rest of
the group runs warm, bit-for-bit identical to cold.  A leader that fails
or is quarantined just promotes the next pending point of its group to
cold leader; the study routes around poison points instead of wedging.

Crash safety mirrors the service's own journal discipline: every point
transition is a single atomic ``append_jsonl`` write, replay tolerates a
torn tail, and job ids are content-addressed
(:attr:`~repro.study.spec.StudyPoint.job_id`), so the worst a kill can
cause is one idempotent resubmission that the service inbox dedupes.
DONE points are never resubmitted.
"""

from __future__ import annotations

import json
import os
import threading
import time

from repro.runtime.errors import UsageError
from repro.service.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    QUARANTINED,
    JobStore,
    ServicePaths,
    write_json_atomic,
)
from repro.service.service import PlacementService, request_stop, submit_job
from repro.service.warm import warm_key
from repro.study.spec import StudySpec
from repro.utils.events import append_jsonl, read_jsonl

#: study-point states: PENDING (not yet dropped in the inbox), SUBMITTED
#: (inbox file written / job seen in the service journal), then the
#: service's own terminal states adopted verbatim
PENDING = "PENDING"
SUBMITTED = "SUBMITTED"
POINT_TERMINAL = (DONE, FAILED, CANCELLED, QUARANTINED)


class StudyPaths:
    """File layout of one study directory."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.spec = os.path.join(root, "spec.json")
        self.journal = os.path.join(root, "journal.jsonl")
        self.report = os.path.join(root, "report.json")
        self.records = os.path.join(root, "records")

    def ensure(self) -> "StudyPaths":
        os.makedirs(self.root, exist_ok=True)
        return self


class StudyGroup:
    """All points sharing one pre-training fingerprint."""

    def __init__(self, key: str) -> None:
        self.key = key
        self.point_ids: list[str] = []


class Study:
    """One study: a frozen spec, its expanded points, and their journal."""

    def __init__(self, root: str, spec: StudySpec) -> None:
        self.paths = StudyPaths(root).ensure()
        self.spec = spec
        self.points = spec.expand()
        self._by_id = {p.point_id: p for p in self.points}
        self._groups: list[StudyGroup] | None = None
        self._design = None

    # -- construction ----------------------------------------------------------
    @classmethod
    def create(cls, root: str, spec: StudySpec) -> "Study":
        """Initialise a study dir (idempotent for the same spec)."""
        study = cls(root, spec)
        if os.path.exists(study.paths.spec):
            study._check_fingerprint()
        else:
            write_json_atomic(study.paths.spec, spec.to_json())
        return study

    @classmethod
    def load(cls, root: str) -> "Study":
        paths = StudyPaths(root)
        if not os.path.exists(paths.spec):
            raise UsageError(f"no study at {root} (missing spec.json)")
        with open(paths.spec) as f:
            spec = StudySpec.from_json(json.load(f))
        return cls(root, spec)

    def _check_fingerprint(self) -> None:
        with open(self.paths.spec) as f:
            existing = StudySpec.from_json(json.load(f))
        if existing.fingerprint() != self.spec.fingerprint():
            raise UsageError(
                "study dir was created from a different spec; use a fresh "
                "directory (point ids would not line up)",
                study_dir=self.paths.root,
                expected=existing.fingerprint(),
                got=self.spec.fingerprint(),
            )

    # -- planning --------------------------------------------------------------
    def design(self):
        if self._design is None:
            _name, self._design = self.points[0].to_job_spec(
                self.spec
            ).build_design()
        return self._design

    def plan(self) -> list[StudyGroup]:
        """Group points by pre-training fingerprint, in point order.

        The design is built once (it is common to every point); each
        point's expanded config is fingerprinted exactly the way the
        daemon will fingerprint it when deciding warm injection, so the
        grouping here *is* the cache's sharing structure.
        """
        if self._groups is None:
            design = self.design()
            groups: dict[str, StudyGroup] = {}
            for point in self.points:
                config = point.to_job_spec(self.spec).build_config()
                key = warm_key(config, design)
                groups.setdefault(key, StudyGroup(key)).point_ids.append(
                    point.point_id
                )
            self._groups = list(groups.values())
        return self._groups

    # -- journal ---------------------------------------------------------------
    def _journal(self, point_id: str, state: str, **extra) -> None:
        append_jsonl(
            self.paths.journal,
            {"record": "point", "id": point_id, "state": state,
             "ts": round(time.time(), 3), **extra},
            fsync=True,
        )

    def journal_states(self) -> dict[str, dict]:
        """Replay the journal into ``point_id -> latest record``.

        Terminal states are sticky (first terminal wins, like the
        service journal) and SUBMITTED never regresses to PENDING, so a
        replayed table equals the live one no matter where a kill landed.
        """
        states: dict[str, dict] = {}
        for record in read_jsonl(self.paths.journal):
            if record.get("record") != "point":
                continue
            point_id = record.get("id")
            state = record.get("state")
            if point_id not in self._by_id or state not in (
                (PENDING, SUBMITTED) + POINT_TERMINAL
            ):
                continue
            current = states.get(point_id)
            if current is not None:
                if current["state"] in POINT_TERMINAL:
                    continue
                if current["state"] == SUBMITTED and state == PENDING:
                    continue
            states[point_id] = record
        for point in self.points:
            states.setdefault(
                point.point_id, {"id": point.point_id, "state": PENDING}
            )
        return states

    # -- running ---------------------------------------------------------------
    def run(
        self,
        service_dir: str,
        serve: bool = False,
        workers: int = 1,
        poll: float = 0.25,
        max_seconds: float | None = None,
        tick=None,
    ) -> dict:
        """Drive the study to completion (or until *max_seconds*).

        With ``serve=True`` an inline :class:`PlacementService` daemon is
        started in a thread (single-host convenience; CI's study-smoke
        uses it); otherwise a daemon must already be serving
        *service_dir*.  *tick*, when given, is called once per loop with
        the study — the test harness uses it to stand in for a daemon.

        Always safe to re-run: the journal + deterministic job ids make
        resubmission idempotent, and DONE points are skipped entirely.
        """
        self._check_fingerprint()
        started = time.monotonic()
        service_thread = None
        service = None
        if serve:
            service = PlacementService(service_dir, workers=workers)
            service_thread = threading.Thread(
                target=service.run, name="study-service", daemon=True
            )
            service_thread.start()
        try:
            while True:
                states = self.step(service_dir)
                if all(
                    rec["state"] in POINT_TERMINAL for rec in states.values()
                ):
                    break
                if tick is not None:
                    tick(self)
                if (max_seconds is not None
                        and time.monotonic() - started >= max_seconds):
                    break
                time.sleep(poll)
        finally:
            if service_thread is not None:
                request_stop(service_dir)
                service_thread.join(timeout=60.0)
        return self.status()

    def step(self, service_dir: str) -> dict[str, dict]:
        """One scheduling cycle: reconcile with the service journal, then
        submit every point the warm DAG allows.  Returns the post-cycle
        state table."""
        states = self.journal_states()
        self._reconcile(service_dir, states)
        self._submit_ready(service_dir, states)
        return states

    def _reconcile(self, service_dir: str, states: dict[str, dict]) -> None:
        """Adopt the service journal's view of every submitted point.

        Also repairs the one crash window submission has: an inbox file
        dropped (or even admitted) before our SUBMITTED append landed
        shows up here as a PENDING point whose job already exists — it
        is journalled SUBMITTED instead of resubmitted.
        """
        store = JobStore(ServicePaths(service_dir).journal).load()
        for point in self.points:
            record = states[point.point_id]
            if record["state"] in POINT_TERMINAL:
                continue
            job = store.get(point.job_id)
            if job is None:
                continue
            if record["state"] == PENDING:
                record = {"id": point.point_id, "state": SUBMITTED}
                states[point.point_id] = record
                self._journal(point.point_id, SUBMITTED, job_id=point.job_id)
            if job.terminal:
                extra = {
                    "job_id": job.id,
                    "hpwl": job.hpwl,
                    "seconds": job.seconds,
                    "warm_hit": job.warm_hit,
                }
                if job.error:
                    extra["error"] = job.error
                states[point.point_id] = {
                    "id": point.point_id, "state": job.state, **extra,
                }
                self._journal(point.point_id, job.state, **extra)

    def _submit_ready(
        self, service_dir: str, states: dict[str, dict]
    ) -> None:
        """Release points group by group along the warm DAG."""
        for group in self.plan():
            group_states = [states[pid]["state"] for pid in group.point_ids]
            pending = [
                pid for pid, st in zip(group.point_ids, group_states)
                if st == PENDING
            ]
            if not pending:
                continue
            if DONE in group_states:
                # Warm artifacts exist (stored before the leader's DONE
                # transition): release the whole group.
                release = pending
            elif SUBMITTED in group_states:
                release = []  # leader in flight; hold the followers
            else:
                # No leader yet, or every prior leader failed: promote
                # the first pending point to (cold) leader.
                release = pending[:1]
            for point_id in release:
                point = self._by_id[point_id]
                submit_job(
                    service_dir,
                    point.to_job_spec(self.spec),
                    priority=self.spec.priority,
                    job_id=point.job_id,
                )
                states[point_id] = {"id": point_id, "state": SUBMITTED}
                self._journal(point_id, SUBMITTED, job_id=point.job_id)

    # -- status ----------------------------------------------------------------
    def status(self, service_dir: str | None = None) -> dict:
        """Study progress from the journal.

        With *service_dir*, live job states are overlaid in memory (no
        journal writes), so ``repro study status`` from a second
        terminal sees RUNNING work the next ``run`` cycle will adopt.
        """
        states = self.journal_states()
        if service_dir is not None:
            store = JobStore(ServicePaths(service_dir).journal).load()
            for point in self.points:
                record = states[point.point_id]
                if record["state"] in POINT_TERMINAL:
                    continue
                job = store.get(point.job_id)
                if job is None:
                    continue
                adopted = job.state if job.terminal else SUBMITTED
                states[point.point_id] = {
                    **record, "state": adopted, "hpwl": job.hpwl,
                    "seconds": job.seconds, "warm_hit": job.warm_hit,
                }
        counts: dict[str, int] = {
            s: 0 for s in (PENDING, SUBMITTED) + POINT_TERMINAL
        }
        for record in states.values():
            counts[record["state"]] += 1
        groups = []
        for group in self.plan():
            group_counts: dict[str, int] = {}
            for pid in group.point_ids:
                st = states[pid]["state"]
                group_counts[st] = group_counts.get(st, 0) + 1
            groups.append({
                "fingerprint": group.key,
                "points": len(group.point_ids),
                "states": group_counts,
            })
        return {
            "name": self.spec.name,
            "fingerprint": self.spec.fingerprint(),
            "total": len(self.points),
            "counts": counts,
            "complete": counts[PENDING] == 0 and counts[SUBMITTED] == 0,
            "groups": groups,
            "points": [
                {
                    **self._by_id[pid].to_json(),
                    "state": rec["state"],
                    "hpwl": rec.get("hpwl"),
                    "seconds": rec.get("seconds"),
                    "warm_hit": rec.get("warm_hit"),
                    "job_id": self._by_id[pid].job_id,
                }
                for pid, rec in (
                    (p.point_id, states[p.point_id]) for p in self.points
                )
            ],
        }
