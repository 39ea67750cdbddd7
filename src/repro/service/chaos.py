"""Fault drills: inject faults into a live service, check that it heals.

Every drill is a row of one table (:class:`Scenario`), run by one runner
(:func:`run_drill`) and judged by the same checks.  The runner first
places every seed a row expects DONE through one clean one-worker daemon
— the ``reference`` pass: the HPWL every faulted run must reproduce bit
for bit, and the footprint a governed row sizes its disk quota from.
Then it runs each row in a fresh service dir, on one in-process daemon
or, for a row that kills its daemon, on a ``repro serve`` process that
it SIGKILLs and restarts on the same dir, and checks every job:

- the job is in the journal and terminal, and the journal holds exactly
  one terminal record for it — a terminal state record, or its entry in
  a compaction snapshot — and none for a job nobody submitted;
- a DONE job was verified in-flow, and its HPWL is bit-identical to its
  reference;
- a QUARANTINED job carries the expected error kind and has one
  ``quarantine.jsonl`` record;
- no daemon died, other than the row's scheduled SIGKILLs;

then the row's own expectations: attempts, warm hits, planned faults
fired, counters moved, error kinds journalled, the disk quota held.

=================== ========================================================
baseline            no faults: DONE on the first attempt
checkpoint_corrupt  ``checkpoint.corrupt`` flips a byte of
                    ``calibration.json`` after its digest was recorded,
                    then ``trainer.kill`` fails the attempt → the retry's
                    resume detects the corruption, restarts the stage
                    cold, and finishes DONE
stage_stall         ``stall.freeze`` stops the job's heartbeat → the
                    slot kills the attempt's worker (structured
                    ``StageStallError``), the retry finishes DONE
warm_corrupt        job A populates the warm cache and ``warm.corrupt``
                    flips a byte of the entry; job B detects it before
                    injection, discards the entry, and runs cold to DONE
poison              ``trainer.kill`` on every attempt → retries exhaust
                    and the job is QUARANTINED
daemon_kill         a ``repro serve --workers 2`` process drains 6 jobs and
                    a poisoned one while it is SIGKILLed twice with a job
                    RUNNING and restarted on the same dir: each restart
                    journals the dead daemon's RUNNING jobs back to QUEUED
                    (``daemon_restart``) and resumes them from their
                    run-dir checkpoints
governed            a daemon inside a disk quota at 0.8 of the reference
                    footprint, keeping 1 run dir, with one transient and
                    one persistent ``disk.enospc`` job: only GC, load
                    shedding and ENOSPC degradation let it finish
=================== ========================================================

``repro chaos`` runs :data:`SINGLE_DAEMON` and :data:`DAEMON_KILL` (CI
``chaos-smoke``) and ``--governed`` runs :data:`GOVERNED` (``gc-smoke``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, replace

from repro.runtime import faults
from repro.runtime.errors import UsageError
from repro.runtime.faults import Fault, FaultPlan
from repro.runtime.resources import dir_usage_bytes
from repro.service.jobs import (
    DONE,
    QUARANTINED,
    RUNNING,
    TERMINAL_STATES,
    JobSpec,
    JobStore,
    ServicePaths,
)
from repro.service.service import PlacementService, read_result, submit_job
from repro.utils.events import read_jsonl

#: small-but-real drill spec: one full flow run in well under a second;
#: drill jobs run it at seed offsets from its seed
DEFAULT_SPEC = JobSpec(
    circuit="ibm01", scale=0.004, macro_scale=0.04, preset="fast", seed=3
)
#: wall-clock cap on every daemon (the no-hang gate)
MAX_SECONDS = 60.0
#: poll cycle of a daemon process, and of the drill watching its journal
POLL = 0.05


@dataclass(frozen=True)
class DrillJob:
    """One submitted job and the outcome the drill demands of it."""

    #: seed offset from :data:`DEFAULT_SPEC`
    seed: int = 0
    #: the job's own ``JobSpec.faults`` triples
    faults: tuple = ()
    state: str = DONE
    #: attempts the job must take (None: not checked)
    attempts: int | None = None
    #: error kind a QUARANTINED job must carry
    error: str | None = None
    #: whether the job must be a warm hit (None: not checked)
    warm_hit: bool | None = None


@dataclass(frozen=True)
class Scenario:
    """One drill row: the daemon shape, the faults, what must follow."""

    name: str
    #: clean jobs at seed offsets ``0 .. jobs-1``, each expected DONE
    jobs: int = 0
    #: attempts each clean job must take (None: not checked)
    attempts: int | None = 1
    #: further jobs, each with its own faults and expected outcome
    extra: tuple[DrillJob, ...] = ()
    #: daemon-wide fault plan as ``(site, at, count)`` triples; its
    #: arrivals count across attempts (in-process daemon only: a killed
    #: row's ``fired.*`` checks fail if it sets one)
    faults: tuple = ()
    #: ``(name, value)`` daemon settings: ``PlacementService`` keywords,
    #: handed to a ``repro serve`` process as the flags of the same name
    settings: tuple = ()
    #: 0: one in-process daemon; N: a ``repro serve`` process SIGKILLed
    #: N times while the journal shows a job RUNNING, each time
    #: restarted on the same dir
    kills: int = 0
    #: disk quota as a fraction of the reference pass's footprint
    quota_frac: float | None = None
    #: ``(counter, at least, at most or None)`` the row must move
    counters: tuple = ()
    #: error kinds that some journal record must carry
    journal_errors: tuple = ()

    def submitted(self) -> list[DrillJob]:
        clean = [
            DrillJob(seed=i, attempts=self.attempts) for i in range(self.jobs)
        ]
        return clean + list(self.extra)


SINGLE_DAEMON = (
    Scenario("baseline", jobs=1),
    Scenario(
        "checkpoint_corrupt", jobs=1, attempts=2,
        # arrival 2 = calibration.json (after prototype.npz); the kill a
        # few episodes later forces a retry that must notice it on resume
        faults=(("checkpoint.corrupt", 2, 1), ("trainer.kill", 5, 1)),
        counters=(("jobs_retried", 1, 1),),
    ),
    Scenario(
        "stage_stall", jobs=1, attempts=2,
        faults=(("stall.freeze", 1, 1),),
        settings=(("stall_seconds", 0.2),),
        counters=(("stalls_detected", 1, None),),
        journal_errors=("StageStallError",),
    ),
    Scenario(
        "warm_corrupt",
        extra=(DrillJob(attempts=1, warm_hit=False),) * 2,
        faults=(("warm.corrupt", 1, 1),),
        counters=(("warm_corruptions", 1, 1),),
    ),
    Scenario(
        "poison",
        extra=(DrillJob(state=QUARANTINED, attempts=3, error="FaultInjected"),),
        faults=(("trainer.kill", 1, None),),
    ),
)

DAEMON_KILL = Scenario(
    "daemon_kill", jobs=6, attempts=None, kills=2,
    extra=(
        DrillJob(seed=6, faults=(("trainer.kill", 1, None),),
                 state=QUARANTINED, error="FaultInjected"),
    ),
)

GOVERNED = Scenario(
    "governed", jobs=6, attempts=None, quota_frac=0.8,
    settings=(("high_water", 0.85), ("low_water", 0.6), ("retention_runs", 1)),
    extra=(
        # the first guarded write fails once: emergency GC + retry absorb it
        DrillJob(faults=(("disk.enospc", 1, 1),)),
        # every write fails, even after GC: attempts exhaust, daemon lives on
        DrillJob(seed=6, faults=(("disk.enospc", 1, None),),
                 state=QUARANTINED, error="ResourceExhaustedError"),
    ),
    counters=(("gc_runs", 1, None), ("resource_degradations", 1, None)),
)


def run_drill(root: str, rows: tuple[Scenario, ...]) -> dict:
    """Run the reference pass and every row under *root*; the report.

    ``report["ok"]`` is the drill gate: True only when every check of
    every row held.  A governed row sizes its quota from the reference
    pass, which covers the DONE seeds of *rows*.
    """
    if os.path.isdir(root) and os.listdir(root):
        raise UsageError(
            f"drill directory {root} is not empty: an earlier drill's "
            "journal and caches would change what the faults hit"
        )
    offsets = sorted(
        {j.seed for row in rows for j in row.submitted() if j.state == DONE}
    )
    probe = Scenario(
        "reference",
        extra=tuple(DrillJob(seed=s, attempts=1) for s in offsets),
    )
    report: dict = {"ok": True, "reference": {}, "scenarios": []}
    footprint = runs_per_job = 0
    for row in (probe, *rows):
        service_dir = os.path.join(root, row.name)
        settings, quota = dict(row.settings), None
        if row.quota_frac is not None:
            quota = max(1, int(footprint * row.quota_frac))
            settings.update(
                disk_quota_bytes=quota,
                # one run dir's cost, not footprint / jobs: the warm cache
                # and results are a floor the row pays once
                rundir_projection_bytes=max(1, runs_per_job),
                resource_sample_interval=POLL,
            )
        run = _run(service_dir, row, settings)
        if row is probe:
            store = JobStore(ServicePaths(service_dir).journal).load()
            report["reference"] = {
                str(job.spec.seed): job.hpwl
                for job in store.jobs() if job.state == DONE
            }
            footprint = dir_usage_bytes(service_dir)
            runs_per_job = dir_usage_bytes(
                ServicePaths(service_dir).runs
            ) // max(1, len(offsets))
        scenario = _judge(service_dir, row, run, report["reference"], quota)
        report["scenarios"].append(scenario)
        report["ok"] = report["ok"] and scenario["ok"]
        if row is probe and not scenario["ok"]:
            break  # nothing to compare against
    return report


def _run(service_dir: str, row: Scenario, settings: dict) -> dict:
    """Submit *row*'s jobs and drain its daemon."""
    submitted = [
        (
            submit_job(service_dir, replace(
                DEFAULT_SPEC,
                seed=DEFAULT_SPEC.seed + job.seed,
                faults=job.faults or None,
            )),
            job,
        )
        for job in row.submitted()
    ]
    plan = FaultPlan(
        *(Fault(site, at=at, count=count) for site, at, count in row.faults)
    )
    started = time.perf_counter()
    if row.kills:
        deaths, kills = _serve_with_kills(service_dir, row, settings)
    else:
        deaths, kills = _serve(service_dir, settings, plan), []
    return {
        "submitted": submitted,
        "plan": plan,
        "kills": kills,
        "deaths": deaths,
        "seconds": round(time.perf_counter() - started, 3),
    }


def _judge(
    service_dir: str, row: Scenario, run: dict, reference: dict,
    quota: int | None,
) -> dict:
    """The common checks on every job, then the row's own; the entry."""
    paths = ServicePaths(service_dir)
    submitted = run["submitted"]
    store = JobStore(paths.journal).load()
    journal = read_jsonl(paths.journal)
    # A job's terminal record is its terminal state record or, once the
    # governor compacted the journal, its entry in the snapshot record.
    terminal = Counter(
        entry.get("id")
        for r in journal
        for entry in (r.get("jobs", ()) if r.get("record") == "snapshot"
                      else (r,) if r.get("record") == "state" else ())
        if entry.get("state") in TERMINAL_STATES
    )
    quarantined = Counter(
        q.get("id") for q in read_jsonl(paths.quarantine) if q.get("error")
    )
    checks: list = []
    jobs: list = []
    for i, (job_id, want) in enumerate(submitted):
        label = f"job{i}"
        job = store.get(job_id)
        _check(checks, f"{label}.journalled", job is not None, job_id)
        if job is None:
            continue
        kind = (job.error or {}).get("kind")
        jobs.append({
            "id": job.id, "seed": job.spec.seed, "state": job.state,
            "attempts": job.attempts, "hpwl": job.hpwl, "error": kind,
            "warm_hit": job.warm_hit,
        })
        _check(checks, f"{label}.terminal", job.terminal, job.state)
        _check(checks, f"{label}.one_terminal_record", terminal[job_id] == 1,
               f"{terminal[job_id]} terminal records")
        _check(checks, f"{label}.state", job.state == want.state,
               f"{job.state} (want {want.state}) error={kind}")
        if want.state == DONE:
            verified = (read_result(service_dir, job_id) or {}).get("verified")
            _check(checks, f"{label}.verified", verified is True,
                   f"result file verified={verified!r}")
            ref = reference.get(str(job.spec.seed))
            _check(checks, f"{label}.hpwl_bit_identical",
                   job.hpwl is not None and job.hpwl == ref,
                   f"{job.hpwl!r} vs reference {ref!r}")
        if want.state == QUARANTINED:
            _check(checks, f"{label}.error_kind", kind == want.error,
                   f"{kind} (want {want.error})")
            _check(checks, f"{label}.quarantine_record",
                   quarantined[job_id] == 1,
                   f"{quarantined[job_id]} quarantine.jsonl records")
        if want.attempts is not None:
            _check(checks, f"{label}.attempts", job.attempts == want.attempts,
                   f"{job.attempts} (want {want.attempts})")
        if want.warm_hit is not None:
            _check(checks, f"{label}.warm_hit", job.warm_hit == want.warm_hit,
                   f"{job.warm_hit} (want {want.warm_hit})")
    stray = set(terminal) - {job_id for job_id, _ in submitted}
    _check(checks, "no_stray_jobs", not stray, ",".join(sorted(stray)))
    _check(checks, "daemons_survived", not run["deaths"],
           "; ".join(run["deaths"]))
    metrics = None
    if os.path.exists(paths.metrics):
        with open(paths.metrics) as f:
            metrics = json.load(f)
    _check(checks, "metrics_written", metrics is not None, paths.metrics)

    # -- the row's own expectations ------------------------------------------
    for fault in run["plan"].faults:
        _check(checks, f"fired.{fault.site}",
               fault.fired >= 1 if fault.count is None
               else fault.fired == fault.count,
               f"fired {fault.fired} (count {fault.count})")
    if row.kills:
        _check(checks, "kills", len(run["kills"]) == row.kills,
               f"{len(run['kills'])}/{row.kills}: {run['kills']}")
    for k, kill in enumerate(run["kills"]):
        # the restart after this kill requeued every job it left RUNNING
        requeued = {
            r.get("id") for r in journal[kill["journal_records"]:]
            if r.get("record") == "state"
            and r.get("reason") == "daemon_restart"
        }
        missing = sorted(set(kill["running"]) - requeued)
        _check(checks, f"kill{k}.daemon_restart", not missing,
               f"RUNNING at the kill without a daemon_restart: {missing}")
    counters = dict((metrics or {}).get("counters", {}))
    counters["warm_corruptions"] = sum(
        entry.get("corruptions", 0)
        for entry in (metrics or {}).get("warm_fingerprints", {}).values()
    )
    for name, low, high in row.counters:
        value = counters.get(name, 0)
        bounds = f"{low}+" if high is None else f"{low}..{high}"
        _check(checks, f"counter.{name}",
               value >= low and (high is None or value <= high),
               f"{name}={value} (want {bounds})")
    for kind in row.journal_errors:
        _check(checks, f"journalled.{kind}",
               any((r.get("error") or {}).get("kind") == kind for r in journal),
               "a journal transition records this error kind")
    if quota is not None:
        final = dir_usage_bytes(service_dir)
        _check(checks, "within_quota", final <= quota, f"{final} <= {quota}")
    return {
        "name": row.name,
        "ok": all(c["ok"] for c in checks),
        "seconds": run["seconds"],
        "jobs": jobs,
        "checks": checks,
    }


def _check(checks: list, name: str, ok: bool, detail: str = "") -> None:
    checks.append({"name": name, "ok": bool(ok), "detail": detail})


def _serve(service_dir: str, settings: dict, plan: FaultPlan) -> list[str]:
    """Drain one in-process one-worker daemon under *plan*; its deaths."""
    service = PlacementService(
        service_dir, workers=1, poll_interval=0.02, max_retries=2,
        backoff_base=0.05, **settings,
    )
    try:
        with faults.inject(plan):
            service.run(drain=True, max_seconds=MAX_SECONDS)
    except Exception:  # a daemon death is a finding, not a crash
        return [traceback.format_exc()]
    finally:
        service.governor.uninstall()
    return []


def _serve_with_kills(
    service_dir: str, row: Scenario, settings: dict,
) -> tuple[list[str], list[dict]]:
    """Drain *row*'s jobs on a ``repro serve --workers 2`` process,
    SIGKILLing it *row.kills* times while the journal shows a job RUNNING
    and restarting it on the same dir; the deaths and the kills.  Two
    workers, so a kill usually catches two attempts in flight.

    A kill counts once the dead daemon's journal holds a RUNNING job
    that the restart must requeue; a kill that finds none (the job
    finished first) is retried on a later RUNNING job.
    """
    paths = ServicePaths(service_dir)
    src = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    argv = [
        sys.executable, "-m", "repro", "serve", "--service-dir", service_dir,
        "--workers", "2", "--poll-interval", str(POLL),
        "--backoff-base", "0.05", "--drain", "--max-seconds", str(MAX_SECONDS),
        *(arg for name, value in settings.items()
          for arg in ("--" + name.replace("_", "-"), str(value))),
    ]

    def spawn() -> subprocess.Popen:
        return subprocess.Popen(
            argv, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

    proc = spawn()
    kills: list[dict] = []
    # journal records written before the current daemon started: a
    # RUNNING record past this mark is one of its own attempts
    mark = 0
    deadline = time.monotonic() + MAX_SECONDS
    try:
        while (len(kills) < row.kills and proc.poll() is None
               and time.monotonic() < deadline):
            started = {
                r.get("id") for r in read_jsonl(paths.journal)[mark:]
                if r.get("record") == "state" and r.get("state") == RUNNING
            }
            if started & _running(paths):
                proc.kill()  # no cleanup: its workers die with it
                proc.wait()
                running = sorted(_running(paths))
                mark = len(read_jsonl(paths.journal))
                if running:
                    kills.append({"running": running, "journal_records": mark})
                proc = spawn()
            time.sleep(POLL)
        try:
            # the daemon exits at its own --max-seconds; the grace keeps
            # one merely finishing its drain from counting as a death
            proc.wait(timeout=max(10.0, deadline - time.monotonic() + 10.0))
        except subprocess.TimeoutExpired:
            pass
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    deaths = [] if proc.returncode == 0 else [
        f"daemon exited {proc.returncode}"
    ]
    return deaths, kills


def _running(paths: ServicePaths) -> set[str]:
    """Ids of the jobs the journal shows RUNNING."""
    return {job.id for job in JobStore(paths.journal).load().in_state(RUNNING)}


def format_report(report: dict) -> str:
    """Human-readable drill summary (the ``repro chaos`` output)."""
    lines = [
        f"chaos drill: {DEFAULT_SPEC.circuit} preset={DEFAULT_SPEC.preset}; "
        "reference hpwl by seed: "
        + ", ".join(f"{s}={h!r}" for s, h in report["reference"].items())
    ]
    for scenario in report["scenarios"]:
        mark = "PASS" if scenario["ok"] else "FAIL"
        lines.append(
            f"  [{mark}] {scenario['name']:<20s} "
            f"{scenario['seconds']:6.2f}s  jobs="
            + ",".join(
                f"{j['state']}(a{j['attempts']})" for j in scenario["jobs"]
            )
        )
        for check in scenario["checks"]:
            if not check["ok"]:
                lines.append(
                    f"         FAILED check {check['name']}: {check['detail']}"
                )
    total = sum(s["seconds"] for s in report["scenarios"])
    lines.append(
        f"result: {'OK' if report['ok'] else 'FAILED'} ({total:.1f}s total)"
    )
    return "\n".join(lines)
