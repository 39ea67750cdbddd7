"""Chaos drill: inject faults into a live service, assert self-healing.

Each scenario boots a fresh one-worker daemon in its own service dir,
installs a deterministic :class:`~repro.runtime.faults.FaultPlan`, runs
the daemon to drain, and checks hard gates:

- **no hangs** — every job reaches a terminal state before the drain's
  wall-clock cap;
- **no silent wrong results** — every DONE placement was independently
  verified in-flow (``verify_results``), and its HPWL is *bit-identical*
  to the unfaulted baseline run of the same spec;
- **bounded failure** — transiently-faulted jobs end DONE after retry;
  the deliberately poisoned job ends QUARANTINED, never FAILED-silently
  and never retried forever.

Scenarios (one per new fault site, plus the poison-path control):

=================== ========================================================
baseline            no faults; produces the reference HPWL
checkpoint_corrupt  ``checkpoint.corrupt`` flips a byte of
                    ``calibration.json`` after its digest was recorded,
                    then ``trainer.kill`` fails the attempt → the retry's
                    resume detects the corruption, restarts the stage
                    cold, and finishes DONE
stage_stall         ``stall.freeze`` stops the job's heartbeat → the
                    watchdog cancels the attempt (structured
                    ``StageStallError``), the retry finishes DONE
warm_corrupt        job A populates the warm cache and ``warm.corrupt``
                    flips a byte of the entry; job B detects it before
                    injection, discards the entry, and runs cold to DONE
poison              ``trainer.kill`` on every attempt → retries exhaust
                    and the job is QUARANTINED (journalled)
=================== ========================================================

Used by ``repro chaos``, the CI ``chaos-smoke`` job, and
``benchmarks/bench_supervision.py``.

:func:`run_fleet_drill` is the multi-process escalation: it boots a
real sharded fleet (:mod:`repro.service.fleet`), SIGKILLs whole shard
processes while jobs are in flight, and gates on every job ending DONE
with an HPWL bit-identical to a single-daemon baseline or QUARANTINED
with a journaled reason — never lost, duplicated, or silently
corrupted.  Used by ``repro chaos --fleet`` and the CI ``fleet-smoke``
job.

:func:`run_governed_drill` is the resource-pressure escalation: the
same fleet is squeezed into a synthetic disk quota sized *below* what
an ungoverned run writes (plus injected ``disk.enospc`` faults), so it
can only finish if the resource governor's GC, load shedding, and
ENOSPC degradation all work — and it gates on every answer staying
bit-identical while they do.  Used by ``repro chaos --governed`` and
``benchmarks/bench_governor.py`` (CI ``gc-smoke``).
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import replace

from repro.runtime import faults
from repro.runtime.faults import Fault, FaultPlan
from repro.service.jobs import (
    DONE,
    QUARANTINED,
    TERMINAL_STATES,
    JobSpec,
    JobStore,
)
from repro.service.service import PlacementService, submit_job

#: small-but-real drill spec: one full flow run in well under a second
DEFAULT_SPEC = JobSpec(
    circuit="ibm01", scale=0.004, macro_scale=0.04, preset="fast", seed=3
)


def _check(checks: list, name: str, ok: bool, detail: str = "") -> bool:
    checks.append({"name": name, "ok": bool(ok), "detail": detail})
    return bool(ok)


def _run_scenario(
    root: str,
    name: str,
    plan_faults: list[Fault],
    *,
    spec: JobSpec,
    n_jobs: int = 1,
    stall_seconds: float | None = None,
    max_retries: int = 2,
    backoff_base: float = 0.05,
    max_seconds: float = 60.0,
) -> tuple[PlacementService, list, float, FaultPlan]:
    service_dir = os.path.join(root, name)
    service = PlacementService(
        service_dir,
        workers=1,
        poll_interval=0.02,
        stall_seconds=stall_seconds,
        max_retries=max_retries,
        backoff_base=backoff_base,
    )
    job_ids = [submit_job(service_dir, spec) for _ in range(n_jobs)]
    plan = FaultPlan(*plan_faults)
    started = time.perf_counter()
    with faults.inject(plan):
        service.run(drain=True, max_seconds=max_seconds)
    elapsed = time.perf_counter() - started
    jobs = [service.store.get(job_id) for job_id in job_ids]
    return service, jobs, elapsed, plan


def run_chaos_drill(
    root: str,
    *,
    spec: JobSpec | None = None,
    stall_seconds: float = 0.2,
    max_retries: int = 2,
    backoff_base: float = 0.05,
    max_seconds: float = 60.0,
) -> dict:
    """Run every scenario under *root*; returns the machine-readable report.

    ``report["ok"]`` is the drill gate: True only when every scenario's
    jobs terminated (no hangs), every DONE HPWL matched the baseline
    bit-for-bit, and every fault produced exactly the designed recovery.
    """
    spec = spec if spec is not None else DEFAULT_SPEC
    os.makedirs(root, exist_ok=True)
    report: dict = {"spec": spec.to_json(), "scenarios": [], "ok": True}

    def finish(name, service, jobs, elapsed, checks, fired):
        ok = all(c["ok"] for c in checks)
        report["scenarios"].append(
            {
                "name": name,
                "ok": ok,
                "seconds": round(elapsed, 3),
                "faults_fired": fired,
                "jobs": [
                    {
                        "id": j.id,
                        "state": j.state,
                        "attempts": j.attempts,
                        "hpwl": j.hpwl,
                        "error": (j.error or {}).get("kind"),
                    }
                    for j in jobs
                ],
                "checks": checks,
            }
        )
        report["ok"] = report["ok"] and ok

    common = dict(
        spec=spec, max_retries=max_retries,
        backoff_base=backoff_base, max_seconds=max_seconds,
    )

    # -- baseline: the reference result every faulted run must reproduce
    service, jobs, elapsed, plan = _run_scenario(root, "baseline", [], **common)
    checks: list = []
    job = jobs[0]
    _check(checks, "terminal", job.terminal, job.state)
    _check(checks, "done_first_attempt",
           job.state == DONE and job.attempts == 1,
           f"state={job.state} attempts={job.attempts}")
    _check(checks, "verified",
           service.metrics.counter("jobs_verified") == 1,
           "independent verifier ran on the DONE result")
    reference_hpwl = job.hpwl
    report["reference_hpwl"] = reference_hpwl
    finish("baseline", service, jobs, elapsed, checks, plan.total_fired())
    if reference_hpwl is None:
        return report  # nothing to compare against; fail fast

    def check_done_identical(checks, job, attempts=None):
        _check(checks, "terminal", job.terminal, job.state)
        _check(checks, "done", job.state == DONE,
               f"state={job.state} error={(job.error or {}).get('kind')}")
        if attempts is not None:
            _check(checks, f"attempts_{attempts}", job.attempts == attempts,
                   f"attempts={job.attempts}")
        _check(checks, "hpwl_bit_identical", job.hpwl == reference_hpwl,
               f"{job.hpwl!r} vs baseline {reference_hpwl!r}")

    # -- checkpoint_corrupt: bit-rot detected on resume, stage restarted
    service, jobs, elapsed, plan = _run_scenario(
        root, "checkpoint_corrupt",
        [
            # arrival 2 = calibration.json (after prototype.npz)
            Fault("checkpoint.corrupt", at=2),
            # fail the attempt a few episodes later, forcing a
            # retry that must notice the corrupted checkpoint on resume
            Fault("trainer.kill", at=5),
        ],
        **common,
    )
    checks = []
    _check(checks, "fault_fired",
           plan.total_fired("checkpoint.corrupt") == 1
           and plan.total_fired("trainer.kill") == 1)
    check_done_identical(checks, jobs[0], attempts=2)
    _check(checks, "retried", service.metrics.counter("jobs_retried") == 1)
    finish("checkpoint_corrupt", service, jobs, elapsed, checks,
           plan.total_fired())

    # -- stage_stall: frozen heartbeat -> watchdog cancel -> retry
    service, jobs, elapsed, plan = _run_scenario(
        root, "stage_stall",
        [Fault("stall.freeze", at=1)],
        stall_seconds=stall_seconds, **common,
    )
    checks = []
    _check(checks, "fault_fired", plan.total_fired("stall.freeze") == 1)
    _check(checks, "stall_detected",
           service.metrics.counter("stalls_detected") >= 1)
    _check(checks, "stall_error_structured",
           any(
               (r.get("error") or {}).get("kind") == "StageStallError"
               for r in _journal(service)
           ),
           "journal records a StageStallError transition")
    check_done_identical(checks, jobs[0], attempts=2)
    finish("stage_stall", service, jobs, elapsed, checks, plan.total_fired())

    # -- warm_corrupt: poisoned cache entry discarded, job runs cold
    service, jobs, elapsed, plan = _run_scenario(
        root, "warm_corrupt",
        [Fault("warm.corrupt", at=1)],
        n_jobs=2, **common,
    )
    checks = []
    _check(checks, "fault_fired", plan.total_fired("warm.corrupt") == 1)
    _check(checks, "entry_discarded", service.warm.corruptions == 1,
           f"corruptions={service.warm.corruptions}")
    _check(checks, "no_warm_hit", not jobs[1].warm_hit,
           "corrupt entry must not be injected")
    for job in jobs:
        check_done_identical(checks, job, attempts=1)
    finish("warm_corrupt", service, jobs, elapsed, checks, plan.total_fired())

    # -- poison: every attempt fails -> quarantine, never an infinite loop
    service, jobs, elapsed, plan = _run_scenario(
        root, "poison",
        [Fault("trainer.kill", at=1, count=None)],
        **common,
    )
    checks = []
    job = jobs[0]
    _check(checks, "terminal", job.terminal, job.state)
    _check(checks, "quarantined", job.state == QUARANTINED, job.state)
    _check(checks, "attempts_exhausted", job.attempts == max_retries + 1,
           f"attempts={job.attempts}")
    _check(checks, "journalled",
           len(service.supervisor.quarantined()) == 1,
           "quarantine.jsonl has exactly one record")
    finish("poison", service, jobs, elapsed, checks, plan.total_fired())

    report["total_seconds"] = round(
        sum(s["seconds"] for s in report["scenarios"]), 3
    )
    return report


def _journal(service: PlacementService) -> list[dict]:
    from repro.utils.events import read_jsonl

    return read_jsonl(service.store.path)


# -- fleet shard-kill drill ---------------------------------------------------
def _spawn_shard(
    fleet_dir: str,
    shard: str,
    *,
    lease_ttl: float,
    poll_interval: float,
    max_seconds: float,
    extra_args: list[str] | None = None,
) -> subprocess.Popen:
    """Launch one shard daemon process (drain mode) against *fleet_dir*."""
    src = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    cmd = [
        sys.executable, "-m", "repro", "fleet", "shard",
        "--service-dir", fleet_dir,
        "--shard", shard,
        "--lease-ttl", str(lease_ttl),
        "--poll-interval", str(poll_interval),
        "--backoff-base", "0.05",
        "--drain",
        "--max-seconds", str(max_seconds),
        *(extra_args or []),
    ]
    return subprocess.Popen(
        cmd, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


def run_fleet_drill(
    root: str,
    *,
    spec: JobSpec | None = None,
    n_shards: int = 3,
    n_jobs: int = 6,
    n_kills: int = 2,
    lease_ttl: float = 1.5,
    poll_interval: float = 0.05,
    max_seconds: float = 150.0,
    respawn: bool = True,
) -> dict:
    """Shard-kill drill: SIGKILL whole shards mid-fleet, gate on outcomes.

    Phase 1 runs every job through a single one-worker daemon — the
    reference HPWL per job.  Phase 2 submits the same mix (plus one
    deliberately poisoned job) to a shared fleet dir, boots *n_shards*
    shard processes, and SIGKILLs *n_kills* of them while work is in
    flight (optionally respawning each victim under the same shard id,
    which exercises the dead-predecessor lease takeover).  The gate:

    - every submitted job reaches a terminal state (nothing lost, no
      hang);
    - every non-poison job is DONE with HPWL **bit-identical** to its
      single-daemon reference (whole-shard loss never changes an
      answer);
    - the poison job is QUARANTINED with a journaled reason;
    - the raw shared journal carries **exactly one** terminal record per
      job (no double-completion, even in the append history);
    - ``fleet_metrics.json`` aggregates every shard that reported.
    """
    from repro.service.fleet import FleetPaths

    spec = spec if spec is not None else DEFAULT_SPEC
    os.makedirs(root, exist_ok=True)
    seeds = [spec.seed + i for i in range(n_jobs)]
    n_kills = max(0, min(n_kills, n_shards - 1))  # always leave a survivor
    checks: list = []
    report: dict = {
        "spec": spec.to_json(),
        "n_shards": n_shards,
        "n_jobs": n_jobs,
        "n_kills": n_kills,
        "lease_ttl": lease_ttl,
        "checks": checks,
    }
    started = time.perf_counter()

    # -- phase 1: single-daemon reference ------------------------------------
    baseline_dir = os.path.join(root, "baseline")
    baseline = PlacementService(
        baseline_dir, workers=1, poll_interval=0.02, backoff_base=0.05,
    )
    ref_ids = {
        seed: submit_job(baseline_dir, replace(spec, seed=seed))
        for seed in seeds
    }
    baseline.run(drain=True, max_seconds=max_seconds)
    reference = {
        seed: baseline.store.get(job_id).hpwl
        for seed, job_id in ref_ids.items()
    }
    _check(
        checks, "baseline_all_done",
        all(
            baseline.store.get(j).state == DONE and reference[s] is not None
            for s, j in ref_ids.items()
        ),
        f"reference={reference}",
    )
    report["reference"] = {str(s): h for s, h in reference.items()}
    if not checks[-1]["ok"]:
        report["ok"] = False
        return report

    # -- phase 2: the fleet under fire ---------------------------------------
    fleet_dir = os.path.join(root, "fleet")
    paths = FleetPaths(fleet_dir).ensure()
    job_ids = {
        submit_job(fleet_dir, replace(spec, seed=seed)): seed
        for seed in seeds
    }
    poison_id = submit_job(
        fleet_dir,
        replace(
            spec,
            seed=spec.seed + n_jobs,
            faults=(("trainer.kill", 1, None),),
        ),
    )
    total = len(job_ids) + 1

    procs: dict[str, subprocess.Popen] = {}
    for i in range(n_shards):
        name = f"shard-{i}"
        procs[name] = _spawn_shard(
            fleet_dir, name,
            lease_ttl=lease_ttl, poll_interval=poll_interval,
            max_seconds=max_seconds,
        )

    store = JobStore(paths.journal)
    kills: list[dict] = []
    deadline = time.monotonic() + max_seconds
    last_kill = 0.0
    try:
        while time.monotonic() < deadline:
            store.load()
            counts = store.counts()
            n_terminal = sum(counts[s] for s in TERMINAL_STATES)
            if n_terminal >= total:
                break
            # Kill once work is demonstrably in flight, spaced so the
            # fleet has absorbed the previous loss before the next.
            in_flight = counts["RUNNING"] > 0 or n_terminal > len(kills)
            if (
                len(kills) < n_kills
                and in_flight
                and time.monotonic() - last_kill >= 2.0 * poll_interval
            ):
                victim = f"shard-{len(kills)}"
                proc = procs.get(victim)
                if proc is not None and proc.poll() is None:
                    proc.kill()  # SIGKILL: no cleanup, no lease release
                    proc.wait()
                    kills.append(
                        {"shard": victim, "terminal_before": n_terminal}
                    )
                    last_kill = time.monotonic()
                    if respawn:
                        # Same shard id: the replacement supersedes its
                        # dead predecessor's leases without waiting TTL.
                        procs[victim] = _spawn_shard(
                            fleet_dir, victim,
                            lease_ttl=lease_ttl,
                            poll_interval=poll_interval,
                            max_seconds=max_seconds,
                        )
            time.sleep(5 * poll_interval)
        for proc in procs.values():
            try:
                proc.wait(timeout=max(1.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                pass
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    # -- gates ----------------------------------------------------------------
    store.load()
    jobs = {job_id: store.get(job_id) for job_id in [*job_ids, poison_id]}
    report["kills"] = kills
    report["jobs"] = [
        {
            "id": j.id,
            "seed": j.spec.seed,
            "state": j.state if j else "MISSING",
            "attempts": j.attempts,
            "hpwl": j.hpwl,
            "shard": j.shard,
        }
        for j in jobs.values() if j is not None
    ]
    _check(checks, "kills_executed", len(kills) == n_kills,
           f"{len(kills)}/{n_kills}")
    _check(
        checks, "no_job_lost",
        all(j is not None for j in jobs.values()),
        "every submitted id is in the journal",
    )
    _check(
        checks, "all_terminal",
        all(j is not None and j.terminal for j in jobs.values()),
        ",".join(f"{i}={j.state if j else 'MISSING'}"
                 for i, j in jobs.items() if j is None or not j.terminal),
    )
    for job_id, seed in job_ids.items():
        job = jobs[job_id]
        if job is None:
            continue
        _check(
            checks, f"seed{seed}_done_identical",
            job.state == DONE and job.hpwl == reference[seed],
            f"state={job.state} hpwl={job.hpwl!r} "
            f"vs baseline {reference[seed]!r}",
        )
    poison = jobs[poison_id]
    _check(
        checks, "poison_quarantined",
        poison is not None and poison.state == QUARANTINED,
        poison.state if poison else "MISSING",
    )
    from repro.utils.events import read_jsonl

    quarantine = read_jsonl(paths.quarantine)
    _check(
        checks, "poison_journaled",
        any(q.get("id") == poison_id and q.get("error") for q in quarantine),
        "quarantine.jsonl records the poison job with its error",
    )
    terminal_records: dict[str, int] = {}
    for record in read_jsonl(paths.journal):
        if (
            record.get("record") == "state"
            and record.get("state") in TERMINAL_STATES
        ):
            rid = record.get("id")
            terminal_records[rid] = terminal_records.get(rid, 0) + 1
    _check(
        checks, "exactly_one_terminal_record",
        all(terminal_records.get(job_id, 0) == 1 for job_id in jobs)
        and set(terminal_records) <= set(jobs),
        f"terminal record counts: {terminal_records}",
    )
    fleet_metrics = None
    if os.path.exists(paths.fleet_metrics):
        import json as _json

        with open(paths.fleet_metrics) as f:
            fleet_metrics = _json.load(f)
    _check(
        checks, "fleet_metrics_aggregated",
        fleet_metrics is not None and fleet_metrics.get("n_shards", 0) >= 1,
        f"n_shards={None if fleet_metrics is None else fleet_metrics.get('n_shards')}",
    )
    report["reclaims"] = (
        (fleet_metrics or {}).get("counters", {}).get("jobs_reclaimed", 0)
    )
    report["seconds"] = round(time.perf_counter() - started, 3)
    report["ok"] = all(c["ok"] for c in checks)
    return report


def format_fleet_report(report: dict) -> str:
    """Human-readable fleet-drill summary (``repro chaos --fleet``)."""
    lines = [
        f"fleet drill: shards={report['n_shards']} "
        f"jobs={report['n_jobs']}+1 poison  kills={report['n_kills']} "
        f"lease_ttl={report['lease_ttl']}s",
    ]
    for kill in report.get("kills", []):
        lines.append(
            f"  SIGKILL {kill['shard']} "
            f"(terminal jobs before: {kill['terminal_before']})"
        )
    for job in report.get("jobs", []):
        lines.append(
            f"  {job['id']}: {job['state']} a{job['attempts']} "
            f"hpwl={job['hpwl']!r} shard={job['shard']}"
        )
    lines.append(f"  reclaimed RUNNING orphans: {report.get('reclaims', 0)}")
    for check in report.get("checks", []):
        if not check["ok"]:
            lines.append(f"  FAILED check {check['name']}: {check['detail']}")
    lines.append(
        f"result: {'OK' if report.get('ok') else 'FAILED'} "
        f"({report.get('seconds', 0.0)}s total)"
    )
    return "\n".join(lines)


# -- governed (tight-quota) drill ---------------------------------------------
def run_governed_drill(
    root: str,
    *,
    spec: JobSpec | None = None,
    n_shards: int = 3,
    n_jobs: int = 4,
    lease_ttl: float = 1.5,
    poll_interval: float = 0.05,
    max_seconds: float = 150.0,
    quota_frac: float = 0.8,
    high_water: float = 0.85,
    low_water: float = 0.6,
) -> dict:
    """Resource-pressure drill: a fleet inside a tight synthetic quota.

    Phase 1 runs every job through an ungoverned single daemon — the
    per-seed reference HPWL and, as a byproduct, the drill's sizing
    probe: the baseline service dir's total footprint is what *n_jobs*
    cost when nothing is ever collected.  Phase 2 re-runs the same mix
    on an *n_shards* fleet whose disk quota is ``quota_frac`` of that
    footprint — impossible to finish without garbage collection — with
    ``retention_runs=1`` and two ENOSPC-faulted jobs on top: one whose
    first guarded write fails once (in-write degradation: emergency GC +
    retry, job DONE), and one poisoned with ENOSPC on every write
    (attempt retries exhaust, job QUARANTINED).  The gate:

    - every job terminal; every non-poison job DONE with HPWL
      **bit-identical** to its ungoverned reference (GC and degradation
      never change an answer);
    - the ENOSPC-poisoned job QUARANTINED with a structured
      ``ResourceExhaustedError`` — never a dead daemon;
    - every shard process exits 0 (zero daemon deaths);
    - the fleet dir's final footprint is within the quota, and GC runs
      plus ENOSPC degradations actually happened (the drill cannot pass
      vacuously).
    """
    from repro.runtime.resources import dir_usage_bytes
    from repro.service.fleet import FleetPaths

    spec = spec if spec is not None else DEFAULT_SPEC
    os.makedirs(root, exist_ok=True)
    seeds = [spec.seed + i for i in range(n_jobs)]
    checks: list = []
    report: dict = {
        "spec": spec.to_json(),
        "n_shards": n_shards,
        "n_jobs": n_jobs,
        "checks": checks,
    }
    started = time.perf_counter()

    # -- phase 1: ungoverned reference + sizing probe -------------------------
    baseline_dir = os.path.join(root, "baseline")
    baseline = PlacementService(
        baseline_dir, workers=1, poll_interval=0.02, backoff_base=0.05,
    )
    ref_ids = {
        seed: submit_job(baseline_dir, replace(spec, seed=seed))
        for seed in seeds
    }
    baseline.run(drain=True, max_seconds=max_seconds)
    baseline.governor.uninstall()
    reference = {
        seed: baseline.store.get(job_id).hpwl
        for seed, job_id in ref_ids.items()
    }
    _check(
        checks, "baseline_all_done",
        all(
            baseline.store.get(j).state == DONE and reference[s] is not None
            for s, j in ref_ids.items()
        ),
        f"reference={reference}",
    )
    report["reference"] = {str(s): h for s, h in reference.items()}
    if not checks[-1]["ok"]:
        report["ok"] = False
        return report
    baseline_bytes = dir_usage_bytes(baseline_dir)
    quota = max(1, int(baseline_bytes * quota_frac))
    # Dispatch projection = one run dir's cost.  Deliberately *not*
    # baseline_bytes / n_jobs: the baseline total includes the warm
    # cache and results, which are a fixed floor the fleet pays once —
    # projecting them per-job would keep the dispatch gate shut even
    # after GC restored all the headroom a run actually needs.
    per_run = max(
        1, dir_usage_bytes(baseline.paths.runs) // max(1, n_jobs)
    )
    report["baseline_bytes"] = baseline_bytes
    report["disk_quota_bytes"] = quota

    # -- phase 2: governed fleet under the quota ------------------------------
    fleet_dir = os.path.join(root, "fleet")
    paths = FleetPaths(fleet_dir).ensure()
    job_ids = {
        submit_job(fleet_dir, replace(spec, seed=seed)): seed
        for seed in seeds
    }
    # One transient ENOSPC (first guarded write fails once; the guard's
    # emergency GC + retry absorb it) — must end DONE bit-identical.
    transient_seed = seeds[0]
    transient_id = submit_job(
        fleet_dir,
        replace(spec, seed=transient_seed,
                faults=(("disk.enospc", 1, 1),)),
    )
    job_ids[transient_id] = transient_seed
    # One persistent ENOSPC (every write fails, even after GC) — the
    # attempts fail with ResourceExhaustedError, retries exhaust, and
    # the job is QUARANTINED while the shard lives on.
    poison_id = submit_job(
        fleet_dir,
        replace(spec, seed=spec.seed + n_jobs,
                faults=(("disk.enospc", 1, None),)),
    )
    total = len(job_ids) + 1

    governed_args = [
        "--disk-quota-bytes", str(quota),
        "--retention-runs", "1",
        "--high-water", str(high_water),
        "--low-water", str(low_water),
        "--rundir-projection-bytes", str(per_run),
        "--resource-sample-interval", str(poll_interval),
    ]
    procs: dict[str, subprocess.Popen] = {}
    for i in range(n_shards):
        name = f"shard-{i}"
        procs[name] = _spawn_shard(
            fleet_dir, name,
            lease_ttl=lease_ttl, poll_interval=poll_interval,
            max_seconds=max_seconds, extra_args=governed_args,
        )

    store = JobStore(paths.journal)
    deadline = time.monotonic() + max_seconds
    while time.monotonic() < deadline:
        store.load()
        counts = store.counts()
        if sum(counts[s] for s in TERMINAL_STATES) >= total:
            break
        time.sleep(5 * poll_interval)
    for proc in procs.values():
        try:
            # Shards self-exit at their own --max-seconds; grant a grace
            # window past the watcher deadline so a shard that is merely
            # finishing its drain is not miscounted as a daemon death.
            proc.wait(timeout=max(10.0, deadline - time.monotonic() + 10.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()

    # -- gates ----------------------------------------------------------------
    store.load()
    jobs = {job_id: store.get(job_id) for job_id in [*job_ids, poison_id]}
    report["jobs"] = [
        {
            "id": j.id,
            "seed": j.spec.seed,
            "state": j.state,
            "attempts": j.attempts,
            "hpwl": j.hpwl,
            "shard": j.shard,
            "error": (j.error or {}).get("kind"),
        }
        for j in jobs.values() if j is not None
    ]
    _check(
        checks, "no_job_lost",
        all(j is not None for j in jobs.values()),
        "every submitted id is in the journal",
    )
    _check(
        checks, "all_terminal",
        all(j is not None and j.terminal for j in jobs.values()),
        ",".join(f"{i}={j.state if j else 'MISSING'}"
                 for i, j in jobs.items() if j is None or not j.terminal),
    )
    for job_id, seed in job_ids.items():
        job = jobs[job_id]
        if job is None:
            continue
        label = "transient_enospc" if job_id == transient_id else f"seed{seed}"
        _check(
            checks, f"{label}_done_identical",
            job.state == DONE and job.hpwl == reference[seed],
            f"state={job.state} hpwl={job.hpwl!r} "
            f"vs baseline {reference[seed]!r}",
        )
    poison = jobs[poison_id]
    _check(
        checks, "enospc_poison_quarantined",
        poison is not None and poison.state == QUARANTINED
        and (poison.error or {}).get("kind") == "ResourceExhaustedError",
        f"state={poison.state if poison else 'MISSING'} "
        f"error={(poison.error or {}).get('kind') if poison else None}",
    )
    exit_codes = {name: proc.returncode for name, proc in procs.items()}
    report["shard_exit_codes"] = exit_codes
    _check(
        checks, "zero_shard_deaths",
        all(code == 0 for code in exit_codes.values()),
        f"exit codes: {exit_codes}",
    )
    final_bytes = dir_usage_bytes(fleet_dir)
    report["final_bytes"] = final_bytes
    _check(
        checks, "within_quota",
        final_bytes <= quota,
        f"{final_bytes} <= {quota} "
        f"(ungoverned baseline was {baseline_bytes})",
    )
    fleet_counters = {}
    if os.path.exists(paths.fleet_metrics):
        import json as _json

        with open(paths.fleet_metrics) as f:
            fleet_counters = _json.load(f).get("counters", {})
    report["gc_runs"] = fleet_counters.get("gc_runs", 0)
    report["emergency_gc_runs"] = fleet_counters.get("emergency_gc_runs", 0)
    report["resource_degradations"] = fleet_counters.get(
        "resource_degradations", 0
    )
    _check(
        checks, "gc_actually_ran",
        report["gc_runs"] >= 1,
        f"gc_runs={report['gc_runs']}",
    )
    _check(
        checks, "enospc_degradation_observed",
        report["resource_degradations"] >= 1,
        f"resource_degradations={report['resource_degradations']}",
    )
    report["seconds"] = round(time.perf_counter() - started, 3)
    report["ok"] = all(c["ok"] for c in checks)
    return report


def format_governed_report(report: dict) -> str:
    """Human-readable governed-drill summary (``repro chaos --governed``)."""
    lines = [
        f"governed drill: shards={report['n_shards']} "
        f"jobs={report['n_jobs']}+2 enospc  "
        f"quota={report.get('disk_quota_bytes')}B "
        f"(ungoverned baseline {report.get('baseline_bytes')}B)",
    ]
    for job in report.get("jobs", []):
        lines.append(
            f"  {job['id']}: {job['state']} a{job['attempts']} "
            f"hpwl={job['hpwl']!r}"
            + (f" error={job['error']}" if job.get("error") else "")
        )
    lines.append(
        f"  final footprint: {report.get('final_bytes')}B  "
        f"gc_runs={report.get('gc_runs')} "
        f"emergency={report.get('emergency_gc_runs')} "
        f"degradations={report.get('resource_degradations')}"
    )
    for check in report.get("checks", []):
        if not check["ok"]:
            lines.append(f"  FAILED check {check['name']}: {check['detail']}")
    lines.append(
        f"result: {'OK' if report.get('ok') else 'FAILED'} "
        f"({report.get('seconds', 0.0)}s total)"
    )
    return "\n".join(lines)


def format_report(report: dict) -> str:
    """Human-readable drill summary (the ``repro chaos`` output)."""
    lines = [
        f"chaos drill: spec={report['spec']['circuit']} "
        f"preset={report['spec']['preset']} seed={report['spec']['seed']}",
        f"reference hpwl: {report.get('reference_hpwl')!r}",
    ]
    for scenario in report["scenarios"]:
        mark = "PASS" if scenario["ok"] else "FAIL"
        lines.append(
            f"  [{mark}] {scenario['name']:<20s} "
            f"{scenario['seconds']:6.2f}s  "
            f"jobs=" + ",".join(
                f"{j['state']}(a{j['attempts']})" for j in scenario["jobs"]
            )
        )
        for check in scenario["checks"]:
            if not check["ok"]:
                lines.append(
                    f"         FAILED check {check['name']}: {check['detail']}"
                )
    lines.append(
        f"result: {'OK' if report['ok'] else 'FAILED'} "
        f"({report.get('total_seconds', 0.0)}s total)"
    )
    return "\n".join(lines)
