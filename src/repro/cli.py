"""Command-line interface.

    python -m repro place   --circuit ibm01 --preset fast --svg out.svg
    python -m repro compare --circuit ibm06 --preset fast
    python -m repro suites
    python -m repro bookshelf --circuit ibm03 --out /tmp/ibm03

Subcommands:

- ``place``     — run the full MCTS-guided flow on a suite circuit (or a
  Bookshelf ``.aux``) and print the result; optionally write an SVG.
- ``compare``   — run the flow plus the baseline placers and print a
  paper-style comparison table.
- ``suites``    — list the available synthetic benchmark circuits.
- ``bookshelf`` — export a synthetic circuit as a Bookshelf bundle.
- ``serve``     — run the placement service daemon over a service dir.
- ``submit``    — queue one placement job into a service dir.
- ``status``    — show the job table and the latest metrics snapshot.
- ``cancel``    — cancel a queued job (or request daemon shutdown).
- ``result``    — fetch one job's result record, optionally waiting.
- ``gc``        — run the resource governor's collector offline against
  a service dir no daemon is serving: retire old terminal run dirs
  (journal-summarized first), evict/compact the caches, compact the
  journal.
- ``doctor``    — validate a run directory offline (manifest, artifact
  checksums, journals, optionally the final placement itself);
  ``--resources`` reports a service dir's disk/memory footprint and
  quota verdict instead.
- ``chaos``     — run the fault drill against throwaway services: every
  injected failure, and two SIGKILLs of a ``serve`` daemon, must end
  DONE-after-retry or QUARANTINED, with DONE HPWLs bit-identical to an
  unfaulted reference.  ``--governed`` runs a daemon inside a tight
  synthetic disk quota with injected ENOSPC instead.
- ``study``     — design-space-exploration studies: ``study run``
  expands a declarative sweep spec (JSON/TOML) into a warm-aware job
  DAG and drives it through the service (crash-safe; re-running resumes
  without resubmitting DONE points), ``study status`` shows per-point
  and per-fingerprint-group progress, ``study report`` consolidates the
  results into a HPWL-vs-runtime Pareto front with per-knob sensitivity
  and warm-sharing evidence.

The service verbs speak a file-based protocol (``inbox/``, ``control/``,
``results/``, ``jobs.jsonl``), so clients and daemon need no network
stack — see :mod:`repro.service`.
"""

from __future__ import annotations

import argparse
import copy
import os
import sys

from repro.core import MCTSGuidedPlacer, PlacerConfig
from repro.core.config import PRESETS
from repro.runtime.errors import PlacementError, UsageError


def _load_design(args) -> tuple[str, "object"]:
    from repro.service.jobs import resolve_design

    return resolve_design(
        circuit=args.circuit,
        aux=args.aux,
        scale=args.scale,
        macro_scale=args.macro_scale,
    )


def cmd_place(args) -> int:
    """Run the full MCTS-guided flow on one circuit; print the results."""
    from dataclasses import replace

    name, design = _load_design(args)
    config = PlacerConfig.preset(args.preset, args.seed)
    if getattr(args, "legal_cells", False):
        config = replace(config, legalize_cells=True)
    if getattr(args, "exact_topk", None) is not None:
        config = replace(config, exact_topk=args.exact_topk)
    if getattr(args, "verify", False):
        config = replace(config, verify_results=True)
    if args.resume and not args.run_dir:
        raise UsageError("--resume requires --run-dir")
    print(f"placing {name}: {design.netlist.stats()}")
    result = MCTSGuidedPlacer(config).place(
        design, run_dir=args.run_dir, resume=args.resume
    )
    best = min(result.hpwl, result.search.best_terminal_wirelength)
    print(f"HPWL            : {result.hpwl:.1f} (best terminal {best:.1f})")
    if result.verification is not None:
        print(f"verification    : {result.verification.summary()}")
    if result.legal_hpwl is not None:
        stats = result.cell_legalization
        print(f"legalized cells : HPWL {result.legal_hpwl:.1f} "
              f"({stats.placed} placed, {stats.failed} failed)")
    print(f"macro groups    : {result.n_macro_groups}")
    search = result.search
    evals = (f"terminal evals  : {search.n_exact_evaluations} exact, "
             f"{search.n_surrogate_evaluations} surrogate")
    if search.n_surrogate_evaluations:
        evals += f" ({search.seconds_surrogate:.2f}s tier 1)"
    if search.surrogate_spearman is not None:
        evals += f", spearman {search.surrogate_spearman:.3f}"
    print(evals)
    split = ""
    if result.mcts_runtime > 0.0:  # a resumed run loads no seconds
        split = (f"selection {search.seconds_selection:.2f}s, "
                 f"network {search.seconds_evaluation:.2f}s, "
                 f"exact {search.seconds_terminal:.2f}s, "
                 f"tier 1 {search.seconds_surrogate:.2f}s, "
                 f"checkpoint {search.seconds_checkpoint:.2f}s; ")
    print(f"MCTS stage      : {result.mcts_runtime:.1f}s "
          f"({split}total {result.stopwatch.overall():.1f}s)")
    breakdown = " | ".join(
        f"{stage} {seconds:.2f}s"
        for stage, seconds in result.stage_seconds.items()
        if seconds > 0.0
    )
    print(f"stage breakdown : {breakdown}")
    if args.svg:
        from repro.eval.visualize import save_placement_svg
        from repro.grid.plan import GridPlan

        plan = GridPlan(design.region, zeta=config.zeta)
        save_placement_svg(design, args.svg, plan=plan)
        print(f"wrote {args.svg}")
    if args.ascii:
        from repro.eval.visualize import placement_ascii

        print(placement_ascii(design))
    return 0


def cmd_compare(args) -> int:
    """Place one circuit with every baseline and the flow; print the table."""
    from repro.baselines import (
        BTreeFloorplanPlacer,
        RandomPlacer,
        RePlAceLikePlacer,
        SAPlacer,
        SEPlacer,
        WiremaskPlacer,
    )
    from repro.eval.report import ComparisonTable

    name, design = _load_design(args)
    print(f"comparing on {name}: {design.netlist.stats()}")
    methods = ["random", "sa", "btree", "se", "maskplace", "replace", "ours"]
    table = ComparisonTable(methods=methods, reference="ours")

    baselines = {
        "random": RandomPlacer(seed=args.seed),
        "sa": SAPlacer(n_moves=1500, seed=args.seed),
        "btree": BTreeFloorplanPlacer(n_moves=1500, seed=args.seed),
        "se": SEPlacer(generations=12, seed=args.seed),
        "maskplace": WiremaskPlacer(bins=16, rollouts=8, seed=args.seed),
        "replace": RePlAceLikePlacer(seed=args.seed),
    }
    for key, placer in baselines.items():
        d = copy.deepcopy(design)
        result = placer.place(d)
        table.add(name, key, result.hpwl)
        print(f"  {key:10s} {result.hpwl:12.1f}  ({result.runtime:.1f}s)")

    config = PlacerConfig.preset(args.preset, args.seed)
    result = MCTSGuidedPlacer(config).place(copy.deepcopy(design))
    table.add(name, "ours", result.hpwl)
    print(f"  {'ours':10s} {result.hpwl:12.1f}  "
          f"({result.stopwatch.overall():.1f}s)")
    print(f"  {'':10s} anytime best "
          f"{result.search.best_terminal_wirelength:.1f} (searched, not committed)")
    print()
    print(table.render())
    return 0


def cmd_suites(_args) -> int:
    """List the synthetic benchmark circuits and their paper statistics."""
    from repro.netlist.suites import ICCAD04_STATS, INDUSTRIAL_STATS

    print("ICCAD04-alike (Table III) — macros / cells / nets at scale=1:")
    for name, (m, c, n) in ICCAD04_STATS.items():
        print(f"  {name:6s} {m:5d} {c:9,d} {n:9,d}")
    print("industrial-alike (Table II) — mov/pre macros, pads, cells, nets:")
    for name, (mv, pre, pads, c, n) in INDUSTRIAL_STATS.items():
        print(f"  {name:6s} {mv:4d} {pre:4d} {pads:5d} {c:11,d} {n:11,d}")
    return 0


def cmd_bookshelf(args) -> int:
    """Export a circuit as a Bookshelf bundle."""
    from repro.netlist.bookshelf import write_design

    name, design = _load_design(args)
    aux = write_design(design, args.out)
    print(f"wrote {aux}")
    return 0


# -- placement service -------------------------------------------------------
def cmd_serve(args) -> int:
    """Run the placement service daemon over a service directory."""
    from repro.service import PlacementService

    service = PlacementService(
        args.service_dir,
        workers=args.workers,
        max_queue=args.max_queue,
        poll_interval=args.poll_interval,
        stall_seconds=args.stall_seconds,
        max_retries=args.max_retries,
        backoff_base=args.backoff_base,
        verify_results=not args.no_verify,
        disk_quota_bytes=args.disk_quota_bytes,
        mem_quota_bytes=args.mem_quota_bytes,
        high_water=args.high_water,
        low_water=args.low_water,
        retention_runs=args.retention_runs,
        rejected_ttl=args.rejected_ttl,
        warm_quota_bytes=args.warm_quota_bytes,
        terminal_cache_quota_bytes=args.terminal_cache_quota_bytes,
        journal_quota_bytes=args.journal_quota_bytes,
        rundir_projection_bytes=args.rundir_projection_bytes,
        resource_sample_interval=args.resource_sample_interval,
    )
    print(f"serving {args.service_dir} "
          f"(workers={args.workers}, max_queue={args.max_queue}, "
          f"drain={args.drain}, stall_seconds={args.stall_seconds}, "
          f"max_retries={args.max_retries})")
    snapshot = service.run(drain=args.drain, max_seconds=args.max_seconds)
    jobs = snapshot["jobs"]
    print("served: " + ", ".join(f"{k}={v}" for k, v in jobs.items()))
    return 0


def _parse_set(pairs: list[str] | None) -> tuple | None:
    """``--set knob=value`` pairs → override tuples (values parse as
    JSON, falling back to a bare string)."""
    import json

    if not pairs:
        return None
    out = []
    for pair in pairs:
        knob, sep, raw = pair.partition("=")
        if not sep or not knob:
            raise UsageError(
                f"--set needs knob=value, got {pair!r}", set=pair
            )
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        out.append((knob, value))
    return tuple(out)


def cmd_submit(args) -> int:
    """Queue one placement job; prints the job id."""
    from repro.service import JobSpec
    from repro.service.service import submit_job

    spec = JobSpec(
        circuit=None if args.aux else args.circuit,
        aux=args.aux,
        scale=args.scale,
        macro_scale=args.macro_scale,
        preset=args.preset,
        seed=args.seed,
        budget_seconds=args.budget_seconds,
        overrides=_parse_set(args.set),
    )
    job_id = submit_job(args.service_dir, spec, priority=args.priority)
    print(job_id)
    return 0


def cmd_status(args) -> int:
    """Print the job table and the latest metrics snapshot."""
    import json
    import os

    from repro.service import JobStore, ServicePaths

    paths = ServicePaths(args.service_dir)
    store = JobStore(paths.journal).load()
    jobs = store.jobs()
    if args.job:
        jobs = [j for j in jobs if j.id == args.job]
        if not jobs:
            raise UsageError(f"unknown job {args.job!r}",
                             service_dir=args.service_dir)
    if args.json:
        metrics = None
        if os.path.exists(paths.metrics):
            with open(paths.metrics) as f:
                metrics = json.load(f)
        print(json.dumps(
            {
                "jobs": [job.to_json() for job in jobs],
                "counts": store.counts(),
                "metrics": metrics,
            },
            indent=2, sort_keys=True,
        ))
        return 0
    print(f"{'JOB':16s} {'STATE':10s} {'PRI':>3s} {'WARM':>4s} "
          f"{'SECONDS':>8s}  HPWL")
    for job in jobs:
        hpwl = f"{job.hpwl:.1f}" if job.hpwl is not None else "-"
        seconds = f"{job.seconds:.1f}" if job.seconds is not None else "-"
        warm = "yes" if job.warm_hit else "-"
        line = (f"{job.id:16s} {job.state:10s} {job.priority:3d} "
                f"{warm:>4s} {seconds:>8s}  {hpwl}")
        if job.error:
            line += f"  [{job.error.get('kind')}] {job.error.get('message')}"
        print(line)
    counts = store.counts()
    print("jobs: " + ", ".join(f"{k}={v}" for k, v in counts.items()))
    if os.path.exists(paths.metrics):
        with open(paths.metrics) as f:
            metrics = json.load(f)
        counters = metrics.get("counters", {})
        print("metrics: queue_depth=%s warm_hits=%s terminal_cache_hits=%s "
              "degradations=%s" % (
                  metrics.get("queue_depth"),
                  counters.get("warm_hits", 0),
                  counters.get("terminal_cache_hits", 0),
                  counters.get("degradations", 0),
              ))
        if args.metrics:
            print(json.dumps(metrics, indent=2, sort_keys=True))
    return 0


def cmd_cancel(args) -> int:
    """Request cancellation of a queued job (or daemon shutdown)."""
    from repro.service.service import request_cancel, request_stop

    if args.shutdown:
        request_stop(args.service_dir)
        print("shutdown requested")
        return 0
    if not args.job:
        raise UsageError("cancel needs --job (or --shutdown)")
    request_cancel(args.service_dir, args.job)
    print(f"cancel requested for {args.job}")
    return 0


def cmd_result(args) -> int:
    """Print one job's result record (optionally waiting for it)."""
    import json

    from repro.service.service import read_result, wait_for_result

    if args.wait:
        result = wait_for_result(args.service_dir, args.job, timeout=args.wait)
        if result is None:
            raise UsageError(
                f"job {args.job!r} produced no result within {args.wait}s",
                service_dir=args.service_dir,
            )
    else:
        result = read_result(args.service_dir, args.job)
        if result is None:
            raise UsageError(
                f"no result for job {args.job!r} (still queued/running?)",
                service_dir=args.service_dir,
            )
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0 if result["state"] == "DONE" else 1


# -- design-space-exploration studies ----------------------------------------
def _load_study(args):
    from repro.study import Study, StudySpec

    if getattr(args, "spec", None):
        spec = StudySpec.from_file(args.spec)
        return Study.create(args.study_dir, spec)
    return Study.load(args.study_dir)


def cmd_study_run(args) -> int:
    """Expand the spec and drive every point through the service."""
    study = _load_study(args)
    status = study.run(
        args.service_dir,
        serve=args.serve,
        workers=args.workers,
        poll=args.poll,
        max_seconds=args.max_seconds,
    )
    counts = status["counts"]
    print(f"study {status['name']}: {counts['DONE']}/{status['total']} done "
          + ", ".join(f"{k}={v}" for k, v in counts.items() if v))
    if not status["complete"]:
        print("study incomplete (re-run to resume; DONE points are never "
              "resubmitted)")
        return 1
    return 0 if counts["DONE"] == status["total"] else 1


def cmd_study_status(args) -> int:
    """Show study progress (optionally overlaying live service state)."""
    import json

    study = _load_study(args)
    status = study.status(service_dir=args.service_dir)
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0
    counts = status["counts"]
    print(f"study {status['name']}  [{status['fingerprint']}]  "
          f"{counts['DONE']}/{status['total']} done")
    print("points: " + ", ".join(f"{k}={v}" for k, v in counts.items()))
    for group in status["groups"]:
        states = ", ".join(f"{k}={v}" for k, v in group["states"].items())
        print(f"  group {group['fingerprint']}: {group['points']} points "
              f"({states})")
    return 0


def cmd_study_report(args) -> int:
    """Fold per-job results into the consolidated Pareto report."""
    import json

    from repro.study import build_report, render_report, save_report

    study = _load_study(args)
    report = build_report(study, args.service_dir)
    path = save_report(study, report)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_report(report))
        print(f"report written to {path}")
    return 0 if report["complete"] and not report["failures"] else 1


def cmd_gc(args) -> int:
    """Run the resource governor's collector offline (no daemon needed).

    Constructs the same :class:`~repro.service.governor.ResourceGovernor`
    the daemon runs, against a stopped (or live-but-quiet) service dir.
    Without ``--emergency``, only the steps whose knobs are set act —
    e.g. ``--retention-runs 5`` retires old terminal run dirs and
    ``--journal-quota-bytes 0`` forces a journal compaction.  With
    ``--emergency`` everything collectible is collected.  Unless
    ``--dry-run``, it takes the service dir's lock first, so it refuses
    (exit 64) a dir a live daemon is serving: a compaction racing the
    daemon's journal append would lose the record.
    """
    import json

    from repro.service import JobStore, ServicePaths
    from repro.service.governor import ResourceGovernor, resource_report
    from repro.service.metrics import ServiceMetrics
    from repro.service.service import lock_service_dir
    from repro.service.warm import WarmArtifactCache

    paths = ServicePaths(args.service_dir).ensure()
    lock = None if args.dry_run else lock_service_dir(paths.root)
    governor = ResourceGovernor(
        paths,
        JobStore(paths.journal).load(),
        ServiceMetrics(),
        WarmArtifactCache(paths.warm),
        disk_quota_bytes=args.disk_quota_bytes,
        mem_quota_bytes=args.mem_quota_bytes,
        high_water=args.high_water,
        low_water=args.low_water,
        retention_runs=args.retention_runs,
        rejected_ttl=args.rejected_ttl,
        warm_quota_bytes=args.warm_quota_bytes,
        terminal_cache_quota_bytes=args.terminal_cache_quota_bytes,
        journal_quota_bytes=args.journal_quota_bytes,
        rundir_projection_bytes=args.rundir_projection_bytes,
        sample_interval=args.resource_sample_interval,
    )
    try:
        summary = governor.gc(emergency=args.emergency, dry_run=args.dry_run)
    finally:
        if lock is not None:
            os.close(lock)
    report = resource_report(paths, disk_quota_bytes=args.disk_quota_bytes)
    if args.json:
        print(json.dumps({"gc": summary, "resources": report},
                         indent=2, sort_keys=True))
        return 0
    mode = ("DRY RUN" if args.dry_run
            else "emergency" if args.emergency else "policy")
    print(f"gc ({mode}) over {args.service_dir}:")
    print(f"  rejected swept: {summary['rejected_deleted']}")
    print(f"  run dirs retired: {summary['run_dirs_deleted']} "
          f"({summary['run_dir_bytes_freed']} bytes)")
    print(f"  warm entries evicted: {summary['warm_evicted']}")
    print(f"  terminal cache: {summary['terminal_cache']}")
    print(f"  journal: {summary['journal']}")
    print(f"footprint now: {report['total_bytes']} bytes "
          f"({report['run_dirs']} run dirs, "
          f"{report['rejected_pending']} rejected pending)")
    return 0


def _print_resource_report(report: dict) -> None:
    print(f"resources: {report['root']}")
    for name, size in report["breakdown"].items():
        print(f"  {name:16s} {size:>12d} bytes")
    print(f"  {'total':16s} {report['total_bytes']:>12d} bytes "
          f"({report['run_dirs']} run dirs, "
          f"{report['rejected_pending']} rejected pending)")
    print(f"  {'fs free':16s} {report['disk_free_bytes']:>12d} bytes")
    print(f"  {'process rss':16s} {report['rss_bytes']:>12d} bytes")
    if report.get("disk_quota_bytes"):
        verdict = "OVER QUOTA" if report["over_quota"] else "within quota"
        print(f"  quota {report['disk_quota_bytes']} bytes: "
              f"{report['quota_used_frac'] * 100:.1f}% used ({verdict})")


def cmd_doctor(args) -> int:
    """Validate a run directory offline; non-zero exit on any failure."""
    from repro.verify.doctor import doctor_run_dir

    if args.resources:
        from repro.service import ServicePaths
        from repro.service.governor import resource_report

        if not args.service_dir:
            raise UsageError("doctor --resources needs --service-dir")
        report = resource_report(
            ServicePaths(args.service_dir),
            disk_quota_bytes=args.disk_quota_bytes,
        )
        _print_resource_report(report)
        return 1 if report.get("over_quota") else 0
    if not args.run_dir:
        raise UsageError("doctor needs a run directory (or --resources)")
    design = None
    if args.circuit or args.aux:
        _, design = _load_design(args)
    report = doctor_run_dir(args.run_dir, design=design, zeta=args.zeta)
    print(f"doctor: {args.run_dir}")
    for check in report.checks:
        print(f"  {check}")
    print(f"result: {'OK' if report.ok else 'FAILED'}")
    return 0 if report.ok else 1


def cmd_chaos(args) -> int:
    """Run the fault drill; non-zero exit unless every check holds."""
    import json
    import tempfile

    from repro.service.chaos import (
        DAEMON_KILL,
        GOVERNED,
        SINGLE_DAEMON,
        format_report,
        run_drill,
    )

    rows = (GOVERNED,) if args.governed else (*SINGLE_DAEMON, DAEMON_KILL)
    if args.out:
        report = run_drill(args.out, rows)
    else:
        with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
            report = run_drill(tmp, rows)
    print(format_report(report))
    if args.report:
        with open(args.report, "w") as f:
            json.dump(report, f, indent=2, sort_keys=True)
        print(f"wrote {args.report}")
    return 0 if report["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro", description="MCTS-guided macro placement (DATE 2025 repro)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        """Arguments shared by the circuit-consuming subcommands."""
        p.add_argument("--circuit", default="ibm01",
                       help="suite circuit name (ibm01..ibm18, Cir1..Cir6)")
        p.add_argument("--aux", default=None,
                       help="path to a Bookshelf .aux file (overrides --circuit)")
        p.add_argument("--scale", type=float, default=0.01,
                       help="cell/net count scale factor for synthetic circuits")
        p.add_argument("--macro-scale", type=float, default=0.08,
                       dest="macro_scale", help="macro count scale factor")
        p.add_argument("--seed", type=int, default=0)

    p_place = sub.add_parser("place", help="run the full flow on one circuit")
    common(p_place)
    p_place.add_argument("--preset", default="fast",
                         choices=PRESETS)
    p_place.add_argument("--svg", default=None, help="write placement SVG here")
    p_place.add_argument("--ascii", action="store_true",
                         help="print an ASCII placement sketch")
    p_place.add_argument("--legal-cells", action="store_true",
                         dest="legal_cells",
                         help="snap cells onto rows after the final placement")
    p_place.add_argument("--exact-topk", type=int, default=None,
                         dest="exact_topk",
                         help="two-tier terminal evaluation: run the exact "
                              "legalize-and-place pipeline only for leaves "
                              "ranking in the search's running top-K by "
                              "surrogate HPWL (default: every terminal "
                              "exact)")
    p_place.add_argument("--run-dir", default=None, dest="run_dir",
                         help="persist stage checkpoints, the run manifest, "
                              "and the event log into this directory")
    p_place.add_argument("--resume", action="store_true",
                         help="resume an interrupted run from --run-dir, "
                              "skipping completed stages")
    p_place.add_argument("--verify", action="store_true",
                         help="re-check the final placement with the "
                              "independent verifier (overlaps, bounds, "
                              "grid capacity, recomputed HPWL)")
    p_place.set_defaults(func=cmd_place)

    p_cmp = sub.add_parser("compare", help="flow vs all baselines on one circuit")
    common(p_cmp)
    p_cmp.add_argument("--preset", default="fast",
                       choices=PRESETS)
    p_cmp.set_defaults(func=cmd_compare)

    p_suites = sub.add_parser("suites", help="list available circuits")
    p_suites.set_defaults(func=cmd_suites)

    p_bk = sub.add_parser("bookshelf", help="export a circuit as Bookshelf")
    common(p_bk)
    p_bk.add_argument("--out", required=True, help="output directory")
    p_bk.set_defaults(func=cmd_bookshelf)

    def service_dir(p: argparse.ArgumentParser) -> None:
        p.add_argument("--service-dir", required=True, dest="service_dir",
                       help="service directory (inbox/, runs/, jobs.jsonl, ...)")

    def governor_flags(p: argparse.ArgumentParser) -> None:
        """Resource-governance knobs (execution policy: how much history
        the service keeps, never what any job computes — all excluded
        from config fingerprints).  Every quota defaults to None = that
        governance step stays inert."""
        p.add_argument("--disk-quota-bytes", type=int, default=None,
                       dest="disk_quota_bytes",
                       help="byte budget for the whole service dir; "
                            "crossing high-water triggers GC and sheds "
                            "new admissions with a structured "
                            "RESOURCE_PRESSURE rejection")
        p.add_argument("--mem-quota-bytes", type=int, default=None,
                       dest="mem_quota_bytes",
                       help="RSS ceiling; crossing it sheds admission "
                            "until usage drops")
        p.add_argument("--high-water", type=float, default=0.9,
                       dest="high_water",
                       help="fraction of the quota (or filesystem) at "
                            "which shedding engages and GC fires")
        p.add_argument("--low-water", type=float, default=0.75,
                       dest="low_water",
                       help="fraction below which shedding releases "
                            "(hysteresis; must be < high-water)")
        p.add_argument("--retention-runs", type=int, default=None,
                       dest="retention_runs",
                       help="terminal run dirs to keep (newest first; "
                            "QUARANTINED dirs are always kept); older "
                            "ones are summarized into the journal and "
                            "deleted")
        p.add_argument("--rejected-ttl", type=float, default=3600.0,
                       dest="rejected_ttl",
                       help="seconds before quarantined malformed "
                            "submissions in inbox/.rejected/ are swept")
        p.add_argument("--warm-quota-bytes", type=int, default=None,
                       dest="warm_quota_bytes",
                       help="warm-artifact cache byte budget (LRU "
                            "eviction down to fit)")
        p.add_argument("--terminal-cache-quota-bytes", type=int,
                       default=None, dest="terminal_cache_quota_bytes",
                       help="compact terminal_cache.jsonl once it "
                            "exceeds this many bytes")
        p.add_argument("--journal-quota-bytes", type=int, default=None,
                       dest="journal_quota_bytes",
                       help="compact jobs.jsonl once it exceeds this "
                            "many bytes")
        p.add_argument("--rundir-projection-bytes", type=int,
                       default=4 << 20, dest="rundir_projection_bytes",
                       help="projected size of one run dir; dispatch "
                            "pauses (jobs stay queued) while quota "
                            "headroom is below this")
        p.add_argument("--resource-sample-interval", type=float,
                       default=1.0, dest="resource_sample_interval",
                       help="seconds between disk/RSS samples on the "
                            "poll loop")

    p_serve = sub.add_parser("serve", help="run the placement service daemon")
    service_dir(p_serve)
    p_serve.add_argument("--workers", type=int, default=1,
                         help="concurrent placement jobs, each in its own "
                              "worker process")
    p_serve.add_argument("--max-queue", type=int, default=64, dest="max_queue",
                         help="admission limit; submissions beyond this are "
                              "rejected (FAILED with kind=Backpressure)")
    p_serve.add_argument("--poll-interval", type=float, default=0.2,
                         dest="poll_interval",
                         help="fallback seconds between polls; submissions, "
                              "cancels and stops wake the daemon at once")
    p_serve.add_argument("--drain", action="store_true",
                         help="exit once all submitted jobs are terminal "
                              "and the inbox is empty")
    p_serve.add_argument("--max-seconds", type=float, default=None,
                         dest="max_seconds",
                         help="stop serving after this many seconds")
    p_serve.add_argument("--stall-seconds", type=float, default=None,
                         dest="stall_seconds",
                         help="watchdog threshold: a job whose progress "
                              "heartbeat is older than this has its worker "
                              "killed, fails with a structured "
                              "StageStallError and is retried (default: "
                              "no watchdog)")
    p_serve.add_argument("--max-retries", type=int, default=2,
                         dest="max_retries",
                         help="transient-failure retries (exponential "
                              "backoff) before a job is QUARANTINED")
    p_serve.add_argument("--backoff-base", type=float, default=0.5,
                         dest="backoff_base",
                         help="first retry delay in seconds; doubles per "
                              "attempt with deterministic jitter")
    p_serve.add_argument("--no-verify", action="store_true", dest="no_verify",
                         help="skip the independent result verification "
                              "normally run on every completed job")
    governor_flags(p_serve)
    p_serve.set_defaults(func=cmd_serve)

    p_sub = sub.add_parser("submit", help="queue one placement job")
    service_dir(p_sub)
    common(p_sub)
    p_sub.add_argument("--preset", default="fast",
                       choices=PRESETS)
    p_sub.add_argument("--priority", type=int, default=0,
                       help="higher dispatches first (FIFO within a priority)")
    p_sub.add_argument("--budget-seconds", type=float, default=None,
                       dest="budget_seconds",
                       help="whole-job wall-clock allowance; exceeding it "
                            "fails the job without affecting siblings")
    p_sub.add_argument("--set", action="append", default=None,
                       metavar="KNOB=VALUE",
                       help="dotted-path config override on top of the "
                            "preset (repeatable), e.g. --set "
                            "mcts.c_puct=2.5 --set zeta=10; values parse "
                            "as JSON, bare words as strings")
    p_sub.set_defaults(func=cmd_submit)

    p_status = sub.add_parser("status", help="show jobs and service metrics")
    service_dir(p_status)
    p_status.add_argument("--job", default=None, help="show only this job")
    p_status.add_argument("--metrics", action="store_true",
                          help="also dump the full metrics.json snapshot")
    p_status.add_argument("--json", action="store_true",
                          help="machine-readable output: jobs, counts, and "
                               "the latest metrics snapshot as one JSON "
                               "document")
    p_status.set_defaults(func=cmd_status)

    p_cancel = sub.add_parser("cancel", help="cancel a queued job")
    service_dir(p_cancel)
    p_cancel.add_argument("--job", default=None, help="job id to cancel")
    p_cancel.add_argument("--shutdown", action="store_true",
                          help="ask the daemon to stop after in-flight jobs")
    p_cancel.set_defaults(func=cmd_cancel)

    p_res = sub.add_parser("result", help="fetch one job's result record")
    service_dir(p_res)
    p_res.add_argument("--job", required=True, help="job id")
    p_res.add_argument("--wait", type=float, default=None,
                       help="poll up to this many seconds for the result")
    p_res.set_defaults(func=cmd_result)

    p_study = sub.add_parser(
        "study",
        help="design-space-exploration studies over the service "
             "(sweep spec -> warm-aware job DAG -> Pareto report)",
    )
    study_sub = p_study.add_subparsers(dest="study_command", required=True)

    def study_dir(p: argparse.ArgumentParser) -> None:
        p.add_argument("--study-dir", required=True, dest="study_dir",
                       help="study directory (spec.json, journal.jsonl, "
                            "report.json, records/)")
        p.add_argument("--spec", default=None,
                       help="sweep spec file (.json or .toml); required "
                            "the first time, optional afterwards (the "
                            "study dir remembers its spec)")

    p_srun = study_sub.add_parser(
        "run", help="expand the spec and drive every point to a terminal "
                    "state (safe to re-run after a kill; DONE points are "
                    "never resubmitted)"
    )
    study_dir(p_srun)
    service_dir(p_srun)
    p_srun.add_argument("--serve", action="store_true",
                        help="run an inline daemon for the study's "
                             "duration instead of requiring an external "
                             "'repro serve'")
    p_srun.add_argument("--workers", type=int, default=1,
                        help="inline daemon worker slots (with --serve)")
    p_srun.add_argument("--poll", type=float, default=0.25,
                        help="seconds between scheduling cycles")
    p_srun.add_argument("--max-seconds", type=float, default=None,
                        dest="max_seconds",
                        help="return after this long even if incomplete "
                             "(the study resumes on the next run)")
    p_srun.set_defaults(func=cmd_study_run)

    p_sstat = study_sub.add_parser(
        "status", help="show per-point and per-fingerprint-group progress"
    )
    study_dir(p_sstat)
    p_sstat.add_argument("--service-dir", default=None, dest="service_dir",
                         help="overlay live job states from this service "
                              "directory")
    p_sstat.add_argument("--json", action="store_true",
                         help="machine-readable status")
    p_sstat.set_defaults(func=cmd_study_status)

    p_srep = study_sub.add_parser(
        "report", help="consolidate results: Pareto front, per-knob "
                       "sensitivity, best config, warm-sharing evidence"
    )
    study_dir(p_srep)
    service_dir(p_srep)
    p_srep.add_argument("--json", action="store_true",
                        help="print the full report JSON instead of the "
                             "rendered summary")
    p_srep.set_defaults(func=cmd_study_report)

    p_gc = sub.add_parser(
        "gc",
        help="collect a service directory offline: retire old run dirs, "
             "evict/compact caches, compact the journal",
    )
    service_dir(p_gc)
    governor_flags(p_gc)
    p_gc.add_argument("--emergency", action="store_true",
                      help="collect everything collectible now "
                           "(retention 0, both compactions), regardless "
                           "of quotas")
    p_gc.add_argument("--dry-run", action="store_true", dest="dry_run",
                      help="report what would be collected without "
                           "touching anything")
    p_gc.add_argument("--json", action="store_true",
                      help="machine-readable summary + usage breakdown")
    p_gc.set_defaults(func=cmd_gc)

    p_doc = sub.add_parser("doctor", help="validate a run directory offline")
    p_doc.add_argument("run_dir", nargs="?", default=None,
                       help="run directory to validate (omit with "
                            "--resources)")
    p_doc.add_argument("--resources", action="store_true",
                       help="report a service directory's disk/memory "
                            "footprint instead (needs --service-dir; "
                            "exits 1 when over --disk-quota-bytes)")
    p_doc.add_argument("--service-dir", default=None, dest="service_dir",
                       help="service directory for --resources")
    p_doc.add_argument("--disk-quota-bytes", type=int, default=None,
                       dest="disk_quota_bytes",
                       help="quota to judge --resources usage against")
    p_doc.add_argument("--circuit", default=None,
                       help="rebuild this suite circuit to additionally "
                            "verify the final placement itself")
    p_doc.add_argument("--aux", default=None,
                       help="Bookshelf .aux of the design (same purpose)")
    p_doc.add_argument("--scale", type=float, default=0.01)
    p_doc.add_argument("--macro-scale", type=float, default=0.08,
                       dest="macro_scale")
    p_doc.add_argument("--zeta", type=int, default=None,
                       help="grid side length for the capacity check "
                            "(needs --circuit/--aux)")
    p_doc.set_defaults(func=cmd_doctor)

    p_chaos = sub.add_parser(
        "chaos", help="fault-injection drill over a throwaway service"
    )
    p_chaos.add_argument("--out", default=None,
                         help="keep the drill's service dirs in this "
                              "directory, which must be empty or absent "
                              "(default: a temp dir, removed afterwards)")
    p_chaos.add_argument("--report", default=None,
                         help="write the machine-readable drill report "
                              "(JSON) to this path")
    p_chaos.add_argument("--governed", action="store_true",
                         help="run the resource-pressure row instead: a "
                              "daemon inside a tight synthetic disk quota "
                              "with injected ENOSPC — every answer must "
                              "stay bit-identical, with no daemon death")
    p_chaos.set_defaults(func=cmd_chaos)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Structured placement failures map to distinct exit codes (see
    :mod:`repro.runtime.errors`): 10 generic, 11 calibration, 12 training
    divergence, 13 solver infeasibility, 14 stage timeout, 15 injected
    fault, 16 stage stall, 17 artifact corruption, 18 verification
    failure, 19 resource exhaustion (disk full even after emergency GC),
    64 usage.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PlacementError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:
        # Downstream closed early (`repro result | head`); not an error,
        # but Python would print a traceback when flushing at exit.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
