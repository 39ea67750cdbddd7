"""Offline run-dir validation — the engine behind ``repro doctor``.

A run dir is a durability contract: everything needed to resume, audit,
or warm-start from a run.  ``doctor`` re-checks that contract after the
fact, with nothing but the directory (plus, optionally, the design to
re-verify the final placement against):

- manifest present and parseable;
- every completed stage's artifacts on disk;
- every recorded sha256 checksum matching its file's bytes;
- every intra-stage snapshot present matching the digest in its own
  header;
- JSONL journals (events, terminal cache) parseable modulo one torn
  tail line;
- the final placement passing the independent verifier
  (:mod:`repro.verify.placement`) against the recorded HPWL.

Each check yields a :class:`~repro.verify.placement.CheckResult`; the
CLI prints the report and exits non-zero when any check fails.
"""

from __future__ import annotations

import json
import os

from repro.runtime.checkpoint import MANIFEST, SNAPSHOTS, RunDir
from repro.runtime.integrity import CHECKSUMS_KEY, STAGE_ARTIFACTS, sha256_file
from repro.utils.events import read_jsonl
from repro.verify.placement import CheckResult, VerificationReport, verify_placement

#: journals validated line-by-line (a single torn tail line is the
#: normal signature of a kill mid-append and does not fail the check)
JOURNALS = ("events.jsonl", "terminal_cache.jsonl")


def _count_raw_lines(path: str) -> int:
    with open(path, errors="replace") as f:
        return sum(1 for line in f if line.strip())


def _check_manifest(run_dir: str) -> tuple[CheckResult, dict | None]:
    path = os.path.join(run_dir, MANIFEST)
    if not os.path.exists(path):
        return CheckResult("manifest", False, {"error": "manifest.json missing"}), None
    try:
        with open(path) as f:
            manifest = json.load(f)
    except (json.JSONDecodeError, OSError) as exc:
        return CheckResult("manifest", False, {"error": str(exc)}), None
    if not isinstance(manifest, dict) or "stages" not in manifest:
        return CheckResult("manifest", False, {"error": "no stages table"}), None
    stages = sorted(
        s for s, e in manifest["stages"].items() if e.get("completed")
    )
    return CheckResult("manifest", True, {"completed_stages": stages}), manifest


def _check_stage_artifacts(run_dir: str, manifest: dict) -> CheckResult:
    missing = []
    for stage, entry in manifest.get("stages", {}).items():
        if not entry.get("completed"):
            continue
        for name in STAGE_ARTIFACTS.get(stage, ()):
            if not os.path.exists(os.path.join(run_dir, name)):
                missing.append(f"{stage}:{name}")
    return CheckResult(
        "stage_artifacts", not missing,
        {"missing": missing} if missing else {},
    )


def _check_checksums(run_dir: str, manifest: dict) -> CheckResult:
    # a snapshot carries its own digest (_check_snapshots); one that the
    # manifest of an older run still lists is stale
    recorded = {
        name: digest
        for name, digest in manifest.get(CHECKSUMS_KEY, {}).items()
        if name not in SNAPSHOTS
    }
    mismatched = []
    missing = []
    for name, expected in sorted(recorded.items()):
        path = os.path.join(run_dir, name)
        if not os.path.exists(path):
            missing.append(name)
        elif sha256_file(path) != expected:
            mismatched.append(name)
    ok = not mismatched and not missing
    detail: dict = {"n_recorded": len(recorded)}
    if mismatched:
        detail["mismatched"] = mismatched
    if missing:
        detail["missing"] = missing
    return CheckResult("checksums", ok, detail)


def _check_snapshots(run_dir: str) -> CheckResult:
    rd = RunDir(run_dir)
    checked, damaged = [], []
    for name in SNAPSHOTS:
        read = rd.read_snapshot(name)
        if read is None:
            continue
        checked.append(name)
        if not read[1]:
            damaged.append(name)
    detail: dict = {"checked": checked}
    if damaged:
        detail["damaged"] = damaged
    return CheckResult("snapshots", not damaged, detail)


def _check_journal(run_dir: str, name: str) -> CheckResult:
    path = os.path.join(run_dir, name)
    if not os.path.exists(path):
        return CheckResult(f"journal:{name}", True, {"skipped": "absent"})
    try:
        records = read_jsonl(path)
        raw = _count_raw_lines(path)
    except OSError as exc:
        return CheckResult(f"journal:{name}", False, {"error": str(exc)})
    torn = raw - len(records)
    return CheckResult(
        f"journal:{name}", torn <= 1,
        {"records": len(records), "torn_lines": torn},
    )


def _check_final_placement(run_dir: str, manifest: dict, design, zeta) -> CheckResult:
    if design is None:
        return CheckResult(
            "final_placement", True,
            {"skipped": "no design source given (pass --circuit/--aux)"},
        )
    if not manifest.get("stages", {}).get("final", {}).get("completed"):
        return CheckResult(
            "final_placement", True, {"skipped": "final stage not completed"}
        )
    rd = RunDir(run_dir)
    payload = rd.load_json("final.json")
    if payload is None:
        return CheckResult("final_placement", False, {"error": "final.json missing"})
    try:
        rd.load_positions("final_positions", design)
    except Exception as exc:
        return CheckResult("final_placement", False, {"error": str(exc)})
    plan = None
    if zeta is not None:
        from repro.grid.plan import GridPlan

        plan = GridPlan(design.region, zeta=zeta)
    report = verify_placement(design, plan=plan, reported_hpwl=payload["hpwl"])
    detail = report.to_json()["checks"]
    return CheckResult("final_placement", report.ok, detail)


def doctor_run_dir(run_dir: str, design=None, zeta: int | None = None) -> VerificationReport:
    """Validate *run_dir* offline; returns a report of every check.

    *design* (optional) enables re-verifying the final placement; *zeta*
    additionally enables its grid-capacity check.
    """
    report = VerificationReport()
    if not os.path.isdir(run_dir):
        report.checks.append(
            CheckResult("run_dir", False, {"error": f"not a directory: {run_dir}"})
        )
        return report
    manifest_check, manifest = _check_manifest(run_dir)
    report.checks.append(manifest_check)
    if manifest is None:
        return report
    report.checks.append(_check_stage_artifacts(run_dir, manifest))
    report.checks.append(_check_checksums(run_dir, manifest))
    report.checks.append(_check_snapshots(run_dir))
    for name in JOURNALS:
        report.checks.append(_check_journal(run_dir, name))
    report.checks.append(_check_final_placement(run_dir, manifest, design, zeta))
    return report
