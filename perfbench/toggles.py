"""One-off layer-toggle table: flip one execution knob at a time.

    python3 perfbench/toggles.py [--runs 5] [--write perfbench/TOGGLES.md]

A diagnostic beside the benchmark, not a gated workload.  On
``place-ibm01`` (flow seed 0) each arm flips one knob against the
workload's own settings -- ``terminal_workers=2``, ``inference_broker``,
``mcts.leaf_batch=8``, ``rollout_envs=4`` -- and the arms run interleaved,
one placement each per round, so drifting host load falls on all of
them alike.  On ``service-ibm01-warm`` the daemon runs with ``--workers
1`` and ``--workers 2``.  Each arm reports median and quartiles of its
end-to-end time, a verdict against the baseline arm (win / lose when
the medians differ by more than the wider of the two inter-quartile
distances, else within noise), and whether its HPWLs equal the
baseline's.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from stats import quartiles  # noqa: E402

PLACE_ARMS = {
    "baseline": ({}, {}),
    "terminal_workers=2": ({}, {"terminal_workers": 2}),
    "inference_broker": ({}, {"inference_broker": True}),
    "mcts.leaf_batch=8": ({"mcts.leaf_batch": 8}, {}),
    "rollout_envs=4": ({"rollout_envs": 4}, {}),
}
SERVICE_ARMS = {"workers=2": 2, "workers=1": 1}


def label(base: list[float], arm: list[float]) -> str:
    bq, aq = quartiles(base), quartiles(arm)
    noise = max(bq[2] - bq[0], aq[2] - aq[0])
    if aq[1] < bq[1] - noise:
        return "win"
    if aq[1] > bq[1] + noise:
        return "lose"
    return "within noise"


def place_table(runs: int, work: str) -> list[dict]:
    workload = run.PLACE_WORKLOADS["place-ibm01"]
    times = {arm: [] for arm in PLACE_ARMS}
    hpwls = {arm: set() for arm in PLACE_ARMS}
    failed = {arm: 0 for arm in PLACE_ARMS}
    deadline = time.monotonic() + 3600.0
    for r in range(runs):
        for i, (arm, (overrides, execution)) in enumerate(PLACE_ARMS.items()):
            spec = run.place_spec(workload, 0, None, overrides, execution)
            sample = run.place_once(spec, work, f"{i}-{r}", deadline)
            if sample["ok"]:
                times[arm].append(sample["place_s"])
                hpwls[arm].add(sample["hpwl"])
            else:
                failed[arm] += 1
    return [
        row("place-ibm01", arm, "place_s", times[arm], times["baseline"],
            hpwls[arm] == hpwls["baseline"] and len(hpwls[arm]) == 1,
            failed[arm])
        for arm in PLACE_ARMS
    ]


def service_table(runs: int, work: str, seconds: float) -> list[dict]:
    latency = {arm: [] for arm in SERVICE_ARMS}
    rate = {arm: [] for arm in SERVICE_ARMS}
    hpwl_by_seed = {arm: {} for arm in SERVICE_ARMS}
    failed = {arm: 0 for arm in SERVICE_ARMS}
    for r in range(runs):
        for arm, workers in SERVICE_ARMS.items():
            arm_work = os.path.join(work, f"svc-{workers}-{r}")
            os.makedirs(arm_work)
            outcome = run.run_service(
                r, seconds, False, arm_work, time.monotonic() + 170.0,
                workers=workers,
            )
            shutil.rmtree(arm_work, ignore_errors=True)
            failed[arm] += outcome["failed"]
            if "metrics" in outcome:
                latency[arm].append(outcome["metrics"]["job_latency_p50_s"])
                rate[arm].append(outcome["metrics"]["jobs_per_min"])
            for job in outcome["jobs"]:
                hpwl_by_seed[arm][job["mcts_seed"]] = job["hpwl"]
    base = hpwl_by_seed["workers=2"]
    table = []
    for arm in SERVICE_ARMS:
        common = set(base) & set(hpwl_by_seed[arm])
        same = all(base[s] == hpwl_by_seed[arm][s] for s in common)
        table.append(row("service-ibm01-warm", arm, "job_latency_p50_s",
                         latency[arm], latency["workers=2"], same, failed[arm]))
        # Higher is better for throughput: compare negated rates.
        flipped = row("service-ibm01-warm", arm, "jobs_per_min", rate[arm],
                      rate["workers=2"], same, failed[arm])
        flipped["verdict"] = label([-v for v in rate["workers=2"]],
                                   [-v for v in rate[arm]])
        table.append(flipped)
    return table


def row(workload, arm, metric, values, base, same_hpwl, failed) -> dict:
    if not values or not base:
        return {"workload": workload, "arm": arm, "metric": metric,
                "runs": len(values), "failed": failed, "verdict": "no data"}
    q1, med, q3 = quartiles(values)
    return {
        "workload": workload, "arm": arm, "metric": metric,
        "runs": len(values), "failed": failed, "median": med, "q1": q1,
        "q3": q3, "vs_base": med / quartiles(base)[1],
        "verdict": label(base, values), "same_hpwl": same_hpwl,
    }


def render(table: list[dict], header: str) -> str:
    lines = [header, "",
             "| workload | arm | metric | runs | median | q1 | q3 "
             "| vs baseline | verdict | HPWL equal | failed |",
             "|---|---|---|---|---|---|---|---|---|---|---|"]
    for r in table:
        if "median" not in r:
            lines.append(f"| {r['workload']} | {r['arm']} | {r['metric']} "
                         f"| {r['runs']} | | | | | {r['verdict']} | | "
                         f"{r['failed']} |")
            continue
        lines.append(
            f"| {r['workload']} | {r['arm']} | {r['metric']} | {r['runs']} "
            f"| {r['median']:.3f} | {r['q1']:.3f} | {r['q3']:.3f} "
            f"| {r['vs_base']:.3f}x | {r['verdict']} "
            f"| {'yes' if r['same_hpwl'] else 'no'} | {r['failed']} |"
        )
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="--seconds of one service run")
    parser.add_argument("--write", default=None,
                        help="also write the table (markdown) here")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(run.SRC, "repro")):
        print(f"error: no program under test at {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, run.SRC)
    work = os.path.join(run.ROOT, ".perfbench_work", f"toggles-{os.getpid()}")
    os.makedirs(work)
    try:
        table = place_table(args.runs, work)
        table += service_table(args.runs, work, args.seconds)
    finally:
        run.Child.kill_all()
        shutil.rmtree(work, ignore_errors=True)
    info = run.provenance("place-ibm01", 0, args.seconds, False)
    header = (
        f"# Layer toggles ({args.runs} runs per arm)\n\n"
        f"Host: {info['nproc']} cores, {info['host']['platform']}, "
        f"Python {info['host']['python']}, numpy {info['numpy']}, "
        f"scipy {info['scipy']}, BLAS pinned to 1 thread per process; "
        f"commit {info['git_commit']}.  Times in seconds, rates in jobs/min."
    )
    text = render(table, header)
    print(text)
    if args.write:
        with open(args.write, "w") as f:
            f.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
