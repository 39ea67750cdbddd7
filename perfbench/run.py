"""The repository's benchmark: placement runs and the placement service.

    python3 perfbench/run.py --workload place-ibm01 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program under test is imported from
``src/`` there.  Workloads (see ``BENCHMARK.json`` for why each exists):

- ``place-ibm01``: cold flow runs of ibm01 in fresh child processes,
  no run dir.
- ``place-cir1``: cold flow runs of the industrial Cir1 (preplaced macros,
  exposed hierarchy), each with a fresh durable run dir.
- ``service-ibm01-warm``: a warm cache seeded by one cold job, then
  fresh ``repro serve --workers 2`` daemons over copies of it, each
  serving the same warm ibm01 jobs to two closed-loop clients.

Both place workloads run the ``benchmark`` preset with a shortened RL
pre-training and search (the ``overrides`` of ``PLACE_WORKLOADS``), so
that a run fits the time a benchmark run may take.  Every run serves
the same inputs -- the flow seeds ``FLOW_SEEDS``, the job seeds
``JOB_SEEDS`` -- in an order the workload seed rotates, so two runs
differ only by noise.  ``--seconds`` sets how many passes over them a
run makes, at a nominal pass length.  Every place HPWL must
equal the reference recorded for its flow seed in ``references.json``
(``--record`` rewrites them from the run's samples, for a change that
alters HPWL on purpose).

End-to-end metrics mean the same on every workload: ``place_s`` is the
flow's wall time from start to verified result, ``job_latency_p50_s``
the time from request to result as the caller sees it (process spawn to
exit for ``repro place``, inbox write to result read for the service),
``jobs_per_min`` the completed jobs per minute of the timed passes.  The
timings are medians per input, averaged over the inputs.

Every timing is taken to a reference host speed before it is reported.
The benchmark's host is a few vCPUs of a shared machine whose speed
swings by up to 2x for tens of seconds at a time; ``probe.py`` times a
fixed interpreter-bound kernel on the CPUs the program runs on, 20 times
a second, and each wall time is scaled by the probe's reading over the
same window (``HostSpeed``).  Place workloads pin the bench process, its
placing children and one probe to one CPU; the service workload leaves
the daemon free and probes every CPU.  The raw wall times are kept in
the ``jobs`` of a result set (``*_wall_s``); the span times of a traced
run are wall times too.

With ``--trace 0`` the last stdout line carries every end-to-end metric;
with ``--trace 1`` every per-layer metric, from the wrappers of
``spans.py``.  ``--out FILE`` appends the result with its provenance to
a JSONL result set, the input of ``compare.py``.  Every child process
runs with BLAS pinned to one thread (``BLAS_ENV``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from probe import (KERNEL_NOMINAL_S, PERIOD_S, read_samples,  # noqa: E402
                   speed_scale)
from spans import merge  # noqa: E402
from stats import median, median_per_input  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
PROBE = os.path.join(HERE, "probe.py")
REFERENCES = os.path.join(HERE, "references.json")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")

#: every BLAS/OpenMP knob a numpy build may read, pinned in every child
BLAS_ENV = {
    name: "1"
    for name in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
}
#: a run ends by this many seconds after it starts, whatever is in flight
RUN_LIMIT_S = 165.0
#: flow seeds of the place workloads and ``mcts.seed`` values of the
#: timed service jobs
FLOW_SEEDS = (0, 1)
JOB_SEEDS = (101, 102, 103, 104, 105, 106)

#: nominal length of one pass over the flow seeds on a 2-core x86-64
#: host; a place run makes round(seconds / CYCLE_S) passes
CYCLE_S = 10.0
PLACE_WORKLOADS = {
    "place-ibm01": {
        "circuit": "ibm01", "scale": 0.01, "macro_scale": 0.08,
        "run_dir": False,
        "overrides": {"episodes": 30, "mcts.explorations": 150},
    },
    "place-cir1": {
        "circuit": "Cir1", "scale": 0.002, "macro_scale": 0.5,
        "run_dir": True,
        "overrides": {"episodes": 12, "calibration_episodes": 8,
                      "mcts.explorations": 40},
    },
}
SERVICE_WORKLOAD = "service-ibm01-warm"
#: ``repeat_s`` is the nominal length of one daemon serving every job seed
#: once; a run starts round(seconds / repeat_s) daemons.  ``seed_job`` is
#: the ``mcts.seed`` of the cold job that fills the warm cache.
SERVICE = {
    "circuit": "ibm01", "workers": 2, "clients": 2, "repeat_s": 10.0,
    "seed_job": 100,
    "overrides": {"episodes": 20, "mcts.explorations": 100, "exact_topk": 4,
                  "mcts.root_noise_frac": 0.25},
}
WORKLOADS = (*PLACE_WORKLOADS, SERVICE_WORKLOAD)
TERMINAL_STATES = ("DONE", "FAILED", "CANCELLED", "QUARANTINED")


# -- child processes ------------------------------------------------------------
def child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = SRC
    return env


class Child:
    """A child process whose exit status and peak RSS are collected with
    ``wait4``.  Every live child is listed in ``Child.live`` so that a
    failing run can still kill and reap them."""

    live: set = set()

    def __init__(self, argv: list[str], log_path: str) -> None:
        self.spawned = time.monotonic()
        with open(log_path, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, *argv], env=child_env(), cwd=ROOT,
                stdout=log, stderr=subprocess.STDOUT,
            )
        Child.live.add(self)

    def wait(self, timeout: float) -> tuple[int, float]:
        """``(exit code, peak RSS in MiB)``; kills the child at *timeout*."""
        deadline = time.monotonic() + max(timeout, 0.0)
        Child.live.discard(self)
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() >= deadline:
                self.proc.kill()
                pid, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.005)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        return self.proc.returncode, usage.ru_maxrss / 1024.0

    def exited(self) -> bool:
        """Has the child ended?  (Leaves it to ``wait`` to reap.)"""
        flags = os.WEXITED | os.WNOHANG | os.WNOWAIT
        return os.waitid(os.P_PID, self.proc.pid, flags) is not None

    @classmethod
    def kill_all(cls) -> None:
        for child in list(cls.live):
            child.wait(0.0)


def wall(t0: float, t1: float) -> float:
    """The scale of a wall time that is reported as measured."""
    return 1.0


class HostSpeed:
    """One ``probe.py`` per CPU in *cpus*.  ``scale(t0, t1)`` is the factor
    that takes a wall time measured over ``[t0, t1]`` (system-wide
    monotonic clock) on those CPUs to the reference speed."""

    def __init__(self, cpus: list[int], work: str, deadline: float) -> None:
        self.cpus = cpus
        self.paths = [os.path.join(work, f"probe-cpu{c}.txt") for c in cpus]
        self.children = [
            Child([PROBE, "--cpu", str(c), "--out", path], path + ".log")
            for c, path in zip(cpus, self.paths)
        ]
        while not all(read_samples(path) for path in self.paths):
            if time.monotonic() >= deadline or any(
                c.exited() for c in self.children
            ):
                raise RuntimeError("host-speed probe never came up")
            time.sleep(0.005)

    def scale(self, t0: float, t1: float) -> float:
        samples = sorted(s for path in self.paths for s in read_samples(path))
        return speed_scale(samples, t0, t1)

    def stop(self) -> None:
        for child in self.children:
            child.wait(0.0)


def dir_bytes(path: str) -> int:
    total = 0
    for base, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.lstat(os.path.join(base, name)).st_size
            except FileNotFoundError:
                pass
    return total


def read_jsonl(path: str) -> list[dict]:
    # The output checks read the program's files with their own parser,
    # so a bug in the program's reader cannot hide a bad journal.
    if not os.path.exists(path):
        return []
    records = []
    with open(path) as f:
        for line in f:
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                continue
    return records


def count_degradations(run_dir: str) -> int:
    events = read_jsonl(os.path.join(run_dir, "events.jsonl"))
    return sum(1 for e in events if e.get("event") == "degradation")


def rotated(values: tuple, seed: int) -> list:
    k = seed % len(values)
    return list(values[k:] + values[:k])


# -- place workloads --------------------------------------------------------------
def load_references() -> dict:
    if not os.path.exists(REFERENCES):
        return {}
    with open(REFERENCES) as f:
        return json.load(f)


def record_references(name: str, samples: list[dict]) -> None:
    references = load_references()
    references[name] = {
        str(s["flow_seed"]): s["hpwl"] for s in samples if "hpwl" in s
    }
    with open(REFERENCES, "w") as f:
        json.dump(references, f, indent=2, sort_keys=True)
        f.write("\n")


def place_spec(workload: dict, flow_seed: int, run_dir: str | None,
               overrides: dict | None = None,
               execution: dict | None = None) -> dict:
    return {
        "circuit": workload["circuit"], "scale": workload["scale"],
        "macro_scale": workload["macro_scale"], "seed": flow_seed,
        "overrides": {**workload["overrides"], **(overrides or {})},
        "execution": execution or {}, "run_dir": run_dir,
    }


def place_once(spec: dict, work: str, tag: str, deadline: float,
               trace: bool = False, scale=wall) -> dict:
    """One placing child; returns its sample (``ok`` False on any failure).
    Times are wall times taken to the reference speed by *scale*."""
    out = os.path.join(work, f"{tag}.json")
    argv = [CHILD, "place", "--spec", json.dumps(spec), "--out", out]
    child = Child(argv + (["--trace"] if trace else []),
                  os.path.join(work, f"{tag}.log"))
    code, rss_mb = child.wait(deadline - time.monotonic())
    exited = time.monotonic()
    sample = {"exit_code": code, "peak_rss_mb": rss_mb, "ok": False,
              "flow_seed": spec["seed"],
              "latency_wall_s": exited - child.spawned,
              "latency_s": (exited - child.spawned)
              * scale(child.spawned, exited)}
    if os.path.exists(out):
        with open(out) as f:
            sample.update(json.load(f))
    if code == 0 and "flow_end" in sample:
        start, end = sample["flow_start"], sample["flow_end"]
        sample["setup_s"] = (start - child.spawned) * scale(child.spawned,
                                                            start)
        sample["place_wall_s"] = end - start
        sample["place_s"] = (end - start) * scale(start, end)
        sample["ok"] = bool(sample.get("verified"))
    if spec["run_dir"]:
        sample["run_dir_bytes"] = dir_bytes(spec["run_dir"])
        sample["degradations"] = count_degradations(spec["run_dir"])
    return sample


def check_reference(sample: dict, reference: float | None) -> dict:
    """A sample stays ok only if its HPWL equals the recorded reference."""
    if sample["ok"] and sample.get("hpwl") != reference:
        sample["ok"] = False
        sample["error"] = {"kind": "HPWLMismatch",
                           "message": f"{sample.get('hpwl')!r} != {reference!r}"}
    return sample


def place_cycles(name: str, workload: dict, seed: int, cycles: int,
                 work: str, deadline: float, trace: bool,
                 scale=wall) -> list[dict]:
    """*cycles* whole passes over the flow seeds."""
    references = load_references().get(name, {})
    samples: list[dict] = []
    for cycle in range(cycles):
        for flow_seed in rotated(FLOW_SEEDS, seed):
            tag = f"{'t' if trace else 'p'}{cycle}-s{flow_seed}"
            run_dir = os.path.join(work, tag) if workload["run_dir"] else None
            spec = place_spec(workload, flow_seed, run_dir)
            sample = place_once(spec, work, tag, deadline, trace=trace,
                                scale=scale)
            samples.append(check_reference(
                sample, references.get(str(flow_seed))
            ))
    return samples


def run_place(name: str, seed: int, seconds: float, trace: bool,
              work: str, deadline: float, scale=wall) -> dict:
    workload = PLACE_WORKLOADS[name]
    cycles = max(1, round(seconds / CYCLE_S))
    started = time.monotonic()
    samples = place_cycles(name, workload, seed, cycles, work, deadline,
                           trace=False, scale=scale)
    ended = time.monotonic()
    busy_s = (ended - started) * scale(started, ended)
    good = [s for s in samples if s["ok"]]
    result = {
        "samples": samples,
        "attempted": len(samples),
        "failed": len(samples) - len(good),
        "host_speed": scale(started, ended),
        "jobs": [{key: s.get(key) for key in (
            "flow_seed", "hpwl", "place_s", "place_wall_s", "setup_s",
            "latency_s", "latency_wall_s", "error"
        )} for s in samples],
    }
    if good:
        result["metrics"] = {
            "place_s": median_per_input(
                (s["flow_seed"], s["place_s"]) for s in good
            ),
            "hpwl": median(s["hpwl"] for s in good),
            "job_latency_p50_s": median_per_input(
                (s["flow_seed"], s["latency_s"]) for s in good
            ),
            "jobs_per_min": 60.0 * len(good) / busy_s,
            "setup_s": median(s["setup_s"] for s in good),
            "peak_rss_mb": median(s["peak_rss_mb"] for s in good),
        }
    if trace:
        traced = place_cycles(name, workload, seed, 1, work, deadline,
                              trace=True, scale=scale)
        result["attempted"] += len(traced)
        result["failed"] += sum(1 for s in traced if not s["ok"])
        ok = [s for s in traced if s["ok"]]
        if ok and good:
            result["layers"] = place_layers(ok, good)
    return result


def place_layers(traced: list[dict], untraced: list[dict]) -> dict:
    merged = merge([s["trace"] for s in traced])
    flow = merged["spans"].get("flow.place", {})
    traced_s = median_per_input((s["flow_seed"], s["place_s"]) for s in traced)
    untraced_s = median_per_input(
        (s["flow_seed"], s["place_s"]) for s in untraced
    )
    extra = {
        "runtime.ckpt.bytes": sum(s.get("run_dir_bytes", 0) for s in traced),
        "runtime.degradations": sum(s.get("degradations", 0) for s in traced),
    }
    layers = layer_metrics(merged, len(traced), extra)
    layers.update({
        "trace.place_s": traced_s,
        "trace.untraced_place_s": untraced_s,
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
        "trace.coverage": (
            (flow["total_s"] - flow["self_s"]) / flow["total_s"]
            if flow.get("total_s") else 0.0
        ),
    })
    return layers


# -- per-layer metrics ------------------------------------------------------------
def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(merged: dict, units: int, extra: dict) -> dict:
    """Per-layer numbers per unit of work (a placement, or a service job).

    *extra* holds totals measured outside the wrappers (run-dir bytes,
    degradation events); ratios are taken over the totals.  A layer that
    never ran reads 0.
    """
    spans, counters = merged["spans"], merged["counters"]
    units = max(units, 1)

    def span(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0) / units

    def counter(name: str) -> float:
        return counters.get(name, 0) / units

    layers = {}
    for name in (
        "gp.prototype", "gp.cell_place", "gp.qp", "coarsen",
        "agent.calibrate", "agent.train", "agent.forward", "agent.backward",
        "env.terminal", "legalize", "legalize.lp", "legalize.seqpair",
        "mcts.run", "surrogate.score", "verify", "runtime.ckpt",
        "events.append",
    ):
        layers[f"{name}.s"] = span(name, "total_s")
        layers[f"{name}.calls"] = span(name, "calls")
    layers["agent.forward.rows"] = span("agent.forward", "rows")
    layers["mcts.self.s"] = span("mcts.run", "self_s")
    evals, hits = counter("mcts.network_evals"), counter("mcts.eval_cache_hits")
    layers["mcts.network_evals"] = evals
    layers["mcts.eval_cache_hit_ratio"] = _ratio(hits, hits + evals)
    layers["mcts.exact_evals"] = counter("mcts.exact_evals")
    layers["mcts.exact_per_leaf"] = _ratio(
        counter("mcts.exact_evals"), counter("mcts.terminal_leaves")
    )
    t_hits = counter("parallel.tcache.hits")
    t_misses = counter("parallel.tcache.misses")
    layers["parallel.tcache.hits"] = t_hits
    layers["parallel.tcache.misses"] = t_misses
    layers["parallel.tcache.hit_ratio"] = _ratio(t_hits, t_hits + t_misses)
    layers["events.fsync.calls"] = counter("events.fsync.calls")
    for key, total in extra.items():
        layers[key] = total / units
    return layers


# -- service workload -------------------------------------------------------------
def service_spec(mcts_seed: int):
    from repro.service import JobSpec

    overrides = {**SERVICE["overrides"], "mcts.seed": mcts_seed}
    return JobSpec(circuit=SERVICE["circuit"], preset="benchmark", seed=0,
                   overrides=tuple(sorted(overrides.items())))


class Daemon:
    """One ``repro serve`` child over *service_dir*."""

    def __init__(self, service_dir: str, work: str, tag: str,
                 trace: bool, workers: int = SERVICE["workers"]) -> None:
        self.dir = service_dir
        self.trace_out = os.path.join(work, f"{tag}.trace.json") if trace else None
        argv = [CHILD, "serve"]
        if self.trace_out:
            argv += ["--trace-out", self.trace_out]
        argv += ["--", "--service-dir", service_dir,
                 "--workers", str(workers)]
        self.child = Child(argv, os.path.join(work, f"{tag}.log"))

    def wait_ready(self, deadline: float, scale=wall) -> float:
        """Seconds from spawn until the daemon's first metrics snapshot."""
        metrics = os.path.join(self.dir, "metrics.json")
        while not os.path.exists(metrics):
            if time.monotonic() >= deadline or self.child.exited():
                raise RuntimeError(f"daemon over {self.dir} never came up")
            time.sleep(0.005)
        ready = time.monotonic()
        return (ready - self.child.spawned) * scale(self.child.spawned, ready)

    def stop(self, deadline: float) -> tuple[int, float, dict | None]:
        from repro.service.service import request_stop

        request_stop(self.dir)
        code, rss_mb = self.child.wait(deadline - time.monotonic())
        snapshot = None
        if self.trace_out and os.path.exists(self.trace_out):
            with open(self.trace_out) as f:
                snapshot = json.load(f)
        return code, rss_mb, snapshot


def submit_and_wait(service_dir: str, mcts_seed: int, deadline: float) -> dict:
    """One closed-loop request: inbox write to result read."""
    from repro.service.service import read_result, submit_job

    submitted_wall = time.time()
    started = time.monotonic()
    job_id = submit_job(service_dir, service_spec(mcts_seed))
    result = None
    while result is None and time.monotonic() < deadline:
        time.sleep(0.005)
        result = read_result(service_dir, job_id)
    return {
        "id": job_id, "mcts_seed": mcts_seed, "submitted_wall": submitted_wall,
        "started": started, "latency_wall_s": time.monotonic() - started,
        "result": result,
    }


def scale_job(job: dict, scale) -> dict:
    """Take a job's latency to the reference speed; ``scale`` is kept for
    the job's own ``seconds``, which ran inside the same window."""
    job["scale"] = scale(job["started"],
                         job["started"] + job["latency_wall_s"])
    job["latency_s"] = job["latency_wall_s"] * job["scale"]
    return job


def check_job(job: dict, journal: list[dict], warm: bool = True) -> str | None:
    """Why a service job counts as failed (None when it passed)."""
    result = job.get("result")
    if result is None:
        return "no result"
    if result.get("state") != "DONE":
        return f"state {result.get('state')}"
    if result.get("attempts") != 1:
        return f"{result.get('attempts')} attempts"
    if bool(result.get("warm_hit")) != warm:
        return f"warm_hit {result.get('warm_hit')}"
    if not result.get("verified"):
        return "not verified"
    terminal = [
        r for r in journal
        if r.get("id") == job["id"] and r.get("record") == "state"
        and r.get("state") in TERMINAL_STATES
    ]
    if len(terminal) != 1:
        return f"{len(terminal)} terminal journal records"
    return None


def closed_loop(service_dir: str, seeds: list[int],
                deadline: float) -> tuple[list[dict], float]:
    """Clients each submit their next job after reading the last result,
    until every seed is served; returns the jobs and the seconds taken."""
    pending = list(reversed(seeds))
    jobs: list[dict] = []
    lock = threading.Lock()
    started = time.monotonic()

    def client() -> None:
        while True:
            with lock:
                if not pending:
                    return
                mcts_seed = pending.pop()
            job = submit_and_wait(service_dir, mcts_seed, deadline)
            with lock:
                jobs.append(job)

    threads = [threading.Thread(target=client)
               for _ in range(SERVICE["clients"])]
    for t in threads:
        t.start()
    for t in threads:
        t.join(max(deadline - time.monotonic(), 0.0) + 5.0)
    return jobs, time.monotonic() - started


def seed_warm_cache(service_dir: str, work: str, deadline: float,
                    scale=wall) -> tuple[float, str | None]:
    """Start a daemon, serve one cold job, stop; ``(seconds, failure)``."""
    started = time.monotonic()
    daemon = Daemon(service_dir, work, "seed", trace=False)
    daemon.wait_ready(deadline)
    job = submit_and_wait(service_dir, SERVICE["seed_job"], deadline)
    served = time.monotonic()
    seconds = (served - started) * scale(started, served)
    code, _rss, _snap = daemon.stop(deadline)
    journal = read_jsonl(os.path.join(service_dir, "jobs.jsonl"))
    failure = check_job(job, journal, warm=False)
    if failure is None and code != 0:
        failure = f"seed daemon exit {code}"
    return seconds, failure


def run_service(seed: int, seconds: float, trace: bool, work: str,
                deadline: float, workers: int = SERVICE["workers"],
                scale=wall) -> dict:
    seed_dir = os.path.join(work, "seed")
    seed_s, seed_failure = seed_warm_cache(seed_dir, work, deadline, scale)
    if seed_failure is not None:
        raise RuntimeError(f"warm-cache seeding failed: {seed_failure}")
    repeats = []
    for r in range(max(1, round(seconds / SERVICE["repeat_s"]))):
        # Every repeat starts from the same state: the seeded warm cache,
        # an empty terminal cache and an empty journal.
        service_dir = os.path.join(work, f"rep{r}")
        shutil.copytree(os.path.join(seed_dir, "warm"),
                        os.path.join(service_dir, "warm"))
        daemon = Daemon(service_dir, work, f"rep{r}", trace, workers)
        ready_s = daemon.wait_ready(deadline, scale)
        started = time.monotonic()
        jobs, busy_s = closed_loop(service_dir, rotated(JOB_SEEDS, seed),
                                   deadline)
        code, rss_mb, snapshot = daemon.stop(deadline)
        repeats.append({
            "dir": service_dir, "ready_s": ready_s,
            "jobs": [scale_job(job, scale) for job in jobs],
            "busy_s": busy_s * scale(started, started + busy_s),
            "host_speed": scale(started, started + busy_s),
            "exit_code": code, "peak_rss_mb": rss_mb,
            "trace": snapshot,
            "journal": read_jsonl(os.path.join(service_dir, "jobs.jsonl")),
            "journal_bytes": os.path.getsize(
                os.path.join(service_dir, "jobs.jsonl")
            ),
        })
    return summarize_service(repeats, seed_s, trace)


def summarize_service(repeats: list[dict], seed_s: float, trace: bool) -> dict:
    jobs, failures = [], []
    for rep in repeats:
        for job in rep["jobs"]:
            why = check_job(job, rep["journal"])
            if why is None and rep["exit_code"] != 0:
                why = f"daemon exit {rep['exit_code']}"
            job["ok"] = why is None
            if why is not None:
                failures.append({"id": job["id"], "why": why})
            jobs.append(job)
    good = [j for j in jobs if j["ok"]]
    result = {
        "attempted": len(jobs), "failed": len(jobs) - len(good),
        "failures": failures,
        "host_speed": median(rep["host_speed"] for rep in repeats),
        "jobs": [{"mcts_seed": j["mcts_seed"], "latency_s": j["latency_s"],
                  "latency_wall_s": j["latency_wall_s"],
                  "hpwl": (j["result"] or {}).get("hpwl"),
                  "seconds": (j["result"] or {}).get("seconds")}
                 for j in jobs],
    }
    if good:
        busy = sum(rep["busy_s"] for rep in repeats)
        result["metrics"] = {
            "place_s": median_per_input(
                (j["mcts_seed"], j["result"]["seconds"] * j["scale"])
                for j in good
            ),
            "job_latency_p50_s": median_per_input(
                (j["mcts_seed"], j["latency_s"]) for j in good
            ),
            "jobs_per_min": 60.0 * len(good) / busy,
            "hpwl": median(j["result"]["hpwl"] for j in good),
            "setup_s": seed_s + median(rep["ready_s"] for rep in repeats),
            "peak_rss_mb": median(rep["peak_rss_mb"] for rep in repeats),
        }
    if trace and good:
        result["layers"] = service_layers(repeats, good)
    return result


def service_layers(repeats: list[dict], good: list[dict]) -> dict:
    from repro.service.jobs import ServicePaths

    answered = [j["result"] for rep in repeats for j in rep["jobs"]
                if j["result"] is not None]
    running = {}
    for rep in repeats:
        for record in rep["journal"]:
            if record.get("state") == "RUNNING" and record["id"] not in running:
                running[record["id"]] = record["ts"]
    ckpt_bytes = degradations = 0
    for rep in repeats:
        paths = ServicePaths(rep["dir"])
        for job in rep["jobs"]:
            run_dir = paths.run_dir(job["id"])
            ckpt_bytes += dir_bytes(run_dir)
            degradations += count_degradations(run_dir)
    merged = merge([rep["trace"] for rep in repeats if rep["trace"]])
    layers = layer_metrics(merged, len(good), {
        "runtime.ckpt.bytes": ckpt_bytes,
        "runtime.degradations": degradations,
    })
    layers.update({
        "service.admit_wait_s": median(
            running[j["id"]] - j["submitted_wall"] for j in good
        ),
        "service.run_s": median(
            j["result"]["seconds"] * j["scale"] for j in good
        ),
        "service.overhead_s": median(
            (j["latency_wall_s"] - j["result"]["seconds"]) * j["scale"]
            for j in good
        ),
        "service.warm_hit_ratio": _ratio(
            sum(1 for r in answered if r.get("warm_hit")), len(answered)
        ),
        "service.retries": sum(
            max((r.get("attempts") or 1) - 1, 0) for r in answered
        ),
        "service.journal.bytes": median(rep["journal_bytes"] for rep in repeats),
    })
    return layers


# -- provenance and output --------------------------------------------------------
def git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy
    import scipy

    from repro.utils.host import host_metadata

    info = {
        "host": host_metadata(), "git_commit": git_commit(),
        "nproc": os.cpu_count(), "blas_env": BLAS_ENV,
        "cpus": measure_cpus(workload),
        "host_speed_probe": {"kernel_nominal_s": KERNEL_NOMINAL_S,
                             "period_s": PERIOD_S},
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace,
    }
    if workload in PLACE_WORKLOADS:
        w = PLACE_WORKLOADS[workload]
        info["flow_seeds"] = rotated(FLOW_SEEDS, seed)
        info["equivalent_cli"] = (
            f"repro place --circuit {w['circuit']} --scale {w['scale']} "
            f"--macro-scale {w['macro_scale']} --preset benchmark --verify"
            + (" --run-dir <fresh dir>" if w["run_dir"] else "")
            + " --seed <flow seed>, with the overrides applied"
        )
        info["overrides"] = w["overrides"]
    elif workload == SERVICE_WORKLOAD:
        info["job_seeds"] = rotated(JOB_SEEDS, seed)
        info["serve_cli"] = (
            f"repro serve --service-dir <fresh dir> --workers "
            f"{SERVICE['workers']}"
        )
        info["submit_cli"] = (
            f"repro submit --service-dir <dir> --circuit {SERVICE['circuit']} "
            "--preset benchmark "
            + " ".join(f"--set {k}={v}" for k, v in SERVICE["overrides"].items())
            + " --set mcts.seed=<job seed>"
        )
        info["job_spec"] = service_spec(JOB_SEEDS[0]).to_json()
        info["service"] = SERVICE
    return info


def declared_metrics() -> tuple[dict, dict]:
    """``(end_to_end, per_layer)`` name → unit maps from BENCHMARK.json."""
    with open(BENCHMARK) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def measure_cpus(workload: str) -> list[int]:
    """The CPUs a workload runs and is probed on: one for the place
    workloads, which place one design at a time; all for the service."""
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[:1] if workload in PLACE_WORKLOADS else cpus


def measure(workload: str, seed: int, seconds: float, trace: bool,
            work: str) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    cpus = measure_cpus(workload)
    # The placing children inherit the bench process's CPU set.
    os.sched_setaffinity(0, cpus)
    speed = HostSpeed(cpus, work, deadline)
    try:
        if workload == SERVICE_WORKLOAD:
            return run_service(seed, seconds, trace, work, deadline,
                               scale=speed.scale)
        return run_place(workload, seed, seconds, trace, work, deadline,
                         scale=speed.scale)
    finally:
        speed.stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="append the result and provenance to this JSONL")
    parser.add_argument("--record", action="store_true",
                        help="store this run's HPWLs as the references")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program under test at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    end_to_end, per_layer = declared_metrics()
    # Compile the program's bytecode before timing: users pay that once.
    subprocess.run([sys.executable, "-m", "compileall", "-q", SRC, HERE],
                   check=True, env=child_env())

    work = os.path.join(ROOT, ".perfbench_work",
                        f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        outcome = measure(args.workload, args.seed, args.seconds,
                          bool(args.trace), work)
    finally:
        Child.kill_all()
        shutil.rmtree(work, ignore_errors=True)

    if args.record and args.workload in PLACE_WORKLOADS:
        record_references(args.workload, outcome["samples"])
    wanted = per_layer if args.trace else end_to_end
    if args.trace:
        # A layer that does not run on this workload reads 0.
        measured = {name: 0.0 for name in per_layer}
        measured.update(outcome.get("layers", {}))
    else:
        measured = outcome.get("metrics", {})
    correct = outcome["failed"] == 0 and set(wanted) <= set(measured)
    for name, unit in wanted.items():
        if name in measured:
            print(f"{args.workload:20s} {name:28s} {measured[name]:16.6f} {unit}")
    failed_frac = outcome["failed"] / max(outcome["attempted"], 1)
    print(f"{args.workload:20s} attempted {outcome['attempted']}, failed "
          f"{outcome['failed']} (failed_frac {failed_frac:.3f}), "
          f"correct {correct}, host speed {outcome.get('host_speed', 0):.3f}"
          " of the reference")
    info = provenance(args.workload, args.seed, args.seconds, bool(args.trace))
    print("provenance " + json.dumps(info, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": measured[name], "unit": unit}
            for name, unit in wanted.items() if name in measured
        },
    }
    if args.out:
        with open(args.out, "a") as f:
            f.write(json.dumps({
                "workload": args.workload, "seed": args.seed,
                "trace": args.trace, "result": result, "provenance": info,
                "jobs": outcome.get("jobs"),
                "failures": outcome.get("failures"),
            }, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
