"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import compare  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from stats import median, median_per_input, quartiles, spread  # noqa: E402


# -- spans ----------------------------------------------------------------------
def test_recursive_call_counts_once():
    tracer = spans.Tracer()

    def countdown(n):
        return 0 if n == 0 else 1 + traced(n - 1)

    traced = tracer.wrap(countdown, "rec")
    assert traced(5) == 5
    span = tracer.snapshot()["spans"]["rec"]
    assert span["calls"] == 1
    assert span["self_s"] == pytest.approx(span["total_s"])


def test_nested_same_name_counts_outermost_only():
    tracer = spans.Tracer()
    inner = tracer.wrap(lambda x: x, "forward", rows=lambda x: len(x))
    outer = tracer.wrap(lambda x: inner(x), "forward", rows=lambda x: len(x))
    outer([1, 2, 3])
    inner([1])
    span = tracer.snapshot()["spans"]["forward"]
    assert span["calls"] == 2
    assert span["rows"] == 4


def test_self_times_sum_to_root():
    tracer = spans.Tracer()
    leaf = tracer.wrap(lambda: time.sleep(0.01), "leaf")

    def middle_body():
        time.sleep(0.005)
        leaf()

    middle = tracer.wrap(middle_body, "middle")

    def root_body():
        leaf()
        middle()
        time.sleep(0.005)

    tracer.wrap(root_body, "root")()
    snap = tracer.snapshot()["spans"]
    total_self = sum(s["self_s"] for s in snap.values())
    assert total_self == pytest.approx(snap["root"]["total_s"], rel=1e-9)
    assert snap["leaf"]["calls"] == 2
    assert snap["root"]["self_s"] < snap["root"]["total_s"]


def test_unless_inside_and_when_skip_counting():
    tracer = spans.Tracer()
    proto = tracer.wrap(lambda: None, "proto", unless_inside="cell")
    tracer.wrap(lambda: proto(), "cell")()
    proto()
    guarded = tracer.wrap(lambda flag: flag, "ckpt", when=lambda flag: flag)
    guarded(False)
    guarded(True)
    snap = tracer.snapshot()["spans"]
    assert snap["proto"]["calls"] == 1
    assert snap["ckpt"]["calls"] == 1


def test_merge_sums_snapshots():
    a = {"spans": {"x": {"calls": 1, "total_s": 1.0, "self_s": 0.5,
                         "rows": 0}}, "counters": {"c": 2}}
    merged = spans.merge([a, a])
    assert merged["spans"]["x"]["calls"] == 2
    assert merged["spans"]["x"]["total_s"] == 2.0
    assert merged["counters"]["c"] == 4


# -- order statistics -----------------------------------------------------------
def test_median_and_quartiles():
    values = [7.0, 1.0, 3.0, 10.0, 2.0, 9.0, 4.0, 8.0, 5.0, 6.0]
    assert median(values) == 5.5
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert quartiles(values) == (2.75, 5.5, 8.25)
    assert spread(values) == pytest.approx((8.25 - 2.75) / 5.5)
    assert quartiles([4.0]) == (4.0, 4.0, 4.0)
    assert spread([0.0, 0.0]) == 0.0
    with pytest.raises(ValueError):
        median([])
    # two inputs far apart: the mean of their medians, not the straddle
    pairs = [("a", 1.0), ("a", 1.2), ("a", 9.0), ("b", 5.0), ("b", 5.5),
             ("b", 5.2)]
    assert median_per_input(pairs) == pytest.approx((1.2 + 5.2) / 2)


# -- compare verdicts -----------------------------------------------------------
BASE = [10.0, 10.1, 9.9, 10.05, 9.95]


def test_verdict_worse_beyond_bound():
    assert compare.verdict(BASE, [12.0] * 5, 0.1, "lower") == "worse"
    assert compare.verdict(BASE, [8.0] * 5, 0.1, "higher") == "worse"


def test_verdict_better_needs_paired_wins():
    new = [9.0, 9.1, 8.9, 9.05, 8.95]
    assert compare.verdict(BASE, new, 0.1, "lower") == "better"
    # a median gain that loses two of five paired runs is not a win
    assert compare.verdict([10.0] * 5, [9.0, 9.0, 9.0, 10.5, 10.5], 0.1,
                           "lower") == "unresolved"


def test_verdict_unchanged_and_unresolved():
    assert compare.verdict(BASE, list(BASE), 0.1, "lower") == "unchanged"
    noisy = [5.0, 8.0, 10.0, 12.0, 15.0]
    assert compare.verdict(noisy, [10.2, 6.0, 9.0, 14.0, 13.0], 0.1,
                           "lower") == "unresolved"


def test_compare_rows_from_result_sets(tmp_path):
    def write(path, values):
        with open(path, "w") as f:
            for seed, value in enumerate(values):
                f.write(json.dumps({
                    "workload": "w", "seed": seed, "trace": 0,
                    "result": {"metrics": {"place_s": {"value": value,
                                                       "unit": "s"}}},
                }) + "\n")

    write(tmp_path / "a.jsonl", BASE)
    write(tmp_path / "b.jsonl", [v * 1.5 for v in BASE])
    spec = {"end_to_end": [{"name": "place_s", "unit": "s",
                            "better": "lower", "bound": 0.1}]}
    table = compare.rows(compare.load(tmp_path / "a.jsonl"),
                         compare.load(tmp_path / "b.jsonl"), spec)
    assert [r["verdict"] for r in table] == ["worse"]
    assert table[0]["change"] == pytest.approx(0.5)


# -- host-speed scaling ---------------------------------------------------------
def test_speed_scale_takes_wall_time_to_reference_speed():
    nominal = probe.KERNEL_NOMINAL_S
    steady = [(t * 0.05, nominal) for t in range(20)]
    assert probe.speed_scale(steady, 0.0, 1.0) == pytest.approx(1.0)
    # half speed for the first half second, full speed after it
    mixed = [(t * 0.05, nominal * (2 if t < 10 else 1)) for t in range(20)]
    assert probe.speed_scale(mixed, 0.0, 0.46) == pytest.approx(0.5)
    assert probe.speed_scale(mixed, 0.0, 1.0) == pytest.approx(0.75)
    # a window between two samples borrows the samples next to it
    assert probe.speed_scale(mixed, 0.51, 0.52) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        probe.speed_scale([], 0.0, 1.0)
    with pytest.raises(ValueError):
        probe.speed_scale(steady, 5.0, 6.0)


def test_read_samples_skips_torn_line(tmp_path):
    path = tmp_path / "probe.txt"
    path.write_text("1.0 0.0005\n1.05 0.0006\n1.1 0.00")
    assert probe.read_samples(str(path)) == [(1.0, 0.0005), (1.05, 0.0006)]
    assert probe.read_samples(str(tmp_path / "missing.txt")) == []


def test_host_speed_probe_runs_and_stops(tmp_path):
    cpu = min(os.sched_getaffinity(0))
    speed = run.HostSpeed([cpu], str(tmp_path), time.monotonic() + 30.0)
    try:
        t0 = time.monotonic()
        time.sleep(0.3)
        scale = speed.scale(t0, time.monotonic())
    finally:
        speed.stop()
    assert 0.1 < scale < 10.0
    assert all(c.proc.returncode is not None for c in speed.children)
    assert not run.Child.live


# -- output checks --------------------------------------------------------------
def test_failing_placement_counts_as_failed(tmp_path, monkeypatch):
    bogus = dict(run.PLACE_WORKLOADS["place-ibm01"], circuit="no-such-circuit")
    monkeypatch.setitem(run.PLACE_WORKLOADS, "bogus", bogus)
    outcome = run.run_place("bogus", 0, 1.0, False, str(tmp_path),
                            time.monotonic() + 60.0)
    assert outcome["attempted"] == len(run.FLOW_SEEDS)
    assert outcome["failed"] == outcome["attempted"]
    assert "metrics" not in outcome
    assert all(s["exit_code"] == 64 for s in outcome["samples"])


def test_hpwl_must_match_reference():
    sample = {"ok": True, "hpwl": 100.0}
    assert run.check_reference(dict(sample), 100.0)["ok"]
    assert not run.check_reference(dict(sample), 100.5)["ok"]
    assert not run.check_reference(dict(sample), None)["ok"]


def test_service_job_checks():
    result = {"state": "DONE", "attempts": 1, "warm_hit": True,
              "verified": True}
    done = {"record": "state", "id": "j", "state": "DONE"}
    job = {"id": "j", "result": result}
    assert run.check_job(job, [done]) is None
    assert run.check_job({"id": "j", "result": None}, [done]) == "no result"
    assert run.check_job(job, [done, done]) == "2 terminal journal records"
    assert run.check_job(job, [done], warm=False) == "warm_hit True"
    failed = dict(result, state="FAILED")
    assert run.check_job({"id": "j", "result": failed}, [done]) == "state FAILED"
    retried = dict(result, attempts=2)
    assert run.check_job({"id": "j", "result": retried}, [done]) == "2 attempts"


def test_declared_layers_are_computed():
    _e2e, per_layer = run.declared_metrics()
    computed = set(run.layer_metrics({"spans": {}, "counters": {}}, 1, {
        "runtime.ckpt.bytes": 0, "runtime.degradations": 0,
    }))
    for name in per_layer:
        assert (name in computed or name.startswith(("service.", "trace."))), name


def test_traced_placement_attributes_layers(tmp_path):
    """A tiny traced flow: predicted zeros hold and spans cover the flow."""
    workload = dict(run.PLACE_WORKLOADS["place-ibm01"], overrides={
        "episodes": 10, "calibration_episodes": 2, "mcts.explorations": 4,
    })
    spec = run.place_spec(workload, 0, None)
    sample = run.place_once(spec, str(tmp_path), "t", time.monotonic() + 120,
                            trace=True)
    assert sample["ok"], sample
    layers = run.layer_metrics(sample["trace"], 1, {})
    assert layers["surrogate.score.calls"] == 0
    assert layers["runtime.ckpt.calls"] == 0
    assert layers["events.fsync.calls"] == 0
    assert layers["agent.backward.calls"] > 0
    assert layers["env.terminal.calls"] > 0
    assert layers["gp.qp.calls"] > layers["gp.cell_place.calls"] > 0
    flow = sample["trace"]["spans"]["flow.place"]
    assert flow["calls"] == 1
    assert (flow["total_s"] - flow["self_s"]) / flow["total_s"] > 0.9
    assert flow["total_s"] == pytest.approx(sample["place_s"], rel=0.05)
