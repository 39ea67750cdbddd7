"""Compare two benchmark result sets, one row per workload and metric.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

A result set is the JSONL file ``run.py --out`` appends to.  Only untraced
runs are read.  Each row gives both sides' median and quartiles, the
change of the medians, and a verdict against the metric's bound in
``BENCHMARK.json``:

- ``worse``: the new median is worse than the base median by more than
  the bound;
- ``better``: the new median is better by more than the base's
  inter-quartile distance, and the new side wins at least nine tenths of
  the runs paired by seed (ties count for neither) -- or every new run
  beats every base run;
- ``unresolved``: neither, and either side's spread (inter-quartile
  distance over median) is wider than the bound;
- ``unchanged``: neither, within a spread narrower than the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from stats import quartiles, spread  # noqa: E402

BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load(path: str) -> dict:
    """``{workload: {metric: {seed: value}}}`` of a result set's untraced
    runs (a seed run twice keeps its last value)."""
    out: dict = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            record = json.loads(line)
            if record.get("trace"):
                continue
            metrics = out.setdefault(record["workload"], {})
            for name, metric in record["result"]["metrics"].items():
                metrics.setdefault(name, {})[record["seed"]] = metric["value"]
    return out


def paired(base: dict, new: dict) -> list[tuple[float, float]]:
    """Pairs by seed; without common seeds, by sorted seed order."""
    common = sorted(set(base) & set(new))
    if common:
        return [(base[s], new[s]) for s in common]
    return list(zip((base[s] for s in sorted(base)),
                    (new[s] for s in sorted(new))))


def verdict(base: list[float], new: list[float], bound: float, better: str,
            pairs: list[tuple[float, float]] | None = None) -> str:
    """See the module docstring."""
    sign = 1.0 if better == "lower" else -1.0
    q1, base_median, q3 = quartiles(base)
    new_median = quartiles(new)[1]
    gain = sign * (base_median - new_median)  # > 0 when new is better
    scale = abs(base_median)
    if scale and -gain / scale > bound:
        return "worse"
    if pairs is None:
        pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (b - n) > 0)
    separated = (max(new) < min(base)) if sign > 0 else (min(new) > max(base))
    if separated or (gain > q3 - q1 and pairs and wins >= 0.9 * len(pairs)):
        return "better"
    if spread(base) > bound or spread(new) > bound:
        return "unresolved"
    return "unchanged"


def rows(base: dict, new: dict, spec: dict) -> list[dict]:
    out = []
    for workload in sorted(set(base) & set(new)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b, n = base[workload].get(name), new[workload].get(name)
            if not b or not n:
                continue
            bq, nq = quartiles(b.values()), quartiles(n.values())
            out.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "base": bq, "new": nq, "runs": (len(b), len(n)),
                "change": (nq[1] - bq[1]) / bq[1] if bq[1] else 0.0,
                "verdict": verdict(list(b.values()), list(n.values()),
                                   metric["bound"], metric["better"],
                                   paired(b, n)),
            })
    return out


def render(table: list[dict]) -> str:
    def q(v):
        return f"{v[1]:.4g} [{v[0]:.4g}, {v[2]:.4g}]"

    lines = [f"{'workload':20s} {'metric':18s} {'unit':10s} "
             f"{'base median [q1, q3]':32s} {'new median [q1, q3]':32s} "
             f"{'change':>8s}  runs   verdict"]
    for r in table:
        lines.append(
            f"{r['workload']:20s} {r['metric']:18s} {r['unit']:10s} "
            f"{q(r['base']):32s} {q(r['new']):32s} {r['change']:+8.2%}  "
            f"{r['runs'][0]}/{r['runs'][1]}  {r['verdict']}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    with open(BENCHMARK) as f:
        spec = json.load(f)
    print(render(rows(load(args.base), load(args.new), spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
