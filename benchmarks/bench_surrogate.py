#!/usr/bin/env python
"""Microbenchmark for two-tier terminal evaluation (PR 7).

Measures, on one synthetic design:

- **surrogate bitwise** — the incremental prefix-stack scorer must equal
  the from-scratch scorer bit-for-bit across random single-group moves
  (an optimization, never an approximation);
- **fidelity** — Spearman rank correlation between surrogate and exact
  HPWL over a pool of random complete assignments.  This is the gate
  PAPERS.md's Cheng/Kahng assessment insists on *measuring*: a proxy is
  only allowed to prune what it can rank;
- **tier-1 throughput** — surrogate scores/sec vs exact legalize-and-
  place evaluations/sec (the per-call cost ratio the pruning converts
  into wall-clock);
- **two-tier MCTS at matched budget** — the same search with
  ``exact_topk=None`` vs a finite K: exact-call reduction, wall-clock,
  and result quality (``min(committed, best_terminal)``), plus a
  huge-K arm gated *bitwise* against the single-tier baseline;
- **incremental legalizer** — :class:`IncrementalMacroLegalizer`
  (LU-factorization cache, step-1 netlist reuse, axis-net topology
  precompile, per-group region memo) gated bitwise against the
  from-scratch :class:`MacroLegalizer`, with the speedup reported.

Gates (exit 1 on failure): all bitwise-equivalence checks and the
fidelity floor (``--min-spearman``, default 0.9) always gate.  In full
(non ``--quick``) mode the two-tier arm must additionally cut exact
calls by ``--min-exact-reduction`` (default 3×) while keeping quality
within ``--max-hpwl-ratio`` (default 1.01) of the single-tier search.
``--quick`` (the CI mode) gates bitwise + fidelity only — a shared
runner can't promise a representative budget.

Writes a JSON report (default ``BENCH_pr7.json``)::

    python benchmarks/bench_surrogate.py --quick --output BENCH_pr7.json
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys
import time

import numpy as np

from repro.agent.network import NetworkConfig, PolicyValueNet
from repro.agent.reward import NormalizedReward
from repro.coarsen import coarsen_design
from repro.env.placement_env import MacroGroupPlacementEnv
from repro.gp.mixed_size import MixedSizePlacer
from repro.grid.plan import GridPlan
from repro.legalize.pipeline import IncrementalMacroLegalizer, MacroLegalizer
from repro.mcts.search import MCTSConfig, MCTSPlacer
from repro.netlist.generator import GeneratorSpec, generate_design
from repro.surrogate import GroupCentroidSurrogate, spearman
from repro.utils.host import host_metadata

REWARD = NormalizedReward(w_max=2000.0, w_min=500.0, w_avg=1200.0)


def build_problem(zeta: int = 8, seed: int = 7):
    # Cell-heavy so the exact pipeline (QP legalize + cell placement)
    # dominates — the cost tier 1 avoids.
    spec = GeneratorSpec(
        name="bench-surrogate",
        n_movable_macros=12,
        n_pads=12,
        n_cells=160,
        n_nets=220,
        hierarchy_depth=2,
        hierarchy_branching=2,
        seed=seed,
    )
    design = generate_design(spec)
    MixedSizePlacer(n_iterations=2).place(design)
    return coarsen_design(design, GridPlan(design.region, zeta=zeta))


def make_env(coarse, fresh: bool = True) -> MacroGroupPlacementEnv:
    return MacroGroupPlacementEnv(
        copy.deepcopy(coarse) if fresh else coarse, cell_place_iters=1
    )


def random_assignments(env, n: int, seed: int = 0) -> list[list[int]]:
    rng = np.random.default_rng(seed)
    return [
        [int(a) for a in rng.integers(0, env.n_actions, env.n_steps)]
        for _ in range(n)
    ]


def _rate(n_items: int, seconds: float) -> float:
    return n_items / seconds if seconds > 0 else float("inf")


def check_surrogate_bitwise(coarse, n_moves: int) -> dict:
    """Incremental == from-scratch, bit for bit, under random moves."""
    sur = GroupCentroidSurrogate(coarse)
    n, grids = sur.n_macro_groups, coarse.plan.n_grids
    rng = np.random.default_rng(3)
    assignment = [int(a) for a in rng.integers(0, grids, size=n)]
    bitwise = True
    inc_seconds = 0.0
    scratch_seconds = 0.0
    for _ in range(n_moves):
        assignment[int(rng.integers(0, n))] = int(rng.integers(0, grids))
        started = time.perf_counter()
        inc = sur.score(assignment)
        inc_seconds += time.perf_counter() - started
        started = time.perf_counter()
        ref = sur.score_from_scratch(assignment)
        scratch_seconds += time.perf_counter() - started
        bitwise &= inc == ref
    return {
        "n_moves": n_moves,
        "bitwise": bitwise,
        "incremental_scores_per_sec": _rate(n_moves, inc_seconds),
        "scratch_scores_per_sec": _rate(n_moves, scratch_seconds),
        "incremental_speedup": (
            scratch_seconds / inc_seconds if inc_seconds > 0 else float("inf")
        ),
        "net_updates_per_score": sur.n_net_updates / max(sur.n_scores, 1),
    }


def bench_fidelity(coarse, n_assignments: int) -> dict:
    """Spearman(surrogate, exact) over random complete assignments, plus
    the per-call cost ratio between the tiers."""
    env = make_env(coarse)
    sur = GroupCentroidSurrogate(env.coarse)
    assignments = random_assignments(env, n_assignments, seed=11)

    started = time.perf_counter()
    surrogate_scores = [sur.score(a) for a in assignments]
    surrogate_seconds = time.perf_counter() - started
    started = time.perf_counter()
    exact_scores = [env.evaluate_assignment(a) for a in assignments]
    exact_seconds = time.perf_counter() - started

    return {
        "n_assignments": n_assignments,
        "spearman": float(spearman(surrogate_scores, exact_scores)),
        "surrogate_scores_per_sec": _rate(n_assignments, surrogate_seconds),
        "exact_evals_per_sec": _rate(n_assignments, exact_seconds),
        "per_call_cost_ratio": (
            exact_seconds / surrogate_seconds
            if surrogate_seconds > 0
            else float("inf")
        ),
    }


def _quality(result) -> float:
    return min(result.wirelength, result.best_terminal_wirelength)


def bench_two_tier(coarse, net_cfg, explorations: int, topk: int) -> dict:
    """Matched-budget search: single-tier vs top-K pruned vs huge-K.

    The huge-K arm admits every terminal and must reproduce the
    single-tier search bitwise; the finite-K arm is judged on exact-call
    reduction and quality drift.
    """
    out = {"explorations": explorations, "topk": topk}
    net = PolicyValueNet(net_cfg)
    arms = {}
    for label, k in (("baseline", None), ("huge_k", 10**6), ("pruned", topk)):
        env = make_env(coarse)
        placer = MCTSPlacer(
            env, net, REWARD,
            MCTSConfig(explorations=explorations, seed=0, exact_topk=k),
        )
        started = time.perf_counter()
        result = placer.run()
        seconds = time.perf_counter() - started
        arms[label] = result
        out[f"{label}_seconds"] = seconds
        out[f"{label}_exact_evaluations"] = result.n_exact_evaluations
        out[f"{label}_surrogate_evaluations"] = result.n_surrogate_evaluations
        out[f"{label}_seconds_terminal"] = result.seconds_terminal
        out[f"{label}_seconds_surrogate"] = result.seconds_surrogate
        out[f"{label}_wirelength"] = result.wirelength
        out[f"{label}_best_terminal"] = result.best_terminal_wirelength
        out[f"{label}_quality"] = _quality(result)
        if result.surrogate_spearman is not None:
            out[f"{label}_search_spearman"] = result.surrogate_spearman

    base, huge, pruned = arms["baseline"], arms["huge_k"], arms["pruned"]
    out["huge_k_bitwise_baseline"] = (
        huge.assignment == base.assignment
        and huge.wirelength == base.wirelength
        and huge.best_terminal_wirelength == base.best_terminal_wirelength
        and huge.n_exact_evaluations == base.n_exact_evaluations
    )
    out["exact_reduction"] = base.n_exact_evaluations / max(
        pruned.n_exact_evaluations, 1
    )
    out["hpwl_ratio"] = _quality(pruned) / _quality(base)
    # The reported numbers must themselves be exact-pipeline measurements.
    check_env = make_env(coarse)
    out["pruned_committed_is_exact"] = (
        pruned.wirelength == check_env.evaluate_assignment(pruned.assignment)
    )
    out["pruned_best_is_exact"] = (
        pruned.best_terminal_assignment is None
        or pruned.best_terminal_wirelength
        == check_env.evaluate_assignment(pruned.best_terminal_assignment)
    )
    return out


def bench_incremental_legalizer(coarse, n_assignments: int) -> dict:
    """Cached pipeline vs from-scratch: bitwise positions + speedup."""
    env = make_env(coarse)  # only for sizes/assignment sampling
    assignments = random_assignments(env, n_assignments, seed=17)
    assignments.append(list(assignments[0]))  # repeat → region-memo hits

    def positions(c):
        return [(node.x, node.y) for node in c.design.netlist]

    scratch_coarse = copy.deepcopy(coarse)
    scratch = MacroLegalizer()
    started = time.perf_counter()
    scratch_positions = []
    for a in assignments:
        scratch.legalize(scratch_coarse, a)
        scratch_positions.append(positions(scratch_coarse))
    scratch_seconds = time.perf_counter() - started

    incr_coarse = copy.deepcopy(coarse)
    incremental = IncrementalMacroLegalizer()
    started = time.perf_counter()
    bitwise = True
    for a, expected in zip(assignments, scratch_positions):
        incremental.legalize(incr_coarse, a)
        bitwise &= positions(incr_coarse) == expected
    incremental_seconds = time.perf_counter() - started

    out = {
        "n_assignments": len(assignments),
        "bitwise": bitwise,
        "scratch_seconds": scratch_seconds,
        "incremental_seconds": incremental_seconds,
        "speedup": (
            scratch_seconds / incremental_seconds
            if incremental_seconds > 0
            else float("inf")
        ),
    }
    out.update(
        {f"cache_{k}": v for k, v in incremental.cache_stats().items()}
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="CI-sized run: fewer assignments/explorations; gates bitwise "
             "equivalence and fidelity only",
    )
    parser.add_argument("--output", default="BENCH_pr7.json")
    parser.add_argument(
        "--min-spearman", type=float, default=0.9,
        help="fidelity floor: surrogate must rank exact HPWL at least "
             "this well (always gated)",
    )
    parser.add_argument(
        "--min-exact-reduction", type=float, default=3.0,
        help="matched-budget exact-call reduction the pruned arm must "
             "reach (full mode only)",
    )
    parser.add_argument(
        "--max-hpwl-ratio", type=float, default=1.01,
        help="worst quality drift (pruned/baseline) tolerated at the "
             "matched budget (full mode only)",
    )
    args = parser.parse_args(argv)

    zeta = 8
    net_cfg = NetworkConfig(zeta=zeta, channels=16, res_blocks=2, seed=0)
    if args.quick:
        n_fidelity, n_moves, explorations, topk, n_legalize = 40, 200, 16, 8, 6
    else:
        # γ=320 gives the baseline enough distinct terminal leaves (~120)
        # for the reduction ratio to mean something; K=4 is the matched
        # budget's operating point (4–5× fewer exact calls, quality within
        # noise of the single-tier search).
        n_fidelity, n_moves, explorations, topk, n_legalize = 200, 1000, 320, 4, 16

    host_cores = os.cpu_count() or 1
    coarse = build_problem(zeta=zeta)
    report = {
        "config": {
            "quick": args.quick,
            "zeta": zeta,
            "n_fidelity_assignments": n_fidelity,
            "n_surrogate_moves": n_moves,
            "mcts_explorations": explorations,
            "exact_topk": topk,
            "n_legalize_assignments": n_legalize,
            "min_spearman": args.min_spearman,
            "min_exact_reduction": args.min_exact_reduction,
            "max_hpwl_ratio": args.max_hpwl_ratio,
        },
        "host_cores": host_cores,
        "host": host_metadata(),
    }

    print(f"host cores: {host_cores}")
    print("== surrogate: incremental vs from-scratch ==")
    report["surrogate"] = check_surrogate_bitwise(coarse, n_moves)
    for key, value in report["surrogate"].items():
        print(f"  {key:28s} {value}")

    print("== fidelity: surrogate vs exact HPWL ==")
    report["fidelity"] = bench_fidelity(coarse, n_fidelity)
    for key, value in report["fidelity"].items():
        print(f"  {key:28s} {value}")

    print("== two-tier MCTS at matched budget ==")
    report["two_tier"] = bench_two_tier(coarse, net_cfg, explorations, topk)
    for key, value in report["two_tier"].items():
        print(f"  {key:30s} {value}")

    print("== incremental legalizer ==")
    report["legalizer"] = bench_incremental_legalizer(coarse, n_legalize)
    for key, value in report["legalizer"].items():
        print(f"  {key:28s} {value}")

    # -- gates ----------------------------------------------------------------
    gates = {
        "surrogate_bitwise": report["surrogate"]["bitwise"],
        "legalizer_bitwise": report["legalizer"]["bitwise"],
        "huge_k_bitwise_baseline": report["two_tier"][
            "huge_k_bitwise_baseline"
        ],
        "pruned_results_exact": (
            report["two_tier"]["pruned_committed_is_exact"]
            and report["two_tier"]["pruned_best_is_exact"]
        ),
        "fidelity": report["fidelity"]["spearman"] >= args.min_spearman,
    }
    # Budget-dependent gates only bind in full mode: a CI runner's quick
    # budget is too small for the reduction ratio to be meaningful.
    if not args.quick:
        gates["exact_reduction"] = (
            report["two_tier"]["exact_reduction"] >= args.min_exact_reduction
        )
        gates["hpwl_within_tolerance"] = (
            report["two_tier"]["hpwl_ratio"] <= args.max_hpwl_ratio
        )
    gates["all_passed"] = all(gates.values())
    report["gates"] = gates

    print("== gates ==")
    for key, value in gates.items():
        print(f"  {key:28s} {value}")

    with open(args.output, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
    print(f"report -> {args.output}")

    if not gates["all_passed"]:
        print("TWO-TIER REGRESSION", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
