"""Layer spans measured from outside the program.

The benchmark wraps public functions of the ``repro`` modules at run
time; nothing under ``src/`` knows it is being traced.  A wrapper opens
a span for the call, and every span records its total time and its self
time (its duration minus the time covered by its child spans).  A
function that re-enters itself -- directly or through another wrapped
function carrying the same span name -- is counted once, at its
outermost call.  Span stacks are per thread, so the service daemon's
worker threads attribute their own time; the shared tallies are updated
under a lock.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time


class Tracer:
    """Span and counter tallies for one process."""

    def __init__(self) -> None:
        self.spans: dict[str, dict] = {}
        self.counters: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- per-thread span stack ------------------------------------------------
    def _frames(self) -> list:
        frames = getattr(self._local, "frames", None)
        if frames is None:
            frames = self._local.frames = []
        return frames

    def active(self, name: str) -> bool:
        """Is a span called *name* open on this thread?"""
        return any(frame[0] == name for frame in self._frames())

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def _close(self, name: str, seconds: float, children: float, rows) -> None:
        with self._lock:
            span = self.spans.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "rows": 0}
            )
            span["calls"] += 1
            span["total_s"] += seconds
            span["self_s"] += seconds - children
            if rows is not None:
                span["rows"] += rows

    def call(self, name: str, fn, args, kwargs, rows=None):
        """Run ``fn(*args, **kwargs)`` inside a span called *name*."""
        frames = self._frames()
        if any(frame[0] == name for frame in frames):
            return fn(*args, **kwargs)  # re-entry: the outer call counts
        frame = [name, 0.0]  # name, seconds covered by child spans
        frames.append(frame)
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            seconds = time.perf_counter() - started
            frames.pop()
            if frames:
                frames[-1][1] += seconds
            self._close(name, seconds, frame[1], rows)

    def wrap(self, fn, name: str, rows=None, unless_inside=None, when=None,
             on_result=None):
        """A traced stand-in for *fn*.

        *rows* maps the call's arguments to a row count; *unless_inside*
        names a span inside which the call is not counted on its own;
        *when* is a predicate on the arguments that must hold for the call
        to be counted; *on_result* sees every counted call's return value.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if (unless_inside is not None and self.active(unless_inside)) or (
                when is not None and not when(*args, **kwargs)
            ):
                return fn(*args, **kwargs)
            n = rows(*args, **kwargs) if rows is not None else None
            result = self.call(name, fn, args, kwargs, rows=n)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "spans": {k: dict(v) for k, v in self.spans.items()},
                "counters": dict(self.counters),
            }


def merge(snapshots: list[dict]) -> dict:
    """Sum several tracer snapshots (one per traced process)."""
    out = {"spans": {}, "counters": {}}
    for snap in snapshots:
        for name, span in snap.get("spans", {}).items():
            acc = out["spans"].setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "rows": 0}
            )
            for key in acc:
                acc[key] += span.get(key, 0)
        for name, value in snap.get("counters", {}).items():
            out["counters"][name] = out["counters"].get(name, 0) + value
    return out


# -- what gets wrapped ----------------------------------------------------------
def _rows(_self, x, *args, **kwargs) -> int:
    return int(len(x))


def _has_run_dir(ctx, *args, **kwargs) -> bool:
    return ctx.dir is not None


def _record_search(tracer: Tracer):
    """Fold one ``SearchResult`` into the ``mcts.*`` counters."""

    def on_result(search) -> None:
        leaves = search.n_terminal_cache_hits + (
            search.n_surrogate_evaluations or search.n_exact_evaluations
        )
        tracer.count("mcts.network_evals", search.n_network_evaluations)
        tracer.count("mcts.eval_cache_hits", search.n_eval_cache_hits)
        tracer.count("mcts.exact_evals", search.n_exact_evaluations)
        tracer.count("mcts.terminal_leaves", leaves)

    return on_result


def _count_append(tracer: Tracer, fn):
    def counted(path, record, fsync=False):
        if fsync:
            tracer.count("events.fsync.calls")
        return tracer.call("events.append", fn, (path, record, fsync), {})

    return functools.wraps(fn)(counted)


def _count_cache_get(tracer: Tracer, fn):
    def counted(cache, assignment):
        value = fn(cache, assignment)
        tracer.count("parallel.tcache.misses" if value is None
                     else "parallel.tcache.hits")
        return value

    return functools.wraps(fn)(counted)


def _targets(tracer: Tracer) -> list[tuple[str, str, object]]:
    """``(module, qualified name, wrapper factory)`` for every layer."""

    def span(name, **opts):
        return lambda fn: tracer.wrap(fn, name, **opts)

    targets = [
        ("repro.core.flow", "MCTSGuidedPlacer.place", span("flow.place")),
        ("repro.gp.mixed_size", "MixedSizePlacer.place",
         span("gp.prototype", unless_inside="gp.cell_place")),
        ("repro.gp.mixed_size", "place_cells_with_fixed_macros",
         span("gp.cell_place")),
        ("repro.gp.quadratic", "solve_quadratic_placement", span("gp.qp")),
        ("repro.coarsen.coarse", "coarsen_design", span("coarsen")),
        ("repro.agent.reward", "calibrate_reward", span("agent.calibrate")),
        ("repro.agent.actorcritic", "ActorCriticTrainer.train",
         span("agent.train")),
        ("repro.agent.network", "PolicyValueNet.forward",
         span("agent.forward", rows=_rows)),
        ("repro.agent.network", "PolicyValueNet.forward_eval",
         span("agent.forward", rows=_rows)),
        ("repro.agent.network", "PolicyValueNet.forward_eval_tiled",
         span("agent.forward", rows=_rows)),
        ("repro.agent.network", "PolicyValueNet.backward",
         span("agent.backward")),
        ("repro.env.placement_env",
         "MacroGroupPlacementEnv.evaluate_assignment", span("env.terminal")),
        ("repro.legalize.pipeline", "MacroLegalizer.legalize",
         span("legalize")),
        ("repro.legalize.pipeline", "IncrementalMacroLegalizer.legalize",
         span("legalize")),
        ("repro.legalize.lp_spread", "lp_legalize_axis", span("legalize.lp")),
        ("repro.legalize.sequence_pair", "extract_sequence_pair",
         span("legalize.seqpair")),
        ("repro.mcts.search", "MCTSPlacer.run",
         span("mcts.run", on_result=_record_search(tracer))),
        ("repro.surrogate.hpwl", "GroupCentroidSurrogate.score",
         span("surrogate.score")),
        ("repro.parallel.cache", "TerminalCache.get",
         lambda fn: _count_cache_get(tracer, fn)),
        ("repro.verify.placement", "verify_placement", span("verify")),
        ("repro.utils.events", "append_jsonl",
         lambda fn: _count_append(tracer, fn)),
    ]
    from repro.runtime.harness import RunContext

    for attr in sorted(vars(RunContext)):
        if attr.startswith("save_"):
            targets.append((
                "repro.runtime.harness", f"RunContext.{attr}",
                span("runtime.ckpt", when=_has_run_dir),
            ))
    return targets


def install(tracer: Tracer) -> int:
    """Wrap every layer function; returns the number of bindings patched.

    A module-level function is rebound in every loaded ``repro`` module
    that imported it by name, so callers holding their own reference are
    traced too.  Import the entry points (``repro.cli`` and friends)
    before calling this so those bindings exist.
    """
    patched = 0
    for module_name, qualname, factory in _targets(tracer):
        module = importlib.import_module(module_name)
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = vars(owner)[attr]
            setattr(owner, attr, factory(original))
            patched += 1
            continue
        original = getattr(module, attr)
        traced = factory(original)
        for name, loaded in list(sys.modules.items()):
            if not name.startswith("repro") or loaded is None:
                continue
            if getattr(loaded, attr, None) is original:
                setattr(loaded, attr, traced)
                patched += 1
    return patched
