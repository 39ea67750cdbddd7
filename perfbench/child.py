"""Placing process of the benchmark: one flow run, or one service daemon.

    python3 child.py place --spec JSON --out FILE [--trace]
    python3 child.py serve [--trace-out FILE] -- <repro serve arguments>

``place`` does what ``repro place --verify`` does -- build the suite
design, take the ``benchmark`` preset, apply the workload's knob
overrides, run the flow with verification -- and writes one JSON record
with the flow's start and end times on the system-wide monotonic clock,
the HPWL and the verifier's verdict.  ``serve`` runs ``repro serve``
unchanged.  With tracing on, the layer wrappers of :mod:`spans` are
installed before anything runs and their tallies are written out at the
end.  The parent pins the BLAS thread count through the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

#: modules loaded before the wrappers go in, so every by-name import of a
#: wrapped function already exists when ``spans.install`` rebinds it
ENTRY_MODULES = (
    "repro.cli", "repro.core.flow", "repro.service", "repro.service.service",
    "repro.verify", "repro.parallel", "repro.legalize", "repro.gp",
)


def _tracer(enabled: bool):
    if not enabled:
        return None
    import importlib

    from spans import Tracer, install

    for name in ENTRY_MODULES:
        importlib.import_module(name)
    tracer = Tracer()
    install(tracer)
    return tracer


def place(spec: dict) -> tuple[int, dict]:
    from dataclasses import replace

    from repro.core.config import PlacerConfig, apply_overrides
    from repro.core.flow import MCTSGuidedPlacer
    from repro.runtime.errors import PlacementError
    from repro.service.jobs import resolve_design

    record: dict = {}
    try:
        _name, design = resolve_design(
            circuit=spec["circuit"], scale=spec["scale"],
            macro_scale=spec["macro_scale"],
        )
        config = apply_overrides(
            PlacerConfig.benchmark(seed=spec["seed"]), spec["overrides"]
        )
        config = replace(config, verify_results=True, **spec["execution"])
        record["flow_start"] = time.monotonic()
        result = MCTSGuidedPlacer(config).place(
            design, run_dir=spec.get("run_dir")
        )
        record["flow_end"] = time.monotonic()
    except PlacementError as exc:
        record["error"] = {"kind": type(exc).__name__, "message": str(exc)}
        return exc.exit_code, record
    record.update(
        hpwl=result.hpwl,
        verified=bool(result.verification and result.verification.ok),
    )
    return 0, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)
    p_place = sub.add_parser("place")
    p_place.add_argument("--spec", required=True)
    p_place.add_argument("--out", required=True)
    p_place.add_argument("--trace", action="store_true")
    p_serve = sub.add_parser("serve")
    p_serve.add_argument("--trace-out", default=None)
    p_serve.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)

    if args.mode == "place":
        tracer = _tracer(args.trace)
        code, record = place(json.loads(args.spec))
        if tracer is not None:
            record["trace"] = tracer.snapshot()
        with open(args.out, "w") as f:
            json.dump(record, f)
        return code

    tracer = _tracer(args.trace_out is not None)
    from repro.cli import main as repro_main

    serve_args = [a for a in args.serve_args if a != "--"]
    code = repro_main(["serve", *serve_args])
    if tracer is not None:
        with open(args.trace_out, "w") as f:
            json.dump(tracer.snapshot(), f)
    return code


if __name__ == "__main__":
    sys.exit(main())
