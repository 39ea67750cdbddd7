"""Run-directory layout: stage artifacts + the JSON run manifest.

A run dir makes a flow run durable.  Layout::

    <run_dir>/
      manifest.json           # stages completed, config/design fingerprints
      events.jsonl            # structured event log (utils.events)
      prototype.npz           # node positions after the prototype GP
      calibration.json        # Eq. 9 constants + post-calibration RNG state
      network.npz             # trained PolicyValueNet weights + BN stats
      training.json           # TrainingHistory telemetry + RNG state
      training_snapshot.pkl   # intra-stage RL snapshot (deleted on completion)
      mcts_snapshot.pkl       # intra-stage MCTS snapshot (deleted on completion)
      search.json             # committed MCTS SearchResult
      final.json              # final HPWL (+ optional legalized-cell HPWL)
      final_positions.npz     # node coordinates of the final placement

Every file is written whole through
:func:`repro.runtime.resources.write_atomic` (an fsynced tmp file renamed
onto the target, ENOSPC-guarded), so a kill or a full disk mid-write
leaves the previous version in place.  The manifest records the sha256
of each stage artifact; it is written when a stage is marked complete,
so a stage's digests and its completion mark land in one write.  The
two intra-stage snapshots are rewritten far more often than any stage
completes, so they check themselves instead: a snapshot file is a
one-line header carrying the sha256 of the pickle payload that follows
it (:func:`seal_snapshot`), and a damaged one is detected at load time
(:func:`unseal_snapshot`) and treated as absent.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import os
import pickle
import time

import numpy as np

from repro.runtime.errors import UsageError
from repro.runtime.resources import write_atomic

MANIFEST = "manifest.json"
EVENTS = "events.jsonl"
TRAINING_SNAPSHOT = "training_snapshot.pkl"
MCTS_SNAPSHOT = "mcts_snapshot.pkl"
#: the intra-stage snapshots, each a self-checking file
SNAPSHOTS = (TRAINING_SNAPSHOT, MCTS_SNAPSHOT)
#: start of a snapshot's header line; the payload's hex digest follows
SNAPSHOT_HEADER = b"repro-snapshot sha256:"

#: canonical stage order of Algorithm 1
STAGES = ("prototype", "preprocess", "calibration", "rl_training", "mcts", "final")


def config_fingerprint(config) -> str:
    """Stable hash of every result-affecting knob of a PlacerConfig.

    ``run_dir``/``resume`` are where/how the run persists, not what it
    computes, so they are excluded — a run may be resumed with a different
    run-dir path spelling or from a config that only flips ``resume``.
    ``terminal_cache_path`` is likewise excluded: the cache is a pure
    accelerator, so a run may be resumed with a different cache location.
    ``verify_results`` only re-checks a finished placement (it can fail
    a run, never change its coordinates), so verified and unverified
    runs share warm artifacts and resume each other freely.
    ``exact_topk`` stays IN the fingerprint: a finite K changes which
    terminal leaves receive exact values, so two runs differing in K are
    different computations.
    """
    payload = _fingerprint_payload(config)
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


#: knobs excluded from every fingerprint: where/how a run persists or
#: executes, never what it computes (see :func:`config_fingerprint`).
_EXECUTION_KNOBS = (
    "run_dir",
    "resume",
    "terminal_cache_path",
    "verify_results",
)

#: deleted knobs, hashed at the only value they ever ran with in the
#: presets, so fingerprints taken while they existed (run dirs, warm keys)
#: still match
_RETIRED_KNOBS = {"rollout_envs": 1}
_RETIRED_MCTS_KNOBS = {"leaf_batch": 1, "virtual_loss": 1.0}


def _fingerprint_payload(config) -> dict:
    """``asdict(config)`` without the execution knobs, with the retired ones."""
    payload = dataclasses.asdict(config)
    for knob in _EXECUTION_KNOBS:
        payload.pop(knob, None)
    payload.update(_RETIRED_KNOBS)
    payload["mcts"].update(_RETIRED_MCTS_KNOBS)
    return payload


#: result-affecting knobs that only the *post-training* stages consume.
#: Calibration and RL pre-training never read the MCTS section (or the
#: ``exact_topk`` mirror into it), the MCTS stage budget, or the optional
#: final cell legalization — see ``core/flow.py``: stages 3–4 touch none
#: of them.  Two configs equal everywhere else therefore compute
#: byte-identical ``calibration.json`` / ``network.npz`` /
#: ``training.json`` artifacts.
_POST_TRAINING_KNOBS = (
    "mcts",
    "exact_topk",
    "mcts_budget_seconds",
    "legalize_cells",
)


def pretraining_fingerprint(config) -> str:
    """Stable hash of every knob that influences *pre-training* artifacts.

    Coarser than :func:`config_fingerprint`: search-only knobs
    (:data:`_POST_TRAINING_KNOBS`) are excluded on top of the execution
    knobs, so two configs that differ only in MCTS settings — a PUCT-c or
    γ sweep point, a different ``exact_topk`` — share one fingerprint.
    The warm-artifact cache keys on this, which is what lets a
    design-space-exploration study pay for pre-training once per unique
    (pre-training config × design) and serve every other sweep point
    warm, bit-for-bit.
    """
    payload = _fingerprint_payload(config)
    for knob in _POST_TRAINING_KNOBS:
        payload.pop(knob, None)
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def seal_snapshot(obj: object) -> bytes:
    """*obj* pickled, behind a header line carrying the payload's sha256."""
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(payload).hexdigest().encode()
    return SNAPSHOT_HEADER + digest + b"\n" + payload


def unseal_snapshot(data: bytes) -> tuple[bytes, bool]:
    """``(payload, intact)`` of a snapshot file's bytes: *intact* when
    the header line carries the sha256 of the payload that follows it.
    A file in any other format (a bare pickle of an older run) reads as
    damaged."""
    header, _, payload = data.partition(b"\n")
    digest = hashlib.sha256(payload).hexdigest().encode()
    return payload, header == SNAPSHOT_HEADER + digest


def design_fingerprint(design) -> dict:
    """Coarse identity of a design: enough to catch resuming the wrong one."""
    nl = design.netlist
    return {
        "name": nl.name,
        "n_nodes": len(nl),
        "n_nets": len(nl.nets),
    }


class RunDir:
    """Artifact store + manifest for one flow run."""

    def __init__(self, path: str) -> None:
        self.path = path
        try:
            os.makedirs(path, exist_ok=True)
        except OSError as exc:
            raise UsageError(
                f"cannot create run dir: {exc}", run_dir=path
            ) from exc
        self.manifest_path = os.path.join(path, MANIFEST)
        self.events_path = os.path.join(path, EVENTS)

    # -- manifest -------------------------------------------------------------
    def read_manifest(self) -> dict | None:
        if not os.path.exists(self.manifest_path):
            return None
        with open(self.manifest_path) as f:
            try:
                return json.load(f)
            except json.JSONDecodeError as exc:
                # Manifest writes are atomic, so this is external damage
                # (disk fault, hand edit) — refuse clearly, don't trace back.
                raise UsageError(
                    f"run manifest is corrupt: {exc}",
                    run_dir=self.path,
                ) from exc

    def write_manifest(self, manifest: dict) -> None:
        write_atomic(self.manifest_path, json.dumps(manifest, indent=2))

    def init_manifest(self, config, design, resume: bool) -> dict:
        """Create or validate the manifest against *config*/*design*."""
        fingerprint = config_fingerprint(config)
        design_fp = design_fingerprint(design)
        manifest = self.read_manifest() if resume else None
        if manifest is not None:
            if manifest.get("config_fingerprint") != fingerprint:
                raise UsageError(
                    "run dir was created with a different configuration",
                    run_dir=self.path,
                    expected=manifest.get("config_fingerprint"),
                    got=fingerprint,
                )
            if manifest.get("design") != design_fp:
                raise UsageError(
                    "run dir was created for a different design",
                    run_dir=self.path,
                    expected=manifest.get("design"),
                    got=design_fp,
                )
            return manifest
        manifest = {
            "version": 1,
            "created": time.time(),
            "config_fingerprint": fingerprint,
            "design": design_fp,
            "stages": {},
        }
        self.write_manifest(manifest)
        return manifest

    # -- file helpers ---------------------------------------------------------
    def file(self, name: str) -> str:
        return os.path.join(self.path, name)

    def save_snapshot(self, name: str, obj: object) -> None:
        """Write *obj* as a self-checking snapshot (:func:`seal_snapshot`)."""
        write_atomic(self.file(name), seal_snapshot(obj))

    def read_snapshot(self, name: str) -> tuple[bytes, bool] | None:
        """:func:`unseal_snapshot` of the file *name* (None when absent)."""
        try:
            with open(self.file(name), "rb") as f:
                data = f.read()
        except FileNotFoundError:
            return None
        return unseal_snapshot(data)

    def remove(self, name: str) -> None:
        try:
            os.remove(self.file(name))
        except FileNotFoundError:
            pass

    def save_json(self, name: str, payload: dict) -> None:
        write_atomic(self.file(name), json.dumps(payload, indent=2))

    def load_json(self, name: str) -> dict | None:
        path = self.file(name)
        if not os.path.exists(path):
            return None
        with open(path) as f:
            return json.load(f)

    # -- node positions -------------------------------------------------------
    def save_positions(self, name: str, design) -> None:
        nl = design.netlist
        names = np.array([node.name for node in nl])
        xs = np.array([node.x for node in nl], dtype=float)
        ys = np.array([node.y for node in nl], dtype=float)
        buf = io.BytesIO()
        np.savez(buf, names=names, x=xs, y=ys)
        write_atomic(self.file(name + ".npz"), buf.getvalue())

    def load_positions(self, name: str, design) -> None:
        """Restore saved coordinates onto *design* (validated by node name)."""
        with np.load(self.file(name + ".npz"), allow_pickle=False) as data:
            names = [str(n) for n in data["names"]]
            xs, ys = data["x"], data["y"]
        nl = design.netlist
        if len(names) != len(nl):
            raise UsageError(
                f"positions checkpoint {name!r} covers {len(names)} nodes, "
                f"design has {len(nl)}",
                run_dir=self.path,
            )
        for node_name, x, y in zip(names, xs, ys):
            node = nl[node_name]
            node.x = float(x)
            node.y = float(y)
