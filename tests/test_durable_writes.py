"""Every whole-file write goes through ``resources.write_atomic``.

The run dir, the warm cache and the service dir are what let a
placement survive a kill, so each writer of a whole file — the run
manifest, run-dir JSON, the self-checking pickle snapshots, the
positions ``.npz``, the network weights, warm-artifact injection, the
service's JSON and both JSONL compactions — must behave the same on a
full disk: raise :class:`ResourceExhaustedError`, leave the previous
bytes (or no file) in place and leave no ``*.tmp`` behind, whether the
disk is full before the write (the ``disk.enospc`` fault site) or the
write itself fails after its tmp file exists (``fsync`` raising
``ENOSPC``).  A warm-cache store, which publishes a directory, fsyncs
each of its files before the rename.  A run writes its manifest once
per stage.  The last test fills the disk at the weights' write of a
real run, fails with the weights' own error, and resumes it.
"""

from __future__ import annotations

import contextlib
import copy
import errno
import os

import numpy as np
import pytest

from repro.agent.actorcritic import TrainingHistory
from repro.agent.network import NetworkConfig, PolicyValueNet
from repro.core import MCTSGuidedPlacer, PlacerConfig
from repro.netlist.suites import make_iccad04_circuit
from repro.parallel import TerminalCache
from repro.runtime import resources
from repro.runtime.checkpoint import RunDir
from repro.runtime.errors import ResourceExhaustedError
from repro.runtime.faults import Fault, FaultPlan, inject
from repro.runtime.harness import RunContext
from repro.runtime.resources import write_atomic
from repro.service.jobs import DONE, RUNNING, JobSpec, JobStore, write_json_atomic
from repro.service.warm import ARTIFACTS, CHECKSUM_FILE, WarmArtifactCache
from repro.verify.doctor import doctor_run_dir


def _files(root) -> dict[str, bytes]:
    """Every file under *root*, by relative path, with its bytes."""
    found = {}
    for parent, _dirs, names in os.walk(root):
        for name in names:
            path = os.path.join(parent, name)
            with open(path, "rb") as f:
                found[os.path.relpath(path, root)] = f.read()
    return found


# -- the writers: each returns (the dir it writes into, one more write) -----
def _manifest(tmp_path, design):
    run = RunDir(str(tmp_path / "run"))
    run.write_manifest({"stages": {}})
    return run.path, lambda: run.write_manifest(
        {"stages": {"prototype": {"completed": True}}}
    )


def _run_dir_json(tmp_path, design):
    run = RunDir(str(tmp_path / "run"))
    run.save_json("calibration.json", {"zeta": 4})
    return run.path, lambda: run.save_json("calibration.json", {"zeta": 8})


def _pickle_snapshot(tmp_path, design):
    run = RunDir(str(tmp_path / "run"))
    run.save_snapshot("mcts_snapshot.pkl", {"step": 1})
    return run.path, lambda: run.save_snapshot("mcts_snapshot.pkl", {"step": 2})


def _positions(tmp_path, design):
    run = RunDir(str(tmp_path / "run"))
    run.save_positions("prototype", design)
    for node in design.netlist:
        node.x += 1.0
    return run.path, lambda: run.save_positions("prototype", design)


def _weights(tmp_path, design):
    ctx = RunContext(str(tmp_path / "run"), PlacerConfig.fast(), design)
    net = PolicyValueNet(NetworkConfig(zeta=4, channels=4, res_blocks=1, seed=0))
    rng = np.random.default_rng(0)
    ctx.save_training(net, TrainingHistory(), rng)
    for p in net.parameters():
        p.data += 1.0
    return ctx.dir.path, lambda: ctx.save_training(net, TrainingHistory(), rng)


def _warm_inject(tmp_path, design):
    source = tmp_path / "source"
    source.mkdir()
    for name in ARTIFACTS:
        (source / name).write_bytes(name.encode() * 64)
    warm = WarmArtifactCache(str(tmp_path / "warm"))
    assert warm.store("key-a", str(source))
    ctx = RunContext(str(tmp_path / "run"), PlacerConfig.fast(), design)
    return ctx.dir.path, lambda: warm.inject("key-a", ctx)


def _json_atomic(tmp_path, design):
    root = tmp_path / "results"
    root.mkdir()
    path = str(root / "job.json")
    write_json_atomic(path, {"state": RUNNING})
    return str(root), lambda: write_json_atomic(path, {"state": DONE})


def _jobs_compact(tmp_path, design):
    root = tmp_path / "service"
    root.mkdir()
    store = JobStore(str(root / "jobs.jsonl"))
    done = store.add(JobSpec(circuit="ibm01"))
    store.transition(done.id, RUNNING, attempt=1)
    store.transition(done.id, DONE, hpwl=42.5)
    store.add(JobSpec(circuit="ibm02"))
    return str(root), store.compact


def _terminal_cache_compact(tmp_path, design):
    root = tmp_path / "cache"
    root.mkdir()
    cache = TerminalCache("fp", path=str(root / "terminal_cache.jsonl"))
    cache.put([3, 4], 200.0)
    cache.put([1, 2], 100.0)  # compaction sorts the records by key
    return str(root), cache.compact


WRITERS = {
    "manifest": _manifest,
    "run_dir_json": _run_dir_json,
    "pickle_snapshot": _pickle_snapshot,
    "positions_npz": _positions,
    "weights": _weights,
    "warm_inject": _warm_inject,
    "write_json_atomic": _json_atomic,
    "jobs_compact": _jobs_compact,
    "terminal_cache_compact": _terminal_cache_compact,
}


@contextlib.contextmanager
def _full_before_the_write(monkeypatch):
    with inject(FaultPlan(Fault("disk.enospc", at=1, count=None))):
        yield


@contextlib.contextmanager
def _full_during_the_write(monkeypatch):
    """``fsync`` of the written tmp file reports ENOSPC, every time."""
    calls = []

    def fsync(fd):
        calls.append(fd)
        raise OSError(errno.ENOSPC, "disk full")

    monkeypatch.setattr(os, "fsync", fsync)
    yield
    monkeypatch.undo()
    assert calls, "the write never reached a tmp file's fsync"


class TestEveryWholeFileWriter:
    @pytest.mark.parametrize(
        "disk", [_full_before_the_write, _full_during_the_write],
        ids=["enospc_fault", "enospc_in_fsync"],
    )
    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_full_disk_keeps_the_previous_bytes(
        self, writer, disk, tmp_path, small_design, monkeypatch
    ):
        root, write = WRITERS[writer](tmp_path, small_design)
        before = _files(root)
        with disk(monkeypatch):
            with pytest.raises(ResourceExhaustedError):
                write()
        after = _files(root)
        assert not [name for name in after if name.endswith(".tmp")]
        assert after == before

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_a_clean_disk_writes_and_leaves_no_tmp(
        self, writer, tmp_path, small_design
    ):
        root, write = WRITERS[writer](tmp_path, small_design)
        before = _files(root)
        write()
        after = _files(root)
        assert not [name for name in after if name.endswith(".tmp")]
        assert after != before


class TestWriteAtomic:
    def test_bytes_and_text(self, tmp_path):
        path = tmp_path / "a.json"
        write_atomic(str(path), "{}\n")
        assert path.read_bytes() == b"{}\n"
        write_atomic(str(path), b"\x00\xff")
        assert path.read_bytes() == b"\x00\xff"
        assert os.listdir(tmp_path) == ["a.json"]

    def test_other_errors_pass_through_and_remove_the_tmp(self, tmp_path):
        target = tmp_path / "dir"
        target.mkdir()  # os.replace of a file onto a directory fails
        with pytest.raises(IsADirectoryError):
            write_atomic(str(target), b"data")
        assert sorted(os.listdir(tmp_path)) == ["dir"]

    def test_transient_enospc_retries_into_place(self, tmp_path):
        path = tmp_path / "a.json"
        with inject(FaultPlan(Fault("disk.enospc", at=1, count=1))):
            write_atomic(str(path), "new")
        assert path.read_text() == "new"
        assert os.listdir(tmp_path) == ["a.json"]


class TestWarmStore:
    def test_every_file_is_fsynced_before_the_entry_is_renamed(
        self, tmp_path, monkeypatch
    ):
        """A published entry never holds unsynced files, and a store still
        takes exactly one ``disk.enospc`` arrival."""
        source = tmp_path / "source"
        source.mkdir()
        for name in ARTIFACTS:
            (source / name).write_bytes(name.encode() * 64)
        warm = WarmArtifactCache(str(tmp_path / "warm"))
        log = []
        fsync, replace = os.fsync, os.replace

        def recording_fsync(fd):
            log.append(("fsync", os.fstat(fd).st_ino))
            fsync(fd)

        def recording_replace(src, dst):
            log.append(("replace", str(dst)))
            replace(src, dst)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        monkeypatch.setattr(os, "replace", recording_replace)
        plan = FaultPlan(Fault("disk.enospc", at=10**9))
        with inject(plan):
            assert warm.store("key-a", str(source))
        monkeypatch.undo()
        assert plan.faults[0].arrivals == 1
        entry = tmp_path / "warm" / "key-a"
        renamed = log.index(("replace", str(entry)))
        synced = {ino for op, ino in log[:renamed] if op == "fsync"}
        for name in (*ARTIFACTS, CHECKSUM_FILE):
            assert os.stat(entry / name).st_ino in synced, name
        assert warm.validate("key-a")


class TestManifestWrittenAtStageMarks:
    def test_a_fast_ibm01_run_writes_its_manifest_once_per_stage(
        self, tmp_path, monkeypatch
    ):
        """Artifact digests are recorded in memory and written with their
        stage's completion mark: a fresh run writes its manifest once on
        creation and once per stage, and no snapshot has an entry in it."""
        writes = []
        write_manifest = RunDir.write_manifest

        def counting(run, manifest):
            writes.append(sorted(manifest["stages"]))
            write_manifest(run, manifest)

        monkeypatch.setattr(RunDir, "write_manifest", counting)
        cfg = PlacerConfig.fast(seed=0)
        run_dir = str(tmp_path / "run")
        MCTSGuidedPlacer(cfg).place(
            make_iccad04_circuit("ibm01").design, run_dir=run_dir
        )
        monkeypatch.undo()
        assert len(writes) <= 8
        assert writes[0] == []  # the fresh manifest, once
        manifest = RunDir(run_dir).read_manifest()
        assert len(manifest["stages"]) == 6
        assert sorted(manifest["checksums"]) == [
            "calibration.json", "final.json", "final_positions.npz",
            "network.npz", "prototype.npz", "search.json", "training.json",
        ]
        report = doctor_run_dir(run_dir)
        assert report.ok, report.to_json()


class TestFullDiskAtTheWeightsWrite:
    def test_run_fails_then_resumes_bit_for_bit(self, tmp_path, monkeypatch):
        """ibm01 at the fast preset: a disk that fills at the weights'
        write (and never frees) fails the run with ``rl_training``
        unmarked; a resume on a clean disk equals the uninterrupted run."""
        cfg = PlacerConfig.fast(seed=0)
        base = make_iccad04_circuit("ibm01").design
        labels = []
        guarded = resources.guarded_write

        def recording(label, write, retries=1):
            labels.append(label)
            return guarded(label, write, retries)

        monkeypatch.setattr(resources, "guarded_write", recording)
        ref = MCTSGuidedPlacer(cfg).place(
            copy.deepcopy(base), run_dir=str(tmp_path / "ref")
        )
        monkeypatch.undo()
        # one disk.enospc arrival per guarded write on a clean disk
        at = labels.index("write:network.npz") + 1

        run_dir = str(tmp_path / "run")
        with inject(FaultPlan(Fault("disk.enospc", at=at, count=None))):
            with pytest.raises(ResourceExhaustedError) as failed:
                MCTSGuidedPlacer(cfg).place(copy.deepcopy(base), run_dir=run_dir)
        # the weights' own error, not the stage_failed append's after it
        assert failed.value.details["label"] == "write:network.npz"
        assert failed.value.stage == "rl_training"
        manifest = RunDir(run_dir).read_manifest()
        assert "calibration" in manifest["stages"]
        assert "rl_training" not in manifest["stages"]
        assert not os.path.exists(os.path.join(run_dir, "network.npz"))
        assert not [n for n in os.listdir(run_dir) if n.endswith(".tmp")]

        resumed = MCTSGuidedPlacer(cfg).place(
            copy.deepcopy(base), run_dir=run_dir, resume=True
        )
        assert resumed.hpwl == ref.hpwl
        assert resumed.assignment == ref.assignment
        assert not [n for n in os.listdir(run_dir) if n.endswith(".tmp")]
        report = doctor_run_dir(run_dir, design=copy.deepcopy(base), zeta=cfg.zeta)
        assert report.ok, report.to_json()
