"""Utility tests: RNG plumbing, stopwatch, JSONL appends and tolerant
reading."""

import json
import os
import tempfile
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils import events as events_module
from repro.utils.events import EventLog, append_jsonl, read_jsonl
from repro.utils.rng import ensure_rng, spawn_rng
from repro.utils.timer import Stopwatch, timed


class TestReadJsonl:
    """The shared tolerant reader behind the event log, the terminal
    cache, and the service job journal."""

    def test_missing_file_is_empty(self, tmp_path):
        assert read_jsonl(str(tmp_path / "nope.jsonl")) == []

    def test_skips_torn_and_non_dict_records(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text(
            json.dumps({"a": 1}) + "\n"
            + "[1, 2, 3]\n"          # valid JSON, wrong shape
            + '"just a string"\n'
            + json.dumps({"b": 2}) + "\n"
            + '{"torn": tr'           # killed mid-append
        )
        assert read_jsonl(str(path)) == [{"a": 1}, {"b": 2}]

    def test_flipped_high_bit_drops_only_that_record(self, tmp_path):
        """The writers emit pure ASCII, so a flipped bit 7 leaves a byte
        that is not UTF-8: that one line is skipped, not raised on."""
        path = tmp_path / "log.jsonl"
        path.write_text("".join(json.dumps({"k": i}) + "\n" for i in range(3)))
        data = bytearray(path.read_bytes())
        data[2] ^= 0x80  # inside the first record
        path.write_bytes(bytes(data))
        assert read_jsonl(str(path)) == [{"k": 1}, {"k": 2}]


_RECORD = st.dictionaries(
    st.text(min_size=1, max_size=4),
    st.one_of(st.integers(-10**6, 10**6), st.text(max_size=6), st.booleans()),
    max_size=3,
)


class TestAppendJsonl:
    def test_record_after_a_torn_tail_survives(self, tmp_path):
        """A kill mid-append leaves a fragment with no newline; the next
        append starts a fresh line instead of gluing onto it, and clean
        appends add no blank line."""
        path = tmp_path / "log.jsonl"
        append_jsonl(str(path), {"a": 1})
        with open(path, "a") as f:
            f.write('{"a": 2, "tor')  # killed mid-append
        append_jsonl(str(path), {"a": 3})
        append_jsonl(str(path), {"a": 4})
        assert read_jsonl(str(path)) == [{"a": 1}, {"a": 3}, {"a": 4}]
        assert path.read_text() == (
            '{"a": 1}\n{"a": 2, "tor\n{"a": 3}\n{"a": 4}\n'
        )

    @settings(max_examples=150, deadline=None)
    @given(
        calls=st.lists(
            st.one_of(_RECORD, st.lists(_RECORD, min_size=1, max_size=4)),
            min_size=1,
            max_size=6,
        ),
        cut=st.floats(0.0, 1.0),
    )
    def test_torn_batched_appends(self, calls, cut):
        """A file built from single-record and multi-record appends, cut at
        any byte, reads back as its complete records, and the next append
        starts on its own line."""
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "log.jsonl")
            for call in calls:
                append_jsonl(path, call)
            with open(path, "rb") as f:
                data = f.read()
            records = [
                r for call in calls
                for r in ([call] if isinstance(call, dict) else call)
            ]
            lines = data.split(b"\n")[:-1]
            assert len(lines) == len(records)
            k = round(cut * len(data))
            with open(path, "r+b") as f:
                f.truncate(k)
            # a record is complete when its JSON text ends before the cut
            ends = np.cumsum([len(line) + 1 for line in lines]) - 1
            assert read_jsonl(path) == [r for r, end in zip(records, ends) if end <= k]

            append_jsonl(path, [{"next": 1}])
            with open(path, "rb") as f:
                tail = f.read()[k:]
            torn = k > 0 and data[k - 1:k] != b"\n"
            assert tail == (b"\n" if torn else b"") + b'{"next": 1}\n'
            assert read_jsonl(path)[-1] == {"next": 1}


class TestEventLogBatch:
    """Events emitted inside ``EventLog.batch`` reach the file in one
    fsynced append when the block ends."""

    @staticmethod
    def _count_appends(monkeypatch):
        calls = []
        append = events_module.append_jsonl

        def counted(path, record, fsync=False):
            calls.append((len(record) if isinstance(record, list) else 1, fsync))
            return append(path, record, fsync)

        monkeypatch.setattr(events_module, "append_jsonl", counted)
        return calls

    def test_one_append_per_batch(self, tmp_path, monkeypatch):
        calls = self._count_appends(monkeypatch)
        path = str(tmp_path / "events.jsonl")
        log = EventLog(path)
        heard = []
        log.listener = heard.append
        with log.batch():
            with log.batch():  # an inner batch joins the outer one
                log.emit("a", stage="s", k=1)
            log.emit("b", k=2)
            log.emit("c")
            assert len(heard) == 3 and read_jsonl(path) == []
        assert calls == [(3, True)]
        assert read_jsonl(path) == [e.to_json() for e in log.events]
        log.emit("d")
        assert calls == [(3, True), (1, True)]

    def test_block_that_raises_still_writes(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        log = EventLog(path)
        with pytest.raises(RuntimeError, match="boom"):
            with log.batch():
                log.emit("a")
                raise RuntimeError("boom")
        assert [r["event"] for r in read_jsonl(path)] == ["a"]

    def test_failed_write_does_not_hide_the_block_exception(self, tmp_path, monkeypatch):
        def full_disk(path, record, fsync=False):
            raise OSError(28, "no space left")

        monkeypatch.setattr(events_module, "append_jsonl", full_disk)
        log = EventLog(str(tmp_path / "events.jsonl"))
        with pytest.raises(RuntimeError, match="boom"):
            with log.batch():
                log.emit("a")
                raise RuntimeError("boom")
        with pytest.raises(OSError):
            with log.batch():
                log.emit("b")
        assert [e.name for e in log.events] == ["a", "b"]

    def test_no_file_no_write(self, monkeypatch):
        calls = self._count_appends(monkeypatch)
        log = EventLog()
        with log.batch():
            log.emit("a")
        assert calls == [] and log.count("a") == 1


class TestRng:
    def test_seed_deterministic(self):
        assert ensure_rng(42).random() == ensure_rng(42).random()

    def test_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert ensure_rng(g) is g

    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_numpy_integer_accepted(self):
        assert isinstance(ensure_rng(np.int64(7)), np.random.Generator)

    def test_bad_type_rejected(self):
        with pytest.raises(TypeError):
            ensure_rng("seed")

    def test_spawn_independent_children(self):
        parent = ensure_rng(0)
        a, b = spawn_rng(parent, 2)
        assert a.random() != b.random()

    def test_spawn_deterministic(self):
        xs = [c.random() for c in spawn_rng(ensure_rng(5), 3)]
        ys = [c.random() for c in spawn_rng(ensure_rng(5), 3)]
        assert xs == ys

    def test_spawn_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn_rng(ensure_rng(0), -1)

    def test_spawn_zero_ok(self):
        assert spawn_rng(ensure_rng(0), 0) == []


class TestStopwatch:
    def test_accumulates(self):
        sw = Stopwatch()
        with sw.measure("a"):
            time.sleep(0.01)
        with sw.measure("a"):
            time.sleep(0.01)
        assert sw.total("a") >= 0.02

    def test_unknown_stage_zero(self):
        assert Stopwatch().total("nope") == 0.0

    def test_overall_sums(self):
        sw = Stopwatch()
        with sw.measure("a"):
            pass
        with sw.measure("b"):
            pass
        assert sw.overall() == pytest.approx(sw.total("a") + sw.total("b"))

    def test_measure_survives_exception(self):
        sw = Stopwatch()
        with pytest.raises(RuntimeError):
            with sw.measure("x"):
                raise RuntimeError("boom")
        assert sw.total("x") > 0

    def test_timed_elapsed(self):
        with timed() as elapsed:
            time.sleep(0.01)
            assert elapsed() >= 0.01
