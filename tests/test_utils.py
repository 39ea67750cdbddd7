"""Utility tests: RNG plumbing, stopwatch, tolerant JSONL reading."""

import json
import time

import numpy as np
import pytest

from repro.utils.events import read_jsonl
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
