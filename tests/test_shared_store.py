"""Tests for the concurrency-safe on-disk store layer (:mod:`repro.store`).

Covers the three primitives every cache builds on — atomic snapshot
writes, the append-only journal, the content-addressed directory store —
plus the regression the layer exists for: a writer killed mid-save must
never corrupt or truncate the previous store, and concurrent writer
processes must never lose each other's records.
"""

from __future__ import annotations

import multiprocessing
import os

import numpy as np
import pytest

from repro.dsp.feature_cache import FeatureCache
from repro.similarity.score_cache import PairScoreCache
from repro.store import (
    ContentDirectoryStore,
    Journal,
    atomic_write_bytes,
    atomic_write_text,
)

_CTX = multiprocessing.get_context("fork")


# ------------------------------------------------------------ atomic writes


def test_atomic_write_replaces_complete_content(tmp_path):
    path = str(tmp_path / "store.json")
    atomic_write_text(path, "old")
    atomic_write_text(path, "new content")
    with open(path, encoding="utf-8") as handle:
        assert handle.read() == "new content"


def test_atomic_write_leaves_no_temp_litter(tmp_path):
    path = str(tmp_path / "store.bin")
    atomic_write_bytes(path, b"x" * 1024)
    assert sorted(os.listdir(tmp_path)) == ["store.bin"]


def test_atomic_write_failure_keeps_old_file_and_cleans_up(tmp_path,
                                                           monkeypatch):
    path = str(tmp_path / "store.json")
    atomic_write_text(path, "intact")

    def exploding_replace(src, dst):
        raise OSError("injected replace failure")

    monkeypatch.setattr(os, "replace", exploding_replace)
    with pytest.raises(OSError, match="injected"):
        atomic_write_text(path, "never lands")
    monkeypatch.undo()
    with open(path, encoding="utf-8") as handle:
        assert handle.read() == "intact"
    assert sorted(os.listdir(tmp_path)) == ["store.json"]


# ---------------------------------------------------------------- journal


def test_journal_roundtrip_and_incremental_replay(tmp_path):
    path = str(tmp_path / "j.jsonl")
    writer = Journal(path)
    writer.append({"k": "a", "v": 1})
    writer.append({"k": "b", "v": 2})

    reader = Journal(path)
    assert [r["k"] for r in reader.replay()] == ["a", "b"]
    assert reader.replay() == []  # nothing new

    writer.append({"k": "c", "v": 3})
    assert [r["k"] for r in reader.replay()] == ["c"]


def test_journal_in_progress_tail_is_reread_later(tmp_path):
    path = str(tmp_path / "j.jsonl")
    writer = Journal(path)
    writer.append({"k": "a", "v": 1})
    reader = Journal(path)
    reader.replay()

    with open(path, "ab") as handle:
        handle.write(b'{"k":"torn"')  # a writer died mid-append
    assert reader.replay() == [], "an unterminated tail must not be consumed"

    with open(path, "ab") as handle:
        handle.write(b',"v":2}\n')  # the append completes after all
    assert [r["k"] for r in reader.replay()] == ["torn"]
    assert reader.corrupt_lines == 0


def test_journal_corrupt_line_skipped_and_counted(tmp_path):
    path = str(tmp_path / "j.jsonl")
    writer = Journal(path)
    writer.append({"k": "a", "v": 1})
    with open(path, "ab") as handle:
        handle.write(b"%% not json %%\n")
        handle.write(b'[1, 2, 3]\n')  # complete JSON but not an object
    writer.append({"k": "b", "v": 2})

    reader = Journal(path)
    assert [r["k"] for r in reader.replay()] == ["a", "b"]
    assert reader.corrupt_lines == 2


def test_journal_compaction_resets_stale_readers(tmp_path):
    path = str(tmp_path / "j.jsonl")
    writer = Journal(path)
    for i in range(10):
        writer.append({"k": f"k{i}", "v": i})
    reader = Journal(path)
    assert len(reader.replay()) == 10

    writer.rewrite([{"k": "only", "v": 0}])  # compaction shrinks the file
    assert [r["k"] for r in reader.replay()] == ["only"], \
        "a reader past the new EOF must restart from the top"


def _journal_hammer(path: str, writer_id: int, n_records: int) -> None:
    journal = Journal(path)
    for i in range(n_records):
        journal.append({"w": writer_id, "i": i})


@pytest.mark.timeout(60)
def test_journal_concurrent_processes_lose_no_records(tmp_path):
    path = str(tmp_path / "hammer.jsonl")
    n_writers, per_writer = 4, 50
    procs = [_CTX.Process(target=_journal_hammer,
                          args=(path, writer_id, per_writer))
             for writer_id in range(n_writers)]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=30)
        assert proc.exitcode == 0

    records = Journal(path).replay()
    assert len(records) == n_writers * per_writer
    seen = {(r["w"], r["i"]) for r in records}
    assert seen == {(w, i) for w in range(n_writers)
                    for i in range(per_writer)}, \
        "concurrent appends must neither interleave nor vanish"


# ----------------------------------------------------- journal-backed caches


def _cache_writer_process(path: str, writer_id: int, n: int) -> None:
    cache = PairScoreCache(path=path)
    for i in range(n):
        cache.put(f"w{writer_id}-{i}", float(writer_id) + i / 1000.0)


@pytest.mark.timeout(60)
def test_score_cache_concurrent_writer_processes(tmp_path):
    path = str(tmp_path / "scores.jsonl")
    n_writers, per_writer = 3, 40
    procs = [_CTX.Process(target=_cache_writer_process,
                          args=(path, writer_id, per_writer))
             for writer_id in range(n_writers)]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=30)
        assert proc.exitcode == 0

    merged = PairScoreCache(path=path)
    assert len(merged) == n_writers * per_writer
    for writer_id in range(n_writers):
        for i in range(per_writer):
            assert merged.get(f"w{writer_id}-{i}") == pytest.approx(
                float(writer_id) + i / 1000.0)


def test_journal_cache_save_compacts_duplicates(tmp_path):
    path = str(tmp_path / "s.jsonl")
    cache = PairScoreCache(path=path)
    for _ in range(5):
        cache.put("same-key", 0.5)  # five journal lines, one logical entry
    assert sum(1 for _ in open(path)) == 5
    cache.save()
    assert sum(1 for _ in open(path)) == 1
    assert PairScoreCache(path=path).get("same-key") == 0.5


# --------------------------------------------------- content-directory store


def test_directory_store_roundtrip_and_shared_reads(tmp_path):
    directory = str(tmp_path / "features")
    store = ContentDirectoryStore(directory)
    matrix = np.arange(20, dtype=np.float64).reshape(4, 5)
    store.write("key-a", matrix)

    other = ContentDirectoryStore(directory)
    assert np.array_equal(other.read("key-a"), matrix)
    assert other.read("missing") is None
    assert len(other) == 1


def test_directory_store_corrupt_entry_is_a_miss(tmp_path):
    directory = str(tmp_path / "features")
    store = ContentDirectoryStore(directory)
    store.write("good", np.ones((2, 2)))
    with open(store._entry_path("bad"), "wb") as handle:
        handle.write(b"not an npz file")

    assert store.read("bad") is None
    items = store.items()
    assert [key for key, _ in items] == ["good"]


def _feature_writer_process(directory: str, writer_id: int, n: int) -> None:
    cache = FeatureCache(path=directory)
    for i in range(n):
        # Overlapping keys across writers: identical values by design
        # (entries are pure functions of their key), so whoever lands
        # last installs the same bytes.
        key = f"shared-{i}"
        cache.put(key, np.full((3, 3), float(i)))


@pytest.mark.timeout(60)
def test_feature_directory_concurrent_writers_agree(tmp_path):
    directory = str(tmp_path / "features")
    procs = [_CTX.Process(target=_feature_writer_process,
                          args=(directory, writer_id, 20))
             for writer_id in range(3)]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=30)
        assert proc.exitcode == 0

    store = ContentDirectoryStore(directory)
    assert len(store) == 20
    for i in range(20):
        assert np.array_equal(store.read(f"shared-{i}"),
                              np.full((3, 3), float(i)))


# ------------------------------------------------------- property (hypothesis)


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

_KEYS = st.text(alphabet="abcdef", min_size=1, max_size=4)
_RECORDS = st.lists(st.tuples(_KEYS, st.floats(allow_nan=False,
                                               allow_infinity=False,
                                               width=32)),
                    max_size=30)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(records=_RECORDS, split=st.integers(min_value=0, max_value=30))
def test_journal_merge_keeps_last_write_per_key(tmp_path_factory, records,
                                                split):
    """Two interleaved writers; replay == append order; merge == last wins."""
    tmp_path = tmp_path_factory.mktemp("journal-prop")
    path = str(tmp_path / "p.jsonl")
    writer_a, writer_b = Journal(path), Journal(path)
    for i, (key, value) in enumerate(records):
        writer = writer_a if i < split else writer_b
        writer.append({"k": key, "v": value})

    replayed = Journal(path).replay()
    assert [(r["k"], r["v"]) for r in replayed] \
        == [(k, float(v)) for k, v in records]

    cache = PairScoreCache(path=path)
    expected: dict[str, float] = {}
    for key, value in records:
        expected[key] = float(value)
    assert len(cache) == len(expected)
    for key, value in expected.items():
        assert cache.get(key) == value


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(chunks=st.lists(st.lists(st.tuples(_KEYS, st.integers(0, 99)),
                                max_size=10),
                       max_size=5))
def test_journal_refresh_is_idempotent_across_chunks(tmp_path_factory,
                                                     chunks):
    """refresh() after each chunk sees exactly the new records, once."""
    tmp_path = tmp_path_factory.mktemp("journal-prop")
    path = str(tmp_path / "p.jsonl")
    writer = Journal(path)
    reader = Journal(path)
    total = 0
    for chunk in chunks:
        for key, value in chunk:
            writer.append({"k": key, "v": value})
        got = reader.replay()
        assert [(r["k"], r["v"]) for r in got] == [(k, v) for k, v in chunk]
        total += len(chunk)
    assert reader.replay() == []
    assert len(Journal(path).replay()) == total
