"""Tests for the one content cache and its three kinds.

The LRU, statistics, disk stores and policy resolver live once in
:mod:`repro.content_cache`, so their tests run once per kind:
:class:`TranscriptionCache`, :class:`PairScoreCache` and
:class:`FeatureCache`.  The compatibility test loads cache files written
by the three separate cache classes this module replaced
(``tests/fixtures/cache_formats``); their keys and values must come back
unchanged.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import sys
import threading

import numpy as np
import pytest

import repro.content_cache as content_cache
from repro.asr.base import Transcription
from repro.audio.waveform import Waveform
from repro.build import build
from repro.dsp.engine import FeatureEngine
from repro.dsp.feature_cache import FeatureCache, samples_fingerprint
from repro.errors import UnknownComponentError
from repro.pipeline.cache import TranscriptionCache, waveform_fingerprint
from repro.pipeline.engine import TranscriptionEngine
from repro.similarity.engine import SimilarityEngine
from repro.similarity.score_cache import PairScoreCache
from repro.specs import DetectorSpec

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "cache_formats")


def _transcription(i: int) -> Transcription:
    return Transcription(text=f"text {i}", phonemes=("t", "e"),
                         frame_labels=("t", "t", "e"), asr_name="T",
                         elapsed_seconds=0.01 * i, extra={"i": i})


#: kind name -> (kind, value factory, snapshot suffix, shared-store suffix)
KINDS = {
    "transcription": (TranscriptionCache, _transcription, ".json", ".jsonl"),
    "score": (PairScoreCache, lambda i: i / 8, ".json", ".jsonl"),
    "feature": (FeatureCache, lambda i: np.full((2, 3), float(i)), ".npz", ""),
}


def _equal(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


@pytest.fixture(params=list(KINDS))
def kind(request):
    return KINDS[request.param]


# ----------------------------------------------------------- memory + LRU
def test_lru_order_stats_and_evictions(kind):
    cls, value, _, _ = kind
    cache = cls(capacity=2)
    assert cache.get("a") is None                          # miss
    cache.put("a", value(1))
    cache.put("b", value(2))
    assert _equal(cache.get("a"), value(1))                # "a" most recent
    cache.put("c", value(3))                               # evicts LRU "b"
    assert "b" not in cache and "a" in cache and "c" in cache
    assert len(cache) == 2
    assert cache.get("b") is None
    assert (cache.stats.hits, cache.stats.misses) == (1, 2)
    assert cache.stats.evictions == 1
    assert cache.stats.lookups == 3
    assert cache.stats.hit_rate == pytest.approx(1 / 3)


def test_memory_hits_return_the_stored_object(kind):
    cls, value, _, _ = kind
    cache = cls()
    cache.put("k", value(4))
    assert cache.get("k") is cache.get("k")


@pytest.mark.timeout(60)
def test_concurrent_puts_and_gets_lose_no_update(kind):
    """Threads read keys at the eviction frontier while others evict."""
    cls, value, _, _ = kind
    capacity, n_threads, per_thread = 4, 8, 4000
    cache = cls(capacity=capacity)
    errors = []

    def work(thread: int) -> None:
        try:
            for i in range(per_thread):
                cache.put(f"{thread}-{i}", value(i))
                cache.get(f"{thread}-{i - 1}")
                cache.get(f"{(thread + 1) % n_threads}-{i}")
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,))
                   for t in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(previous)
    assert errors == []
    puts = n_threads * per_thread
    assert cache.stats.lookups == 2 * puts
    assert len(cache) == capacity
    assert cache.stats.evictions == puts - capacity        # distinct keys


def test_clear_resets_entries_and_stats(kind):
    cls, value, _, _ = kind
    cache = cls()
    cache.put("k", value(1))
    cache.get("k")
    cache.clear()
    assert len(cache) == 0
    assert cache.stats.lookups == 0 and cache.stats.evictions == 0
    assert cache.stats.hit_rate == 0.0


def test_rejects_bad_capacity_and_missing_path(kind):
    cls = kind[0]
    assert cls().capacity == cls.default_capacity
    with pytest.raises(ValueError):
        cls(capacity=0)
    with pytest.raises(ValueError):
        cls().save()


# ------------------------------------------------------------ disk stores
def test_snapshot_round_trip(kind, tmp_path):
    cls, value, suffix, _ = kind
    path = str(tmp_path / f"store{suffix}")
    cache = cls(path=path)
    for i in range(3):
        cache.put(f"key_{i}", value(i))
    assert cache.save() == path

    reloaded = cls(path=path)                              # eager load
    assert len(reloaded) == 3
    for i in range(3):
        assert _equal(reloaded.get(f"key_{i}"), value(i))

    merged = cls(capacity=2)
    assert merged.load(path) == 3
    assert len(merged) == 2 and merged.stats.evictions == 1
    assert _equal(merged.get("key_2"), value(2))


def test_shared_store_across_instances(kind, tmp_path):
    cls, value, _, suffix = kind
    path = str(tmp_path / f"shared{suffix}")
    writer, reader = cls(path=path), cls(path=path)
    writer.put("k1", value(5))
    if suffix == ".jsonl":
        assert reader.get("k1") is None                    # not merged yet
        assert reader.refresh() == 1
    else:
        assert reader.refresh() == 0                       # read through
    got = reader.get("k1")
    assert _equal(got, value(5))
    assert reader.stats.hits == 1
    if isinstance(got, np.ndarray):
        assert not got.flags.writeable
        assert reader.stats.misses == 0
    assert _equal(cls(path=path).get("k1"), value(5))      # a new process


def _killed_mid_save(cls, path: str, value) -> None:
    """Child body: die between the temp write and the atomic replace."""
    os.replace = lambda src, dst: os._exit(17)  # noqa: simulated crash
    cache = cls(path=path)
    cache.put("k-new", value)
    cache.save()
    os._exit(99)  # never reached: save() dies in the fake replace


@pytest.mark.timeout(30)
def test_writer_killed_mid_save_keeps_snapshot(kind, tmp_path):
    cls, value, suffix, _ = kind
    path = str(tmp_path / f"store{suffix}")
    cache = cls(path=path)
    cache.put("k-old", value(1))
    cache.save()

    child = multiprocessing.get_context("fork").Process(
        target=_killed_mid_save, args=(cls, path, value(2)))
    child.start()
    child.join(timeout=20)
    assert child.exitcode == 17, "child must have died inside save()"

    reloaded = cls(path=path)
    assert _equal(reloaded.get("k-old"), value(1))
    assert reloaded.get("k-new") is None


# -------------------------------------------------------------- policies
@pytest.fixture
def fresh_shared(monkeypatch):
    """Forget the process-wide caches, so they are rebuilt from the env."""
    monkeypatch.setattr(content_cache, "_SHARED", {})


def test_policy_resolution(kind, tmp_path, fresh_shared):
    cls, _, suffix, shared_suffix = kind
    assert cls.resolve("shared") is cls.shared()
    assert cls.resolve(True) is cls.shared()
    for off in ("off", False, None):
        assert cls.resolve(off) is None
    private = cls.resolve("private")
    assert isinstance(private, cls) and private is not cls.shared()
    assert private.path is None
    for path in (str(tmp_path / f"store{suffix}"),
                 str(tmp_path / f"live{shared_suffix}")):
        on_disk = cls.resolve(path)
        assert isinstance(on_disk, cls) and on_disk.path == path
    existing = cls()
    assert cls.resolve(existing) is existing
    with pytest.raises(UnknownComponentError, match=f"{cls.kind}-cache"):
        cls.resolve("sharde")                               # typo, not a path


#: kind name -> (env variable, the cache a built detector ends up with)
ENV_TARGETS = {
    "transcription": ("REPRO_TRANSCRIPTION_CACHE",
                      lambda detector: detector.engine.cache),
    "score": ("REPRO_SCORE_CACHE", lambda detector: detector.scoring.cache),
    "feature": ("REPRO_FEATURE_CACHE",
                lambda detector: detector.engine.feature_engine.cache),
}


class _StubASR:
    name = short_name = "stub"


def _default_engine_cache(name: str):
    """The cache an engine built with every default gets."""
    if name == "transcription":
        return TranscriptionEngine(_StubASR(), [], workers=0).cache
    if name == "score":
        return SimilarityEngine().cache
    return FeatureEngine().cache


@pytest.mark.parametrize("name", list(KINDS))
@pytest.mark.parametrize("value", ["off", "private", "shared", "path"])
@pytest.mark.parametrize("route", ["overlay", "default-engine"])
def test_env_policy_means_one_thing_on_every_path(name, value, route,
                                                 tmp_path, monkeypatch,
                                                 fresh_shared):
    cls, _, suffix, _ = KINDS[name]
    env, cache_of = ENV_TARGETS[name]
    policy = str(tmp_path / f"env{suffix}") if value == "path" else value
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv(env, policy)
    if route == "overlay":
        spec = DetectorSpec.default().with_env_overlay({env: policy})
        cache = cache_of(build(spec, fit=False))
    else:
        cache = _default_engine_cache(name)
    if value == "off":
        assert cache is None
    elif value == "private":
        assert isinstance(cache, cls) and cache.path is None
        assert cache is not cls.shared()
    elif value == "shared":
        assert cache is cls.shared() and cache.path is None
    else:
        assert isinstance(cache, cls) and cache.path == policy
    # A policy name never becomes the shared cache's file.
    assert cls.shared().path == (policy if value == "path" else None)
    if value != "path":
        with pytest.raises(ValueError):
            cls.shared().save()
    assert os.listdir(tmp_path) == []


def test_env_policy_typo_is_rejected_not_a_file(tmp_path, monkeypatch,
                                                fresh_shared):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("REPRO_SCORE_CACHE", "sharde")
    with pytest.raises(UnknownComponentError, match="score-cache"):
        SimilarityEngine()
    assert os.listdir(tmp_path) == []


# ------------------------------------------------------- cache directory
def test_open_cache_dir_layout(tmp_path):
    caches = content_cache.open_cache_dir(
        str(tmp_path), (TranscriptionCache, PairScoreCache, FeatureCache))
    assert [os.path.basename(cache.path) for cache in caches] \
        == ["transcriptions.jsonl", "scores.jsonl", "features"]
    assert [type(cache) for cache in caches] \
        == [TranscriptionCache, PairScoreCache, FeatureCache]


def test_shard_workers_share_caches_through_the_run_dir(tmp_path, monkeypatch,
                                                       fresh_shared):
    import queue

    from repro.experiments.runner import WorkUnit, _shard_worker

    class Probe:
        def run_shard(self, unit):
            TranscriptionCache.shared().put("t", _transcription(1))
            PairScoreCache.shared().put("s", 0.25)
            return [{"unit": unit.key}]

    monkeypatch.delenv("REPRO_TRANSCRIPTION_CACHE", raising=False)
    monkeypatch.delenv("REPRO_SCORE_CACHE", raising=False)
    results = queue.Queue()
    directory = str(tmp_path / "caches")
    _shard_worker(Probe(), [(0, WorkUnit("u0"))], results, directory)
    assert results.get_nowait() == (0, "u0", [{"unit": "u0"}], None)
    assert TranscriptionCache(path=os.path.join(
        directory, "transcriptions.jsonl")).get("t") == _transcription(1)
    assert PairScoreCache(path=os.path.join(
        directory, "scores.jsonl")).get("s") == 0.25
    assert "REPRO_TRANSCRIPTION_CACHE" not in os.environ
    assert "REPRO_SCORE_CACHE" not in os.environ


# ----------------------------------------------- formats and fingerprints
def test_fingerprint_is_one_function():
    assert waveform_fingerprint is samples_fingerprint
    assert waveform_fingerprint is content_cache.content_fingerprint
    audio = Waveform(np.linspace(-0.5, 0.5, 401), sample_rate=8_000)
    assert waveform_fingerprint(audio) \
        == samples_fingerprint(audio.samples, 8_000)
    strided = np.linspace(-1.0, 1.0, 802)[::2]             # not contiguous
    assert samples_fingerprint(strided, 16_000) \
        == samples_fingerprint(strided.copy(), 16_000)


class _FixtureASR:
    name = "Fixture ASR"
    short_name = "FIX"


def _fixture_clip(n: int, rate: int = 16_000) -> Waveform:
    return Waveform(np.linspace(-0.5, 0.5, 400 + n) * (n + 1) / 3,
                    sample_rate=rate)


def _feature_key(tag: str, n: int) -> str:
    audio = _fixture_clip(n)
    return FeatureCache.key_for(tag, audio.samples, audio.sample_rate)


def test_files_from_the_separate_cache_classes_load_unchanged(tmp_path):
    transcriptions = {
        TranscriptionCache.key_for(_FixtureASR, _fixture_clip(0)):
            Transcription(text="open the front door",
                          phonemes=("OW", "P", "AH", "N"),
                          frame_labels=("OW", "OW", "P", "sil"),
                          asr_name="Fixture ASR", elapsed_seconds=0.125,
                          extra={"segments": [[0, 3]], "score": -1.5}),
        TranscriptionCache.key_for(_FixtureASR, _fixture_clip(1, 8_000)):
            Transcription(text="", asr_name="Fixture ASR"),
    }
    assert list(transcriptions) == [
        "FIX|Fixture ASR:466ec4ee4aa80944e7089759e98a0718eafc848a",
        "FIX|Fixture ASR:65aaafe025026bb25086b1605545cee34c3ddb31"]
    scores = {
        PairScoreCache.key_for("fast|PE_JaroWinkler", "open the door",
                               "open the tour"): 0.875,
        PairScoreCache.key_for("Cosine", "", "hello"): 0.0,
        PairScoreCache.key_for("Cosine", "héllo wörld", "hello world"): 1 / 3,
    }
    features = {_feature_key("mfcc:fixture", n):
                np.arange(12, dtype=np.float64).reshape(4, 3) / (n + 7)
                for n in range(2)}
    directory_key = _feature_key("lpc:fixture", 2)

    for name in ("transcriptions.json", "transcriptions.jsonl"):
        cache = TranscriptionCache(path=os.path.join(FIXTURES, name))
        assert list(cache._entries) == list(transcriptions)
        for key, expected in transcriptions.items():
            assert cache.get(key) == expected
    cache = PairScoreCache(path=os.path.join(FIXTURES, "scores.jsonl"))
    assert dict(cache._entries) == scores
    cache = FeatureCache(path=os.path.join(FIXTURES, "features.npz"))
    assert list(cache._entries) == list(features)
    for key, expected in features.items():
        assert np.array_equal(cache.get(key), expected)
    directory = str(tmp_path / "features")
    shutil.copytree(os.path.join(FIXTURES, "features"), directory)
    cache = FeatureCache(path=directory)
    assert np.array_equal(cache.get(directory_key),
                          np.linspace(0.0, 1.0, 10).reshape(2, 5))
    assert cache.stats.hits == 1

    # Re-saving writes the same keys and values back.
    for name in ("transcriptions.json", "transcriptions.jsonl"):
        source = TranscriptionCache(path=os.path.join(FIXTURES, name))
        copy = str(tmp_path / name)
        source.save(copy)
        with open(copy, encoding="utf-8") as ours, \
                open(os.path.join(FIXTURES, name), encoding="utf-8") as theirs:
            assert ours.read() == theirs.read()
