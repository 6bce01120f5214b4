"""One content-addressed cache for every pure, expensive computation.

The detector transcribes each clip with N ASR versions, scores the
auxiliary transcriptions against the target's, and runs front ends that
suite members share.  Each result is a pure function of content, cached
by one *kind* of :class:`ContentCache`:
:class:`~repro.pipeline.cache.TranscriptionCache`,
:class:`~repro.similarity.score_cache.PairScoreCache` and
:class:`~repro.dsp.feature_cache.FeatureCache`.  A kind supplies its key
function (a ``key_for`` staticmethod), a value :class:`Codec`, a default
capacity and its ``kind`` name; everything else lives here once.

The on-disk store is chosen by the path.  JSON-valued kinds use a
``.jsonl`` append-only journal or, for any other path, a ``.json``
snapshot.  Array-valued kinds use an ``.npz`` snapshot or, for any other
path, a content-addressed directory (one ``.npz`` file per entry).
Snapshots are read when the cache opens and replaced atomically by
:meth:`ContentCache.save`.  Journals and directories are shared by
concurrent processes (see :mod:`repro.store`): puts write through, a
journal merges other processes' entries on :meth:`ContentCache.refresh`,
and a directory is read through on a memory miss.  The codec runs only
at this disk boundary; a memory hit returns the stored object itself.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Iterable

import numpy as np

from repro.errors import UnknownComponentError
from repro.store import (
    ContentDirectoryStore,
    Journal,
    atomic_write_npz,
    atomic_write_text,
)

#: The policy names every kind accepts besides a store path.
POLICIES = ("shared", "private", "off")


def content_fingerprint(samples, sample_rate: int | None = None) -> str:
    """SHA-1 of one clip's audio: its raw samples, then its sample rate.

    Takes a :class:`~repro.audio.waveform.Waveform`, or ``samples`` and
    their ``sample_rate``.  Contiguous samples are hashed in place.
    """
    if sample_rate is None:
        samples, sample_rate = samples.samples, samples.sample_rate
    digest = hashlib.sha1(np.ascontiguousarray(samples))
    digest.update(str(int(sample_rate)).encode("ascii"))
    return digest.hexdigest()


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of one :class:`ContentCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0


def _same(value):
    return value


@dataclass(frozen=True)
class Codec:
    """How one kind's values enter the cache and cross the disk boundary.

    ``admit`` normalises a value on :meth:`ContentCache.put`; ``encode``
    and ``decode`` convert to and from the stored form, skipping records
    ``decode`` rejects.  ``arrays`` marks float64-matrix values (``.npz``
    stores) as opposed to JSON values (``.json``/``.jsonl`` stores).
    """

    admit: Callable[[Any], Any] = _same
    encode: Callable[[Any], Any] = _same
    decode: Callable[[Any], Any] = _same
    arrays: bool = False


# ------------------------------------------------------------------ stores
class _Store:
    """A snapshot: read and written whole, never shared live."""

    shared = False

    def __init__(self, path: str):
        self.path = path

    def poll(self) -> list[tuple[str, Any]]:  # others' entries since last poll
        return []

    def read(self, key: str):  # one entry, read through on a memory miss
        return None


class _JsonSnapshot(_Store):
    def read_all(self):
        with open(self.path, encoding="utf-8") as handle:
            return list(json.load(handle).items())

    def write_all(self, items):
        atomic_write_text(self.path, json.dumps(dict(items)))


class _NpzSnapshot(_Store):
    def read_all(self):
        with np.load(self.path, allow_pickle=False) as payload:
            keys = [str(key) for key in payload["__keys__"]]
            return [(key, payload[f"arr_{i}"]) for i, key in enumerate(keys)]

    def write_all(self, items):
        keys, values = zip(*items) if items else ((), ())
        atomic_write_npz(self.path, __keys__=np.array(keys, dtype=str),
                         **{f"arr_{i}": value for i, value in enumerate(values)})


class _JournalStore(_Store):
    shared = True

    def __init__(self, path: str):
        super().__init__(path)
        self._journal = Journal(path)

    def read_all(self):
        return _JournalStore(self.path).poll()      # a fresh reader: all

    def poll(self):
        return [(r["k"], r["v"]) for r in self._journal.replay()
                if "k" in r and "v" in r]

    def append(self, key: str, stored) -> None:
        self._journal.append({"k": key, "v": stored})

    def write_all(self, items):
        # Compaction: single-writer, see :meth:`repro.store.Journal.rewrite`.
        self._journal.rewrite({"k": key, "v": value} for key, value in items)


class _DirectoryStore(_Store):
    shared = True

    def __init__(self, path: str):
        super().__init__(path)
        directory = ContentDirectoryStore(path)
        self.read_all, self.read = directory.items, directory.read
        self.append = directory.write

    def write_all(self, items):
        for key, value in items:
            self.append(key, value)


def _open_store(path: str, arrays: bool) -> _Store:
    path = os.fspath(path)
    if arrays:
        return (_NpzSnapshot if path.endswith(".npz") else _DirectoryStore)(path)
    return (_JournalStore if path.endswith(".jsonl") else _JsonSnapshot)(path)


# ------------------------------------------------------------------- cache
_SHARED: dict[type, "ContentCache"] = {}
_SHARED_LOCK = threading.Lock()


class ContentCache:
    """Thread-safe LRU of content-addressed values, optionally on disk.

    Args:
        capacity: maximum number of entries kept in memory (default: the
            kind's :attr:`default_capacity`); the least recently used
            entry is evicted first.
        path: optional on-disk store (see the module docstring).
    """

    #: Names the kind's policy errors, its ``REPRO_<KIND>_CACHE``
    #: variable and its store in a shared cache directory.
    kind: ClassVar[str] = "content"
    codec: ClassVar[Codec] = Codec()
    default_capacity: ClassVar[int] = 4096

    def __init__(self, capacity: int | None = None, path: str | None = None):
        capacity = self.default_capacity if capacity is None else capacity
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self.path = path
        self.stats = CacheStats()
        self._entries: OrderedDict[str, Any] = OrderedDict()
        self._lock = threading.Lock()
        self._store = (None if path is None
                       else _open_store(path, self.codec.arrays))
        if self._store is not None and self._store.shared:
            self.refresh()
        elif path is not None and os.path.exists(path):
            self.load(path)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def _insert(self, key: str, value) -> None:
        """Store one entry as most recent, evicting past capacity (locked)."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def get(self, key: str):
        """Look up ``key``, updating LRU order and the statistics.

        A directory store is read through on a memory miss, so entries
        other processes wrote count as hits.
        """
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return value
        stored = None if self._store is None else self._store.read(key)
        value = None if stored is None else self.codec.decode(stored)
        with self._lock:
            if value is None:
                self.stats.misses += 1
            else:
                self._insert(key, value)
                self.stats.hits += 1
        return value

    def put(self, key: str, value) -> None:
        """Store ``value`` under ``key``, evicting the LRU entry if full.

        Journals and directories get the entry at once (write-through).
        """
        value = self.codec.admit(value)
        with self._lock:
            self._insert(key, value)
        if self._store is not None and self._store.shared:
            self._store.append(key, self.codec.encode(value))

    def _merge(self, pairs: Iterable[tuple[str, Any]]) -> int:
        """Decode stored pairs into memory, leaving hits/misses alone."""
        decoded = []
        for key, stored in pairs:
            try:
                decoded.append((key, self.codec.decode(stored)))
            except (KeyError, TypeError, ValueError):
                continue
        with self._lock:
            for key, value in decoded:
                self._insert(key, value)
        return len(decoded)

    def refresh(self) -> int:
        """Merge entries other processes journaled since; returns count."""
        return 0 if self._store is None else self._merge(self._store.poll())

    def clear(self) -> None:
        """Drop every entry and reset the statistics."""
        with self._lock:
            self._entries.clear()
            self.stats = CacheStats()

    def _store_at(self, path: str | None) -> _Store:
        path = path or self.path
        if path is None:
            raise ValueError("no path given and cache has no backing file")
        if self._store is not None and path == self.path:
            return self._store
        return _open_store(path, self.codec.arrays)

    def save(self, path: str | None = None) -> str:
        """Write every entry to ``path`` (default: the constructor path).

        Snapshots are replaced atomically; a journal is compacted.
        """
        store = self._store_at(path)
        with self._lock:
            items = list(self._entries.items())
        store.write_all([(key, self.codec.encode(value))
                         for key, value in items])
        return store.path

    def load(self, path: str | None = None) -> int:
        """Merge every entry stored at ``path``; returns the key count."""
        records = dict(self._store_at(path).read_all())
        self._merge(records.items())
        return len(records)

    # ---------------------------------------------------------- policies
    @classmethod
    def parse_policy(cls, policy: str) -> str:
        """Validate a policy string without opening any store.

        It must be one of :data:`POLICIES` or a store path (holding a
        separator or ending in a store suffix): a typo never becomes a
        cache file.
        """
        suffixes = (".npz",) if cls.codec.arrays else (".json", ".jsonl")
        if policy in POLICIES or os.sep in policy or "/" in policy \
                or policy.endswith(suffixes):
            return policy
        raise UnknownComponentError(
            f"{cls.kind}-cache policy", policy,
            (*POLICIES, f"<path ending in {'/'.join(suffixes)}>"))

    @classmethod
    def _env_policy(cls) -> str:
        raw = os.environ.get(f"REPRO_{cls.kind.upper()}_CACHE")
        return cls.parse_policy(raw) if raw else "shared"

    @classmethod
    def shared(cls):
        """The process-wide cache of this kind, created on first use.

        It is on the store at ``REPRO_<KIND>_CACHE`` when that is a path.
        """
        with _SHARED_LOCK:
            if cls not in _SHARED:
                policy = cls._env_policy()
                _SHARED[cls] = cls(path=None if policy in POLICIES
                                   else policy)
            return _SHARED[cls]

    @classmethod
    def resolve(cls, policy):
        """Turn a cache policy into a cache of this kind, or ``None``.

        A cache of this kind is used as given.  ``True`` is the default:
        ``REPRO_<KIND>_CACHE`` when it says ``"off"`` or ``"private"``,
        else ``"shared"``.  ``"shared"`` is :meth:`shared`, ``"private"``
        a fresh in-memory cache, ``"off"``/``False``/``None`` no cache,
        and a store path a fresh cache on that store.
        """
        if isinstance(policy, cls):
            return policy
        if policy is None or policy is False:
            return None
        if policy is True:
            policy = cls._env_policy()
            if policy not in POLICIES:
                policy = "shared"      # the path backs the shared cache
        policy = cls.parse_policy(str(policy))
        if policy == "off":
            return None
        if policy == "shared":
            return cls.shared()
        return cls() if policy == "private" else cls(path=policy)


def set_shared_cache(cache: ContentCache) -> None:
    """Make ``cache`` the process-wide cache of its kind."""
    with _SHARED_LOCK:
        _SHARED[type(cache)] = cache


def open_cache_dir(directory: str,
                   kinds: Iterable[type[ContentCache]]) -> list[ContentCache]:
    """One multi-process cache per kind, on stores under ``directory``.

    The layout: a ``<kind>s.jsonl`` journal per JSON-valued kind and a
    ``<kind>s/`` directory per array-valued one (``transcriptions.jsonl``,
    ``scores.jsonl``, ``features/``).
    """
    os.makedirs(directory, exist_ok=True)
    return [kind(path=os.path.join(directory, f"{kind.kind}s" + (
                "" if kind.codec.arrays else ".jsonl")))
            for kind in kinds]
