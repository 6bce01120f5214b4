"""Concurrency-safe on-disk store primitives for the cache layer.

The original on-disk caches wrote their whole payload with
``open(path, "w")`` — a crash mid-write truncated the store, and two
processes saving concurrently silently kept only the last writer.  The
serving layer (:mod:`repro.serving.service`) runs a *pool* of worker
processes against one cache directory, so both failure modes became
load-bearing.  This module holds the three primitives every cache now
builds on:

* :func:`atomic_write_bytes` and its text and ``.npz`` forms — snapshot
  writes through a temp file in the destination directory followed by
  :func:`os.replace`, so readers only ever see the old complete file or
  the new complete file, never a torn one.
* :class:`Journal` — an append-only JSONL log shared by concurrent
  writer processes.  Each record is one ``json.dumps`` line appended
  with a single ``O_APPEND`` write, so records from different processes
  never interleave on a local filesystem; replay skips torn or corrupt
  lines instead of failing, and an in-progress tail (no trailing
  newline yet) is left for the next replay.
* :class:`ContentDirectoryStore` — a content-addressed directory of
  one-``.npz``-file-per-entry, each written atomically, for large array
  payloads (the feature cache).  Concurrent writers of the same key
  race benignly: entries are pure functions of their key, so whichever
  ``os.replace`` lands last installs identical bytes.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import tempfile
import zipfile
from typing import Iterator

import numpy as np


def atomic_write_bytes(path: str, data: bytes) -> str:
    """Write ``data`` to ``path`` atomically (temp file + ``os.replace``).

    The temp file lives in the destination directory so the final
    rename never crosses filesystems.  A crash before the replace
    leaves the destination untouched; a crash after it leaves the new
    complete content.  Returns ``path``.
    """
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    return path


def atomic_write_text(path: str, text: str) -> str:
    """:func:`atomic_write_bytes` for UTF-8 text."""
    return atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_npz(path: str, **arrays: np.ndarray) -> str:
    """:func:`atomic_write_bytes` for an ``np.savez`` archive."""
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return atomic_write_bytes(path, buffer.getvalue())


class Journal:
    """An append-only JSONL log safe for concurrent writer processes.

    Records are dicts, one ``json.dumps`` line each.  :meth:`append`
    opens the file with ``O_APPEND`` and writes the whole line in a
    single ``os.write`` call, so concurrent appenders never interleave
    within a line.  :meth:`replay` returns only records appended since
    the previous replay (an internal byte offset tracks progress), so a
    long-lived cache can cheaply pick up other processes' entries.

    Robustness rules, in order:

    * a trailing line without a newline is an append *in progress* (or
      the stump of a crashed writer) — it is not consumed, and the
      offset stays before it so a later replay re-reads it;
    * a complete line that fails to parse as a JSON object is counted
      in :attr:`corrupt_lines` and skipped permanently — a torn write
      can never corrupt the entries around it.
    """

    def __init__(self, path: str):
        self.path = os.fspath(path)
        self.corrupt_lines = 0
        self._offset = 0

    def append(self, record: dict) -> None:
        """Append one record; atomic with respect to other appenders."""
        line = json.dumps(record, separators=(",", ":")) + "\n"
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, line.encode("utf-8"))
        finally:
            os.close(fd)

    def replay(self) -> list[dict]:
        """Complete records appended since the last replay (maybe empty)."""
        try:
            size = os.path.getsize(self.path)
        except OSError:
            return []
        if size < self._offset:
            # The journal shrank: another process compacted it.  Start
            # over — re-reading entries is harmless (merges are
            # idempotent: same key, same committed value).
            self._offset = 0
        records: list[dict] = []
        with open(self.path, "rb") as handle:
            handle.seek(self._offset)
            while True:
                line = handle.readline()
                if not line or not line.endswith(b"\n"):
                    break  # EOF or an in-progress tail: try again later
                self._offset += len(line)
                stripped = line.strip()
                if not stripped:
                    continue
                try:
                    record = json.loads(stripped)
                except ValueError:
                    self.corrupt_lines += 1
                    continue
                if isinstance(record, dict):
                    records.append(record)
                else:
                    self.corrupt_lines += 1
        return records

    def rewrite(self, records: Iterator[dict]) -> None:
        """Atomically replace the journal with a compacted snapshot.

        Compaction is a *single-writer* operation: appends other
        processes make between the snapshot and the replace are lost.
        The serving workers only ever append; run compaction from an
        administrative process (``save()`` on a quiesced cache).
        """
        payload = "".join(json.dumps(record, separators=(",", ":")) + "\n"
                          for record in records)
        atomic_write_text(self.path, payload)
        self._offset = len(payload.encode("utf-8"))


class ContentDirectoryStore:
    """A content-addressed directory of atomically-written array entries.

    Each entry is one ``.npz`` file named by the SHA-1 of its cache key,
    holding the key string and the float64 value matrix.  Lookups are
    pure filesystem reads, writes are :func:`atomic_write_bytes`, so any
    number of processes can share the directory with no coordination:
    an entry either exists completely or not at all.
    """

    def __init__(self, directory: str):
        self.directory = os.fspath(directory)

    def _entry_path(self, key: str) -> str:
        digest = hashlib.sha1(key.encode("utf-8")).hexdigest()
        return os.path.join(self.directory, f"{digest}.npz")

    def write(self, key: str, value: np.ndarray) -> None:
        atomic_write_npz(self._entry_path(key),
                         __key__=np.array(key, dtype=str),
                         value=np.asarray(value, dtype=np.float64))

    @staticmethod
    def _load(path: str) -> tuple[str, np.ndarray] | None:
        try:
            with np.load(path, allow_pickle=False) as payload:
                return (str(payload["__key__"]),
                        np.asarray(payload["value"], dtype=np.float64))
        except (OSError, ValueError, KeyError, zipfile.BadZipFile):
            # Missing entry, or an entry written by a different/broken
            # format: treat as a miss rather than failing the lookup.
            return None

    def read(self, key: str) -> np.ndarray | None:
        entry = self._load(self._entry_path(key))
        return None if entry is None else entry[1]

    def items(self) -> list[tuple[str, np.ndarray]]:
        """Every readable entry as ``(key, value)`` pairs."""
        try:
            names = sorted(os.listdir(self.directory))
        except OSError:
            return []
        entries = (self._load(os.path.join(self.directory, name))
                   for name in names if name.endswith(".npz"))
        return [entry for entry in entries if entry is not None]

    def __len__(self) -> int:
        try:
            return sum(1 for name in os.listdir(self.directory)
                       if name.endswith(".npz"))
        except OSError:
            return 0
