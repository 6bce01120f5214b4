"""Resumable run directories for sharded experiments.

A :class:`RunStore` owns one run directory and journals experiment
progress on the :mod:`repro.store` primitives:

``spec.json``
    The :class:`~repro.specs.ExperimentSpec` the run was started with
    (atomic snapshot).  :meth:`begin` refuses to resume a directory
    whose recorded spec differs — a run directory binds one spec.
``shards.jsonl``
    Append-only :class:`~repro.store.Journal` of completed shards, one
    ``{"unit": key, "rows": [...]}`` record each.  A killed run leaves
    every *completed* shard on disk; restarting replays the journal and
    re-executes only the units that never committed.
``manifest.json``
    Atomic progress snapshot (``status``, unit counts) for humans and
    the sweep report.
``caches/``
    Shared-cache journals the forked shard workers bind to (see
    :func:`repro.content_cache.open_cache_dir`).
``report.json`` / ``report.md``
    The reduced final table, written only when the run completes.
"""

from __future__ import annotations

import json
import os

from repro.store import Journal, atomic_write_text


class RunSpecMismatch(Exception):
    """A run directory already holds shards for a *different* spec."""


def _result_identity(payload):
    """Spec payload minus execution-only knobs (they never change rows)."""
    if isinstance(payload, dict):
        return {key: value for key, value in payload.items()
                if key != "workers"}
    return payload


class RunStore:
    """One experiment run directory: spec + shard journal + report."""

    def __init__(self, directory: str):
        self.directory = os.fspath(directory)
        self._journal = Journal(os.path.join(self.directory, "shards.jsonl"))
        self._completed: dict[str, list[dict]] = {}
        self._extra: dict = {}

    # ------------------------------------------------------------ locations
    @property
    def spec_path(self) -> str:
        return os.path.join(self.directory, "spec.json")

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.directory, "manifest.json")

    @property
    def report_json_path(self) -> str:
        return os.path.join(self.directory, "report.json")

    @property
    def report_markdown_path(self) -> str:
        return os.path.join(self.directory, "report.md")

    @property
    def cache_dir(self) -> str:
        return os.path.join(self.directory, "caches")

    # ------------------------------------------------------------ lifecycle
    def begin(self, spec, experiment: str, total_units: int,
              extra: dict | None = None) -> None:
        """Open the run directory for ``spec``, creating or resuming it.

        ``extra`` is a JSON-serialisable mapping merged into every
        manifest snapshot of the run — the attribution record (suite
        composition, backend fingerprints) that makes result numbers
        traceable to the exact systems that produced them.

        Raises :class:`RunSpecMismatch` when the directory was started
        with a different spec — shard keys are only meaningful within
        one spec, so silently mixing them would corrupt the resume.
        """
        self._extra = dict(extra or {})
        os.makedirs(self.directory, exist_ok=True)
        spec_json = spec.to_json()
        try:
            with open(self.spec_path, "r", encoding="utf-8") as handle:
                existing = handle.read()
        except OSError:
            existing = None
        if existing is not None:
            try:
                same = _result_identity(json.loads(existing)) \
                    == _result_identity(json.loads(spec_json))
            except ValueError:
                same = False
            if not same:
                raise RunSpecMismatch(
                    f"run directory {self.directory!r} was started with a "
                    f"different spec; use a fresh --run-dir or delete it")
        else:
            atomic_write_text(self.spec_path, spec_json)
        self._replay()
        self._write_manifest(experiment=experiment, status="running",
                             total_units=total_units)

    def _replay(self) -> None:
        for record in self._journal.replay():
            unit = record.get("unit")
            rows = record.get("rows")
            if isinstance(unit, str) and isinstance(rows, list):
                self._completed[unit] = rows

    def completed_shards(self) -> dict[str, list[dict]]:
        """Journaled shard rows keyed by unit key (replays new appends)."""
        self._replay()
        return dict(self._completed)

    def record(self, unit_key: str, rows: list[dict]) -> None:
        """Journal one completed shard (append-only, crash-safe)."""
        self._journal.append({"unit": unit_key, "rows": rows})
        self._completed[unit_key] = rows

    # -------------------------------------------------------------- results
    def _write_manifest(self, experiment: str, status: str,
                        total_units: int) -> None:
        manifest = {
            "experiment": experiment,
            "status": status,
            "total_units": total_units,
            "completed_units": len(self._completed),
        }
        manifest.update(self._extra)
        atomic_write_text(self.manifest_path,
                          json.dumps(manifest, indent=2) + "\n")

    def manifest(self) -> dict:
        """The last manifest snapshot (empty dict when none exists)."""
        try:
            with open(self.manifest_path, "r", encoding="utf-8") as handle:
                loaded = json.load(handle)
        except (OSError, ValueError):
            return {}
        return loaded if isinstance(loaded, dict) else {}

    def mark_incomplete(self) -> None:
        """Snapshot progress for a run stopping before all units ran."""
        manifest = self.manifest()
        self._write_manifest(
            experiment=str(manifest.get("experiment", "")),
            status="incomplete",
            total_units=int(manifest.get("total_units", 0)))

    def write_report(self, table, experiment: str) -> None:
        """Persist the reduced table and mark the run complete."""
        payload = {
            "experiment": experiment,
            "title": table.name,
            "description": table.description,
            "rows": table.rows,
        }
        atomic_write_text(self.report_json_path,
                          json.dumps(payload, indent=2) + "\n")
        atomic_write_text(self.report_markdown_path, table.to_markdown())
        self._write_manifest(experiment=experiment, status="complete",
                             total_units=len(self._completed))

    def report(self) -> dict | None:
        """The completed run's report payload, or ``None``."""
        try:
            with open(self.report_json_path, "r", encoding="utf-8") as handle:
                loaded = json.load(handle)
        except (OSError, ValueError):
            return None
        return loaded if isinstance(loaded, dict) else None
