"""Throughput and latency counters for the serving layer.

Every serving component — the micro-batcher, the streaming detector, a
plain :class:`~repro.pipeline.detection.DetectionPipeline` — can record
into one :class:`ServingMetrics` instance, which accumulates per-stage
clip counts and wall-clock seconds (the same ``recognition`` /
``similarity`` / ``classification`` stages the paper's overhead
experiment measures) plus request-level latency samples.  ``repro
bench`` prints the snapshot; embedders can poll :meth:`snapshot` from a
stats endpoint.

The ``observe_batch`` method has the signature
:class:`~repro.pipeline.detection.DetectionPipeline` expects of its
``observer`` hook, so wiring the two together is one constructor
argument::

    metrics = ServingMetrics()
    pipeline = DetectionPipeline(detector, observer=metrics.observe_batch)
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field

from repro.content_cache import CacheStats

#: Key prefixes of the transcription, pair-score and feature caches.
_CACHE_PREFIXES = ("", "score_", "feature_")

#: How many request-latency samples the reservoir keeps for percentiles.
LATENCY_RESERVOIR = 4096


@dataclass
class StageStats:
    """Accumulated clip count and wall-clock seconds for one stage."""

    clips: int = 0
    seconds: float = 0.0

    def record(self, clips: int, seconds: float) -> None:
        self.clips += clips
        self.seconds += seconds

    @property
    def mean_seconds(self) -> float:
        """Mean seconds per clip (0 when nothing was recorded)."""
        return self.seconds / self.clips if self.clips else 0.0

    @property
    def throughput(self) -> float:
        """Clips per second of stage wall-clock (0 when unused)."""
        return self.clips / self.seconds if self.seconds > 0 else 0.0


def _percentile(samples: list[float], q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    position = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[position]


@dataclass
class ServingMetrics:
    """Thread-safe counters shared across serving components.

    Attributes:
        stages: per-stage :class:`StageStats`, keyed by stage name
            (``recognition``, ``similarity``, ``classification``,
            ``total``).
        requests: clips that flowed through an observed pipeline batch.
        batches: pipeline batches observed.
        cache_hits: transcriptions served from the engine cache.
        cache_misses: transcriptions actually decoded.
        score_cache_hits: pair scores served from the pair-score cache.
        score_cache_misses: pair scores actually computed.
        feature_cache_hits: front-end feature matrices served from the
            feature cache.
        feature_cache_misses: front-end feature matrices computed.
        ipc_bytes_out: audio payload bytes shipped to worker processes
            (descriptors under the shm transport, full arrays under
            pickle) — mirrored from
            :class:`~repro.serving.service.ServiceStats`.
        ipc_bytes_in: result payload bytes shipped back from workers.
        requests_retried: distinct requests retried after a worker crash.
    """

    stages: dict = field(default_factory=dict)
    requests: int = 0
    batches: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    score_cache_hits: int = 0
    score_cache_misses: int = 0
    feature_cache_hits: int = 0
    feature_cache_misses: int = 0
    ipc_bytes_out: int = 0
    ipc_bytes_in: int = 0
    requests_retried: int = 0

    def __post_init__(self) -> None:
        self._lock = threading.Lock()
        self._latency_samples: deque[float] = deque(maxlen=LATENCY_RESERVOIR)
        self._queue_wait_samples: deque[float] = deque(maxlen=LATENCY_RESERVOIR)

    # ----------------------------------------------------------- recording
    def observe_batch(self, batch) -> None:
        """Record one :class:`BatchDetectionResult` (pipeline observer hook)."""
        n = len(batch)
        with self._lock:
            self.batches += 1
            self.requests += n
            self.cache_hits += batch.cache_hits
            self.cache_misses += batch.cache_misses
            self.score_cache_hits += getattr(batch, "score_cache_hits", 0)
            self.score_cache_misses += getattr(batch, "score_cache_misses", 0)
            self.feature_cache_hits += getattr(batch, "feature_cache_hits", 0)
            self.feature_cache_misses += getattr(batch,
                                                 "feature_cache_misses", 0)
            for stage, seconds in batch.stage_seconds.items():
                self.stages.setdefault(stage, StageStats()).record(n, seconds)

    def observe_latency(self, seconds: float) -> None:
        """Record one end-to-end request latency (submit → verdict)."""
        with self._lock:
            self._latency_samples.append(seconds)

    def observe_queue_wait(self, seconds: float) -> None:
        """Record how long one request waited for its micro-batch."""
        with self._lock:
            self._queue_wait_samples.append(seconds)

    def observe_service(self, stats) -> None:
        """Fold a :class:`~repro.serving.service.ServiceStats` snapshot's
        transport counters into these metrics (idempotent per snapshot:
        callers pass deltas or call once at the end of a run)."""
        with self._lock:
            self.ipc_bytes_out += getattr(stats, "ipc_bytes_out", 0)
            self.ipc_bytes_in += getattr(stats, "ipc_bytes_in", 0)
            self.requests_retried += getattr(stats, "requests_retried", 0)

    # ----------------------------------------------------------- reporting
    def snapshot(self) -> dict:
        """A JSON-friendly snapshot of every counter."""
        with self._lock:
            latencies = list(self._latency_samples)
            queue_waits = list(self._queue_wait_samples)
            stages = {
                name: {
                    "clips": stats.clips,
                    "seconds": stats.seconds,
                    "mean_seconds": stats.mean_seconds,
                    "throughput_clips_per_s": stats.throughput,
                }
                for name, stats in self.stages.items()
            }
            caches = {}
            for prefix in _CACHE_PREFIXES:
                stats = CacheStats(getattr(self, f"{prefix}cache_hits"),
                                   getattr(self, f"{prefix}cache_misses"))
                caches.update({f"{prefix}cache_hits": stats.hits,
                               f"{prefix}cache_misses": stats.misses,
                               f"{prefix}cache_hit_rate": stats.hit_rate})
            return {
                "requests": self.requests,
                "batches": self.batches,
                "mean_batch_size": (self.requests / self.batches
                                    if self.batches else 0.0),
                **caches,
                "ipc_bytes_out": self.ipc_bytes_out,
                "ipc_bytes_in": self.ipc_bytes_in,
                "requests_retried": self.requests_retried,
                "stages": stages,
                "latency_seconds": {
                    "p50": _percentile(latencies, 0.50),
                    "p95": _percentile(latencies, 0.95),
                    "max": max(latencies, default=0.0),
                },
                "queue_wait_seconds": {
                    "p50": _percentile(queue_waits, 0.50),
                    "p95": _percentile(queue_waits, 0.95),
                    "max": max(queue_waits, default=0.0),
                },
            }

    def format_table(self) -> str:
        """Human-readable rendering of :meth:`snapshot` for the CLI."""
        snap = self.snapshot()
        caches = "".join(
            f"  {label} {snap[f'{prefix}cache_hit_rate']:.0%} "
            f"({snap[f'{prefix}cache_hits']}/"
            f"{snap[f'{prefix}cache_hits'] + snap[f'{prefix}cache_misses']})"
            for prefix, label in zip(_CACHE_PREFIXES, ("cache hit rate",
                                                       "score cache",
                                                       "feature cache")))
        lines = [
            f"requests {snap['requests']}  batches {snap['batches']}  "
            f"mean batch {snap['mean_batch_size']:.2f}{caches}",
            f"{'stage':<16}{'clips':>8}{'seconds':>10}{'ms/clip':>10}{'clips/s':>10}",
        ]
        for name in ("recognition", "similarity", "classification", "total"):
            stats = snap["stages"].get(name)
            if stats is None:
                continue
            lines.append(f"{name:<16}{stats['clips']:>8}"
                         f"{stats['seconds']:>10.3f}"
                         f"{stats['mean_seconds'] * 1000:>10.2f}"
                         f"{stats['throughput_clips_per_s']:>10.1f}")
        latency = snap["latency_seconds"]
        queue = snap["queue_wait_seconds"]
        if latency["max"] > 0:
            lines.append(f"request latency  p50 {latency['p50'] * 1000:.1f} ms  "
                         f"p95 {latency['p95'] * 1000:.1f} ms  "
                         f"max {latency['max'] * 1000:.1f} ms")
        if queue["max"] > 0:
            lines.append(f"queue wait       p50 {queue['p50'] * 1000:.1f} ms  "
                         f"p95 {queue['p95'] * 1000:.1f} ms  "
                         f"max {queue['max'] * 1000:.1f} ms")
        if snap["ipc_bytes_out"] or snap["ipc_bytes_in"]:
            lines.append(f"ipc              out {snap['ipc_bytes_out']} B  "
                         f"in {snap['ipc_bytes_in']} B  "
                         f"retried {snap['requests_retried']}")
        return "\n".join(lines)
