"""Parallel transcription engine and batched detection pipeline.

This package is the execution layer of the reproduction: it turns the
paper's "all ASRs run in parallel" deployment assumption (Section V-I)
into working code.

* :mod:`repro.pipeline.cache` — a content-hash transcription cache
  (in-memory LRU plus an optional on-disk JSON store) so repeated clips
  and repeated experiment runs never re-decode audio.
* :mod:`repro.pipeline.engine` — :class:`TranscriptionEngine`, which fans
  one waveform (or a batch) out across the target + auxiliary ASR suite,
  sequentially by default or across a ``concurrent.futures`` thread pool
  when ``workers=N`` opts in.
* :mod:`repro.pipeline.blas` — holds the loaded OpenBLAS to one thread
  while the engine decodes.
* :mod:`repro.pipeline.detection` — :class:`DetectionPipeline`, which
  batches feature extraction → scoring → classification and reports
  per-stage timing compatible with the paper's overhead experiment.
"""

from repro.pipeline.cache import CacheStats, TranscriptionCache, waveform_fingerprint
from repro.pipeline.engine import (
    SuiteTranscription,
    TranscriptionEngine,
    get_shared_cache,
    resolve_worker_count,
)
from repro.pipeline.detection import BatchDetectionResult, DetectionPipeline

__all__ = [
    "CacheStats",
    "TranscriptionCache",
    "waveform_fingerprint",
    "SuiteTranscription",
    "TranscriptionEngine",
    "get_shared_cache",
    "resolve_worker_count",
    "BatchDetectionResult",
    "DetectionPipeline",
]
