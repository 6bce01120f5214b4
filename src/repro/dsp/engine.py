"""The front-end feature engine: compute once, share across the suite.

Every suite member starts recognition with the same kind of work — frame
the clip, window it, run the front end — and members with identical
front-end configurations (transform-ensemble auxiliaries hear through
the *target's* front end; ``KAL``/``KAL-fs<N>`` variants share one MFCC
geometry) duplicate that work clip after clip.  The
:class:`FeatureEngine` makes front-end features a cached, batched
resource: it computes each (clip, front-end configuration) pair at most
once, shares the matrix across suite members through a content-hash
:class:`~repro.dsp.feature_cache.FeatureCache`, and pre-warms whole
pipeline batches through the vectorized
:meth:`~repro.dsp.features.FeatureExtractor.transform_batch` path.

Like the similarity engine, the compute path is pluggable: the ``"fast"``
backend stacks a batch's analysis frames and vectorizes the
row-independent stages across the whole batch, the ``"reference"``
backend is the seed library's per-clip loop, and the two are required to
be ``==``-identical (pinned by ``tests/test_dsp_vectorized.py`` and the
golden-fixture test).  Third-party backends can be registered under new
names via :func:`register_feature_backend`.
"""

from __future__ import annotations

import numpy as np

from repro.content_cache import CacheStats
from repro.dsp.feature_cache import FeatureCache
from repro.dsp.features import FeatureExtractor


class ReferenceFeatureBackend:
    """Per-clip front-end computation (the seed library's path)."""

    name = "reference"

    def features(self, extractor: FeatureExtractor, samples: np.ndarray,
                 sample_rate: int) -> np.ndarray:
        return extractor.transform(samples)

    def features_batch(self, extractor: FeatureExtractor,
                       batch: list[np.ndarray]) -> list[np.ndarray]:
        return [extractor.transform(samples) for samples in batch]


class FastFeatureBackend:
    """Batch-vectorized front-end computation.

    Single clips go through the same code as the reference (the
    vectorized kernels are already inside ``transform``); batches stack
    analysis frames across clips and run the row-independent stages
    once (see :meth:`FeatureExtractor.transform_batch`).  Results are
    bit-identical to the reference backend.
    """

    name = "fast"

    def features(self, extractor: FeatureExtractor, samples: np.ndarray,
                 sample_rate: int) -> np.ndarray:
        return extractor.transform(samples)

    def features_batch(self, extractor: FeatureExtractor,
                       batch: list[np.ndarray]) -> list[np.ndarray]:
        return extractor.transform_batch(batch)


_BACKENDS: dict[str, object] = {}


def register_feature_backend(name: str, backend) -> None:
    """Register a feature backend under ``name`` (overwrites existing)."""
    if not name:
        raise ValueError("backend name must be non-empty")
    _BACKENDS[name] = backend


def get_feature_backend(name: str):
    """Look up a registered feature backend by name."""
    try:
        return _BACKENDS[name]
    except KeyError:
        known = ", ".join(sorted(_BACKENDS))
        raise KeyError(f"unknown feature backend {name!r} "
                       f"(registered: {known})") from None


def feature_backend_names() -> tuple[str, ...]:
    """Names of the registered feature backends, sorted."""
    return tuple(sorted(_BACKENDS))


register_feature_backend("reference", ReferenceFeatureBackend())
register_feature_backend("fast", FastFeatureBackend())


#: The process-wide feature cache default engines share.
get_shared_feature_cache = FeatureCache.shared
#: Feature-cache policy (``FeaturesSpec.cache``) -> cache or ``None``.
resolve_feature_cache = FeatureCache.resolve


class FeatureEngine:
    """Computes front-end features once per (clip, front-end configuration).

    Args:
        backend: compute backend — an instance or a registry name
            (``"fast"``, the default, or ``"reference"``).
        cache: feature-cache policy (see
            :meth:`~repro.content_cache.ContentCache.resolve`) — a
            :class:`~repro.dsp.feature_cache.FeatureCache` instance,
            ``True`` for the default (the process-wide shared cache
            unless ``REPRO_FEATURE_CACHE`` says ``off`` or ``private``),
            or ``False``/``None`` to disable caching.

    Extractors whose :attr:`~repro.dsp.features.FeatureExtractor.cache_tag`
    is ``None`` (unnamed custom front ends) are computed directly and
    never cached, so a tag collision can not serve wrong features.
    """

    def __init__(self, backend="fast",
                 cache: FeatureCache | bool | str | None = True):
        self.backend = (get_feature_backend(backend)
                        if isinstance(backend, str) else backend)
        self.cache = resolve_feature_cache(cache)

    @property
    def stats(self) -> CacheStats:
        """Hit/miss statistics of the underlying cache (zeros when off)."""
        if self.cache is None:
            return CacheStats()
        return self.cache.stats

    def features(self, extractor: FeatureExtractor, samples: np.ndarray,
                 sample_rate: int) -> np.ndarray:
        """Feature matrix of one clip, served from the cache when possible."""
        tag = extractor.cache_tag
        if self.cache is None or tag is None:
            return self.backend.features(extractor, samples, sample_rate)
        key = FeatureCache.key_for(tag, samples, sample_rate)
        hit = self.cache.get(key)
        if hit is not None:
            return hit
        value = self.backend.features(extractor, samples, sample_rate)
        self.cache.put(key, value)
        return value

    def prewarm(self, extractor: FeatureExtractor,
                clips: list[tuple[np.ndarray, int]]) -> int:
        """Fill the cache for a batch of ``(samples, sample_rate)`` clips.

        Missing clips are computed through the backend's *batched* path
        (one stacked front-end pass); clips already cached are skipped.
        Returns the number of clips computed.
        """
        tag = extractor.cache_tag
        if self.cache is None or tag is None:
            return 0
        missing: dict[str, np.ndarray] = {}
        for samples, sample_rate in clips:
            key = FeatureCache.key_for(tag, samples, sample_rate)
            if key not in missing and self.cache.get(key) is None:
                missing[key] = samples
        if missing:
            values = self.backend.features_batch(extractor,
                                                 list(missing.values()))
            for key, value in zip(missing, values):
                self.cache.put(key, value)
        return len(missing)
