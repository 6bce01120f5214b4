"""Content-addressed caching of front-end feature matrices.

Computing a front end is pure — the feature matrix is a function of the
raw samples, the sample rate and the extractor configuration alone — yet
the same (clip, configuration) pairs recur constantly: overlapping
streaming windows re-hear the same audio, transform-ensemble suites run
several auxiliaries with the *target's* front end, repeated experiment
tables re-read the same dataset bundle, and any two suite members with
equal front-end configurations duplicate the work outright.

The cache key is the extractor's configuration tag
(:attr:`~repro.dsp.features.FeatureExtractor.cache_tag`) plus a content
hash of the raw samples and the sample rate, so two clips with identical
audio share one entry regardless of where the audio came from.  Cached
matrices are frozen (read-only) copies, so a consumer cannot corrupt
entries that later lookups will share.  Storage, statistics and the disk
formats (an ``.npz`` snapshot, or a content-addressed directory shared by
the serving workers) are those of
:class:`~repro.content_cache.ContentCache`.
"""

from __future__ import annotations

import numpy as np

from repro.content_cache import (
    CacheStats,
    Codec,
    ContentCache,
    content_fingerprint,
)

#: Content hash identifying one clip's audio (samples + rate).
samples_fingerprint = content_fingerprint

#: Statistics of a :class:`FeatureCache` (the shared stats type).
FeatureCacheStats = CacheStats


def _frozen(features) -> np.ndarray:
    value = np.asarray(features, dtype=np.float64)
    value.flags.writeable = False
    return value


def _frozen_copy(features) -> np.ndarray:
    return _frozen(np.array(features, dtype=np.float64, copy=True))


class FeatureCache(ContentCache):
    """LRU cache of feature matrices keyed by front-end config + content."""

    kind = "feature"
    codec = Codec(admit=_frozen_copy, decode=_frozen, arrays=True)
    default_capacity = 2048

    @staticmethod
    def key_for(extractor_tag: str, samples: np.ndarray,
                sample_rate: int) -> str:
        """Cache key of one (front-end configuration, clip) combination.

        ``extractor_tag`` is a front-end configuration tag (see
        :attr:`~repro.dsp.features.FeatureExtractor.cache_tag`); two
        extractors with equal tags share entries by design — that is the
        cross-suite-member sharing win.
        """
        return f"{extractor_tag}:{content_fingerprint(samples, sample_rate)}"
