"""The batch-first similarity scoring engine.

The paper's detection cost is recognition plus one similarity score per
auxiliary (Section V's overhead study).  PR 1 gave recognition a
batch-first execution layer (worker-pool fan-out + content-hash cache);
this module gives the scoring stage the same treatment:

* :class:`ScoringBackend` — the pluggable kernel layer.  ``"reference"``
  wraps the original scalar :meth:`SimilarityScorer.score` path
  unchanged; ``"fast"`` splits scoring into an *encode* phase (normalise
  + optional phonetic encoding, run once per distinct text) and a
  *metric* phase over the fast kernels in
  :mod:`repro.similarity.kernels`.  Both produce bit-identical score
  vectors — pinned by property tests — so the fast backend is the
  default everywhere.
* :class:`SimilarityEngine` — batch APIs (:meth:`score_pairs`,
  :meth:`score_texts`, :meth:`score_suites`) in front of a backend, with
  pair scores memoised in a
  :class:`~repro.similarity.score_cache.PairScoreCache` (shared
  process-wide by default, mirroring the transcription cache).

Every scoring call site in the library — detector, batched pipeline,
streaming windows, micro-batched serving, transform ensembles, the
related-work baselines, the experiment tables — routes through an engine,
so overlapping streaming windows and verbatim-agreeing ensemble members
stop recomputing identical pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.content_cache import CacheStats
from repro.errors import UnknownComponentError
from repro.similarity.kernels import (
    cosine_from_counts,
    jaccard_from_sets,
    jaro_winkler_similarity_fast,
    levenshtein_ratio_fast,
    token_counts,
)
from repro.similarity.phonetic import phonetic_encode
from repro.similarity.score_cache import PairScoreCache, text_fingerprint
from repro.similarity.scorer import SimilarityScorer, get_scorer
from repro.text.normalize import normalize_text, tokenize

#: The backend used when none is requested.
DEFAULT_SCORING_BACKEND = "fast"

#: Metrics whose kernels consume token statistics rather than characters.
_TOKEN_METRICS = frozenset({"Cosine", "Jaccard"})


# ------------------------------------------------------------------ backends
@runtime_checkable
class ScoringBackend(Protocol):
    """A similarity kernel implementation.

    A backend turns ``(scorer, text pairs)`` into a float64 score array.
    Implementations must be stateless across calls (engines may share one
    instance between threads).

    Cache namespacing: pair scores are cached under the backend's
    ``cache_namespace``.  The built-in backends set it to ``""`` — the
    shared parity namespace — because they return values bit-identical
    to the reference scalar path ``scorer.score(a, b)`` for every
    registered scorer, so their entries are interchangeable.  A custom
    backend without the attribute is namespaced by its ``name``, so an
    approximate backend can never poison the shared cache; set
    ``cache_namespace = ""`` only if your backend upholds the
    bit-identity contract.
    """

    name: str

    def score_pairs(self, scorer: SimilarityScorer,
                    pairs: Sequence[tuple[str, str]]) -> np.ndarray:
        """Scores of ``pairs`` under ``scorer``, shape ``(len(pairs),)``."""
        ...


class ReferenceScoringBackend:
    """The original scalar path: one ``scorer.score`` call per pair.

    Kept as the ground truth the fast backend is pinned against, and as
    the baseline of the similarity benchmark (``repro bench-similarity``).
    """

    name = "reference"
    cache_namespace = ""        # ground truth of the parity namespace

    def score_pairs(self, scorer: SimilarityScorer,
                    pairs: Sequence[tuple[str, str]]) -> np.ndarray:
        return np.array([scorer.score(text_a, text_b)
                         for text_a, text_b in pairs], dtype=np.float64)


@dataclass(frozen=True)
class _EncodedText:
    """One text after the encode phase, ready for the metric kernels.

    ``chars`` is exactly the string the reference metric would see
    (normalised, optionally phonetic-encoded); the token fields are
    derived from it with the same ``tokenize`` the reference token
    metrics call internally, so kernel inputs are identical by
    construction.
    """

    chars: str
    counts: dict[str, int] | None = None
    norm: float = 0.0
    token_set: frozenset[str] | None = None


class FastScoringBackend:
    """Encode-once scoring over the fast kernels.

    Within one :meth:`score_pairs` call every distinct text is encoded
    exactly once (the reference path re-normalises and re-phonetic-encodes
    the target transcription once per auxiliary) and every distinct pair
    is scored exactly once.  The metric kernels are the early-exit /
    banded / pruned implementations in :mod:`repro.similarity.kernels`,
    each pinned bit-identical to its reference metric.
    """

    name = "fast"
    cache_namespace = ""        # bit-identical to reference (pinned by tests)

    def score_pairs(self, scorer: SimilarityScorer,
                    pairs: Sequence[tuple[str, str]]) -> np.ndarray:
        kernel = self._kernel_for(scorer.metric_name)
        if kernel is None:
            # Unknown metric (a user-registered scorer): fall back to the
            # scalar path rather than guess at kernel semantics.
            return ReferenceScoringBackend().score_pairs(scorer, pairs)
        encoded: dict[str, _EncodedText] = {}
        memo: dict[tuple[str, str], float] = {}
        out = np.empty(len(pairs), dtype=np.float64)
        for index, (text_a, text_b) in enumerate(pairs):
            value = memo.get((text_a, text_b))
            if value is None:
                enc_a = encoded.get(text_a)
                if enc_a is None:
                    enc_a = encoded[text_a] = self._encode(scorer, text_a)
                enc_b = encoded.get(text_b)
                if enc_b is None:
                    enc_b = encoded[text_b] = self._encode(scorer, text_b)
                # The same clamp the reference scorer applies.
                value = float(min(1.0, max(0.0, kernel(enc_a, enc_b))))
                memo[(text_a, text_b)] = value
            out[index] = value
        return out

    # ------------------------------------------------------------- internals
    @staticmethod
    def _encode(scorer: SimilarityScorer, text: str) -> _EncodedText:
        chars = normalize_text(text)
        if scorer.use_phonetic_encoding:
            chars = phonetic_encode(chars)
        if scorer.metric_name not in _TOKEN_METRICS:
            return _EncodedText(chars=chars)
        tokens = tokenize(chars)
        counts, norm = token_counts(tokens)
        return _EncodedText(chars=chars, counts=counts, norm=norm,
                            token_set=frozenset(counts))

    @staticmethod
    def _kernel_for(metric_name: str) -> Callable | None:
        return _FAST_KERNELS.get(metric_name)


def _cosine_kernel(a: _EncodedText, b: _EncodedText) -> float:
    return cosine_from_counts(a.counts, a.norm, b.counts, b.norm)


def _jaccard_kernel(a: _EncodedText, b: _EncodedText) -> float:
    return jaccard_from_sets(a.token_set, b.token_set)


def _jaro_winkler_kernel(a: _EncodedText, b: _EncodedText) -> float:
    return jaro_winkler_similarity_fast(a.chars, b.chars)


def _levenshtein_kernel(a: _EncodedText, b: _EncodedText) -> float:
    return levenshtein_ratio_fast(a.chars, b.chars)


_FAST_KERNELS: dict[str, Callable] = {
    "Cosine": _cosine_kernel,
    "Jaccard": _jaccard_kernel,
    "JaroWinkler": _jaro_winkler_kernel,
    "Levenshtein": _levenshtein_kernel,
}


# ------------------------------------------------------------------ registry
_BACKEND_FACTORIES: dict[str, Callable[[], ScoringBackend]] = {
    "reference": ReferenceScoringBackend,
    "fast": FastScoringBackend,
}


def register_scoring_backend(name: str,
                             factory: Callable[[], ScoringBackend]) -> None:
    """Register a backend factory under ``name`` (overwrites allowed)."""
    _BACKEND_FACTORIES[name] = factory
    _backend_instance.cache_clear()


def scoring_backend_names() -> tuple[str, ...]:
    """Names of every registered scoring backend."""
    return tuple(sorted(_BACKEND_FACTORIES))


@lru_cache(maxsize=None)
def _backend_instance(name: str) -> ScoringBackend:
    return _BACKEND_FACTORIES[name]()


def get_scoring_backend(name: str = DEFAULT_SCORING_BACKEND) -> ScoringBackend:
    """Return the (shared, stateless) backend registered under ``name``."""
    try:
        return _backend_instance(name)
    except KeyError:
        raise UnknownComponentError("scoring backend", name,
                                    scoring_backend_names()) from None


# ------------------------------------------------------------- shared cache
#: The process-wide pair-score cache default engines share.
get_shared_score_cache = PairScoreCache.shared
#: Score-cache policy (``--score-cache``, ``ScoringSpec.cache``) -> cache.
resolve_score_cache = PairScoreCache.resolve


# -------------------------------------------------------------------- engine
@dataclass(frozen=True)
class ScoreBatchReport:
    """Cache accounting for one engine batch call (thread-local counts)."""

    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def lookups(self) -> int:
        return self.cache_hits + self.cache_misses

    @property
    def hit_rate(self) -> float:
        """Fraction of pair lookups served from the cache (0 when unused)."""
        if self.lookups == 0:
            return 0.0
        return self.cache_hits / self.lookups


class SimilarityEngine:
    """Batch similarity scoring through a backend and a pair-score cache.

    Args:
        scorer: a :class:`SimilarityScorer`, a registry name, or ``None``
            for the paper's default (``PE_JaroWinkler``).
        backend: a :class:`ScoringBackend`, a registry name
            (``"fast"``/``"reference"``), or ``None`` for the default
            fast backend.
        cache: a score-cache policy (see
            :meth:`~repro.content_cache.ContentCache.resolve`).  ``True``
            (default) is the process-wide cache from
            :func:`get_shared_score_cache` unless ``REPRO_SCORE_CACHE``
            says ``off`` or ``private``; ``False``/``None`` disables
            caching; a :class:`PairScoreCache` is used as given.
        cache_path: convenience — when given (and ``cache`` is ``True``)
            a private on-disk cache at this path is used instead of the
            shared one.
    """

    def __init__(self, scorer: SimilarityScorer | str | None = None,
                 backend: ScoringBackend | str | None = None,
                 cache: PairScoreCache | bool | str | None = True,
                 cache_path: str | None = None):
        if scorer is None:
            scorer = get_scorer()
        elif isinstance(scorer, str):
            scorer = get_scorer(scorer)
        self.scorer = scorer
        if backend is None:
            backend = get_scoring_backend()
        elif isinstance(backend, str):
            backend = get_scoring_backend(backend)
        self.backend = backend
        if cache is True and cache_path is not None:
            cache = PairScoreCache(path=cache_path)
        self.cache: PairScoreCache | None = PairScoreCache.resolve(cache)

    # -------------------------------------------------------------- plumbing
    @property
    def stats(self) -> CacheStats:
        """Hit/miss statistics of the engine's cache (zeros if disabled)."""
        return self.cache.stats if self.cache is not None else CacheStats()

    def save_cache(self, path: str | None = None) -> str:
        """Persist the cache to disk (see :meth:`PairScoreCache.save`)."""
        if self.cache is None:
            raise RuntimeError("engine has no cache to save")
        return self.cache.save(path)

    # --------------------------------------------------------------- scoring
    def score_pair(self, text_a: str, text_b: str) -> float:
        """Similarity of one transcription pair, in ``[0, 1]``."""
        return float(self.score_pairs([(text_a, text_b)])[0])

    def score_pairs(self, pairs: Sequence[tuple[str, str]]) -> np.ndarray:
        """Scores of a batch of text pairs, shape ``(len(pairs),)``."""
        return self.score_pairs_report(pairs)[0]

    def score_pairs_report(
            self, pairs: Sequence[tuple[str, str]],
    ) -> tuple[np.ndarray, ScoreBatchReport]:
        """Like :meth:`score_pairs`, plus this call's cache accounting.

        The report counts are accumulated locally during the call, so
        they stay correct when several threads share one engine (the
        cache's own global counters interleave under concurrency).
        """
        pairs = list(pairs)
        if not pairs:
            return np.empty(0, dtype=np.float64), ScoreBatchReport()
        if self.cache is None:
            values = self.backend.score_pairs(self.scorer, pairs)
            return (np.asarray(values, dtype=np.float64),
                    ScoreBatchReport(cache_misses=len(pairs)))
        tag = self._cache_tag
        out = np.empty(len(pairs), dtype=np.float64)
        # Fingerprints are memoised per distinct text (a suite batch hashes
        # each target text once, not once per auxiliary), and missed pairs
        # are deduplicated before reaching the backend; the key format is
        # PairScoreCache.key_for's.
        fingerprints: dict[str, str] = {}
        pending: dict[str, list[int]] = {}
        miss_pairs: list[tuple[str, str]] = []
        hits = 0
        misses = 0
        for index, (text_a, text_b) in enumerate(pairs):
            fp_a = fingerprints.get(text_a)
            if fp_a is None:
                fp_a = fingerprints[text_a] = text_fingerprint(text_a)
            fp_b = fingerprints.get(text_b)
            if fp_b is None:
                fp_b = fingerprints[text_b] = text_fingerprint(text_b)
            key = f"{tag}:{fp_a}:{fp_b}"
            value = self.cache.get(key)
            if value is None:
                misses += 1
                indices = pending.get(key)
                if indices is None:
                    pending[key] = [index]
                    miss_pairs.append((text_a, text_b))
                else:
                    indices.append(index)
            else:
                out[index] = value
                hits += 1
        if miss_pairs:
            values = self.backend.score_pairs(self.scorer, miss_pairs)
            for (key, indices), value in zip(pending.items(), values):
                out[indices] = value
                self.cache.put(key, float(value))
        return out, ScoreBatchReport(cache_hits=hits, cache_misses=misses)

    @property
    def _cache_tag(self) -> str:
        """The scorer tag, namespaced by non-parity backends.

        Backends that do not declare ``cache_namespace`` are isolated
        under their own name, so an approximate custom backend cannot
        poison entries the bit-identical backends share.
        """
        namespace = getattr(self.backend, "cache_namespace", self.backend.name)
        if not namespace:
            return self.scorer.cache_tag
        return f"{namespace}|{self.scorer.cache_tag}"

    def score_texts(self, target_text: str,
                    auxiliary_texts: Sequence[str]) -> np.ndarray:
        """Feature vector: target text against each auxiliary text."""
        return self.score_pairs([(target_text, text)
                                 for text in auxiliary_texts])

    def score_suites(self, suites, auxiliary_asrs) -> np.ndarray:
        """Feature matrix for a batch of suite transcriptions.

        Args:
            suites: :class:`~repro.pipeline.engine.SuiteTranscription`
                objects (anything with ``.target.text`` and an
                ``.auxiliaries`` mapping of short name → transcription).
            auxiliary_asrs: auxiliary ASRs fixing the column order.

        Returns:
            Array of shape ``(len(suites), len(auxiliary_asrs))``,
            dtype float64.
        """
        return self.score_suites_report(suites, auxiliary_asrs)[0]

    def score_suites_report(
            self, suites, auxiliary_asrs,
    ) -> tuple[np.ndarray, ScoreBatchReport]:
        """Like :meth:`score_suites`, plus this call's cache accounting."""
        suites = list(suites)
        n_aux = len(auxiliary_asrs)
        if not suites:
            return (np.empty((0, n_aux), dtype=np.float64),
                    ScoreBatchReport())
        names = [asr.short_name for asr in auxiliary_asrs]
        pairs = [(suite.target.text, suite.auxiliaries[name].text)
                 for suite in suites for name in names]
        flat, report = self.score_pairs_report(pairs)
        return flat.reshape(len(suites), n_aux), report


def default_engine(scorer: SimilarityScorer | str | None = None) -> SimilarityEngine:
    """An engine with the default backend and the shared pair-score cache.

    Engines are cheap value-like objects (the backend instance and the
    shared cache are process-wide singletons), so call sites that are not
    handed an explicit engine construct one on the fly.
    """
    return SimilarityEngine(scorer=scorer)
