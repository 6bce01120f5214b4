"""Tests for the batch scoring engine: kernels, backends, pair cache.

The fast backend's contract is *bit-identical* scores — every assertion
on values here is ``==`` on floats, not ``approx``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.similarity.engine import (
    FastScoringBackend,
    ReferenceScoringBackend,
    ScoreBatchReport,
    SimilarityEngine,
    get_scoring_backend,
    get_shared_score_cache,
    register_scoring_backend,
    scoring_backend_names,
)
from repro.similarity.kernels import (
    VECTORIZE_MIN_TOKENS,
    cosine_from_counts,
    edit_distance_fast,
    jaccard_from_sets,
    jaro_similarity_fast,
    jaro_winkler_similarity_fast,
    levenshtein_ratio_fast,
    token_counts,
)
from repro.similarity.score_cache import PairScoreCache
from repro.similarity.scorer import SIMILARITY_METHODS, get_scorer
from repro.similarity.string_metrics import (
    cosine_similarity,
    jaccard_similarity,
    jaro_similarity,
    jaro_winkler_similarity,
    levenshtein_ratio,
)
from repro.text.metrics import edit_distance
from repro.text.normalize import tokenize

# Unrestricted unicode exercises the kernels on inputs far beyond what
# the ASRs emit; the word-ish alphabet produces realistic token overlap.
_any_text = st.text(max_size=40)
_wordish = st.text(alphabet="abcdefgh ", max_size=40)

_ALL_METHODS = (*SIMILARITY_METHODS, "Levenshtein", "PE_Levenshtein")


# ------------------------------------------------------------ kernel parity
@given(_any_text, _any_text)
def test_edit_distance_fast_bit_identical(a, b):
    assert edit_distance_fast(a, b) == edit_distance(a, b)


@given(_any_text, _any_text)
def test_jaro_kernels_bit_identical(a, b):
    assert jaro_similarity_fast(a, b) == jaro_similarity(a, b)
    assert jaro_winkler_similarity_fast(a, b) == jaro_winkler_similarity(a, b)


@given(_any_text, _any_text)
def test_levenshtein_ratio_fast_bit_identical(a, b):
    assert levenshtein_ratio_fast(a, b) == levenshtein_ratio(a, b)


@given(_wordish, _wordish)
def test_token_kernels_bit_identical(a, b):
    counts_a, norm_a = token_counts(tokenize(a))
    counts_b, norm_b = token_counts(tokenize(b))
    assert cosine_from_counts(counts_a, norm_a,
                              counts_b, norm_b) == cosine_similarity(a, b)
    assert jaccard_from_sets(frozenset(counts_a),
                             frozenset(counts_b)) == jaccard_similarity(a, b)


def test_cosine_vectorized_branch_bit_identical():
    # Token sets large enough to take the numpy path.
    rng = np.random.default_rng(5)
    letters = "abcdefghijklmnopqrstuvwxyz"
    vocabulary = [letters[i % 26] + letters[(i // 26) % 26] + letters[i % 13]
                  for i in range(3 * VECTORIZE_MIN_TOKENS)]
    a = " ".join(rng.choice(vocabulary, size=6 * VECTORIZE_MIN_TOKENS))
    b = " ".join(rng.choice(vocabulary, size=6 * VECTORIZE_MIN_TOKENS))
    counts_a, norm_a = token_counts(tokenize(a))
    counts_b, norm_b = token_counts(tokenize(b))
    assert min(len(counts_a), len(counts_b)) >= VECTORIZE_MIN_TOKENS
    assert cosine_from_counts(counts_a, norm_a,
                              counts_b, norm_b) == cosine_similarity(a, b)


def test_jaro_winkler_fast_validates_prefix_scale():
    with pytest.raises(ValueError):
        jaro_winkler_similarity_fast("a", "a", prefix_scale=0.5)


# ----------------------------------------------------------- backend parity
@settings(max_examples=40)
@given(_wordish, _wordish)
def test_fast_backend_bit_identical_all_methods(a, b):
    fast, reference = FastScoringBackend(), ReferenceScoringBackend()
    for method in _ALL_METHODS:
        scorer = get_scorer(method)
        assert (fast.score_pairs(scorer, [(a, b)])[0]
                == reference.score_pairs(scorer, [(a, b)])[0]
                == scorer.score(a, b))


@settings(max_examples=20)
@given(st.lists(st.tuples(_any_text, _any_text), max_size=12))
def test_fast_backend_batch_matches_reference(pairs):
    scorer = get_scorer()
    fast = FastScoringBackend().score_pairs(scorer, pairs)
    reference = ReferenceScoringBackend().score_pairs(scorer, pairs)
    assert fast.dtype == np.float64 and fast.shape == (len(pairs),)
    assert np.array_equal(fast, reference)


def test_backend_registry():
    assert {"fast", "reference"} <= set(scoring_backend_names())
    assert get_scoring_backend("fast").name == "fast"
    assert get_scoring_backend() is get_scoring_backend("fast")  # shared
    with pytest.raises(KeyError):
        get_scoring_backend("nope")

    class UpsideDown:
        name = "upside-down"

        def score_pairs(self, scorer, pairs):
            return 1.0 - ReferenceScoringBackend().score_pairs(scorer, pairs)

    register_scoring_backend("upside-down", UpsideDown)
    try:
        engine = SimilarityEngine(backend="upside-down", cache=False)
        assert engine.score_pair("open the door", "open the door") == 0.0
    finally:
        # Leave the registry as the other tests expect it.
        from repro.similarity import engine as engine_module
        engine_module._BACKEND_FACTORIES.pop("upside-down")
        engine_module._backend_instance.cache_clear()


# ------------------------------------------------------------- score cache


def test_pair_score_cache_keys_are_content_and_direction_aware():
    key = PairScoreCache.key_for
    assert key("t", "a", "b") != key("t", "b", "a")
    assert key("t", "a", "b") != key("u", "a", "b")
    assert key("t", "ab", "c") != key("t", "a", "bc")


# ------------------------------------------------------------------- engine
def test_engine_score_apis_agree_and_are_float64():
    engine = SimilarityEngine(cache=PairScoreCache())
    target = "open the front door"
    auxiliaries = ["open the front door", "open a front tour", ""]
    vector = engine.score_texts(target, auxiliaries)
    assert vector.dtype == np.float64 and vector.shape == (3,)
    pairs = engine.score_pairs([(target, text) for text in auxiliaries])
    assert np.array_equal(vector, pairs)
    for text, value in zip(auxiliaries, vector):
        assert engine.score_pair(target, text) == value
    assert engine.score_pairs([]).shape == (0,)


def test_engine_cache_reporting_and_sharing():
    cache = PairScoreCache()
    first = SimilarityEngine(cache=cache)
    second = SimilarityEngine(cache=cache)
    pairs = [("open the door", "open the door"),
             ("open the door", "shut the window")]
    _, report = first.score_pairs_report(pairs)
    assert report == ScoreBatchReport(cache_hits=0, cache_misses=2)
    _, report = second.score_pairs_report(pairs)          # shared cache hits
    assert report == ScoreBatchReport(cache_hits=2, cache_misses=0)
    assert report.hit_rate == 1.0
    # Cache off: every pair is a miss and nothing is stored.
    bare = SimilarityEngine(cache=False)
    _, report = bare.score_pairs_report(pairs)
    assert report.cache_misses == 2 and bare.stats.lookups == 0
    with pytest.raises(RuntimeError):
        bare.save_cache()


def test_duplicate_misses_are_computed_once_per_call():
    calls = []

    class Counting:
        name = "counting"

        def score_pairs(self, scorer, pairs):
            calls.append(len(pairs))
            return ReferenceScoringBackend().score_pairs(scorer, pairs)

    engine = SimilarityEngine(backend=Counting(), cache=PairScoreCache())
    pair = ("open the door", "open the tour")
    values, report = engine.score_pairs_report([pair, pair, pair])
    assert calls == [1]                       # deduplicated before the backend
    assert report.cache_misses == 3 and report.cache_hits == 0
    assert values[0] == values[1] == values[2] == get_scorer().score(*pair)
    _, report = engine.score_pairs_report([pair])
    assert report.cache_hits == 1


def test_engine_accepts_scorer_names_and_instances():
    assert SimilarityEngine().scorer.name == "PE_JaroWinkler"
    assert SimilarityEngine(scorer="Cosine").scorer is get_scorer("Cosine")
    assert SimilarityEngine(scorer=get_scorer("Jaccard")).scorer.name == "Jaccard"
    with pytest.raises(KeyError):
        SimilarityEngine(scorer="nope")


def test_shared_score_cache_is_process_wide():
    engine = SimilarityEngine()
    assert engine.cache is get_shared_score_cache()
    assert SimilarityEngine().cache is engine.cache


def test_scorer_cache_tag_distinguishes_configuration():
    assert get_scorer("Cosine").cache_tag != get_scorer("PE_Cosine").cache_tag
    assert get_scorer("Cosine").cache_tag != get_scorer("Jaccard").cache_tag


def test_custom_backend_cannot_poison_the_parity_cache():
    """A backend that does not declare the parity namespace is isolated:
    its (possibly approximate) scores never serve other backends' hits."""

    class Approximate:
        name = "approximate"        # no cache_namespace attribute

        def score_pairs(self, scorer, pairs):
            return np.full(len(pairs), 0.5)

    cache = PairScoreCache()
    exact = SimilarityEngine(backend="fast", cache=cache)
    approximate = SimilarityEngine(backend=Approximate(), cache=cache)
    pair = ("open the door", "open the tour")
    assert approximate.score_pair(*pair) == 0.5
    assert exact.score_pair(*pair) == get_scorer().score(*pair) != 0.5
    # Both populated the one cache, under distinct namespaced keys.
    assert len(cache) == 2
    # The built-in backends do share entries (both are bit-identical).
    reference = SimilarityEngine(backend="reference", cache=cache)
    _, report = reference.score_pairs_report([pair])
    assert report.cache_hits == 1 and len(cache) == 2


# ------------------------------------------------------ features layer glue
def test_scores_from_transcriptions_dtype_is_float64():
    from repro.core.features import scores_from_transcriptions

    vector = scores_from_transcriptions("open the door",
                                        ["open the door", "shut it"])
    assert vector.dtype == np.float64
    assert vector[0] == 1.0
    empty = scores_from_transcriptions("open the door", [])
    assert empty.dtype == np.float64 and empty.shape == (0,)


def test_suite_scoring_matches_scalar_path():
    """score_suites over engine suites == the seed per-pair scalar path."""
    from repro.asr.registry import build_asr, get_shared_lexicon
    from repro.audio.synthesis import SpeechSynthesizer
    from repro.pipeline.engine import TranscriptionEngine
    from repro.text.corpus import attack_command_corpus

    rng = np.random.default_rng(3)
    synthesizer = SpeechSynthesizer(lexicon=get_shared_lexicon(), seed=3)
    phrases = attack_command_corpus().sample(3, rng)
    audios = [synthesizer.synthesize(phrase) for phrase in phrases]
    target = build_asr("DS0")
    auxiliaries = [build_asr("DS1"), build_asr("GCS")]
    with TranscriptionEngine(target, auxiliaries, workers=0) as engine:
        suites = engine.transcribe_batch(audios)

    scorer = get_scorer()
    expected = np.array([
        [scorer.score(suite.target.text, suite.auxiliaries[aux.short_name].text)
         for aux in auxiliaries]
        for suite in suites], dtype=np.float64)
    for backend in ("fast", "reference"):
        scoring = SimilarityEngine(backend=backend, cache=PairScoreCache())
        matrix = scoring.score_suites(suites, auxiliaries)
        assert matrix.dtype == np.float64
        assert np.array_equal(matrix, expected)


def test_features_for_recompute_honours_the_scoring_engine():
    """The dataset recompute path uses the caller's engine (its backend
    and cache policy), not a fresh default one."""
    from repro.datasets.scores import ScoredDataset

    dataset = ScoredDataset(
        labels=np.array([0, 1]),
        kinds=["benign", "whitebox-ae"],
        target_texts=["open the door", "open the door"],
        auxiliary_texts={"DS1": ["open the door", "no one there"],
                         "GCS": ["open a door", "nobody here"],
                         "AT": ["open the door", "none of it"]},
        method="PE_JaroWinkler",
        scores=np.zeros((2, 3)))
    private = PairScoreCache()
    engine = SimilarityEngine(scorer="Cosine", cache=private)
    shared_lookups_before = get_shared_score_cache().stats.lookups
    features, labels = dataset.features_for(("DS1", "GCS"), method="Cosine",
                                            scoring=engine)
    assert features.shape == (2, 2) and labels.shape == (2,)
    assert private.stats.misses == 4                     # went through `engine`
    assert get_shared_score_cache().stats.lookups == shared_lookups_before
    scorer = get_scorer("Cosine")
    assert features[0, 0] == scorer.score("open the door", "open the door")
    assert features[1, 1] == scorer.score("open the door", "nobody here")


# --------------------------------------------- backend parity, end to end
def test_backend_parity_across_detection_paths():
    """Fast and reference backends produce bit-identical score vectors on
    the sequential, batched, streamed and transform-ensemble paths."""
    from repro import (
        DetectionPipeline,
        MVPEarsDetector,
        StreamConfig,
        StreamingDetector,
        TransformEnsembleDetector,
        parse_transforms,
    )
    from repro.asr.registry import build_asr, get_shared_lexicon
    from repro.audio.synthesis import SpeechSynthesizer
    from repro.pipeline.cache import TranscriptionCache

    synthesizer = SpeechSynthesizer(lexicon=get_shared_lexicon(), seed=9)
    clips = [synthesizer.synthesize(text)
             for text in ("open the front door", "turn off all the lights",
                          "play some quiet music")]
    stream_audio = clips[0].with_samples(
        np.concatenate([clip.samples for clip in clips]))
    shared_transcriptions = TranscriptionCache()

    def fitted(backend, transform_ensemble):
        scoring = SimilarityEngine(backend=backend, cache=PairScoreCache())
        if transform_ensemble:
            detector = TransformEnsembleDetector(
                build_asr("DS0"),
                transforms=parse_transforms("quantize:8,lowpass:3000"),
                workers=0, cache=shared_transcriptions, scoring=scoring)
        else:
            detector = MVPEarsDetector(
                build_asr("DS0"), [build_asr("DS1"), build_asr("GCS")],
                workers=0, cache=shared_transcriptions, scoring=scoring)
        n = detector.n_features
        features = np.vstack([np.full((4, n), 0.95), np.full((4, n), 0.05)])
        return detector.fit_features(features, np.array([0] * 4 + [1] * 4))

    for transform_ensemble in (False, True):
        fast = fitted("fast", transform_ensemble)
        reference = fitted("reference", transform_ensemble)

        sequential_fast = [fast.detect(clip).scores for clip in clips]
        sequential_reference = [reference.detect(clip).scores
                                for clip in clips]
        assert np.array_equal(np.array(sequential_fast),
                              np.array(sequential_reference))

        batch_fast = DetectionPipeline(fast).detect_batch(clips)
        batch_reference = DetectionPipeline(reference).detect_batch(clips)
        assert np.array_equal(batch_fast.features, batch_reference.features)
        assert np.array_equal(batch_fast.features,
                              np.array(sequential_reference))

        config = StreamConfig(window_seconds=1.0, hop_seconds=0.5)
        stream_fast = StreamingDetector(fast, config=config) \
            .detect_stream(stream_audio)
        stream_reference = StreamingDetector(reference, config=config) \
            .detect_stream(stream_audio)
        assert len(stream_fast) == len(stream_reference) > 0
        assert np.array_equal(
            np.array([window.scores for window in stream_fast.windows]),
            np.array([window.scores for window in stream_reference.windows]))
