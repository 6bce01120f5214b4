"""The benchmark's clip generator.

Every clip gets its own random generator, derived from the workload seed,
a stream name and the clip's index.  The synthesiser's default derives its
generator from the sentence text alone, so a 79-sentence corpus can yield
at most 79 distinct clips per seed; a per-clip generator also draws a new
speaker and new jitter, so fresh clips never repeat by content.

Every clip is cut or zero-padded to exactly :data:`CLIP_SAMPLES` samples
(2.6 s at 16 kHz), so each request carries the same decode work and the
latency percentiles measure the system rather than which sentences a seed
happened to draw.
"""

from __future__ import annotations

import numpy as np

from repro.asr.registry import get_shared_lexicon
from repro.audio.synthesis import SpeechSynthesizer
from repro.config import SAMPLE_RATE
from repro.pipeline.cache import waveform_fingerprint
from repro.text.corpus import librispeech_like_corpus

CLIP_SECONDS = 2.6
CLIP_SAMPLES = int(CLIP_SECONDS * SAMPLE_RATE)

#: Size of the hot set that hot traffic is drawn from.
HOT_SET_SIZE = 16

#: Stream identifiers, so the streams of one seed never share a generator.
STREAMS = {"fresh": 1, "hot": 2, "warm": 3, "mix": 4}


class ClipGenerator:
    """Deterministic clips for one workload seed.

    A clip depends only on the seed, its stream and its index, never on
    call order, so any clip can be regenerated anywhere.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._corpus = librispeech_like_corpus()
        self._synthesizer = SpeechSynthesizer(sample_rate=SAMPLE_RATE,
                                              lexicon=get_shared_lexicon())

    def clip(self, stream: str, index: int):
        """The ``index``-th clip of ``stream`` ("fresh", "hot" or "warm")."""
        if stream == "hot" and not 0 <= index < HOT_SET_SIZE:
            raise ValueError(f"hot index must be in [0, {HOT_SET_SIZE})")
        rng = np.random.default_rng((self.seed, STREAMS[stream], int(index)))
        sentence = self._corpus.sample_one(rng)
        clip = self._synthesizer.synthesize(sentence, rng=rng)
        return clip.padded_to(CLIP_SAMPLES)


class RequestSource:
    """Hands out the requests of one run and records what was sent.

    Hot requests are spread evenly: of any ``1 / hot_share`` consecutive
    requests exactly one is hot, from a seeded phase, so every batch
    carries nearly the same decode work.  A hot request is a uniform pick
    from the hot set; any other is the next fresh clip.  Fresh indices
    come from one counter across phases, so no fresh clip is sent twice in
    a run.  Generated clips are kept under their request key for the
    correctness check after the timed phases.
    """

    def __init__(self, generator: ClipGenerator, hot_share: float):
        self.generator = generator
        self.hot_share = float(hot_share)
        self._mix = np.random.default_rng((generator.seed, STREAMS["mix"]))
        self._phase = float(self._mix.random())
        self._requests = 0
        self._next_fresh = 0
        self.hot_set = [generator.clip("hot", index)
                        for index in range(HOT_SET_SIZE)]
        self.clips: dict[tuple[str, int], object] = {}
        self.hashes: dict[tuple[str, int], str] = {}
        for index, clip in enumerate(self.hot_set):
            self._keep(("hot", index), clip)
        self.seen: set[str] = set()
        #: Bytes of generated clips held for the correctness check.
        self.input_bytes = sum(clip.samples.nbytes for clip in self.hot_set)
        self.sent = 0
        self.repeats = 0

    def take(self, n: int) -> list[tuple[tuple[str, int], object]]:
        """The next ``n`` requests as ``((stream, index), clip)`` pairs."""
        out = []
        for _ in range(n):
            position = self._requests + self._phase
            self._requests += 1
            if np.floor((position + 1) * self.hot_share) \
                    > np.floor(position * self.hot_share):
                key = ("hot", int(self._mix.integers(HOT_SET_SIZE)))
            else:
                key = ("fresh", self._next_fresh)
                self._next_fresh += 1
                self._keep(key, self.generator.clip(*key))
                self.input_bytes += self.clips[key].samples.nbytes
            out.append((key, self.clips[key]))
        return out

    def _keep(self, key, clip) -> None:
        self.clips[key] = clip
        self.hashes[key] = waveform_fingerprint(clip)

    def warm(self, n: int) -> list:
        """``n`` warm-up clips of their own stream; they count as seen."""
        clips = [self.generator.clip("warm", index) for index in range(n)]
        self.mark_seen(clips)
        return clips

    def mark_seen(self, clips) -> None:
        """Record content the program has already been sent (warm-up)."""
        self.seen.update(waveform_fingerprint(clip) for clip in clips)

    def note_sent(self, keys) -> None:
        """Count sent requests, and those whose content was sent before."""
        for key in keys:
            digest = self.hashes[key]
            self.sent += 1
            if digest in self.seen:
                self.repeats += 1
            else:
                self.seen.add(digest)

    @property
    def repeat_share(self) -> float:
        return self.repeats / self.sent if self.sent else 0.0
