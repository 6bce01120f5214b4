"""Tests of the benchmark itself: ``PYTHONPATH=src python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

import run as bench_run
import workload
from gen import CLIP_SAMPLES, HOT_SET_SIZE, ClipGenerator, RequestSource
from repro.pipeline.cache import waveform_fingerprint
from spans import Span, Tracer, layer_times

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_generator_is_deterministic_per_seed():
    first, again = ClipGenerator(5), ClipGenerator(5)
    for stream, index in (("fresh", 0), ("fresh", 7), ("hot", 3), ("warm", 1)):
        a, b = first.clip(stream, index), again.clip(stream, index)
        assert a.samples.tobytes() == b.samples.tobytes()
    other = ClipGenerator(6).clip("fresh", 0)
    assert waveform_fingerprint(other) != waveform_fingerprint(first.clip("fresh", 0))


def test_fresh_clips_are_distinct_and_fixed_length():
    generator = ClipGenerator(2)
    clips = [generator.clip("fresh", index) for index in range(40)]
    assert len({waveform_fingerprint(clip) for clip in clips}) == len(clips)
    assert {len(clip) for clip in clips} == {CLIP_SAMPLES}


def test_repeat_share_matches_each_workload():
    fresh = RequestSource(ClipGenerator(1), hot_share=0.0)
    fresh.note_sent(key for key, _ in fresh.take(24))
    assert fresh.repeat_share == 0.0

    hot = RequestSource(ClipGenerator(1), hot_share=1.0)
    hot.mark_seen(hot.hot_set)
    hot.note_sent(key for key, _ in hot.take(40))
    assert hot.repeat_share == 1.0

    mixed = RequestSource(ClipGenerator(1), hot_share=0.2)
    mixed.mark_seen(mixed.hot_set)
    mixed.note_sent(key for key, _ in mixed.take(200))
    assert 0.12 < mixed.repeat_share < 0.28
    assert len(mixed.hot_set) == HOT_SET_SIZE


def test_self_time_is_wall_time_of_parallel_children():
    spans = [
        Span(1, "detect", 0.0, 10.0, None, "b0"),
        Span(2, "engine", 1.0, 9.0, 1, "b0"),
        Span(3, "asr.DS0", 2.0, 8.0, 2, "b0"),     # two pool threads
        Span(4, "asr.DS1", 2.0, 6.0, 2, "b0"),
        Span(5, "similarity", 9.0, 9.5, 1, "b0"),
    ]
    layers = layer_times(spans)
    assert layers["asr"]["busy"] == pytest.approx(10.0)
    assert layers["asr"]["self"] == pytest.approx(6.0)
    assert layers["engine"]["self"] == pytest.approx(2.0)
    assert layers["detect"]["self"] == pytest.approx(1.5)
    total_self = sum(entry["self"] for entry in layers.values())
    assert total_self == pytest.approx(10.0)


def test_pool_thread_spans_adopt_the_open_engine_span():
    import threading

    tracer = Tracer()
    inner = tracer.wrap("asr.DS0", lambda: None)

    def fan_out():
        thread = threading.Thread(target=inner)
        thread.start()
        thread.join(timeout=5)
        assert not thread.is_alive()

    tracer.wrap("engine", fan_out, fanout=True)()
    by_name = {span.name: span for span in tracer.spans}
    assert by_name["asr.DS0"].parent == by_name["engine"].span_id


def test_parity_gate_fires_on_an_injected_mismatch():
    source = RequestSource(ClipGenerator(3), hot_share=1.0)
    key = ("hot", 0)
    reference = workload.build_reference()
    try:
        result = reference.detect(source.clips[key])
    finally:
        reference.close()
    good = workload.Outcome(key, True, bool(result.is_adversarial),
                            workload._score_bytes(result.scores))
    scores = np.frombuffer(good.scores, dtype=np.float64).copy()
    scores[0] = np.nextafter(scores[0], 2.0)        # one ulp off
    bad = workload.Outcome(key, True, good.verdict, scores.tobytes())
    phase = workload.Phase(outcomes=[good, good])
    assert workload.check_parity([phase], source) == (2, 0)
    phase.outcomes.append(bad)
    assert workload.check_parity([phase], source) == (3, 1)


def test_a_mismatch_reports_no_numbers(monkeypatch, tmp_path):
    (tmp_path / "src" / "repro").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "__init__.py").write_text("")
    fake = {"ready": 0.0, "attempted": 4, "failed": 0, "checked": 4,
            "mismatches": 1, "repeat_share": 0.0, "steal_frac": 0.0,
            "samples": {},
            "environment": {}, "metrics": {"clips_per_s": (1.0, "1/s")}}
    monkeypatch.setattr(bench_run, "launch",
                        lambda *args, **kwargs: (0.0, dict(fake)))
    _, result = bench_run.measure(str(tmp_path), "hot-batch", 0, 1.0, False)
    assert result["correct"] is False
    assert result["metrics"] == {}


def test_refuses_to_run_without_the_program(monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    code = bench_run.main(["--workload", "hot-batch", "--seed", "1",
                           "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_emitted_metric_names_match_the_contract():
    report = workload.run("hot-batch", seed=4, seconds=1.0, trace=True)
    contract = _contract()
    assert report["mismatches"] == 0 and report["checked"] > 0
    end_to_end = {"setup_s", *report["metrics"]}
    assert end_to_end == {metric["name"] for metric in contract["end_to_end"]}
    assert set(report["layers"]) == {metric["name"]
                                     for metric in contract["per_layer"]}
    units = {metric["name"]: metric["unit"]
             for metric in contract["end_to_end"] + contract["per_layer"]}
    for name, (_, unit) in {**report["metrics"], **report["layers"]}.items():
        assert units[name] == unit, name
    assert sorted(bench_run.WORKLOADS) == sorted(
        workload_entry["name"] for workload_entry in contract["workloads"])
