"""One benchmark run, in the fresh process ``run.py`` starts for it.

Usage (normally through ``run.py``, which scrubs the environment)::

    python perfbench/workload.py --workload fresh-batch --seed 1 --seconds 16 --trace 0
    python perfbench/workload.py --workload serve-mixed --setup-only

A run builds the default detector with training pinned to the ``tiny``
scored dataset, warms up, then drives three timed phases on one kind of
traffic: an open loop at :data:`RATES` ``low``, one at ``high``, and a
closed loop of batches of :data:`BATCH_SIZE` that saturates the program.
All requests are generated before timing starts.
After the timed phases every answer is checked against a sequential,
cache-off reference detector.  The result is printed as one JSON line.

The batch workloads drive ``DetectionPipeline.detect_batch`` from one
in-process caller; in the open-loop phases that caller takes every request
that is due (up to a batch) each time it is free.  ``serve-mixed`` drives
``DetectionService`` at its defaults from one asyncio client.
"""

from __future__ import annotations

import argparse
import asyncio
import glob
import json
import multiprocessing
import os
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from gen import ClipGenerator, RequestSource
from spans import Tracer, busy_by_name, install, layer_times, span_cost

#: Latency limit for the ``high.slo_frac`` metric (applied per request).
LATENCY_LIMIT_S = 0.250
#: Fixed open-loop arrival rates, requests per second.
RATES = {"low": 5.0, "high": 8.0}
#: Clips per batch in the closed loop (and the most one pickup takes).
BATCH_SIZE = 8
#: Share of ``--seconds`` given to each timed phase.
PHASE_SHARES = {"low": 0.17, "high": 0.17, "saturate": 0.66}
#: The phases run as this many interleaved rounds (low, high, saturate,
#: low, ...), so each phase samples the whole run's machine noise and the
#: decoder memo's warm-up in equal measure.
ROUNDS = 3
#: Fresh clips the warm-up sends, so the decoder's memo of word searches
#: is past its steepest warm-up before timing starts.
WARM_CLIPS = 48
#: Reference answers the parent computes before forking its helpers.
REFERENCE_WARM_CLIPS = 40
TENANT = "default"


@dataclass(frozen=True)
class Workload:
    hot_share: float
    served: bool
    #: Sizes the closed loop: it runs a fixed number of batches, about
    #: its share of ``--seconds`` at this rate on a 2-CPU machine.  A
    #: fixed count (not a deadline) keeps every run's work, and so the
    #: decoder memo's warm-up along it, the same however fast it runs.
    nominal_clips_per_s: float


WORKLOADS = {
    "fresh-batch": Workload(0.0, served=False, nominal_clips_per_s=16),
    "hot-batch": Workload(1.0, served=False, nominal_clips_per_s=450),
    "serve-mixed": Workload(0.2, served=True, nominal_clips_per_s=22),
}


def detector_spec():
    """The default system, with training pinned to the tiny scored dataset."""
    from repro.specs import DetectorSpec
    return DetectorSpec.default(scale="tiny")


def build_reference():
    """The same system, run sequentially with every cache off."""
    from repro.build import build
    from repro.specs import DetectorSpec
    data = detector_spec().to_dict()
    data["pipeline"] = {"workers": 0, "cache": "off",
                        "features": {"backend": "off", "cache": "off"}}
    data["scoring"]["cache"] = "off"
    return build(DetectorSpec.from_dict(data))


def environment(spec) -> dict:
    """CPUs, interpreter, numpy/BLAS and suite fingerprints of this run."""
    import platform

    from repro.backends.registry import describe_suite
    blas = {}
    try:
        config = np.show_config(mode="dicts")
        blas = dict(config.get("Build Dependencies", {}).get("blas", {}))
        blas = {key: blas.get(key) for key in ("name", "version")}
    except (TypeError, AttributeError):
        pass
    return {
        "cpus": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "suite": describe_suite(spec.suite),
    }


# ------------------------------------------------------------------- records
@dataclass
class Outcome:
    """One request's answer: a verdict and its score bytes, or a failure."""

    key: tuple
    ok: bool
    verdict: bool | None = None
    scores: bytes | None = None


@dataclass
class Phase:
    outcomes: list = field(default_factory=list)
    latencies: list = field(default_factory=list)   # per request, ok only
    late: list = field(default_factory=list)        # generator lag
    batch_latencies: list = field(default_factory=list)
    slo_hits: int = 0
    busy: float = 0.0                               # closed loop only
    cpu: float = 0.0                                # closed loop only
    queue: list = field(default_factory=list)       # service legs, seconds
    worker: list = field(default_factory=list)


def _score_bytes(scores) -> bytes:
    return np.asarray(scores, dtype=np.float64).tobytes()


def _record(phase: Phase, keys, results, due=None, done=None) -> None:
    """Fold one batch of answers into ``phase``."""
    for index, (key, result) in enumerate(zip(keys, results)):
        if result is None:
            phase.outcomes.append(Outcome(key, ok=False))
            continue
        verdict, scores = result
        phase.outcomes.append(Outcome(key, True, verdict, scores))
        if due is not None:
            latency = done[index] - due[index]
            phase.latencies.append(latency)
            phase.slo_hits += latency <= LATENCY_LIMIT_S


# --------------------------------------------------------- machine sampling
def cpu_ticks() -> tuple[int, int]:
    """(steal, total) CPU ticks of the machine, from ``/proc/stat``."""
    with open("/proc/stat") as handle:
        fields = [int(value) for value in handle.readline().split()[1:9]]
    return fields[7], sum(fields)


def _children() -> list[str]:
    pids = []
    for path in glob.glob("/proc/self/task/*/children"):
        try:
            with open(path) as handle:
                pids.extend(handle.read().split())
        except OSError:
            pass
    return pids


def _program_pids() -> list[str]:
    """This process and its children (the service's workers)."""
    return ["self", *_children()]


def _thread_cpu_ns(pid: str) -> int:
    total = 0
    for path in glob.glob(f"/proc/{pid}/task/*/schedstat"):
        try:
            with open(path) as handle:
                total += int(handle.read().split()[0])
        except (OSError, ValueError, IndexError):
            pass
    return total


def program_cpu_s() -> float:
    """On-CPU seconds of every thread of this process and its children.

    Each thread's ``schedstat`` counts the nanoseconds it ran.  With the
    kernel's paravirtual steal accounting that count leaves out the time
    the hypervisor gave the CPU to other guests, which wall time includes;
    so CPU time per clip stays put when a shared host slows the run.
    """
    return 1e-9 * sum(_thread_cpu_ns(pid) for pid in _program_pids())


def _peak_rss_kb(pid: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class PeakMemory:
    """Summed peak RSS of this process and its children over a window.

    :meth:`start` resets each process's kernel high-water mark (writing
    ``5`` to ``clear_refs``); :meth:`stop` sums the marks.  The kernel
    tracks the peak exactly, so no sampling can miss a short-lived
    buffer.  Pages shared after a fork count once per process that maps
    them.  The benchmark's generated inputs, all held before the window
    opens, are subtracted.
    """

    def __init__(self):
        self.peak_bytes = 0

    def start(self) -> None:
        for pid in _program_pids():
            try:
                with open(f"/proc/{pid}/clear_refs", "w") as handle:
                    handle.write("5")
            except OSError:
                pass

    def stop(self, input_bytes: int) -> None:
        total = 1024 * sum(_peak_rss_kb(pid) for pid in _program_pids())
        self.peak_bytes = total - input_bytes


# ------------------------------------------------------------ in-process path
class BatchDriver:
    """One in-process caller of ``DetectionPipeline.detect_batch``.

    Its methods are coroutines only to share :func:`run`'s sequence with
    :class:`ServiceDriver`; they never yield, so the caller blocks on each
    batch exactly as a synchronous loop would.
    """

    def __init__(self, pipeline, tracer: Tracer | None):
        self.pipeline = pipeline
        self.tracer = tracer
        self._batches = 0

    def detect(self, clips) -> list:
        """Answers for a batch; ``None`` per clip if the batch raised."""
        if self.tracer is not None:
            self.tracer.request_id = f"b{self._batches}"
        self._batches += 1
        try:
            batch = self.pipeline.detect_batch(clips)
        except Exception:       # a failed batch is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            return [None] * len(clips)
        return [(bool(result.is_adversarial), _score_bytes(result.scores))
                for result in batch.results]

    async def warm_up(self, fresh, hot) -> None:
        clips = fresh + hot
        for start in range(0, len(clips), BATCH_SIZE):
            self.detect(clips[start:start + BATCH_SIZE])

    async def open_loop(self, phase: Phase, requests, rate: float) -> None:
        n = len(requests)
        clock = time.perf_counter
        start = clock() + 0.05
        due = [start + index / rate for index in range(n)]
        free_at = start
        index = 0
        while index < n:
            now = clock()
            if due[index] > now:
                time.sleep(due[index] - now)
                continue
            stop = index
            while stop < n and stop - index < BATCH_SIZE and due[stop] <= now:
                stop += 1
            phase.late.extend(now - max(due[k], free_at)
                              for k in range(index, stop))
            results = self.detect([clip for _, clip in requests[index:stop]])
            free_at = clock()
            _record(phase, [key for key, _ in requests[index:stop]], results,
                    due[index:stop], [free_at] * (stop - index))
            index = stop

    async def closed_loop(self, phase: Phase, batches) -> None:
        for requests in batches:
            start = time.perf_counter()
            results = self.detect([clip for _, clip in requests])
            elapsed = time.perf_counter() - start
            phase.busy += elapsed
            phase.batch_latencies.append(elapsed)
            _record(phase, [key for key, _ in requests], results)


# --------------------------------------------------------------- served path
class ServiceDriver:
    """One asyncio client of ``DetectionService``."""

    def __init__(self, service):
        self.service = service
        self._sent = 0

    async def _submit(self, clip):
        self._sent += 1
        return await self.service.asubmit(TENANT, clip,
                                          request_id=f"q{self._sent}")

    @staticmethod
    def _answer(result):
        if not result.ok:
            return None
        return bool(result.is_adversarial), _score_bytes(result.scores)

    def _legs(self, phase: Phase, results) -> None:
        for result in results:
            if result.ok:
                phase.queue.append(result.queue_seconds)
                phase.worker.append(result.total_seconds
                                    - result.queue_seconds)

    async def _batches(self, clips) -> None:
        for start in range(0, len(clips), BATCH_SIZE):
            await asyncio.gather(*[self._submit(clip) for clip
                                   in clips[start:start + BATCH_SIZE]])

    async def warm_up(self, fresh, hot) -> None:
        """Send ``fresh`` once and ``hot`` twice, rotated by one.

        The dispatcher alternates between the two idle workers, so the
        rotated pass hands each hot clip to the other worker: both
        workers' local caches then hold the whole hot set.
        """
        await self._batches(fresh)
        if hot:
            await self._batches(hot)
            await self._batches(hot[1:] + hot[:1])

    async def open_loop(self, phase: Phase, requests, rate: float) -> None:
        clock = time.perf_counter
        start = clock() + 0.05
        n = len(requests)
        due = [start + index / rate for index in range(n)]

        async def one(index):
            sent = clock()
            result = await self._submit(requests[index][1])
            return sent, clock(), result

        tasks = []
        for index in range(n):
            delay = due[index] - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.create_task(one(index)))
        answers = await asyncio.gather(*tasks)
        phase.late.extend(sent - due[index]
                          for index, (sent, _, _) in enumerate(answers))
        results = [result for _, _, result in answers]
        self._legs(phase, results)
        _record(phase, [key for key, _ in requests],
                [self._answer(result) for result in results],
                due, [finished for _, finished, _ in answers])

    async def closed_loop(self, phase: Phase, batches) -> None:
        for requests in batches:
            start = time.perf_counter()
            results = await asyncio.gather(*[self._submit(clip)
                                             for _, clip in requests])
            elapsed = time.perf_counter() - start
            phase.busy += elapsed
            phase.batch_latencies.append(elapsed)
            self._legs(phase, results)
            _record(phase, [key for key, _ in requests],
                    [self._answer(result) for result in results])


# ------------------------------------------------------------------- the run
def setup(workload: Workload):
    """Build the system a workload drives; returns (spec, pipeline, service)."""
    from repro.build import build_pipeline, build_service
    spec = detector_spec()
    if workload.served:
        service = build_service(spec.to_dict(), start=True)
        return spec, service.pipelines[TENANT], service
    return spec, build_pipeline(spec), None


def teardown(pipeline, service) -> None:
    if service is not None:
        service.stop()
    pipeline.detector.close()


def request_plan(source: RequestSource, seconds: float,
                 batches: int) -> list[dict]:
    """Pre-generate each round's requests (outside timing).

    A round maps ``low`` and ``high`` to their open-loop requests and
    ``saturate`` to its closed-loop batches.
    """
    plan = []
    for _ in range(ROUNDS):
        plan.append({})
        for name in ("low", "high"):
            count = RATES[name] * seconds * PHASE_SHARES[name] / ROUNDS
            plan[-1][name] = source.take(max(1, round(count)))
            source.note_sent(key for key, _ in plan[-1][name])
        plan[-1]["saturate"] = [source.take(BATCH_SIZE)
                                for _ in range(batches)]
        for batch in plan[-1]["saturate"]:
            source.note_sent(key for key, _ in batch)
    return plan


def _reference_chunk(detector, clips, conn) -> None:
    try:
        conn.send([(bool(result.is_adversarial), _score_bytes(result.scores))
                   for result in map(detector.detect, clips)])
    finally:
        conn.close()


def reference_answers(clips: dict) -> dict:
    """Reference answers for every clip, keyed like ``clips``.

    The parent answers the first :data:`REFERENCE_WARM_CLIPS` itself, so
    the ASR word decoder's memo is warm in the processes it then forks
    (in ``serve-mixed`` the parent has decoded nothing, and a cold memo
    makes each clip several times dearer).  The rest are split across
    one forked process per CPU, each running the sequential detector on
    its share.  The fork happens after the timed phases, once the
    service and the engine's thread pool are stopped.
    """
    reference = build_reference()
    ctx = multiprocessing.get_context("fork")
    keys = list(clips)
    processes = len(os.sched_getaffinity(0))
    jobs = []
    try:
        answers = {}
        for key in keys[:REFERENCE_WARM_CLIPS]:
            result = reference.detect(clips[key])
            answers[key] = (bool(result.is_adversarial),
                            _score_bytes(result.scores))
        keys = keys[REFERENCE_WARM_CLIPS:]
        for share in range(processes):
            chunk = keys[share::processes]
            receive, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_reference_chunk,
                               args=(reference, [clips[k] for k in chunk],
                                     send))
            proc.start()
            send.close()
            jobs.append((chunk, receive, proc))
        for chunk, receive, proc in jobs:
            answers.update(zip(chunk, receive.recv()))
        return answers
    finally:
        for _, receive, proc in jobs:
            receive.close()
            proc.join(timeout=30)
            if proc.is_alive():
                proc.kill()
                proc.join()
        reference.close()


def check_parity(phases, source: RequestSource) -> tuple[int, int]:
    """Compare every answer with the reference; returns (checked, mismatches).

    The reference is a sequential, cache-off detector, run after the
    timed phases once per distinct clip (its output depends only on the
    clip).  Scores are compared as raw float64 bytes.
    """
    answered = [outcome for phase in phases for outcome in phase.outcomes
                if outcome.ok]
    expected = reference_answers({outcome.key: source.clips[outcome.key]
                                  for outcome in answered})
    mismatches = sum((outcome.verdict, outcome.scores) != expected[outcome.key]
                     for outcome in answered)
    return len(answered), mismatches


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def end_to_end(phases: dict, memory: PeakMemory) -> dict:
    high, sat = phases["high"], phases["saturate"]
    ok = sum(outcome.ok for outcome in sat.outcomes)
    attempted = sum(len(phase.outcomes) for phase in phases.values())
    failed = sum(not outcome.ok for phase in phases.values()
                 for outcome in phase.outcomes)
    return {
        "clips_per_cpu_s": (ok / sat.cpu, "1/s"),
        "high.slo_frac": (high.slo_hits / max(1, len(high.outcomes)), "frac"),
        "ok_frac": (1.0 - failed / max(1, attempted), "frac"),
        "peak_rss_mb": (memory.peak_bytes / 2 ** 20, "MB"),
    }


def per_layer(phases: dict, tracer: Tracer, counters: dict, spec,
              timed_wall: float) -> dict:
    spans = tracer.spans
    layers = layer_times(spans)
    names = busy_by_name(spans)

    def layer(name, key):
        return layers.get(name, {}).get(key, 0.0)

    def ratio(hits, misses):
        return hits / (hits + misses) if hits + misses else 0.0

    queue = [s for phase in phases.values() for s in phase.queue]
    worker = [s for phase in phases.values() for s in phase.worker]
    late = [s for phase in phases.values() for s in phase.late]
    admits = [span.duration for span in spans if span.name == "service.admit"]
    detect_calls = layer("detect", "calls")
    detect_clips = counters["detect_clips"]
    tree = ("detect", "engine", "dsp", "asr", "tcache", "similarity",
            "classify")
    sat, low, high = phases["saturate"], phases["low"], phases["high"]
    out = {
        # Wall-clock throughput, latencies and tails move with the time
        # other guests take from a shared host, by more than a usable
        # regression bound (see README.md), so they are reported here,
        # unbounded.
        "clips_per_s": (sum(outcome.ok for outcome in sat.outcomes)
                        / sat.busy if sat.busy else 0.0, "1/s"),
        "batch_p50_ms": (1000 * _pct(sat.batch_latencies, 50), "ms"),
        "batch_p90_ms": (1000 * _pct(sat.batch_latencies, 90), "ms"),
        "low.p50_ms": (1000 * _pct(low.latencies, 50), "ms"),
        "low.p95_ms": (1000 * _pct(low.latencies, 95), "ms"),
        "high.p50_ms": (1000 * _pct(high.latencies, 50), "ms"),
        "high.p95_ms": (1000 * _pct(high.latencies, 95), "ms"),
        "dsp.busy_s": (layer("dsp", "busy"), "s"),
        "dsp.cache_hits": (counters["dsp_hits"], "count"),
        "dsp.cache_misses": (counters["dsp_misses"], "count"),
        "dsp.cache_hit_ratio": (ratio(counters["dsp_hits"],
                                      counters["dsp_misses"]), "frac"),
        "asr.calls": (layer("asr", "calls"), "count"),
    }
    members = [spec.suite.target.name,
               *(aux.name for aux in spec.suite.auxiliaries)]
    for member in members:
        out[f"asr.{member}.busy_s"] = (names.get(f"asr.{member}", 0.0), "s")
    out.update({
        "engine.busy_s": (layer("engine", "busy"), "s"),
        "engine.self_s": (layer("engine", "self"), "s"),
        "tcache.hits": (counters["tcache_hits"], "count"),
        "tcache.misses": (counters["tcache_misses"], "count"),
        "tcache.hit_ratio": (ratio(counters["tcache_hits"],
                                   counters["tcache_misses"]), "frac"),
        "tcache.key_s": (layer("tcache", "busy"), "s"),
        "similarity.busy_s": (layer("similarity", "busy"), "s"),
        "similarity.pair_hit_ratio": (ratio(counters["pair_hits"],
                                            counters["pair_misses"]), "frac"),
        "classify.busy_s": (layer("classify", "busy"), "s"),
        "detect.busy_s": (layer("detect", "busy"), "s"),
        "detect.self_s": (layer("detect", "self"), "s"),
        "detect.batch_size": (detect_clips / detect_calls
                              if detect_calls else 0.0, "count"),
        "service.admit_p50_us": (1e6 * _pct(admits, 50), "us"),
        "service.queue_p50_ms": (1000 * _pct(queue, 50), "ms"),
        "service.queue_p95_ms": (1000 * _pct(queue, 95), "ms"),
        "service.worker_p50_ms": (1000 * _pct(worker, 50), "ms"),
        "service.worker_p95_ms": (1000 * _pct(worker, 95), "ms"),
    })
    for name in ("rejected", "timeouts", "errors", "retries", "respawns"):
        out[f"service.{name}"] = (counters.get(f"service_{name}", 0), "count")
    submitted = counters.get("service_submitted", 0)
    out["service.ipc_out_bytes_per_req"] = (
        counters.get("service_ipc_bytes_out", 0) / submitted
        if submitted else 0.0, "B")
    out["client.late_p99_ms"] = (1000 * _pct(late, 99), "ms")
    out["trace.overhead_frac"] = (span_cost() * len(spans) / timed_wall
                                  if timed_wall > 0 else 0.0, "frac")
    detect_busy = layer("detect", "busy")
    out["trace.self_sum_frac"] = (
        sum(layer(name, "self") for name in tree) / detect_busy
        if detect_busy else 0.0, "frac")
    return out


def _counters(pipeline, service) -> dict:
    engine = pipeline.engine
    feature = engine.feature_stats
    tcache = engine.stats
    pairs = pipeline.detector.scoring.stats
    out = {"dsp_hits": feature.hits, "dsp_misses": feature.misses,
           "tcache_hits": tcache.hits, "tcache_misses": tcache.misses,
           "pair_hits": pairs.hits, "pair_misses": pairs.misses}
    if service is not None:
        stats = service.stats.snapshot()
        for name in ("submitted", "rejected", "timeouts", "errors",
                     "retries", "respawns", "ipc_bytes_out"):
            out[f"service_{name}"] = getattr(stats, name)
    return out


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[workload_name]
    spec, pipeline, service = setup(workload)
    ready = time.monotonic()
    tracer = Tracer() if trace else None
    uninstall = (install(tracer, pipeline=None if workload.served
                         else pipeline, service=service)
                 if trace else None)
    phases = {name: Phase() for name in ("low", "high", "saturate")}
    timed = [0.0, 0.0]
    ticks = [(0, 0), (0, 0)]
    try:
        source = RequestSource(ClipGenerator(seed), workload.hot_share)
        fresh = [] if workload.hot_share >= 1.0 else source.warm(WARM_CLIPS)
        hot = source.hot_set if workload.hot_share > 0 else []
        source.mark_seen(hot)
        batches = max(1, round(seconds * PHASE_SHARES["saturate"]
                               * workload.nominal_clips_per_s
                               / BATCH_SIZE / ROUNDS))
        plan = request_plan(source, seconds, batches)
        driver = (ServiceDriver(service) if workload.served
                  else BatchDriver(pipeline, tracer))

        async def session():
            await driver.warm_up(fresh, hot)
            if tracer is not None:
                tracer.spans.clear()
            before = _counters(pipeline, service)
            memory.start()
            ticks[0] = cpu_ticks()
            timed[0] = time.perf_counter()
            for round_plan in plan:
                for name in ("low", "high"):
                    await driver.open_loop(phases[name], round_plan[name],
                                           RATES[name])
                cpu = program_cpu_s()
                await driver.closed_loop(phases["saturate"],
                                         round_plan["saturate"])
                phases["saturate"].cpu += program_cpu_s() - cpu
            timed[1] = time.perf_counter()
            ticks[1] = cpu_ticks()
            memory.stop(source.input_bytes)
            return before

        memory = PeakMemory()
        before = asyncio.run(session())
        after = _counters(pipeline, service)
    finally:
        if uninstall is not None:
            uninstall()
        teardown(pipeline, service)
    counters = {name: after[name] - before[name] for name in after}
    counters["detect_clips"] = sum(len(phase.outcomes)
                                   for phase in phases.values())
    checked, mismatches = check_parity(phases.values(), source)
    attempted = sum(len(phase.outcomes) for phase in phases.values())
    failed = sum(not outcome.ok for phase in phases.values()
                 for outcome in phase.outcomes)
    report = {
        "ready": ready,
        "attempted": attempted,
        "failed": failed,
        "checked": checked,
        "mismatches": mismatches,
        "repeat_share": source.repeat_share,
        # Share of the machine's CPU time the hypervisor gave to others
        # while the phases ran: high values explain slow runs.
        "steal_frac": (ticks[1][0] - ticks[0][0])
        / max(1, ticks[1][1] - ticks[0][1]),
        "samples": {name: {"requests": len(phase.outcomes),
                           "batches": len(phase.batch_latencies),
                           "wall_s": phase.busy, "cpu_s": phase.cpu}
                    for name, phase in phases.items()},
        "environment": environment(spec),
        "metrics": end_to_end(phases, memory),
    }
    if trace:
        report["layers"] = per_layer(phases, tracer, counters, spec,
                                     timed[1] - timed[0])
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if args.setup_only:
        _, pipeline, service = setup(WORKLOADS[args.workload])
        ready = time.monotonic()
        teardown(pipeline, service)
        print(json.dumps({"ready": ready}))
        return 0
    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
