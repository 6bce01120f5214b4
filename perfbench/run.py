"""Benchmark entry point: one workload, one seed, one result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fresh-batch --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 16 --trace 0

Every workload runs in a fresh subprocess (``workload.py``) with every
``REPRO_*`` variable scrubbed, so no cache or setting leaks in from the
caller.  ``setup_s`` is the median over this run's set-ups: two set-up-only
processes plus the measured one, each timed from launch until the first
request could be sent.  The run fails, printing no numbers, when the
program is missing, when ``.repro_cache/`` gains a file, or when any answer
differs from the sequential cache-off reference.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it holds the run's details: the environment fingerprint,
sample counts, the measured repeat share and the set-up samples.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fresh-batch", "hot-batch", "serve-mixed")
#: Set-up-only processes per untraced run, besides the measured one.
SETUP_PROBES = 2
#: Wall-clock budget of one run, all subprocesses included.
RUN_BUDGET_S = 170.0
#: The tracked training data the detector is pinned to.
SCORED_DATASET = "scored_tiny_200_aec5b79fc3.json"


class BenchError(Exception):
    """The run cannot produce a trustworthy result."""


def clean_env(root: str) -> dict:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def cache_files(root: str) -> set[str]:
    found = set()
    for directory, _, files in os.walk(os.path.join(root, ".repro_cache")):
        found.update(os.path.join(directory, name) for name in files)
    return found


def ensure_training_data(root: str) -> None:
    """Put the pinned scored dataset in place if the checkout lacks it."""
    target = os.path.join(root, ".repro_cache", SCORED_DATASET)
    if not os.path.exists(target):
        os.makedirs(os.path.dirname(target), exist_ok=True)
        shutil.copyfile(os.path.join(HERE, "data", SCORED_DATASET), target)


def _reap(pgid: int, timeout: float = 10.0) -> None:
    """Kill what is left of a process group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    stop = time.monotonic() + timeout
    while time.monotonic() < stop:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def launch(root: str, env: dict, args: list[str],
           deadline: float) -> tuple[float, dict]:
    """Run ``workload.py`` in a fresh process; returns (launch time, report)."""
    launched = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "workload.py"), *args],
        cwd=root, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - launched))
    except subprocess.TimeoutExpired:
        _reap(proc.pid)
        proc.communicate()
        raise BenchError(f"workload process exceeded the run budget: {args}")
    finally:
        _reap(proc.pid)
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}: {args}")
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines:
        raise BenchError(f"workload process printed nothing: {args}")
    return launched, json.loads(lines[-1])


def measure(root: str, workload: str, seed: int, seconds: float,
            trace: bool) -> tuple[dict, dict]:
    """One run; returns (details, result line)."""
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        raise BenchError("no program here: src/repro is missing")
    ensure_training_data(root)
    env = clean_env(root)
    before = cache_files(root)
    deadline = time.monotonic() + RUN_BUDGET_S
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            launched, probe = launch(root, env, ["--workload", workload,
                                                 "--setup-only"], deadline)
            setups.append(probe["ready"] - launched)
    launched, report = launch(
        root, env, ["--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(int(trace))],
        deadline)
    setups.append(report["ready"] - launched)
    added = sorted(cache_files(root) - before)
    if added:
        raise BenchError(f".repro_cache gained files: {added}")
    details = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "setup_samples_s": setups,
        **{key: report[key] for key in ("attempted", "failed", "checked",
                                        "mismatches", "repeat_share", "steal_frac",
                                        "samples", "environment")},
        "failed_frac": report["failed"] / max(1, report["attempted"]),
    }
    correct = report["mismatches"] == 0 and report["checked"] > 0
    metrics = {}
    if correct:
        chosen = dict(report["layers"]) if trace else {
            "setup_s": (statistics.median(setups), "s"), **report["metrics"]}
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in chosen.items()}
    result = {"correct": correct, "attempted": report["attempted"],
              "failed": report["failed"], "metrics": metrics}
    return details, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for workload in workloads:
        try:
            details, result = measure(os.getcwd(), workload, args.seed,
                                      args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"benchmark failed: {workload}: {exc}", file=sys.stderr)
            return 2
        print(json.dumps(details))
        print(json.dumps(result))
        if not result["correct"]:
            print(f"parity gate: {workload}: {details['mismatches']} of "
                  f"{details['checked']} answers differ from the reference; "
                  "no numbers reported", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
