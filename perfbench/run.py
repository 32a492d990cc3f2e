"""Benchmark entry point: run one workload for a fixed time and report.

Usage, from the root of a source checkout (no install step):

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 30 --trace 0

Each round is one fresh single-threaded ``worker.py`` process doing the
workload's whole list of operations; one client issues the next call when
the last returns.  Rounds repeat while another round of the median length
still fits in ``--seconds`` (at least one round runs).  Set-up is also
timed in extra set-up-only processes, so every run has at least
``SETUP_SAMPLES`` set-up times.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``.  Per-layer
counts come from the first round, so they repeat exactly between traced
runs with the same seed; self times are medians over rounds.  Every round's
details, each kind of operation's count and latency, and in a traced run
every wrapped callable's calls and self time are written to
``perfbench/results/<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
WORKLOADS = ("verify-sweep", "rank-ladder", "query-mix")
SETUP_SAMPLES = 7
# Every run must end within this many seconds.
DEADLINE_S = 170.0

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
}

PER_LAYER = {
    "cartan": ("calls", "self_s", "pairing.calls", "simple_coroot_pairing.calls",
               "coroot_coords.calls"),
    "finweyl": ("calls", "self_s", "mul.calls", "inverse.calls", "word.calls",
                "weyl_elements.self_s", "classify_subset.calls"),
    "affine": ("calls", "self_s", "mul.calls", "act.calls", "inversion_set.calls",
               "length.calls", "reduced_word.calls", "reduced_word.self_s", "bfs.self_s"),
    "biconvex": ("calls", "self_s", "realize.calls", "parametrize.calls",
                 "parametrize.self_s", "window_test.calls", "window_test.self_s",
                 "enumerate.self_s"),
    "words": ("calls", "self_s", "certify.calls", "certify.self_s", "act.calls",
              "act.self_s", "classify.calls", "classify.self_s",
              "translation_word.calls", "translation_word.self_s",
              "translation_word.pairings_per_call"),
    "verify": ("calls", "self_s", "checks"),
    "cli": ("calls", "self_s"),
    "cache": tuple(f"{c}.{f}" for c in ("build", "sub_system", "weyl_elements", "bfs",
                                         "window_triples")
                   for f in ("hits", "misses", "entries")),
}
PER_LAYER_METRICS = [f"{layer}.{m}" for layer, ms in PER_LAYER.items() for m in ms]


def unit_of(metric: str) -> str:
    if metric.endswith("self_s"):
        return "s"
    if metric.endswith("per_call"):
        return "calls/call"
    return "count"


class RunError(Exception):
    pass


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def per_kind(rounds) -> dict:
    """Count, latency percentiles and total time of each kind of operation."""
    times: dict[str, list[float]] = {}
    for r in rounds:
        for kind, ms in zip(r["kinds"], r.get("op_ms", ())):
            times.setdefault(kind, []).append(ms)
    return {
        kind: {"count": len(ms), "p50_ms": percentile(ms, 50), "p99_ms": percentile(ms, 99),
               "total_s": sum(ms) / 1e3}
        for kind, ms in sorted(times.items())
    }


def worker(args, extra, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        ["src"] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    command = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--trace", str(args.trace), "--size", args.size,
    ] + extra
    try:
        done = subprocess.run(
            command, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - perf_counter()),
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"round did not finish before the deadline: {exc}") from exc
    if done.returncode != 0 or not done.stdout.strip():
        raise RunError(f"worker exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(args) -> dict:
    start = perf_counter()
    deadline = start + DEADLINE_S
    rounds, walls = [], []
    while True:
        begin = perf_counter()
        rounds.append(worker(args, ["--round", str(len(rounds))], deadline))
        walls.append(perf_counter() - begin)
        if perf_counter() - start + statistics.median(walls) > args.seconds:
            break
    setups = [r["setup_s"] for r in rounds]
    while len(setups) < SETUP_SAMPLES:
        setups.append(worker(args, ["--setup-only"], deadline)["setup_s"])

    errors = [e for r in rounds for e in r["errors"]]
    result = {
        "correct": all(r["correct"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
    }
    if args.trace:
        first = rounds[0]["layers"]
        values = {
            m: statistics.median(r["layers"][m] for r in rounds) if m.endswith("self_s")
            else first[m]
            for m in PER_LAYER_METRICS
        }
        metrics = {m: {"value": values[m], "unit": unit_of(m)} for m in PER_LAYER_METRICS}
    else:
        op_ms = [t for r in rounds for t in r["op_ms"]]
        values = {
            "run_s": statistics.median(r["run_s"] for r in rounds),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
            "op_p50_ms": percentile(op_ms, 50),
            "op_p99_ms": percentile(op_ms, 99),
        }
        metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END.items()}
    for line in errors[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    result["metrics"] = metrics
    record = {"args": vars(args), "result": result, "setups": setups,
              "per_kind": per_kind(rounds), "rounds": rounds}
    (HERE / "results").mkdir(exist_ok=True)
    (HERE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record)
    )
    print(
        f"{args.workload}: {len(rounds)} round(s), {result['attempted']} operations,"
        f" {result['failed']} failed, {len(setups)} set-ups", file=sys.stderr,
    )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: the small version used by the benchmark's tests")
    args = parser.parse_args(argv)
    if not (Path("src") / "weylwords" / "__init__.py").is_file():
        print("error: run from the root of a weylwords checkout (src/weylwords missing)",
              file=sys.stderr)
        return 2
    try:
        result = measure(args)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
