"""One round of one workload, in a fresh single-threaded process.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``):

    python3 perfbench/worker.py --workload query-mix --seed 1 --trace 0

Prints one JSON object: set-up time (importing ``weylwords`` with its CLI
module and building the workload's root systems and subsystems), the
duration of every operation, attempted/failed counts, correctness, peak
resident set, a digest of the outputs, and with ``--trace 1`` the
per-layer metrics and the calls and self time of every wrapped callable.
Untraced times are rescaled to the reference speed (see ``speed.py``); the
raw times are kept under ``raw_*``.  Traced runs have no speed probe, so
their per-layer self times are raw.  ``--setup-only`` stops after set-up.
``--size smoke`` runs the small version of the workload that the
benchmark's tests use.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import resource
import sys
from time import perf_counter_ns

import speed
import workloads


def canonical(value):
    """A form of an output whose repr does not depend on hash order."""
    if isinstance(value, (set, frozenset)):
        return ("set", tuple(sorted((canonical(v) for v in value), key=repr)))
    if isinstance(value, (tuple, list)):
        return tuple(canonical(v) for v in value)
    if isinstance(value, BaseException):
        return ("raised", type(value).__name__, str(value))
    return value


class _Timer:
    """Intervals of the round, each with the probe time spent inside it."""

    def __init__(self, probe):
        self.probe = probe
        self.intervals: list[tuple[int, int, int]] = []

    @contextlib.contextmanager
    def interval(self):
        spent = self.probe.spent_ns if self.probe else 0
        begin = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            inside = (self.probe.spent_ns if self.probe else 0) - spent
            self.intervals.append((begin, end, inside))

    def raw(self) -> list[int]:
        return [end - begin for begin, end, _ in self.intervals]

    def rescaled(self) -> list[float]:
        if not self.probe:
            return [float(t) for t in self.raw()]
        return [self.probe.rescale(*interval) for interval in self.intervals]


def run_round(args, probe) -> dict:
    smoke = args.size == "smoke"
    make_ops, systems = workloads.WORKLOADS[args.workload]
    named = systems(smoke)

    setup = _Timer(probe)
    with setup.interval():
        ww = importlib.import_module("weylwords")
        importlib.import_module("weylwords.cli")
        for label, J in named:
            ww.sub_system(ww.build_root_system(label), J)
    if args.setup_only:
        return {"setup": setup}

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(ww)

    ops = _Timer(probe)
    kinds: list[str] = []
    errors: list[str] = []
    failed = 0
    checks = 0
    digest = hashlib.sha256()
    for op in make_ops(args.seed, args.round, smoke):
        try:
            with ops.interval():
                out = op.call(ww)
        except Exception as exc:  # reported as a failure of this operation
            problems = [f"{op.kind}: {type(exc).__name__}: {exc}"]
            out = exc
        else:
            problems = op.check(out)
        kinds.append(op.kind)
        digest.update(repr((op.kind, canonical(out))).encode())
        if op.kind.startswith("suite:") and not isinstance(out, BaseException):
            checks += out[2]
        if problems:
            if op.known_fault:
                failed += 1
            else:
                errors.extend(problems)

    result = {
        "setup": setup,
        "ops": ops,
        "kinds": kinds,
        "attempted": len(kinds),
        "failed": failed,
        "correct": not errors,
        "errors": errors[:10],
        "digest": digest.hexdigest(),
    }
    if tracer is not None:
        layers = tracer.layers(ww)
        layers["verify.checks"] = checks
        result["layers"] = layers
        result["spans"] = tracer.spans()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if args.trace:
        result = run_round(args, None)
    else:
        with speed.Probe() as probe:
            result = run_round(args, probe)
    setup = result.pop("setup")
    out = {"setup_s": setup.rescaled()[0] / 1e9, "raw_setup_s": setup.raw()[0] / 1e9}
    if "ops" in result:
        ops = result.pop("ops")
        op_ns = ops.rescaled()
        out.update(
            run_s=sum(op_ns) / 1e9,
            op_ms=[t / 1e6 for t in op_ns],
            raw_run_s=sum(ops.raw()) / 1e9,
            probe_s=sum(inside for _, _, inside in ops.intervals) / 1e9,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            **result,
        )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
