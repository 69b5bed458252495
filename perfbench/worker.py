"""One process of the ``paper`` or ``atm`` workload.

Started by ``run.py``: builds the run's inputs with the program's own
generators, prints ``READY`` (the end of setup), runs the op list
start to end, checks the outputs and prints one JSON line with the
per-op log, the peak resident memory and, for a traced run, the
per-layer numbers.  With ``--setup-only`` it stops after ``READY``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time

from common import OUT, OpLog, peak_rss_mb


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=("paper", "atm"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = importlib.import_module(args.workload)
    ops = workload.build_ops(args.seed, args.rounds)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    state: dict = {}
    if tracer is not None:
        state["hom_cache"] = {"hits": 0, "misses": 0}
    log = OpLog()
    kept = []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        began = time.perf_counter()
        try:
            result, error = workload.run_op(op, state), None
        except Exception as exc:  # an op that raises is a failed op
            result, error = None, f"{type(exc).__name__}: {exc}"
        log.record(op.kind, time.perf_counter() - began, error)
        kept.append(None if error else workload.keep(op, result, state))
        for key in op.release:
            state.pop(key, None)
    wall = time.perf_counter() - start
    rss = peak_rss_mb()
    # Ops that hit a fault the workload documents count as failed.
    errors, faults = workload.check(ops, kept)
    for i, message in sorted(faults.items()):
        log.failures.append(f"{ops[i].kind}: {message}")
    out = {
        "kinds": log.kinds,
        "latencies_s": log.latencies_s,
        "failures": log.failures,
        "wall_s": wall,
        "peak_rss_mb": rss,
    }
    if tracer is not None:
        tracer.active = False
        path = OUT / "traces" / f"{args.workload}-{args.seed}.spans"
        tracer.dump(path)
        out["layers"] = tracing.aggregate(tracer.names, tracer.spans)
        out["counters"] = dict(tracer.counters)
        out["counters"]["homengine.cache_hits"] = state["hom_cache"]["hits"]
        out["counters"]["homengine.cache_misses"] = state["hom_cache"]["misses"]
    out["check_errors"] = errors
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
