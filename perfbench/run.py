"""The repository benchmark: one workload, one seed, one run.

Usage::

    python3 perfbench/run.py --workload paper|atm|service --seed N \\
        --seconds S --trace 0|1

``--seconds`` sets how much work a run does: every run executes, start
to end, the fixed op list its seed generates, made of
``max(1, round(S / ROUND_S))`` rounds of the workload (``ROUND_S`` is a
round's length on the reference machine).  No loop is bounded by time.

With ``--trace 0`` the last line of standard output is a JSON object
with the five end-to-end metrics; with ``--trace 1`` (a separate run,
with the layer wrappers of ``tracing.py`` installed) it carries the
per-layer metrics instead.  The lines before it summarise the run: op
kinds with their share of ops and of time, percentiles with their
sample counts.  A wrong answer makes the run exit with status 1.  An op
that hits a program fault the workload documents (``paper.KNOWN_FAULT``,
``atm.FLIPS``) counts as failed; those ops do not depend on the seed,
so every run fails the same share of its ops.
"""

from __future__ import annotations

import argparse
import importlib
import json
import subprocess
import sys
import threading
import time

from common import (
    BENCH_DIR,
    ROOT,
    SETUP_SAMPLES,
    SRC,
    OpLog,
    child_env,
    end_to_end,
    percentile,
    require_source,
    tail_samples,
)

WORKLOADS = ("paper", "atm", "service")

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# Counters next to the per-layer calls/self_s pairs.
LAYER_COUNTERS = (
    ("homengine.cache_hits", "count"),
    ("homengine.cache_misses", "count"),
    ("homengine.cache_hit_ratio", "ratio"),
    ("cactus.built", "count"),
    ("runtime.shards", "count"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.writes", "count"),
    ("encoding.nodes_built", "count"),
    ("reduction.query_nodes", "count"),
    ("wire.bytes_in", "B"),
    ("jobs.queue_wait_p50_ms", "ms"),
    ("jobs.run_p50_ms", "ms"),
    ("jobs.samples", "count"),
    ("server.submit_p50_ms", "ms"),
    ("server.submit_samples", "count"),
    ("client.first_shard_p50_ms", "ms"),
    ("client.first_shard_samples", "count"),
)


def per_layer_metrics() -> tuple[tuple[str, str], ...]:
    """Every per-layer metric with its unit, in report order."""
    import tracing

    pairs = []
    for layer in tracing.LAYERS:
        pairs += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s")]
    return tuple(pairs) + LAYER_COUNTERS


def run_timeout_s(seconds: int) -> float:
    """Seconds after which a run kills the program's processes and
    fails: the op list of ``--seconds S`` takes about S on the
    reference machine, with set-up and checks on top."""
    return 3.0 * seconds + 100.0


# -- paper and atm: a worker process per launch -------------------------


def _launch(cmd: list[str], deadline: float) -> tuple[float, dict | None]:
    """Start a worker; returns seconds until it printed READY and its
    final JSON line (None for a setup-only launch)."""
    began = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True
    )
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - began
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "READY" or code != 0:
        raise RuntimeError(f"worker {cmd[2]} exited with status {code}")
    lines = rest.strip().splitlines()
    return setup, json.loads(lines[-1]) if lines else None


def run_worker(workload: str, seed: int, seconds: int, trace: int, deadline: float):
    module = importlib.import_module(workload)
    rounds = max(1, round(seconds / module.ROUND_S))
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), workload,
           "--seed", str(seed), "--rounds", str(rounds), "--trace", str(trace)]
    setups = []
    if not trace:  # set-up time is an end-to-end metric only
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(_launch(cmd + ["--setup-only"], deadline)[0])
    setup, out = _launch(cmd, deadline)
    setups.append(setup)
    log = OpLog(out["kinds"], out["latencies_s"], out["failures"])
    result = {
        "rounds": rounds,
        "setups": setups,
        "log": log,
        "wall_s": out["wall_s"],
        "peak_rss_mb": out["peak_rss_mb"],
        "check_errors": out["check_errors"],
    }
    if trace:
        result["layer_values"] = _layer_values(out["layers"], out["counters"])
    return result


# -- per-layer values ---------------------------------------------------


def _p50(values) -> float:
    return percentile(values, 50) if values else 0.0


def _layer_values(layers: dict, counters: dict) -> dict[str, float]:
    values: dict[str, float] = {}
    for layer, numbers in layers.items():
        values[f"{layer}.calls"] = numbers["calls"]
        values[f"{layer}.self_s"] = numbers["self_s"]
    for name, _unit in LAYER_COUNTERS:
        values[name] = counters.get(name, 0)
    hits = values["homengine.cache_hits"]
    lookups = hits + values["homengine.cache_misses"]
    values["homengine.cache_hit_ratio"] = hits / lookups if lookups else 0.0
    return values


def run_service(seed: int, seconds: int, trace: int, deadline: float):
    import service
    import tracing

    samples = 1 if trace else max(1, SETUP_SAMPLES - 2)
    raw = service.run(seed, seconds, bool(trace), samples, deadline)
    result = {
        "rounds": max(1, round(seconds / service.ROUND_S)),
        "setups": raw["setups"],
        "log": raw["log"],
        "wall_s": raw["wall_s"],
        "peak_rss_mb": raw["peak_rss_mb"],
        "check_errors": raw["check_errors"],
    }
    if not trace:
        return result
    names, counters, spans = tracing.load(raw["trace_file"])
    counters = dict(counters)
    tenants = raw["metrics"]["registry"]["tenants"].values()
    counters["homengine.cache_hits"] = sum(t["hom_cache"]["hits"] for t in tenants)
    counters["homengine.cache_misses"] = sum(t["hom_cache"]["misses"] for t in tenants)
    for field in ("hits", "misses", "writes"):
        # Lifetime counters of the one shared store file.
        counters[f"store.{field}"] = max(
            (t["store"][field] for t in tenants if t["store"]), default=0
        )
    records = [r for r in raw["records"] if r["error"] is None]
    finals = [r["final"] for r in records]
    counters["wire.bytes_in"] = sum(
        len(json.dumps({"kind": service._job_kind(r["op"]), "tenant": r["tenant"],
                        "payload": r["op"].args[0]}))
        for r in raw["records"]
    )
    values = _layer_values(tracing.aggregate(names, spans), counters)
    values["jobs.queue_wait_p50_ms"] = _p50(
        [(f["started"] - f["created"]) * 1000 for f in finals])
    values["jobs.run_p50_ms"] = _p50(
        [(f["finished"] - f["started"]) * 1000 for f in finals])
    values["jobs.samples"] = len(finals)
    submits = [r["submit_s"] * 1000 for r in records]
    values["server.submit_p50_ms"] = _p50(submits)
    values["server.submit_samples"] = len(submits)
    firsts = [r["first_shard_s"] * 1000 for r in records
              if r["first_shard_s"] is not None]
    values["client.first_shard_p50_ms"] = _p50(firsts)
    values["client.first_shard_samples"] = len(firsts)
    result["layer_values"] = values
    return result


# -- report -------------------------------------------------------------


def summary(workload: str, seed: int, result: dict) -> list[str]:
    log: OpLog = result["log"]
    n = log.attempted
    total = sum(log.latencies_s) or 1.0
    done = n - len(log.failures)
    lines = [
        f"workload={workload} seed={seed} rounds={result['rounds']} ops={n} "
        f"failed={len(log.failures)} wall_s={result['wall_s']:.3f} "
        f"ops_per_s={done / result['wall_s']:.3f} "
        f"setup_samples={[round(s, 3) for s in result['setups']]}",
        f"  {'kind':<16}{'ops':>6}{'ops%':>8}{'time_s':>10}{'time%':>8}",
    ]
    for kind, (count, seconds) in sorted(log.by_kind().items()):
        lines.append(f"  {kind:<16}{count:>6}{100 * count / n:>7.1f}%"
                     f"{seconds:>10.3f}{100 * seconds / total:>7.1f}%")
    ms = [s * 1000 for s in log.latencies_s]
    lines.append(f"  op_p50_ms={percentile(ms, 50):.3f} (n={n}, "
                 f"{tail_samples(n, 50)} beyond) op_p95_ms={percentile(ms, 95):.3f} "
                 f"(n={n}, {tail_samples(n, 95)} beyond)")
    lines += [f"  FAILED {f}" for f in log.failures[:10]]
    lines += [f"  WRONG {e}" for e in result["check_errors"][:20]]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    require_source()
    # The service workload generates its inputs and its reference
    # answers in this process.
    sys.path.insert(0, str(SRC))
    deadline = time.monotonic() + run_timeout_s(args.seconds)
    if args.workload == "service":
        result = run_service(args.seed, args.seconds, args.trace, deadline)
    else:
        result = run_worker(args.workload, args.seed, args.seconds,
                            args.trace, deadline)
    for line in summary(args.workload, args.seed, result):
        print(line)
    log: OpLog = result["log"]
    if args.trace:
        values = result["layer_values"]
        metrics = {
            name: {"value": values.get(name, 0), "unit": unit}
            for name, unit in per_layer_metrics()
        }
    else:
        e2e = end_to_end(result["setups"], log, result["wall_s"],
                         result["peak_rss_mb"])
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END}
    correct = not result["check_errors"]
    print(json.dumps({
        "correct": correct,
        "attempted": log.attempted,
        "failed": len(log.failures),
        "metrics": metrics,
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
