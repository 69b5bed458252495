"""The ``service`` workload: a fresh ``repro serve`` process driven over
HTTP/SSE by two closed-loop clients.

The server runs with its own temporary ``--cache-dir`` (the durable
store is attached), one job executor thread and no process pool.  The
clients are two tenants; each submits a job, follows it over SSE to
its terminal frame and only then submits the next, as
``repro jobs submit`` + ``watch`` does.  The job list is a sequence of
pairs of the same kind, one job per tenant, so the two clients stay in
step and a job mostly waits behind a job of its own kind.

Per round the list mixes kernel-heavy screens (many ditree queries
over dense hostile instances, large and small), codec-heavy screens
(few queries over large sparse instances, where decoding the payload
dominates), ``bool``/``count``/``prob`` evaluate jobs, zoo decide
jobs, and repeats of earlier payloads by the other tenant (answered
from what the shared store kept).
"""

from __future__ import annotations

import random
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time

import oracle
from common import BENCH_DIR, OUT, Op, OpLog, child_env
from paper import ZOO_BOUNDED, ZOO_DECIDE

ROUND_S = 12.5
TENANTS = ("alpha", "beta")
SERVE_FLAGS = ["--workers", "0", "serve", "--port", "0", "--threads", "1"]
BOOT_TIMEOUT_S = 60.0

# Per round, in pairs (one job per tenant).  The large kernel and
# codec screens take about 0.5 s each and run as one block, so each
# waits behind another: with the few multi-second decides above them,
# that block is the population op_p95_ms falls in.  Small kernel
# screens (~0.1 s of engine work) are the population op_p50_ms falls
# in; their latency is mostly engine time, not HTTP and SSE overhead,
# whose jitter on a shared machine would dominate a millisecond job.
SCREEN_PAIRS = 2  # large kernel and codec pairs each
KERNEL_QUERIES, KERNEL_QUERY_SIZE = 80, 12
KERNEL_INSTANCES, KERNEL_NODES, KERNEL_DENSITY = 6, 80, 8.0
SMALL_PAIRS = 25
SMALL_QUERIES, SMALL_INSTANCES, SMALL_POOL = 8, 2, 6
CODEC_QUERIES, CODEC_QUERY_SIZE = 2, 8
CODEC_INSTANCES, CODEC_NODES, CODEC_EDGES = 3, 3000, 4500
EVALUATE_PAIRS = 17
EVAL_QUERY_SIZE, EVAL_NODES, EVAL_EDGES = 6, 60, 120
SEMIRINGS = ("bool", "count", "prob")
EVALUATE_REPEATS = 2


def _ditree(size: int, rng: random.Random):
    from repro.workloads.generators import random_ditree_cq

    while True:
        q = random_ditree_cq(size, rng.randrange(1 << 30))
        if q is not None:
            return q


def build_jobs(seed: int, rounds: int) -> list[tuple[Op, Op]]:
    """The job list of a run as (alpha, beta) pairs.  A job's args are
    its kind's wire payload; ``name`` says what to check it against."""
    from repro import zoo
    from repro.service.wire import structure_to_json
    from repro.workloads.generators import hostile_family, random_instance

    rng = random.Random(seed)
    pairs: list[tuple[Op, Op]] = []
    evaluates: list[Op] = []
    # Every zoo query once, then q2 again by the other tenant (served
    # from the probe checkpoint); the pairs are spread over the rounds.
    names = ZOO_DECIDE + ZOO_DECIDE[:1]
    decides = [
        tuple(
            Op("decide", name, ({"query": structure_to_json(getattr(zoo, name)())},))
            for name in names[i:i + 2]
        )
        for i in range(0, len(names), 2)
    ]

    def kernel_screen() -> Op:
        return Op("screen_kernel", "fresh", ({
            "queries": [
                structure_to_json(_ditree(KERNEL_QUERY_SIZE, rng))
                for _ in range(KERNEL_QUERIES)
            ],
            "instances": [
                structure_to_json(i)
                for i in hostile_family(
                    KERNEL_INSTANCES, KERNEL_NODES, rng.randrange(1 << 30),
                    density=KERNEL_DENSITY,
                )
            ],
        },))

    def small_screen(pool: list) -> Op:
        return Op("screen_small", "fresh", ({
            "queries": [
                structure_to_json(_ditree(KERNEL_QUERY_SIZE, rng))
                for _ in range(SMALL_QUERIES)
            ],
            "instances": rng.sample(pool, SMALL_INSTANCES),
        },))

    def codec_screen(pool: list) -> Op:
        return Op("screen_codec", "fresh", ({
            "queries": [
                structure_to_json(_ditree(CODEC_QUERY_SIZE, rng))
                for _ in range(CODEC_QUERIES)
            ],
            "instances": pool,
        },))

    def evaluate(i: int) -> Op:
        semiring = SEMIRINGS[i % len(SEMIRINGS)]
        op = Op("evaluate", semiring, ({
            "query": structure_to_json(_ditree(EVAL_QUERY_SIZE, rng)),
            "data": structure_to_json(random_instance(
                EVAL_NODES, EVAL_EDGES, rng.randrange(1 << 30), preds=("R",)
            )),
            "semiring": semiring,
        },))
        evaluates.append(op)
        return op

    def evaluate_block(count: int) -> None:
        for _ in range(count):
            pairs.append((evaluate(len(evaluates)), evaluate(len(evaluates))))

    half = EVALUATE_PAIRS // 2
    for r in range(rounds):
        # Instances are shared by the round's codec screens and by its
        # small screens (the server decodes each payload in full);
        # their queries differ, so no screen repeats another.
        codec_pool = [
            structure_to_json(random_instance(
                CODEC_NODES, CODEC_EDGES, rng.randrange(1 << 30), preds=("R",)
            ))
            for _ in range(CODEC_INSTANCES)
        ]
        small_pool = [
            structure_to_json(i)
            for i in hostile_family(
                SMALL_POOL, KERNEL_NODES, rng.randrange(1 << 30),
                density=KERNEL_DENSITY,
            )
        ]
        kernel = []
        for _ in range(SCREEN_PAIRS):
            kernel.append((kernel_screen(), kernel_screen()))
            pairs.append(kernel[-1])
            pairs.append((codec_screen(codec_pool), codec_screen(codec_pool)))
        for _ in range(SMALL_PAIRS // 2):
            pairs.append((small_screen(small_pool), small_screen(small_pool)))
        evaluate_block(half)
        pairs.extend(decides[r::rounds])
        for _ in range(SMALL_PAIRS - SMALL_PAIRS // 2):
            pairs.append((small_screen(small_pool), small_screen(small_pool)))
        evaluate_block(EVALUATE_PAIRS - half)
        # A repeat by the other tenant: the screen's checkpoint in the
        # shared store answers it.
        a, b = kernel[0]
        pairs.append((
            Op("screen_kernel", "repeat", b.args),
            Op("screen_kernel", "repeat", a.args),
        ))
        for _ in range(EVALUATE_REPEATS):
            a, b = rng.sample(evaluates, 2)
            pairs.append((
                Op("evaluate", a.name, a.args), Op("evaluate", b.name, b.args)
            ))
    return pairs


def describe(pairs) -> list[str]:
    """A printable digest of a job list (the same seed gives the same
    list)."""
    import json

    return [
        f"{op.kind}:{op.name}:{json.dumps(op.args[0], sort_keys=True)}"
        for pair in pairs
        for op in pair
    ]


class Server:
    """A ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, trace_out=None) -> None:
        OUT.mkdir(parents=True, exist_ok=True)
        self.cache_dir = tempfile.mkdtemp(prefix="serve-", dir=OUT)
        flags = ["--cache-dir", self.cache_dir] + SERVE_FLAGS
        if trace_out is None:
            cmd = [sys.executable, "-m", "repro"] + flags
        else:
            cmd = [sys.executable, str(BENCH_DIR / "serve_traced.py"),
                   str(trace_out)] + flags
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE,
            env=child_env(), text=True,
        )
        self.port: int | None = None
        self._listening = threading.Event()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()

    def _drain(self) -> None:
        for line in self.proc.stdout:
            found = re.search(r"listening on http://[^:]+:(\d+)", line)
            if found:
                self.port = int(found.group(1))
                self._listening.set()
        self._listening.set()

    def wait_ready(self) -> None:
        """Block until ``/healthz`` answers."""
        from repro.service.client import ServiceClient

        deadline = time.monotonic() + BOOT_TIMEOUT_S
        if not self._listening.wait(BOOT_TIMEOUT_S) or self.port is None:
            raise RuntimeError("repro serve did not start")
        client = ServiceClient(port=self.port, retries=0)
        while True:
            try:
                if client.healthz().get("status") == "ok":
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("repro serve never answered /healthz")
            time.sleep(0.005)

    def peak_rss_mb(self) -> float:
        """The server's peak resident memory so far (Linux VmHWM)."""
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server process")

    def stop(self) -> None:
        """SIGTERM (graceful drain), wait, and remove the cache dir."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
            self._reader.join(timeout=5)
        finally:
            shutil.rmtree(self.cache_dir, ignore_errors=True)


def _run_client(port: int, tenant: str, jobs: list[Op], out: list,
                expired: threading.Event) -> None:
    """One closed-loop tenant: submit, follow over SSE to the terminal
    frame, then submit the next; stop once the run's deadline passed."""
    from repro.service.client import ServiceClient

    client = ServiceClient(port=port)
    for op in jobs:
        if expired.is_set():
            return
        payload = op.args[0]
        record = {"op": op, "tenant": tenant, "error": None, "final": None,
                  "first_shard_s": None, "submit_s": None}
        began = time.perf_counter()
        try:
            job = client.submit(_job_kind(op), payload, tenant=tenant)
            record["submit_s"] = time.perf_counter() - began
            for event, data in client.watch(job["id"]):
                if event == "shard" and record["first_shard_s"] is None:
                    record["first_shard_s"] = time.perf_counter() - began
                if event in ("done", "cancelled"):
                    record["final"] = data
            if record["final"] is None:
                record["error"] = "stream ended without a terminal frame"
            elif record["final"].get("status") != "done":
                record["error"] = (f"job {record['final'].get('status')}: "
                                   f"{record['final'].get('error')}")
        except Exception as exc:  # a job that raises is a failed op
            record["error"] = f"{type(exc).__name__}: {exc}"
        record["latency_s"] = time.perf_counter() - began
        out.append(record)


def _job_kind(op: Op) -> str:
    return "screen" if op.kind.startswith("screen") else op.kind


def check(records: list[dict]) -> list[str]:
    """Every job ended done with the answer an evaluation apart from
    the service gives: the benchmark's own matcher for screens and
    evaluate values, the paper for zoo decisions."""
    errors: list[str] = []
    screens: dict = {}
    indexes: dict = {}
    for i, record in enumerate(records):
        op = record["op"]
        where = f"job {i} {op.kind}:{op.name}"
        if record["error"] is not None:
            errors.append(f"{where}: {record['error']}")
            continue
        result = record["final"].get("result") or {}
        payload = op.args[0]
        if op.kind.startswith("screen"):
            key = id(payload)
            if key not in screens:
                queries = [oracle.from_wire(q) for q in payload["queries"]]
                for d in payload["instances"]:
                    if id(d) not in indexes:
                        indexes[id(d)] = oracle.Index(oracle.from_wire(d))
                instances = [indexes[id(d)] for d in payload["instances"]]
                screens[key] = [
                    [oracle.tree_hom_count(q, d) > 0 for d in instances]
                    for q in queries
                ]
            if result.get("matrix") != screens[key]:
                errors.append(f"{where}: screen matrix differs from the "
                              "reference matcher")
        elif op.kind == "evaluate":
            count = oracle.tree_hom_count(
                oracle.from_wire(payload["query"]),
                oracle.from_wire(payload["data"]),
            )
            expected = {"bool": count > 0, "count": count,
                        "prob": float(count)}[op.name]
            value = result.get("value")
            if op.name == "prob":
                ok = isinstance(value, float) and (
                    abs(value - expected) <= 1e-9 * max(1.0, expected)
                )
            else:
                ok = value == expected and type(value) is type(expected)
            if not ok:
                errors.append(f"{where}: value {value!r}, reference {expected!r}")
        elif op.kind == "decide":
            if result.get("bounded") is not ZOO_BOUNDED[op.name]:
                errors.append(f"{where}: bounded={result.get('bounded')}, "
                              f"paper says {ZOO_BOUNDED[op.name]}")
    return errors


def run(seed: int, seconds: float, trace: bool, setup_samples: int,
        deadline: float) -> dict:
    """Boot, drive, check and stop; returns the raw measurements.  At
    ``deadline`` (a ``time.monotonic()`` value) the server is killed,
    the clients stop and the run raises."""
    from repro.service.client import ServiceClient

    rounds = max(1, round(seconds / ROUND_S))
    trace_out = OUT / "traces" / f"service-{seed}.spans" if trace else None
    expired = threading.Event()
    live: list[Server] = []

    def expire() -> None:
        expired.set()
        for running in live:
            running.proc.kill()

    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), expire)
    watchdog.daemon = True
    watchdog.start()
    try:
        setups: list[float] = []
        for sample in range(setup_samples):
            began = time.perf_counter()
            server = Server(trace_out if sample == setup_samples - 1 else None)
            live[:] = [server]
            try:
                pairs = build_jobs(seed, rounds)
                server.wait_ready()
            except BaseException:
                server.stop()
                raise
            setups.append(time.perf_counter() - began)
            if sample < setup_samples - 1:
                server.stop()

        try:
            per_tenant = [[pair[k] for pair in pairs] for k in range(len(TENANTS))]
            outs: list[list] = [[] for _ in TENANTS]
            threads = [
                threading.Thread(target=_run_client,
                                 args=(server.port, tenant, jobs, out, expired))
                for tenant, jobs, out in zip(TENANTS, per_tenant, outs)
            ]
            began = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall = time.perf_counter() - began
            if expired.is_set():
                raise RuntimeError("run deadline passed")
            rss = server.peak_rss_mb()
            metrics = None
            if trace:
                client = ServiceClient(port=server.port)
                client.metrics()  # the first read flushes every tenant's store
                metrics = client.metrics()
        finally:
            server.stop()
    finally:
        watchdog.cancel()
    records = [r for out in outs for r in out]
    log = OpLog()
    for record in records:
        log.record(record["op"].kind, record["latency_s"], record["error"])
    return {
        "setups": setups,
        "log": log,
        "wall_s": wall,
        "peak_rss_mb": rss,
        "records": records,
        "metrics": metrics,
        "trace_file": trace_out,
        "check_errors": check(records),
    }
