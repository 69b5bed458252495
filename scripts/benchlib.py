"""The shared harness of the ``scripts/bench_*.py`` perf gates.

Every bench script imports this module first (it puts ``src`` on the
import path), builds its flags with :func:`parser`, records each gate
with :func:`criterion` and ends with :func:`finish`, which writes the
JSON report, prints one PASS/FAIL/SKIPPED line per criterion and
returns the exit code.  The remaining helpers are the timing, query and
server plumbing that several scripts share.

Usage from a bench script::

    import benchlib

    args = benchlib.parser(__doc__, "BENCH_x.json", rounds=5).parse_args()
    ...
    report["criteria"] = {"x_ge_2x": benchlib.criterion(x, x >= 2.0)}
    return benchlib.finish("bench_x", report, args)
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def child_env(overrides: dict[str, str]) -> dict[str, str]:
    """This process's environment with ``src`` first on ``PYTHONPATH``
    and ``overrides`` applied: the environment of every child
    interpreter a bench starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.update(overrides)
    return env


# ----------------------------------------------------------------------
# Flags, criteria and the report
# ----------------------------------------------------------------------


def parser(
    doc: str,
    output: str,
    *,
    rounds: int | None = None,
    smoke: str | None = None,
    worker: tuple[str, ...] = (),
) -> argparse.ArgumentParser:
    """The flags every bench takes: ``--output`` (default
    ``REPO_ROOT/output``) and ``--check``.  ``rounds`` adds
    ``--rounds`` with that default; ``smoke`` adds ``--smoke`` with
    that help text; ``worker`` adds the hidden ``--worker`` flag that
    selects one child measurement (see :func:`run_child`)."""
    p = argparse.ArgumentParser(description=doc)
    p.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / output,
        help="where to write the results",
    )
    if rounds is not None:
        p.add_argument(
            "--rounds",
            type=int,
            default=rounds,
            help="timing rounds per measurement (minimum is reported)",
        )
    p.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero unless every enforced criterion holds",
    )
    if smoke is not None:
        p.add_argument("--smoke", action="store_true", help=smoke)
    if worker:
        p.add_argument(
            "--worker",
            choices=worker,
            default=None,
            help=argparse.SUPPRESS,  # internal: one child measurement
        )
    return p


def criterion(value, ok, skip_reason: str | None = None) -> dict:
    """One gate of a report: the measured ``value`` and whether it
    passes.  A criterion with a ``skip_reason`` is recorded but not
    enforced (hardware it needs is missing), so it never fails
    ``--check``."""
    return {
        "enforced": skip_reason is None,
        "skip_reason": skip_reason,
        "value": value,
        "pass": bool(ok),
    }


def finish(tag: str, report: dict, args: argparse.Namespace) -> int:
    """Write ``report`` to ``args.output`` (sorted keys, two-space
    indent, trailing newline), print each of ``report["criteria"]``,
    and return the exit code: 1 under ``--check`` when an enforced
    criterion failed, else 0."""
    args.output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"[{tag}] wrote {args.output}")
    failures = 0
    for name, crit in report["criteria"].items():
        if not crit["enforced"]:
            print(f"  criterion {name}: SKIPPED ({crit['skip_reason']})")
        elif crit["pass"]:
            print(f"  criterion {name}: PASS")
        else:
            print(f"  criterion {name}: FAIL (value {crit['value']})")
            failures += 1
    return 1 if args.check and failures else 0


# ----------------------------------------------------------------------
# Timing
# ----------------------------------------------------------------------


def best_time(fn, rounds: int, target_s: float = 0.1) -> float:
    """Minimum per-call wall time over ``rounds`` measurements.

    Each measurement repeats ``fn`` enough times to fill roughly
    ``target_s`` of wall clock, so millisecond-scale workloads are not
    at the mercy of scheduler noise; the minimum is reported.
    """
    start = time.perf_counter()
    fn()
    once = time.perf_counter() - start
    iters = max(1, int(target_s / max(once, 1e-9)))
    best = once
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(iters):
            fn()
        best = min(best, (time.perf_counter() - start) / iters)
    return best


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def digest(payload: object) -> str:
    """A short stable digest of an answer, for identity checks."""
    return hashlib.blake2b(repr(payload).encode(), digest_size=16).hexdigest()


# ----------------------------------------------------------------------
# Queries and payloads
# ----------------------------------------------------------------------


def unlabelled_ditree(n: int, seed: int):
    """A random unlabelled R-ditree on ``n`` nodes."""
    from repro.core.structure import StructureBuilder

    rng = random.Random(seed)
    b = StructureBuilder()
    for i in range(n):
        b.add_node(i)
    for i in range(1, n):
        b.add_edge(rng.randrange(i), i)
    return b.build()


def chain_query(interior: int):
    """A span-1 1-CQ whose cactuses form a single chain per depth:
    F -R-> m_0 -R-> .. -R-> m_{k-1} -R-> T."""
    from repro.core.structure import F, StructureBuilder, T

    b = StructureBuilder()
    b.add_node("f", F)
    prev = "f"
    for i in range(interior):
        b.add_node(f"m{i}")
        b.add_edge(prev, f"m{i}")
        prev = f"m{i}"
    b.add_node("t", T)
    b.add_edge(prev, "t")
    return b.build()


def ditree_queries(count: int, size: int) -> list:
    """The first ``count`` valid ``random_ditree_cq(size, seed)`` draws
    over seeds 0, 1, 2, ..."""
    from repro.workloads.generators import random_ditree_cq

    queries = []
    seed = 0
    while len(queries) < count and seed < 10_000:
        q = random_ditree_cq(size, seed)
        if q is not None:
            queries.append(q)
        seed += 1
    return queries


def screen_payload(
    queries: int, size: int, count: int, nodes: int, density: float, seed: int
) -> dict:
    """The wire payload of a screen job: :func:`ditree_queries` over a
    ``hostile_family`` of ``count`` instances."""
    from repro.service.wire import structure_to_json
    from repro.workloads.generators import hostile_family

    return {
        "queries": [structure_to_json(q) for q in ditree_queries(queries, size)],
        "instances": [
            structure_to_json(i)
            for i in hostile_family(count, nodes, seed=seed, density=density)
        ],
    }


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------


def run_child(script: str, *args: str) -> dict:
    """Run ``script`` with ``args`` in a fresh interpreter and return
    the JSON object on the last line of its output."""
    proc = subprocess.run(
        [sys.executable, script, *args],
        capture_output=True,
        text=True,
        cwd=str(REPO_ROOT),
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"bench child {list(args)} failed rc={proc.returncode}:\n"
            f"{proc.stdout}\n{proc.stderr}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def start_server(
    cache_dir: str, env: dict | None = None, args: tuple = ()
) -> tuple[subprocess.Popen, int]:
    """Boot ``python -m repro serve`` on an ephemeral port over
    ``cache_dir``; the engine inside runs serial unless ``env`` says
    otherwise.  Returns the process and its port."""
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro",
            "--cache-dir", cache_dir,
            "serve", "--port", "0", *args,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        cwd=str(REPO_ROOT),
        env=child_env({"REPRO_HOM_WORKERS": "0", **(env or {})}),
    )
    line = proc.stdout.readline()
    if "listening" not in line:
        proc.kill()
        raise RuntimeError(f"server failed to start: {line!r}")
    port = int(line.strip().rsplit(":", 1)[1])
    return proc, port


def stop_server(proc: subprocess.Popen) -> None:
    """SIGTERM the server if it still runs; SIGKILL it after 15 s."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(10)


def client(port: int, timeout: float = 60.0):
    """A :class:`~repro.service.client.ServiceClient` for a local server."""
    from repro.service.client import ServiceClient

    return ServiceClient("127.0.0.1", port, timeout=timeout)
