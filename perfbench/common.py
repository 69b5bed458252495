"""Shared pieces of the benchmark: paths, child-process environment,
percentiles and the result record."""

from __future__ import annotations

import math
import os
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
# Everything a run writes (temporary cache directories, traces) lives
# here, inside the checkout and outside the tracked tree.
OUT = ROOT / ".perfbench"

# The program's processes run with a pinned hash seed, so two runs of
# one seed iterate string sets in the same order.  (On q2 and q6,
# hash seeds 0-3 gave the same hom-cache miss counts, with times
# within run-to-run noise.)
HASH_SEED = "0"

# Setup is sampled several times per run and reported as the median.
SETUP_SAMPLES = 5


def require_source() -> None:
    """Fail fast (non-zero exit, no result) without the program."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {SRC}")


def child_env() -> dict[str, str]:
    """Environment for the program's processes: the checkout's source
    on the path, a pinned hash seed, temporary files inside the
    checkout and no ``REPRO_*`` overrides from the caller."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = HASH_SEED
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    env["SQLITE_TMPDIR"] = str(tmp)
    return env


def _rank(n: int, p: float) -> int:
    return max(1, math.ceil(p / 100.0 * n))


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least
    ``p`` percent of the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(len(ordered), p) - 1]


def tail_samples(n: int, p: float) -> int:
    """How many of ``n`` samples lie strictly beyond the nearest-rank
    ``p``-th percentile."""
    return n - _rank(n, p)


def peak_rss_mb() -> float:
    """Peak resident memory of the calling process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Op:
    """One user-level step of a workload: its kind, a short name and
    the inputs it reads."""

    kind: str
    name: str
    args: tuple
    # Entries of the run's state table to free once the op is done,
    # outside its timing.
    release: tuple = ()


@dataclass
class OpLog:
    """Latency, kind and outcome of every op of a timed phase."""

    kinds: list[str] = field(default_factory=list)
    latencies_s: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    def record(self, kind: str, latency_s: float, error: str | None) -> None:
        self.kinds.append(kind)
        self.latencies_s.append(latency_s)
        if error is not None:
            self.failures.append(f"{kind}: {error}")

    @property
    def attempted(self) -> int:
        return len(self.kinds)

    def by_kind(self) -> dict[str, tuple[int, float]]:
        """Per op kind: count and total seconds."""
        out: dict[str, tuple[int, float]] = {}
        for kind, latency in zip(self.kinds, self.latencies_s):
            count, total = out.get(kind, (0, 0.0))
            out[kind] = (count + 1, total + latency)
        return out


def end_to_end(setup_samples, ops: OpLog, wall_s: float, rss_mb: float) -> dict:
    """The five end-to-end metrics of one run."""
    ms = [s * 1000.0 for s in ops.latencies_s]
    return {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": (ops.attempted - len(ops.failures)) / wall_s,
        "op_p50_ms": percentile(ms, 50),
        "op_p95_ms": percentile(ms, 95),
        "peak_rss_mb": rss_mb,
    }
