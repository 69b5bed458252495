#!/usr/bin/env python
"""Benchmark harness: the hom engine's backends on the paper benches.

Runs the homomorphism-dominated benchmark files (E15 hom ablation, E2
evaluation, E3 cactus, E4 focused) once per engine backend — ``naive``
and ``bitset`` — and writes the merged results plus speedups to
``BENCH_homengine.json`` at the repo root.  This file is the seed of
the engine's perf trajectory: future PRs should keep the recorded
speedups from regressing.

Usage::

    python scripts/bench_homengine.py [--check] [--output PATH]

``--check`` exits non-zero unless the PR's acceptance criteria hold
(bitset >= 3x naive on E15, and strictly faster on E2/E3/E4).
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import benchlib
from benchlib import REPO_ROOT, criterion, geomean

BENCH_FILES = [
    "benchmarks/bench_e15_ablation_hom.py",
    "benchmarks/bench_e2_evaluation.py",
    "benchmarks/bench_e3_cactus.py",
    "benchmarks/bench_e4_focused.py",
]

BACKENDS = ("naive", "bitset")


def run_backend(backend: str, json_path: Path, extra_args: list[str]) -> None:
    # The child process ingests REPRO_HOM_BACKEND through
    # EngineConfig.from_env() when its default session is first used.
    env = benchlib.child_env({"REPRO_HOM_BACKEND": backend})
    cmd = [
        sys.executable,
        "-m",
        "pytest",
        *BENCH_FILES,
        "-q",
        "--benchmark-json",
        str(json_path),
        *extra_args,
    ]
    print(f"[bench_homengine] backend={backend}: {' '.join(cmd)}")
    subprocess.run(cmd, cwd=REPO_ROOT, env=env, check=True)


def load_means(json_path: Path) -> dict[str, dict]:
    payload = json.loads(json_path.read_text())
    out = {}
    for bench in payload["benchmarks"]:
        out[bench["fullname"]] = {
            "mean_s": bench["stats"]["mean"],
            "min_s": bench["stats"]["min"],
            "rounds": bench["stats"]["rounds"],
        }
    return out


def main() -> int:
    parser = benchlib.parser(__doc__, "BENCH_homengine.json")
    parser.add_argument(
        "pytest_args",
        nargs="*",
        help="extra arguments forwarded to pytest",
    )
    args = parser.parse_args()

    per_backend: dict[str, dict[str, dict]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for backend in BACKENDS:
            json_path = Path(tmp) / f"{backend}.json"
            run_backend(backend, json_path, args.pytest_args)
            per_backend[backend] = load_means(json_path)

    names = sorted(set(per_backend["naive"]) & set(per_backend["bitset"]))
    benches = {}
    for name in names:
        naive = per_backend["naive"][name]
        bitset = per_backend["bitset"][name]
        benches[name] = {
            "naive_mean_s": naive["mean_s"],
            "bitset_mean_s": bitset["mean_s"],
            "speedup": naive["mean_s"] / bitset["mean_s"],
            "naive_rounds": naive["rounds"],
            "bitset_rounds": bitset["rounds"],
        }

    def group(prefix: str) -> list[str]:
        return [n for n in names if prefix in n]

    summary = {}
    for label, prefix in [
        ("e15_hom_ablation", "bench_e15"),
        ("e2_evaluation", "bench_e2"),
        ("e3_cactus", "bench_e3"),
        ("e4_focused", "bench_e4"),
    ]:
        members = group(prefix)
        speedups = [benches[n]["speedup"] for n in members]
        summary[label] = {
            "benchmarks": len(members),
            "geomean_speedup": geomean(speedups) if speedups else None,
            "min_speedup": min(speedups) if speedups else None,
        }

    # Per-file end-to-end comparisons use the geometric mean: E3 also
    # contains a pure cactus-construction benchmark with no hom calls at
    # all, whose ratio is 1.0 by construction and pure noise otherwise.
    e15 = summary["e15_hom_ablation"]["geomean_speedup"]
    slowest = min(
        summary[k]["geomean_speedup"] or 0.0
        for k in ("e2_evaluation", "e3_cactus", "e4_focused")
    )
    criteria = {
        "e15_geomean_speedup_ge_3x": criterion(
            e15, e15 is not None and e15 >= 3.0
        ),
        "e2_e3_e4_strictly_faster": criterion(slowest, slowest > 1.0),
    }

    for label, stats in summary.items():
        print(
            f"  {label}: geomean speedup "
            f"{stats['geomean_speedup'] and round(stats['geomean_speedup'], 2)}"
            f" (min {stats['min_speedup'] and round(stats['min_speedup'], 2)})"
        )
    report = {
        "description": (
            "Hom-engine backend comparison (naive vs bitset) on the "
            "E15/E2/E3/E4 benches; times are pytest-benchmark means"
        ),
        "backends": list(BACKENDS),
        "summary": summary,
        "criteria": criteria,
        "benchmarks": benches,
    }
    return benchlib.finish("bench_homengine", report, args)


if __name__ == "__main__":
    sys.exit(main())
