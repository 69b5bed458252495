"""E18 -- Batch screening: large-target hom checks and family sweeps.

The workloads behind ``scripts/bench_batch.py``'s gates, as
pytest-benchmark rows: per-check times of the engine backends on a
large edge-rich random target (the ``matrix`` backend's home regime —
the harness honours ``REPRO_HOM_BACKEND``, so running the benchmark
suite under ``=bitset`` and ``=matrix`` compares them), one
``covers_any`` batch that can never early-exit (a block DAG refutes an
unlabelled path longer than its blocks), and a UCQ screen over a
``workloads.instance_family``.
"""

from repro.core import OneCQ, covers_any, evaluate_batch, has_homomorphism
from repro.core.boundedness import ucq_certain_answers, ucq_rewriting
from repro.core.structure import path_structure
from repro.workloads import (
    block_dag_instance,
    instance_family,
    random_instance,
)
from repro import zoo

TARGET_LABELS = {"T": 1, "F": 1, "": 20, "A": 2, "FT": 0}


def test_large_target_path_check(benchmark, record_rows):
    """One propagation-heavy check on a 300-node, 2400-edge target."""
    query = path_structure([""] * 12)
    target = random_instance(
        300, 2400, seed=7, preds=("R",), label_weights=TARGET_LABELS
    )
    _ = target.bitset_index  # out of the timed region, as in serving

    def run():
        return has_homomorphism(query, target)

    found = benchmark(run)
    record_rows(benchmark, [("target nodes", 300), ("found", found)])
    assert found


def test_block_dag_refutation(benchmark, record_rows):
    """An unsatisfiable unlabelled path: pure AC-3 refutation work."""
    query = path_structure([""] * 11)
    target = block_dag_instance(300, 8, seed=3)
    _ = target.bitset_index

    def run():
        return has_homomorphism(query, target)

    found = benchmark(run)
    record_rows(benchmark, [("found", found)])
    assert not found


def test_covers_any_no_early_exit(benchmark, record_rows):
    """A covers_any batch in which every source fails: full scan."""
    target = block_dag_instance(200, 8, seed=5)
    sources = [
        path_structure([""] * 11, prefix=f"s{i}") for i in range(16)
    ]
    _ = target.bitset_index

    def run():
        return covers_any(target, sources)

    covered = benchmark(run)
    record_rows(benchmark, [("sources", len(sources)), ("covered", covered)])
    assert not covered


def test_family_evaluate_batch(benchmark, record_rows):
    """One query over an instance family (the screening inner loop)."""
    query = path_structure([""] * 8)
    family = instance_family(
        12, 120, 480, seed=13, label_weights=TARGET_LABELS
    )

    def run():
        return evaluate_batch(query, family)

    answers = benchmark(run)
    record_rows(benchmark, [("family", len(family)), ("yes", sum(answers))])


def test_family_ucq_screen(benchmark, record_rows):
    """The q5 UCQ rewriting screened over a family — the
    ucq_certain_answers consumer (serial below the shard threshold)."""
    one_cq = OneCQ.from_structure(zoo.q5())
    ucq = ucq_rewriting(one_cq, 1)
    family = instance_family(16, 30, 60, seed=9)

    def run():
        return ucq_certain_answers(ucq, family)

    answers = benchmark(run)
    record_rows(benchmark, [("disjuncts", len(ucq)), ("yes", sum(answers))])
