"""Tests for the benchmark's own code: statistics, span arithmetic,
seeded op lists and the output checks.  They run no workload."""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import atm  # noqa: E402
import oracle  # noqa: E402
import paper  # noqa: E402
import run  # noqa: E402
import service  # noqa: E402
import tracing  # noqa: E402
from common import Op, percentile, tail_samples  # noqa: E402


class TestPercentiles:
    def test_nearest_rank(self):
        values = list(range(1, 201))  # 1..200
        assert percentile(values, 50) == 100
        assert percentile(values, 95) == 190
        assert percentile([7.0], 95) == 7.0

    def test_order_does_not_matter(self):
        assert percentile([5, 1, 4, 2, 3], 50) == 3

    def test_sample_counts_beyond(self):
        assert tail_samples(200, 95) == 10
        assert tail_samples(199, 95) == 9
        assert tail_samples(100, 50) == 50


class TestSpans:
    NAMES = [("outer", "f"), ("inner", "g")]

    def test_self_time_subtracts_children(self):
        spans = [
            # id, parent, fid, start, end, op, kind
            (2, 1, 0, 3.0, 4.0, 0, tracing.CALL),  # outer inside inner
            (1, 0, 1, 2.0, 5.0, 0, tracing.CALL),  # inner inside outer
            (0, -1, 0, 0.0, 10.0, 0, tracing.CALL),
        ]
        layers = tracing.aggregate(self.NAMES, spans)
        assert layers["outer"]["self_s"] == 8.0  # 10 - 3, plus 1
        assert layers["inner"]["self_s"] == 2.0  # 3 - 1
        # Both outer spans enter the layer (the second from inner).
        assert layers["outer"]["calls"] == 2
        assert layers["inner"]["calls"] == 1

    def test_same_layer_nesting_counts_one_call(self):
        spans = [
            (1, 0, 0, 1.0, 2.0, 0, tracing.CALL),
            (0, -1, 0, 0.0, 4.0, 0, tracing.CALL),
            (3, -1, 0, 5.0, 6.0, 0, tracing.RESUME),
        ]
        layers = tracing.aggregate(self.NAMES, spans)
        assert layers["outer"]["calls"] == 1
        assert layers["outer"]["self_s"] == 5.0

    def test_wrapped_functions_record_nested_spans(self):
        tracer = tracing.Tracer()
        outer_fid = tracer.register("outer", "f")
        inner_fid = tracer.register("inner", "g")

        def g(x):
            return x + 1

        traced_g = tracing._wrap_function(tracer, inner_fid, g)

        def f(x):
            return traced_g(x) * 2

        def gen(n):
            for i in range(n):
                yield traced_g(i)

        traced_f = tracing._wrap_function(tracer, outer_fid, f)
        traced_gen = tracing._wrap_function(tracer, outer_fid, gen)
        tracer.op = 7
        assert traced_f(1) == 4
        assert list(traced_gen(3)) == [1, 2, 3]
        layers = tracing.aggregate(tracer.names, tracer.spans)
        assert layers["outer"]["calls"] == 2
        assert layers["inner"]["calls"] == 4
        by_id = {s[0]: s for s in tracer.spans}
        for sid, parent, fid, start, end, op, _kind in tracer.spans:
            assert op == 7 and end >= start
            if fid == inner_fid:
                assert by_id[parent][2] == outer_fid
        tracer.active = False
        before = len(tracer.spans)
        traced_f(1)
        assert len(tracer.spans) == before

    def test_dump_and_load_round_trip(self, tmp_path):
        tracer = tracing.Tracer()
        fid = tracer.register("outer", "f")
        tracing._wrap_function(tracer, fid, lambda: None)()
        tracer.count("runtime.shards", 3)
        tracer.dump(tmp_path / "t.spans")
        names, counters, spans = tracing.load(tmp_path / "t.spans")
        assert names == [("outer", "f")]
        assert counters == {"runtime.shards": 3}
        assert spans == tracer.spans


class TestSeeds:
    def test_paper_op_list_is_seeded(self):
        first = paper.describe(paper.build_ops(7, 1))
        assert first == paper.describe(paper.build_ops(7, 1))
        assert first != paper.describe(paper.build_ops(8, 1))

    def test_paper_decide_inputs_are_fixed(self):
        def decides(seed, rounds):
            return [line for line in paper.describe(paper.build_ops(seed, rounds))
                    if line.startswith("decide_")]

        one = decides(7, 1)
        assert decides(8, 1) == one and decides(7, 2) == one * 2
        assert sum(f"{paper.KNOWN_FAULT[0]}:{paper.KNOWN_FAULT[1]}:" in line
                   for line in one) == 1

    def test_atm_flips_are_fixed(self):
        def flips(seed):
            return [line for line in atm.describe(atm.build_ops(seed, 1))
                    if line.startswith("mutate:flip")]

        assert flips(7) == flips(8)
        assert len(flips(7)) == len(atm.FLIPS) * 3

    def test_atm_op_list_is_seeded(self):
        first = atm.describe(atm.build_ops(7, 1))
        assert first == atm.describe(atm.build_ops(7, 1))
        assert first != atm.describe(atm.build_ops(8, 1))

    def test_service_job_list_is_seeded(self):
        first = service.describe(service.build_jobs(7, 1))
        assert first == service.describe(service.build_jobs(7, 1))
        assert first != service.describe(service.build_jobs(8, 1))


def _path_instance(labels, edges):
    from repro.core.structure import StructureBuilder

    b = StructureBuilder()
    for i, label in enumerate(labels):
        if label:
            b.add_node(i, label)
        else:
            b.add_node(i)
    for u, v in edges:
        b.add_edge(u, v)
    return b.build()


class TestOracle:
    def test_tree_counter_agrees_with_backtracking(self):
        from repro.workloads.generators import random_ditree_cq, random_instance

        for seed in range(30):
            q = random_ditree_cq(5, seed)
            if q is None:
                continue
            query = oracle.triple(q)
            data = oracle.triple(random_instance(12, 20, seed))
            exists = oracle.hom_exists(query, data)
            assert (oracle.tree_hom_count(query, data) > 0) == exists

    def test_count_of_an_edge(self):
        edge = _path_instance(["", ""], [(0, 1)])
        triangle = _path_instance(["", "", ""], [(0, 1), (1, 2), (2, 0)])
        assert oracle.tree_hom_count(oracle.triple(edge), oracle.triple(triangle)) == 3

    def test_example_2_case_distinction(self):
        from repro import zoo

        q1, d1 = oracle.triple(zoo.q1()), oracle.triple(zoo.d1())
        assert not oracle.hom_exists(q1, d1)
        assert oracle.certain_by_completions(q1, d1)

    def test_reachable(self):
        assert oracle.reachable([(0, 1), (1, 2)], 0, 2)
        assert not oracle.reachable([(0, 1), (1, 2)], 2, 0)


class TestChecksRejectWrongAnswers:
    def test_paper(self):
        ops = [op for op in paper.build_ops(3, 1)
               if op.kind in ("decide_zoo", "dsirup", "thm7")]
        results = []
        for op in ops:
            if op.kind == "decide_zoo":
                results.append((paper.ZOO_BOUNDED[op.name], "PROBE"))
            elif op.kind == "dsirup":
                results.append(oracle.certain_by_completions(
                    oracle.triple(op.args[0]), oracle.triple(op.args[1])))
            else:
                results.append(oracle.reachable(*op.args[2:]))
        assert paper.check(ops, results) == ([], {})
        for i in (0, len(ops) - 1, next(i for i, op in enumerate(ops)
                                         if op.kind == "dsirup")):
            wrong = list(results)
            wrong[i] = (not wrong[i][0], "PROBE") if ops[i].kind == "decide_zoo" \
                else not wrong[i]
            errors, faults = paper.check(ops, wrong)
            assert len(errors) == 1 and f"op {i} " in errors[0] and not faults

    def test_paper_decider_against_probe(self):
        decides = {(op.kind, op.name): op for op in paper.fixed_decide_ops()}
        fault = decides[paper.KNOWN_FAULT]
        # A fixed draw the probe certifies BOUNDED at depth 1.
        other = decides["decide_lambda1", "n7/s0"]
        assert paper._probe_bounded(other.args[0], 1)
        ops = [fault, other]
        assert paper.check(ops, [(True, "LAMBDA_EXACT")] * 2) == ([], {})
        # "Not FO-rewritable" against a probe certificate: the known
        # fault counts as a failed op, any other draw as a wrong answer.
        errors, faults = paper.check(ops, [(False, "LAMBDA_EXACT")] * 2)
        assert list(faults) == [0]
        assert len(errors) == 1 and errors[0].startswith("op 1 ")

    def test_atm(self):
        desired, mutated = ("m", "desired", 0), ("m", "mut", 0, 0)
        ops = [
            Op("claim41", "m", (desired,)),
            Op("claim41", "m", (mutated,)),
            Op("claim42", "m", (mutated,)),
            Op("init_check", "1", (None, None, None, (), atm.DEEP_WORD)),
            Op("init_check", "0", (None, None, None, (), "0")),
        ]
        good = [[], [(0,)], [(0,)], False, True]
        assert atm.check(ops, good) == ([], {})
        for i, value in ((0, [(1,)]), (2, []), (3, True), (4, False)):
            wrong = list(good)
            wrong[i] = value
            errors, faults = atm.check(ops, wrong)
            assert len(errors) == 1 and not faults

    def test_atm_padding_flip_fault(self):
        main = (0, 0, 1, 0)

        def flip_ops(address, padding):
            key = ("m", "mut", 0, 1)
            flip = (main, address, padding, main + (1, 1, 1, 0))
            return [
                Op("mutate", "flip", (key, None, "flip", flip)),
                Op("claim41", "m", (key,)),
                Op("claim42", "m", (key,)),
            ]

        # The formulas miss the flipped main node: the documented fault
        # for a padding bit, a wrong answer for any other bit.
        results = [1, [(), main], [()]]
        errors, faults = atm.check(flip_ops(8, True), results)
        assert not errors and list(faults) == [2]
        errors, faults = atm.check(flip_ops(14, False), results)
        assert len(errors) == 1 and not faults
        # Any other difference on a padding flip is a wrong answer too.
        errors, faults = atm.check(flip_ops(8, True), [1, [(), main], []])
        assert len(errors) == 1 and not faults

    def test_service(self):
        query = {"nodes": [0, 1], "unary": [["F", 0]], "binary": [["R", 0, 1]]}
        data = {"nodes": [5, 6, 7], "unary": [["F", 5]],
                "binary": [["R", 5, 6], ["R", 5, 7]]}
        empty = {"nodes": [9], "unary": [], "binary": []}

        def record(op, result, status="done"):
            return {"op": op, "error": None,
                    "final": {"status": status, "result": result}}

        screen = Op("screen_kernel", "fresh",
                    ({"queries": [query], "instances": [data, empty]},))
        count = Op("evaluate", "count", ({"query": query, "data": data},))
        decide = Op("decide", "q5", ({"query": query},))
        good = [
            record(screen, {"matrix": [[True, False]]}),
            record(count, {"value": 2}),
            record(decide, {"bounded": True}),
        ]
        assert service.check(good) == []
        for i, result in ((0, {"matrix": [[True, True]]}),
                          (1, {"value": 3}),
                          (2, {"bounded": False})):
            wrong = list(good)
            wrong[i] = record(good[i]["op"], result)
            assert len(service.check(wrong)) == 1
        failed = [record(decide, {"bounded": True}, status="failed")]
        failed[0]["error"] = "job failed"
        assert len(service.check(failed)) == 1


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        run.per_layer_metrics()
    )
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
