"""Unit tests for the monadic datalog engine."""

import pytest

from repro.core import (
    GOAL,
    Program,
    StructureBuilder,
    certain_answers,
    evaluate,
    evaluate_bounded,
    goal_holds,
    make_rule,
)
from repro.core.structure import R, Structure, UnaryFact


def reachability_program() -> Program:
    """``Reach(x) <- Start(x)``; ``Reach(y) <- Reach(x), E(x, y)``."""
    return Program(
        (
            make_rule("Reach", "x", unary=[("Start", "x")]),
            make_rule(
                "Reach",
                "y",
                unary=[("Reach", "x")],
                binary=[("E", "x", "y")],
            ),
        )
    )


def chain(n: int, start: int = 0) -> Structure:
    b = StructureBuilder()
    b.add_node(start, "Start")
    for i in range(n):
        b.add_edge(i, i + 1, "E")
    return b.build()


class TestRuleValidation:
    def test_head_var_must_be_in_body(self):
        with pytest.raises(ValueError):
            make_rule("P", "z", unary=[("T", "x")])

    def test_goal_rule_allows_none_head_var(self):
        rule = make_rule(GOAL, None, unary=[("T", "x")])
        assert rule.head_var is None

    def test_idb_must_be_monadic(self):
        rules = (
            make_rule("P", "x", unary=[("T", "x")]),
            make_rule("Q", "x", binary=[("P", "x", "y")]),
        )
        with pytest.raises(ValueError):
            Program(rules)

    def test_describe_round_trips_atoms(self):
        rule = make_rule(
            "P", "x", unary=[("A", "x")], binary=[(R, "y", "x")]
        )
        text = rule.describe()
        assert "P(x)" in text and "A(x)" in text and "R(y, x)" in text


class TestProgramIntrospection:
    def test_idb_edb_split(self):
        prog = reachability_program()
        assert prog.idb_predicates == {"Reach"}
        assert prog.edb_predicates == {"Start", "E"}

    def test_recursive_rules_and_sirup(self):
        prog = reachability_program()
        assert len(prog.recursive_rules()) == 1
        assert prog.is_sirup()

    def test_non_sirup(self):
        prog = Program(
            (
                make_rule("P", "x", unary=[("T", "x")]),
                make_rule("P", "x", unary=[("P", "y")], binary=[("E", "x", "y")]),
                make_rule("P", "x", unary=[("P", "y")], binary=[("E", "y", "x")]),
            )
        )
        assert not prog.is_sirup()

    def test_program_describe(self):
        assert "Reach" in reachability_program().describe()


class TestEvaluation:
    def test_linear_chain_reachability(self):
        prog = reachability_program()
        answers = certain_answers(prog, chain(5), "Reach")
        assert answers == {0, 1, 2, 3, 4, 5}

    def test_unreachable_component(self):
        b = StructureBuilder()
        b.add_node(0, "Start")
        b.add_edge(0, 1, "E")
        b.add_edge(5, 6, "E")
        answers = certain_answers(reachability_program(), b.build(), "Reach")
        assert answers == {0, 1}

    def test_cycle_terminates(self):
        b = StructureBuilder()
        b.add_node(0, "Start")
        b.add_edge(0, 1, "E")
        b.add_edge(1, 0, "E")
        answers = certain_answers(reachability_program(), b.build(), "Reach")
        assert answers == {0, 1}

    def test_goal_rule_fires(self):
        prog = Program(
            (
                make_rule("Reach", "x", unary=[("Start", "x")]),
                make_rule(
                    "Reach",
                    "y",
                    unary=[("Reach", "x")],
                    binary=[("E", "x", "y")],
                ),
                make_rule(GOAL, None, unary=[("Reach", "x"), ("End", "x")]),
            )
        )
        data = chain(3).relabel_node(3, add=["End"])
        assert goal_holds(prog, data)
        data_no = chain(3).relabel_node(3, add=["Elsewhere"])
        assert not goal_holds(prog, data_no)

    def test_idb_facts_in_data_seed_evaluation(self):
        prog = Program(
            (
                make_rule(
                    "Reach",
                    "y",
                    unary=[("Reach", "x")],
                    binary=[("E", "x", "y")],
                ),
            )
        )
        b = StructureBuilder()
        b.add_node(0, "Reach")
        b.add_edge(0, 1, "E")
        answers = certain_answers(prog, b.build(), "Reach")
        assert answers == {0, 1}

    def test_rounds_reported(self):
        result = evaluate(reachability_program(), chain(6))
        assert result.rounds >= 6

    def test_holds_accessors(self):
        result = evaluate(reachability_program(), chain(2))
        assert result.holds("Reach", 2)
        assert not result.holds("Reach", 99)
        assert not result.holds(GOAL)

    def test_empty_data(self):
        result = evaluate(reachability_program(), Structure())
        assert result.facts == frozenset()


class TestBoundedEvaluation:
    def test_truncation_limits_depth(self):
        prog = reachability_program()
        partial = evaluate_bounded(prog, chain(10), max_rounds=3)
        full = evaluate(prog, chain(10))
        assert len(partial.facts) < len(full.facts)

    def test_bounded_eval_matches_when_enough_rounds(self):
        prog = reachability_program()
        result = evaluate_bounded(prog, chain(4), max_rounds=50)
        assert result.answers("Reach") == {0, 1, 2, 3, 4}


class TestSemiNaiveAgainstNaive:
    def _naive(self, prog: Program, data: Structure):
        """Reference: naive fixpoint recomputing everything each round."""
        from repro.core.homengine import iter_homomorphisms

        derived: set[UnaryFact] = set()
        goals: set[str] = set()
        changed = True
        while changed:
            changed = False
            instance = Structure(
                data.nodes,
                data.unary_facts | frozenset(derived),
                data.binary_facts,
            )
            for rule in prog.rules:
                for hom in iter_homomorphisms(rule.body, instance):
                    if rule.head_var is None:
                        if rule.head_pred not in goals:
                            goals.add(rule.head_pred)
                            changed = True
                    else:
                        fact = UnaryFact(rule.head_pred, hom[rule.head_var])
                        if fact not in derived and fact not in data.unary_facts:
                            derived.add(fact)
                            changed = True
        return frozenset(derived), frozenset(goals)

    def test_matches_naive_on_branching_graph(self):
        b = StructureBuilder()
        b.add_node(0, "Start")
        for src, dst in [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 1)]:
            b.add_edge(src, dst, "E")
        data = b.build()
        prog = reachability_program()
        result = evaluate(prog, data)
        naive_facts, naive_goals = self._naive(prog, data)
        assert result.facts == naive_facts
        assert result.goals == naive_goals
