"""The zoo's claimed properties, verified computationally.

This is the executable version of Examples 1-5: every property the paper
claims for q1-q8, D1 and D2 is checked by the library's own machinery.
"""

from repro import zoo
from repro.core import (
    OneCQ,
    Verdict,
    certain_answer,
    evaluate_exhaustive,
    find_unfocused_witness,
    has_homomorphism,
    is_focused_up_to,
    probe_boundedness,
    ucq_rewriting,
)
from repro.core.cq import solitary_f_nodes, solitary_t_nodes, twin_nodes
from repro.ditree import DitreeCQ


class TestShapes:
    def test_q1_two_solitary_fs(self):
        q = zoo.q1()
        assert len(solitary_f_nodes(q)) == 2
        assert len(solitary_t_nodes(q)) == 2
        assert not twin_nodes(q)

    def test_q2_q3_one_f_two_ts(self):
        for q in (zoo.q2(), zoo.q3()):
            assert len(solitary_f_nodes(q)) == 1
            assert len(solitary_t_nodes(q)) == 2

    def test_q2_uses_s_and_r(self):
        assert zoo.q2().binary_predicates == {"S", "R"}

    def test_q4_is_quasi_symmetric(self):
        cq = DitreeCQ.from_structure(zoo.q4())
        assert cq.is_quasi_symmetric()
        assert cq.is_lambda_cq()

    def test_q5_shape(self):
        q = zoo.q5()
        assert len(solitary_f_nodes(q)) == 1
        assert len(solitary_t_nodes(q)) == 1
        assert len(twin_nodes(q)) == 2
        cq = DitreeCQ.from_structure(q)
        assert cq.is_lambda_cq()
        assert not cq.is_quasi_symmetric()

    def test_q6_shape(self):
        q = zoo.q6()
        assert len(solitary_f_nodes(q)) == 1
        assert len(solitary_t_nodes(q)) == 2
        assert len(twin_nodes(q)) == 1

    def test_q7_is_the_verbatim_path(self):
        q = zoo.q7()
        assert len(q) == 6
        assert len(twin_nodes(q)) == 4
        assert len(solitary_f_nodes(q)) == 1
        assert len(solitary_t_nodes(q)) == 1

    def test_all_zoo_queries_are_connected(self):
        for entry in zoo.zoo_table():
            assert entry.query.is_connected(), entry.name


class TestExample2:
    def test_d1_certain_answer_yes(self):
        result = evaluate_exhaustive(zoo.q1(), zoo.d1())
        assert result.certain

    def test_d1_needs_case_distinction(self):
        """No embedding exists before the A node is labelled."""
        assert not has_homomorphism(zoo.q1(), zoo.d1())

    def test_d2_certain_answer_yes(self):
        assert certain_answer(zoo.q2(), zoo.d2())

    def test_d2_no_direct_embedding(self):
        assert not has_homomorphism(zoo.q2(), zoo.d2())

    def test_d2_creates_no_default_session(self, monkeypatch):
        # Zoo data is plain structure: building it must not create the
        # process default session, which would freeze the REPRO_*
        # environment of the moment for every later free-function call.
        import repro.session

        monkeypatch.setattr(repro.session, "_DEFAULT", None)
        zoo.d2()
        assert repro.session._DEFAULT is None


class TestExample4:
    def test_q5_focused(self):
        cq = OneCQ.from_structure(zoo.q5())
        assert is_focused_up_to(cq, 2)

    def test_q5_sigma_bounded_depth_one(self):
        cq = OneCQ.from_structure(zoo.q5())
        result = probe_boundedness(cq, 5, require_focus=True)
        assert result.verdict is Verdict.BOUNDED
        assert result.depth == 1

    def test_q5_rewriting_c0_or_c1(self):
        cq = OneCQ.from_structure(zoo.q5())
        assert len(ucq_rewriting(cq, 1)) == 2

    def test_q6_not_focused(self):
        cq = OneCQ.from_structure(zoo.q6())
        witness = find_unfocused_witness(cq, 2)
        assert witness is not None
        source, target, hom = witness
        assert hom[source.root_focus] != target.root_focus
        # The root focus lands on an FT-twin, as in the paper's picture.
        image_labels = target.structure.labels(hom[source.root_focus])
        assert {"F", "T"} <= image_labels

    def test_q6_pi_bounded(self):
        cq = OneCQ.from_structure(zoo.q6())
        assert probe_boundedness(cq, 2).verdict is Verdict.BOUNDED

    def test_q6_sigma_unbounded(self):
        cq = OneCQ.from_structure(zoo.q6())
        result = probe_boundedness(cq, 2, require_focus=True)
        assert result.verdict is Verdict.UNBOUNDED_EVIDENCE


class TestBoundednessAcrossZoo:
    def test_q3_unbounded(self):
        cq = OneCQ.from_structure(zoo.q3())
        assert (
            probe_boundedness(cq, 3).verdict is Verdict.UNBOUNDED_EVIDENCE
        )

    def test_q4_unbounded(self):
        cq = OneCQ.from_structure(zoo.q4())
        assert (
            probe_boundedness(cq, 5).verdict is Verdict.UNBOUNDED_EVIDENCE
        )

    def test_q7_bounded(self):
        cq = OneCQ.from_structure(zoo.q7())
        result = probe_boundedness(cq, 5)
        assert result.verdict is Verdict.BOUNDED

    def test_q8_bounded(self):
        cq = OneCQ.from_structure(zoo.q8())
        result = probe_boundedness(cq, 5)
        assert result.verdict is Verdict.BOUNDED


class TestZooTable:
    def test_eight_entries(self):
        table = zoo.zoo_table()
        assert [e.name for e in table] == [
            "q1", "q2", "q3", "q4", "q5", "q6", "q7", "q8",
        ]

    def test_sources_recorded(self):
        table = {e.name: e for e in zoo.zoo_table()}
        assert table["q4"].source == "verbatim"
        assert table["q5"].source == "reconstruction"

    def test_one_cq_helper(self):
        assert zoo.one_cq(zoo.q4()).span == 1
