"""Cross-module integration tests: full workflows spanning the library."""

import json

import pytest

from repro import Tree, VersionStore, tree_diff, trees_isomorphic
from repro.baselines import flat_diff, zhang_shasha_distance
from repro.deltatree import build_delta_tree, render_html, render_latex
from repro.ladiff import ladiff, parse_latex, write_latex
from repro.ladiff.fixtures import NEW_TEXBOOK, OLD_TEXBOOK
from repro.workload import DocumentSpec, MutationEngine, generate_document


class TestDocumentLifecycle:
    """Author a document, evolve it through versions, audit the history."""

    def test_versioned_document_with_rules(self):
        store = VersionStore()
        v0 = parse_latex(OLD_TEXBOOK)
        store.commit(v0, "as published")
        v1 = parse_latex(NEW_TEXBOOK)
        store.commit(v1, "second edition")

        assert store.verify_history()
        assert trees_isomorphic(store.checkout(0), v0)

    def test_parse_diff_render_reparse(self):
        """LaTeX in, marked-up LaTeX out, and the mark-up itself parses.

        (Sentence counts differ from the new tree: mark-up like footnotes
        and labels merges into adjacent sentences when re-parsed.)
        """
        result = ladiff(OLD_TEXBOOK, NEW_TEXBOOK)
        reparsed = parse_latex(result.output)
        assert reparsed.root.label == "D"
        new_sections = sum(1 for n in result.new_tree.preorder() if n.label == "Sec")
        reparsed_sections = sum(1 for n in reparsed.preorder() if n.label == "Sec")
        assert reparsed_sections >= new_sections  # tombstoned sections may add more
        assert sum(1 for _ in reparsed.leaves()) > 0

    def test_write_then_diff_round_trip(self):
        """Serializing a tree to LaTeX and re-parsing yields a zero delta."""
        doc = generate_document(31, DocumentSpec(sections=3, list_probability=0.2))
        reparsed = parse_latex(write_latex(doc))
        result = tree_diff(doc, reparsed)
        assert result.script.is_empty()


class TestAgreementAcrossComponents:
    def test_tree_diff_cost_at_most_flat_changes_plus_moves(self):
        """On move-free workloads the tree differ never loses to flat diff
        by more than the structural (non-leaf) churn."""
        base = generate_document(41, DocumentSpec(sections=4))
        edited = MutationEngine(42).mutate(base, 10).tree
        tree_cost = tree_diff(base, edited).cost()
        flat = flat_diff(base, edited).total_changes
        internals = len(base) - sum(1 for _ in base.leaves())
        assert tree_cost <= flat + 2 * internals + 4

    def test_zs_distance_lower_bounds_unit_script_size(self):
        """[ZS89] computes the optimal relabel/ins/del distance; our script
        converted to that model (move -> delete+insert of the subtree)
        cannot be cheaper."""
        t1 = Tree.from_obj(
            ("D", None, [("P", None, [("S", "aa bb"), ("S", "cc dd")])])
        )
        t2 = Tree.from_obj(
            ("D", None, [("P", None, [("S", "cc dd"), ("S", "aa bb"),
                                       ("S", "ee ff")])])
        )
        zs = zhang_shasha_distance(t1, t2)
        ours = tree_diff(t1, t2)
        assert ours.verify(t1, t2)
        # 1 move + 1 insert for us; ZS needs at least the insert + churn
        assert zs >= len(ours.script.inserts)

    def test_query_and_renderers_agree_on_change_counts(self):
        base = generate_document(51, DocumentSpec(sections=3))
        edited = MutationEngine(52).mutate(base, 8).tree
        result = tree_diff(base, edited)
        delta = build_delta_tree(base, edited, result.edit)
        assert delta.counts().get("INS", 0) == len(result.script.inserts)
        html_out = render_html(delta)
        latex_out = render_latex(delta)
        assert html_out and latex_out  # both renderers handle the same tree


class TestSerializationInterop:
    def test_script_travels_as_json_between_components(self):
        from repro.editscript import EditScript

        base = generate_document(71, DocumentSpec(sections=2))
        edited = MutationEngine(72).mutate(base, 6).tree
        result = tree_diff(base, edited)
        if result.edit.wrapped:
            pytest.skip("wrapped scripts replay via EditScriptResult")
        wire = json.dumps(result.script.to_dicts())
        received = EditScript.from_dicts(json.loads(wire))
        assert trees_isomorphic(received.apply_to(base), edited)
