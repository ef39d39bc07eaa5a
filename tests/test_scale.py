"""Scale smoke tests: the pipeline on book-sized documents.

Keeps one eye on asymptotics outside the benchmark harness: these run in
the normal test suite and fail loudly if someone introduces quadratic
behavior on the happy path.
"""

import time

import pytest

from repro.diff import tree_diff
from repro.ladiff.pipeline import default_match_config
from repro.workload import DocumentSpec, MutationEngine, generate_document


@pytest.fixture(scope="module")
def big_pair():
    spec = DocumentSpec(
        sections=15,
        paragraphs_per_section=10,
        sentences_per_paragraph=6,
        subsection_probability=0.15,
        list_probability=0.1,
    )
    base = generate_document(999, spec)
    edited = MutationEngine(998).mutate(base, 40).tree
    return base, edited


class TestBookSizedDocuments:
    def test_diff_is_correct(self, big_pair):
        base, edited = big_pair
        result = tree_diff(base, edited, config=default_match_config())
        assert result.verify(base, edited)

    def test_diff_is_fast_enough(self, big_pair):
        """~1.5k nodes with 40 edits should diff in well under 5 seconds
        even on slow CI machines (typically < 0.3 s)."""
        base, edited = big_pair
        assert len(base) > 1000
        start = time.perf_counter()
        result = tree_diff(base, edited, config=default_match_config())
        elapsed = time.perf_counter() - start
        assert result.verify(base, edited)
        assert elapsed < 5.0

    def test_script_size_tracks_edits_not_document(self, big_pair):
        base, edited = big_pair
        result = tree_diff(base, edited, config=default_match_config())
        # 40 mutations; subtree ops touch a handful of nodes each. The
        # script must be a small fraction of the ~1500-node document.
        assert len(result.script) < len(base) / 4

    def test_deep_tree_no_recursion_blowup(self):
        """A 3000-deep chain exercises the iterative traversals."""
        from repro.core import Tree
        deep1 = Tree()
        deep2 = Tree()
        for tree in (deep1, deep2):
            node = tree.create_node("P", None)
            for level in range(3000):
                node = tree.create_node("P", None, parent=node)
            tree.create_node("S", "the bottom sentence", parent=node)
        assert len(list(deep1.preorder())) == 3002
        assert len(list(deep1.postorder())) == 3002
        depth = len(list(next(deep1.copy().leaves()).ancestors()))
        assert depth == len(list(next(deep1.leaves()).ancestors())) == 3001
        from repro.core import trees_isomorphic
        assert trees_isomorphic(deep1, deep2)
