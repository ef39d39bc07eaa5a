"""Hypothesis properties for inversion, the version store, and A(k)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import VersionStore, tree_diff, trees_isomorphic
from repro.editscript import invert_script
from repro.matching import fast_match
from repro.editscript.generator import generate_edit_script
from repro.workload import DocumentSpec, MutationEngine, generate_document


def small_doc(seed):
    return generate_document(
        seed % 6, DocumentSpec(sections=2, paragraphs_per_section=3,
                               sentences_per_paragraph=3)
    )


class TestInversionProperties:
    @given(st.integers(0, 300), st.integers(0, 12))
    @settings(max_examples=40, deadline=None)
    def test_invert_roundtrip(self, seed, edits):
        base = small_doc(seed)
        edited = MutationEngine(seed + 7).mutate(base, edits).tree
        result = tree_diff(base, edited)
        if result.edit.wrapped:
            return  # wrapped scripts round-trip through the store instead
        after = result.script.apply_to(base)
        inverse = invert_script(base, result.script)
        assert trees_isomorphic(inverse.apply_to(after), base)

    @given(st.integers(0, 200))
    @settings(max_examples=25, deadline=None)
    def test_double_inversion_is_identity_on_effect(self, seed):
        base = small_doc(seed)
        edited = MutationEngine(seed + 13).mutate(base, 5).tree
        result = tree_diff(base, edited)
        if result.edit.wrapped:
            return
        forward = result.script
        after = forward.apply_to(base)
        inverse = invert_script(base, forward)
        forward_again = invert_script(after, inverse)
        # E and invert(invert(E)) may differ textually but must have the
        # same effect on the source tree.
        assert trees_isomorphic(forward_again.apply_to(base), after)


class TestStoreProperties:
    @given(st.integers(0, 100), st.lists(st.integers(0, 10), min_size=1, max_size=5))
    @settings(max_examples=20, deadline=None)
    def test_checkout_reproduces_every_commit(self, seed, edit_counts):
        store = VersionStore()
        versions = [small_doc(seed)]
        store.commit(versions[0])
        for index, edits in enumerate(edit_counts):
            nxt = MutationEngine(seed * 31 + index).mutate(versions[-1], edits).tree
            versions.append(nxt)
            store.commit(nxt)
        for index, version in enumerate(versions):
            assert trees_isomorphic(store.checkout(index), version)

    @given(st.integers(0, 50))
    @settings(max_examples=15, deadline=None)
    def test_persistence_preserves_history(self, seed):
        store = VersionStore()
        v0 = small_doc(seed)
        v1 = MutationEngine(seed).mutate(v0, 4).tree
        store.commit(v0)
        store.commit(v1)
        reloaded = VersionStore.from_dict(store.to_dict())
        assert trees_isomorphic(reloaded.checkout(0), v0)
        assert trees_isomorphic(reloaded.checkout(1), v1)


class TestParameterizedProperties:
    @given(st.integers(0, 200), st.integers(0, 6))
    @settings(max_examples=30, deadline=None)
    def test_any_k_produces_correct_scripts(self, seed, k):
        base = small_doc(seed)
        edited = MutationEngine(seed + 3).mutate(base, 6).tree
        matching = fast_match(base, edited, k=k)
        result = generate_edit_script(base, edited, matching)
        assert result.verify(base, edited)

    @given(st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_matching_grows_with_k(self, seed):
        """A(k)'s matching size is non-decreasing in k (more candidates
        can only add pairs via LCS + wider windows)."""
        base = small_doc(seed)
        edited = MutationEngine(seed + 17).mutate(base, 8).tree
        sizes = []
        for k in (0, 2, None):
            matching = fast_match(base, edited, k=k)
            sizes.append(len(matching))
        assert sizes == sorted(sizes)


class TestMergeProperties:
    @given(st.integers(0, 150), st.integers(0, 8))
    @settings(max_examples=25, deadline=None)
    def test_merge_with_unchanged_right_is_left(self, seed, edits):
        """merge(base, left, base) reproduces left exactly."""
        from repro.merge import three_way_merge
        base = small_doc(seed)
        left = MutationEngine(seed + 31).mutate(base, edits).tree
        result = three_way_merge(base, left, base.copy())
        assert result.clean
        assert trees_isomorphic(result.tree, left)

    @given(st.integers(0, 150), st.integers(0, 8))
    @settings(max_examples=25, deadline=None)
    def test_merge_with_unchanged_left_is_right(self, seed, edits):
        """merge(base, base, right) reproduces right (no left to conflict)."""
        from repro.merge import three_way_merge
        base = small_doc(seed)
        right = MutationEngine(seed + 37).mutate(base, edits).tree
        result = three_way_merge(base, base.copy(), right)
        assert result.clean
        assert trees_isomorphic(result.tree, right)

    @given(st.integers(0, 100), st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=20, deadline=None)
    def test_merge_never_crashes_and_accounts_ops(self, seed, e1, e2):
        from repro.merge import three_way_merge
        base = small_doc(seed)
        left = MutationEngine(seed + 41).mutate(base, e1).tree
        right = MutationEngine(seed + 43).mutate(base, e2).tree
        result = three_way_merge(base, left, right)
        from repro.diff import tree_diff
        right_ops = len(tree_diff(base, right).script)
        total = result.applied_right_ops + result.skipped_right_ops
        # every right-delta op is either applied or skipped...
        assert total == right_ops
        # ...and each skip records at most one conflict
        assert len(result.conflicts) <= result.skipped_right_ops
