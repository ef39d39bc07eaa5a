"""Documents deeper than the recursion limit go through the §6 output path.

Every walk from a parsed tree to a rendered delta keeps an explicit stack,
so a 2000-level document builds, compares, dumps and renders at the
interpreter's default recursion limit. The matching is passed in, which
skips the quadratic ``match`` stage; it is the identity on the kept chain.
"""

import sys

from repro.baselines.flat_diff import flatten_tree
from repro.core import Tree, canonical_form
from repro.deltatree import render_html, render_latex, render_text
from repro.ladiff import parse_xml, write_latex, write_xml
from repro.matching import Matching
from repro.obs.export import render_span_tree
from repro.pipeline import DiffConfig, DiffPipeline

DEPTH = 2000


def chain_spec(depth, tag):
    """``D`` over a chain of *depth* ``P`` blocks, one sentence each."""
    spec = ("S", f"{tag} bottom sentence")
    for level in range(depth - 1, 0, -1):
        spec = ("P", None, [("S", f"{tag} sentence at level {level}"), spec])
    return spec


def test_tree_dumps_and_forms():
    assert sys.getrecursionlimit() < DEPTH
    tree = Tree.from_obj(("D", None, [chain_spec(DEPTH, "kept")]))
    assert len(tree) == 2 * DEPTH
    assert list(tree.node_ids()) == list(range(1, 2 * DEPTH + 1))
    again = Tree.from_obj(tree.to_obj())
    assert canonical_form(again) == canonical_form(tree)
    changed = Tree.from_obj(("D", None, [chain_spec(DEPTH, "other")]))
    assert canonical_form(changed) != canonical_form(tree)
    lines = tree.pretty().splitlines()
    assert lines[-1] == "  " * DEPTH + f"S #{2 * DEPTH} (kept bottom sentence)"
    flat = flatten_tree(tree)
    assert len(flat) == DEPTH and flat[-1] == "kept bottom sentence"


def test_xml_round_trip():
    source = "<a>" * DEPTH + "text" + "</a>" * DEPTH
    tree = parse_xml(source)
    assert len(tree) == DEPTH + 1
    assert canonical_form(parse_xml(write_xml(tree))) == canonical_form(tree)


def test_span_tree():
    spans = [
        {"trace": "t", "span": str(i), "parent": str(i - 1) if i else None,
         "name": "stage", "start": 0.0, "end": 1.0, "wall_ms": 1000.0,
         "status": "ok"}
        for i in range(DEPTH)
    ]
    lines = render_span_tree(spans).splitlines()
    assert len(lines) == DEPTH + 1
    assert lines[-1].startswith("   " * (DEPTH - 1) + "`- stage")


def test_delta_tree_and_every_writer():
    old = Tree.from_obj(
        ("D", None, [chain_spec(DEPTH, "kept"), chain_spec(DEPTH, "gone")])
    )
    new = Tree.from_obj(("D", None, [chain_spec(DEPTH, "kept")]))
    # Preorder positions agree on the kept chain: match it one-to-one.
    matching = Matching((i, i) for i in range(1, 2 * DEPTH + 1))
    pipeline = DiffPipeline(DiffConfig(build_delta=True))
    result = pipeline.run(old, new, matching=matching)
    counts = result.delta.counts()
    assert counts == {"IDN": 2 * DEPTH, "DEL": 2 * DEPTH - 1}

    html = render_html(result.delta)
    assert html.count("<p>") == 2 * (DEPTH - 1)
    assert "<del>gone bottom sentence</del>" in html
    latex = render_latex(result.delta)
    assert "{\\small gone bottom sentence}" in latex
    assert len(render_text(result.delta).splitlines()) == 4 * DEPTH - 1
    written = write_latex(new)
    assert written.count("sentence at level") == DEPTH - 1
