"""Tests for the LaDiff parsers: LaTeX, HTML, plain text, and writers."""

import pytest

from repro.core import ParseError
from repro.ladiff import (
    parse_html,
    parse_latex,
    parse_text,
    split_sentences,
    write_latex,
    write_text,
)
from repro.matching import infer_label_ranks


class TestSplitSentences:
    def test_basic_split(self):
        assert split_sentences("One. Two! Three?") == ["One.", "Two!", "Three?"]

    def test_whitespace_normalized(self):
        assert split_sentences("A  b\n c. Next.") == ["A b c.", "Next."]

    def test_no_terminator(self):
        assert split_sentences("no punctuation here") == ["no punctuation here"]

    def test_empty(self):
        assert split_sentences("") == []
        assert split_sentences("   \n ") == []

    def test_abbreviation_limitation_documented(self):
        # Splitting is purely punctuation-based, like the paper's parser.
        parts = split_sentences("See Dr. Smith. Then leave.")
        assert len(parts) == 3


class TestParseLatex:
    def test_sections_and_paragraphs(self):
        tree = parse_latex(
            "\\section{Intro}\n\nFirst para one. First para two.\n\n"
            "Second para.\n\n\\section{Body}\n\nBody text."
        )
        root = tree.root
        assert root.label == "D"
        assert [c.label for c in root.children] == ["Sec", "Sec"]
        assert root.children[0].value == "Intro"
        intro = root.children[0]
        assert [c.label for c in intro.children] == ["P", "P"]
        assert [s.value for s in intro.children[0].children] == [
            "First para one.", "First para two.",
        ]

    def test_subsections_nest_under_sections(self):
        tree = parse_latex(
            "\\section{A}\n\nTop text.\n\n\\subsection{A1}\n\nSub text.\n\n"
            "\\section{B}\n\nOther."
        )
        section_a = tree.root.children[0]
        assert [c.label for c in section_a.children] == ["P", "SubSec"]
        assert section_a.children[1].value == "A1"
        # the next \section pops back to document level
        assert tree.root.children[1].label == "Sec"

    def test_lists_merge_to_single_label(self):
        for env in ("itemize", "enumerate", "description"):
            tree = parse_latex(
                f"\\begin{{{env}}}\n\\item First item.\n\\item Second item.\n"
                f"\\end{{{env}}}"
            )
            lists = [n for n in tree.preorder() if n.label == "list"]
            assert len(lists) == 1
            items = lists[0].children
            assert [i.label for i in items] == ["item", "item"]
            assert items[0].children[0].value == "First item."

    def test_nested_lists(self):
        tree = parse_latex(
            "\\begin{itemize}\n\\item Outer one.\n"
            "\\begin{enumerate}\n\\item Inner.\n\\end{enumerate}\n"
            "\\item Outer two.\n\\end{itemize}"
        )
        outer = next(n for n in tree.preorder() if n.label == "list")
        labels = [c.label for c in outer.children]
        assert labels == ["item", "item"]
        first_item = outer.children[0]
        assert any(c.label == "list" for c in first_item.children)

    def test_document_environment_extracted(self):
        tree = parse_latex(
            "\\documentclass{article}\n\\begin{document}\nHello there.\n"
            "\\end{document}\nignored trailing"
        )
        assert [leaf.value for leaf in tree.leaves()] == ["Hello there."]

    def test_unterminated_document_env_raises(self):
        with pytest.raises(ParseError):
            parse_latex("\\begin{document}\nunclosed")

    def test_comments_stripped(self):
        tree = parse_latex("Kept text. % a comment. Gone.\n")
        assert [leaf.value for leaf in tree.leaves()] == ["Kept text."]

    def test_escaped_percent_kept(self):
        tree = parse_latex("Grew by 10\\% today.")
        assert "10\\%" in tree.leaves().__next__().value

    def test_item_outside_list_raises(self):
        with pytest.raises(ParseError):
            parse_latex("\\item stray item")

    def test_unbalanced_end_raises(self):
        with pytest.raises(ParseError):
            parse_latex("\\end{itemize}")

    def test_parsed_trees_satisfy_document_schema(self):
        tree = parse_latex(
            "\\section{A}\n\nSome text here. More text.\n\n"
            "\\begin{itemize}\n\\item One.\n\\item Two.\n\\end{itemize}\n\n"
            "\\subsection{A1}\n\nSub body.\n"
        )
        ranks = infer_label_ranks([tree])
        assert len(set(ranks.values())) == len(ranks)  # no merged labels
        for node in tree.preorder():
            for child in node.children:
                assert ranks[child.label] < ranks[node.label]

    def test_empty_input(self):
        tree = parse_latex("")
        assert tree.root.label == "D"
        assert tree.root.children == []


class TestWriteLatex:
    def test_round_trip_structure(self):
        source = (
            "\\section{Alpha}\n\nOne two three. Four five.\n\n"
            "\\begin{itemize}\n\\item Item text.\n\\end{itemize}\n\n"
            "\\subsection{Beta}\n\nFinal words.\n"
        )
        tree = parse_latex(source)
        regenerated = write_latex(tree)
        reparsed = parse_latex(regenerated)
        assert reparsed.to_obj() == tree.to_obj()

    def test_full_document_flag(self):
        tree = parse_latex("Hello world.")
        out = write_latex(tree, full_document=True)
        assert out.startswith("\\documentclass")
        assert "\\end{document}" in out


class TestParseText:
    def test_paragraph_blocks(self):
        tree = parse_text("First para. Still first.\n\nSecond para.\n")
        root = tree.root
        assert [c.label for c in root.children] == ["P", "P"]
        assert [s.value for s in root.children[0].children] == [
            "First para. Still first.".split(". ")[0] + ".",
            "Still first.",
        ]

    def test_round_trip(self):
        source = "Alpha beta. Gamma delta.\n\nSecond paragraph here.\n"
        tree = parse_text(source)
        assert parse_text(write_text(tree)).to_obj() == tree.to_obj()

    def test_empty_input(self):
        tree = parse_text("\n\n  \n")
        assert tree.root.children == []

    def test_write_empty(self):
        from repro.core import Tree
        assert write_text(Tree()) == ""


class TestParseHtml:
    def test_headings_paragraphs(self):
        tree = parse_html(
            "<html><body><h1>Title One</h1><p>Alpha beta. Gamma.</p>"
            "<h3>Sub</h3><p>Delta.</p></body></html>"
        )
        root = tree.root
        assert root.children[0].label == "Sec"
        assert root.children[0].value == "Title One"
        section = root.children[0]
        assert [c.label for c in section.children] == ["P", "SubSec"]

    def test_lists_and_items(self):
        tree = parse_html("<ul><li>First thing.</li><li>Second thing.</li></ul>")
        lst = next(n for n in tree.preorder() if n.label == "list")
        assert [c.label for c in lst.children] == ["item", "item"]
        assert lst.children[0].children[0].value == "First thing."

    def test_ol_and_dl_merge_to_list(self):
        for tag, item in (("ol", "li"), ("dl", "dd")):
            tree = parse_html(f"<{tag}><{item}>Content here.</{item}></{tag}>")
            assert any(n.label == "list" for n in tree.preorder())

    def test_script_and_style_skipped(self):
        tree = parse_html(
            "<script>var x = 'ignored';</script><p>Real text.</p>"
            "<style>p { color: red }</style>"
        )
        values = [leaf.value for leaf in tree.leaves()]
        assert values == ["Real text."]

    def test_unknown_tags_transparent(self):
        tree = parse_html("<div><span>Inline words.</span></div>")
        assert [leaf.value for leaf in tree.leaves()] == ["Inline words."]

    def test_entities_decoded(self):
        tree = parse_html("<p>a &amp; b.</p>")
        assert list(tree.leaves())[0].value == "a & b."

    def test_malformed_html_does_not_crash(self):
        tree = parse_html("<p>Unclosed <b>bold <p>Next para.")
        assert len(list(tree.leaves())) >= 1
