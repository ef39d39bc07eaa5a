"""End-to-end tests for the LaDiff pipeline, including the Appendix A run."""

import pytest

from repro.ladiff import default_match_config, ladiff, ladiff_files
from repro.ladiff.fixtures import NEW_TEXBOOK, OLD_TEXBOOK


class TestPipelineBasics:
    def test_identical_documents_no_changes(self):
        source = "\\section{A}\n\nSame text here. Nothing changes.\n"
        result = ladiff(source, source)
        assert result.script.is_empty()
        assert result.summary() == "no changes"

    def test_update_detected(self):
        old = "\\section{A}\n\nThe quick brown fox jumps over the dog.\n"
        new = "\\section{A}\n\nThe quick brown fox leaps over the dog.\n"
        result = ladiff(old, new)
        assert result.script.summary()["update"] == 1
        assert "\\textit{" in result.output

    def test_verification_holds(self):
        result = ladiff(OLD_TEXBOOK, NEW_TEXBOOK)
        assert result.diff.verify(result.old_tree, result.new_tree)

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            ladiff("a", "b", format="docx")

    def test_unknown_output_rejected(self):
        with pytest.raises(ValueError):
            ladiff("a.", "b.", output="pdf")

    def test_text_format(self):
        old = "One sentence here.\n\nSecond paragraph now."
        new = "One sentence here.\n\nSecond paragraph changed now."
        result = ladiff(old, new, format="text", output="text")
        assert "UPD" in result.output

    def test_html_format_and_output(self):
        old = "<h1>T</h1><p>Alpha beta gamma delta.</p>"
        new = "<h1>T</h1><p>Alpha beta gamma epsilon.</p>"
        result = ladiff(old, new, format="html", output="html")
        assert '<em class="upd">' in result.output

    def test_html_renders_content_nested_under_an_item(self):
        old = "\n".join([
            r"\section{Plans}",
            "Some intro sentence here.",
            r"\begin{itemize}",
            r"\item Outer point stays the same.",
            r"\begin{itemize}",
            r"\item Inner detail about the old plan.",
            r"\end{itemize}",
            r"\end{itemize}",
        ])
        new = old.replace("the old plan", "the revised plan")
        html = ladiff(old, new, output="html").output
        latex = ladiff(old, new, output="latex").output
        assert "Inner detail about the revised plan." in latex
        assert '<li><em class="upd">Inner detail about the revised plan.</em></li>' in html
        assert html.index("Outer point") < html.index("Inner detail")

    def test_files_wrapper(self, tmp_path):
        old_path = tmp_path / "old.tex"
        new_path = tmp_path / "new.tex"
        old_path.write_text(
            "\\section{X}\n\nSame words. Another line. Third line.\n",
            encoding="utf-8",
        )
        new_path.write_text(
            "\\section{X}\n\nSame words. Another line. Third line. "
            "Brand new sentence.\n",
            encoding="utf-8",
        )
        result = ladiff_files(str(old_path), str(new_path))
        assert result.script.summary()["insert"] == 1
        assert "\\textbf{" in result.output

    def test_match_threshold_parameter(self):
        """LaDiff takes t as a parameter; higher t is more conservative."""
        config_loose = default_match_config(t=0.5)
        config_tight = default_match_config(t=0.9)
        assert config_loose.t == 0.5 and config_tight.t == 0.9


class TestAppendixASampleRun:
    """Reproduce the paper's Figure 16 (sample LaDiff run) structure."""

    @pytest.fixture(scope="class")
    def run(self):
        return ladiff(OLD_TEXBOOK, NEW_TEXBOOK)

    def test_moved_sentences_are_detected(self, run):
        """The TeX78 sentence moves from Conclusion to Introduction; the
        exercises sentence moves to the back of its section — both updated.
        GNU diff would report all of these as delete+insert pairs."""
        assert run.script.summary()["move"] >= 2

    def test_footnote_and_labels_present(self, run):
        assert "\\footnote{Moved from S" in run.output
        assert "S1:[" in run.output

    def test_inserted_greek_paragraph_bold(self, run):
        assert "\\textbf{English words like" in run.output

    def test_deleted_sentence_small(self, run):
        assert "{\\small In general, the later chapters" in run.output

    def test_deleted_sentence_struck_in_html(self):
        html = ladiff(OLD_TEXBOOK, NEW_TEXBOOK, output="html").output
        assert (
            "<del>In general, the later chapters contain more reliable "
            "information than the earlier ones do.</del>"
        ) in html

    def test_section_annotations_in_headings(self, run):
        # Three of the four headings change; Conclusion survives untouched.
        assert "\\section{Conclusion}" in run.output
        annotated = [
            line
            for line in run.output.splitlines()
            if line.startswith("\\section{(")
        ]
        assert len(annotated) >= 2

    def test_moved_paragraph_marginal_note(self, run):
        assert "\\marginpar{Moved from P1}" in run.output
        assert "P1:[" in run.output

    def test_conclusion_text_preserved_verbatim(self, run):
        assert "keep the name TeX for the language described here" in run.output
