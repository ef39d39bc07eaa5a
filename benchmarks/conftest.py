"""Shared fixtures for the benchmark harness.

Each ``bench_*`` module reproduces one table or figure from the paper's
evaluation (see DESIGN.md §3). Benchmarks print their paper-style table to
stdout (run ``pytest benchmarks/ --benchmark-only -s`` to see them live;
summary rows are also attached to pytest-benchmark's ``extra_info``) and
store it in ``benchmarks/paper_tables.txt`` so captured runs keep the
artifacts: a rerun replaces the section with the same title in place, and
only a new title appends one.
"""

from __future__ import annotations

import os
import re

import pytest

from repro.workload import paper_document_sets

_TABLES_PATH = os.path.join(os.path.dirname(__file__), "paper_tables.txt")
_TITLE = re.compile(r"^=== (.*) ===$", re.MULTILINE)


@pytest.fixture(scope="session")
def document_sets():
    """The three synthetic version sets standing in for the paper's data."""
    return paper_document_sets(edit_counts=(0, 4, 8, 16, 32))


def print_table(title, headers, rows):
    """Render an aligned text table (used by every bench module)."""
    widths = [len(h) for h in headers]
    text_rows = [[str(cell) for cell in row] for row in rows]
    for row in text_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["", f"=== {title} ==="]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in text_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    output = "\n".join(lines)
    print(output)
    try:
        store_table(_TABLES_PATH, title, output)
    except OSError:
        pass  # read-only checkouts still get the stdout copy
    return output


def table_sections(text):
    """Split a tables file into ``{title: section}``, in file order.

    A title that appears twice keeps its first position and its last text.
    """
    titles = list(_TITLE.finditer(text))
    sections = {}
    for match, following in zip(titles, titles[1:] + [None]):
        end = following.start() if following is not None else len(text)
        sections[match.group(1)] = text[match.start():end].rstrip("\n")
    return sections


def store_table(path, title, output):
    """Replace the section titled *title* in *path*, or append it."""
    try:
        with open(path, encoding="utf-8") as handle:
            sections = table_sections(handle.read())
    except FileNotFoundError:
        sections = {}
    sections[title] = output.lstrip("\n")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("".join(f"\n{section}\n" for section in sections.values()))
