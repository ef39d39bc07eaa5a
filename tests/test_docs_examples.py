"""Keep the documentation honest: run the README/guide code snippets."""

import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def python_blocks(markdown_path):
    text = (REPO_ROOT / markdown_path).read_text(encoding="utf-8")
    return re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)


class TestReadmeSnippets:
    def test_quickstart_block_runs(self):
        blocks = python_blocks("README.md")
        assert blocks, "README has no python blocks?"
        # The first block is the quickstart; it is fully self-contained.
        exec(compile(blocks[0], "README.md#quickstart", "exec"), {})

    def test_ladiff_block_runs(self):
        blocks = python_blocks("README.md")
        namespace = {
            "old_latex_source": "\\section{A}\n\nHello there world.\n",
            "new_latex_source": "\\section{A}\n\nHello there brave world.\n",
        }
        ladiff_block = next(b for b in blocks if "from repro.ladiff" in b)
        exec(compile(ladiff_block, "README.md#ladiff", "exec"), namespace)
        assert "result" in namespace

    def test_delta_tree_block_runs(self):
        blocks = python_blocks("README.md")
        # The delta-tree block continues from the quickstart's namespace.
        namespace = {}
        exec(compile(blocks[0], "README.md#quickstart", "exec"), namespace)
        delta_block = next(b for b in blocks if "build_delta_tree" in b)
        exec(compile(delta_block, "README.md#delta", "exec"), namespace)
        assert "delta" in namespace and "html" in namespace

    def test_mentioned_paths_exist(self):
        text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        for match in re.findall(r"`(examples/[a-z_]+\.py)`", text):
            assert (REPO_ROOT / match).exists(), f"README references missing {match}"
        for match in re.findall(r"`(benchmarks/bench_[a-z_0-9]+\.py)`", text):
            assert (REPO_ROOT / match).exists(), f"README references missing {match}"


class TestGuideSnippets:
    def test_tree_building_block_runs(self):
        blocks = python_blocks("docs/guide.md")
        assert blocks
        # first block: tree construction (ends with a dict-format build that
        # uses a placeholder "[...]" - trim that line before executing)
        lines = [
            line for line in blocks[0].splitlines()
            if "[...]" not in line
        ]
        exec(compile("\n".join(lines), "guide.md#trees", "exec"), {})

    def test_pipeline_block_runs(self):
        from repro import Tree
        blocks = python_blocks("docs/guide.md")
        pipeline_block = next(b for b in blocks if "DiffPipeline" in b)
        namespace = {
            "old_tree": Tree.from_obj(("D", None, [("S", "x y")])),
            "new_tree": Tree.from_obj(("D", None, [("S", "x y z")])),
        }
        exec(compile(pipeline_block, "guide.md#pipeline", "exec"), namespace)
        assert namespace["result"].rendered

    def test_merge_block_runs(self):
        from repro import Tree
        blocks = python_blocks("docs/guide.md")
        merge_block = next(b for b in blocks if "three_way_merge" in b)
        namespace = {
            "base_tree": Tree.from_obj(("D", None, [("S", "x y")])),
            "left_tree": Tree.from_obj(("D", None, [("S", "x y z")])),
            "right_tree": Tree.from_obj(("D", None, [("S", "x y")])),
        }
        exec(compile(merge_block, "guide.md#merge", "exec"), namespace)
        assert namespace["result"].clean

    def test_engine_block_runs(self):
        from repro import Tree
        blocks = python_blocks("docs/guide.md")
        engine_block = next(b for b in blocks if "map_pairs" in b)
        namespace = {
            "old_a": Tree.from_obj(("D", None, [("S", "x y")])),
            "new_a": Tree.from_obj(("D", None, [("S", "x y z")])),
            "old_b": Tree.from_obj(("D", None, [("P", None, [("S", "p q")])])),
            "new_b": Tree.from_obj(("D", None, [("P", None, []), ("S", "p q")])),
        }
        try:
            exec(compile(engine_block, "guide.md#engine", "exec"), namespace)
        finally:
            if "engine" in namespace:
                namespace["engine"].close()
        assert [r.status for r in namespace["results"]] == ["ok", "ok"]

    def test_benches_referenced_in_experiments_exist(self):
        text = (REPO_ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        for match in re.findall(r"`benchmarks/(bench_[a-z_0-9]+\.py)`", text):
            assert (REPO_ROOT / "benchmarks" / match).exists(), match

    def test_paper_mapping_modules_exist(self):
        """Every `repro.*` dotted path in the mapping resolves to a module
        or to an attribute of one."""
        import importlib
        text = (REPO_ROOT / "docs" / "paper_mapping.md").read_text(encoding="utf-8")
        for path in set(re.findall(r"`(repro(?:\.[a-z_0-9]+)+)`", text)):
            parts = path.split(".")
            resolved = None
            for cut in range(len(parts), 0, -1):
                try:
                    resolved = importlib.import_module(".".join(parts[:cut]))
                except ModuleNotFoundError:
                    continue
                remainder = parts[cut:]
                target = resolved
                for attr in remainder:
                    target = getattr(target, attr, None)
                    assert target is not None, f"{path} does not resolve"
                break
            assert resolved is not None, f"{path} does not resolve"
