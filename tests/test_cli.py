"""Tests for the repro-diff command-line interface."""

import json

import pytest

from repro.cli import main


@pytest.fixture
def latex_files(tmp_path):
    old = tmp_path / "old.tex"
    new = tmp_path / "new.tex"
    old.write_text(
        "\\section{Intro}\n\nShared sentence one. Shared sentence two. "
        "A doomed line here.\n",
        encoding="utf-8",
    )
    new.write_text(
        "\\section{Intro}\n\nShared sentence one. Shared sentence two. "
        "A freshly written line.\n",
        encoding="utf-8",
    )
    return str(old), str(new)


@pytest.fixture
def sexpr_files(tmp_path):
    old = tmp_path / "old.sexpr"
    new = tmp_path / "new.sexpr"
    old.write_text('(D (P (S "alpha one") (S "beta two")))', encoding="utf-8")
    new.write_text('(D (P (S "beta two") (S "alpha one")))', encoding="utf-8")
    return str(old), str(new)


class TestLadiffCommand:
    def test_stdout_output(self, latex_files, capsys):
        old, new = latex_files
        assert main(["ladiff", old, new]) == 0
        out = capsys.readouterr().out
        assert "\\textbf{" in out  # inserted sentence in bold
        assert "{\\small " in out  # deleted sentence in small font

    def test_write_to_file(self, latex_files, tmp_path, capsys):
        old, new = latex_files
        target = str(tmp_path / "marked.tex")
        assert main(["ladiff", old, new, "-o", target]) == 0
        with open(target, encoding="utf-8") as handle:
            assert "\\textbf{" in handle.read()
        assert "wrote" in capsys.readouterr().out

    def test_html_output_format(self, latex_files, capsys):
        old, new = latex_files
        assert main(["ladiff", old, new, "--output-format", "html"]) == 0
        assert "<ins>" in capsys.readouterr().out

    def test_summary_flag(self, latex_files, capsys):
        old, new = latex_files
        assert main(["ladiff", old, new, "--summary"]) == 0
        captured = capsys.readouterr()
        assert "summary:" in captured.err

    def test_thresholds_accepted(self, latex_files, capsys):
        old, new = latex_files
        assert main(["ladiff", old, new, "-t", "0.8", "-f", "0.4"]) == 0


class TestScriptCommand:
    def test_paper_notation(self, sexpr_files, capsys):
        old, new = sexpr_files
        assert main(["script", old, new]) == 0
        captured = capsys.readouterr()
        assert "MOV(" in captured.out
        assert "# cost" in captured.err

    def test_json_output(self, sexpr_files, capsys):
        old, new = sexpr_files
        assert main(["script", old, new, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload and payload[0]["op"] == "move"

    def test_json_tree_input(self, tmp_path, capsys):
        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        old.write_text(
            json.dumps({"id": 1, "label": "D", "children": [
                {"id": 2, "label": "S", "value": "keep this here"}]}),
            encoding="utf-8",
        )
        new.write_text(
            json.dumps({"id": 1, "label": "D", "children": [
                {"id": 2, "label": "S", "value": "keep this here"},
                {"id": 3, "label": "S", "value": "add that there"}]}),
            encoding="utf-8",
        )
        assert main(["script", str(old), str(new)]) == 0
        assert "INS(" in capsys.readouterr().out

    def test_numeric_sentence_values(self, tmp_path, capsys):
        """A non-string ``S`` value is compared numerically, not tokenized."""
        def document(value):
            return {"label": "D", "children": [{"label": "P", "children": [
                {"label": "S", "value": value},
                {"label": "S", "value": "an ordinary sentence here"}]}]}

        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        old.write_text(json.dumps(document(5)), encoding="utf-8")
        new.write_text(json.dumps(document(6)), encoding="utf-8")
        assert main(["script", str(old), str(new), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [entry["op"] for entry in payload] == ["update"]


class TestStatsCommand:
    def test_reports_measurements(self, latex_files, capsys):
        old, new = latex_files
        assert main(["stats", old, new]) == 0
        out = capsys.readouterr().out
        assert "unweighted dist (d):" in out
        assert "weighted dist (e):" in out
        assert "analytical bound:" in out
        assert "leaf compares (r1):" in out

    def test_unknown_format_exits_nonzero_with_message(self, latex_files, capsys):
        old, new = latex_files
        assert main(["stats", old, new, "--format", "docx"]) == 2
        err = capsys.readouterr().err
        assert "unknown input format 'docx'" in err
        assert "['html', 'latex', 'text', 'xml']" in err

    def test_xml_format(self, tmp_path, capsys):
        old = tmp_path / "old.xml"
        new = tmp_path / "new.xml"
        old.write_text("<doc><p>One sentence here.</p></doc>", encoding="utf-8")
        new.write_text("<doc><p>One sentence here.</p><p>Added.</p></doc>", encoding="utf-8")
        assert main(["stats", str(old), str(new), "--format", "xml"]) == 0
        assert "nodes (old/new):" in capsys.readouterr().out


class TestParser:
    def test_missing_command_prints_help_and_exits_2(self, capsys):
        # No subcommand is a usage error, not a crash: help on stdout, rc 2.
        assert main([]) == 2
        out = capsys.readouterr().out
        assert "usage: repro-diff" in out
        assert "batch" in out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["teleport", "a", "b"])

    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert f"repro-diff {__version__}" in capsys.readouterr().out


class TestBatchCommand:
    @pytest.fixture
    def manifest(self, tmp_path):
        (tmp_path / "a.sexpr").write_text(
            '(D (P (S "alpha one") (S "beta two")))', encoding="utf-8"
        )
        (tmp_path / "b.sexpr").write_text(
            '(D (P (S "beta two") (S "alpha one")))', encoding="utf-8"
        )
        (tmp_path / "bad.sexpr").write_text('(D (P (S "unclosed"', encoding="utf-8")
        path = tmp_path / "pairs.manifest"
        path.write_text(
            "# comment line\n"
            "a.sexpr b.sexpr\n"
            "a.sexpr a.sexpr\n"
            "a.sexpr b.sexpr\n",
            encoding="utf-8",
        )
        return tmp_path, str(path)

    def test_batch_reports_provenance_and_metrics(self, manifest, capsys):
        _, path = manifest
        assert main(["batch", path, "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "computed" in out
        assert "digest" in out   # identical pair short-circuited
        assert "cache" in out    # repeated pair served from cache
        assert "-- service metrics --" in out
        assert "digest_short_circuits:  1" in out

    def test_batch_isolates_malformed_documents(self, manifest, capsys):
        tmp_path, path = manifest
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("bad.sexpr b.sexpr\n")
        assert main(["batch", path]) == 1
        captured = capsys.readouterr()
        assert "ParseError" in captured.out
        assert "1 of 4 jobs failed" in captured.err
        # the healthy jobs still completed
        assert "computed" in captured.out

    def test_batch_json_output(self, manifest, capsys):
        _, path = manifest
        assert main(["batch", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["jobs"]) == 3
        assert payload["metrics"]["counters"]["jobs_succeeded"] == 3
        assert payload["cache"]["capacity"] == 256

    def test_batch_cache_spill_roundtrip(self, manifest, tmp_path, capsys):
        _, path = manifest
        spill = str(tmp_path / "warm.json")
        assert main(["batch", path, "--save-cache", spill]) == 0
        capsys.readouterr()
        # warm restart: the previously computed pair is now a cache hit
        assert main(["batch", path, "--warm-cache", spill, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["counters"]["cache_misses"] == 0
        assert payload["metrics"]["counters"]["cache_hits"] >= 1

    def test_batch_bad_manifest_line(self, tmp_path, capsys):
        path = tmp_path / "broken.manifest"
        path.write_text("only-one-column\n", encoding="utf-8")
        assert main(["batch", str(path)]) == 2
        assert "expected 'OLD NEW'" in capsys.readouterr().err

    def test_batch_missing_manifest(self, tmp_path, capsys):
        assert main(["batch", str(tmp_path / "nope.manifest")]) == 2
        assert "error:" in capsys.readouterr().err


class TestServeCommand:
    def test_parser_has_serve(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--port", "0", "--queue-depth", "8", "--rate", "2.5"]
        )
        assert args.command == "serve"
        assert args.port == 0
        assert args.queue_depth == 8
        assert args.rate == 2.5

    def test_invalid_workers_exit_2(self, capsys):
        assert main(["serve", "--port", "0", "--workers", "-1"]) == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_threads_exit_2(self, capsys):
        # 0 engine threads is rejected before any socket is bound
        assert main(["serve", "--port", "0", "--threads", "0"]) == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_queue_depth_exit_2(self, capsys):
        assert main(["serve", "--port", "0", "--queue-depth", "0"]) == 2
        assert "error" in capsys.readouterr().err

    def test_trace_export_with_a_cluster_exit_2(self, tmp_path, capsys):
        # Refused by ClusterConfig before any worker process is spawned.
        export = tmp_path / "spans.jsonl"
        assert main(["serve", "--port", "0", "--workers", "2",
                     "--trace-export", str(export)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not export.exists()

    def test_worker_argv_round_trips_every_forwarded_field(self):
        import dataclasses

        from repro.cli import _serve_config, build_parser
        from repro.ladiff.pipeline import default_match_config
        from repro.serve.app import ServeConfig
        from repro.serve.cluster import worker_argv

        # Every CLI-mapped field away from its default, so a flag the
        # worker command line drops shows up as a default on the way back.
        config = ServeConfig(
            host="127.0.0.2", workers=3, cache_size=17, algorithm="simple",
            match=default_match_config(t=0.7, f=0.8), verify_fraction=0.25,
            queue_capacity=5, rate=2.5, burst=3.0, max_body_bytes=64 * 1024,
            deadline_ms=1234.0, drain_timeout=7.0, trace_fraction=0.5,
            trace_buffer=100,
        )
        args = build_parser().parse_args(worker_argv(config)[3:])
        assert args.workers == 1
        back = _serve_config(args)
        assert back.port == 0
        assert (back.match.t, back.match.f) == (0.7, 0.8)
        for field in dataclasses.fields(ServeConfig):
            if field.name not in ("port", "match", "trace_export"):
                assert getattr(back, field.name) == getattr(config, field.name), field.name


class TestJsonDeterminism:
    """Every --json output is serialized with sorted keys (byte-stable)."""

    def canonical(self, text):
        return json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"

    def test_script_json_sorted(self, sexpr_files, capsys):
        old, new = sexpr_files
        assert main(["script", old, new, "--json"]) == 0
        out = capsys.readouterr().out
        assert out == self.canonical(out)

    def test_batch_json_sorted_and_repeatable(self, tmp_path, capsys):
        old = tmp_path / "a.sexpr"
        new = tmp_path / "b.sexpr"
        old.write_text('(D (S "one"))', encoding="utf-8")
        new.write_text('(D (S "two"))', encoding="utf-8")
        manifest = tmp_path / "pairs.manifest"
        manifest.write_text("a.sexpr b.sexpr\n", encoding="utf-8")
        assert main(["batch", str(manifest), "--json"]) == 0
        out = capsys.readouterr().out
        assert out == self.canonical(out)

    def test_verify_json_sorted(self, sexpr_files, capsys):
        old, new = sexpr_files
        assert main(["verify", old, new, "--json", "--no-differential"]) == 0
        out = capsys.readouterr().out
        assert out == self.canonical(out)

    def test_fuzz_json_sorted(self, tmp_path, capsys):
        assert main([
            "fuzz", "--seed", "3", "--iterations", "2", "--max-nodes", "12",
            "--no-differential", "--repro-dir", str(tmp_path), "--json",
        ]) == 0
        out = capsys.readouterr().out
        assert out == self.canonical(out)


class TestTraceCli:
    """Tracing through the CLI: sampled ids in --json output, JSONL export,
    and the ``trace`` subcommand that renders it back as a tree."""

    HEX = set("0123456789abcdef")

    def _run_script_json(self, sexpr_files, capsys):
        old, new = sexpr_files
        assert main(["script", old, new, "--json",
                     "--trace-fraction", "1.0"]) == 0
        return json.loads(capsys.readouterr().out)

    def test_script_json_gains_trace_id_when_sampled(self, sexpr_files, capsys):
        payload = self._run_script_json(sexpr_files, capsys)
        assert set(payload) == {"script", "trace_id"}
        tid = payload["trace_id"]
        assert len(tid) == 16 and set(tid) <= self.HEX
        assert payload["script"][0]["op"] == "move"

    def test_script_json_shape_unchanged_when_off(self, sexpr_files, capsys):
        old, new = sexpr_files
        assert main(["script", old, new, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, list)  # pre-tracing wire shape

    def test_script_runs_identical_modulo_trace_id(self, sexpr_files, capsys):
        first = self._run_script_json(sexpr_files, capsys)
        second = self._run_script_json(sexpr_files, capsys)
        assert first["trace_id"] != second["trace_id"]  # fresh id per run
        first.pop("trace_id"), second.pop("trace_id")
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )

    def test_script_text_mode_reports_trace_on_stderr(self, sexpr_files, capsys):
        old, new = sexpr_files
        assert main(["script", old, new, "--trace-fraction", "1.0"]) == 0
        captured = capsys.readouterr()
        assert "# trace = " in captured.err
        assert "MOV(" in captured.out

    def test_batch_jobs_share_one_trace(self, tmp_path, capsys):
        (tmp_path / "a.sexpr").write_text('(D (S "one"))', encoding="utf-8")
        (tmp_path / "b.sexpr").write_text('(D (S "two"))', encoding="utf-8")
        manifest = tmp_path / "pairs.manifest"
        manifest.write_text("a.sexpr b.sexpr\nb.sexpr a.sexpr\n", encoding="utf-8")
        assert main(["batch", str(manifest), "--json",
                     "--trace-fraction", "1.0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        ids = {job["trace_id"] for job in payload["jobs"]}
        assert len(ids) == 1  # every job under the one cli.batch root
        (tid,) = ids
        assert len(tid) == 16 and set(tid) <= self.HEX

    def test_batch_trace_id_null_when_off(self, tmp_path, capsys):
        (tmp_path / "a.sexpr").write_text('(D (S "one"))', encoding="utf-8")
        manifest = tmp_path / "pairs.manifest"
        manifest.write_text("a.sexpr a.sexpr\n", encoding="utf-8")
        assert main(["batch", str(manifest), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["jobs"][0]["trace_id"] is None

    def test_export_then_render_round_trip(self, sexpr_files, tmp_path, capsys):
        old, new = sexpr_files
        export = str(tmp_path / "spans.jsonl")
        assert main(["script", old, new, "--json", "--trace-fraction", "1.0",
                     "--trace-export", export]) == 0
        tid = json.loads(capsys.readouterr().out)["trace_id"]

        assert main(["trace", tid, "--file", export]) == 0
        captured = capsys.readouterr()
        assert f"trace {tid}" in captured.out
        assert "cli.script" in captured.out
        assert "`- editscript " in captured.out  # stage spans nest under cli.script
        assert "span(s)" in captured.err

    def test_trace_file_json_lists_spans(self, sexpr_files, tmp_path, capsys):
        old, new = sexpr_files
        export = str(tmp_path / "spans.jsonl")
        assert main(["script", old, new, "--trace-fraction", "1.0",
                     "--trace-export", export]) == 0
        capsys.readouterr()
        assert main(["trace", "--file", export, "--json"]) == 0
        spans = json.loads(capsys.readouterr().out)
        names = {span["name"] for span in spans}
        assert "cli.script" in names
        roots = [s for s in spans if s["parent"] is None]
        assert len(roots) == 1

    def test_trace_requires_exactly_one_source(self, tmp_path, capsys):
        assert main(["trace", "ab" * 8]) == 2
        assert "error" in capsys.readouterr().err
        assert main(["trace", "ab" * 8, "--file", str(tmp_path / "x.jsonl"),
                     "--url", "127.0.0.1:1"]) == 2
        assert "error" in capsys.readouterr().err

    def test_trace_unknown_id_exits_1(self, sexpr_files, tmp_path, capsys):
        old, new = sexpr_files
        export = str(tmp_path / "spans.jsonl")
        assert main(["script", old, new, "--trace-fraction", "1.0",
                     "--trace-export", export]) == 0
        capsys.readouterr()
        assert main(["trace", "ff" * 8, "--file", export]) == 1
        assert "no spans found" in capsys.readouterr().err

    def test_trace_url_fetches_from_live_server(self, capsys):
        from repro.serve import DiffServer, DiffServiceClient, ServeConfig, ServerThread

        config = ServeConfig(port=0, workers=1, queue_capacity=4,
                             trace_fraction=1.0)
        with ServerThread(DiffServer(config)) as handle:
            with DiffServiceClient(port=handle.port, retries=0,
                                   timeout=10.0) as client:
                out = client.diff('(D (S "from"))', '(D (S "to"))')
            tid = out["trace_id"]
            assert main(["trace", tid,
                         "--url", f"127.0.0.1:{handle.port}"]) == 0
        captured = capsys.readouterr()
        assert f"trace {tid}" in captured.out
        assert "worker" in captured.out and "engine" in captured.out

    def test_trace_url_unreachable_port_exits_1(self, capsys):
        import socket

        with socket.socket() as probe:  # a port nothing listens on
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        assert main(["trace", "ab" * 8, "--url", f"127.0.0.1:{port}"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_trace_url_unknown_id_exits_1(self, capsys):
        from repro.serve import DiffServer, ServeConfig, ServerThread

        with ServerThread(DiffServer(ServeConfig(port=0, workers=1))) as handle:
            assert main(["trace", "ab" * 8, "--url", f"127.0.0.1:{handle.port}"]) == 1
        err = capsys.readouterr().err
        assert "error: HTTP 404" in err
