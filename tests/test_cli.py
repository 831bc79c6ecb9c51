"""Tests for the ``flowtree`` command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.core.serialization import from_bytes


@pytest.fixture(scope="module")
def trace_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "trace.csv"
    assert main(["generate", "--kind", "caida", "--packets", "8000", "--seed", "3",
                 str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def summary_file(tmp_path_factory, trace_csv):
    path = tmp_path_factory.mktemp("cli") / "summary.ft"
    assert main(["build", "--schema", "4f", "--max-nodes", "1000",
                 str(trace_csv), str(path)]) == 0
    return path


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        text = parser.format_help()
        for command in ("generate", "build", "info", "query", "top", "merge", "diff", "drilldown"):
            assert command in text

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_generate_creates_csv(self, trace_csv):
        header = trace_csv.read_text().splitlines()[0]
        assert header.startswith("start_time,")

    def test_generate_pcap(self, tmp_path):
        path = tmp_path / "trace.pcap"
        assert main(["generate", "--kind", "scan", "--packets", "2000",
                     "--format", "pcap", str(path)]) == 0
        assert path.stat().st_size > 1_000

    def test_build_produces_loadable_summary(self, summary_file):
        tree = from_bytes(summary_file.read_bytes())
        assert tree.schema.name == "4f"
        assert 1 < tree.node_count() <= 1_000
        assert tree.total_counters().packets == 8_000

    @pytest.mark.parametrize("max_nodes", [100, 500, 2_000])
    def test_build_budget_keeps_totals_and_budget(self, trace_csv, tmp_path, max_nodes):
        path = tmp_path / f"budget-{max_nodes}.ft"
        assert main(["build", "--max-nodes", str(max_nodes), str(trace_csv), str(path)]) == 0
        tree = from_bytes(path.read_bytes())
        tree.validate()
        assert tree.config.max_nodes == max_nodes
        assert len(tree) <= max_nodes
        assert tree.total_counters().packets == 8_000

    @pytest.mark.parametrize("batch_size", [0, 1, 4_096])
    def test_build_batch_size_keeps_totals(self, trace_csv, tmp_path, capsys, batch_size):
        path = tmp_path / f"batch-{batch_size}.ft"
        assert main(["build", "--max-nodes", "500", "--batch-size", str(batch_size),
                     str(trace_csv), str(path)]) == 0
        rows = len(trace_csv.read_text().splitlines()) - 1
        assert f"summarized {rows} records" in capsys.readouterr().out
        tree = from_bytes(path.read_bytes())
        tree.validate()
        assert len(tree) <= 500
        assert tree.total_counters().packets == 8_000

    def test_build_is_deterministic(self, trace_csv, tmp_path):
        paths = [tmp_path / "a.ft", tmp_path / "b.ft"]
        for path in paths:
            assert main(["build", "--max-nodes", "300", str(trace_csv), str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_build_has_no_workers_flag(self, trace_csv, tmp_path):
        with pytest.raises(SystemExit):
            main(["build", "--workers", "2", str(trace_csv), str(tmp_path / "x.ft")])

    def test_build_has_no_compaction_flag(self, trace_csv, tmp_path):
        with pytest.raises(SystemExit):
            main(["build", "--compaction", "rebuild",
                  str(trace_csv), str(tmp_path / "x.ft")])

    def test_info(self, summary_file, capsys):
        assert main(["info", str(summary_file)]) == 0
        output = capsys.readouterr().out
        assert "schema" in output and "4f" in output
        assert "packets" in output and "8000" in output

    def test_query_wildcards(self, summary_file, capsys):
        assert main(["query", str(summary_file), "*", "*", "*", "443"]) == 0
        output = capsys.readouterr().out
        assert "estimate" in output

    def test_top(self, summary_file, capsys):
        assert main(["top", str(summary_file), "-n", "5"]) == 0
        output = capsys.readouterr().out
        assert output.count("\n") >= 6  # header + separator + 5 rows

    def test_merge_and_diff(self, summary_file, tmp_path, capsys):
        merged = tmp_path / "merged.ft"
        assert main(["merge", str(summary_file), str(summary_file), "-o", str(merged)]) == 0
        tree = from_bytes(merged.read_bytes())
        assert tree.total_counters().packets == 16_000

        delta = tmp_path / "delta.ft"
        assert main(["diff", str(merged), str(summary_file), "-o", str(delta)]) == 0
        assert from_bytes(delta.read_bytes()).total_counters().packets == 8_000

    def test_drilldown(self, summary_file, capsys):
        assert main(["drilldown", str(summary_file), "*", "*", "*", "*", "--feature", "0"]) == 0
        output = capsys.readouterr().out
        assert "Investigation" in output

    def test_collect_supervised_reports_health(self, trace_csv, capsys):
        assert main(["collect", "--schema", "4f", "--site", "edge-1",
                     "--supervised", str(trace_csv)]) == 0
        output = capsys.readouterr().out
        assert "Supervisor health" in output
        assert "healthy" in output
        assert "restarts" in output

    def test_collect_file_store_then_store_info_reopens_it(self, trace_csv, tmp_path, capsys):
        store = tmp_path / "flows"
        assert main(["collect", "--schema", "4f", "--site", "edge-1", "--bin-width", "0.02",
                     "--max-nodes", "1000", "--store", "file", "--store-path", str(store),
                     str(trace_csv)]) == 0
        capsys.readouterr()
        assert main(["store-info", "--store-path", str(store)]) == 0
        output = capsys.readouterr().out
        assert "backend" in output and "file" in output
        assert "edge-1: bins 0.." in output
        assert "8000 packets" in output

    def test_store_info_on_a_missing_path_creates_nothing(self, tmp_path, capsys):
        missing = tmp_path / "nope"
        assert main(["store-info", "--store-path", str(missing)]) == 1
        assert "does not hold a collector store" in capsys.readouterr().err
        assert not missing.exists()

    def test_collect_has_no_sqlite_store(self, trace_csv, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["collect", "--store", "sqlite", "--store-path", str(tmp_path / "f.db"),
                  str(trace_csv)])
        assert excinfo.value.code == 2

    def test_store_info_has_no_store_flag(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["store-info", "--store", "file", "--store-path", str(tmp_path)])
        assert excinfo.value.code == 2

    def test_error_paths_return_nonzero(self, tmp_path, capsys):
        missing = tmp_path / "does-not-exist.ft"
        assert main(["info", str(missing)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_build_rejects_unknown_schema(self, trace_csv, tmp_path, capsys):
        out = tmp_path / "x.ft"
        assert main(["build", "--schema", "17f", str(trace_csv), str(out)]) == 1
        assert "error:" in capsys.readouterr().err
