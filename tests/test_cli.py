"""Tests for the command-line interface."""

import pytest

import repro
from repro.cli import build_parser, main
from repro.graphs import community_graph, write_snap_edge_list


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "cycle3"])
        assert args.query == "cycle3"
        assert args.dataset == "bitcoin"
        assert args.engine == "triejax"
        assert not args.count_only

    def test_experiment_name_restricted(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "figure99"])

    def test_bench_is_not_a_command(self, capsys):
        # perf/ is the one wall-clock benchmark; the CLI has no runner of its own.
        with pytest.raises(SystemExit) as raised:
            build_parser().parse_args(["bench"])
        assert raised.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err


class TestCommands:
    def test_datasets_listing(self, capsys):
        assert main(["datasets"]) == 0
        output = capsys.readouterr().out
        assert "ca-GrQc" in output and "wiki-Vote" in output

    def test_queries_listing(self, capsys):
        assert main(["queries"]) == 0
        output = capsys.readouterr().out
        assert "clique4" in output and "diamond" in output

    def test_run_on_triejax(self, capsys):
        exit_code = main(
            ["run", "cycle3", "--dataset", "grqc", "--scale", "0.01", "--threads", "8",
             "--show-results", "3"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "matches:" in output
        assert "energy breakdown" in output

    def test_run_count_only(self, capsys):
        assert (
            main(["run", "cycle3", "--dataset", "grqc", "--scale", "0.01", "--count-only"])
            == 0
        )
        assert "matches:" in capsys.readouterr().out

    def test_run_on_software_engine(self, capsys):
        assert (
            main(["run", "path3", "--dataset", "grqc", "--scale", "0.01", "--engine", "ctj"])
            == 0
        )
        output = capsys.readouterr().out
        assert "intermediate results" in output

    def test_run_on_edge_list_file(self, tmp_path, capsys):
        graph = community_graph(30, 120, seed=3)
        path = str(tmp_path / "graph.txt")
        write_snap_edge_list(graph, path)
        assert main(["run", "cycle3", "--edge-list", path, "--engine", "lftj"]) == 0
        assert "matches:" in capsys.readouterr().out

    def test_run_unknown_dataset_errors(self):
        with pytest.raises(SystemExit):
            main(["run", "cycle3", "--dataset", "not-a-dataset"])

    def test_experiment_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        assert "path3" in capsys.readouterr().out

    def test_experiment_with_subset(self, capsys):
        exit_code = main(
            [
                "experiment",
                "figure18",
                "--scale",
                "0.005",
                "--datasets",
                "bitcoin",
                "--queries",
                "cycle4",
            ]
        )
        assert exit_code == 0
        assert "figure18" in capsys.readouterr().out

    def test_version_command(self, capsys):
        assert main(["version"]) == 0
        assert f"repro {repro.__version__}" in capsys.readouterr().out

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_workload_command(self, capsys):
        exit_code = main(
            [
                "workload",
                "--dataset",
                "grqc",
                "--scale",
                "0.005",
                "--num-queries",
                "40",
                "--backends",
                "lftj",
                "ctj",
                "--seed",
                "7",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "queries/sec" in output
        assert "result-cache hit rate" in output
        assert "lftj" in output and "ctj" in output

    def test_workload_on_edge_list(self, tmp_path, capsys):
        graph = community_graph(30, 120, seed=3)
        path = str(tmp_path / "graph.txt")
        write_snap_edge_list(graph, path)
        exit_code = main(
            ["workload", "--edge-list", path, "--num-queries", "20", "--mode", "closed"]
        )
        assert exit_code == 0
        assert "requests completed   : 20" in capsys.readouterr().out

    def test_workload_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["workload", "--backends", "warp-drive"])

    def test_workload_threaded_backend(self, capsys):
        exit_code = main(
            [
                "workload",
                "--dataset",
                "grqc",
                "--scale",
                "0.005",
                "--num-queries",
                "30",
                "--backend",
                "threads",
                "--workers",
                "2",
                "--seed",
                "7",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "requests completed   : 30" in output
        # The threaded backend measures host spans and reports them.
        assert "host drain time" in output
        assert "host execution" in output

    def test_workload_rejects_unknown_execution_backend(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["workload", "--backend", "fibers"])

    def test_compare_command(self, capsys):
        exit_code = main(
            ["compare", "cycle3", "--dataset", "bitcoin", "--scale", "0.005"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "triejax" in output and "q100" in output and "ctj" in output


class TestTraceCommands:
    def _workload_args(self, *extra):
        return [
            "workload", "--dataset", "grqc", "--scale", "0.005",
            "--num-queries", "20", "--seed", "7", *extra,
        ]

    def test_workload_trace_and_metrics(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        prom = tmp_path / "metrics.prom"
        exit_code = main(
            self._workload_args("--trace", str(trace), "--metrics", str(prom))
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "jsonl trace record(s)" in output
        assert "metrics exposition" in output
        from repro.obs import validate_jsonl

        assert validate_jsonl(str(trace)) == []
        exposition = prom.read_text()
        assert "# TYPE repro_requests_total counter" in exposition
        assert "repro_query_latency_virtual_ns_bucket" in exposition

    def test_run_trace_chrome_format(self, tmp_path, capsys):
        import json

        path = tmp_path / "trace.json"
        exit_code = main(
            ["run", "cycle3", "--dataset", "grqc", "--scale", "0.01",
             "--engine", "lftj", "--trace", str(path), "--trace-format", "chrome"]
        )
        assert exit_code == 0
        assert "chrome trace record(s)" in capsys.readouterr().out
        document = json.loads(path.read_text())
        phases = {event["ph"] for event in document["traceEvents"]}
        assert "X" in phases  # complete spans present

    def test_trace_validate_ok(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(self._workload_args("--trace", str(trace))) == 0
        capsys.readouterr()
        assert main(["trace", "validate", str(trace)]) == 0
        assert "OK:" in capsys.readouterr().out

    def test_trace_validate_rejects_corrupt_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"schema": 99}\nnot json at all\n')
        assert main(["trace", "validate", str(bad)]) == 1
        captured = capsys.readouterr()
        assert "line 1" in captured.err
        assert "FAIL" in captured.err

    def test_trace_summarize(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(self._workload_args("--trace", str(trace))) == 0
        capsys.readouterr()
        assert main(["trace", "summarize", str(trace), "--limit", "3"]) == 0
        output = capsys.readouterr().out
        assert "per-phase virtual-time breakdown" in output
        assert "critical path" in output

    def test_trace_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace"])

    def test_trace_format_restricted(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "cycle3", "--trace", "x", "--trace-format", "xml"]
            )


class TestStoreCommands:
    """The durable-store CLI surface: init, info, snapshot, recover, reuse."""

    def _init(self, tmp_path, *extra):
        store_dir = str(tmp_path / "store")
        assert (
            main(
                ["store", "init", store_dir, "--dataset", "bitcoin", "--scale", "0.01"]
                + list(extra)
            )
            == 0
        )
        return store_dir

    def test_store_init_and_info(self, tmp_path, capsys):
        store_dir = self._init(tmp_path)
        output = capsys.readouterr().out
        assert "initialised" in output and "segment(s)" in output
        assert main(["store", "info", store_dir]) == 0
        info = capsys.readouterr().out
        assert "kind" in info and "single" in info
        assert "snapshot_seq" in info

    def test_store_init_sharded(self, tmp_path, capsys):
        store_dir = self._init(tmp_path, "--shards", "2", "--partitioner", "range")
        capsys.readouterr()
        assert main(["store", "info", store_dir]) == 0
        info = capsys.readouterr().out
        assert "sharded" in info and "range" in info

    def test_store_init_refuses_existing(self, tmp_path, capsys):
        store_dir = self._init(tmp_path)
        capsys.readouterr()
        assert main(["store", "init", store_dir]) == 1
        assert "already" in capsys.readouterr().err

    def test_run_against_store_and_recover(self, tmp_path, capsys):
        store_dir = self._init(tmp_path)
        capsys.readouterr()
        assert (
            main(["run", "cycle3", "--engine", "lftj", "--storage-dir", store_dir]) == 0
        )
        output = capsys.readouterr().out
        assert "store: recovered" in output
        assert "matches:" in output
        assert main(["store", "recover", store_dir, "--verify"]) == 0
        recover_output = capsys.readouterr().out
        assert "verified" in recover_output and "compacted" in recover_output

    def test_workload_populates_fresh_store(self, tmp_path, capsys):
        store_dir = str(tmp_path / "fresh")
        assert (
            main(
                ["workload", "--dataset", "bitcoin", "--scale", "0.01",
                 "--num-queries", "6", "--update-fraction", "0.5",
                 "--seed", "3", "--storage-dir", store_dir]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "store: initialised" in output
        assert "store: snapshot" in output
        assert main(["store", "info", store_dir]) == 0
        assert "snapshot_rows" in capsys.readouterr().out

    def test_store_snapshot_folds_wal(self, tmp_path, capsys):
        store_dir = self._init(tmp_path)
        capsys.readouterr()
        assert main(["store", "snapshot", store_dir]) == 0
        assert "snapshot" in capsys.readouterr().out

    def test_existing_store_wins_over_dataset_flags(self, tmp_path, capsys):
        """Against an existing store the dataset/edge-list flags only matter
        for a *fresh* store — the recovered catalog is served as-is."""
        store_dir = self._init(tmp_path)
        capsys.readouterr()
        graph = community_graph(20, 40, seed=2020)
        edges = tmp_path / "edges.txt"
        write_snap_edge_list(graph, str(edges))
        assert (
            main(["run", "cycle3", "--edge-list", str(edges), "--storage-dir", store_dir])
            == 0
        )
        assert "store: recovered" in capsys.readouterr().out
