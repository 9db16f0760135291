"""Tests for the command-line interface."""

import glob
import json
import os
import re

import pytest

import repro
from repro.cli import build_parser, main
from repro.graphs import community_graph, write_snap_edge_list
from repro.storage import MutationLog


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

    @pytest.mark.parametrize(
        "command", [["run", "cycle3"], ["explain", "cycle3"], ["workload"], ["store", "init", "d"]]
    )
    def test_partitioner_is_not_an_option(self, command, capsys):
        # Every sharded catalog hashes on the first attribute: no layout flag.
        with pytest.raises(SystemExit) as raised:
            build_parser().parse_args(command + ["--help"])
        assert raised.value.code == 0
        assert "--partitioner" not in capsys.readouterr().out
        with pytest.raises(SystemExit):
            build_parser().parse_args(command + ["--shards", "2", "--partitioner", "hash"])

    def test_maintenance_is_not_an_option(self, capsys):
        # Every pipeline patches cached results by delta joins: no policy flag.
        with pytest.raises(SystemExit) as raised:
            build_parser().parse_args(["workload", "--help"])
        assert raised.value.code == 0
        assert "--maintenance" not in capsys.readouterr().out
        with pytest.raises(SystemExit):
            build_parser().parse_args(["workload", "--maintenance", "recompute"])


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

    def test_run_on_a_sharded_catalog_describes_the_fan_out(self, capsys):
        argv = ["run", "cycle3", "--dataset", "grqc", "--scale", "0.01", "--shards", "2"]
        assert main(argv) == 0
        output = capsys.readouterr().out
        assert "scatter-gather over 2 shard(s)" in output
        assert re.findall(r"^  shard (\d+): ", output, re.M) == ["0", "1"]

    def test_run_on_the_process_backend_serves_through_the_service(self, capsys):
        argv = ["run", "cycle3", "--dataset", "grqc", "--scale", "0.01"]
        assert main(argv + ["--backend", "process", "--workers", "2"]) == 0
        output = capsys.readouterr().out
        assert "via the process backend (2 worker(s), " in output
        assert main(argv) == 0  # the virtual backend finds the same matches
        matches = re.findall(r"^matches: (\d+)$", output + capsys.readouterr().out, re.M)
        assert len(matches) == 2 and matches[0] == matches[1]

    def test_show_results_prints_the_same_rows_on_either_backend(self, capsys):
        argv = ["run", "cycle3", "--dataset", "grqc", "--scale", "0.01", "--engine", "lftj",
                "--show-results", "1000"]
        printed = []
        for extra in ([], ["--backend", "process", "--workers", "2"]):
            assert main(argv + extra) == 0
            printed.append(sorted(
                line for line in capsys.readouterr().out.splitlines()
                if re.fullmatch(r"  \d+, \d+, \d+", line)
            ))
        assert printed[0] and printed[0] == printed[1]

    @pytest.mark.parametrize("query", ["clique4", "ends(x, z) = E(x, y), E(y, z)."])
    def test_explain_prints_the_route_and_plan(self, query, capsys):
        argv = ["explain", query, "--dataset", "grqc", "--scale", "0.005", "--shards", "2"]
        assert main(argv) == 0
        output = capsys.readouterr().out
        assert re.search(r"^chosen engine   : lftj ", output, re.M)
        assert "  variable order: " in output

    def test_run_on_the_auto_route_names_the_engine(self, capsys):
        argv = ["run", "cycle3", "--dataset", "grqc", "--scale", "0.005", "--engine", "auto"]
        assert main(argv) == 0
        assert "\nrouted to: lftj\n" in capsys.readouterr().out

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
        # Wall time to the millisecond: sub-second runs differ in that digit.
        assert re.search(r"^served 40 requests in \d+\.\d{3}s wall \(", output, re.M)
        assert "queries/sec" in output
        assert "result-cache hit rate" in output
        assert "lftj" in output and "ctj" in output

    def test_workload_draws_only_the_named_queries(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        argv = ["workload", "--dataset", "grqc", "--scale", "0.005", "--num-queries", "6",
                "--backends", "lftj", "--queries", "path3", "--seed", "3",
                "--trace", str(trace)]
        assert main(argv) == 0
        assert "requests completed   : 6" in capsys.readouterr().out
        names = {
            span["attributes"]["query"] for span in map(json.loads, trace.read_text().splitlines())
            if span["name"] == "query"
        }
        assert names and all(re.fullmatch(r"path3(_r\d+)?", name) for name in names)

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

    def test_workload_process_backend(self, capsys):
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
                "process",
                "--workers",
                "2",
                "--seed",
                "7",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "requests completed   : 30" in output
        # The process backend measures host spans and reports them.
        assert "host drain time" in output
        assert "host execution" in output

    @pytest.mark.parametrize(
        "spec", ["slow:0*nan", "slow:0*inf", "down:1@nan", "flaky:1@nan-nan"]
    )
    def test_workload_rejects_non_finite_fault_values(self, spec):
        # These used to crash the drain loop (IndexError) or arm a fault
        # that never fires; now the session refuses the spec up front.
        with pytest.raises(ValueError, match="bad fault clause"):
            main(
                [
                    "workload", "--dataset", "grqc", "--scale", "0.005",
                    "--num-queries", "4", "--shards", "2", "--faults", spec,
                ]
            )

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

    def test_trace_validate_lists_fifty_problems_and_counts_the_rest(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("[1]\n" * 53)
        assert main(["trace", "validate", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 52 and err[50] == "... and 3 more"
        assert err[-1] == f"FAIL: 53 schema problem(s) in {path}"

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
        store_dir = self._init(tmp_path, "--shards", "2")
        capsys.readouterr()
        assert main(["store", "info", store_dir]) == 0
        info = capsys.readouterr().out
        assert "sharded" in info
        assert "  partitioner     : hash" in info.splitlines()

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

    def test_a_store_command_on_a_missing_store_fails(self, tmp_path, capsys):
        assert main(["store", "info", str(tmp_path / "nowhere")]) == 1
        assert "no durable store at" in capsys.readouterr().err

    def test_recover_reports_a_logged_record_that_does_not_replay(self, tmp_path, capsys):
        store_dir = self._init(tmp_path)
        with MutationLog(os.path.join(store_dir, "mutations.wal")) as wal:
            wal.append("insert", "missing", rows=[[1, 2]])
        capsys.readouterr()
        assert main(["store", "recover", store_dir]) == 1
        err = capsys.readouterr().err
        assert err.startswith("recovery failed:") and "does not replay" in err

    def test_recover_verify_reports_a_damaged_segment(self, tmp_path, capsys):
        store_dir = self._init(tmp_path)
        (segment, *_) = sorted(glob.glob(os.path.join(store_dir, "**", "*.trie"), recursive=True))
        with open(segment, "r+b") as handle:
            handle.seek(-1, os.SEEK_END)  # the last payload byte, inverted
            last = handle.read(1)[0]
            handle.seek(-1, os.SEEK_END)
            handle.write(bytes([last ^ 0xFF]))
        capsys.readouterr()
        assert main(["store", "recover", store_dir, "--verify"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("segment verification failed:") and "payload checksum" in err

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
