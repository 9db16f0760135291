"""Unit tests of the observability primitives: spans, tracer, exporters,
schema validation and summarization."""

import io
import json

import pytest

from repro.obs import (
    NULL_TRACER,
    PROCESS_TRACE_ID,
    SCHEMA_VERSION,
    NullTracer,
    Tracer,
    build_trace_trees,
    chrome_trace_events,
    coerce_tracer,
    critical_path,
    join_stats_attributes,
    phase_breakdown,
    query_roots,
    read_jsonl,
    span_to_dict,
    summarize_trace,
    validate_jsonl,
    validate_span_dict,
    write_chrome_trace,
    write_jsonl,
    write_trace,
)


def _sample_tracer() -> Tracer:
    """Two query traces plus one process event, built by hand."""
    tracer = Tracer()
    for start in (0.0, 500.0):
        root = tracer.begin("query", start, {"query": "q"})
        root.child("admission", start).end(start + 10)
        execute = root.child("execute", start + 10)
        execute.event("result_cache_hit", start + 10, signature="s")
        execute.end(start + 100)
        root.end(start + 100)
        tracer.finish(root)
    tracer.emit("catalog_mutation", 600.0, {"relation": "E"})
    return tracer


class TestSpan:
    def test_child_and_walk_preorder(self):
        root = Tracer().begin("query", 0.0)
        a = root.child("a", 0.0)
        a.child("a1", 0.0)
        root.child("b", 0.0)
        assert [s.name for s in root.walk()] == ["query", "a", "a1", "b"]

    def test_find_returns_first_preorder_match(self):
        root = Tracer().begin("query", 0.0)
        first = root.child("execute", 1.0)
        root.child("execute", 2.0)
        assert root.find("execute") is first
        assert root.find("absent") is None

    def test_end_before_start_rejected(self):
        span = Tracer().begin("query", 100.0)
        with pytest.raises(ValueError):
            span.end(50.0)

    def test_duration_defaults_to_instant(self):
        span = Tracer().begin("route", 42.0)
        assert span.duration_ns == 0.0


class TestTracer:
    def test_finish_assigns_preorder_ids_and_parentage(self):
        tracer = Tracer()
        root = tracer.begin("query", 0.0)
        a = root.child("a", 0.0)
        a1 = a.child("a1", 0.0)
        b = root.child("b", 0.0)
        tracer.finish(root)
        assert (root.span_id, a.span_id, a1.span_id, b.span_id) == (1, 2, 3, 4)
        assert root.parent_id is None
        assert (a.parent_id, a1.parent_id, b.parent_id) == (1, 2, 1)
        assert all(s.trace_id == 0 for s in root.walk())

    def test_trace_ids_sequential_per_finish(self):
        tracer = _sample_tracer()
        assert [root.trace_id for root in tracer.spans] == [0, 1, PROCESS_TRACE_ID]

    def test_emit_lands_on_process_lane(self):
        tracer = Tracer()
        span = tracer.emit("catalog_mutation", 5.0, {"relation": "E"})
        assert span.trace_id == PROCESS_TRACE_ID
        assert span.span_id == 1
        assert len(tracer) == 1

    def test_clear_resets_ids(self):
        tracer = _sample_tracer()
        tracer.clear()
        assert len(tracer) == 0
        root = tracer.finish(tracer.begin("query", 0.0))
        assert (root.trace_id, root.span_id) == (0, 1)

    def test_null_tracer_records_nothing(self):
        tracer = NullTracer()
        assert not tracer.enabled
        tracer.finish(tracer.begin("query", 0.0))
        tracer.emit("catalog_mutation", 0.0)
        assert len(tracer) == 0

    def test_coerce_tracer(self):
        tracer = Tracer()
        assert coerce_tracer(tracer) is tracer
        assert coerce_tracer(None) is NULL_TRACER
        assert coerce_tracer(False) is NULL_TRACER
        fresh = coerce_tracer(True)
        assert isinstance(fresh, Tracer) and fresh.enabled
        with pytest.raises(TypeError):
            coerce_tracer("yes")


class TestJsonlExport:
    def test_roundtrip_and_schema(self, tmp_path):
        tracer = _sample_tracer()
        path = str(tmp_path / "trace.jsonl")
        count = write_jsonl(tracer, path)
        spans = read_jsonl(path)
        assert count == len(spans) == len(tracer.all_spans())
        assert all(span["schema"] == SCHEMA_VERSION for span in spans)
        assert validate_jsonl(path) == []

    def test_wall_field_omitted_when_unmeasured(self):
        tracer = Tracer()
        root = tracer.begin("query", 0.0)
        child = root.child("execute", 0.0).end(10.0)
        child.wall_elapsed_s = 0.004
        tracer.finish(root)
        root_dict, child_dict = (span_to_dict(s) for s in root.walk())
        assert "wall_elapsed_s" not in root_dict
        assert child_dict["wall_elapsed_s"] == 0.004

    def test_byte_determinism_of_serialisation(self, tmp_path):
        paths = []
        for name in ("a.jsonl", "b.jsonl"):
            path = tmp_path / name
            write_jsonl(_sample_tracer(), str(path))
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_validate_flags_bad_lines(self, tmp_path):
        good = span_to_dict(next(iter(_sample_tracer().all_spans())))
        bad_cases = [
            {**good, "schema": 99},
            {**good, "span_id": 0},
            {**good, "start_ns": 10.0, "end_ns": 5.0},
            {**good, "surprise": 1},
            {key: value for key, value in good.items() if key != "name"},
            {**good, "wall_elapsed_s": "fast"},
            {**good, "events": [{"name": 3, "t_ns": "now"}]},
        ]
        for case in bad_cases:
            assert validate_span_dict(case), f"expected errors for {case}"
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(good) + "\nnot json\n")
        errors = validate_jsonl(str(path))
        assert errors and errors[0].startswith("line 2:")

    @pytest.mark.parametrize(
        "change, error",
        [
            ({"schema": 99}, f"schema 99 != supported {SCHEMA_VERSION}"),
            ({"trace_id": "t"}, "trace_id must be an integer"),
            ({"span_id": "s"}, "span_id must be an integer"),
            ({"span_id": 0}, "span_id must be >= 1"),
            ({"parent_id": "p"}, "parent_id must be an integer or null"),
            ({"name": ""}, "name must be a non-empty string"),
            ({"start_ns": "early"}, "start_ns must be a number"),
            ({"end_ns": None}, "end_ns must be a number"),
            ({"start_ns": 10.0, "end_ns": 5.0}, "end_ns must be >= start_ns"),
            ({"attributes": []}, "attributes must be an object"),
            ({"events": {}}, "events must be an array"),
            ({"events": [3]}, "events[0] must be an object"),
            ({"events": [{"name": 3, "t_ns": 0}]}, "events[0].name must be a string"),
            ({"events": [{"name": "e", "t_ns": "now"}]}, "events[0].t_ns must be a number"),
            (
                {"events": [{"name": "e", "t_ns": 0, "attributes": []}]},
                "events[0].attributes must be an object",
            ),
            ({"wall_elapsed_s": "fast"}, "wall_elapsed_s must be a number when present"),
            ({"surprise": 1}, "unknown field 'surprise'"),
        ],
    )
    def test_each_check_names_its_problem(self, change, error):
        good = span_to_dict(next(iter(_sample_tracer().all_spans())))
        assert validate_span_dict(good) == []
        assert validate_span_dict({**good, **change}) == [error]

    def test_a_line_that_is_not_an_object_or_lacks_a_field_is_rejected(self):
        good = span_to_dict(next(iter(_sample_tracer().all_spans())))
        assert validate_span_dict([good]) == ["span line must be a JSON object, got list"]
        del good["name"]
        assert validate_span_dict(good) == ["missing required field 'name'"]

    def test_bool_does_not_pass_as_number(self):
        good = span_to_dict(next(iter(_sample_tracer().all_spans())))
        assert validate_span_dict({**good, "start_ns": True})
        assert validate_span_dict({**good, "trace_id": True})


class TestChromeExport:
    def test_event_structure(self, tmp_path):
        tracer = _sample_tracer()
        events = chrome_trace_events(tracer)
        phases = {event["ph"] for event in events}
        assert phases == {"M", "X", "i"}
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == len(tracer.all_spans())
        # Virtual ns map onto the microsecond ts axis.
        root = complete[0]
        assert root["ts"] == 0.0 and root["dur"] == pytest.approx(0.1)
        lanes = {e["tid"] for e in events}
        assert {0, 1, PROCESS_TRACE_ID} <= lanes

        path = str(tmp_path / "trace.json")
        count = write_chrome_trace(tracer, path)
        document = json.loads(open(path).read())
        assert len(document["traceEvents"]) == count
        assert document["otherData"]["schema"] == SCHEMA_VERSION


class TestExportPaths:
    """The stream and wall-time branches of the exporters and readers."""

    def test_chrome_export_to_a_stream_carries_measured_wall_time(self):
        tracer = Tracer()
        root = tracer.begin("query", 0.0)
        root.end(10.0)
        root.wall_elapsed_s = 0.25
        tracer.finish(root)
        buffer = io.StringIO()
        count = write_chrome_trace(tracer, buffer)
        assert buffer.getvalue().endswith("}\n")
        events = json.loads(buffer.getvalue())["traceEvents"]
        assert len(events) == count
        (span,) = [event for event in events if event["ph"] == "X"]
        assert span["args"] == {"wall_elapsed_s": 0.25}

    def test_an_unknown_trace_format_is_refused(self, tmp_path):
        path = tmp_path / "trace.xml"
        with pytest.raises(ValueError, match="unknown trace format 'xml'"):
            write_trace(_sample_tracer(), str(path), "xml")
        assert not path.exists()

    def test_validation_skips_blank_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_jsonl(_sample_tracer(), str(path))
        path.write_text(path.read_text().replace("\n", "\n\n", 1))
        assert validate_jsonl(str(path)) == []

    def test_join_stats_project_to_no_attributes_without_stats(self):
        assert join_stats_attributes(None) == {}


class TestSummarize:
    def test_a_trace_without_queries_summarizes_its_header(self, tmp_path):
        tracer = Tracer()
        tracer.emit("catalog_mutation", 0.0, {"relation": "E"})
        path = str(tmp_path / "events.jsonl")
        write_jsonl(tracer, path)
        assert summarize_trace(path).splitlines() == [
            f"trace: {path}",
            "  spans      : 1",
            "  queries    : 0",
            "  events     : 1 process-level",
        ]

    def test_measured_roots_are_counted_as_wall_fields(self, tmp_path):
        tracer = _sample_tracer()
        first = tracer.all_spans()[0]
        assert first.name == "query"
        first.wall_elapsed_s = 0.5
        path = str(tmp_path / "trace.jsonl")
        write_jsonl(tracer, path)
        assert "  wall fields: 1 spans carry host timings" in summarize_trace(path)

    def test_tree_rebuild_and_breakdown(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        write_jsonl(_sample_tracer(), path)
        roots = build_trace_trees(read_jsonl(path))
        assert len(roots) == 3  # two queries + process event
        queries = query_roots(roots)
        assert len(queries) == 2
        breakdown = phase_breakdown(queries)
        assert breakdown["query"]["count"] == 2
        assert breakdown["execute"]["mean"] == pytest.approx(90.0)

    def test_critical_path_picks_dominant_child(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        write_jsonl(_sample_tracer(), path)
        roots = query_roots(build_trace_trees(read_jsonl(path)))
        names = [node.name for node in critical_path(roots[0])]
        assert names == ["query", "execute"]
