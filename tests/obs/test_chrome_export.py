"""Chrome trace-event export: schema stability and round-trips."""

import json

import numpy as np

from repro.obs import Tracer
from repro.storage import ArrayStore, StorageConfig

#: The pinned event shape.  Perfetto and ``chrome://tracing`` consume
#: exactly these keys; changing them breaks every downstream consumer
#: of the CI trace artifact, so additions must extend, never rename.
EVENT_KEYS = {"name", "cat", "ph", "ts", "dur", "pid", "tid", "args"}
TOP_KEYS = {"traceEvents", "displayTimeUnit", "otherData"}


def _traced_workload(tmp_path):
    store = ArrayStore(StorageConfig(memory_bytes=16 * 8192))
    vec = store.vector_from_numpy(
        np.arange(32 * 1024, dtype=np.float64))
    store.pool.clear()
    with store.tracer.recording():
        with store.tracer.span("scan", cat="session"):
            with store.tracer.span("chunk", cat="kernel", ci=0):
                vec.to_numpy()
    path = tmp_path / "trace.json"
    n = store.tracer.export_chrome(path)
    return store.tracer, path, n


class TestChromeExport:
    def test_round_trip_schema_stable(self, tmp_path):
        tracer, path, n = _traced_workload(tmp_path)
        doc = json.loads(path.read_text())
        assert set(doc) == TOP_KEYS
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["producer"] == "repro.obs.Tracer"
        assert doc["otherData"]["spans_dropped"] == 0
        events = doc["traceEvents"]
        assert len(events) == n == len(tracer)
        for ev in events:
            assert set(ev) == EVENT_KEYS
            assert ev["ph"] == "X"
            assert ev["ts"] >= 0 and ev["dur"] >= 0
            assert ev["pid"] == 1 and ev["tid"] == 1

    def test_events_match_spans(self, tmp_path):
        tracer, path, _ = _traced_workload(tmp_path)
        events = json.loads(path.read_text())["traceEvents"]
        spans = tracer.spans()
        assert [e["name"] for e in events] == [s.name for s in spans]
        assert [e["cat"] for e in events] == [s.cat for s in spans]
        for ev, span in zip(events, spans):
            assert abs(ev["dur"] - span.wall_ns / 1e3) < 1e-6
            assert ev["args"]["io"] == span.io.as_dict()
            assert ev["args"]["pool"] == span.pool.as_dict()
        # Caller annotations ride along next to the deltas.
        chunk = events[0]
        assert chunk["name"] == "chunk" and chunk["args"]["ci"] == 0

    def test_timestamps_are_origin_relative(self, tmp_path):
        _, path, _ = _traced_workload(tmp_path)
        events = json.loads(path.read_text())["traceEvents"]
        assert min(e["ts"] for e in events) == 0.0
        # The child closes first but starts after its parent opened.
        by_name = {e["name"]: e for e in events}
        assert by_name["chunk"]["ts"] >= by_name["scan"]["ts"]
        assert by_name["chunk"]["dur"] <= by_name["scan"]["dur"]

    def test_empty_tracer_exports_valid_document(self, tmp_path):
        t = Tracer()
        path = tmp_path / "empty.json"
        assert t.export_chrome(path) == 0
        doc = json.loads(path.read_text())
        assert doc["traceEvents"] == []

    def test_dropped_spans_surface_in_other_data(self, tmp_path):
        t = Tracer(capacity=2, enabled=True)
        for i in range(5):
            with t.span(f"s{i}"):
                pass
        path = tmp_path / "dropped.json"
        t.export_chrome(path)
        doc = json.loads(path.read_text())
        assert doc["otherData"]["spans_dropped"] == 3
        assert [e["name"] for e in doc["traceEvents"]] == ["s3", "s4"]
