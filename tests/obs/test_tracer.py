"""Tracer contract: nesting, LIFO under exceptions, ring, overhead."""

import numpy as np
import pytest

from repro.obs import NULL_TRACER, Tracer
from repro.obs.tracer import _NULL_SPAN
from repro.storage import ArrayStore, StorageConfig


class CountingStats:
    """Duck-typed stats source that counts snapshot()/delta() calls."""

    def __init__(self):
        self.snapshots = 0
        self.deltas = 0

    def snapshot(self):
        self.snapshots += 1
        return self

    def delta(self, earlier):
        self.deltas += 1
        return self

    def as_dict(self):
        return {}


class CountingDevice:
    def __init__(self):
        self.stats = CountingStats()


class TestNesting:
    def test_parent_and_depth(self):
        t = Tracer(enabled=True)
        with t.span("outer"):
            with t.span("inner", cat="kernel"):
                pass
            with t.span("inner2"):
                pass
        spans = t.spans()
        assert [s.name for s in spans] == ["inner", "inner2", "outer"]
        inner, inner2, outer = spans
        assert outer.depth == 0 and outer.parent == -1
        assert inner.depth == 1 and inner.parent == outer.seq
        assert inner2.depth == 1 and inner2.parent == outer.seq
        assert inner.cat == "kernel" and outer.cat == "op"

    def test_children_close_before_parents(self):
        t = Tracer(enabled=True)
        with t.span("a"):
            with t.span("b"):
                with t.span("c"):
                    pass
        ends = {s.name: s.end_ns for s in t.spans()}
        assert ends["c"] <= ends["b"] <= ends["a"]
        assert t.open_depth == 0

    def test_lifo_close_under_exception(self):
        """``with`` unwinding closes every open span, innermost first,
        even when the traced region raises."""
        t = Tracer(enabled=True)
        with pytest.raises(RuntimeError, match="boom"):
            with t.span("outer"):
                with t.span("inner"):
                    raise RuntimeError("boom")
        assert t.open_depth == 0
        spans = t.spans()
        assert [s.name for s in spans] == ["inner", "outer"]
        assert spans[0].parent == spans[1].seq
        # A new span after the exception starts back at top level.
        with t.span("after"):
            pass
        assert t.spans()[-1].depth == 0

    def test_span_args_recorded(self):
        t = Tracer(enabled=True)
        with t.span("panel", cat="kernel", i0=64, j0=128):
            pass
        assert t.last_span().args == {"i0": 64, "j0": 128}


class TestRingBuffer:
    def test_capacity_bounds_memory_and_counts_drops(self):
        t = Tracer(capacity=4, enabled=True)
        for i in range(10):
            with t.span(f"s{i}"):
                pass
        assert len(t) == 4
        assert t.spans_opened == 10
        assert t.spans_dropped == 6
        # Oldest-first order is restored across the wrap point.
        assert [s.name for s in t.spans()] == ["s6", "s7", "s8", "s9"]
        assert t.last_span().name == "s9"

    def test_last_span_before_wrap(self):
        t = Tracer(capacity=8, enabled=True)
        for i in range(3):
            with t.span(f"s{i}"):
                pass
        assert t.last_span().name == "s2"

    def test_clear_keeps_counters(self):
        t = Tracer(capacity=2, enabled=True)
        for i in range(5):
            with t.span(f"s{i}"):
                pass
        t.clear()
        assert len(t) == 0 and t.last_span() is None
        assert t.spans_opened == 5 and t.spans_dropped == 3

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)


class TestDisabledOverhead:
    def test_disabled_span_is_shared_noop(self):
        t = Tracer()
        assert t.span("a") is _NULL_SPAN
        assert t.span("b", cat="kernel", x=1) is _NULL_SPAN

    def test_disabled_tracer_never_touches_the_stats_layer(self):
        """The off-by-default contract: a disabled span() performs no
        snapshots, no deltas, no recording — one attribute test."""
        dev, pool = CountingDevice(), CountingDevice()
        t = Tracer(device=dev, pool=pool)
        for i in range(1000):
            with t.span("hot", i=i):
                pass
        assert dev.stats.snapshots == 0 and dev.stats.deltas == 0
        assert pool.stats.snapshots == 0
        assert len(t) == 0 and t.spans_opened == 0

    def test_enabled_tracer_snapshots_once_per_span(self):
        dev = CountingDevice()
        t = Tracer(device=dev, enabled=True)
        for _ in range(10):
            with t.span("s"):
                pass
        assert dev.stats.snapshots == 10 and dev.stats.deltas == 10

    def test_tracing_does_not_perturb_device_work(self):
        """Block totals of a real workload are identical traced and
        untraced — spans observe I/O, they never cause it."""
        def run(record: bool):
            store = ArrayStore(StorageConfig(memory_bytes=16 * 8192))
            data = np.arange(32 * 1024, dtype=np.float64)
            vec = store.vector_from_numpy(data)
            store.pool.clear()
            store.reset_stats()
            if record:
                store.tracer.enable()
            with store.tracer.span("scan", cat="kernel"):
                out = vec.to_numpy()
            return store.device.stats.as_dict(), out

        traced, out_t = run(True)
        plain, out_p = run(False)
        # Timing fields legitimately differ run to run; every
        # deterministic counter (blocks, bytes, calls) must not.
        for d in (traced, plain):
            for key in ("read_ns", "write_ns", "seconds"):
                d.pop(key)
        assert traced == plain
        assert np.array_equal(out_t, out_p)

    def test_null_tracer_is_disabled(self):
        assert not NULL_TRACER.enabled
        with NULL_TRACER.span("x"):
            pass
        assert len(NULL_TRACER) == 0


class TestRecordingAndDeltas:
    def test_recording_restores_previous_state(self):
        t = Tracer()
        with t.recording():
            assert t.enabled
            with t.span("in"):
                pass
        assert not t.enabled
        assert [s.name for s in t.spans()] == ["in"]
        t.enable()
        with t.recording():
            pass
        assert t.enabled

    def test_span_captures_io_and_pool_deltas(self):
        """Against the real storage stack: a span around a cold scan
        sees exactly that scan's reads and pool misses."""
        store = ArrayStore(StorageConfig(memory_bytes=16 * 8192))
        data = np.arange(64 * 1024, dtype=np.float64)
        vec = store.vector_from_numpy(data)
        store.pool.clear()
        baseline = store.device.stats.snapshot()
        with store.tracer.recording():
            with store.tracer.span("scan"):
                vec.to_numpy()
        span = store.tracer.last_span()
        whole = store.device.stats.delta(baseline)
        assert span.io.as_dict() == whole.as_dict()
        assert span.io.reads > 0
        assert span.pool.hits + span.pool.misses > 0
        assert span.wall_ns > 0

    def test_sibling_spans_partition_the_io(self):
        store = ArrayStore(StorageConfig(memory_bytes=16 * 8192))
        data = np.arange(64 * 1024, dtype=np.float64)
        vec = store.vector_from_numpy(data)
        store.pool.clear()
        baseline = store.device.stats.snapshot()
        with store.tracer.recording():
            with store.tracer.span("whole"):
                with store.tracer.span("first"):
                    vec.to_numpy()
                with store.tracer.span("second"):
                    vec.to_numpy()
        first, second, whole = store.tracer.spans()
        assert (first.name, second.name, whole.name) == \
            ("first", "second", "whole")
        total = store.device.stats.delta(baseline)
        merged = first.io.merged(second.io)
        assert merged.as_dict() == whole.io.as_dict()
        assert whole.io.as_dict() == total.as_dict()


class TestThreadAwareness:
    def test_threads_get_distinct_compact_tids(self):
        import threading

        t = Tracer(enabled=True)
        with t.span("main-span"):
            pass
        # Keep all workers alive together: the OS reuses thread idents
        # of exited threads, and the compact-tid map keys on ident.
        ready = threading.Barrier(3)

        def worker(name):
            def run():
                ready.wait()
                with t.span(name):
                    pass
            return run

        threads = [threading.Thread(target=worker(f"w{i}"))
                   for i in range(3)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        spans = {s.name: s for s in t.spans()}
        tids = {name: spans[name].tid
                for name in ("main-span", "w0", "w1", "w2")}
        # One compact tid per thread, all distinct, main thread first.
        assert tids["main-span"] == 1
        assert len(set(tids.values())) == 4
        assert set(tids.values()) == {1, 2, 3, 4}

    def test_per_thread_stacks_do_not_interleave(self):
        import threading

        t = Tracer(enabled=True)
        ready = threading.Barrier(2)

        def worker(name):
            def run():
                with t.span(f"{name}-outer"):
                    ready.wait()
                    with t.span(f"{name}-inner"):
                        pass
            return run

        threads = [threading.Thread(target=worker(n))
                   for n in ("a", "b")]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        spans = {s.name: s for s in t.spans()}
        for name in ("a", "b"):
            inner, outer = spans[f"{name}-inner"], spans[f"{name}-outer"]
            assert inner.tid == outer.tid
            assert inner.parent == outer.seq
            assert inner.depth == outer.depth + 1

    def test_export_chrome_emits_real_tids(self, tmp_path):
        import json
        import threading

        t = Tracer(enabled=True)
        with t.span("main-span"):
            pass
        th = threading.Thread(target=lambda: t.span("bg").__enter__()
                              .__exit__(None, None, None))
        th.start()
        th.join()
        path = tmp_path / "trace.json"
        assert t.export_chrome(path) == 2
        events = json.loads(path.read_text())["traceEvents"]
        by_name = {e["name"]: e["tid"] for e in events}
        assert by_name["main-span"] != by_name["bg"]
