"""MetricsRegistry: sources and session wiring."""

import json

import numpy as np
import pytest

from repro.core import OptimizerConfig, RiotSession
from repro.obs import MetricsRegistry
from repro.storage import IOSTATS_SCHEMA_KEYS, POOL_SCHEMA_KEYS, \
    StorageConfig


class TestRegistry:
    def test_sources_evaluated_at_snapshot_time(self):
        reg = MetricsRegistry()
        state = {"n": 1}
        reg.register_source("live", lambda: dict(state))
        assert reg.snapshot()["live"] == {"n": 1}
        state["n"] = 2
        assert reg.snapshot()["live"] == {"n": 2}

    def test_name_collisions_rejected(self):
        reg = MetricsRegistry()
        reg.register_source("src", dict)
        with pytest.raises(ValueError):
            reg.register_source("src", dict)

    def test_to_json_round_trips(self, tmp_path):
        reg = MetricsRegistry()
        reg.register_source("hits", lambda: {"n": 7})
        reg.register_source("io", lambda: {"reads": 3})
        path = tmp_path / "metrics.json"
        text = reg.to_json(path)
        assert json.loads(text) == json.loads(path.read_text())
        assert json.loads(text) == {
            "hits": {"n": 7}, "io": {"reads": 3}}


class TestSessionMetrics:
    def test_session_exports_all_stat_sources(self):
        s = RiotSession(storage=StorageConfig(memory_bytes=1 << 20))
        x = s.vector(np.arange(32 * 1024, dtype=np.float64))
        s.values(x + 1.0)
        s.store.flush()  # push dirty frames so device totals are real
        snap = s.metrics.snapshot()
        assert set(snap) >= {"io", "pool", "scheduler", "tracer"}
        assert set(snap["io"]) == set(IOSTATS_SCHEMA_KEYS)
        assert set(snap["pool"]) == set(POOL_SCHEMA_KEYS)
        assert snap["io"]["total"] > 0
        assert snap["scheduler"]["readahead_triggers"] >= 0

    def test_tracer_health_reflects_recording(self):
        s = RiotSession(storage=StorageConfig(memory_bytes=1 << 20),
                        config=OptimizerConfig(level=2))
        health = s.metrics.snapshot()["tracer"]
        assert health == {"enabled": False, "spans": 0,
                          "spans_opened": 0, "spans_dropped": 0}
        x = s.matrix(np.random.default_rng(0)
                     .standard_normal((64, 48)), name="X")
        s.explain((x @ x.T).node, analyze=True)
        health = s.metrics.snapshot()["tracer"]
        assert health["enabled"] is False  # restored after analyze
        assert health["spans"] > 0
        assert health["spans_opened"] == health["spans"]
        assert health["spans_dropped"] == 0

    def test_metrics_track_stats_across_reset(self):
        """Sources are lambdas over the *current* stats objects, so a
        reset_stats() shows up instead of reading a stale snapshot."""
        s = RiotSession(storage=StorageConfig(memory_bytes=1 << 20))
        x = s.vector(np.arange(16 * 1024, dtype=np.float64))
        s.values(x * 2.0)
        s.store.flush()
        assert s.metrics.snapshot()["io"]["total"] > 0
        s.reset_stats()
        assert s.metrics.snapshot()["io"]["total"] == 0
