"""Named counters/gauges with pluggable stat-source snapshots.

The tracer answers "where did the time and blocks go *within* a run";
the :class:`MetricsRegistry` answers "what are the totals *right now*"
— a flat, named view over the session's live counters (`IOStats`,
``PoolStats``, ``SchedulerStats``, tracer health, plus any ad-hoc
counters/gauges a subsystem registers) exported as one dict/JSON blob.
Like the tracer it is duck-typed and stdlib-only: sources are any
zero-arg callables returning a JSON-ready mapping, so this module never
imports :mod:`repro.storage`.
"""

from __future__ import annotations

import json
import threading


class Counter:
    """A monotonically increasing named value.

    Increments are atomic (lock-protected), so threads can share
    one counter without losing updates.
    """

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(
                f"counter {self.name!r} cannot decrease (inc {amount})")
        with self._lock:
            self.value += amount


class Gauge:
    """A named value that can move both ways."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class MetricsRegistry:
    """Registry of counters, gauges, and live stat sources.

    ``register_source(name, fn)`` attaches a snapshot callable whose
    mapping appears under ``name`` in :meth:`snapshot`; counters and
    gauges appear flat under their own names.  Name collisions are an
    error — a metric that silently shadows another is worse than none.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._sources: dict[str, object] = {}
        self._lock = threading.Lock()

    def _check_free(self, name: str) -> None:
        if name in self._counters or name in self._gauges \
                or name in self._sources:
            raise ValueError(f"metric name {name!r} already registered")

    def counter(self, name: str) -> Counter:
        """Get or create the counter called ``name``."""
        with self._lock:
            c = self._counters.get(name)
            if c is None:
                self._check_free(name)
                c = self._counters[name] = Counter(name)
            return c

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge called ``name``."""
        with self._lock:
            g = self._gauges.get(name)
            if g is None:
                self._check_free(name)
                g = self._gauges[name] = Gauge(name)
            return g

    def register_source(self, name: str, fn) -> None:
        """Attach a zero-arg callable returning a JSON-ready mapping."""
        with self._lock:
            self._check_free(name)
            self._sources[name] = fn

    def snapshot(self) -> dict:
        """One dict with every registered metric, evaluated now."""
        out: dict = {}
        for name, c in self._counters.items():
            out[name] = c.value
        for name, g in self._gauges.items():
            out[name] = g.value
        for name, fn in self._sources.items():
            out[name] = fn()
        return out

    def to_json(self, path=None) -> str:
        """Serialize :meth:`snapshot`; also write to ``path`` if given."""
        text = json.dumps(self.snapshot(), indent=2, sort_keys=True)
        if path is not None:
            with open(path, "w") as f:
                f.write(text)
        return text

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"MetricsRegistry({len(self._counters)} counters, "
                f"{len(self._gauges)} gauges, "
                f"{len(self._sources)} sources)")
