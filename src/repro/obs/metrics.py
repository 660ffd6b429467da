"""Named stat-source snapshots.

The tracer answers "where did the time and blocks go *within* a run";
the :class:`MetricsRegistry` answers "what are the totals *right now*"
— a named view over the session's live counters (`IOStats`,
``PoolStats``, ``SchedulerStats``, tracer health) exported as one
dict/JSON blob.  Like the tracer it is duck-typed and stdlib-only:
sources are any zero-arg callables returning a JSON-ready mapping, so
this module never imports :mod:`repro.storage`.
"""

from __future__ import annotations

import json
import threading


class MetricsRegistry:
    """Registry of live stat sources.

    ``register_source(name, fn)`` attaches a snapshot callable whose
    mapping appears under ``name`` in :meth:`snapshot`.  Name
    collisions are an error — a metric that silently shadows another
    is worse than none.
    """

    def __init__(self) -> None:
        self._sources: dict[str, object] = {}
        self._lock = threading.Lock()

    def register_source(self, name: str, fn) -> None:
        """Attach a zero-arg callable returning a JSON-ready mapping."""
        with self._lock:
            if name in self._sources:
                raise ValueError(
                    f"metric name {name!r} already registered")
            self._sources[name] = fn

    def snapshot(self) -> dict:
        """One dict with every registered source, evaluated now."""
        return {name: fn() for name, fn in self._sources.items()}

    def to_json(self, path=None) -> str:
        """Serialize :meth:`snapshot`; also write to ``path`` if given."""
        text = json.dumps(self.snapshot(), indent=2, sort_keys=True)
        if path is not None:
            with open(path, "w") as f:
                f.write(text)
        return text

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MetricsRegistry({len(self._sources)} sources)"
