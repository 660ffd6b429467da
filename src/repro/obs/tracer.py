"""Zero-dependency tracing: nestable spans with exact I/O attribution.

RIOT's planner is only as good as the feedback loop validating its cost
models, and the kernels' schedules need to be debuggable.  This module
is the substrate: a :class:`Tracer` whose spans bracket any unit of
work — a physical-plan operator, an optimizer pass, one panel of an
out-of-core kernel — and close with the *delta* of the device's
:class:`~repro.storage.IOStats` and the buffer pool's ``PoolStats``
over the span, plus wall-clock nanoseconds.  Every block and every
nanosecond is therefore attributed to exactly one innermost span.

Design constraints, in order:

1. **Near-zero overhead when off.**  Tracing is disabled by default;
   a disabled ``span()`` call is one attribute test returning a shared
   no-op context manager — no counter snapshots, no clock reads, no
   allocation, and (tested) no device-layer work.  Kernels can
   therefore leave their span annotations in the hot loops.
2. **Bounded memory.**  Finished spans land in a ring buffer
   (``capacity`` spans, default 65536); profiling a huge run keeps the
   most recent window instead of growing without bound.  Drops are
   counted, never silent.
3. **Zero dependencies.**  Pure stdlib; the device/pool objects are
   duck-typed (anything with a ``stats`` exposing ``snapshot()`` /
   ``delta()`` works), so :mod:`repro.obs` never imports
   :mod:`repro.storage` and both remain import-cycle free.

Spans nest: the tracer keeps an open-span stack, so each finished span
records its depth and the index of its parent.  ``with`` semantics
guarantee LIFO closing even when the traced region raises.  The whole
buffer exports as Chrome trace-event JSON (:meth:`Tracer.export_chrome`)
loadable in Perfetto / ``chrome://tracing``.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager

#: Default ring-buffer capacity (finished spans retained).
DEFAULT_CAPACITY = 65536

#: Span categories used across the repo (free-form, these are the
#: conventional ones): ``op`` = physical-plan operator, ``optimizer`` =
#: pass/planner phase, ``kernel`` = panel/tile-batch inside an
#: out-of-core kernel, ``session`` = a whole execute()/force() call.
SPAN_CATEGORIES = ("op", "optimizer", "kernel", "session")


class Span:
    """One finished span: name, nesting, wall-clock and I/O deltas.

    ``io`` is an :class:`~repro.storage.IOStats` *delta* (or ``None``
    when the tracer has no device); ``pool`` likewise a ``PoolStats``
    delta.  ``parent`` is the buffer ``seq`` of the enclosing span on
    the *same thread*, or ``-1`` at top level.  ``args`` carries caller
    annotations (panel coordinates, op labels, ...).  ``tid`` is the
    tracer's compact thread index (1 = the first thread that opened a
    span; any other thread gets 2, 3, ...), so the Chrome exporter lays
    concurrent spans on separate tracks.
    """

    __slots__ = ("name", "cat", "seq", "parent", "depth", "start_ns",
                 "end_ns", "io", "pool", "args", "tid")

    def __init__(self, name: str, cat: str, seq: int, parent: int,
                 depth: int, start_ns: int, end_ns: int,
                 io=None, pool=None, args: dict | None = None,
                 tid: int = 1) -> None:
        self.name = name
        self.cat = cat
        self.seq = seq
        self.parent = parent
        self.depth = depth
        self.start_ns = start_ns
        self.end_ns = end_ns
        self.io = io
        self.pool = pool
        self.args = args or {}
        self.tid = tid

    @property
    def wall_ns(self) -> int:
        return self.end_ns - self.start_ns

    def as_dict(self) -> dict:
        """JSON-ready view (io/pool flattened through their as_dict)."""
        out = {"name": self.name, "cat": self.cat, "seq": self.seq,
               "parent": self.parent, "depth": self.depth,
               "start_ns": self.start_ns, "wall_ns": self.wall_ns,
               "tid": self.tid}
        if self.io is not None:
            out["io"] = self.io.as_dict()
        if self.pool is not None:
            out["pool"] = self.pool.as_dict()
        if self.args:
            out["args"] = dict(self.args)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<span {self.cat}:{self.name} depth={self.depth} "
                f"{self.wall_ns / 1e6:.3f}ms>")


class _NullSpan:
    """Shared no-op context manager returned by a disabled tracer.

    A singleton with empty ``__slots__``: entering/exiting it does no
    work at all, which is what keeps disabled-tracer span calls out of
    the profile of the kernels that carry them.
    """

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _ObserverSpan:
    """Span-boundary notifier used when tracing is off but observers
    are registered (e.g. the storage-protocol sanitizer).

    Nothing is recorded — no counter snapshots, no clock reads, no
    ring-buffer append — so ``len(tracer)`` and the drop counters are
    untouched; observers just learn that a span opened and closed.
    """

    __slots__ = ("tracer", "name", "cat")

    def __init__(self, tracer: "Tracer", name: str, cat: str) -> None:
        self.tracer = tracer
        self.name = name
        self.cat = cat

    def __enter__(self) -> None:
        for obs in self.tracer.observers:
            obs.span_opened(self.name, self.cat)
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        _notify_closed(self.tracer, self.name, self.cat, exc_type)
        return False


def _notify_closed(tracer: "Tracer", name: str, cat: str,
                   exc_type) -> None:
    """Tell observers a span closed.  An observer error (a sanitizer
    violation) propagates — unless an exception is already in flight,
    which must not be masked."""
    for obs in tracer.observers:
        try:
            obs.span_closed(name, cat, exc_type)
        except BaseException:
            if exc_type is None:
                raise


class _OpenSpan:
    """Context manager for one live span (created only when enabled)."""

    __slots__ = ("tracer", "name", "cat", "args", "seq", "parent",
                 "depth", "start_ns", "io_before", "pool_before", "tid")

    def __init__(self, tracer: "Tracer", name: str, cat: str,
                 args: dict) -> None:
        self.tracer = tracer
        self.name = name
        self.cat = cat
        self.args = args

    def __enter__(self) -> "_OpenSpan":
        t = self.tracer
        stack = t._stack  # this thread's stack (threading.local)
        self.parent = stack[-1].seq if stack else -1
        self.depth = len(stack)
        with t._lock:
            self.seq = t._next_seq
            t._next_seq += 1
            t.spans_opened += 1
            self.tid = t._tid_of(threading.get_ident())
        stack.append(self)
        self.io_before = (t.device.stats.snapshot()
                          if t.device is not None else None)
        self.pool_before = (t.pool.stats.snapshot()
                            if t.pool is not None else None)
        for obs in t.observers:
            obs.span_opened(self.name, self.cat)
        self.start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end_ns = time.perf_counter_ns()
        t = self.tracer
        # ``with`` unwinding is LIFO even under exceptions, so the top
        # of this thread's stack is this span; anything else means
        # spans were entered without ``with`` discipline — fail loudly.
        top = t._stack.pop()
        if top is not self:  # pragma: no cover - misuse guard
            raise RuntimeError(
                f"span {self.name!r} closed out of LIFO order "
                f"(top of stack was {top.name!r})")
        io = (t.device.stats.delta(self.io_before)
              if self.io_before is not None else None)
        pool = (t.pool.stats.delta(self.pool_before)
                if self.pool_before is not None else None)
        t._append(Span(self.name, self.cat, self.seq, self.parent,
                       self.depth, self.start_ns, end_ns, io, pool,
                       self.args, tid=self.tid))
        _notify_closed(t, self.name, self.cat, exc_type)
        return False


class Tracer:
    """Ring-buffered span recorder, disabled by default.

    ``device``/``pool`` are optional stat sources snapshotted at span
    boundaries (duck-typed: ``.stats.snapshot()``/``.stats.delta()``).
    One tracer belongs to one store/session, and it is thread-aware:
    each thread nests spans on its own stack (``threading.local``), the
    sequence counter and the ring buffer are lock-protected, and every
    span records a compact thread id for the Chrome exporter.  Note
    that a span's io/pool deltas are taken from the *shared* store
    counters — exclusive attribution therefore holds as long as one
    thread at a time does I/O, as the evaluator and its kernels (which
    run on the calling thread) do; concurrent spans that do I/O see
    overlapping deltas.
    """

    def __init__(self, device=None, pool=None,
                 capacity: int = DEFAULT_CAPACITY,
                 enabled: bool = False) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.device = device
        self.pool = pool
        self.capacity = capacity
        self.enabled = enabled
        #: Span-boundary observers (``span_opened(name, cat)`` /
        #: ``span_closed(name, cat, exc_type)``), notified even while
        #: tracing is disabled — the hook the storage sanitizer uses.
        self.observers: list = []
        self.spans_opened = 0
        self.spans_dropped = 0
        self._spans: list[Span] = []
        self._head = 0  # ring insertion point once the buffer is full
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._tids: dict[int, int] = {}  # thread ident -> compact tid
        self._next_seq = 0

    @property
    def _stack(self) -> list[_OpenSpan]:
        """The calling thread's open-span stack."""
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _tid_of(self, ident: int) -> int:
        """Compact 1-based thread index (caller holds ``_lock``)."""
        tid = self._tids.get(ident)
        if tid is None:
            tid = self._tids[ident] = len(self._tids) + 1
        return tid

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def span(self, name: str, cat: str = "op",
             **args) -> "_OpenSpan | _ObserverSpan | _NullSpan":
        """Context manager bracketing one unit of work.

        Disabled tracers return a shared no-op — the hot-path cost is
        this one ``enabled`` test (plus an observer-list test; with
        observers registered a lightweight notifier is returned
        instead, recording nothing).
        """
        if not self.enabled:
            if self.observers:
                return _ObserverSpan(self, name, cat)
            return _NULL_SPAN
        return _OpenSpan(self, name, cat, args)

    def add_observer(self, observer) -> None:
        """Register a span-boundary observer (see ``observers``)."""
        if observer not in self.observers:
            self.observers.append(observer)

    def _append(self, span: Span) -> None:
        with self._lock:
            if len(self._spans) < self.capacity:
                self._spans.append(span)
                return
            self._spans[self._head] = span
            self._head = (self._head + 1) % self.capacity
            self.spans_dropped += 1

    def enable(self) -> None:
        self.enabled = True

    @contextmanager
    def recording(self):
        """Enable tracing for a scope, restoring the previous state."""
        prev = self.enabled
        self.enabled = True
        try:
            yield self
        finally:
            self.enabled = prev

    def clear(self) -> None:
        """Drop recorded spans (open spans and counters survive)."""
        with self._lock:
            self._spans = []
            self._head = 0

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def spans(self) -> list[Span]:
        """Finished spans, oldest first (ring order restored)."""
        return self._spans[self._head:] + self._spans[:self._head]

    def last_span(self) -> Span | None:
        """Most recently finished span (for post-close annotation)."""
        if not self._spans:
            return None
        # _head is the next insertion point once the ring is full, so
        # _head - 1 is the newest entry; before wrap, _head is 0 and
        # the -1 index lands on the appended tail either way.
        return self._spans[self._head - 1]

    def __len__(self) -> int:
        return len(self._spans)

    @property
    def open_depth(self) -> int:
        """Open-span nesting depth on the *calling* thread."""
        return len(self._stack)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def export_chrome(self, path) -> int:
        """Write the buffer as Chrome trace-event JSON; returns #events.

        The output is the stable "JSON object format" consumed by
        Perfetto and ``chrome://tracing``: complete ``"ph": "X"``
        events with microsecond ``ts``/``dur``, one process with one
        track per recorded thread (the span's ``tid``), and the span's
        I/O + pool deltas under ``args`` so block counts are visible in
        the trace viewer's detail pane — spans of other threads show
        up as overlapping tracks in Perfetto.
        """
        spans = self.spans()
        origin = min((s.start_ns for s in spans), default=0)
        events = []
        for s in spans:
            args = {k: v for k, v in s.args.items()}
            if s.io is not None:
                args["io"] = s.io.as_dict()
            if s.pool is not None:
                args["pool"] = s.pool.as_dict()
            events.append({
                "name": s.name,
                "cat": s.cat,
                "ph": "X",
                "ts": (s.start_ns - origin) / 1e3,
                "dur": s.wall_ns / 1e3,
                "pid": 1,
                "tid": s.tid,
                "args": args,
            })
        doc = {"traceEvents": events, "displayTimeUnit": "ms",
               "otherData": {"producer": "repro.obs.Tracer",
                             "spans_dropped": self.spans_dropped}}
        with open(path, "w") as f:
            json.dump(doc, f)
        return len(events)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "on" if self.enabled else "off"
        return (f"Tracer({state}, {len(self._spans)}/{self.capacity} "
                f"spans, depth={self.open_depth})")


#: Shared always-disabled tracer for call sites that want the uniform
#: ``with tracer.span(...)`` shape without a per-object tracer.  Never
#: enable this one — enable the store/session tracer instead.
NULL_TRACER = Tracer()
