"""Runtime storage-protocol sanitizers (ASAN for the buffer pool).

The storage protocol every kernel follows — announce the footprint it
is about to read, never touch a dropped array's blocks, and touch
frames only under ``pool.lock`` — is what makes the I/O accounting
exact.  The plain :class:`BufferPool` does not check it: an
unannounced read just costs an uncoalesced miss, and a dropped
array's block reads back whatever the device holds.

:class:`SanitizingBufferPool` is a drop-in :class:`BufferPool`
subclass that turns each hazard into a loud, typed error at the point
of violation.  Enable it with ``StorageConfig(sanitize=True)`` or
``REPRO_SANITIZE=1`` — every :class:`~repro.storage.ArrayStore` then
builds its pool sanitizing and registers a span observer on the
store's tracer, so span boundaries are visible even when tracing
itself is off.

Detected hazards:

- **Unannounced read** (:class:`UnannouncedReadError`): a demand miss
  inside a ``cat="kernel"`` span on a block the kernel neither
  announced via ``prefetch()`` nor wrote via ``put()``.  Only enforced
  for spans that made at least one announcement: the schedule runner
  announces no step whose footprint reaches into another store, so a
  kernel streaming foreign operands legitimately announces nothing.
- **Write-back leak** (:class:`WritebackLeakError`): a span closes
  while the pool still parks an evicted dirty frame that never reached
  the device — some pool entry point made room without draining.
- **Use after drop** (:class:`UseAfterDropError`): any access —
  ``get``, ``get_many``, ``put``, ``put_many``, ``prefetch`` — to a
  block whose array was dropped (``pool.discard``, then
  ``PageFile.drop`` frees it).  Device block ids are never reused, so
  such an access can only be a stale reference: the evaluator dropping
  an intermediate before its last reader, or a kernel reading an
  operand it factored in place after releasing it.
- **Double drop** (:class:`DoubleDropError`): a second ``drop`` of a
  ``TiledMatrix``, ``TiledVector`` or ``SparseTiledMatrix``.  Only the
  evaluator drops a value a plan computes, once, at its release point
  (kernels drop only what they created), so a second drop is a second
  owner.  Unsanitized it is a no-op that touches neither the pool nor
  the device.
- **Over-retention** (:class:`RetentionError`): a pool call ends with
  its frames keeping more than ``pool.retention_limit`` bytes alive.
  A frame is a row of the buffer a device read filled or a
  ``put_many`` batch, and keeps all of it alive; the bytes are
  recounted from the frames themselves after every call, not taken
  from the pool's own running count.

The sanitizer is thread-aware like the pool it wraps: span stacks are
tracked per thread (each thread gets its own, so they need no lock),
and the set of dropped blocks changes only under the pool's
re-entrant lock.
"""

from __future__ import annotations

import threading
from collections.abc import Sequence

import numpy as np

from repro.storage.buffer_pool import BufferPool, retained_bytes


class SanitizerError(RuntimeError):
    """Base class for storage-protocol violations."""


class UnannouncedReadError(SanitizerError):
    """A kernel-span demand miss outside the announced footprint."""


class WritebackLeakError(SanitizerError):
    """An evicted dirty frame was left parked, never written back."""


class UseAfterDropError(SanitizerError):
    """A pool access to a block freed by dropping its array."""


class RetentionError(SanitizerError):
    """Frames keep more memory alive than the pool's bound allows."""


class DoubleDropError(SanitizerError):
    """An array was dropped a second time."""


class _ThreadState(threading.local):
    """Per-thread sanitizer state; ``__init__`` runs once in each
    thread that touches it, so no table here needs a lock."""

    def __init__(self) -> None:
        self.stack: list[_SpanFrame] = []


class _SpanSentry:
    """Tracer observer forwarding span boundaries to the pool."""

    __slots__ = ("_pool",)

    def __init__(self, pool: "SanitizingBufferPool") -> None:
        self._pool = pool

    def span_opened(self, name: str, cat: str) -> None:
        self._pool._on_span_open(name, cat)

    def span_closed(self, name: str, cat: str, exc_type) -> None:
        self._pool._on_span_close(name, cat, exc_type)


class _SpanFrame:
    """Per-open-span sanitizer state."""

    __slots__ = ("name", "cat", "announced", "wrote", "announcements")

    def __init__(self, name: str, cat: str) -> None:
        self.name = name
        self.cat = cat
        self.announced: set[int] = set()
        self.wrote: set[int] = set()
        self.announcements = 0


class SanitizingBufferPool(BufferPool):
    """A :class:`BufferPool` that enforces the storage protocol.

    Results and I/O accounting are identical to the plain pool — every
    operation delegates to the base class — so the full test suite can
    run sanitized (``REPRO_SANITIZE=1``) with unchanged block counts.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Span stacks are per thread: each thread's spans nest on its
        # own.
        self._tls = _ThreadState()
        self._sentry: _SpanSentry | None = None
        self._dropped: set[int] = set()

    @property
    def _span_stack(self) -> list[_SpanFrame]:
        return self._tls.stack

    # ------------------------------------------------------------------
    # Tracer wiring
    # ------------------------------------------------------------------
    def attach_tracer(self, tracer) -> None:
        """Observe span boundaries (works with tracing disabled)."""
        if self._sentry is None:
            self._sentry = _SpanSentry(self)
            tracer.add_observer(self._sentry)

    def _on_span_open(self, name: str, cat: str) -> None:
        self._span_stack.append(_SpanFrame(name, cat))

    def _on_span_close(self, name: str, cat: str, exc_type) -> None:
        if not self._span_stack:
            return
        self._span_stack.pop()
        if exc_type is not None:
            return  # don't mask the in-flight failure
        with self.lock:
            if self._pending:
                raise WritebackLeakError(
                    f"span {cat}:{name} closed with evicted dirty "
                    f"block(s) {sorted(self._pending)} still parked; "
                    f"every pool call that makes room must drain its "
                    f"write-backs before it returns")

    # ------------------------------------------------------------------
    # Footprint bookkeeping
    # ------------------------------------------------------------------
    def _kernel_frames(self) -> list[_SpanFrame]:
        return [f for f in self._span_stack if f.cat == "kernel"]

    def _check_covered(self, block_id: int) -> None:
        """A demand miss must sit inside the announced footprint."""
        frames = self._kernel_frames()
        if not frames or not any(f.announcements for f in frames):
            return
        for frame in frames:
            if block_id in frame.announced or block_id in frame.wrote:
                return
        frame = frames[-1]
        raise UnannouncedReadError(
            f"kernel span {frame.name!r} missed on block {block_id} "
            f"which it neither announced via prefetch() nor wrote via "
            f"put(); announce the full read footprint before reading "
            f"it so misses coalesce")

    def _check_live(self, block_ids: Sequence[int], what: str) -> None:
        """No access may reach a block freed by dropping its array."""
        dead = self._dropped.intersection(block_ids)
        if dead:
            raise UseAfterDropError(
                f"{what} on block(s) {sorted(dead)} after their array "
                f"was dropped; a dropped array's blocks are freed, and "
                f"nothing may read or write them again")

    def discard(self, block_ids: Sequence[int]) -> None:
        block_ids = list(block_ids)
        super().discard(block_ids)
        with self.lock:
            self._dropped.update(block_ids)

    def dropped_twice(self, name: str) -> None:
        """A dropped array's ``drop`` ran again (the store calls this
        in place of freeing anything)."""
        raise DoubleDropError(
            f"array {name!r} dropped twice; every stored value has "
            f"one owner, which drops it exactly once")

    def prefetch(self, block_ids: list[int]) -> int:
        self._check_live(block_ids, "prefetch()")
        frames = self._kernel_frames()
        if frames:
            frames[-1].announcements += 1
            frames[-1].announced.update(block_ids)
        return super().prefetch(block_ids)

    def put(self, block_id: int, data: np.ndarray) -> None:
        self._check_live((block_id,), "put()")
        frames = self._kernel_frames()
        if frames:
            frames[-1].wrote.add(block_id)
        super().put(block_id, data)

    def put_many(self, block_ids: Sequence[int],
                 pages: np.ndarray) -> None:
        self._check_live(block_ids, "put_many()")
        frames = self._kernel_frames()
        if frames:
            frames[-1].wrote.update(block_ids)
        super().put_many(block_ids, pages)

    def get(self, block_id: int) -> np.ndarray:
        self._check_live((block_id,), "get()")
        if block_id not in self._frames:
            self._check_covered(block_id)
        return super().get(block_id)

    def get_many(self, block_ids: list[int]) -> list[np.ndarray]:
        self._check_live(block_ids, "get_many()")
        for bid in block_ids:
            if bid not in self._frames:
                self._check_covered(bid)
        return super().get_many(block_ids)

    def _end_call(self) -> None:
        super()._end_call()
        held = retained_bytes(self._frames.values())
        if held > self.retention_limit:
            raise RetentionError(
                f"the pool's {len(self._frames)} frames keep {held} "
                f"bytes alive, over its bound of {self.retention_limit} "
                f"(twice {self.capacity} blocks); the rows left of a "
                f"buffer less than half resident must be copied out")

