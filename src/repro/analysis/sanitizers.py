"""Runtime storage-protocol sanitizers (ASAN for the buffer pool).

The storage protocol every kernel must follow — announce the footprint
it is about to read, pin blocks for exactly as long as it uses them,
never discard what is pinned — is what makes the I/O accounting exact
and what the coming concurrent buffer pool will depend on for
correctness.  Violations today are silent: ``unpin`` tolerates
over-release, ``invalidate`` quietly drops pinned frames, and an
unannounced read just costs an uncoalesced miss.

:class:`SanitizingBufferPool` is a drop-in :class:`BufferPool`
subclass that turns each hazard into a loud, typed error at the point
of violation.  Enable it with ``StorageConfig(sanitize=True)`` or
``REPRO_SANITIZE=1`` — every :class:`~repro.storage.ArrayStore` then
builds its pool sanitizing and registers a span observer on the
store's tracer, so span boundaries are visible even when tracing
itself is off.

Detected hazards:

- **Pin leak** (:class:`PinLeakError`): pin counts at a span's close
  differ from its open — some code path pinned without unpinning (or
  over-released) inside the span.
- **Use-after-unpin** (:class:`UseAfterUnpinError`): a zero-copy
  ``block_view()`` tile (mmap backend) is still referenced when its
  block's pin count drops to zero.  Like ASAN, detection happens at
  the *release* point: the view would dangle the moment the frame is
  recycled.
- **Pinned discard** (:class:`PinnedDiscardError`): ``invalidate()``
  on a block something still holds pinned.
- **Unannounced read** (:class:`UnannouncedReadError`): a demand miss
  inside a ``cat="kernel"`` span on a block the kernel neither
  announced via ``prefetch()`` nor wrote via ``put()``.  Only enforced
  for kernels that participate in the hint protocol (made at least one
  announcement in the span): kernels reading operands from a foreign
  store legitimately skip hinting altogether.
- **Latch leak** (:class:`LatchLeakError`): a span closes with frame
  latches held that were not held when it opened.  Every latch the
  sanitizing pool hands out is tracked per thread, so the check sees
  external ``pool.latched()`` holds and the pool's own — ``put``'s
  in-place overwrite, ``flush``, and the batched write-back of evicted
  victims, whose latches are parked at eviction and taken at the drain.
- **Write-back leak** (:class:`WritebackLeakError`): a span closes
  while the pool still parks an evicted dirty frame that never reached
  the device — some pool entry point made room without draining.
- **Cross-thread unpin** (:class:`CrossThreadUnpinError`): a worker
  releases a pin some *other* thread took.  Pins are ownership — the
  pinning thread is the one relying on the frame staying resident, so
  another thread releasing it re-creates exactly the dangling-frame
  hazard pinning exists to prevent.

The sanitizer is thread-aware like the pool it wraps: span stacks and
pin ownership are tracked per thread (parallel plan workers each get
their own), and all bookkeeping runs under the pool's re-entrant lock,
so pin-leak accounting stays exact per worker span.
"""

from __future__ import annotations

import threading
import weakref
from collections.abc import Sequence

import numpy as np

from repro.storage.buffer_pool import BufferPool


class SanitizerError(RuntimeError):
    """Base class for storage-protocol violations."""


class PinLeakError(SanitizerError):
    """Pin counts at span close differ from span open."""


class UseAfterUnpinError(SanitizerError):
    """A zero-copy block view outlived its block's pin."""


class PinnedDiscardError(SanitizerError):
    """``invalidate()`` called on a block that is still pinned."""


class UnannouncedReadError(SanitizerError):
    """A kernel-span demand miss outside the announced footprint."""


class CrossThreadUnpinError(SanitizerError):
    """A thread released a pin that a different thread took."""


class LatchLeakError(SanitizerError):
    """Frame latches held at span close differ from span open."""


class WritebackLeakError(SanitizerError):
    """An evicted dirty frame was left parked, never written back."""


class _ThreadState(threading.local):
    """Per-thread sanitizer state; ``__init__`` runs once in each
    thread that touches it, so no table here needs a lock."""

    def __init__(self) -> None:
        self.stack: list[_SpanFrame] = []
        self.latches: dict[int, int] = {}  # block id -> hold depth


class _TrackedLatch:
    """A frame latch that records in its holder's thread state that it
    is held."""

    __slots__ = ("_block_id", "_tls", "_lock")

    def __init__(self, block_id: int, tls: _ThreadState) -> None:
        self._block_id = block_id
        self._tls = tls
        self._lock = threading.RLock()

    def acquire(self) -> None:
        self._lock.acquire()
        held = self._tls.latches
        held[self._block_id] = held.get(self._block_id, 0) + 1

    def release(self) -> None:
        held = self._tls.latches
        if held[self._block_id] == 1:
            del held[self._block_id]
        else:
            held[self._block_id] -= 1
        self._lock.release()

    def __enter__(self) -> None:
        self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()


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

    __slots__ = ("name", "cat", "pins_before", "latches_before",
                 "announced", "wrote", "announcements")

    def __init__(self, name: str, cat: str, pins_before: dict[int, int],
                 latches_before: dict[int, int]) -> None:
        self.name = name
        self.cat = cat
        self.pins_before = pins_before
        self.latches_before = latches_before
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
        # Span stacks are per thread (a worker's spans nest on its own
        # stack); pin ownership is tracked per thread so leaks are
        # attributed to the worker span that took them.
        self._tls = _ThreadState()
        self._pins_by_thread: dict[int, dict[int, int]] = {}
        self._views: dict[int, list[weakref.ref]] = {}
        self._sentry: _SpanSentry | None = None

    @property
    def _span_stack(self) -> list[_SpanFrame]:
        return self._tls.stack

    def _my_pins(self) -> dict[int, int]:
        """The calling thread's pin table (caller holds self.lock)."""
        tid = threading.get_ident()
        table = self._pins_by_thread.get(tid)
        if table is None:
            table = self._pins_by_thread[tid] = {}
        return table

    def _new_latch(self, block_id: int) -> _TrackedLatch:
        return _TrackedLatch(block_id, self._tls)

    # ------------------------------------------------------------------
    # Tracer wiring
    # ------------------------------------------------------------------
    def attach_tracer(self, tracer) -> None:
        """Observe span boundaries (works with tracing disabled)."""
        if self._sentry is None:
            self._sentry = _SpanSentry(self)
            tracer.add_observer(self._sentry)

    def _on_span_open(self, name: str, cat: str) -> None:
        with self.lock:
            self._span_stack.append(
                _SpanFrame(name, cat, dict(self._my_pins()),
                           dict(self._tls.latches)))

    def _on_span_close(self, name: str, cat: str, exc_type) -> None:
        if not self._span_stack:
            return
        frame = self._span_stack.pop()
        if exc_type is not None:
            return  # don't mask the in-flight failure
        held = self._tls.latches
        if frame.latches_before != held:
            raise LatchLeakError(
                f"span {cat}:{name} closed holding frame latches "
                f"(block: depth) {held}, opened with "
                f"{frame.latches_before}; every latch taken inside a "
                f"span must be released before it closes")
        with self.lock:
            if self._pending:
                raise WritebackLeakError(
                    f"span {cat}:{name} closed with evicted dirty "
                    f"block(s) {sorted(self._pending)} still parked; "
                    f"every pool call that makes room must drain its "
                    f"write-backs before it returns")
            pins = self._my_pins()
            if frame.pins_before != pins:
                leaked = {bid: pins.get(bid, 0)
                          - frame.pins_before.get(bid, 0)
                          for bid in (set(pins)
                                      | set(frame.pins_before))
                          if pins.get(bid, 0)
                          != frame.pins_before.get(bid, 0)}
                raise PinLeakError(
                    f"span {cat}:{name} closed with unbalanced pins "
                    f"(block: delta) {leaked} on this thread; every "
                    f"pin taken inside a span must be released before "
                    f"it closes")

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

    def prefetch(self, block_ids: list[int]) -> int:
        frames = self._kernel_frames()
        if frames:
            frames[-1].announcements += 1
            frames[-1].announced.update(block_ids)
        return super().prefetch(block_ids)

    def put(self, block_id: int, data: np.ndarray) -> None:
        frames = self._kernel_frames()
        if frames:
            frames[-1].wrote.add(block_id)
        super().put(block_id, data)

    def put_many(self, block_ids: Sequence[int],
                 pages: np.ndarray) -> None:
        frames = self._kernel_frames()
        if frames:
            frames[-1].wrote.update(block_ids)
        super().put_many(block_ids, pages)

    def get(self, block_id: int, *, for_write: bool = False
            ) -> np.ndarray:
        if block_id not in self._frames:
            self._check_covered(block_id)
        return super().get(block_id, for_write=for_write)

    def get_many(self, block_ids: list[int]) -> list[np.ndarray]:
        for bid in block_ids:
            if bid not in self._frames:
                self._check_covered(bid)
        return super().get_many(block_ids)

    # ------------------------------------------------------------------
    # Pin / view hazards
    # ------------------------------------------------------------------
    def block_view(self, block_id: int) -> np.ndarray:
        """Zero-copy device view, tracked against the block's pin.

        Sanitized code must take views through the pool: the view is
        only valid while the block stays pinned, and releasing the last
        pin while a view is alive raises :class:`UseAfterUnpinError`.
        """
        with self.lock:
            if self._pinned.get(block_id, 0) <= 0:
                raise UseAfterUnpinError(
                    f"block_view({block_id}) taken without a pin; pin "
                    f"the block first so the view cannot dangle")
            if hasattr(self.device, "block_view"):
                view = self.device.block_view(block_id)
            else:
                # The memory simulator has no zero-copy mapping; hand
                # out a read-only view of the cached frame so the
                # pin/view hazard discipline is enforced identically
                # on every backend.
                view = super().get(block_id).view()
                view.flags.writeable = False
            self._views.setdefault(block_id, []).append(
                weakref.ref(view))
            return view

    def pin(self, block_id: int) -> None:
        with self.lock:
            super().pin(block_id)
            mine = self._my_pins()
            mine[block_id] = mine.get(block_id, 0) + 1

    def unpin(self, block_id: int) -> None:
        with self.lock:
            mine = self._my_pins()
            if (mine.get(block_id, 0) <= 0
                    and self._pinned.get(block_id, 0) > 0):
                holders = sorted(
                    tid for tid, table in self._pins_by_thread.items()
                    if table.get(block_id, 0) > 0)
                raise CrossThreadUnpinError(
                    f"thread {threading.get_ident()} unpinned block "
                    f"{block_id} which it never pinned (held by "
                    f"thread(s) {holders}); pins must be released by "
                    f"the thread that took them")
            dropping_last = self._pinned.get(block_id, 0) <= 1
            if dropping_last and block_id in self._views:
                live = [ref for ref in self._views[block_id]
                        if ref() is not None]
                if live:
                    raise UseAfterUnpinError(
                        f"unpinning block {block_id} to zero while "
                        f"{len(live)} zero-copy view(s) of it are "
                        f"still alive; drop the view(s) before "
                        f"releasing the pin")
                del self._views[block_id]
            super().unpin(block_id)
            if mine.get(block_id, 0) > 0:
                if mine[block_id] == 1:
                    del mine[block_id]
                else:
                    mine[block_id] -= 1

    def invalidate(self, block_id: int) -> None:
        with self.lock:
            if self._pinned.get(block_id, 0) > 0:
                raise PinnedDiscardError(
                    f"invalidate({block_id}) would discard a block "
                    f"pinned {self._pinned[block_id]} time(s); unpin "
                    f"before dropping it")
            self._views.pop(block_id, None)
            super().invalidate(block_id)
