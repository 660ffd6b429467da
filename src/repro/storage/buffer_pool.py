"""Buffer manager with pluggable replacement policies.

The buffer pool caches device blocks in a bounded number of frames.  All
higher layers (heap tables, B+trees, tile store) read and write pages through
a pool so that:

- repeated access to a hot page costs no I/O (a hit),
- evicting a dirty page writes it back (counted on the device),
- the total memory footprint is capped, which is the whole point of the
  paper's experimental setup (84 MB cap via ``shmat`` memory locking).

Two classic policies are provided — LRU and CLOCK.

Reads come in two ways.  A demand miss (``get``, ``get_many``) reads
exactly the blocks asked for, the misses of one call coalesced.  The
only way to read ahead is an announced footprint: an operator that
knows what it will read next calls :meth:`BufferPool.prefetch`, and the
pool installs those blocks as clean frames.  The pool never guesses.

Deferred write-back
-------------------

Eviction *decides* one victim at a time, in policy order, and charges
``evictions`` / ``dirty_writebacks`` as it goes; what it defers is the
dirty victim's *device write*.  The evicted frame is parked in a
per-call pending set that the pool drains with one
:meth:`IOScheduler.write_back` — sorted by block id, so adjacent
victims share a device call — before the public call returns (in a
``finally``: an "all frames pinned" error still persists what was
already evicted), before any later device read in the same call (a
block evicted and re-read inside one call never comes back stale),
before a block would be parked twice, and whenever the set reaches
:data:`MAX_PENDING_WRITEBACKS` (the bound on memory held above
``capacity``).  The set is empty between public calls.  Victims are
what they always were, so every ``PoolStats`` field and every device
block total is independent of the batching; only ``write_calls``
shrinks.

Concurrency contract (worker threads)
------------------------------------

The pool is safe to share between worker threads.  One re-entrant
lock (``pool.lock``) serializes every public method — lookups, the
CLOCK/LRU sweep, eviction, the drain of deferred write-backs, pin
accounting, and all ``PoolStats``/``IOStats``/scheduler-state
increments happen inside it, so counter updates are atomic, the
replacement policy's internal structures are never observed
mid-sweep, and no other thread ever sees a parked victim.
The :class:`~repro.storage.io_scheduler.IOScheduler` and the device
transfer paths are only ever invoked from within these locked methods,
which is what keeps *simulated block counts deterministic*: for any
fixed sequence of pool calls, the counts are identical at every
parallelism level, and the tile kernels additionally keep their pool
calls on one thread in serial order so the sequence itself never
changes.

Per-frame **latches** (:meth:`BufferPool.latched`) layer on top of the
pin counts for the one hazard the big lock cannot see: a caller
mutating a frame's *contents* in place while an eviction or flush is
writing that frame back.  Internal writers (``put``'s in-place
overwrite, dirty writeback in ``flush`` and the drain) take the
frame's latch; external mutators should wrap their writes in
``with pool.latched(bid): ...``.  An evicted victim's latch is parked
with its frame and taken at drain time, not at eviction time: every
batch of write-backs acquires its latches in ascending block-id order,
holds them across the one device transfer and releases them, so a
thread inside ``pool.latched(bid)`` delays the drain of ``bid`` rather
than racing it.  Lock ordering is strictly ``pool.lock → latch``;
latch holders must not call pool methods from other threads'
perspective — the latch is the innermost lock.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Container, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .block_device import BlockDevice
from .io_scheduler import IOScheduler

#: Most dirty victims one pool call parks before it drains them.  Parked
#: frames are memory held above ``capacity``, so this bounds the
#: overshoot (64 blocks = 512 KiB at the default block size) while
#: leaving runs long enough that the per-call cost of a device write is
#: amortised; a call that evicts fewer victims drains once, at its end.
MAX_PENDING_WRITEBACKS = 64


class ReplacementPolicy:
    """Interface for choosing a victim frame."""

    def on_access(self, key: int) -> None:
        raise NotImplementedError

    def on_insert(self, key: int) -> None:
        raise NotImplementedError

    def on_remove(self, key: int) -> None:
        raise NotImplementedError

    def choose_victim(self, pinned: Container[int]) -> int:
        """Return the key of the frame to evict (never a pinned one)."""
        raise NotImplementedError


class LRUPolicy(ReplacementPolicy):
    """Least-recently-used eviction via an ordered dict."""

    def __init__(self) -> None:
        self._order: OrderedDict[int, None] = OrderedDict()

    def on_access(self, key: int) -> None:
        self._order.move_to_end(key)

    def on_insert(self, key: int) -> None:
        self._order[key] = None

    def on_remove(self, key: int) -> None:
        self._order.pop(key, None)

    def choose_victim(self, pinned: Container[int]) -> int:
        for key in self._order:
            if key not in pinned:
                return key
        raise RuntimeError("buffer pool exhausted: all frames pinned")


class ClockPolicy(ReplacementPolicy):
    """Second-chance (CLOCK) eviction."""

    def __init__(self) -> None:
        self._keys: list[int] = []
        self._ref: dict[int, bool] = {}
        self._hand = 0

    def on_access(self, key: int) -> None:
        self._ref[key] = True

    def on_insert(self, key: int) -> None:
        self._keys.append(key)
        self._ref[key] = True

    def on_remove(self, key: int) -> None:
        if key in self._ref:
            del self._ref[key]
            idx = self._keys.index(key)
            self._keys.pop(idx)
            if idx < self._hand:
                self._hand -= 1
            if self._keys:
                self._hand %= len(self._keys)
            else:
                self._hand = 0

    def choose_victim(self, pinned: Container[int]) -> int:
        if not self._keys:
            raise RuntimeError("buffer pool exhausted: no frames")
        spins = 0
        limit = 2 * len(self._keys) + 1
        while spins < limit:
            key = self._keys[self._hand]
            self._hand = (self._hand + 1) % len(self._keys)
            spins += 1
            if key in pinned:
                continue
            if self._ref.get(key, False):
                self._ref[key] = False
                continue
            return key
        # Every unpinned frame had its reference bit set twice in a row;
        # fall back to the first unpinned frame.
        for key in self._keys:
            if key not in pinned:
                return key
        raise RuntimeError("buffer pool exhausted: all frames pinned")


def make_policy(name: str) -> ReplacementPolicy:
    """Construct a replacement policy by name ('lru' or 'clock')."""
    name = name.lower()
    if name == "lru":
        return LRUPolicy()
    if name == "clock":
        return ClockPolicy()
    raise ValueError(f"unknown replacement policy: {name!r}")


@dataclass
class PoolStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_writebacks: int = 0
    prefetched: int = 0       # frames installed ahead of demand
    readahead_hits: int = 0   # hits served from a prefetched frame
    prefetch_wasted: int = 0  # prefetched frames evicted before any use

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def as_dict(self) -> dict[str, int | float]:
        """Counters plus derived rates under the shared JSON schema.

        Mirrors ``IOStats.as_dict()``: benchmarks attach this shape as
        ``extra_info["pool"]`` and ``benchmarks/check_schema.py``
        validates it against :data:`POOL_SCHEMA_KEYS`, so prefetch
        efficacy (readahead_hits vs prefetch_wasted) is visible in
        every artifact.
        """
        out: dict[str, int | float] = {
            f: int(getattr(self, f)) for f in _POOL_FIELDS}
        out["accesses"] = self.accesses
        out["hit_rate"] = round(self.hit_rate, 6)
        return out

    def snapshot(self) -> "PoolStats":
        return PoolStats(**{f: getattr(self, f) for f in _POOL_FIELDS})

    def delta(self, earlier: "PoolStats") -> "PoolStats":
        """Return pool activity since ``earlier`` (a prior snapshot)."""
        return PoolStats(**{f: getattr(self, f) - getattr(earlier, f)
                            for f in _POOL_FIELDS})

    def merged(self, other: "PoolStats") -> "PoolStats":
        return PoolStats(**{f: getattr(self, f) + getattr(other, f)
                            for f in _POOL_FIELDS})


_POOL_FIELDS = ("hits", "misses", "evictions", "dirty_writebacks",
                "prefetched", "readahead_hits", "prefetch_wasted")

#: Exact key set of ``PoolStats.as_dict()`` — the ``extra_info["pool"]``
#: section every benchmark emits and CI validates.
POOL_SCHEMA_KEYS = frozenset(_POOL_FIELDS) | {"accesses", "hit_rate"}


class BufferPool:
    """A bounded cache of device blocks with write-back semantics.

    Thread-safe: every public method runs under ``self.lock`` (see the
    module docstring for the full concurrency contract and the
    ``pool.lock → latch`` ordering rule).
    """

    def __init__(self, device: BlockDevice, capacity_blocks: int,
                 policy: str | ReplacementPolicy = "lru",
                 scheduler: IOScheduler | None = None) -> None:
        if capacity_blocks <= 0:
            raise ValueError(
                f"capacity must be positive, got {capacity_blocks}")
        self.device = device
        self.capacity = capacity_blocks
        self.policy = (policy if isinstance(policy, ReplacementPolicy)
                       else make_policy(policy))
        self.scheduler = scheduler or IOScheduler(device)
        self.stats = PoolStats()
        # Re-entrant so subclass overrides (the sanitizer) and nested
        # internal calls (get -> pin -> ...) can re-acquire freely.
        self.lock = threading.RLock()
        self._frames: dict[int, np.ndarray] = {}
        self._dirty: set[int] = set()
        self._pinned: dict[int, int] = {}
        self._prefetched: set[int] = set()
        self._latches: dict[int, threading.RLock] = {}
        # Dirty victims evicted by the public call in progress, not yet
        # on the device: block id -> (frame, latch or None).  Empty
        # whenever no public call is running.
        self._pending: dict[
            int, tuple[np.ndarray, threading.RLock | None]] = {}

    # ------------------------------------------------------------------
    @property
    def resident(self) -> int:
        return len(self._frames)

    def _latch(self, block_id: int) -> threading.RLock:
        with self.lock:
            latch = self._latches.get(block_id)
            if latch is None:
                latch = self._latches[block_id] = self._new_latch(block_id)
            return latch

    def _new_latch(self, block_id: int) -> threading.RLock:
        return threading.RLock()

    @contextmanager
    def latched(self, block_id: int) -> Iterator[None]:
        """Hold ``block_id``'s frame latch for an in-place mutation.

        Excludes concurrent writeback of the same frame (eviction or
        flush copying the contents out) without holding the whole pool
        lock across the caller's compute.  Innermost lock: do not call
        pool methods while holding a latch.
        """
        with self._latch(block_id):
            yield

    def get(self, block_id: int, *, for_write: bool = False) -> np.ndarray:
        """Return the cached buffer for a block, faulting it in if needed.

        The returned array aliases the frame: callers who mutate it must pass
        ``for_write=True`` (or call :meth:`mark_dirty`) so the change is
        written back on eviction.
        """
        with self.lock:
            frame = self._frames.get(block_id)
            if frame is not None:
                self.stats.hits += 1
                self.policy.on_access(block_id)
                self._note_prefetch_hit(block_id)
            else:
                self.stats.misses += 1
                try:
                    self._ensure_room()
                finally:
                    # The victim goes out before the read comes in.
                    self._drain_pending()
                frame = self.scheduler.fetch([block_id])[block_id]
                self._frames[block_id] = frame
                self.policy.on_insert(block_id)
            if for_write:
                self._dirty.add(block_id)
            return frame

    def get_many(self, block_ids: list[int]) -> list[np.ndarray]:
        """Return frames for several blocks, coalescing the misses.

        Semantically equivalent to ``[pool.get(b) for b in block_ids]``:
        hit/miss accounting, eviction order, every ``PoolStats`` field
        and the device's block and byte totals are exactly those of the
        loop.  What may only shrink is the number
        of device *calls*: all missing blocks are faulted in with one
        scheduler fetch so adjacent ids share reads, and the dirty
        victims their installs evict go out in one sorted write-back
        instead of one write each.  Returned arrays alias frames where
        the block stayed resident; callers treat them as read-only.
        """
        with self.lock:
            missing = list(dict.fromkeys(
                bid for bid in block_ids if bid not in self._frames))
            fetched = self.scheduler.fetch(missing) if missing else {}
            out: list[np.ndarray] = []
            try:
                for bid in block_ids:
                    frame = self._frames.get(bid)
                    if frame is not None:
                        self.stats.hits += 1
                        self.policy.on_access(bid)
                        self._note_prefetch_hit(bid)
                        out.append(frame)
                        continue
                    self.stats.misses += 1
                    frame = fetched.get(bid)
                    if frame is None:
                        # The block was resident when the misses were
                        # collected but got evicted while installing
                        # them — fault it in, after its parked copy (if
                        # it left dirty) has reached the device.
                        self._drain_pending()
                        frame = self.scheduler.fetch([bid])[bid]
                    self._ensure_room()
                    self._frames[bid] = frame
                    self.policy.on_insert(bid)
                    out.append(frame)
            finally:
                self._drain_pending()
            return out

    def prefetch(self, block_ids: list[int]) -> int:
        """Hint: the given blocks are about to be read.

        Non-resident keys are fetched in coalesced device calls and
        installed as clean frames, so the announced reads become hits.
        Returns the number of blocks actually fetched.  A disabled
        scheduler turns this into a no-op.

        The hint is clipped to what the pool can usefully hold, so an
        oversized footprint is truncated, not an error.  Pinned frames
        are untouchable and one frame stays reserved for the next
        demand fault.  Frames already prefetched but not yet used are
        excluded from the budget too: evicting them for a new hint would
        waste their reads and re-read them later, inflating the block
        totals the accounting contract protects (e.g. nested hints —
        matmul announcing a submatrix whose tiles then announce
        themselves — in an undersized pool).
        """
        with self.lock:
            if not self.scheduler.enabled:
                return 0
            room = (self.capacity - len(self._pinned)
                    - len(self._prefetched) - 1)
            want = [bid for bid in dict.fromkeys(block_ids)
                    if bid not in self._frames][:max(room, 0)]
            if not want:
                return 0
            fetched = self.scheduler.fetch(want, hinted=True)
            try:
                for bid, frame in fetched.items():
                    self._ensure_room()
                    self._frames[bid] = frame
                    self.policy.on_insert(bid)
                    self._prefetched.add(bid)
                    self.stats.prefetched += 1
            finally:
                self._drain_pending()
            return len(fetched)

    def _note_prefetch_hit(self, block_id: int) -> None:
        if block_id in self._prefetched:
            self._prefetched.discard(block_id)
            self.stats.readahead_hits += 1
            self.device.stats.readahead_hits += 1

    def put(self, block_id: int, data: np.ndarray) -> None:
        """Install new contents for a block without reading it first.

        Used when a page is fully overwritten (e.g. appending a fresh tile):
        no read I/O should be charged for data that will be clobbered.
        """
        buf = np.asarray(data, dtype=np.uint8)
        if buf.size > self.device.block_size:
            raise ValueError("data exceeds block size")
        if buf.size < self.device.block_size:
            padded = np.zeros(self.device.block_size, dtype=np.uint8)
            padded[:buf.size] = buf
            buf = padded
        with self.lock:
            try:
                self._put_locked(block_id, buf)
            finally:
                self._drain_pending()

    def put_many(self, block_ids: Sequence[int],
                 pages: np.ndarray) -> None:
        """Install whole pages for several blocks under one lock hold.

        ``pages`` is a ``(len(block_ids), block_size)`` uint8 array, one
        row per block.  Per block this is exactly :meth:`put` — same
        hit/miss accounting, same in-place overwrite under the frame's
        latch, same eviction order — so a batch and the same blocks sent
        one by one leave the pool, every ``PoolStats`` field, the
        device's block and byte totals and its contents in the same
        state.  Only the device's ``write_calls`` may differ, and only
        downwards: the dirty victims of the whole batch are written
        back together, sorted by block id, so adjacent ones share a
        call.
        """
        buf = np.asarray(pages, dtype=np.uint8)
        if buf.shape != (len(block_ids), self.device.block_size):
            raise ValueError(
                f"put_many expects {len(block_ids)} page(s) of "
                f"{self.device.block_size} bytes, got an array of shape "
                f"{buf.shape}")
        with self.lock:
            try:
                for block_id, page in zip(block_ids, buf):
                    self._put_locked(block_id, page)
            finally:
                self._drain_pending()

    def _put_locked(self, block_id: int, buf: np.ndarray) -> None:
        # Caller holds self.lock; ``buf`` is exactly one block wide.
        if block_id in self._frames:
            with self.latched(block_id):
                self._frames[block_id][:] = buf
            self.policy.on_access(block_id)
            self.stats.hits += 1
            # A full overwrite is not a use of the prefetched
            # contents.
            self._prefetched.discard(block_id)
        else:
            self.stats.misses += 1
            self._ensure_room()
            # A copy, so each frame owns its memory: a view of the
            # caller's batch would keep the whole batch alive for as
            # long as any one of its frames stays resident.
            self._frames[block_id] = buf.copy()
            self.policy.on_insert(block_id)
        self._dirty.add(block_id)

    def mark_dirty(self, block_id: int) -> None:
        with self.lock:
            if block_id not in self._frames:
                raise KeyError(f"block {block_id} is not resident")
            self._dirty.add(block_id)

    # ------------------------------------------------------------------
    def pin(self, block_id: int) -> None:
        """Prevent a resident block from being evicted (refcounted)."""
        with self.lock:
            if block_id not in self._frames:
                raise KeyError(
                    f"cannot pin non-resident block {block_id}")
            self._pinned[block_id] = self._pinned.get(block_id, 0) + 1

    def unpin(self, block_id: int) -> None:
        with self.lock:
            count = self._pinned.get(block_id, 0)
            if count <= 1:
                self._pinned.pop(block_id, None)
            else:
                self._pinned[block_id] = count - 1

    # ------------------------------------------------------------------
    def flush(self, block_id: int | None = None) -> None:
        """Write back dirty frames (one block, or everything).

        A full flush hands the sorted dirty set to the scheduler so
        adjacent dirty blocks coalesce into multi-block device writes.
        """
        with self.lock:
            if block_id is not None:
                if block_id in self._dirty:
                    with self.latched(block_id):
                        self.device.write_block(block_id,
                                                self._frames[block_id])
                    self.stats.dirty_writebacks += 1
                    self._dirty.discard(block_id)
                return
            if self._dirty:
                self._write_back(
                    {bid: (self._frames[bid], self._latches.get(bid))
                     for bid in self._dirty})
                self.stats.dirty_writebacks += len(self._dirty)
                self._dirty.clear()

    def flush_all(self) -> None:
        self.flush(None)

    def invalidate(self, block_id: int) -> None:
        """Drop a frame without writing it back (e.g. file dropped)."""
        with self.lock:
            self._frames.pop(block_id, None)
            self._dirty.discard(block_id)
            self._pinned.pop(block_id, None)
            self._prefetched.discard(block_id)
            self._latches.pop(block_id, None)
            self.policy.on_remove(block_id)

    def discard(self, block_ids: Sequence[int]) -> None:
        """Invalidate every frame of an array being dropped: its file
        frees these blocks next, so nothing may touch them again."""
        with self.lock:
            for bid in block_ids:
                self.invalidate(bid)

    def clear(self) -> None:
        """Flush everything and empty the pool."""
        with self.lock:
            self.flush_all()
            for bid in list(self._frames):
                self.invalidate(bid)

    # ------------------------------------------------------------------
    def _ensure_room(self) -> None:
        # Caller holds self.lock and drains before it returns.  The
        # CLOCK/LRU sweep picks and accounts each victim here, one at a
        # time; a dirty victim's frame and latch are parked for the
        # drain, which is where the device write happens.
        while len(self._frames) >= self.capacity:
            victim = self.policy.choose_victim(self._pinned)
            frame = self._frames.pop(victim)
            latch = self._latches.pop(victim, None)
            if victim in self._dirty:
                if victim in self._pending:
                    # Two writes of one block keep their order.
                    self._drain_pending()
                self._pending[victim] = (frame, latch)
                self.stats.dirty_writebacks += 1
                self._dirty.discard(victim)
                if len(self._pending) >= MAX_PENDING_WRITEBACKS:
                    self._drain_pending()
            if victim in self._prefetched:
                self._prefetched.discard(victim)
                self.stats.prefetch_wasted += 1
            self.policy.on_remove(victim)
            self.stats.evictions += 1

    def _drain_pending(self) -> None:
        """Write every parked victim to the device (caller holds
        ``self.lock``)."""
        if self._pending:
            self._write_back(self._pending)
            self._pending.clear()

    def _write_back(self, victims: dict[
            int, tuple[np.ndarray, threading.RLock | None]]) -> None:
        """One coalesced device write of ``victims`` (block id ->
        frame and latch), in block-id order, under their latches.

        A block without a latch has had no in-place mutator since it
        was last installed, and none can appear while the caller holds
        ``self.lock`` (:meth:`latched` looks the latch up under it), so
        there is nothing to exclude.  Latches are always taken in
        ascending block-id order.
        """
        order = sorted(victims)
        held = [latch for bid in order
                if (latch := victims[bid][1]) is not None]
        for latch in held:
            latch.acquire()
        try:
            self.scheduler.write_back(
                [(bid, victims[bid][0]) for bid in order])
        finally:
            for latch in held:
                latch.release()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"BufferPool(capacity={self.capacity}, "
                f"resident={self.resident}, "
                f"hit_rate={self.stats.hit_rate:.2%})")
