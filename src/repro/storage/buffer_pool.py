"""Buffer manager with least-recently-used replacement.

The buffer pool caches device blocks in a bounded number of frames.  All
higher layers (heap tables, B+trees, tile store) read and write pages through
a pool so that:

- repeated access to a hot page costs no I/O (a hit),
- evicting a dirty page writes it back (counted on the device),
- the total memory footprint is capped, which is the whole point of the
  paper's experimental setup (84 MB cap via ``shmat`` memory locking).

The victim is always the least recently used frame.

Reads come in two ways.  A demand miss (``get``, ``get_many``) reads
exactly the blocks asked for, the misses of one call coalesced.  The
only way to read ahead is an announced footprint: an operator that
knows what it will read next calls :meth:`BufferPool.prefetch`, and the
pool installs those blocks as clean frames.  The pool never guesses.

Frames and the buffers they share
---------------------------------

A frame is one row of a buffer: the ``(length, block_size)`` array one
coalesced device read filled, or the page batch :meth:`put_many` was
handed (the pool adopts it rather than copying each page), whole or as
a slice of a larger array.  A frame therefore keeps its whole buffer
(``frame.base``) alive, and a buffer only some of whose rows are still
resident holds memory the pool no longer uses.  The pool keeps one
ledger, from each buffer its frames are rows of to the resident blocks
it holds and where each one's row sits in it.  Every install and every
frame that leaves goes through the ledger, so ``_held`` — the bytes
the frames keep alive, each buffer counted once — is exact by
construction.  At the end of every public call frames keep at most
:meth:`BufferPool.retention_limit` bytes alive — twice the capacity —
and when they keep more, the resident rows of every buffer the ledger
shows less than half resident are copied out
(:meth:`BufferPool._bound_retention`).  A frame handed out by
:meth:`get` is copied out first, so the pool never moves memory a
caller may be writing through.

Batches evict and install in one pass: ``prefetch``, and ``get_many`` /
``put_many`` on blocks none of which is resident, make room for the
whole batch and install it at once: a new frame goes to the
most-recent end of the LRU order, behind every victim, so these are
the same victims, in the same order, as one install at a time.  A
``get_many`` / ``put_many`` batch with hits mixed in, or one larger
than the pool, walks block by block; ``prefetch`` clips its batch to
fit, so it never walks.

Deferred write-back
-------------------

Eviction *decides* one victim at a time, in LRU order, and charges
``evictions`` / ``dirty_writebacks`` as it goes; what it defers is the
dirty victim's *device write*.  The evicted frame is parked in a
per-call pending set that the pool drains with one
:meth:`IOScheduler.write_back` — sorted by block id, so adjacent
victims share a device call — before the public call returns (in a
``finally``: an error raised mid-call, by the device say, still
persists what was already evicted), before any later device read in
the same call (a block evicted and re-read inside one call never comes
back stale), before a block would be parked twice, and whenever the
set reaches
:data:`MAX_PENDING_WRITEBACKS` (the bound on memory held above
``capacity``).  The set is empty between public calls.  Victims are
what they always were, so every ``PoolStats`` field and every device
block total is independent of the batching; only ``write_calls``
shrinks.

Concurrency contract
--------------------

One re-entrant lock, ``pool.lock``, serializes every public method:
lookups, the LRU order, eviction, the drain of deferred write-backs
and every ``PoolStats`` / ``IOStats`` / scheduler increment happen
inside it, so no thread sees a counter, the LRU order or a parked
victim mid-update.  Every frame read, write and
write-back happens under that lock.  A caller that mutates a frame in
place holds ``pool.lock`` across the mutation and calls
:meth:`BufferPool.mark_dirty`; an eviction or flush can then never
copy the frame out half-written.  The scheduler and the device are
only ever called from inside the locked methods, and the kernels run
on the calling thread, so the sequence of pool calls, and with it
every simulated block count, does not depend on the BLAS thread
count.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .block_device import BlockDevice
from .io_scheduler import IOScheduler

#: Most dirty victims one pool call parks before it drains them.  Parked
#: frames are memory held above ``capacity``, so this bounds the
#: overshoot (64 blocks = 512 KiB at the default block size) while
#: leaving runs long enough that the per-call cost of a device write is
#: amortised; a call that evicts fewer victims drains once, at its end.
MAX_PENDING_WRITEBACKS = 64


class LRUPolicy:
    """Least-recently-used victim choice over an ordered dict.  A new
    key goes to the most-recent end, behind every victim, so a batch's
    victims can all be chosen before any of its keys is inserted."""

    def __init__(self) -> None:
        self._order: OrderedDict[int, None] = OrderedDict()

    def on_access_many(self, keys: Iterable[int]) -> None:
        deque(map(self._order.move_to_end, keys), maxlen=0)

    def on_insert_many(self, keys: Iterable[int]) -> None:
        self._order.update(dict.fromkeys(keys))

    def on_remove(self, key: int) -> None:
        self._order.pop(key, None)

    def choose_victims(self, n: int) -> Iterable[int]:
        """The next ``n`` victims, least recently used first, each
        removed from the order as it is chosen."""
        victims = list(islice(self._order, n))
        deque(map(self._order.pop, victims), maxlen=0)
        return victims


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


def retained_bytes(frames: Iterable[np.ndarray]) -> int:
    """Bytes a set of frames keeps alive, each buffer counted once."""
    owned = 0
    shared: dict[int, int] = {}          # buffer id -> its bytes
    for frame in frames:
        if frame.base is None:
            owned += frame.nbytes
        else:
            shared[id(frame.base)] = frame.base.nbytes
    return owned + sum(shared.values())


def _buffer_of(frame: np.ndarray) -> np.ndarray:
    """The buffer ``frame`` keeps alive: its base, else itself."""
    return frame if frame.base is None else frame.base


def _adoptable(pages: np.ndarray) -> np.ndarray:
    """``pages`` as rows the pool can keep as frames: C-contiguous,
    writable, and backed by a contiguous ndarray whose size the
    retention bound can count — else a copy."""
    if (pages.flags.c_contiguous and pages.flags.writeable
            and (pages.base is None
                 or (isinstance(pages.base, np.ndarray)
                     and pages.base.flags.forc))):
        return pages
    return pages.copy()


def _offset(rows: np.ndarray, base: np.ndarray) -> int:
    """Where C-contiguous ``rows`` starts in ``base``, the contiguous
    buffer its rows keep alive, in bytes."""
    if rows.nbytes == base.nbytes:      # all of it
        return 0
    return (rows.__array_interface__["data"][0]
            - base.__array_interface__["data"][0])


class BufferPool:
    """A bounded cache of device blocks with write-back semantics.

    Thread-safe: every public method runs under ``self.lock`` (see the
    module docstring for the concurrency contract).  ``policy`` is a
    fresh :class:`LRUPolicy` unless a test hands in a subclass.
    """

    def __init__(self, device: BlockDevice, capacity_blocks: int,
                 policy: LRUPolicy | None = None,
                 scheduler: IOScheduler | None = None) -> None:
        if capacity_blocks <= 0:
            raise ValueError(
                f"capacity must be positive, got {capacity_blocks}")
        self.device = device
        self.capacity = capacity_blocks
        self.policy = policy or LRUPolicy()
        self.scheduler = scheduler or IOScheduler(device)
        self.stats = PoolStats()
        # Re-entrant so subclass overrides (the sanitizer) and nested
        # internal calls (get_run -> get_many, put -> put_many,
        # discard -> invalidate) can re-acquire freely.
        self.lock = threading.RLock()
        self._frames: dict[int, np.ndarray] = {}
        self._dirty: set[int] = set()
        self._prefetched: set[int] = set()
        # Dirty victims evicted by the public call in progress, not yet
        # on the device: block id -> frame.  Empty whenever no public
        # call is running.
        self._pending: dict[int, np.ndarray] = {}
        # The ledger: id of a buffer resident frames are rows of ->
        # {block id: byte offset of its frame in the buffer}.  A frame
        # that owns its memory (base None) is not in it.
        self._buffers: dict[int, dict[int, int]] = {}
        # Bytes the resident frames keep alive, each buffer counted once.
        self._held = 0

    # ------------------------------------------------------------------
    @property
    def resident(self) -> int:
        return len(self._frames)

    @property
    def retention_limit(self) -> int:
        """Most bytes the frames keep alive between public calls."""
        return 2 * self.capacity * self.device.block_size

    def get(self, block_id: int) -> np.ndarray:
        """Return the cached buffer for a block, faulting it in if needed.

        The returned array is the frame, and owns its memory: a caller
        who mutates it does so under ``self.lock`` and calls
        :meth:`mark_dirty`, so the change is written back on eviction.
        """
        with self.lock:
            try:
                if block_id in self._frames:
                    self.stats.hits += 1
                    self.policy.on_access_many((block_id,))
                    self._note_prefetch_hits((block_id,))
                else:
                    self.stats.misses += 1
                    try:
                        self._make_room(1)
                    finally:
                        # The victim goes out before the read comes in.
                        self._drain_pending()
                    (_, buf), = self.scheduler.fetch([block_id])
                    self._install([block_id], buf)
                return self._own(block_id)
            finally:
                self._end_call()

    def get_many(self, block_ids: list[int]) -> list[np.ndarray]:
        """Return frames for several blocks, coalescing the misses.

        Semantically equivalent to ``[pool.get(b) for b in block_ids]``:
        hit/miss accounting, eviction order, every ``PoolStats`` field
        and the device's block and byte totals are exactly those of the
        loop.  What may only shrink is the number
        of device *calls*: all missing blocks are faulted in with one
        scheduler fetch so adjacent ids share reads, and the dirty
        victims their installs evict go out in one sorted write-back
        instead of one write each.  The returned arrays are the frames
        as they stand (rows of shared buffers): callers treat them as
        read-only and do not keep them across pool calls.
        """
        with self.lock:
            frames = self._frames
            if frames.keys() >= set(block_ids):
                self.stats.hits += len(block_ids)
                self.policy.on_access_many(block_ids)
                self._note_prefetch_hits(block_ids)
                return list(map(frames.__getitem__, block_ids))
            missing = list(dict.fromkeys(
                bid for bid in block_ids if bid not in frames))
            runs = self.scheduler.fetch(missing)
            try:
                if (len(missing) == len(block_ids)
                        and missing == sorted(missing)
                        and self._make_room(len(missing))):
                    self.stats.misses += len(missing)
                    for first, buf in runs:
                        self._install(
                            list(range(first, first + len(buf))), buf)
                    return list(map(frames.__getitem__, block_ids))
                return self._walk_get_many(block_ids, runs)
            finally:
                self._end_call()

    def _walk_get_many(self, block_ids: list[int],
                       runs: list[tuple[int, np.ndarray]]
                       ) -> list[np.ndarray]:
        """``get_many`` one block at a time (caller holds the lock and
        ends the call)."""
        fetched = {first + k: buf[k:k + 1]
                   for first, buf in runs for k in range(len(buf))}
        out: list[np.ndarray] = []
        for bid in block_ids:
            frame = self._frames.get(bid)
            if frame is not None:
                self.stats.hits += 1
                self.policy.on_access_many((bid,))
                self._note_prefetch_hits((bid,))
                out.append(frame)
                continue
            self.stats.misses += 1
            rows = fetched.get(bid)
            if rows is None:
                # The block was resident when the misses were collected
                # but got evicted while installing them — fault it in,
                # after its parked copy (if it left dirty) has reached
                # the device.
                self._drain_pending()
                (_, rows), = self.scheduler.fetch([bid])
            self._make_room(1)
            self._install([bid], rows)
            out.append(self._frames[bid])
        return out

    def get_run(self, block_ids: list[int]) -> np.ndarray:
        """:meth:`get_many`, returned as one read-only ``(n, block_size)``
        array: a view of the buffer the blocks' frames are consecutive
        rows of (the ledger says where each row sits), else one gather
        copy of the frames."""
        with self.lock:
            frames = self.get_many(block_ids)
            bs, base = self.device.block_size, _buffer_of(frames[0])
            at = self._buffers.get(id(base), {})
            start = at.get(block_ids[0])
            n = len(block_ids)
            if start is not None and list(map(at.get, block_ids)) == list(
                    range(start, start + n * bs, bs)):
                out = np.ndarray((n, bs), np.uint8, buffer=base,
                                 offset=start)
            else:
                out = np.stack(frames)
        out.flags.writeable = False
        return out

    def prefetch(self, block_ids: list[int]) -> int:
        """Hint: the given blocks are about to be read.

        Non-resident keys are fetched in coalesced device calls and
        installed as clean frames, so the announced reads become hits.
        Returns the number of blocks actually fetched.  A disabled
        scheduler turns this into a no-op.

        The hint is clipped to what the pool can usefully hold, so an
        oversized footprint is truncated, not an error.  One frame
        stays reserved for the next demand fault.  Frames already
        prefetched but not yet used are excluded from the budget too:
        evicting them for a new hint would waste their reads and
        re-read them later, inflating the block totals the accounting
        contract protects (e.g. nested hints — matmul announcing a
        submatrix whose tiles then announce themselves — in an
        undersized pool).
        """
        with self.lock:
            if not self.scheduler.enabled:
                return 0
            room = self.capacity - len(self._prefetched) - 1
            want = [bid for bid in dict.fromkeys(block_ids)
                    if bid not in self._frames][:max(room, 0)]
            if not want:
                return 0
            runs = self.scheduler.fetch(want, hinted=True)
            try:
                self._make_room(len(want))    # fits: want < capacity
                for first, buf in runs:
                    ids = list(range(first, first + len(buf)))
                    self._install(ids, buf)
                    self._prefetched.update(ids)
                    self.stats.prefetched += len(ids)
            finally:
                self._end_call()
            return len(want)

    def _note_prefetch_hits(self, block_ids: Iterable[int]) -> None:
        used = self._prefetched.intersection(block_ids)
        if used:
            self._prefetched -= used
            self.stats.readahead_hits += len(used)
            self.device.stats.readahead_hits += len(used)

    def put(self, block_id: int, data: np.ndarray) -> None:
        """Install new contents for a block without reading it first.

        Used when a page is fully overwritten (e.g. appending a fresh tile):
        no read I/O should be charged for data that will be clobbered.
        ``data`` is copied, zero-padded to a page, and handed to
        :meth:`put_many`.
        """
        buf = np.asarray(data, dtype=np.uint8).reshape(-1)
        if buf.size > self.device.block_size:
            raise ValueError("data exceeds block size")
        page = np.zeros((1, self.device.block_size), dtype=np.uint8)
        page[0, :buf.size] = buf
        self.put_many((block_id,), page)

    def put_many(self, block_ids: Sequence[int],
                 pages: np.ndarray) -> None:
        """Install whole pages for several blocks under one lock hold.

        ``pages`` is a ``(len(block_ids), block_size)`` uint8 array, one
        row per block, and the pool takes it over: a block that was not
        resident keeps its row as its frame, uncopied, so the caller
        must not write to ``pages`` after the call.  Per block this is
        exactly :meth:`put` — same hit/miss accounting, same in-place
        overwrite of a resident frame, same eviction order — so a
        batch and the same blocks sent one by one leave the pool, every
        ``PoolStats`` field, the device's block and byte totals and its
        contents in the same state.  Only the device's ``write_calls``
        may differ, and only downwards: the dirty victims of the whole
        batch are written back together, sorted by block id, so
        adjacent ones share a call.
        """
        buf = np.asarray(pages, dtype=np.uint8)
        if buf.shape != (len(block_ids), self.device.block_size):
            raise ValueError(
                f"put_many expects {len(block_ids)} page(s) of "
                f"{self.device.block_size} bytes, got an array of shape "
                f"{buf.shape}")
        buf = _adoptable(buf)
        ids = list(block_ids)
        with self.lock:
            try:
                if (len(set(ids)) == len(ids)
                        and self._frames.keys().isdisjoint(ids)
                        and self._make_room(len(ids))):
                    self.stats.misses += len(ids)
                    self._install(ids, buf)
                    self._dirty.update(ids)
                    return
                for k, block_id in enumerate(ids):
                    if block_id in self._frames:
                        self._frames[block_id][:] = buf[k]
                        self.policy.on_access_many((block_id,))
                        self.stats.hits += 1
                        # A full overwrite is not a use of the
                        # prefetched contents.
                        self._prefetched.discard(block_id)
                    else:
                        self.stats.misses += 1
                        self._make_room(1)
                        self._install([block_id], buf[k:k + 1])
                    self._dirty.add(block_id)
            finally:
                self._end_call()

    def mark_dirty(self, block_id: int) -> None:
        with self.lock:
            if block_id not in self._frames:
                raise KeyError(f"block {block_id} is not resident")
            self._dirty.add(block_id)

    # ------------------------------------------------------------------
    # Kept only as a name: macro_layers.py wraps this by name.
    def pin(self, block_id: int) -> None:
        raise NotImplementedError("the buffer pool does not pin frames")

    # Kept only as a name: macro_layers.py wraps this by name.
    def unpin(self, block_id: int) -> None:
        raise NotImplementedError("the buffer pool does not pin frames")

    # ------------------------------------------------------------------
    def flush(self, block_id: int | None = None) -> None:
        """Write back dirty frames (one block, or everything).

        A full flush hands the sorted dirty set to the scheduler so
        adjacent dirty blocks coalesce into multi-block device writes.
        """
        with self.lock:
            if block_id is not None:
                if block_id in self._dirty:
                    self.device.write_block(block_id,
                                            self._frames[block_id])
                    self.stats.dirty_writebacks += 1
                    self._dirty.discard(block_id)
                return
            if self._dirty:
                self.scheduler.write_back(
                    [(bid, self._frames[bid]) for bid in sorted(self._dirty)])
                self.stats.dirty_writebacks += len(self._dirty)
                self._dirty.clear()

    def flush_all(self) -> None:
        self.flush(None)

    def invalidate(self, block_id: int) -> None:
        """Drop a frame without writing it back (e.g. file dropped)."""
        with self.lock:
            frame = self._frames.pop(block_id, None)
            if frame is not None:
                self._release(((block_id, frame),))
            self._dirty.discard(block_id)
            self._prefetched.discard(block_id)
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
    # Frames and the memory they keep alive (caller holds self.lock)
    # ------------------------------------------------------------------
    def _install(self, ids: list[int], rows: np.ndarray) -> None:
        """Make row ``k`` of ``rows`` the frame of ``ids[k]`` (none
        resident, room made), at the most-recent end of the LRU order,
        and enter the rows in the ledger."""
        frames = list(rows)
        if not frames:
            return
        self._frames.update(zip(ids, frames))
        self.policy.on_insert_many(ids)
        base = _buffer_of(frames[0])
        at = self._buffers.get(id(base))
        if at is None:
            at = self._buffers[id(base)] = {}
            self._held += base.nbytes
        bs = self.device.block_size
        start = _offset(rows, base)
        at.update(zip(ids, range(start, start + len(ids) * bs, bs)))

    def _release(self, gone: Iterable[tuple[int, np.ndarray]]) -> None:
        """The ``(block id, frame)`` pairs ``gone`` have left the
        frames: take them out of the ledger, and a buffer's bytes out
        of ``_held`` with its last resident row."""
        buffers = self._buffers
        for bid, frame in gone:
            base = frame.base
            if base is None:
                self._held -= frame.nbytes
                continue
            at = buffers[id(base)]
            del at[bid]
            if not at:
                del buffers[id(base)]
                self._held -= base.nbytes

    def _own(self, block_id: int) -> np.ndarray:
        """The frame of ``block_id``, copied out of its shared buffer
        first when it is a row of one."""
        frame = self._frames[block_id]
        if _buffer_of(frame).nbytes > frame.nbytes:
            frame = self._copy_out(block_id)
        return frame

    def _copy_out(self, block_id: int) -> np.ndarray:
        """Replace ``block_id``'s frame with a copy that owns its
        memory."""
        frame = self._frames[block_id]
        self._release(((block_id, frame),))
        frame = self._frames[block_id] = frame.copy()
        self._held += frame.nbytes
        return frame

    def _bound_retention(self) -> None:
        """Bring what frames keep alive back within
        :attr:`retention_limit`, which ``_held`` has passed: copy the
        resident rows of every buffer the ledger shows less than half
        resident out of it.  Every buffer left is then at least half
        resident, so the frames keep at most twice the resident pages
        alive."""
        bs = self.device.block_size
        thin = [at for at in self._buffers.values()
                if 2 * len(at) * bs
                < _buffer_of(self._frames[next(iter(at))]).nbytes]
        for at in thin:
            for bid in list(at):
                self._copy_out(bid)

    def _end_call(self) -> None:
        """End of a public call: write back what it evicted, then bound
        what its frames keep alive (:meth:`_bound_retention`)."""
        if self._pending:
            self._drain_pending()
        if self._held > self.retention_limit:
            self._bound_retention()

    # ------------------------------------------------------------------
    def _make_room(self, n: int) -> bool:
        """Evict, up front, what ``n`` installs one at a time would —
        the same victims in the same order.  ``False`` (nothing done)
        for a batch larger than the pool, whose own installs would
        become victims: the caller then walks block by block.  The
        caller drains what it parks before it returns."""
        need = len(self._frames) + n - self.capacity
        if need <= 0:
            return True
        if n > self.capacity:
            return False
        victims: list[int] = []
        try:
            victims.extend(self.policy.choose_victims(need))
        finally:
            self._evict(victims)
        return True

    def _evict(self, victims: Sequence[int]) -> None:
        """Evict ``victims``, already out of the policy, in order: a
        dirty one is parked for the drain, which runs every
        :data:`MAX_PENDING_WRITEBACKS` parked and before a block would
        be parked twice."""
        frames, dirty, pending = self._frames, self._dirty, self._pending
        gone = [(victim, frames.pop(victim)) for victim in victims]
        self._release(gone)
        self.stats.evictions += len(gone)
        wasted = self._prefetched.intersection(victims)
        if wasted:
            self._prefetched -= wasted
            self.stats.prefetch_wasted += len(wasted)
        for victim, frame in gone:
            if victim in dirty:
                if victim in pending:
                    # Two writes of one block keep their order.
                    self._drain_pending()
                pending[victim] = frame
                dirty.discard(victim)
                if len(pending) >= MAX_PENDING_WRITEBACKS:
                    self._drain_pending()
                self.stats.dirty_writebacks += 1

    def _drain_pending(self) -> None:
        """Write every parked victim to the device in one sorted,
        coalesced write-back (caller holds ``self.lock``)."""
        pending = self._pending
        if pending:
            self.scheduler.write_back(
                [(bid, pending[bid]) for bid in sorted(pending)])
            pending.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"BufferPool(capacity={self.capacity}, "
                f"resident={self.resident}, "
                f"hit_rate={self.stats.hit_rate:.2%})")
