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

Frames as runs
--------------

A frame is one row of a buffer: the ``(length, block_size)`` array one
coalesced device read filled, or the page batch :meth:`put_many` was
handed (the pool adopts it rather than copying each page).  A frame
therefore keeps its whole buffer alive, and a buffer only some of whose
rows are still resident holds memory the pool no longer uses.  The pool
bounds that: at the end of every public call, frames keep at most
:meth:`BufferPool.retention_limit` bytes alive — twice the capacity —
and when they keep more, the surviving rows of every buffer less than
half resident are copied out (:meth:`BufferPool._bound_retention`).  A
frame handed out by :meth:`get` is copied out first, so the pool never
moves memory a caller may be writing through.

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

import operator
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

    def on_access(self, key: int) -> None:
        self._order.move_to_end(key)

    def on_access_many(self, keys: Iterable[int]) -> None:
        deque(map(self._order.move_to_end, keys), maxlen=0)

    def on_insert(self, key: int) -> None:
        self._order[key] = None

    def on_insert_many(self, keys: Iterable[int]) -> None:
        self._order.update(dict.fromkeys(keys))

    def on_remove(self, key: int) -> None:
        self._order.pop(key, None)

    def choose_victim(self) -> int:
        """Return the key of the frame to evict."""
        return next(iter(self._order))

    def choose_victims(self, n: int) -> Iterable[int]:
        """The next ``n`` victims in order, each removed as it is
        chosen: what ``n`` rounds of :meth:`choose_victim` and
        :meth:`on_remove` pick."""
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


class _Run:
    """A buffer whose rows are frames: what one device read filled, or a
    page batch :meth:`BufferPool.put_many` adopted.  ``rows[k]`` is the
    frame it offers block ``ids[k]``; ``live`` counts the rows resident
    as frames; ``nbytes`` is the memory any one of them keeps alive."""

    __slots__ = ("ids", "buf", "rows", "nbytes", "live")

    def __init__(self, ids: list[int], buf: np.ndarray) -> None:
        self.ids = ids
        self.buf = buf
        self.rows = list(buf)
        self.nbytes = _holds(buf)
        self.live = 0


def _holds(array: np.ndarray) -> int:
    """Bytes ``array`` keeps alive: its buffer's, whole."""
    return array.nbytes if array.base is None else array.base.nbytes


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


def _adoptable(pages: np.ndarray) -> np.ndarray:
    """``pages`` as rows the pool can keep as frames: C-contiguous,
    writable, and backed by an ndarray whose size the retention bound
    can count — else a copy."""
    if (pages.flags.c_contiguous and pages.flags.writeable
            and (pages.base is None or isinstance(pages.base, np.ndarray))):
        return pages
    return pages.copy()


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
        # internal calls (get_run -> get_many, discard -> invalidate)
        # can re-acquire freely.
        self.lock = threading.RLock()
        self._frames: dict[int, np.ndarray] = {}
        self._dirty: set[int] = set()
        self._prefetched: set[int] = set()
        # Dirty victims evicted by the public call in progress, not yet
        # on the device: block id -> frame.  Empty whenever no public
        # call is running.
        self._pending: dict[int, np.ndarray] = {}
        # Frames that are rows of a shared buffer -> that buffer's run;
        # a frame absent here owns its one block of memory.
        self._owner: dict[int, _Run] = {}
        # Bytes the resident frames keep alive (their buffers, whole).
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
                    self.policy.on_access(block_id)
                    self._note_prefetch_hit(block_id)
                else:
                    self.stats.misses += 1
                    try:
                        self._ensure_room()
                    finally:
                        # The victim goes out before the read comes in.
                        self._drain_pending()
                    (_, buf), = self.scheduler.fetch([block_id])
                    run = _Run([block_id], buf)
                    self._install(block_id, run.rows[0], run)
                    self.policy.on_insert(block_id)
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
                        self._adopt(list(range(first, first + len(buf))),
                                    buf)
                    return list(map(frames.__getitem__, block_ids))
                return self._walk_get_many(block_ids, runs)
            finally:
                self._end_call()

    def _walk_get_many(self, block_ids: list[int],
                       runs: list[tuple[int, np.ndarray]]
                       ) -> list[np.ndarray]:
        """``get_many`` one block at a time (caller holds the lock and
        ends the call)."""
        fetched: dict[int, tuple[np.ndarray, _Run]] = {}
        for first, buf in runs:
            run = _Run(list(range(first, first + len(buf))), buf)
            fetched.update((bid, (row, run))
                           for bid, row in zip(run.ids, run.rows))
        out: list[np.ndarray] = []
        for bid in block_ids:
            frame = self._frames.get(bid)
            if frame is not None:
                self.stats.hits += 1
                self.policy.on_access(bid)
                self._note_prefetch_hit(bid)
                out.append(frame)
                continue
            self.stats.misses += 1
            got = fetched.get(bid)
            if got is None:
                # The block was resident when the misses were collected
                # but got evicted while installing them — fault it in,
                # after its parked copy (if it left dirty) has reached
                # the device.
                self._drain_pending()
                (_, buf), = self.scheduler.fetch([bid])
                run = _Run([bid], buf)
                got = run.rows[0], run
            self._ensure_room()
            self._install(bid, *got)
            self.policy.on_insert(bid)
            out.append(got[0])
        return out

    def get_run(self, block_ids: list[int]) -> np.ndarray:
        """:meth:`get_many`, returned as one read-only ``(n, block_size)``
        array: a view of the buffer whose consecutive rows the blocks'
        frames are, else one gather copy of the frames."""
        with self.lock:
            frames = self.get_many(block_ids)
            run = self._owner.get(block_ids[0])
            if run is not None:
                n = len(block_ids)
                r0 = run.ids.index(block_ids[0])
                if (r0 + n <= len(run.rows) and all(
                        map(operator.is_, frames, run.rows[r0:r0 + n]))):
                    view = run.buf[r0:r0 + n]
                    view.flags.writeable = False
                    return view
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
                    self._adopt(ids, buf)
                    self._prefetched.update(ids)
                    self.stats.prefetched += len(ids)
            finally:
                self._end_call()
            return len(want)

    def _note_prefetch_hit(self, block_id: int) -> None:
        if block_id in self._prefetched:
            self._prefetched.discard(block_id)
            self.stats.readahead_hits += 1
            self.device.stats.readahead_hits += 1

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
                self._put_locked(block_id, buf, None)
            finally:
                self._end_call()

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
                    self._adopt(ids, buf)
                    self._dirty.update(ids)
                    return
                run = _Run(ids, buf)
                for block_id, page in zip(ids, run.rows):
                    self._put_locked(block_id, page, run)
            finally:
                self._end_call()

    def _put_locked(self, block_id: int, buf: np.ndarray,
                    run: _Run | None) -> None:
        # Caller holds self.lock; ``buf`` is exactly one block wide: a
        # row of ``run`` the frame may keep, or (no run) the caller's
        # page, which is copied.
        if block_id in self._frames:
            self._frames[block_id][:] = buf
            self.policy.on_access(block_id)
            self.stats.hits += 1
            # A full overwrite is not a use of the prefetched
            # contents.
            self._prefetched.discard(block_id)
        else:
            self.stats.misses += 1
            self._ensure_room()
            self._install(block_id,
                          buf.copy() if run is None else buf, run)
            self.policy.on_insert(block_id)
        self._dirty.add(block_id)

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
            if self._frames.pop(block_id, None) is not None:
                self._release((block_id,))
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
    def _install(self, block_id: int, frame: np.ndarray,
                 run: _Run | None) -> None:
        """Make ``frame`` — a row of ``run``, or (no run) an array of
        its own — the frame of ``block_id``."""
        self._frames[block_id] = frame
        if run is None:
            self._owner.pop(block_id, None)
            self._held += frame.nbytes
            return
        if not run.live:
            self._held += run.nbytes
        run.live += 1
        self._owner[block_id] = run

    def _adopt(self, ids: list[int], buf: np.ndarray) -> None:
        """Install every row of ``buf`` as the frame of the matching id
        (none resident, room made), in order."""
        run = _Run(ids, buf)
        run.live = len(ids)
        self._held += run.nbytes
        self._frames.update(zip(ids, run.rows))
        self._owner.update(dict.fromkeys(ids, run))
        self.policy.on_insert_many(ids)

    def _release(self, block_ids: Sequence[int]) -> None:
        """The frames of ``block_ids`` have left: stop counting their
        memory."""
        owner = self._owner
        for bid in block_ids:
            run = owner.pop(bid, None)
            if run is None:
                self._held -= self.device.block_size
                continue
            run.live -= 1
            if not run.live:
                self._held -= run.nbytes

    def _own(self, block_id: int) -> np.ndarray:
        """The frame of ``block_id``, copied out of its shared buffer
        first when it is a row of one."""
        frame = self._frames[block_id]
        if _holds(frame) > frame.nbytes:
            frame = self._copy_out(block_id)
        return frame

    def _copy_out(self, block_id: int) -> np.ndarray:
        """Replace ``block_id``'s frame with a copy that owns its
        memory."""
        frame = self._frames[block_id].copy()
        self._release((block_id,))
        self._install(block_id, frame, None)
        return frame

    def _bound_retention(self) -> None:
        """Bring what frames hold alive back within
        :attr:`retention_limit`, which ``_held`` — the running count of
        installs and evictions — has passed.

        The frames are recounted by the buffer each is a row of, and
        the resident rows of every buffer less than half resident are
        copied out of it.  Every buffer left is then at least half
        resident, so the frames hold at most twice the resident pages.
        """
        by_buffer: dict[int, list[int]] = {}
        for bid, frame in self._frames.items():
            if frame.base is not None:
                by_buffer.setdefault(id(frame.base), []).append(bid)
        for bids in by_buffer.values():
            base = self._frames[bids[0]].base
            if 2 * len(bids) * self.device.block_size < base.nbytes:
                for bid in bids:
                    self._copy_out(bid)
        for bid in [b for b in self._owner if b not in self._frames]:
            del self._owner[bid]   # a frame dropped behind our back
        self._held = retained_bytes(self._frames.values())

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
        become victims: the caller then walks block by block."""
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

    def _ensure_room(self) -> None:
        # Caller holds self.lock and drains before it returns.  Each
        # victim is picked and accounted here, one at a time; a dirty
        # victim's frame is parked for the drain, which is where the
        # device write happens.
        while len(self._frames) >= self.capacity:
            victim = self.policy.choose_victim()
            self.policy.on_remove(victim)
            self._evict((victim,))

    def _evict(self, victims: Sequence[int]) -> None:
        """Evict ``victims``, already out of the policy, in order: a
        dirty one is parked for the drain, which runs every
        :data:`MAX_PENDING_WRITEBACKS` parked and before a block would
        be parked twice."""
        frames, dirty, pending = self._frames, self._dirty, self._pending
        for victim in victims:
            frame = frames.pop(victim)
            if victim in dirty:
                if victim in pending:
                    # Two writes of one block keep their order.
                    self._drain_pending()
                pending[victim] = frame
                dirty.discard(victim)
                if len(pending) >= MAX_PENDING_WRITEBACKS:
                    self._drain_pending()
                self.stats.dirty_writebacks += 1
        wasted = self._prefetched.intersection(victims)
        if wasted:
            self._prefetched -= wasted
            self.stats.prefetch_wasted += len(wasted)
        self.stats.evictions += len(victims)
        self._release(victims)

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
