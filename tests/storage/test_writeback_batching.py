"""Batched eviction write-back: same pool, fewer device calls.

The pool parks the dirty victims one public call evicts and writes them
back together, sorted by block id.  What must not move is everything
but the call count: the victims and their order, every ``PoolStats``
field, the device's block and byte totals and its contents.  The
property test runs random call sequences against the pool and against
:class:`OneWritePerVictimPool` — the eviction loop as it was before,
one ``write_block`` per dirty victim — and the hazard tests pin the
four places where deferring a write could go wrong.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import SanitizingBufferPool
from repro.obs import Tracer
from repro.storage import BlockDevice, BufferPool, IOScheduler
from repro.storage.buffer_pool import MAX_PENDING_WRITEBACKS, LRUPolicy

BLOCK = 64
NBLOCKS = 12


class OneWritePerVictimPool(BufferPool):
    """The reference: evict one victim, write it, repeat — batches
    included, which walk block by block."""

    def _make_room(self, n: int) -> bool:
        if n > 1:
            return False
        while len(self._frames) + n > self.capacity:
            [victim] = self.policy.choose_victims(1)
            if victim in self._dirty:
                self.device.write_block(victim, self._frames[victim])
                self.stats.dirty_writebacks += 1
                self._dirty.discard(victim)
            if victim in self._prefetched:
                self._prefetched.discard(victim)
                self.stats.prefetch_wasted += 1
            self._release(((victim, self._frames.pop(victim)),))
            self.stats.evictions += 1
        return True

    def _install(self, ids: list[int], rows: np.ndarray) -> None:
        # Reached from prefetch too, which installs without asking
        # whether room was made.
        for k, bid in enumerate(ids):
            self._make_room(1)
            super()._install([bid], rows[k:k + 1])


def _make(cls, capacity, enabled=True, nblocks=NBLOCKS):
    device = BlockDevice(block_size=BLOCK)
    first = device.allocate(nblocks)
    for i in range(nblocks):
        device.write_block(
            first + i, np.full(BLOCK, (100 + i) % 256, dtype=np.uint8))
    device.reset_stats()
    scheduler = IOScheduler(device, enabled=enabled)
    return cls(device, capacity, scheduler=scheduler)


def _contents(device) -> list[bytes]:
    return [device._fetch(b).tobytes()
            for b in range(device.allocated_blocks)]


# ----------------------------------------------------------------------
# Equivalence property
# ----------------------------------------------------------------------
_bid = st.integers(min_value=0, max_value=NBLOCKS - 1)
_bids = st.lists(_bid, min_size=1, max_size=2 * NBLOCKS)
_fill = st.integers(min_value=0, max_value=99)

_op = st.one_of(
    st.tuples(st.just("get"), _bid, st.none() | _fill),
    st.tuples(st.just("get_many"), _bids),
    st.tuples(st.just("put"), _bid, _fill),
    st.tuples(st.just("put_many"), _bids, _fill),
    st.tuples(st.just("prefetch"), _bids),
    st.tuples(st.just("flush"), st.none() | _bid),
)


def _apply(pool, op):
    """Run one op; returns what the caller saw."""
    kind = op[0]
    if kind == "get":
        frame = pool.get(op[1])
        if op[2] is not None:
            frame[:] = op[2]
            pool.mark_dirty(op[1])
        return frame.tobytes()
    if kind == "get_many":
        return [f.tobytes() for f in pool.get_many(op[1])]
    if kind == "put":
        return pool.put(op[1], np.full(BLOCK, op[2], dtype=np.uint8))
    if kind == "put_many":
        pages = (np.arange(len(op[1]), dtype=np.uint8)[:, None]
                 + np.full(BLOCK, op[2], dtype=np.uint8))
        return pool.put_many(op[1], pages)
    if kind == "prefetch":
        return pool.prefetch(op[1])
    return pool.flush(op[1])


@settings(max_examples=300, deadline=None)
@given(ops=st.lists(_op, min_size=1, max_size=40),
       capacity=st.integers(min_value=1, max_value=8),
       enabled=st.booleans())
def test_property_same_pool_as_one_write_per_victim(ops, capacity, enabled):
    new = _make(BufferPool, capacity, enabled)
    ref = _make(OneWritePerVictimPool, capacity, enabled)
    for op in ops:
        assert _apply(new, op) == _apply(ref, op)
        assert not new._pending
        assert new.stats == ref.stats
        assert list(new._frames) == list(ref._frames)
        assert new._dirty == ref._dirty
        a, b = new.device.stats, ref.device.stats
        for field in ("reads", "writes", "read_calls", "bytes_read",
                      "bytes_written", "prefetched"):
            assert getattr(a, field) == getattr(b, field), field
        assert a.write_calls <= b.write_calls
    for pool in (new, ref):
        pool.flush_all()
    assert _contents(new.device) == _contents(ref.device)
    assert new.device.stats.writes == ref.device.stats.writes
    assert new.device.stats.write_calls <= ref.device.stats.write_calls


def test_batch_of_adjacent_victims_is_one_device_call():
    new = _make(BufferPool, 4)
    ref = _make(OneWritePerVictimPool, 4)
    pages = np.zeros((4, BLOCK), dtype=np.uint8)
    for pool in (new, ref):
        pool.put_many([0, 1, 2, 3], pages + 1)
        pool.device.reset_stats()
        pool.put_many([4, 5, 6, 7], pages + 2)  # evicts 0..3, all dirty
    assert new.stats == ref.stats and new.stats.dirty_writebacks == 4
    assert new.device.stats.writes == ref.device.stats.writes == 4
    assert ref.device.stats.write_calls == 4
    assert new.device.stats.write_calls == 1


def test_pending_set_is_bounded():
    nblocks = 3 * MAX_PENDING_WRITEBACKS
    pool = _make(BufferPool, nblocks, nblocks=2 * nblocks)
    pages = np.zeros((nblocks, BLOCK), dtype=np.uint8)
    pool.put_many(list(range(nblocks)), pages)
    parked: list[int] = []
    write_back = pool.scheduler.write_back

    def spy(items):
        parked.append(len(items))
        write_back(items)

    pool.scheduler.write_back = spy
    pool.put_many(list(range(nblocks, 2 * nblocks)), pages)
    assert parked == [MAX_PENDING_WRITEBACKS] * 3
    assert pool.stats.dirty_writebacks == nblocks
    assert pool.device.stats.write_calls == 3


# ----------------------------------------------------------------------
# Hazards
# ----------------------------------------------------------------------
class RecordingDevice(BlockDevice):
    """Remembers every physical block write, in order."""

    def __init__(self, **kw) -> None:
        super().__init__(**kw)
        self.log: list[tuple[int, int]] = []

    def _write_run(self, first, bufs):
        self.log.extend((first + k, int(buf[0]))
                        for k, buf in enumerate(bufs))
        super()._write_run(first, bufs)


def _page(fill):
    return np.full(BLOCK, fill, dtype=np.uint8)


@pytest.mark.parametrize("enabled", [True, False])
def test_get_many_refetch_of_own_dirty_victim_sees_new_bytes(enabled):
    """(a) get_many's installs evict a dirty block that appears later
    in the same call: the re-fault must read what was evicted, not what
    the device held before."""
    pool = _make(BufferPool, 4, enabled=enabled)
    pool.get(0)[:] = 7
    pool.mark_dirty(0)
    frames = pool.get_many([1, 2, 3, 4, 5, 0])
    assert [int(f[0]) for f in frames] == [101, 102, 103, 104, 105, 7]
    assert int(pool.device._fetch(0)[0]) == 7
    assert pool.stats.dirty_writebacks == 1 and not pool._pending


def test_block_evicted_twice_in_one_call_is_written_twice_in_order():
    """(b) A block parked once is drained before it is parked again, so
    its two write-backs reach the device oldest first."""
    device = RecordingDevice(block_size=BLOCK)
    device.allocate(8)
    pool = BufferPool(device, 2)
    batch = [0, 1, 2, 0, 3, 4]
    pages = np.stack([_page(10 + i) for i in range(len(batch))])
    pool.put_many(batch, pages)
    assert [fill for bid, fill in device.log if bid == 0] == [10, 13]
    assert int(device._fetch(0)[0]) == 13
    assert pool.stats.dirty_writebacks == 4 == device.stats.writes
    pool.flush_all()
    assert [int(device._fetch(b)[0]) for b in range(5)] \
        == [13, 11, 12, 14, 15]


class _ExhaustedAfter(LRUPolicy):
    """LRU that runs out of victims after ``n`` choices, made one at a
    time in a batch too, so a batch fails part-way."""

    def __init__(self, n: int) -> None:
        super().__init__()
        self.left = n

    def choose_victims(self, n):
        for _ in range(n):
            if self.left == 0:
                raise RuntimeError("policy double ran out of victims")
            self.left -= 1
            yield from super().choose_victims(1)


@pytest.mark.parametrize("call, evicted", [
    ("put_many", 2), ("get_many", 2), ("prefetch", 1)])
def test_error_midway_still_persists_what_was_evicted(call, evicted):
    """(c) A call that fails after evicting dirty blocks must not lose
    them: they are no longer in the pool, so the device is their only
    home."""
    device = BlockDevice(block_size=BLOCK)
    device.allocate(12)
    pool = BufferPool(device, 3, policy=_ExhaustedAfter(evicted))
    pool.put_many([0, 1, 2], np.stack([_page(f) for f in (50, 51, 52)]))
    assert device.stats.writes == 0
    with pytest.raises(RuntimeError, match="ran out of victims"):
        if call == "put_many":
            pool.put_many([5, 6, 7], np.stack([_page(9)] * 3))
        elif call == "get_many":
            pool.get_many([5, 6, 7])
        else:
            pool.prefetch([5, 6])
    assert not pool._pending
    gone = list(range(evicted))
    assert not set(gone) & set(pool._frames)
    assert [int(device._fetch(b)[0]) for b in gone] == [50, 51][:evicted]
    assert pool.stats.dirty_writebacks == evicted == device.stats.writes


class TestDeferredWriteUnderSanitizer:
    """(d) A deferred write leaves nothing parked when a kernel span
    closes, and writes what an in-place mutator left in the frame."""

    @staticmethod
    def _pool(capacity=3):
        device = BlockDevice(block_size=BLOCK)
        device.allocate(12)
        pool = SanitizingBufferPool(device, capacity)
        tracer = Tracer(enabled=False)
        pool.attach_tracer(tracer)
        return pool, tracer

    def test_nothing_parked_across_a_deferred_write(self):
        pool, tracer = self._pool()
        with tracer.span("writer", cat="kernel"):
            pool.put_many([0, 1, 2], np.stack([_page(1)] * 3))
            with pool.lock:        # an in-place mutation, as contracted
                for bid in (0, 1, 2):
                    pool.get(bid)[:] = 20 + bid
                    pool.mark_dirty(bid)
            pool.put_many([3, 4], np.stack([_page(2)] * 2))
        assert not pool._pending
        assert pool.device.stats.write_calls == 1
        assert [int(pool.device._fetch(b)[0]) for b in (0, 1)] == [20, 21]
