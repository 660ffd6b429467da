"""Batches through the pool: one pass, exactly the per-block walk.

``prefetch``, and ``get_many`` / ``put_many`` on blocks none of which
is resident, evict the whole batch's victims up front and install it at
once.  Nobody may be able to tell: against :class:`PerBlockPool` — the
same pool forced to make room install by install, as every batch call
did before — every ``PoolStats`` field, every ``IOStats`` counter but
the physical ones (syscalls and nanoseconds), the resident frames in
their order, the dirty and prefetched sets and the device's bytes stay
equal, with dirty victims and batches that fill the pending write-back
set.

The rest pins the one-pass helpers the run path leans on: page
allocation and a range's block ids are what the one-at-a-time code
gave, and ``coalesce_runs`` short-cuts a sorted run.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import (ArrayStore, BlockDevice, BufferPool,
                           FileBlockDevice, IOScheduler, StorageConfig,
                           coalesce_runs)
from repro.storage.block_device import _IOSTAT_FIELDS
from repro.storage.buffer_pool import MAX_PENDING_WRITEBACKS
from repro.storage.pagefile import EXTENT_PAGES, PageFile

BLOCK = 64
NBLOCKS = 5 * MAX_PENDING_WRITEBACKS


class PerBlockPool(BufferPool):
    """The reference: each install makes its own room, one victim at a
    time, whatever the batch."""

    def _make_room(self, n: int) -> bool:
        # Room for one install only: a larger batch walks.
        return n == 1 and super()._make_room(1)

    def _install(self, ids: list[int], rows: np.ndarray) -> None:
        # Reached from prefetch too, which installs without asking
        # whether room was made.
        for k, bid in enumerate(ids):
            super()._make_room(1)
            super()._install([bid], rows[k:k + 1])


def _make(cls, capacity, backend):
    device = (BlockDevice(block_size=BLOCK) if backend == "memory"
              else FileBlockDevice(mode=backend, block_size=BLOCK))
    first = device.allocate(NBLOCKS)
    device.write_blocks(
        (first + i, np.full(BLOCK, i % 251, dtype=np.uint8))
        for i in range(NBLOCKS))
    device.reset_stats()
    return cls(device, capacity, scheduler=IOScheduler(device))


_start = st.integers(0, NBLOCKS - 1)
_batch = st.tuples(_start, st.integers(1, 2 * MAX_PENDING_WRITEBACKS),
                   st.booleans())          # start, length, shuffled
_op = st.one_of(
    st.tuples(st.just("prefetch"), _batch),
    st.tuples(st.just("get_many"), _batch),
    st.tuples(st.just("put_many"), _batch, st.integers(0, 255)),
    st.tuples(st.just("get"), _start, st.booleans()),
    st.tuples(st.just("flush"), st.none() | _start),
)


def _ids(batch, rng_seed):
    start, length, shuffled = batch
    ids = [b % NBLOCKS for b in range(start, start + length)]
    if shuffled:
        np.random.default_rng(rng_seed).shuffle(ids)
    return ids


def _apply(pool, op, seed):
    kind = op[0]
    if kind == "prefetch":
        return pool.prefetch(_ids(op[1], seed))
    if kind == "get_many":
        return [f.tobytes() for f in pool.get_many(_ids(op[1], seed))]
    if kind == "put_many":
        ids = _ids(op[1], seed)
        pages = (np.arange(len(ids), dtype=np.uint8)[:, None]
                 + np.full(BLOCK, op[2], dtype=np.uint8))
        return pool.put_many(ids, pages)
    if kind == "get":
        frame = pool.get(op[1])
        if op[2]:
            frame[:] = 7
            pool.mark_dirty(op[1])
        return frame.tobytes()
    return pool.flush(op[1])


def _state(pool):
    io = pool.device.stats
    return (pool.stats, list(pool._frames), pool._dirty, pool._prefetched,
            {f: getattr(io, f) for f in _IOSTAT_FIELDS
             if f not in ("syscalls", "read_ns", "write_ns")},
            [pool._frames[b].tobytes() for b in pool._frames])


@settings(max_examples=150, deadline=None)
@given(ops=st.lists(_op, min_size=1, max_size=25),
       capacity=st.integers(2, 2 * MAX_PENDING_WRITEBACKS),
       backend=st.sampled_from(["memory", "pread"]),
       seed=st.integers(0, 2 ** 16))
def test_batches_match_the_per_block_walk(ops, capacity, backend, seed):
    new = _make(BufferPool, capacity, backend)
    ref = _make(PerBlockPool, capacity, backend)
    try:
        for op in ops:
            assert _apply(new, op, seed) == _apply(ref, op, seed)
            assert not new._pending and not ref._pending
            assert _state(new) == _state(ref)
        for pool in (new, ref):
            pool.flush_all()
        assert _state(new) == _state(ref)
        assert [new.device._read_run(b, 1).tobytes()
                for b in range(NBLOCKS)] == \
            [ref.device._read_run(b, 1).tobytes() for b in range(NBLOCKS)]
    finally:
        new.device.close()
        ref.device.close()


def test_a_batch_fills_the_pending_set_as_the_walk_does():
    """Two full pending sets and a remainder: the batch drains where
    the walk drains."""
    calls = {}
    for cls in (BufferPool, PerBlockPool):
        pool = _make(cls, 2 * MAX_PENDING_WRITEBACKS + 8, "memory")
        n = pool.capacity
        pool.put_many(list(range(n)), np.zeros((n, BLOCK), np.uint8))
        batches = []
        write_back = pool.scheduler.write_back
        pool.scheduler.write_back = lambda items, wb=write_back: (
            batches.append([bid for bid, _ in items]), wb(items))
        pool.get_many(list(range(n, 2 * n)))
        calls[cls] = batches
    assert calls[BufferPool] == calls[PerBlockPool]
    assert [len(b) for b in calls[BufferPool]] == \
        [MAX_PENDING_WRITEBACKS, MAX_PENDING_WRITEBACKS, 8]


# ----------------------------------------------------------------------
# One-pass helpers: the same ids the one-at-a-time code gave
# ----------------------------------------------------------------------
def _one_page_at_a_time(file: PageFile, count: int) -> list[int]:
    """What ``allocate_pages`` did before: ``allocate_page`` per page,
    one extent of ``EXTENT_PAGES`` blocks claimed whenever the last ran
    out."""
    pages = []
    for _ in range(count):
        if file._freed_pages:
            pages.append(file._freed_pages.pop())
            continue
        if not file._extent_free:
            first = file.device.allocate(EXTENT_PAGES)
            file._extent_free = range(first, first + EXTENT_PAGES)
        file._page_to_block.append(file._extent_free[0])
        file._extent_free = file._extent_free[1:]
        pages.append(len(file._page_to_block) - 1)
    return pages


@settings(max_examples=60, deadline=None)
@given(steps=st.lists(st.tuples(st.sampled_from(["alloc", "free"]),
                                st.integers(0, 3 * EXTENT_PAGES)),
                      min_size=1, max_size=12))
def test_bulk_page_allocation_claims_the_same_blocks(steps):
    files = []
    for bulk in (True, False):
        device = BlockDevice(block_size=BLOCK)
        file, other = PageFile(device, "f"), PageFile(device, "g")
        got = []
        for kind, n in steps:
            if kind == "free":
                if file.num_pages:
                    file.free_page(n % file.num_pages)
                other.allocate_pages(n % 5)   # interleaved growth
            elif bulk:
                got.append(file.allocate_pages(n))
            else:
                got.append(_one_page_at_a_time(file, n))
        files.append((got, file.page_map, list(file._extent_free),
                      device.allocated_blocks))
    assert files[0] == files[1]


def test_a_chunk_range_is_one_slice_of_the_page_map():
    store = ArrayStore(StorageConfig(block_size=512))
    vec = store.create_vector(2000, chunk=16)
    for lo, hi in [(0, 125), (3, 77), (124, 125), (5, 5)]:
        assert vec.blocks_for_chunks(range(lo, hi)) == \
            [vec.file.block_of(c) for c in range(lo, hi)]
    for bad in (range(-1, 3), range(120, 126)):
        with pytest.raises(IndexError):
            vec.blocks_for_chunks(bad)


@pytest.mark.parametrize("ids", [[4, 5, 6, 7], [9], [3, 4, 6], [2, 1],
                                 [5, 6, 5], []])
def test_coalesce_runs_short_cut_changes_nothing(ids):
    runs = []
    for bid in ids:
        if runs and bid == runs[-1][0] + runs[-1][1]:
            runs[-1] = (runs[-1][0], runs[-1][1] + 1)
        else:
            runs.append((bid, 1))
    assert coalesce_runs(ids) == runs
