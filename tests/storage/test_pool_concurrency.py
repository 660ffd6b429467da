"""Concurrency stress tests for the thread-safe buffer pool.

N threads hammer get/get_many/get_run/prefetch/put_many/eviction on one
pool and the invariants that concurrent pool users depend on must
hold: no evicted dirty frame is left parked, residency never exceeds
capacity, no IOStats or PoolStats increment is lost, and data read back
is what was written.
The suite also runs under ``REPRO_SANITIZE=1`` in the CI sanitize job.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import BlockDevice, BufferPool


def _fill_device(dev: BlockDevice, n: int) -> list[int]:
    first = dev.allocate(n)
    for i in range(n):
        dev.write_block(first + i,
                        np.full(dev.block_size // 8, float(i)).view(np.uint8))
    return list(range(first, first + n))


def _pages(dev: BlockDevice, n: int, value: float) -> np.ndarray:
    """``n`` fresh pages of float64 ``value`` (``put_many`` adopts
    them, so each call gets its own)."""
    return np.full((n, dev.block_size // 8), float(value)).view(np.uint8)


def _run_threads(workers) -> None:
    """Start, join (bounded), and re-raise the first worker failure."""
    errors: list[BaseException] = []

    def wrap(fn):
        def run():
            try:
                fn()
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)
        return run

    threads = [threading.Thread(target=wrap(fn)) for fn in workers]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive(), "a pool worker hung"
    if errors:
        raise errors[0]


class TestConcurrentReads:
    def test_no_lost_stats_increments(self, device):
        # Pool big enough that nothing evicts: each of the 64 blocks
        # must miss exactly once no matter how 8 threads interleave —
        # a lost or double increment shows up in the exact totals.
        nblocks, nthreads = 64, 8
        blocks = _fill_device(device, nblocks)
        pool = BufferPool(device, nblocks + 4)
        baseline_reads = device.stats.reads

        def reader():
            for bid in blocks:
                pool.get(bid)

        _run_threads([reader] * nthreads)
        assert pool.stats.misses == nblocks
        assert pool.stats.hits == nblocks * (nthreads - 1)
        assert device.stats.reads - baseline_reads == nblocks
        assert pool.resident == nblocks

    def test_values_correct_under_eviction_pressure(self, device):
        nblocks = 48
        blocks = _fill_device(device, nblocks)
        pool = BufferPool(device, 6)

        def reader(stride: int):
            def run():
                for i in range(nblocks):
                    pick = (i * stride) % nblocks
                    frame = pool.get(blocks[pick])
                    assert frame.view(np.float64)[0] == float(pick)
            return run

        _run_threads([reader(s) for s in (1, 3, 5, 7)])
        assert pool.resident <= 6

    def test_batch_calls_leave_nothing_parked(self, device):
        """Threads read shared blocks in batches and write their own,
        in a pool too small for either, so every call evicts and the
        writes leave dirty victims to park and drain."""
        nthreads, rounds = 6, 10
        shared = _fill_device(device, 16)
        pool = BufferPool(device, 10)
        owned = [list(range(first, first + 4)) for first in
                 (device.allocate(4) for _ in range(nthreads))]

        def worker(t: int):
            def run():
                for r in range(rounds):
                    window = shared[(3 * t + r) % 12:][:4]
                    pool.prefetch(window)
                    pool.get_many(window)
                    pool.get_run(window[::-1])
                    pool.put_many(owned[t], _pages(device, 4, 100 * t + r))
            return run

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)        # switch threads mid-call
        try:
            _run_threads([worker(t) for t in range(nthreads)])
        finally:
            sys.setswitchinterval(interval)
        assert not pool._pending
        assert pool.resident <= pool.capacity
        assert pool.stats.accesses == nthreads * rounds * 12
        assert pool.stats.dirty_writebacks > 0
        pool.flush_all()
        for t, bids in enumerate(owned):
            for bid in bids:
                assert device.read_block(bid).view(np.float64)[0] \
                    == 100 * t + rounds - 1

    def test_concurrent_prefetch_and_demand(self, device):
        nblocks = 32
        blocks = _fill_device(device, nblocks)
        pool = BufferPool(device, nblocks + 2)
        baseline_reads = device.stats.reads

        def prefetcher():
            for i in range(0, nblocks, 8):
                pool.prefetch(blocks[i:i + 8])

        def reader():
            for bid in blocks:
                pool.get(bid)

        _run_threads([prefetcher, reader, prefetcher, reader])
        # Every block crossed the device exactly once: prefetch and
        # demand fetches are serialized by the pool lock, and a
        # resident block is never re-fetched.
        assert device.stats.reads - baseline_reads == nblocks


class TestConcurrentWrites:
    def test_disjoint_puts_then_flush_readback(self, device):
        nthreads, per_thread = 4, 12
        first = device.allocate(nthreads * per_thread)
        pool = BufferPool(device, nthreads * per_thread + 2)
        width = device.block_size

        def writer(t: int):
            def run():
                for i in range(per_thread):
                    bid = first + t * per_thread + i
                    pool.put(bid, np.full(width, t * 16 + i,
                                          dtype=np.uint8))
            return run

        _run_threads([writer(t) for t in range(nthreads)])
        pool.flush_all()
        pool.clear()
        for t in range(nthreads):
            for i in range(per_thread):
                bid = first + t * per_thread + i
                assert device.read_block(bid)[0] == t * 16 + i

    def test_latched_mutation_then_flush(self, device):
        """In-place mutators hold ``pool.lock`` across the write and
        call ``mark_dirty``, while other threads' faults evict and write
        back the very frames being mutated; every mutation survives the
        flush."""
        nblocks, rounds = 12, 20
        blocks = _fill_device(device, nblocks)
        pool = BufferPool(device, 4)
        mutated = blocks[:nblocks // 2]

        def mutator(offset: int):
            def run():
                for r in range(rounds):
                    for bid in mutated[offset::2]:
                        with pool.lock:
                            frame = pool.get(bid)
                            frame.view(np.float64)[:] = 1000.0 * r + bid
                            pool.mark_dirty(bid)
            return run

        def evictor():
            for _ in range(rounds):
                for bid in blocks[nblocks // 2:]:
                    pool.get(bid)

        _run_threads([mutator(0), mutator(1), evictor, evictor])
        assert pool.stats.dirty_writebacks > 0
        pool.flush_all()
        for bid in mutated:
            page = device.read_block(bid).view(np.float64)
            assert (page == 1000.0 * (rounds - 1) + bid).all()


@settings(max_examples=15, deadline=None)
@given(capacity=st.integers(min_value=4, max_value=24),
       nthreads=st.integers(min_value=2, max_value=6),
       seed=st.integers(min_value=0, max_value=2**16))
def test_property_invariants_under_random_interleaving(
        capacity, nthreads, seed):
    """Random batches over shared blocks (``get_many``, ``get_run``,
    ``prefetch``) and over blocks each thread owns (``put_many``)."""
    device = BlockDevice(block_size=8192)
    nblocks = 40
    shared = _fill_device(device, nblocks)
    owned = [list(range(first, first + 4)) for first in
             (device.allocate(4) for _ in range(nthreads))]
    pool = BufferPool(device, capacity)
    rng = np.random.default_rng(seed)
    plans = [[(int(kind), int(lo), int(n)) for kind, lo, n in zip(
        rng.integers(0, 4, 30), rng.integers(0, nblocks, 30),
        rng.integers(1, 9, 30))] for _ in range(nthreads)]
    requested = [0] * nthreads
    last = [dict.fromkeys(bids, 0.0) for bids in owned]   # unwritten

    def worker(w: int, plan: list[tuple[int, int, int]]):
        def run():
            for j, (kind, lo, n) in enumerate(plan):
                picks = [(lo + k) % nblocks for k in range(n)]
                bids = [shared[p] for p in picks]
                if kind == 0:
                    pool.prefetch(bids)
                elif kind == 3:
                    mine = owned[w][:n % 4 + 1]
                    pool.put_many(mine, _pages(device, len(mine), j + 1))
                    last[w].update(dict.fromkeys(mine, float(j + 1)))
                    requested[w] += len(mine)
                else:
                    with pool.lock:
                        got = (pool.get_many(bids) if kind == 1
                               else pool.get_run(bids))
                        values = [f.view(np.float64)[0] for f in got]
                    assert values == [float(p) for p in picks]
                    requested[w] += n
        return run

    _run_threads([worker(w, p) for w, p in enumerate(plans)])
    assert not pool._pending
    assert pool.resident <= capacity
    # Conservation: every requested block is exactly one hit or one
    # miss — none lost, none double-counted, even with eviction in the
    # mix.
    assert pool.stats.accesses == sum(requested)
    pool.flush_all()
    for mine in last:
        for bid, value in mine.items():
            assert device.read_block(bid).view(np.float64)[0] == value


def test_pool_lock_is_reentrant(device):
    pool = BufferPool(device, 4)
    # Re-entrancy is part of the contract: sanitizer overrides and
    # nested internal calls re-acquire freely.
    with pool.lock:
        with pool.lock:
            blocks = _fill_device(device, 1)
            pool.get(blocks[0])
