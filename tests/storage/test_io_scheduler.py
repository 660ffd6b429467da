"""Unit tests for the prefetching I/O scheduler and batched device I/O."""

import numpy as np
import pytest

from repro.storage import (ArrayStore, BlockDevice, BufferPool, IOScheduler,
                           StorageConfig, coalesce_runs)


#: The scheduler's claim on the on/off comparisons below: hints and
#: coalescing save at least a quarter of the read calls, while blocks
#: and result bits stay equal.
MAX_CALL_RATIO = 0.75


def _fill(dev: BlockDevice, n: int) -> list[int]:
    first = dev.allocate(n)
    for i in range(n):
        dev.write_block(first + i,
                        np.full(dev.block_size // 8, float(i)).view(np.uint8))
    return list(range(first, first + n))


class TestCoalesceRuns:
    def test_adjacent_ids_form_one_run(self):
        assert coalesce_runs([3, 4, 5, 6]) == [(3, 4)]

    def test_gaps_split_runs(self):
        assert coalesce_runs([1, 2, 9, 10, 20]) == [(1, 2), (9, 2), (20, 1)]

    def test_descending_ids_never_coalesce(self):
        assert coalesce_runs([5, 4, 3]) == [(5, 1), (4, 1), (3, 1)]

    def test_empty(self):
        assert coalesce_runs([]) == []


class TestBatchedDeviceIO:
    def test_read_blocks_matches_per_block_reads(self, device):
        blocks = _fill(device, 8)
        batched = device.read_blocks(blocks)
        single = [device.read_block(b) for b in blocks]
        for got, want in zip(batched, single):
            assert np.array_equal(got, want)

    def test_read_blocks_charges_block_totals(self, device):
        blocks = _fill(device, 8)
        device.reset_stats()
        device.read_blocks(blocks)
        # 8 blocks moved in 1 call: totals stay truthful, calls shrink.
        assert device.stats.reads == 8
        assert device.stats.read_calls == 1
        assert device.stats.coalesced_ios == 7

    def test_read_blocks_with_gap_costs_two_calls(self, device):
        blocks = _fill(device, 10)
        device.reset_stats()
        device.read_blocks(blocks[:3] + blocks[6:])
        assert device.stats.reads == 7
        assert device.stats.read_calls == 2

    def test_run_interior_is_sequential(self, device):
        blocks = _fill(device, 8)
        device.reset_stats()
        device.read_blocks(blocks)
        assert device.stats.seq_reads == 7
        assert device.stats.rand_reads == 1

    def test_write_blocks_roundtrip_and_accounting(self, device):
        blocks = _fill(device, 4)
        device.reset_stats()
        payload = [(b, np.full(device.block_size, i, dtype=np.uint8))
                   for i, b in enumerate(blocks)]
        device.write_blocks(payload)
        assert device.stats.writes == 4
        assert device.stats.write_calls == 1
        for i, b in enumerate(blocks):
            assert device.read_block(b)[0] == i

    def test_read_blocks_checks_range(self, device):
        with pytest.raises(IndexError):
            device.read_blocks([0])

    def test_single_block_ops_count_one_call(self, device):
        blocks = _fill(device, 1)
        device.reset_stats()
        device.read_block(blocks[0])
        assert device.stats.read_calls == 1
        assert device.stats.coalesced_ios == 0


class TestPoolReadahead:
    """Reading ahead through the pool: announced hints and coalesced
    misses, never a guess."""

    def test_disabled_scheduler_reads_per_block(self, device):
        """The hint-free reference path: hints are ignored, every block
        is its own device call, and no batch is reported coalesced."""
        blocks = _fill(device, 16)
        pool = BufferPool(device, 8)
        pool.scheduler.enabled = False
        device.reset_stats()
        for lo in range(0, 16, 4):
            assert pool.prefetch(blocks[lo:lo + 4]) == 0
            pool.get_many(blocks[lo:lo + 4])
        for bid in blocks[:4]:
            pool.get(bid)
            pool.mark_dirty(bid)
        pool.flush_all()
        assert device.stats.reads == device.stats.read_calls == 20
        assert device.stats.writes == device.stats.write_calls == 4
        assert device.stats.prefetched == 0
        assert device.stats.coalesced_ios == 0
        assert pool.scheduler.stats.coalesced_batches == 0
        assert pool.scheduler.stats.hint_batches == 0

    def test_get_many_coalesces_misses(self, device):
        blocks = _fill(device, 8)
        pool = BufferPool(device, 16)
        device.reset_stats()
        frames = pool.get_many(blocks)
        assert device.stats.reads == 8
        assert device.stats.read_calls == 1
        assert pool.stats.misses == 8
        for i, frame in enumerate(frames):
            assert frame.view(np.float64)[0] == float(i)

    def test_get_many_counts_hits(self, device):
        blocks = _fill(device, 4)
        pool = BufferPool(device, 16)
        pool.get_many(blocks)
        device.reset_stats()
        pool.get_many(blocks)
        assert device.stats.reads == 0
        assert pool.stats.hits == 4

    def test_flush_all_coalesces_writebacks(self, device):
        blocks = _fill(device, 8)
        pool = BufferPool(device, 16)
        for bid in blocks:
            pool.get(bid)
            pool.mark_dirty(bid)
        device.reset_stats()
        pool.flush_all()
        assert device.stats.writes == 8
        assert device.stats.write_calls == 1


class TestStatsContract:
    def test_snapshot_delta_cover_new_counters(self, device):
        blocks = _fill(device, 8)
        pool = BufferPool(device, 8)
        snap = device.stats.snapshot()
        pool.prefetch(blocks[:4])
        for bid in blocks:
            pool.get(bid)
        delta = device.stats.delta(snap)
        assert delta.reads == 8
        assert delta.read_calls == delta.reads - delta.coalesced_ios
        assert delta.prefetched == 4
        assert delta.readahead_hits == 4

    def test_store_level_totals_invariant(self):
        """Scheduler on/off must not change block totals on a cold
        scan, only cut its read calls (64 -> 10)."""
        runs = {}
        for enabled in (False, True):
            store = ArrayStore(StorageConfig(
                memory_bytes=16 * 8192, scheduler=enabled))
            vec = store.create_vector(64 * 1024)
            vec.from_numpy(np.arange(64 * 1024, dtype=np.float64))
            store.pool.clear()
            store.reset_stats()
            values = vec.to_numpy()
            runs[enabled] = (store.device.stats.total,
                             store.device.stats.read_calls, values)
        on, off = runs[True], runs[False]
        assert on[0] == off[0]
        assert on[1] <= MAX_CALL_RATIO * off[1]
        assert np.array_equal(on[2], off[2])

    def test_streaming_totals_invariant_under_tight_pool(self):
        """Multi-source fused streaming in a small pool: prefetch must
        not evict its own window before use (no wasted prefetch, no
        inflated block totals — the bug a fixed-size lookahead had),
        and must cut the read calls (392 -> 40)."""
        from repro.core.evaluator import Evaluator
        from repro.core.expr import ArrayInput, Map

        results = {}
        for enabled in (False, True):
            store = ArrayStore(StorageConfig(
                memory_bytes=32 * 8192, scheduler=enabled))
            n = 200_000
            x = store.vector_from_numpy(np.arange(n, dtype=np.float64))
            y = store.vector_from_numpy(np.ones(n))
            store.pool.clear()
            store.reset_stats()
            out = Evaluator(store).force(
                Map("+", ArrayInput(x), ArrayInput(y)))
            results[enabled] = (store.device.stats.reads,
                                store.pool.stats.prefetch_wasted,
                                out.to_numpy(),
                                store.device.stats.read_calls)
        assert results[True][0] == results[False][0]
        assert results[True][1] == 0
        assert np.array_equal(results[True][2], results[False][2])
        assert results[True][3] <= MAX_CALL_RATIO * results[False][3]


class TestFetchPrefetchAccounting:
    def test_hinted_duplicate_ids_count_once(self, device):
        blocks = _fill(device, 8)
        sched = IOScheduler(device)
        device.reset_stats()
        sched.fetch([blocks[0], blocks[3], blocks[3]], hinted=True)
        assert device.stats.prefetched == 2
        assert device.stats.reads == 2
        assert sched.stats.hint_batches == 1
        assert sched.stats.hinted_blocks == 2

    def test_unhinted_fetch_charges_no_prefetch(self, device):
        blocks = _fill(device, 8)
        sched = IOScheduler(device)
        device.reset_stats()
        sched.fetch(blocks[:4])
        assert device.stats.reads == 4
        assert device.stats.prefetched == 0
        assert sched.stats.hint_batches == sched.stats.hinted_blocks == 0


class TestSchedulerEvictionRaces:
    def test_readahead_never_orphans_dirty_blocks(self, device):
        """Prefetch installs evict dirty frames in a tiny pool; no
        dirty id may ever be left without a frame (the next flush
        would crash on it)."""
        first = device.allocate(32)
        for i in range(32):
            device.write_block(
                first + i,
                np.full(device.block_size // 8, float(i)).view(np.uint8))
        pool = BufferPool(device, 3)
        rng = np.random.default_rng(0)
        for _ in range(2000):
            if rng.random() < 0.5:
                pool.prefetch([first + int(b)
                               for b in rng.integers(0, 32, size=2)])
            bid = first + int(rng.integers(0, 32))
            pool.get(bid)
            pool.mark_dirty(bid)
            assert not (pool._dirty - set(pool._frames))
        pool.flush_all()

    def test_matmul_hint_in_undersized_pool_keeps_totals(self):
        """Nested hints (matmul announcing a submatrix whose tiles then
        announce themselves) in a pool far smaller than the announced
        footprint: prefetch budgeting must not double-read blocks."""
        from repro.linalg import square_tile_matmul

        def run(enabled):
            rng = np.random.default_rng(1)
            a_np = rng.standard_normal((192, 192))
            b_np = rng.standard_normal((192, 192))
            store = ArrayStore(StorageConfig(
                memory_bytes=4 * 8192, scheduler=enabled))
            a = store.matrix_from_numpy(a_np, layout="square")
            b = store.matrix_from_numpy(b_np, layout="square")
            store.pool.clear()
            store.reset_stats()
            out = square_tile_matmul(store, a, b, 48 * 1024)
            store.flush()
            return (store.device.stats.reads,
                    store.pool.stats.prefetch_wasted, out.to_numpy(),
                    store.device.stats.read_calls)

        # reads equal, nothing wasted, results bitwise identical, and
        # fewer read calls (144 -> 64)
        on, off = run(True), run(False)
        assert on[0] == off[0]
        assert on[1] == 0
        assert np.array_equal(on[2], off[2])
        assert on[3] <= MAX_CALL_RATIO * off[3]
