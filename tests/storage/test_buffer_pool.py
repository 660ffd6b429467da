"""Unit tests for the buffer pool and its LRU replacement."""

from unittest import mock

import numpy as np
import pytest

from repro.analysis import SanitizingBufferPool
from repro.storage import BlockDevice, BufferPool
from repro.storage.buffer_pool import retained_bytes


def _fill_device(dev: BlockDevice, n: int) -> list[int]:
    first = dev.allocate(n)
    for i in range(n):
        dev.write_block(first + i,
                        np.full(dev.block_size // 8, float(i)).view(np.uint8))
    return list(range(first, first + n))


class TestBasics:
    def test_hit_costs_no_io(self, device):
        blocks = _fill_device(device, 2)
        pool = BufferPool(device, 4)
        pool.get(blocks[0])
        before = device.stats.total
        pool.get(blocks[0])
        assert device.stats.total == before
        assert pool.stats.hits == 1

    def test_miss_reads_device(self, device):
        blocks = _fill_device(device, 1)
        pool = BufferPool(device, 4)
        before = device.stats.reads
        pool.get(blocks[0])
        assert device.stats.reads == before + 1

    def test_capacity_never_exceeded(self, device):
        blocks = _fill_device(device, 32)
        pool = BufferPool(device, 8)
        for bid in blocks:
            pool.get(bid)
            assert pool.resident <= 8

    def test_invalid_capacity(self, device):
        with pytest.raises(ValueError):
            BufferPool(device, 0)

    def test_put_skips_read(self, device):
        dev_blocks = _fill_device(device, 1)
        pool = BufferPool(device, 4)
        before = device.stats.reads
        pool.put(dev_blocks[0], np.zeros(device.block_size, np.uint8))
        assert device.stats.reads == before


class TestDirtyWriteback:
    def test_dirty_page_written_on_eviction(self, device):
        blocks = _fill_device(device, 3)
        pool = BufferPool(device, 2)
        pool.get(blocks[0])
        pool.mark_dirty(blocks[0])
        writes_before = device.stats.writes
        pool.get(blocks[1])
        pool.get(blocks[2])  # evicts block 0, which is dirty
        assert device.stats.writes == writes_before + 1

    def test_clean_page_eviction_is_free(self, device):
        blocks = _fill_device(device, 3)
        pool = BufferPool(device, 2)
        pool.get(blocks[0])
        writes_before = device.stats.writes
        pool.get(blocks[1])
        pool.get(blocks[2])
        assert device.stats.writes == writes_before

    def test_flush_persists_changes(self, device):
        blocks = _fill_device(device, 1)
        pool = BufferPool(device, 2)
        frame = pool.get(blocks[0])
        frame[:8] = 255
        pool.mark_dirty(blocks[0])
        pool.flush_all()
        pool.invalidate(blocks[0])
        assert pool.get(blocks[0])[0] == 255

    def test_mark_dirty_requires_residency(self, device):
        blocks = _fill_device(device, 1)
        pool = BufferPool(device, 2)
        with pytest.raises(KeyError):
            pool.mark_dirty(blocks[0])


class TestPolicies:
    def test_lru_evicts_least_recent(self, device):
        blocks = _fill_device(device, 3)
        pool = BufferPool(device, 2)
        pool.get(blocks[0])
        pool.get(blocks[1])
        pool.get(blocks[0])       # 1 is now least recent
        pool.get(blocks[2])       # evicts 1
        reads_before = device.stats.reads
        pool.get(blocks[0])       # hit
        assert device.stats.reads == reads_before
        pool.get(blocks[1])       # miss
        assert device.stats.reads == reads_before + 1

    def test_scan_workload_correctness(self, device):
        """Data read back is correct under heavy churn."""
        blocks = _fill_device(device, 64)
        pool = BufferPool(device, 4)
        for _rep in range(2):
            for i, bid in enumerate(blocks):
                frame = pool.get(bid)
                assert frame.view(np.float64)[0] == float(i)

    def test_clear_flushes_and_empties(self, device):
        blocks = _fill_device(device, 2)
        pool = BufferPool(device, 4)
        frame = pool.get(blocks[0])
        frame[:8] = 7
        pool.mark_dirty(blocks[0])
        pool.clear()
        assert pool.resident == 0
        assert device.read_block(blocks[0])[0] == 7

    def test_hit_rate(self, device):
        blocks = _fill_device(device, 1)
        pool = BufferPool(device, 2)
        pool.get(blocks[0])
        pool.get(blocks[0])
        pool.get(blocks[0])
        assert pool.stats.hit_rate == pytest.approx(2 / 3)


class TestPrefetchEdgeCases:
    def test_prefetch_resident_pages_is_free(self, device):
        blocks = _fill_device(device, 4)
        pool = BufferPool(device, 8)
        for bid in blocks:
            pool.get(bid)
        before = device.stats.reads
        assert pool.prefetch(blocks) == 0
        assert device.stats.reads == before
        assert pool.stats.prefetched == 0

    def test_prefetch_mixed_fetches_only_missing(self, device):
        blocks = _fill_device(device, 6)
        pool = BufferPool(device, 8)
        pool.get(blocks[0])
        pool.get(blocks[1])
        before = device.stats.reads
        assert pool.prefetch(blocks) == 4
        assert device.stats.reads == before + 4

    def test_prefetch_then_get_is_a_hit(self, device):
        blocks = _fill_device(device, 4)
        pool = BufferPool(device, 8)
        pool.prefetch(blocks)
        before = device.stats.reads
        frame = pool.get(blocks[2])
        assert device.stats.reads == before
        assert frame.view(np.float64)[0] == 2.0
        assert pool.stats.readahead_hits == 1
        assert device.stats.readahead_hits == 1

    def test_prefetch_disabled_scheduler_is_noop(self, device):
        blocks = _fill_device(device, 4)
        pool = BufferPool(device, 8)
        pool.scheduler.enabled = False
        assert pool.prefetch(blocks) == 0
        assert device.stats.reads == 0

    def test_wasted_prefetch_is_counted(self, device):
        blocks = _fill_device(device, 8)
        pool = BufferPool(device, 4)
        pool.prefetch(blocks[:3])
        # A scan of other blocks evicts the prefetched frames unused.
        for bid in blocks[3:]:
            pool.get(bid)
        assert pool.stats.prefetch_wasted == 3

    def test_put_cancels_prefetched_status(self, device):
        blocks = _fill_device(device, 2)
        pool = BufferPool(device, 4)
        pool.prefetch(blocks)
        pool.put(blocks[0], np.zeros(device.block_size, np.uint8))
        pool.get(blocks[0])
        assert pool.stats.readahead_hits == 0

    def test_prefetch_larger_than_capacity_is_truncated(self, device):
        """A footprint bigger than the pool clips, never thrashes.

        Sparse kernels announce whole tile footprints that can exceed a
        small pool; the contract is: fetch only what fits (capacity
        minus the reserved demand frame), keep residency bounded, and
        count exactly the fetched blocks as reads.
        """
        blocks = _fill_device(device, 32)
        pool = BufferPool(device, 8)
        fetched = pool.prefetch(blocks)
        assert fetched == 7          # capacity 8 minus one demand frame
        assert pool.resident <= 8
        assert device.stats.reads == 7
        # The surviving prefix is resident: reading it costs nothing.
        before = device.stats.reads
        for bid in blocks[:fetched]:
            pool.get(bid)
        assert device.stats.reads == before
        assert pool.stats.readahead_hits == fetched

    def test_oversized_prefetch_never_evicts_earlier_prefetch(self, device):
        """With unread prefetched frames filling the pool, a second
        oversized hint must back off entirely instead of cannibalizing
        the blocks the first hint promised."""
        blocks = _fill_device(device, 24)
        pool = BufferPool(device, 8)
        assert pool.prefetch(blocks[:16]) == 7
        before = device.stats.reads
        assert pool.prefetch(blocks[16:]) == 0
        assert device.stats.reads == before
        assert pool.stats.prefetch_wasted == 0


class TestGetManyEvictionRace:
    def test_resident_block_evicted_by_installs_is_refetched(self, device):
        """A block resident when the misses were collected can be evicted
        while installing them; get_many must fault it back in, not crash."""
        blocks = _fill_device(device, 6)
        pool = BufferPool(device, 4)
        pool.get(blocks[0])
        frames = pool.get_many(blocks[1:] + [blocks[0]])
        values = [f.view(np.float64)[0] for f in frames]
        assert values == [1.0, 2.0, 3.0, 4.0, 5.0, 0.0]


class TestGetRun:
    def test_gather_copy_reads_the_frames_under_the_lock(self, device):
        """Frames of two buffers are gathered into one array while
        ``pool.lock`` is held, as every frame read is."""
        blocks = _fill_device(device, 4)
        pool = BufferPool(device, 8)
        pool.get_many(blocks[:2])
        pool.get_many(blocks[2:])          # a second buffer
        stack = np.stack

        def locked_stack(arrays, *args, **kwargs):
            assert pool.lock._is_owned()
            return stack(arrays, *args, **kwargs)

        with mock.patch.object(np, "stack", locked_stack):
            run = pool.get_run(blocks[1:3])
        assert [row.view(np.float64)[0] for row in run] == [1.0, 2.0]
        assert not np.shares_memory(run, pool._frames[blocks[1]])
        assert not run.flags.writeable


    def test_a_view_only_of_consecutive_rows_in_order(self, device):
        """Rows of one buffer, consecutive and in order, are a view of
        it; the same rows out of order are gathered."""
        blocks = _fill_device(device, 4)
        pool = BufferPool(device, 8)
        pool.get_many(blocks)              # one buffer, four rows
        run = pool.get_run(blocks[1:3])
        assert np.shares_memory(run, pool._frames[blocks[1]])
        assert not run.flags.writeable
        shuffled = [blocks[0], blocks[2], blocks[1], blocks[3]]
        run = pool.get_run(shuffled)
        assert not np.shares_memory(run, pool._frames[blocks[0]])
        assert [row.view(np.float64)[0] for row in run] == [0, 2, 1, 3]

class TestPutMany:
    """``put_many`` is ``put`` per block under one lock hold, with the
    victims' write-backs batched — checked on the sanitizing pool,
    whose override must not change any of it."""

    @staticmethod
    def _pages(device, n, fill):
        return np.full((n, device.block_size), fill, dtype=np.uint8)

    def test_counts_equal_put_one_by_one(self):
        pools = []
        for batched in (True, False):
            device = BlockDevice(block_size=8192)
            blocks = _fill_device(device, 12)
            pool = SanitizingBufferPool(device, 5)
            # Residents to hit, a dirty frame to write back, a
            # prefetched frame to overwrite, then more than a poolful.
            pool.get(blocks[0])
            pool.get(blocks[1])
            pool.mark_dirty(blocks[1])
            pool.prefetch([blocks[2]])
            batch = blocks[1:3] + blocks[4:12] + blocks[:1]
            pages = np.arange(len(batch), dtype=np.uint8)[:, None] \
                * np.ones(device.block_size, dtype=np.uint8)
            if batched:
                pool.put_many(batch, pages)
            else:
                for bid, page in zip(batch, pages):
                    pool.put(bid, page)
            pools.append(pool)
        one, other = pools
        assert one.stats == other.stats
        assert one.stats.evictions and one.stats.dirty_writebacks
        assert one.stats.hits and one.stats.misses
        for field in ("reads", "writes", "read_calls", "bytes_read",
                      "bytes_written"):
            assert getattr(one.device.stats, field) == \
                getattr(other.device.stats, field)
        # The batch writes its dirty victims back together: the blocks
        # written are the same, the calls that carry them only fewer.
        assert one.device.stats.write_calls < other.device.stats.write_calls
        assert list(one._frames) == list(other._frames)
        assert one._dirty == other._dirty
        for bid, frame in one._frames.items():
            assert np.array_equal(frame, other._frames[bid])

    def test_resident_frame_overwritten_in_place(self, device):
        blocks = _fill_device(device, 2)
        pool = SanitizingBufferPool(device, 4)
        frame = pool.get(blocks[0])
        pages = self._pages(device, 2, 9)
        pool.put_many(blocks, pages)
        assert pool._frames[blocks[0]] is frame and (frame == 9).all()
        # The block that was not resident keeps its row of the batch,
        # uncopied: the pool adopted the pages it was handed.
        assert pool._frames[blocks[1]].base is pages

    def test_full_overwrite_clears_prefetched_mark(self, device):
        blocks = _fill_device(device, 2)
        pool = SanitizingBufferPool(device, 4)
        pool.prefetch(blocks)
        pool.put_many(blocks, self._pages(device, 2, 1))
        pool.get_many(blocks)
        assert pool.stats.readahead_hits == 0
        assert device.stats.readahead_hits == 0

    def test_wrong_width_pages_rejected(self, device):
        blocks = _fill_device(device, 2)
        pool = SanitizingBufferPool(device, 4)
        narrow = np.zeros((2, device.block_size - 1), dtype=np.uint8)
        with pytest.raises(ValueError, match="put_many expects 2"):
            pool.put_many(blocks, narrow)
        with pytest.raises(ValueError, match="put_many expects 2"):
            pool.put_many(blocks, self._pages(device, 1, 0))
        assert pool.resident == 0 and pool.stats.accesses == 0


class TestRetention:
    """A frame is a row of the buffer a device read filled or a
    ``put_many`` batch, so it keeps that whole buffer alive.  After
    every call the frames keep at most ``2 * capacity * B`` bytes
    alive, however LRU eviction scatters a buffer's rows."""

    CAPACITY, RUN = 16, 8

    @pytest.mark.parametrize("source", ["read", "write"])
    def test_touching_one_block_per_run_keeps_the_bound(self, source):
        """Each round brings in one run, then touches one block of it
        and every survivor kept so far: LRU evicts the siblings
        and leaves one row alive per buffer — eight times the memory
        of the frames, were the rows not copied out."""
        device = BlockDevice(block_size=512)
        blocks = _fill_device(device, 40 * self.RUN)
        pool = BufferPool(device, self.CAPACITY)
        bound = 2 * self.CAPACITY * device.block_size
        survivors: list[int] = []
        for k in range(40):
            run = blocks[k * self.RUN: (k + 1) * self.RUN]
            if source == "read":
                pool.get_many(run)
            else:
                pool.put_many(run, np.stack(
                    [np.full(device.block_size // 8,
                             float(b - blocks[0])).view(np.uint8)
                     for b in run]))
            survivors = (survivors + [run[0]])[-(self.CAPACITY // 2):]
            pool.get_many(survivors)
            held = retained_bytes(pool._frames.values())
            assert pool._held == held <= bound
        assert len({id(f.base) for f in pool._frames.values()}) > 1
        # Copying rows out changed no contents.
        for bid, frame in pool._frames.items():
            assert (frame.view(np.float64) == float(bid - blocks[0])).all()

    def test_one_buffer_in_two_batches_is_counted_once(self, device):
        """``write_submatrix`` hands ``put_many`` slices of one tiles
        array: the buffer is kept alive, and counted, once, until the
        last row of either batch leaves."""
        blocks = _fill_device(device, 16)
        pool = BufferPool(device, 8)
        tiles = np.zeros((6, device.block_size), dtype=np.uint8)

        def exact():
            assert pool._held == retained_bytes(pool._frames.values())

        pool.put_many(blocks[:2], tiles[:2])
        exact()
        pool.put_many(blocks[2:6], tiles[2:])
        exact()
        assert pool._held == tiles.nbytes
        for k in range(6, 16):
            # Each read evicts the least recently used frame: the first
            # batch's rows, then the second's.
            pool.get_many([blocks[k]])
            exact()
        assert id(tiles) not in pool._buffers
        assert pool._held == 8 * device.block_size

    def test_frames_handed_out_for_writing_own_their_memory(self, device):
        blocks = _fill_device(device, 4)
        pool = BufferPool(device, 8)
        pool.get_many(blocks)              # one buffer, four rows
        assert pool._frames[blocks[0]].base is not None
        frame = pool.get(blocks[0])
        pool.mark_dirty(blocks[0])
        assert frame.base is None and pool._frames[blocks[0]] is frame
        frame[:] = 7
        pool.get_many(blocks)
        assert pool._frames[blocks[0]] is frame
        pool.flush_all()
        assert (device._fetch(blocks[0]) == 7).all()
