"""Unit tests for the buffer pool and replacement policies."""

import threading

import numpy as np
import pytest

from repro.analysis import SanitizingBufferPool
from repro.storage import BlockDevice, BufferPool, make_policy


def _fill_device(dev: BlockDevice, n: int) -> list[int]:
    first = dev.allocate(n)
    for i in range(n):
        dev.write_floats(first + i, np.full(dev.block_size // 8, float(i)))
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
        pool.get(blocks[0], for_write=True)
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
        frame = pool.get(blocks[0], for_write=True)
        frame[:8] = 255
        pool.flush_all()
        pool.invalidate(blocks[0])
        assert pool.get(blocks[0])[0] == 255

    def test_mark_dirty_requires_residency(self, device):
        blocks = _fill_device(device, 1)
        pool = BufferPool(device, 2)
        with pytest.raises(KeyError):
            pool.mark_dirty(blocks[0])


class TestPinning:
    def test_pinned_frame_survives_pressure(self, device):
        blocks = _fill_device(device, 10)
        pool = BufferPool(device, 2)
        pool.get(blocks[0])
        pool.pin(blocks[0])
        for bid in blocks[1:]:
            pool.get(bid)
        # block 0 must still be resident (hit, no device read)
        reads_before = device.stats.reads
        pool.get(blocks[0])
        assert device.stats.reads == reads_before
        pool.unpin(blocks[0])

    def test_all_pinned_raises(self, device):
        blocks = _fill_device(device, 3)
        pool = BufferPool(device, 2)
        pool.get(blocks[0])
        pool.pin(blocks[0])
        pool.get(blocks[1])
        pool.pin(blocks[1])
        with pytest.raises(RuntimeError):
            pool.get(blocks[2])

    def test_pin_nonresident_raises(self, device):
        blocks = _fill_device(device, 1)
        pool = BufferPool(device, 2)
        with pytest.raises(KeyError):
            pool.pin(blocks[0])


class TestPolicies:
    def test_lru_evicts_least_recent(self, device):
        blocks = _fill_device(device, 3)
        pool = BufferPool(device, 2, policy="lru")
        pool.get(blocks[0])
        pool.get(blocks[1])
        pool.get(blocks[0])       # 1 is now least recent
        pool.get(blocks[2])       # evicts 1
        reads_before = device.stats.reads
        pool.get(blocks[0])       # hit
        assert device.stats.reads == reads_before
        pool.get(blocks[1])       # miss
        assert device.stats.reads == reads_before + 1

    def test_clock_gives_second_chance(self, device):
        blocks = _fill_device(device, 4)
        pool = BufferPool(device, 2, policy="clock")
        for bid in blocks:
            pool.get(bid)
        assert pool.resident == 2

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            make_policy("mru")

    @pytest.mark.parametrize("policy", ["lru", "clock"])
    def test_scan_workload_correctness(self, device, policy):
        """Any policy must return correct data under heavy churn."""
        blocks = _fill_device(device, 64)
        pool = BufferPool(device, 4, policy=policy)
        for _rep in range(2):
            for i, bid in enumerate(blocks):
                frame = pool.get(bid)
                assert frame.view(np.float64)[0] == float(i)

    def test_clear_flushes_and_empties(self, device):
        blocks = _fill_device(device, 2)
        pool = BufferPool(device, 4)
        frame = pool.get(blocks[0], for_write=True)
        frame[:8] = 7
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

    def test_prefetch_never_evicts_pinned_frames(self, device):
        """Prefetch racing eviction: pins win, hint is clipped."""
        blocks = _fill_device(device, 12)
        pool = BufferPool(device, 4)
        for bid in blocks[:3]:
            pool.get(bid)
            pool.pin(bid)
        # Room for one demand fault only: the hint must clip to nothing
        # rather than raise or touch a pinned frame.
        assert pool.prefetch(blocks[3:]) == 0
        reads_before = device.stats.reads
        for bid in blocks[:3]:
            pool.get(bid)
        assert device.stats.reads == reads_before

    def test_prefetch_with_one_pin_keeps_demand_room(self, device):
        blocks = _fill_device(device, 10)
        pool = BufferPool(device, 4)
        pool.get(blocks[0])
        pool.pin(blocks[0])
        # capacity 4, 1 pinned, 1 frame reserved for demand -> 2 fetched.
        assert pool.prefetch(blocks[1:]) == 2
        assert pool.resident <= 4
        # The pinned frame survived and a demand fault still fits.
        pool.get(blocks[9])
        reads_before = device.stats.reads
        pool.get(blocks[0])
        assert device.stats.reads == reads_before

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


class TestClockPinnedVictims:
    def test_victim_when_all_but_one_pinned(self, device):
        """CLOCK must find the single unpinned frame, however many spins
        of the hand that takes, and never evict a pinned one."""
        blocks = _fill_device(device, 6)
        pool = BufferPool(device, 4, policy="clock")
        for bid in blocks[:4]:
            pool.get(bid)
        for bid in blocks[:3]:
            pool.pin(bid)
        pool.get(blocks[4])  # must evict blocks[3], the only unpinned
        reads_before = device.stats.reads
        for bid in blocks[:3]:
            pool.get(bid)  # pinned frames: all hits
        assert device.stats.reads == reads_before
        pool.get(blocks[3])  # was evicted: a miss
        assert device.stats.reads == reads_before + 1

    def test_repeated_eviction_through_one_unpinned_slot(self, device):
        blocks = _fill_device(device, 16)
        pool = BufferPool(device, 4, policy="clock")
        for bid in blocks[:4]:
            pool.get(bid)
        for bid in blocks[:3]:
            pool.pin(bid)
        for bid in blocks[4:]:
            pool.get(bid)
            assert pool.resident <= 4
        for bid in blocks[:3]:
            pool.pin(bid)   # still resident, pin again (refcount)
            pool.unpin(bid)

    def test_clock_all_pinned_raises_on_prefetchless_get(self, device):
        blocks = _fill_device(device, 5)
        pool = BufferPool(device, 4, policy="clock")
        for bid in blocks[:4]:
            pool.get(bid)
            pool.pin(bid)
        with pytest.raises(RuntimeError):
            pool.get(blocks[4])


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


class TestPutMany:
    """``put_many`` is ``put`` per block under one lock hold, with the
    victims' write-backs batched — checked on the sanitizing pool,
    whose override must not change any of it."""

    @staticmethod
    def _pages(device, n, fill):
        return np.full((n, device.block_size), fill, dtype=np.uint8)

    @pytest.mark.parametrize("policy", ["lru", "clock"])
    def test_counts_equal_put_one_by_one(self, policy):
        pools = []
        for batched in (True, False):
            device = BlockDevice(block_size=8192)
            blocks = _fill_device(device, 12)
            pool = SanitizingBufferPool(device, 5, policy=policy)
            # Residents to hit, a dirty frame to write back, a
            # prefetched frame to overwrite, then more than a poolful.
            pool.get(blocks[0])
            pool.get(blocks[1], for_write=True)
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

    def test_pinned_frame_overwritten_in_place_under_its_latch(
            self, device):
        blocks = _fill_device(device, 2)
        pool = SanitizingBufferPool(device, 4)
        frame = pool.get(blocks[0])
        pool.pin(blocks[0])
        held, release, done = (threading.Event() for _ in range(3))

        def mutator():
            with pool.latched(blocks[0]):
                held.set()
                release.wait(timeout=10)

        def writer():
            pool.put_many(blocks, self._pages(device, 2, 9))
            done.set()

        threads = [threading.Thread(target=mutator)]
        threads[0].start()
        assert held.wait(timeout=10)
        threads.append(threading.Thread(target=writer))
        threads[1].start()
        # The overwrite waits for the latch, it does not race it.
        assert not done.wait(timeout=0.2)
        assert frame[0] != 9
        release.set()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
        assert done.is_set()
        assert pool._frames[blocks[0]] is frame and (frame == 9).all()
        assert pool._frames[blocks[1]].base is None  # owns its memory
        pool.unpin(blocks[0])

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
