"""Unit tests for the simulated block device and I/O accounting."""

import numpy as np
import pytest

from repro.storage import BlockDevice, IOStats, SimClock


class TestAllocation:
    def test_allocate_returns_consecutive_ids(self):
        dev = BlockDevice()
        first = dev.allocate(4)
        second = dev.allocate(2)
        assert second == first + 4

    def test_allocate_rejects_nonpositive(self):
        dev = BlockDevice()
        with pytest.raises(ValueError):
            dev.allocate(0)

    def test_allocation_charges_no_io(self):
        dev = BlockDevice()
        dev.allocate(100)
        assert dev.stats.total == 0

    def test_invalid_block_size(self):
        with pytest.raises(ValueError):
            BlockDevice(block_size=0)


class TestReadWrite:
    def test_roundtrip(self):
        dev = BlockDevice()
        bid = dev.allocate()
        data = np.arange(dev.block_size, dtype=np.uint8) % 251
        dev.write_block(bid, data)
        assert np.array_equal(dev.read_block(bid), data)

    def test_unwritten_block_reads_zeros(self):
        dev = BlockDevice()
        bid = dev.allocate()
        assert not dev.read_block(bid).any()

    def test_short_write_zero_pads(self):
        dev = BlockDevice()
        bid = dev.allocate()
        dev.write_block(bid, np.asarray([1, 2, 3], dtype=np.uint8))
        out = dev.read_block(bid)
        assert out[0] == 1 and out[3] == 0

    def test_oversized_write_rejected(self):
        dev = BlockDevice(block_size=16)
        bid = dev.allocate()
        with pytest.raises(ValueError):
            dev.write_block(bid, np.zeros(17, dtype=np.uint8))

    def test_out_of_range_access(self):
        dev = BlockDevice()
        with pytest.raises(IndexError):
            dev.read_block(0)
        bid = dev.allocate()
        with pytest.raises(IndexError):
            dev.read_block(bid + 1)

    def test_float_roundtrip(self):
        dev = BlockDevice()
        bid = dev.allocate()
        values = np.linspace(0.0, 1.0, dev.block_size // 8)
        dev.write_block(bid, values.view(np.uint8))
        assert np.allclose(dev.read_block(bid).view(np.float64), values)

    def test_write_copies_input(self):
        dev = BlockDevice()
        bid = dev.allocate()
        data = np.ones(dev.block_size, dtype=np.uint8)
        dev.write_block(bid, data)
        data[:] = 0
        assert dev.read_block(bid)[0] == 1


class TestSeqRandClassification:
    def test_ascending_run_is_sequential(self):
        dev = BlockDevice()
        first = dev.allocate(10)
        for bid in range(first, first + 10):
            dev.read_block(bid)
        # First access is random (no predecessor), rest sequential.
        assert dev.stats.rand_reads == 1
        assert dev.stats.seq_reads == 9

    def test_strided_access_is_random(self):
        dev = BlockDevice()
        first = dev.allocate(10)
        for bid in range(first, first + 10, 2):
            dev.read_block(bid)
        assert dev.stats.seq_reads == 0
        assert dev.stats.rand_reads == 5

    def test_classification_spans_read_write(self):
        dev = BlockDevice()
        first = dev.allocate(2)
        dev.write_block(first, np.zeros(8, dtype=np.uint8))
        dev.read_block(first + 1)  # sequential after the write
        assert dev.stats.seq_reads == 1


class TestStats:
    def test_snapshot_and_delta(self):
        dev = BlockDevice()
        first = dev.allocate(4)
        dev.read_block(first)
        snap = dev.stats.snapshot()
        dev.read_block(first + 1)
        dev.write_block(first + 2, np.zeros(1, dtype=np.uint8))
        delta = dev.stats.delta(snap)
        assert delta.reads == 1
        assert delta.writes == 1

    def test_merged(self):
        a = IOStats(seq_reads=1, rand_reads=2, seq_writes=3, rand_writes=4)
        b = IOStats(seq_reads=10, rand_reads=20, seq_writes=30,
                    rand_writes=40)
        m = a.merged(b)
        assert (m.seq_reads, m.rand_reads, m.seq_writes,
                m.rand_writes) == (11, 22, 33, 44)

    def test_mb_total(self):
        stats = IOStats(seq_reads=128)  # 128 x 8 KB = 1 MB
        assert stats.mb_total(8192) == pytest.approx(1.0)

    def test_reset(self):
        dev = BlockDevice()
        bid = dev.allocate()
        dev.read_block(bid)
        dev.reset_stats()
        assert dev.stats.total == 0

    def test_free_releases_storage(self):
        dev = BlockDevice()
        bid = dev.allocate()
        dev.write_block(bid, np.ones(8, dtype=np.uint8))
        assert dev.resident_blocks == 1
        dev.free(bid)
        assert dev.resident_blocks == 0


class TestSimClock:
    def test_io_dominated_time(self):
        clock = SimClock()
        io = IOStats(seq_reads=100, rand_reads=10)
        secs = clock.seconds(io)
        assert secs == pytest.approx(100 * clock.seq_io_cost
                                     + 10 * clock.rand_io_cost)

    def test_random_io_costs_more(self):
        clock = SimClock()
        seq = clock.seconds(IOStats(seq_reads=100))
        rand = clock.seconds(IOStats(rand_reads=100))
        assert rand > seq * 10

    def test_cpu_charge_accumulates(self):
        clock = SimClock()
        clock.charge_cpu(1_000_000)
        clock.charge_cpu(1_000_000)
        assert clock.seconds(IOStats()) == pytest.approx(
            2_000_000 * clock.cpu_op_cost)
