"""Tests for page files over the block device."""

import numpy as np
import pytest

from repro.storage import PageFile


class TestAllocation:
    def test_pages_numbered_from_zero(self, device):
        pf = PageFile(device)
        assert pf.allocate_page() == 0
        assert pf.allocate_page() == 1
        assert pf.num_pages == 2

    def test_extent_allocation_keeps_scans_sequential(self, device):
        """Pages allocated in a run map to consecutive device blocks."""
        pf = PageFile(device)
        pages = pf.allocate_pages(32)
        blocks = [pf.block_of(p) for p in pages]
        assert blocks == list(range(blocks[0], blocks[0] + 32))

    def test_two_files_interleaved_allocation(self, device):
        """Interleaved growth must not corrupt either file's mapping."""
        f1, f2 = PageFile(device, "a"), PageFile(device, "b")
        for _ in range(100):
            f1.allocate_page()
            f2.allocate_page()
        all_blocks = ([f1.block_of(p) for p in range(100)]
                      + [f2.block_of(p) for p in range(100)])
        assert len(set(all_blocks)) == 200

    def test_freed_pages_recycled(self, device):
        pf = PageFile(device)
        pages = pf.allocate_pages(4)
        pf.free_page(pages[1])
        assert pf.allocate_page() == pages[1]


class TestIO:
    def test_out_of_range(self, device):
        pf = PageFile(device)
        with pytest.raises(IndexError):
            pf.block_of(0)

    def test_sequential_scan_is_sequential_io(self, device):
        pf = PageFile(device)
        pages = pf.allocate_pages(16)
        for p in pages:
            device.write_block(pf.block_of(p), np.zeros(8, dtype=np.uint8))
        device.reset_stats()
        for p in pages:
            device.read_block(pf.block_of(p))
        assert device.stats.seq_reads >= 15

    def test_drop_frees_device_blocks(self, device):
        pf = PageFile(device)
        pages = pf.allocate_pages(4)
        for p in pages:
            device.write_block(pf.block_of(p), np.ones(8, dtype=np.uint8))
        resident = device.resident_blocks
        pf.drop()
        assert device.resident_blocks == resident - 4
        assert pf.num_pages == 0
