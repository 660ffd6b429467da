"""Page-addressed files on top of a :class:`BlockDevice`.

A :class:`PageFile` is a growable sequence of pages (one page = one device
block) with its own local page numbering.  The relational engine stores heap
tables and B+tree indexes in page files; the tile store keeps one page file
per array.  Extents of consecutive device blocks are reserved eagerly so that
a scan through a file's pages in order produces *sequential* device I/O, the
way a real filesystem tries to lay files out contiguously.
"""

from __future__ import annotations

from .block_device import BlockDevice

#: Number of device blocks reserved at a time when a file grows.
EXTENT_PAGES = 64


class PageFile:
    """A named, growable file of pages over a shared block device."""

    def __init__(self, device: BlockDevice, name: str = "file") -> None:
        self.device = device
        self.name = name
        self._page_to_block: list[int] = []
        self._extent_free: range = range(0)
        self._freed_pages: list[int] = []

    @classmethod
    def attach(cls, device: BlockDevice, name: str,
               page_to_block: list[int]) -> "PageFile":
        """Reconstruct a file from a persisted page->block mapping.

        This is the reopen path for file-backed devices: the tile
        store's manifest records each array's page map, and attaching
        re-addresses the already-written device blocks without
        allocating or transferring anything.
        """
        file = cls(device, name=name)
        file._page_to_block = [int(b) for b in page_to_block]
        return file

    @property
    def page_map(self) -> list[int]:
        """The persisted form: device block backing each page, in order."""
        return list(self._page_to_block)

    # ------------------------------------------------------------------
    @property
    def num_pages(self) -> int:
        return len(self._page_to_block)

    @property
    def page_size(self) -> int:
        return self.device.block_size

    def allocate_page(self) -> int:
        """Append a page to the file and return its page number.

        Freed pages are recycled first; otherwise a new extent of consecutive
        device blocks is claimed so sequential scans stay sequential.
        """
        return self.allocate_pages(1)[0]

    def allocate_pages(self, count: int) -> list[int]:
        """Append ``count`` pages and return their page numbers, in one
        pass: freed pages first (the last freed first), then the rest of
        the current extent, then as many fresh extents as the remainder
        needs, claimed from the device in one call."""
        reused = [self._freed_pages.pop()
                  for _ in range(min(count, len(self._freed_pages)))]
        fresh = count - len(reused)
        start = len(self._page_to_block)
        blocks = self._extent_free[:fresh]
        self._extent_free = self._extent_free[fresh:]
        self._page_to_block.extend(blocks)
        short = fresh - len(blocks)
        if short > 0:
            claimed = -(-short // EXTENT_PAGES) * EXTENT_PAGES
            first = self.device.allocate(claimed)
            self._page_to_block.extend(range(first, first + short))
            self._extent_free = range(first + short, first + claimed)
        return reused + list(range(start, start + fresh))

    def free_page(self, page_no: int) -> None:
        """Mark a page reusable.  Its device block is retained by the file."""
        self._check(page_no)
        self._freed_pages.append(page_no)

    # ------------------------------------------------------------------
    def block_of(self, page_no: int) -> int:
        """Device block backing ``page_no`` (used by the buffer pool key)."""
        self._check(page_no)
        return self._page_to_block[page_no]

    def blocks_of(self, page_nos) -> list[int]:
        """Device blocks backing the given pages, in the given order (a
        ``range`` of pages is one slice of the page map)."""
        if isinstance(page_nos, range) and page_nos.step == 1:
            if page_nos:
                self._check(page_nos.start)
                self._check(page_nos.stop - 1)
            return self._page_to_block[page_nos.start:page_nos.stop]
        return [self.block_of(p) for p in page_nos]

    def drop(self) -> None:
        """Release every block owned by this file back to the device."""
        for block in self._page_to_block:
            self.device.free(block)
        self._page_to_block = []
        self._extent_free = range(0)
        self._freed_pages = []

    # ------------------------------------------------------------------
    def _check(self, page_no: int) -> None:
        if page_no < 0 or page_no >= len(self._page_to_block):
            raise IndexError(
                f"page {page_no} outside file {self.name!r} "
                f"[0, {len(self._page_to_block)})")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PageFile(name={self.name!r}, pages={self.num_pages})"


def new_pagefile(device: BlockDevice, name: str = "file") -> PageFile:
    """The sanctioned way for code outside this package to open a file.

    Subsystems receive a device through :class:`StorageConfig` injection
    and must not construct storage primitives directly (RPR001); this
    factory is the one blessed entry point for growing a new page file
    on an injected device.
    """
    return PageFile(device, name=name)
