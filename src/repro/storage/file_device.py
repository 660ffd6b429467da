"""Real-disk block device: a page file behind the simulated contract.

:class:`FileBlockDevice` keeps the exact same interface and accounting
as the in-memory :class:`~repro.storage.block_device.BlockDevice` — it
only overrides the four physical primitives, so any access sequence
produces **identical simulated block counts** on both.  What changes is
that the bytes live in a real file, and the backend-era counters
(``read_ns``/``write_ns``/``bytes_*``/``syscalls``) report what the
blocks cost on actual hardware: the IOScheduler's coalescing and
``pool.prefetch()`` footprints, which the simulated device counts as
fewer device calls, cash out here as fewer ``pread`` system calls and
lower wall-clock time.

Two transfer modes:

``mmap``
    The page file is memory-mapped; reads and writes are memcpys
    against the mapping (zero syscalls on the hot path — the kernel
    faults pages in and writes them back).  Fastest when the file fits
    the page cache.  Every transfer copies out of (or into) the
    mapping, a read run as one slice: a frame never aliases the file.
``pread``
    Positional ``os.preadv``/``os.pwritev`` per coalesced run — one
    syscall moves a whole run of adjacent blocks, which is exactly the
    shape the scheduler optimizes for.  A read fills the run's one
    buffer through a single iovec; a write gathers from the frames in
    place, one iovec per block (no staging copy).

Durability: ``sync()`` issues ``msync``/``fsync``; the ``fsync``
constructor flag makes every :meth:`sync` a real fsync barrier.

Persistence: the device carries a ``manifest`` dict (arbitrary JSON —
the tile store records its array directory there) persisted to a
``<path>.meta`` sidecar on ``close()``/``sync()``.  Reopening an
existing path restores the allocation cursor and the manifest, which is
what makes ``repro.open_session("file:///path/riot.db")`` round-trip
arrays across sessions.
"""

from __future__ import annotations

import contextlib
import json
import mmap
import os
import tempfile

import numpy as np

from .block_device import DEFAULT_BLOCK_SIZE, BlockDevice

#: File growth granularity in blocks: the file is extended in extents so
#: mmap remaps stay rare.
EXTENT_BLOCKS = 256

#: Sidecar suffix for device metadata (allocation cursor + manifest).
META_SUFFIX = ".meta"

#: Most buffers one ``pwritev`` accepts; longer runs split.  ``sysconf``
#: answers -1 when the system sets no limit.
_IOV_MAX = os.sysconf("SC_IOV_MAX")
if _IOV_MAX <= 0:
    _IOV_MAX = 1024

#: Most bytes Linux moves in one read call (``MAX_RW_COUNT``); a longer
#: read run is split so that a short count always means end of file.
_MAX_READ_BYTES = 0x7FFFF000


class FileBlockDevice(BlockDevice):
    """Blocks in a real page file, via ``mmap`` or ``pread``/``pwrite``."""

    def __init__(self, path: str | os.PathLike | None = None,
                 mode: str = "mmap",
                 block_size: int = DEFAULT_BLOCK_SIZE,
                 name: str = "disk",
                 fsync: bool = False) -> None:
        if mode not in ("mmap", "pread"):
            raise ValueError(
                f"unknown file-device mode {mode!r}; use mmap|pread")
        super().__init__(block_size=block_size, name=name)
        self.backend = mode
        self.mode = mode
        self.fsync = fsync
        self.manifest: dict = {}
        self._closed = False
        self._mm: mmap.mmap | None = None
        if path is None:
            fd, tmp = tempfile.mkstemp(prefix=f"riot-{name}-",
                                       suffix=".pages")
            os.close(fd)
            self.path = tmp
            self.owns_path = True
        else:
            self.path = os.fspath(path)
            self.owns_path = False
        self._fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        self._load_meta()

    # ------------------------------------------------------------------
    # Setup / teardown
    # ------------------------------------------------------------------
    @property
    def meta_path(self) -> str:
        return self.path + META_SUFFIX

    def _load_meta(self) -> None:
        try:
            with open(self.meta_path) as fh:
                meta = json.loads(fh.read())
        except FileNotFoundError:
            # No sidecar: a raw page file still reopens — every existing
            # block stays addressable, there is just no manifest.
            size = os.fstat(self._fd).st_size
            self._next_block_id = -(-size // self.block_size)
            return
        if meta.get("block_size") != self.block_size:
            raise ValueError(
                f"page file {self.path!r} was written with block_size="
                f"{meta.get('block_size')}, not {self.block_size}")
        self._next_block_id = int(meta.get("next_block_id", 0))
        self.manifest = meta.get("manifest", {})

    def _save_meta(self) -> None:
        payload = {"format": 1, "block_size": self.block_size,
                   "next_block_id": self._next_block_id,
                   "manifest": self.manifest}
        tmp = self.meta_path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(payload, fh)
        os.replace(tmp, self.meta_path)

    def close(self) -> None:
        """Flush the mapping, persist metadata, release the file.

        A device that created its own temporary page file deletes it
        (and its sidecar) here — sessions opened without an explicit
        path leave nothing behind.
        """
        if self._closed:
            return
        self._closed = True
        if self._mm is not None:
            self._mm.flush()
            # A BufferError means some array still exports the mapping
            # (a transient np.frombuffer view held by a traceback
            # frame); it then stays open until that view dies, which
            # is safe — the flush above already pushed the bytes.
            with contextlib.suppress(BufferError):
                self._mm.close()
            self._mm = None
        if self.owns_path:
            os.close(self._fd)
            for p in (self.path, self.meta_path):
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(p)
        else:
            self._save_meta()
            if self.fsync:
                os.fsync(self._fd)
            os.close(self._fd)

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        with contextlib.suppress(Exception):
            self.close()

    # ------------------------------------------------------------------
    # Capacity management
    # ------------------------------------------------------------------
    def _file_blocks(self) -> int:
        return os.fstat(self._fd).st_size // self.block_size

    def _ensure_capacity(self, n_blocks: int) -> None:
        """Grow the file (extent-rounded) to cover ``n_blocks`` blocks."""
        have = self._file_blocks()
        if n_blocks <= have:
            return
        want = -(-n_blocks // EXTENT_BLOCKS) * EXTENT_BLOCKS
        os.ftruncate(self._fd, want * self.block_size)
        if self.mode == "mmap" and self._mm is not None:
            self._mm.resize(want * self.block_size)

    def _mapping(self, upto_block: int) -> mmap.mmap:
        self._ensure_capacity(upto_block)
        if self._mm is None:
            self._mm = mmap.mmap(self._fd, 0)
        return self._mm

    # ------------------------------------------------------------------
    # Physical primitives (the only thing overridden vs the simulator)
    # ------------------------------------------------------------------
    def _read_run(self, first: int, length: int) -> np.ndarray:
        if self.mode == "pread":
            return self._preadv_run(first, length)
        bs = self.block_size
        mm = self._mapping(first + length)
        # One copy of the run out of the mapping: buffer-pool frames are
        # mutated in place and written back explicitly, so handing out
        # live views of the backing store would leak unaccounted writes.
        return np.frombuffer(mm, dtype=np.uint8, count=length * bs,
                             offset=first * bs).reshape(length, bs).copy()

    def _write_run(self, first: int, bufs: list[np.ndarray]) -> None:
        bs = self.block_size
        length = len(bufs)
        self._ensure_capacity(first + length)
        if self.mode == "mmap":
            mm = self._mapping(first + length)
            out = np.frombuffer(mm, dtype=np.uint8, count=length * bs,
                                offset=first * bs)
            for k, buf in enumerate(bufs):
                out[k * bs:(k + 1) * bs] = buf
        else:
            self._pwritev_run(first, bufs)
        if self.fsync:
            self._sync_backend()

    def _preadv_run(self, first: int, length: int) -> np.ndarray:
        """Read one run into one fresh ``(length, block_size)`` buffer,
        one iovec per call.

        Bytes the file does not have (a block allocated but never
        written, a run reaching past EOF) read as zeros, like a sparse
        file: a short count is the end of the file.
        """
        bs = self.block_size
        buf = np.empty((length, bs), dtype=np.uint8)
        flat = buf.reshape(-1)
        step = max(1, _MAX_READ_BYTES // bs) * bs
        for at in range(0, flat.size, step):
            part = flat[at:at + step]
            got = os.preadv(self._fd, [part], first * bs + at)
            self.stats.syscalls += 1
            if got < part.size:
                flat[at + got:] = 0
                break
        return buf

    def _pwritev_run(self, first: int, bufs: list[np.ndarray]) -> None:
        """Gather one run from its frames in place (no staging copy)."""
        bs = self.block_size
        for k in range(0, len(bufs), _IOV_MAX):
            chunk = bufs[k:k + _IOV_MAX]
            done = os.pwritev(self._fd, chunk, (first + k) * bs)
            self.stats.syscalls += 1
            if done != len(chunk) * bs:
                raise OSError(
                    f"short write to {self.path!r}: {done} of "
                    f"{len(chunk) * bs} bytes at block {first + k}")

    def _discard_run(self, first: int, length: int) -> None:
        """Freeing blocks needs no physical work on a page file."""

    def _sync_backend(self) -> None:
        if self._mm is not None:
            self._mm.flush()
            self.stats.syscalls += 1
        os.fsync(self._fd)
        self.stats.syscalls += 1

    # ------------------------------------------------------------------
    # Extras over the simulated device
    # ------------------------------------------------------------------
    @property
    def resident_blocks(self) -> int:
        """Blocks backed by real file bytes (the file is zero-filled by
        extension, so this counts allocated-and-extended, not written)."""
        return min(self._next_block_id, self._file_blocks())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"FileBlockDevice(path={self.path!r}, mode={self.mode!r}"
                f", block_size="
                f"{self.block_size}, allocated={self.allocated_blocks})")
