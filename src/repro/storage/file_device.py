"""Real-disk block device: a page file behind the simulated contract.

:class:`FileBlockDevice` keeps the exact same interface and accounting
as the in-memory :class:`~repro.storage.block_device.BlockDevice` — it
only overrides the four physical primitives, so any access sequence
produces **identical simulated block counts** on both.  What changes is
that the bytes live in a real file, and the backend-era counters
(``read_ns``/``write_ns``/``bytes_*``/``syscalls``) report what the
blocks cost on actual hardware.  This is ROADMAP item 1: the
IOScheduler's coalescing and ``pool.prefetch()`` footprints, measured
so far only as fewer simulated device calls, cash out here as fewer
``pread`` system calls and lower wall-clock time.

Two transfer modes:

``mmap``
    The page file is memory-mapped; reads and writes are memcpys
    against the mapping (zero syscalls on the hot path — the kernel
    faults pages in and writes them back).  Fastest when the file fits
    the page cache.  :meth:`block_view` additionally exposes zero-copy
    read-only views straight into the mapping.
``pread``
    Positional vectored ``os.preadv``/``os.pwritev`` per coalesced run
    — one syscall moves a whole run of adjacent blocks, which is
    exactly the shape the scheduler optimizes for, scattering into (or
    gathering from) the per-block frames with no staging copy.  With
    ``direct=True`` the file is opened ``O_DIRECT`` where available
    (transfers staged through a page-aligned buffer, bypassing the OS
    page cache).

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
#: mmap remaps stay rare and O_DIRECT sees an aligned file size.
EXTENT_BLOCKS = 256

#: Sidecar suffix for device metadata (allocation cursor + manifest).
META_SUFFIX = ".meta"

#: Alignment O_DIRECT transfers are staged at.
_DIRECT_ALIGN = 4096

#: Most buffers one ``preadv``/``pwritev`` accepts; longer runs split.
#: ``sysconf`` answers -1 when the system sets no limit.
_IOV_MAX = os.sysconf("SC_IOV_MAX")
if _IOV_MAX <= 0:
    _IOV_MAX = 1024


class FileBlockDevice(BlockDevice):
    """Blocks in a real page file, via ``mmap`` or ``pread``/``pwrite``."""

    def __init__(self, path: str | os.PathLike | None = None,
                 mode: str = "mmap",
                 block_size: int = DEFAULT_BLOCK_SIZE,
                 name: str = "disk",
                 fsync: bool = False,
                 direct: bool = False) -> None:
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
        self._dbuf: mmap.mmap | None = None
        if path is None:
            fd, tmp = tempfile.mkstemp(prefix=f"riot-{name}-",
                                       suffix=".pages")
            os.close(fd)
            self.path = tmp
            self.owns_path = True
        else:
            self.path = os.fspath(path)
            self.owns_path = False
        self.direct = bool(direct and mode == "pread"
                           and block_size % _DIRECT_ALIGN == 0)
        self._fd = self._open_fd()
        self._load_meta()

    # ------------------------------------------------------------------
    # Setup / teardown
    # ------------------------------------------------------------------
    def _open_fd(self) -> int:
        flags = os.O_RDWR | os.O_CREAT
        if self.direct and hasattr(os, "O_DIRECT"):
            # The filesystem may refuse O_DIRECT — fall back buffered.
            with contextlib.suppress(OSError):
                return os.open(self.path, flags | os.O_DIRECT, 0o644)
        self.direct = False
        return os.open(self.path, flags, 0o644)

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
            # A BufferError means a block_view() is still alive; the
            # mapping then stays open until its last view dies, which
            # is safe — the flush above already pushed the bytes.
            with contextlib.suppress(BufferError):
                self._mm.close()
            self._mm = None
        if self._dbuf is not None:
            self._dbuf.close()
            self._dbuf = None
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

    def _staging(self, nbytes: int) -> mmap.mmap:
        """Page-aligned scratch buffer for O_DIRECT transfers."""
        if self._dbuf is None or len(self._dbuf) < nbytes:
            if self._dbuf is not None:
                self._dbuf.close()
            size = -(-nbytes // _DIRECT_ALIGN) * _DIRECT_ALIGN
            self._dbuf = mmap.mmap(-1, size)
        return self._dbuf

    # ------------------------------------------------------------------
    # Physical primitives (the only thing overridden vs the simulator)
    # ------------------------------------------------------------------
    def _read_run(self, first: int, length: int) -> list[np.ndarray]:
        bs = self.block_size
        nbytes = length * bs
        if self.mode == "mmap":
            mm = self._mapping(first + length)
            raw = np.frombuffer(mm, dtype=np.uint8, count=nbytes,
                                offset=first * bs)
        elif self.direct:
            self._ensure_capacity(first + length)
            buf = self._staging(nbytes)
            view = memoryview(buf)[:nbytes]
            got = os.preadv(self._fd, [view], first * bs)
            self.stats.syscalls += 1
            raw = np.frombuffer(buf, dtype=np.uint8, count=nbytes)
            if got < nbytes:
                raw = raw.copy()
                raw[got:] = 0
        else:
            return self._preadv_run(first, length)
        # Each block becomes a fresh writable array: buffer-pool frames
        # are mutated in place and written back explicitly, so handing
        # out live views of the backing store would leak unaccounted
        # writes.  block_view() is the deliberate zero-copy escape hatch.
        return [raw[k * bs:(k + 1) * bs].copy() for k in range(length)]

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
        elif self.direct:
            nbytes = length * bs
            staging = self._staging(nbytes)
            scratch = np.frombuffer(staging, dtype=np.uint8,
                                    count=nbytes)
            for k, buf in enumerate(bufs):
                scratch[k * bs:(k + 1) * bs] = buf
            os.pwritev(self._fd, [memoryview(staging)[:nbytes]],
                       first * bs)
            self.stats.syscalls += 1
        else:
            self._pwritev_run(first, bufs)
        if self.fsync:
            self._sync_backend()

    def _preadv_run(self, first: int, length: int) -> list[np.ndarray]:
        """Scatter one run straight into fresh frames, one per block.

        Each frame owns its memory, so a single frame staying resident
        in the pool never keeps a whole run's buffer alive.  Bytes the
        file does not have (a block allocated but never written, a run
        reaching past EOF) read as zeros, like a sparse file.
        """
        bs = self.block_size
        frames = [np.empty(bs, dtype=np.uint8) for _ in range(length)]
        for k in range(0, length, _IOV_MAX):
            chunk = frames[k:k + _IOV_MAX]
            got = os.preadv(self._fd, chunk, (first + k) * bs)
            self.stats.syscalls += 1
            if got < len(chunk) * bs:
                full, part = divmod(got, bs)
                chunk[full][part:] = 0
                for frame in chunk[full + 1:]:
                    frame[:] = 0
        return frames

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
    def block_view(self, block_id: int, count: int = 1) -> np.ndarray:
        """Zero-copy **read-only** view of ``count`` consecutive blocks
        (mmap mode only).

        Bypasses the buffer pool and all I/O accounting — this is the
        raw tile-view primitive for consumers that stream straight off
        the mapping and can tolerate the page cache's timing.  A
        multi-block view requires the ids to be physically consecutive,
        which the tile store guarantees for whole raw-codec tiles.
        """
        if self.mode != "mmap":
            raise ValueError("block_view requires the mmap backend")
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        self._check_id(block_id)
        self._check_id(block_id + count - 1)
        bs = self.block_size
        mm = self._mapping(block_id + count)
        view = np.frombuffer(mm, dtype=np.uint8, count=bs * count,
                             offset=block_id * bs)
        view.flags.writeable = False
        return view

    @property
    def resident_blocks(self) -> int:
        """Blocks backed by real file bytes (the file is zero-filled by
        extension, so this counts allocated-and-extended, not written)."""
        return min(self._next_block_id, self._file_blocks())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"FileBlockDevice(path={self.path!r}, mode={self.mode!r}"
                f"{', direct' if self.direct else ''}, block_size="
                f"{self.block_size}, allocated={self.allocated_blocks})")
