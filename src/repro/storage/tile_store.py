"""Tiled (chunked) array storage — the ChunkyStore analogue of RIOT §5.

Arrays are partitioned into rectangular tiles; each tile occupies whole pages
of a :class:`~repro.storage.pagefile.PageFile` — one page for the row and
column layouts, and for the default square layout one or sixteen, as
:func:`default_tile_side` decides from the store's buffer pool and the
matrix shape — and the order of tiles on disk is controlled by a
:class:`~repro.storage.linearization.Linearization`.  Array indexes are never
stored explicitly (unlike the relational representation the paper
criticizes): a tile's grid coordinate determines its disk position
arithmetically.

Design points taken straight from the paper:

- *"With tiling, an array is partitioned into (hyper)rectangular tiles; each
  tile is stored in a disk block, but the aspect ratio of tiles can be
  controlled."* — :func:`tile_shape_for_layout` offers the paper's row,
  column, and square aspect ratios; custom shapes are accepted everywhere.
- *"For matrices, row and column layouts correspond to tiling strategies
  where tiles are long and skinny."*
- Square tiles of area B make each p x p submatrix cost O(p^2/B) I/Os, which
  is what the Appendix-A optimal matrix multiply needs.  A square tile of
  16 pages keeps that bound (its pages are consecutive, a p x p
  submatrix still covers whole tiles) and gives a tile codec something to
  save: a payload occupies the first ``ceil(length / B)`` pages of its
  tile's span and only those are read, which a one-page tile can never
  improve on.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from collections.abc import Iterator

import numpy as np

from ..obs.tracer import Tracer
from .block_device import BlockDevice, IOStats
from .buffer_pool import BufferPool
from .codecs import TileCodec, get_codec
from .io_scheduler import IOScheduler, SchedulerStats
from .linearization import Linearization, make_linearization
from .pagefile import PageFile

_FLOAT = np.float64
_FLOAT_BYTES = 8

#: Chunks of lookahead a streamed window announces at most.
STREAM_PREFETCH_CHUNKS = 64

#: The default square tile is the one-page side or ``LARGE_TILE_SCALE``
#: times it (16 pages; 128 at B = 1024) — where the committed sweep
#: (``bench_tile_sweep.py``; README, "Default tile side") goes flat:
#: 256 saves under 2 % more blocks on the OLS workloads and none on the
#: chain, and leaves the panel schedules only multiples of 256 to pick
#: p from; the side in between costs a codec store *more* device calls
#: than either.
LARGE_TILE_SCALE = 4
#: The large tile leaves at least this many tiles' worth of frames in
#: the pool: the Appendix-A schedules hold three p x p submatrices
#: (more under a fused epilogue) and p must stay a whole number of
#: tiles, LU a tall panel one tile wide.
MIN_RESIDENT_TILES = 16
#: ... and may add at most this share of edge padding to a shape, in
#: pages spanned against the one-page layout: a raw tile is read and
#: written whole, padding included (a 129 x 129 matrix would span 64
#: pages in 128-side tiles, 25 in 32-side ones).
MAX_PADDING_SHARE = 1 / 8


def _pages_spanned(shape: tuple[int, int], side: int,
                   scalars_per_block: int) -> int:
    """Pages an array of ``shape`` occupies in square tiles of
    ``side`` (clipped to the shape, as ``TiledMatrix`` clips them)."""
    th, tw = max(1, min(shape[0], side)), max(1, min(shape[1], side))
    return (-(-shape[0] // th) * -(-shape[1] // tw)
            * -(-th * tw // scalars_per_block))


def default_tile_side(scalars_per_block: int,
                      pool_blocks: int | None = None,
                      shape: tuple[int, int] | None = None) -> int:
    """Side of the default square dense tile: the one statement of it.

    ``LARGE_TILE_SCALE * isqrt(B)`` — a square of 16 consecutive pages
    — in a pool of ``pool_blocks`` frames that keeps
    ``MIN_RESIDENT_TILES`` such tiles resident (256 blocks), for a
    ``shape`` (when one is named) it pads by no more than
    ``MAX_PADDING_SHARE``; otherwise, and for callers that name no
    pool, the one-page side ``isqrt(B)`` (area <= B, the Appendix-A
    layout as the paper states it).
    """
    one_page = max(1, math.isqrt(scalars_per_block))
    side = LARGE_TILE_SCALE * one_page
    if (pool_blocks is None or pool_blocks < MIN_RESIDENT_TILES
            * -(-side * side // scalars_per_block)):
        return one_page
    if shape is not None and (
            _pages_spanned(shape, side, scalars_per_block)
            > (1 + MAX_PADDING_SHARE)
            * _pages_spanned(shape, one_page, scalars_per_block)):
        return one_page
    return side


def stream_window(pool_blocks: float, sources: int) -> int:
    """Chunks per streamed window that a pool of ``pool_blocks`` holds.

    Each chunk of the window touches ``sources`` input blocks and one
    output block; a full window of prefetched inputs plus the outputs
    written after consuming it must fit beside two spare frames.  An
    oversized window would evict its own prefetched frames before they
    are read — re-reading them later and silently inflating the block
    totals the cost models rely on.
    """
    fits = max(1, (int(pool_blocks) - 2) // (sources + 1))
    return min(STREAM_PREFETCH_CHUNKS, fits)


def tile_shape_for_layout(layout: str, shape: tuple[int, int],
                          scalars_per_block: int,
                          pool_blocks: int | None = None
                          ) -> tuple[int, int]:
    """Translate a named layout into a tile shape for a matrix.

    ``row``    long skinny horizontal tiles (1 x B), row-major order.
    ``col``    long skinny vertical tiles (B x 1) — R's default column order.
    ``square`` square tiles of side :func:`default_tile_side` (the
               Appendix-A layout): area <= B without ``pool_blocks``,
               16 pages in a pool that can afford them.
    """
    n1, n2 = shape
    if n1 <= 0 or n2 <= 0:
        raise ValueError(
            f"cannot tile a zero- or negative-sized matrix: shape "
            f"{shape} (every dimension must be >= 1)")
    if scalars_per_block <= 0:
        raise ValueError(
            f"scalars_per_block must be positive, got {scalars_per_block}")
    if layout == "row":
        # Row-major packing: whole rows laid end to end.  When a row is
        # shorter than a block, several rows share one block so pages stay
        # full (no padding waste).
        if n2 >= scalars_per_block:
            return (1, scalars_per_block)
        return (min(n1, max(1, scalars_per_block // n2)), n2)
    if layout == "col":
        if n1 >= scalars_per_block:
            return (scalars_per_block, 1)
        return (n1, min(n2, max(1, scalars_per_block // n1)))
    if layout == "square":
        side = default_tile_side(scalars_per_block, pool_blocks, shape)
        return (min(n1, side), min(n2, side))
    raise ValueError(f"unknown layout {layout!r}; use row|col|square")


class TiledVector:
    """A 1-D array stored as fixed-size chunks of float64 values."""

    #: Set by the first :meth:`drop`.
    dropped = False

    def __init__(self, store: "ArrayStore", name: str, length: int,
                 chunk: int) -> None:
        if length < 0:
            raise ValueError(f"length must be >= 0, got {length}")
        if chunk <= 0:
            raise ValueError(f"chunk must be positive, got {chunk}")
        max_chunk = store.device.block_size // _FLOAT_BYTES
        if chunk > max_chunk:
            raise ValueError(
                f"chunk of {chunk} scalars exceeds one page ({max_chunk})")
        self.store = store
        self.name = name
        self.length = length
        self.chunk = chunk
        self.file = PageFile(store.device, name=name)
        self.file.allocate_pages(self.num_chunks)

    @classmethod
    def _attach(cls, store: "ArrayStore", name: str,
                entry: dict) -> "TiledVector":
        """Rebind a persisted vector (manifest entry) without I/O."""
        vec = cls.__new__(cls)
        vec.store = store
        vec.name = name
        vec.length = int(entry["length"])
        vec.chunk = int(entry["chunk"])
        vec.file = PageFile.attach(store.device, name, entry["pages"])
        return vec

    # ------------------------------------------------------------------
    @property
    def num_chunks(self) -> int:
        return -(-self.length // self.chunk) if self.length else 0

    def chunk_bounds(self, ci: int) -> tuple[int, int]:
        self._check_chunk(ci)
        lo = ci * self.chunk
        return lo, min(lo + self.chunk, self.length)

    # ------------------------------------------------------------------
    def _run_bounds(self, ci: int, count: int) -> tuple[int, int]:
        """Element range ``[lo, hi)`` of chunks ``[ci, ci + count)``."""
        if count < 1:
            raise ValueError(f"a run needs at least one chunk, got {count}")
        self._check_chunk(ci)
        if ci + count > self.num_chunks:
            raise IndexError(
                f"chunks [{ci}, {ci + count}) cross the end of {self.name} "
                f"({self.num_chunks} chunks)")
        lo = ci * self.chunk
        return lo, min(lo + count * self.chunk, self.length)

    def read_chunk(self, ci: int, count: int = 1) -> np.ndarray:
        """Read chunks ``[ci, ci + count)`` as one fresh float64 array
        (:meth:`view_range` reads without the copy)."""
        lo, hi = self._run_bounds(ci, count)
        frames = self.store.pool.get_many(
            self.blocks_for_chunks(range(ci, ci + count)))
        width = self.chunk * _FLOAT_BYTES
        parts = [frame[:width] for frame in frames]
        parts[-1] = parts[-1][:(hi - lo) * _FLOAT_BYTES
                              - (count - 1) * width]
        out = np.empty(hi - lo, dtype=_FLOAT)
        np.concatenate(parts, out=out.view(np.uint8))
        return out

    def write_chunk(self, ci: int, values: np.ndarray, *,
                    hand_over: bool = False) -> None:
        """Write a run of whole chunks starting at chunk ``ci``.

        ``values`` covers one or more whole chunks; only a run that
        ends at the vector's end may stop short of a chunk boundary.
        The values are copied once, into the pages the pool then keeps
        as the run's frames; only page slack is zero-filled.
        ``hand_over``: the caller gives ``values`` away and never
        touches it again, so when it is whole pages of float64 the pool
        keeps its memory as the frames, uncopied.
        """
        vals = np.ascontiguousarray(values, dtype=_FLOAT)
        count = max(1, -(-vals.size // self.chunk))
        lo, hi = self._run_bounds(ci, count)
        if vals.size != hi - lo:
            raise ValueError(
                f"chunk {ci} expects {hi - lo} values, got {vals.size}")
        raw = vals.view(np.uint8)
        bs = self.store.device.block_size
        width = self.chunk * _FLOAT_BYTES
        full = vals.size // self.chunk
        if hand_over and width == bs and full == count:
            self.store.pool.put_many(
                self.blocks_for_chunks(range(ci, ci + count)),
                raw.reshape(count, bs))
            return
        pages = np.empty((count, bs), dtype=np.uint8)
        pages[:, width:] = 0                       # page slack
        pages[:full, :width] = raw[:full * width].reshape(full, width)
        if full < count:                           # a ragged last chunk
            tail = raw.size - full * width
            pages[full, :tail] = raw[full * width:]
            pages[full, tail:width] = 0
        self.store.pool.put_many(
            self.blocks_for_chunks(range(ci, ci + count)), pages)

    def read_range(self, lo: int, hi: int) -> np.ndarray:
        """Elements ``[lo, hi)`` as a fresh array, read as one run of
        the covering chunks."""
        self._check_range(lo, hi)
        if lo == hi:
            return np.empty(0, dtype=_FLOAT)
        c0 = lo // self.chunk
        run = self.read_chunk(c0, -(-hi // self.chunk) - c0)
        return run[lo - c0 * self.chunk: hi - c0 * self.chunk]

    def view_range(self, lo: int, hi: int) -> np.ndarray:
        """Elements ``[lo, hi)`` as a read-only array: a view of the
        buffer the covering chunks' pages are consecutive rows of
        (:meth:`BufferPool.get_run`), else one gather copy.  Valid
        until the next pool call; for a fresh array use
        :meth:`read_range`."""
        self._check_range(lo, hi)
        if (lo == hi
                or self.chunk * _FLOAT_BYTES != self.store.device.block_size):
            out = self.read_range(lo, hi)   # nothing, or pages with slack
        else:
            c0 = lo // self.chunk
            run = self.store.pool.get_run(
                self.blocks_for_chunks(range(c0, -(-hi // self.chunk))))
            out = run.reshape(-1).view(_FLOAT)[lo - c0 * self.chunk:
                                               hi - c0 * self.chunk]
        out.flags.writeable = False
        return out

    def blocks_for_chunks(self, chunk_ids) -> list[int]:
        """Device block keys backing the given chunks (prefetch hints)."""
        return self.file.blocks_of(chunk_ids)

    def scan(self) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(start_index, values)`` runs covering the vector in order.

        The scan announces its own footprint: each run of one
        :func:`stream_window` of chunks is hinted to the buffer pool and
        then read as one run, so a cold scan issues a few large
        coalesced reads instead of one device call per chunk.
        """
        window = stream_window(self.store.pool.capacity, 1)
        for ci in range(0, self.num_chunks, window):
            count = min(window, self.num_chunks - ci)
            self.store.pool.prefetch(
                self.blocks_for_chunks(range(ci, ci + count)))
            yield ci * self.chunk, self.read_chunk(ci, count)

    def gather(self, indices: np.ndarray) -> np.ndarray:
        """Fetch arbitrary elements, touching only the containing chunks.

        This is the I/O path behind selective evaluation: fetching 100
        sampled elements reads at most 100 chunks, not the whole vector.
        """
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size == 0:
            return np.empty(0, dtype=_FLOAT)
        if idx.min() < 0 or idx.max() >= self.length:
            raise IndexError("gather index out of range")
        out = np.empty(idx.size, dtype=_FLOAT)
        chunks = idx // self.chunk
        order = np.argsort(chunks, kind="stable")
        # Announce the exact chunk footprint: a dense sorted gather then
        # coalesces its chunk reads into a few device calls.
        self.store.pool.prefetch(
            self.blocks_for_chunks(np.unique(chunks).tolist()))
        pos = 0
        while pos < idx.size:
            ci = int(chunks[order[pos]])
            end = pos
            while end < idx.size and chunks[order[end]] == ci:
                end += 1
            data = self.read_chunk(ci)
            sel = order[pos:end]
            out[sel] = data[idx[sel] - ci * self.chunk]
            pos = end
        return out

    def scatter(self, indices: np.ndarray, values: np.ndarray) -> None:
        """Write arbitrary elements (read-modify-write of touched chunks)."""
        idx = np.asarray(indices, dtype=np.int64)
        vals = np.asarray(values, dtype=_FLOAT)
        if idx.shape != vals.shape:
            raise ValueError("indices and values must align")
        if idx.size == 0:
            return
        if idx.min() < 0 or idx.max() >= self.length:
            raise IndexError("scatter index out of range")
        chunks = idx // self.chunk
        order = np.argsort(chunks, kind="stable")
        pos = 0
        while pos < idx.size:
            ci = int(chunks[order[pos]])
            end = pos
            while end < idx.size and chunks[order[end]] == ci:
                end += 1
            data = self.read_chunk(ci)
            sel = order[pos:end]
            data[idx[sel] - ci * self.chunk] = vals[sel]
            self.write_chunk(ci, data)
            pos = end

    # ------------------------------------------------------------------
    def to_numpy(self) -> np.ndarray:
        out = np.empty(self.length, dtype=_FLOAT)
        for lo, data in self.scan():
            out[lo: lo + data.size] = data
        return out

    def from_numpy(self, values: np.ndarray) -> "TiledVector":
        vals = np.ascontiguousarray(values, dtype=_FLOAT)
        if vals.size != self.length:
            raise ValueError(
                f"expected {self.length} values, got {vals.size}")
        step = stream_window(self.store.pool.capacity, 1) * self.chunk
        for lo in range(0, self.length, step):
            self.write_chunk(lo // self.chunk, vals[lo: lo + step])
        return self

    def drop(self) -> None:
        """Free the vector's blocks and leave the store; a second drop
        frees nothing (:meth:`ArrayStore._forget`)."""
        if self.store._forget(self):
            self.store.pool.discard(self.file.page_map)
            self.file.drop()

    def _check_range(self, lo: int, hi: int) -> None:
        if not 0 <= lo <= hi <= self.length:
            raise IndexError(
                f"range [{lo}, {hi}) outside [0, {self.length}) of "
                f"{self.name}")

    def _check_chunk(self, ci: int) -> None:
        if not 0 <= ci < self.num_chunks:
            raise IndexError(
                f"chunk {ci} outside [0, {self.num_chunks}) of {self.name}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"TiledVector({self.name!r}, length={self.length}, "
                f"chunk={self.chunk})")


class TiledMatrix:
    """A 2-D array stored as rectangular tiles over whole pages.

    Each matrix carries its own storage ``dtype`` (float64 or float32)
    and per-tile :class:`~repro.storage.codecs.TileCodec`.  With a
    non-``raw`` codec the ``tile_dir`` maps a tile's linearized
    position to its compressed payload length: a positive length means
    the payload occupies the first ``ceil(length / block_size)`` of
    the tile's pre-allocated pages, ``0`` is the raw-fallback sentinel
    for incompressible tiles, and an absent entry means the tile was
    never written (reads return zeros without touching the device).

    A codec tile is encoded when it leaves memory, not when it is
    written: ``write_*`` leaves it *pending* in the store's
    :class:`DecodedTileCache`, the codec write buffer, and
    :meth:`_spill` encodes it when the cache evicts it, when the store
    is flushed or closed, or when :meth:`stored_pages` is asked what
    the matrix costs on disk.  A pending tile is read from the cache
    and has no pages (:meth:`tile_blocks`); every other written tile
    is decoded from its pages on each read, and none is kept decoded
    after it.  :meth:`drop` discards pending tiles unencoded.
    """

    #: Set by the first :meth:`drop`.
    dropped = False

    def __init__(self, store: "ArrayStore", name: str,
                 shape: tuple[int, int], tile_shape: tuple[int, int],
                 linearization: str | Linearization = "row",
                 dtype: np.dtype | str | None = None,
                 codec: TileCodec | str | None = None) -> None:
        n1, n2 = shape
        th, tw = tile_shape
        if n1 <= 0 or n2 <= 0:
            raise ValueError(f"shape must be positive, got {shape}")
        if th <= 0 or tw <= 0:
            raise ValueError(f"tile shape must be positive, got {tile_shape}")
        self.store = store
        self.name = name
        self.shape = (n1, n2)
        self.dtype = (np.dtype(dtype) if dtype is not None
                      else store.dtype)
        self.codec = (get_codec(codec) if codec is not None
                      else store.codec)
        self.tile_dir: dict[int, int] = {}
        self._pages_stored = 0
        self.tile_shape = (min(th, n1), min(tw, n2))
        self.grid = (-(-n1 // self.tile_shape[0]),
                     -(-n2 // self.tile_shape[1]))
        if isinstance(linearization, Linearization):
            self.linearization = linearization
        else:
            self.linearization = make_linearization(
                linearization, self.grid[0], self.grid[1])
        th, tw = self.tile_shape
        self.pages_per_tile = -(-th * tw * self.dtype.itemsize
                                // store.device.block_size)
        self.file = PageFile(store.device, name=name)
        self.file.allocate_pages(
            self.grid[0] * self.grid[1] * self.pages_per_tile)
        self._blocks = self._block_table()

    @classmethod
    def _attach(cls, store: "ArrayStore", name: str,
                entry: dict) -> "TiledMatrix":
        """Rebind a persisted matrix (manifest entry) without I/O."""
        mat = cls.__new__(cls)
        mat.store = store
        mat.name = name
        mat.shape = tuple(int(d) for d in entry["shape"])
        mat.dtype = np.dtype(entry.get("dtype", "float64"))
        mat.codec = get_codec(entry.get("codec", "raw"))
        mat.tile_dir = {int(k): int(v)
                        for k, v in entry.get("tile_dir", {}).items()}
        mat.tile_shape = tuple(int(d) for d in entry["tile_shape"])
        mat.grid = (-(-mat.shape[0] // mat.tile_shape[0]),
                    -(-mat.shape[1] // mat.tile_shape[1]))
        mat.linearization = make_linearization(
            entry["linearization"], mat.grid[0], mat.grid[1])
        th, tw = mat.tile_shape
        mat.pages_per_tile = -(-th * tw * mat.dtype.itemsize
                               // store.device.block_size)
        mat.file = PageFile.attach(store.device, name, entry["pages"])
        mat._blocks = mat._block_table()
        mat._pages_stored = sum(mat._pages_of(comp)
                                for comp in mat.tile_dir.values())
        return mat

    # ------------------------------------------------------------------
    def _block_table(self) -> np.ndarray:
        """Device block ids of every tile: a read-only int64 table of
        shape ``grid + (pages_per_tile,)``, from the linearization
        arithmetic and the page map.  A tile's blocks and a
        rectangle's blocks are slices of it."""
        g0, g1 = self.grid
        pos = np.fromiter(
            (self.linearization.index(ti, tj)
             for ti in range(g0) for tj in range(g1)),
            dtype=np.int64, count=g0 * g1)
        pages = (pos[:, None] * self.pages_per_tile
                 + np.arange(self.pages_per_tile))
        table = np.asarray(self.file.page_map, dtype=np.int64)[pages]
        table.shape = (g0, g1, self.pages_per_tile)
        table.flags.writeable = False
        return table

    def tile_bounds(self, ti: int, tj: int) -> tuple[int, int, int, int]:
        """Return (row_lo, row_hi, col_lo, col_hi) of tile (ti, tj)."""
        self._check_tile(ti, tj)
        th, tw = self.tile_shape
        r0 = ti * th
        c0 = tj * tw
        return (r0, min(r0 + th, self.shape[0]),
                c0, min(c0 + tw, self.shape[1]))

    def _tile_span(self, r0: int, r1: int, c0: int, c1: int
                   ) -> tuple[int, int, int, int]:
        """Grid range ``(ti0, ti1, tj0, tj1)`` of the tiles covering a
        rectangle."""
        th, tw = self.tile_shape
        ti0, ti1 = r0 // th, -(-r1 // th)
        tj0, tj1 = c0 // tw, -(-c1 // tw)
        if not (0 <= ti0 and ti1 <= self.grid[0]
                and 0 <= tj0 and tj1 <= self.grid[1]):
            raise IndexError(
                f"rectangle ({r0}:{r1}, {c0}:{c1}) outside grid "
                f"{self.grid} of {self.name}")
        return ti0, ti1, tj0, tj1

    def tile_blocks(self, ti: int, tj: int) -> list[int]:
        """Device block keys backing tile (ti, tj) — the prefetch unit.

        Codec-aware: a compressed tile reports only the pages its
        payload occupies, and a never-written or pending compressed
        tile reports none (its read is pure zeros or served from the
        decoded-tile cache, no I/O).
        """
        self._check_tile(ti, tj)
        if self.codec.name == "raw":
            return self._blocks[ti, tj].tolist()
        return self.submatrix_blocks(*self.tile_bounds(ti, tj))

    def submatrix_blocks(self, r0: int, r1: int, c0: int, c1: int
                         ) -> list[int]:
        """Device block keys for every tile covering the rectangle, in
        row-major tile order: exactly the pages a read of it fetches."""
        ti0, ti1, tj0, tj1 = self._tile_span(r0, r1, c0, c1)
        if self.codec.name == "raw":
            return self._blocks[ti0:ti1, tj0:tj1].ravel().tolist()
        return [bid for ti, tj, comp in self._stored_tiles(ti0, ti1,
                                                           tj0, tj1)
                for bid in self._payload_blocks(ti, tj, comp)]

    def _stored_tiles(self, ti0: int, ti1: int, tj0: int, tj1: int
                      ) -> list[tuple[int, int, int]]:
        """The codec tiles of ``[ti0, ti1) x [tj0, tj1)`` a read fetches
        from their pages — written and encoded, not pending — as
        ``(ti, tj, payload length)`` in row-major order: what
        :meth:`submatrix_blocks` announces and :meth:`_assemble`
        decodes."""
        pending = self.store.tile_cache.is_dirty
        with self.store.pool.lock:
            return [(ti, tj, comp)
                    for ti in range(ti0, ti1) for tj in range(tj0, tj1)
                    if (comp := self.tile_dir.get(
                        self.linearization.index(ti, tj))) is not None
                    and not pending((self, ti, tj))]

    def _pages_of(self, comp: int) -> int:
        """Pages of its span a written codec tile keeps data in: its
        payload's, or all of them for a raw-fallback tile (0)."""
        return -(-comp // self.store.device.block_size) \
            or self.pages_per_tile

    def _payload_blocks(self, ti: int, tj: int, comp: int) -> list[int]:
        """The blocks a stored codec tile of payload length ``comp``
        keeps data in: the first :meth:`_pages_of` of its span."""
        return self._blocks[ti, tj, : self._pages_of(comp)].tolist()

    def stored_pages(self) -> tuple[int, int]:
        """``(pages holding data, pages spanned)`` over the codec
        tiles written so far — both 0 for a ``raw`` matrix.  Pending
        tiles are encoded first, so a freshly written matrix prices at
        what it will cost on disk; then the running counts kept by
        :meth:`_record_tile`."""
        self.store.tile_cache.settle(self)
        with self.store.pool.lock:
            return (self._pages_stored,
                    len(self.tile_dir) * self.pages_per_tile)

    def _record_tile(self, pos: int, comp: int, logical: int) -> None:
        """Enter a spilled codec tile in the directory (``comp`` 0: it
        was stored raw) and record the traffic on the v3 byte axis —
        under the pool lock, the serializer of every other stats
        mutation."""
        with self.store.pool.lock:
            old = self.tile_dir.get(pos)
            if old is not None:
                self._pages_stored -= self._pages_of(old)
            self.tile_dir[pos] = comp
            self._pages_stored += self._pages_of(comp)
        self._charge_codec(logical, comp or logical)

    def _charge_codec(self, logical: int, compressed: int) -> None:
        """Record codec traffic on the v3 byte axis (under the pool
        lock, as above)."""
        with self.store.pool.lock:
            stats = self.store.device.stats
            stats.bytes_logical += logical
            stats.bytes_compressed += compressed

    # ------------------------------------------------------------------
    # The dense data path: one assemble and one scatter routine serve
    # tiles and rectangles, raw and codec alike.
    # ------------------------------------------------------------------
    def _assemble(self, ti0: int, ti1: int, tj0: int, tj1: int
                  ) -> np.ndarray:
        """Tiles ``[ti0, ti1) x [tj0, tj1)`` as one fresh, writable,
        zero-padded ``((ti1 - ti0) * th, (tj1 - tj0) * tw)`` array.

        Raw tiles come through a single ``get_many`` over the
        rectangle's blocks in row-major tile order and are gathered a
        tile row at a time, so the staging copy is one band, never a
        second rectangle.  Codec tiles take the same shape: a pending
        tile is copied from the decoded-tile cache, the payload pages
        of every stored one (:meth:`_stored_tiles`) come through one
        ``get_many`` in that order and are decoded straight into their
        cells, and a never-written tile reads as zeros.  The read
        inserts nothing into the cache, so it spills nothing, and
        ``read_submatrix`` has already announced those pages.
        """
        th, tw = self.tile_shape
        nti, ntj = ti1 - ti0, tj1 - tj0
        out = np.empty((nti * th, ntj * tw), dtype=self.dtype)
        cells = out.reshape(nti, th, ntj, tw)  # cells[i, :, j]: a tile
        pool = self.store.pool
        if self.codec.name == "raw":
            frames = pool.get_many(
                self._blocks[ti0:ti1, tj0:tj1].ravel().tolist())
            band = ntj * self.pages_per_tile
            for i in range(nti):
                cells[i] = self._tiles_of(
                    frames[i * band: (i + 1) * band]
                ).reshape(ntj, th, tw).transpose(1, 0, 2)
            return out
        cache = self.store.tile_cache
        with pool.lock:
            stored = self._stored_tiles(ti0, ti1, tj0, tj1)
            frames = pool.get_many(
                [bid for ti, tj, comp in stored
                 for bid in self._payload_blocks(ti, tj, comp)])
            decoded = {(ti, tj) for ti, tj, _ in stored}
            for i in range(nti):
                for j in range(ntj):
                    ti, tj = ti0 + i, tj0 + j
                    if (ti, tj) not in decoded:
                        # Pending, else never written: zeros, no I/O
                        # (sparse-file semantics).
                        tile = cache.get((self, ti, tj))
                        cells[i, :, j] = (0 if tile is None
                                          else tile.reshape(th, tw))
            cache.misses += sum(1 for *_, comp in stored if comp)
        logical = th * tw * self.dtype.itemsize
        k = 0
        for ti, tj, comp in stored:
            held = frames[k: k + self._pages_of(comp)]
            k += len(held)
            cell = cells[ti - ti0, :, tj - tj0]
            if comp == 0:
                cell[...] = self._tiles_of(held)[0].reshape(th, tw)
                self._charge_codec(logical, logical)
                continue
            # A one-page payload decodes straight out of its frame.
            staged = held[0] if len(held) == 1 else np.concatenate(held)
            cell[...] = self.codec.decode_tile(
                memoryview(staged)[:comp], self.dtype, th * tw
            ).reshape(th, tw)
            self._charge_codec(logical, comp)
        return out

    def _tiles_of(self, frames: list[np.ndarray]) -> np.ndarray:
        """The page frames of whole raw tiles as a fresh
        ``(n_tiles, th * tw)`` array (page slack dropped)."""
        flat = np.concatenate(frames).view(self.dtype)
        th, tw = self.tile_shape
        per_page = self.store.device.block_size // self.dtype.itemsize
        return flat.reshape(-1, self.pages_per_tile * per_page)[
            :, : th * tw]

    def _scatter(self, tis: list[int], tjs: list[int],
                 tiles: np.ndarray, owned: bool) -> None:
        """Write zero-padded tiles — row ``k`` of the C-contiguous
        ``(n, th * tw)`` array goes to grid cell ``(tis[k], tjs[k])``
        — in the given order: raw tiles as one tile-major page batch,
        codec tiles into the decoded-tile cache one by one.  ``owned``:
        nobody else holds ``tiles``, so its pages may become frames."""
        if self.codec.name == "raw":
            # One tile (write_tile, so every from_numpy) is a plain
            # index: the fancy one costs more than the copy it feeds.
            self._put_raw(self._blocks[tis[0], tjs[0]] if len(tis) == 1
                          else self._blocks[tis, tjs], tiles, owned)
        else:
            for ti, tj, tile in zip(tis, tjs, tiles):
                self._write_codec_tile(ti, tj, tile)

    def _put_raw(self, blocks: np.ndarray, tiles: np.ndarray,
                 owned: bool) -> None:
        """Hand raw tiles to the pool as pages, which it keeps as
        frames: ``tiles`` itself when ``owned`` and page-filling, else
        a copy (zero slack where a tile does not fill its last page)."""
        bs = self.store.device.block_size
        pages = tiles.view(np.uint8)
        span = self.pages_per_tile * bs
        if pages.shape[1] != span or not owned:
            padded = np.empty((len(tiles), span), dtype=np.uint8)
            padded[:, : pages.shape[1]] = pages
            padded[:, pages.shape[1]:] = 0
            pages = padded
        self.store.pool.put_many(blocks.ravel().tolist(),
                                 pages.reshape(-1, bs))

    def _write_codec_tile(self, ti: int, tj: int,
                          tile: np.ndarray) -> None:
        """Leave a written codec tile pending in the decoded-tile
        cache, encoded only when it leaves memory (:meth:`_spill`).
        The pages of the payload it supersedes are dropped now, so
        they are neither flushed nor read back.  One pool-lock hold, so
        no spill of the tile's previous version lands in between."""
        pool = self.store.pool
        with pool.lock:
            for bid in self.tile_blocks(ti, tj):
                pool.invalidate(bid)
            self.store.tile_cache.put((self, ti, tj), tile)

    def _spill(self, ti: int, tj: int, tile: np.ndarray,
               through: bool = False) -> None:
        """Encode a pending tile into the first pages of its span in
        the pool and enter it in ``tile_dir``: the one place a codec
        tile is encoded.  A payload that outgrows the span is stored
        raw (length 0, the fallback sentinel).  ``through`` writes the
        pages on to the device and leaves none of them in the pool."""
        bs = self.store.device.block_size
        pool = self.store.pool
        blocks = self._blocks[ti, tj]
        payload = self.codec.encode_tile(tile.reshape(self.tile_shape))
        if len(payload) > len(blocks) * bs:
            comp = 0
            self._put_raw(blocks, tile.reshape(1, -1), owned=False)
        else:
            comp = len(payload)
            nb = -(-comp // bs)
            buf = np.zeros(nb * bs, dtype=np.uint8)
            buf[:comp] = np.frombuffer(payload, dtype=np.uint8)
            pool.put_many(blocks[:nb].tolist(), buf.reshape(nb, bs))
        if through:
            for bid in self._payload_blocks(ti, tj, comp):
                pool.flush(bid)
                pool.invalidate(bid)
        self._record_tile(self.linearization.index(ti, tj), comp,
                          tile.nbytes)

    def read_tile(self, ti: int, tj: int) -> np.ndarray:
        """Read tile (ti, tj) as a 2-D array (clipped at edges)."""
        r0, r1, c0, c1 = self.tile_bounds(ti, tj)
        full = self._assemble(ti, ti + 1, tj, tj + 1)
        return np.ascontiguousarray(full[: r1 - r0, : c1 - c0])

    def write_tile(self, ti: int, tj: int, values: np.ndarray) -> None:
        r0, r1, c0, c1 = self.tile_bounds(ti, tj)
        vals = np.ascontiguousarray(values, dtype=self.dtype)
        if vals.shape != (r1 - r0, c1 - c0):
            raise ValueError(
                f"tile ({ti},{tj}) expects shape {(r1 - r0, c1 - c0)}, "
                f"got {vals.shape}")
        full = np.zeros(self.tile_shape, dtype=self.dtype)
        full[: r1 - r0, : c1 - c0] = vals
        self._scatter([ti], [tj], full.reshape(1, -1), owned=True)

    def tiles(self) -> Iterator[tuple[int, int]]:
        """Yield tile coordinates in on-disk (linearized) order."""
        total = self.grid[0] * self.grid[1]
        for pos in range(total):
            yield self.linearization.coords(pos)

    # ------------------------------------------------------------------
    def _check_rect(self, r0: int, r1: int, c0: int, c1: int) -> None:
        if not (0 <= r0 <= r1 <= self.shape[0]
                and 0 <= c0 <= c1 <= self.shape[1]):
            raise IndexError(f"rectangle ({r0}:{r1}, {c0}:{c1}) out of range")

    def read_submatrix(self, r0: int, r1: int, c0: int, c1: int
                       ) -> np.ndarray:
        """Read an arbitrary aligned-or-not rectangle (touches its tiles)."""
        self._check_rect(r0, r1, c0, c1)
        # The rectangle's tile footprint is exact and about to be read in
        # full — announce it so the misses coalesce into large I/Os.
        self.store.pool.prefetch(self.submatrix_blocks(r0, r1, c0, c1))
        if r0 == r1 or c0 == c1:
            return np.empty((r1 - r0, c1 - c0), dtype=self.dtype)
        th, tw = self.tile_shape
        ti0, ti1, tj0, tj1 = self._tile_span(r0, r1, c0, c1)
        full = self._assemble(ti0, ti1, tj0, tj1)
        return np.ascontiguousarray(
            full[r0 - ti0 * th: r1 - ti0 * th,
                 c0 - tj0 * tw: c1 - tj0 * tw])

    # Kept only as a name: benchmarks/macro/macro_layers.py wraps this
    # method by name when it traces, so removing it breaks that pass.
    read_submatrix_view = read_submatrix

    def write_submatrix(self, r0: int, c0: int, values: np.ndarray) -> None:
        vals = np.ascontiguousarray(values, dtype=self.dtype)
        r1 = r0 + vals.shape[0]
        c1 = c0 + vals.shape[1]
        self._check_rect(r0, r1, c0, c1)
        if vals.size == 0:
            return
        th, tw = self.tile_shape
        ti0, ti1, tj0, tj1 = self._tile_span(r0, r1, c0, c1)
        nti, ntj = ti1 - ti0, tj1 - tj0
        # A tile row (column) is covered whole when the rectangle spans
        # it up to the matrix edge; a tile is whole when both are.
        rows = np.arange(ti0, ti1)
        cols = np.arange(tj0, tj1)
        rows_whole = ((rows * th >= r0)
                      & (np.minimum((rows + 1) * th, self.shape[0]) <= r1))
        cols_whole = ((cols * tw >= c0)
                      & (np.minimum((cols + 1) * tw, self.shape[1]) <= c1))
        whole = (rows_whole[:, None] & cols_whole).ravel()
        tis = np.repeat(rows, ntj).tolist()
        tjs = np.tile(cols, nti).tolist()
        partial = np.flatnonzero(~whole).tolist()
        if partial:
            # Tiles the rectangle only partially covers are read-
            # modify-written; announce that read footprint up front so
            # the misses coalesce (and so a kernel span's sanitizer
            # sees the reads as part of the declared footprint, not
            # stray demand misses).
            self.store.pool.prefetch(
                [bid for k in partial
                 for bid in self.tile_blocks(tis[k], tjs[k])])
        # The rectangle, zero-padded out to tile boundaries and cut
        # into tile-major rows.  Whole tiles go to the pool in runs of
        # row-major tile order; a partial tile in between is merged
        # over its current contents first, at its own place in that
        # order, so the pool sees one tile after another as if each
        # had been written on its own.
        padded = vals
        if vals.shape != (nti * th, ntj * tw):
            padded = np.zeros((nti * th, ntj * tw), dtype=self.dtype)
            padded[r0 - ti0 * th: r1 - ti0 * th,
                   c0 - tj0 * tw: c1 - tj0 * tw] = vals
        tiles = np.ascontiguousarray(
            padded.reshape(nti, th, ntj, tw).transpose(0, 2, 1, 3)
            .reshape(nti * ntj, th * tw))
        owned = not np.may_share_memory(tiles, values)
        start = 0
        for k in partial + [whole.size]:
            if start < k:
                self._scatter(tis[start:k], tjs[start:k], tiles[start:k],
                              owned)
            if k < whole.size:
                tr0, tc0 = tis[k] * th, tjs[k] * tw
                tile = self._assemble(tis[k], tis[k] + 1,
                                      tjs[k], tjs[k] + 1)
                ir0, ir1 = max(tr0, r0), min(tr0 + th, r1)
                ic0, ic1 = max(tc0, c0), min(tc0 + tw, c1)
                tile[ir0 - tr0: ir1 - tr0, ic0 - tc0: ic1 - tc0] = \
                    vals[ir0 - r0: ir1 - r0, ic0 - c0: ic1 - c0]
                self._scatter(tis[k: k + 1], tjs[k: k + 1],
                              tile.reshape(1, -1), owned=True)
            start = k + 1

    # ------------------------------------------------------------------
    def to_numpy(self) -> np.ndarray:
        out = np.empty(self.shape, dtype=self.dtype)
        for ti, tj in self.tiles():
            r0, r1, c0, c1 = self.tile_bounds(ti, tj)
            out[r0:r1, c0:c1] = self.read_tile(ti, tj)
        return out

    def from_numpy(self, values: np.ndarray) -> "TiledMatrix":
        vals = np.ascontiguousarray(values, dtype=self.dtype)
        if vals.shape != self.shape:
            raise ValueError(
                f"expected shape {self.shape}, got {vals.shape}")
        for ti, tj in self.tiles():
            r0, r1, c0, c1 = self.tile_bounds(ti, tj)
            self.write_tile(ti, tj, vals[r0:r1, c0:c1])
        return self

    def drop(self) -> None:
        """Free the matrix's blocks and leave the store; a second drop
        frees nothing (:meth:`ArrayStore._forget`)."""
        if not self.store._forget(self):
            return
        # Pending tiles go first, unencoded: none may spill into the
        # blocks the pool is about to forget.
        self.store.tile_cache.invalidate_matrix(self)
        self.store.pool.discard(self._blocks.ravel().tolist())
        with self.store.pool.lock:
            self.tile_dir.clear()
            self._pages_stored = 0
        self.file.drop()
        self._blocks = self._blocks[:0]

    def _check_tile(self, ti: int, tj: int) -> None:
        if not (0 <= ti < self.grid[0] and 0 <= tj < self.grid[1]):
            raise IndexError(
                f"tile ({ti},{tj}) outside grid {self.grid} of {self.name}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"TiledMatrix({self.name!r}, shape={self.shape}, "
                f"tile={self.tile_shape}, "
                f"order={self.linearization.name})")


#: Minimum buffer-pool capacity in blocks.  Below this the store cannot
#: hold one tile plus working frames, and every cost model's streaming
#: assumption breaks.
MIN_POOL_BLOCKS = 4


class DecodedTileCache:
    """The codec write buffer: tiles written and not yet encoded.

    A write to a codec matrix leaves its ``(th, tw)`` tile here,
    decoded, under ``(matrix, ti, tj)`` (the matrix's *pending*
    tiles), under a byte budget of its own.  The key holds the matrix
    itself, not its name, so two live matrices that share a name keep
    their own pending tiles.  A tile is spilled —
    encoded into its pages by its matrix's ``_spill`` — only when it
    leaves memory: evicted, least recently used first, by a later
    :meth:`put`, or released by :meth:`settle` and :meth:`clear`; one
    larger than the whole budget is spilled at once.  Nothing else
    enters: a tile read from its pages is decoded into the reader's
    array and not kept, and ``raw`` tiles never enter (their pool
    frame already is the decoded form).  ``hits`` counts reads served
    by a pending tile and ``misses`` codec tile reads decoded from
    pages (``TiledMatrix._assemble`` counts those).

    The store hands the cache its pool's lock: a spill puts pages in
    the pool and enters the tile in its matrix's directory, and under
    that one lock no reader sees a tile that has left the cache before
    its pages are there, and no write of a tile interleaves with the
    spill of its previous version.  Reads and writes of one tile from
    two threads are otherwise not ordered (nothing in the engine
    issues both at once).
    """

    def __init__(self, capacity_bytes: int,
                 lock: threading.RLock) -> None:
        self.capacity_bytes = max(0, int(capacity_bytes))
        # (matrix, ti, tj) -> its pending tile.
        self._entries: OrderedDict[
            tuple[TiledMatrix, int, int], np.ndarray] = OrderedDict()
        self._bytes = 0
        self._lock = lock
        self.hits = 0
        self.misses = 0

    def is_dirty(self, key: tuple[TiledMatrix, int, int]) -> bool:
        """Is ``key`` a pending tile — written, not yet encoded?"""
        with self._lock:
            return key in self._entries

    def get(self, key: tuple[TiledMatrix, int, int]) -> np.ndarray | None:
        """The pending tile under ``key`` (a hit), or ``None``."""
        with self._lock:
            tile = self._entries.get(key)
            if tile is None:
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return tile

    def put(self, key: tuple[TiledMatrix, int, int],
            tile: np.ndarray) -> None:
        """Hold a written tile pending, for its matrix (``key[0]``) to
        encode when it leaves."""
        tile = tile if not tile.flags.writeable else tile.copy()
        tile.flags.writeable = False
        with self._lock:
            mat, ti, tj = key
            if tile.nbytes > self.capacity_bytes:
                mat._spill(ti, tj, tile)
                return
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old.nbytes
            self._entries[key] = tile
            self._bytes += tile.nbytes
            while self._bytes > self.capacity_bytes:
                (mat, ti, tj), old = self._entries.popitem(last=False)
                self._bytes -= old.nbytes
                mat._spill(ti, tj, old)

    def _release(self, owner: TiledMatrix | None, through: bool) -> None:
        """Encode the pending tiles (of ``owner``, or of every matrix),
        oldest first, and let them go."""
        with self._lock:
            for mat, ti, tj in [k for k in self._entries
                                if owner is None or k[0] is owner]:
                tile = self._entries.pop((mat, ti, tj))
                self._bytes -= tile.nbytes
                mat._spill(ti, tj, tile, through)

    def settle(self, owner: TiledMatrix | None = None) -> None:
        """Encode every pending tile (of ``owner``, or of every matrix)
        into the pool, oldest first, and release it."""
        self._release(owner, through=False)

    def invalidate_matrix(self, mat: TiledMatrix) -> None:
        """Forget a dropped matrix's pending tiles, unencoded."""
        with self._lock:
            for key in [k for k in self._entries if k[0] is mat]:
                self._bytes -= self._entries.pop(key).nbytes

    def clear(self) -> None:
        """Empty the cache, leaving nothing behind in memory: each
        pending tile is encoded and written through to the device, not
        parked in the pool, so the next read of it is cold."""
        self._release(None, through=True)

    def reset_stats(self) -> None:
        with self._lock:
            self.hits = 0
            self.misses = 0


class ArrayStore:
    """Factory and shared context (device + buffer pool) for tiled arrays.

    Every setting comes from one
    :class:`~repro.storage.config.StorageConfig`
    (``ArrayStore(StorageConfig(backend="mmap", memory_bytes=...))``;
    ``None`` is the default config).  The device always comes from
    :func:`~repro.storage.config.create_device` — the store never
    hard-codes a device class, so the same code runs against the
    simulator or a real page file — unless a test hands in its own
    ``device``.
    """

    def __init__(self, storage: "StorageConfig | None" = None,
                 name: str = "riot-store",
                 device: BlockDevice | None = None) -> None:
        from .config import StorageConfig, create_device
        if storage is None:
            storage = StorageConfig()
        self.storage = storage
        self.dtype = np.dtype(storage.dtype)
        self.codec = get_codec(storage.codec)
        capacity = storage.memory_bytes // storage.block_size
        if capacity < MIN_POOL_BLOCKS:
            raise ValueError(
                f"memory budget of {storage.memory_bytes} bytes holds "
                f"only {capacity} block(s) of {storage.block_size} "
                f"bytes; the tile store needs at least "
                f"{MIN_POOL_BLOCKS} blocks "
                f"({MIN_POOL_BLOCKS * storage.block_size} bytes)")
        self.device = device if device is not None else \
            create_device(storage, name=name)
        pool_cls = BufferPool
        if storage.sanitize:
            # Imported lazily: repro.analysis depends on repro.storage,
            # not the other way around.
            from repro.analysis.sanitizers import SanitizingBufferPool
            pool_cls = SanitizingBufferPool
        self.pool = pool_cls(
            self.device, capacity,
            scheduler=IOScheduler(self.device, enabled=storage.scheduler))
        # Pending codec tiles wait beside the pool under the same byte
        # budget; with codec raw everywhere the cache stays empty.
        self.tile_cache = DecodedTileCache(storage.memory_bytes,
                                           self.pool.lock)
        # Observability: one tracer per store, off by default.  Kernels
        # and the evaluator bracket their work in store.tracer.span();
        # spans close with IOStats/PoolStats deltas from this device
        # and pool (see repro.obs.tracer for the overhead contract).
        self.tracer = Tracer(device=self.device, pool=self.pool)
        if storage.sanitize:
            # The sanitizer checks footprint coverage and parked
            # write-backs at span boundaries; observers fire even
            # with tracing off.
            self.pool.attach_tracer(self.tracer)
        self._counter = 0
        # Threads may create temporaries concurrently; the name
        # counter and registry are the store's only mutable state not
        # already serialized by the pool's lock.
        self._names_lock = threading.Lock()
        self._arrays: dict[str, TiledVector | TiledMatrix] = {}
        self._closed = False

    @property
    def scalars_per_block(self) -> int:
        """Float64 scalars per block: a vector's default chunk (vectors
        always store float64).  The cost models' B is
        ``storage.block_scalars``, in the store's matrix dtype."""
        return self.device.block_size // _FLOAT_BYTES

    def io_ratio_estimate(self) -> float:
        """Stored/logical *page* ratio of codec tiles, for planner
        costs: what the cost models multiply device traffic by.

        Counted over the tiles the store's codec matrices hold right
        now, in the unit the device moves: a payload occupies — and a
        read fetches — ``ceil(length / block_size)`` of its tile's
        pages, a raw-fallback tile all of them, so a one-page tile
        prices at 1.0 however well its bytes compress.  Before any
        codec tile is stored, the configured codec's static estimate.
        Clamped to 1.0 — compression never makes the plan look worse
        than the uncompressed cost model.
        """
        with self._names_lock:
            arrays = list(self._arrays.values())
        stored = span = 0
        for arr in arrays:
            if isinstance(arr, TiledMatrix):
                used, pages = arr.stored_pages()
                stored, span = stored + used, span + pages
        if span:
            return stored / span
        return min(1.0, self.codec.ratio_estimate)

    def _fresh_name(self, prefix: str) -> str:
        with self._names_lock:
            self._counter += 1
            return f"{prefix}_{self._counter}"

    def _register(self, array: "TiledVector | TiledMatrix"
                  ) -> "TiledVector | TiledMatrix":
        with self._names_lock:
            self._arrays[array.name] = array
        return array

    def _forget(self, array) -> bool:
        """Mark ``array`` dropped and take it out of the store — its
        name and, if it was persisted, its manifest entry — before its
        blocks are freed.  False when it was dropped already: a second
        drop frees nothing, and under the sanitizer raises
        :class:`~repro.analysis.sanitizers.DoubleDropError`."""
        if array.dropped:
            if self.storage.sanitize:
                self.pool.dropped_twice(array.name)
            return False
        array.dropped = True
        with self._names_lock:
            if self._arrays.get(array.name) is array:
                del self._arrays[array.name]
                getattr(self.device, "manifest", {}).pop(array.name, None)
        return True

    # ------------------------------------------------------------------
    def create_vector(self, length: int, chunk: int | None = None,
                      name: str | None = None) -> TiledVector:
        chunk = chunk or self.scalars_per_block
        return self._register(
            TiledVector(self, name or self._fresh_name("vec"),
                        length, chunk))

    def vector_from_numpy(self, values: np.ndarray,
                          name: str | None = None) -> TiledVector:
        vec = self.create_vector(int(np.asarray(values).size), name=name)
        return vec.from_numpy(values)

    def create_matrix(self, shape: tuple[int, int],
                      tile_shape: tuple[int, int] | None = None,
                      layout: str | None = None,
                      linearization: str = "row",
                      name: str | None = None,
                      dtype: np.dtype | str | None = None,
                      codec: "TileCodec | str | None" = None
                      ) -> TiledMatrix:
        dt = np.dtype(dtype) if dtype is not None else self.dtype
        if tile_shape is None:
            # Tile layout follows the matrix dtype (float32 tiles pack
            # twice the scalars into the same page span) and, for
            # square tiles, the pool they will be read into.
            tile_shape = tile_shape_for_layout(
                layout or "square", shape,
                self.device.block_size // dt.itemsize,
                self.pool.capacity)
        return self._register(
            TiledMatrix(self, name or self._fresh_name("mat"),
                        shape, tile_shape, linearization,
                        dtype=dt, codec=codec))

    def matrix_from_numpy(self, values: np.ndarray,
                          layout: str = "square",
                          linearization: str = "row",
                          name: str | None = None,
                          dtype: np.dtype | str | None = None,
                          codec: "TileCodec | str | None" = None
                          ) -> TiledMatrix:
        vals = np.asarray(values)
        mat = self.create_matrix(vals.shape, layout=layout,
                                 linearization=linearization, name=name,
                                 dtype=dtype, codec=codec)
        return mat.from_numpy(vals)

    # ------------------------------------------------------------------
    # Persistence: on a file-backed device, the store writes its array
    # directory (shape, tiling, linearization, page map) into the
    # device manifest so a later session can reattach every array.
    # ------------------------------------------------------------------
    def _build_manifest(self) -> dict:
        entries: dict[str, dict] = {}
        for name, arr in self._arrays.items():
            if isinstance(arr, TiledVector):
                entries[name] = {
                    "kind": "vector", "length": arr.length,
                    "chunk": arr.chunk, "pages": arr.file.page_map}
            else:
                entries[name] = {
                    "kind": "matrix", "shape": list(arr.shape),
                    "tile_shape": list(arr.tile_shape),
                    "linearization": arr.linearization.name,
                    "dtype": arr.dtype.name,
                    "codec": arr.codec.name,
                    "tile_dir": {str(k): int(v)
                                 for k, v in arr.tile_dir.items()},
                    "pages": arr.file.page_map}
        return entries

    def stored_names(self) -> list[str]:
        """Names of the live arrays in this store: those made or
        opened here and not dropped, and those persisted by an earlier
        session.  A dropped array leaves both."""
        names = set(self._arrays)
        names.update(getattr(self.device, "manifest", {}))
        return sorted(names)

    def _manifest_entry(self, name: str, kind: str) -> dict:
        entry = getattr(self.device, "manifest", {}).get(name)
        if entry is None:
            raise KeyError(
                f"no stored array named {name!r} in this page file "
                f"(have {sorted(getattr(self.device, 'manifest', {}))})")
        if entry["kind"] != kind:
            raise KeyError(
                f"stored array {name!r} is a {entry['kind']}, "
                f"not a {kind}")
        return entry

    def open_vector(self, name: str) -> TiledVector:
        """Reattach a vector persisted by an earlier session."""
        if name in self._arrays:
            arr = self._arrays[name]
            if not isinstance(arr, TiledVector):
                raise KeyError(f"{name!r} is not a vector")
            return arr
        entry = self._manifest_entry(name, "vector")
        return self._register(TiledVector._attach(self, name, entry))

    def open_matrix(self, name: str) -> TiledMatrix:
        """Reattach a matrix persisted by an earlier session."""
        if name in self._arrays:
            arr = self._arrays[name]
            if not isinstance(arr, TiledMatrix):
                raise KeyError(f"{name!r} is not a matrix")
            return arr
        entry = self._manifest_entry(name, "matrix")
        return self._register(TiledMatrix._attach(self, name, entry))

    # ------------------------------------------------------------------
    def io_stats(self) -> IOStats:
        return self.device.stats

    def reset_stats(self) -> None:
        """Zero every counter the store owns: device, pool, scheduler
        and decoded-tile cache together, so a measured interval starts
        from 0 on all of them."""
        self.device.reset_stats()
        self.pool.stats.__init__()
        self.pool.scheduler.stats = SchedulerStats()
        self.tile_cache.reset_stats()

    def flush(self) -> None:
        """Encode every pending codec tile into the pool, then write
        every dirty frame to the device."""
        self.tile_cache.settle()
        self.pool.flush_all()
        if self.storage.fsync:
            self.device.sync()

    def close(self) -> None:
        """Encode pending tiles, flush dirty frames, persist the array
        directory, release the device.  Idempotent; after close the
        store must not be used."""
        if self._closed:
            return
        self._closed = True
        self.tile_cache.settle()
        self.pool.flush_all()
        if hasattr(self.device, "manifest"):
            manifest = dict(self.device.manifest)
            manifest.update(self._build_manifest())
            self.device.manifest = manifest
        self.device.close()

    def __enter__(self) -> "ArrayStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
