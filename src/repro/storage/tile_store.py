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
from .block_device import BlockDevice, DEFAULT_BLOCK_SIZE, IOStats
from .buffer_pool import BufferPool
from .codecs import TileCodec, get_codec
from .io_scheduler import SchedulerStats
from .linearization import Linearization, make_linearization
from .pagefile import PageFile

_FLOAT = np.float64
_FLOAT_BYTES = 8

#: Chunks hinted ahead of a sequential scan (see ``TiledVector.scan``).
SCAN_PREFETCH_CHUNKS = 16


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

    def chunk_of(self, index: int) -> int:
        if not 0 <= index < self.length:
            raise IndexError(f"index {index} outside [0, {self.length})")
        return index // self.chunk

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
        """Read chunks ``[ci, ci + count)`` as one fresh float64 array."""
        lo, hi = self._run_bounds(ci, count)
        pool = self.store.pool
        blocks = self.blocks_for_chunks(range(ci, ci + count))
        # A single chunk goes through get(): that is the call the
        # scheduler's sequential-run detector watches.
        frames = ([pool.get(blocks[0])] if count == 1
                  else pool.get_many(blocks))
        width = self.chunk * _FLOAT_BYTES
        parts = [frame[:width] for frame in frames]
        parts[-1] = parts[-1][:(hi - lo) * _FLOAT_BYTES
                              - (count - 1) * width]
        out = np.empty(hi - lo, dtype=_FLOAT)
        np.concatenate(parts, out=out.view(np.uint8))
        return out

    def write_chunk(self, ci: int, values: np.ndarray) -> None:
        """Write a run of whole chunks starting at chunk ``ci``.

        ``values`` covers one or more whole chunks; only a run that
        ends at the vector's end may stop short of a chunk boundary.
        """
        vals = np.ascontiguousarray(values, dtype=_FLOAT)
        count = max(1, -(-vals.size // self.chunk))
        lo, hi = self._run_bounds(ci, count)
        if vals.size != hi - lo:
            raise ValueError(
                f"chunk {ci} expects {hi - lo} values, got {vals.size}")
        raw = vals.view(np.uint8)
        width = self.chunk * _FLOAT_BYTES
        full = vals.size // self.chunk
        pages = np.zeros((count, self.store.device.block_size),
                         dtype=np.uint8)
        pages[:full, :width] = raw[:full * width].reshape(full, width)
        if full < count:
            pages[full, :raw.size - full * width] = raw[full * width:]
        blocks = self.blocks_for_chunks(range(ci, ci + count))
        if count == 1:
            self.store.pool.put(blocks[0], pages[0])
        else:
            self.store.pool.put_many(blocks, pages)

    def read_range(self, lo: int, hi: int) -> np.ndarray:
        """Elements ``[lo, hi)`` as a fresh array, read as one run of
        the covering chunks."""
        if not 0 <= lo <= hi <= self.length:
            raise IndexError(
                f"range [{lo}, {hi}) outside [0, {self.length}) of "
                f"{self.name}")
        if lo == hi:
            return np.empty(0, dtype=_FLOAT)
        c0 = lo // self.chunk
        run = self.read_chunk(c0, -(-hi // self.chunk) - c0)
        return run[lo - c0 * self.chunk: hi - c0 * self.chunk]

    def blocks_for_chunks(self, chunk_ids) -> list[int]:
        """Device block keys backing the given chunks (prefetch hints)."""
        return [self.file.block_of(ci) for ci in chunk_ids]

    def _scan_window(self) -> int:
        """Chunks per run of a whole-vector pass (``scan``, ``from_numpy``).

        Halved against pool capacity so a consumer that interleaves
        writes (copy loops) cannot evict prefetched chunks before they
        are read, which would inflate block totals.
        """
        return min(SCAN_PREFETCH_CHUNKS,
                   max(1, (self.store.pool.capacity - 2) // 2))

    def scan(self) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(start_index, values)`` runs covering the vector in order.

        The scan announces its own footprint: each run of up to
        ``SCAN_PREFETCH_CHUNKS`` chunks is hinted to the buffer pool and
        then read as one run, so a cold scan issues a few large
        coalesced reads instead of one device call per chunk.
        """
        window = self._scan_window()
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
        step = self._scan_window() * self.chunk
        for lo in range(0, self.length, step):
            self.write_chunk(lo // self.chunk, vals[lo: lo + step])
        return self

    def drop(self) -> None:
        for ci in range(self.num_chunks):
            self.store.pool.invalidate(self.file.block_of(ci))
        self.file.drop()

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
    """

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
        arithmetic and the page map.  A tile's blocks, a rectangle's
        blocks and the zero-copy adjacency guard are slices of it."""
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
        payload occupies, and a never-written compressed tile reports
        none (its read is pure zeros, no I/O).
        """
        self._check_tile(ti, tj)
        blocks = self._blocks[ti, tj]
        if self.codec.name != "raw":
            comp = self.tile_dir.get(self.linearization.index(ti, tj))
            if comp is None:
                return []
            if comp > 0:
                blocks = blocks[: -(-comp // self.store.device.block_size)]
        return blocks.tolist()

    def submatrix_blocks(self, r0: int, r1: int, c0: int, c1: int
                         ) -> list[int]:
        """Device block keys for every tile covering the rectangle, in
        row-major tile order (the order the rectangle is read in)."""
        ti0, ti1, tj0, tj1 = self._tile_span(r0, r1, c0, c1)
        if self.codec.name == "raw":
            return self._blocks[ti0:ti1, tj0:tj1].ravel().tolist()
        return [bid for ti in range(ti0, ti1) for tj in range(tj0, tj1)
                for bid in self.tile_blocks(ti, tj)]

    def _pages_of(self, comp: int) -> int:
        """Pages of its span a written codec tile keeps data in: its
        payload's, or all of them for a raw-fallback tile (0)."""
        return -(-comp // self.store.device.block_size) \
            or self.pages_per_tile

    def stored_pages(self) -> tuple[int, int]:
        """``(pages holding data, pages spanned)`` over the codec
        tiles written so far — both 0 for a ``raw`` matrix.  Running
        counts, kept by :meth:`_record_tile`."""
        with self.store.pool.lock:
            return (self._pages_stored,
                    len(self.tile_dir) * self.pages_per_tile)

    def _record_tile(self, pos: int, comp: int, logical: int) -> None:
        """Enter a written codec tile in the directory (``comp`` 0: it
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
        second rectangle.  Codec tiles are looked up in the decoded-
        tile cache, decoded straight into their cell and inserted one
        by one in that order, as a tile-by-tile walk would; only the
        payload pages of those the cache does not hold come ahead of
        the walk, through one ``get_many``.
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
        bs = self.store.device.block_size
        # Written tiles in walk order: cell and payload length (0:
        # stored raw, never cached, every page holds data).
        tiles: list[tuple[int, int, int]] = []
        for i in range(nti):
            for j in range(ntj):
                comp = self.tile_dir.get(
                    self.linearization.index(ti0 + i, tj0 + j))
                if comp is None:
                    # Never written: sparse-file semantics, no I/O.
                    cells[i, :, j] = 0
                else:
                    tiles.append((i, j, comp))
        logical = th * tw * self.dtype.itemsize
        missing = iter(cache.would_miss(
            [(self.name, ti0 + i, tj0 + j) for i, j, comp in tiles
             if comp], logical))
        # Where each tile's pages are in ``blocks`` — nowhere for a
        # tile the walk will find in the cache.
        where: list[slice | None] = []
        blocks: list[int] = []
        for i, j, comp in tiles:
            if comp and not next(missing):
                where.append(None)
                continue
            pages = -(-comp // bs) or self.pages_per_tile
            where.append(slice(len(blocks), len(blocks) + pages))
            blocks += self._blocks[ti0 + i, tj0 + j, :pages].tolist()
        frames = pool.get_many(blocks) if blocks else []
        for (i, j, comp), span in zip(tiles, where):
            ti, tj = ti0 + i, tj0 + j
            if comp == 0:
                cells[i, :, j] = self._tiles_of(
                    frames[span])[0].reshape(th, tw)
                self._charge_codec(logical, logical)
                continue
            cached = cache.get((self.name, ti, tj))
            if cached is not None:
                cells[i, :, j] = cached.reshape(th, tw)
                continue
            # Foreseen in the cache, gone now: another thread's
            # inserts evicted it.  Fetched on its own.
            held = (frames[span] if span is not None
                    else pool.get_many(self.tile_blocks(ti, tj)))
            # A one-page payload decodes straight out of its frame.
            staged = held[0] if len(held) == 1 else np.concatenate(held)
            tile = self.codec.decode_tile(memoryview(staged)[:comp],
                                          self.dtype, th * tw)
            cells[i, :, j] = tile.reshape(th, tw)
            self._charge_codec(logical, comp)
            # Frozen, so the cache keeps this array instead of a copy.
            tile.flags.writeable = False
            cache.put((self.name, ti, tj), tile)
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
                 tiles: np.ndarray) -> None:
        """Write zero-padded tiles — row ``k`` of the C-contiguous
        ``(n, th * tw)`` array goes to grid cell ``(tis[k], tjs[k])``
        — in the given order: raw tiles as one tile-major page batch,
        codec tiles encoded one by one."""
        if self.codec.name == "raw":
            # One tile (write_tile, so every from_numpy) is a plain
            # index: the fancy one costs more than the copy it feeds.
            self._put_raw(self._blocks[tis[0], tjs[0]] if len(tis) == 1
                          else self._blocks[tis, tjs], tiles)
        else:
            for ti, tj, tile in zip(tis, tjs, tiles):
                self._write_encoded_tile(ti, tj, tile)

    def _put_raw(self, blocks: np.ndarray, tiles: np.ndarray) -> None:
        bs = self.store.device.block_size
        pages = tiles.view(np.uint8)
        span = self.pages_per_tile * bs
        if pages.shape[1] != span:
            # Tiles that do not fill their last page: zero the slack.
            padded = np.zeros((len(tiles), span), dtype=np.uint8)
            padded[:, : pages.shape[1]] = pages
            pages = padded
        self.store.pool.put_many(blocks.ravel().tolist(),
                                 pages.reshape(-1, bs))

    def _write_encoded_tile(self, ti: int, tj: int,
                            tile: np.ndarray) -> None:
        bs = self.store.device.block_size
        logical = tile.nbytes
        pos = self.linearization.index(ti, tj)
        payload = self.codec.encode_tile(tile.reshape(self.tile_shape))
        blocks = self._blocks[ti, tj]
        if len(payload) > len(blocks) * bs:
            # The payload outgrew the tile's page span: store raw
            # (tile_dir length 0 is the fallback sentinel).
            self.store.tile_cache.invalidate((self.name, ti, tj))
            self._put_raw(blocks, tile[None])
            self._record_tile(pos, 0, logical)
            return
        nb = -(-len(payload) // bs)
        buf = np.zeros(nb * bs, dtype=np.uint8)
        buf[: len(payload)] = np.frombuffer(payload, dtype=np.uint8)
        self.store.pool.put_many(blocks[:nb].tolist(),
                                 buf.reshape(nb, bs))
        # A shrinking payload strands stale higher pages in the pool;
        # drop them so they are neither flushed nor read back.
        for bid in blocks[nb:].tolist():
            self.store.pool.invalidate(bid)
        self.store.tile_cache.put((self.name, ti, tj), tile)
        self._record_tile(pos, len(payload), logical)

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
        self._scatter([ti], [tj], full.reshape(1, -1))

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

    def read_submatrix_view(self, r0: int, r1: int, c0: int, c1: int
                            ) -> np.ndarray:
        """Read a rectangle, zero-copy off the mmap when legal.

        The fast path returns a **read-only** slice of the device's
        mapping, bypassing buffer-pool frames and I/O accounting (the
        documented trade of the ``zero_copy`` opt-in).  It engages only
        when every guard holds: the config opted in and is not
        sanitizing, the codec is ``raw``, the backend is mmap, the
        rectangle is exactly one tile, the tile's blocks are physically
        consecutive, and the pool holds no dirty frames for them.
        Everything else falls back to :meth:`read_submatrix` (a fresh
        writable copy), so callers may use this wherever they do not
        mutate the result.
        """
        store = self.store
        if (store.storage.zero_copy and not store.storage.sanitize
                and self.codec.name == "raw"
                and getattr(store.device, "mode", None) == "mmap"):
            th, tw = self.tile_shape
            if (r0 % th == 0 and c0 % tw == 0
                    and r0 // th < self.grid[0]
                    and c0 // tw < self.grid[1]):
                ti, tj = r0 // th, c0 // tw
                if (r0, r1, c0, c1) == self.tile_bounds(ti, tj):
                    blocks = self._blocks[ti, tj]
                    consecutive = bool((np.diff(blocks) == 1).all())
                    if consecutive and not store.pool.has_dirty(
                            blocks.tolist()):
                        raw = store.device.block_view(int(blocks[0]),
                                                      len(blocks))
                        flat = raw.view(self.dtype)[: th * tw]
                        return flat.reshape(th, tw)[: r1 - r0,
                                                    : c1 - c0]
        return self.read_submatrix(r0, r1, c0, c1)

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
        start = 0
        for k in partial + [whole.size]:
            if start < k:
                self._scatter(tis[start:k], tjs[start:k], tiles[start:k])
            if k < whole.size:
                tr0, tc0 = tis[k] * th, tjs[k] * tw
                tile = self._assemble(tis[k], tis[k] + 1,
                                      tjs[k], tjs[k] + 1)
                ir0, ir1 = max(tr0, r0), min(tr0 + th, r1)
                ic0, ic1 = max(tc0, c0), min(tc0 + tw, c1)
                tile[ir0 - tr0: ir1 - tr0, ic0 - tc0: ic1 - tc0] = \
                    vals[ir0 - r0: ir1 - r0, ic0 - c0: ic1 - c0]
                self._scatter(tis[k: k + 1], tjs[k: k + 1],
                              tile.reshape(1, -1))
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
        for bid in self._blocks.ravel().tolist():
            self.store.pool.invalidate(bid)
        self.store.tile_cache.invalidate_matrix(self.name)
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
    """LRU cache of decoded (decompressed) full tiles.

    For codec-compressed matrices the buffer pool holds *compressed*
    frames — the unit the device serves and IOStats v3 charges — so a
    re-read of a cached tile would still pay the decode CPU.  This
    cache keeps the decoded ``(th, tw)`` arrays under its own byte
    budget and lock; entries are read-only, and ``raw`` tiles never
    enter (their pool frame already is the decoded form).
    """

    def __init__(self, capacity_bytes: int) -> None:
        self.capacity_bytes = max(0, int(capacity_bytes))
        self._entries: OrderedDict[tuple, np.ndarray] = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def would_miss(self, keys: list[tuple], nbytes: int) -> list[bool]:
        """For each key in turn: would :meth:`get` miss it, were every
        miss followed by a :meth:`put` of ``nbytes``?  The walk a
        rectangle read is about to make, foreseen — inserts evict from
        the old end, hits move out of their way — so that it can fetch
        what it will decode in one pool call.  Counts nothing, moves
        nothing."""
        with self._lock:
            fits = nbytes <= self.capacity_bytes
            used = self._bytes
            oldest = iter(self._entries.items())
            evicted: set[tuple] = set()
            hit: set[tuple] = set()
            out = []
            for key in keys:
                held = key in self._entries and key not in evicted
                out.append(not held)
                if held:
                    hit.add(key)
                elif fits:
                    used += nbytes
                    while used > self.capacity_bytes:
                        victim = next(oldest, None)
                        if victim is None:
                            # Only this walk's own tiles are left.
                            break
                        if victim[0] not in hit:
                            evicted.add(victim[0])
                            used -= victim[1].nbytes
            return out

    def get(self, key: tuple) -> np.ndarray | None:
        with self._lock:
            tile = self._entries.get(key)
            if tile is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return tile

    def put(self, key: tuple, tile: np.ndarray) -> None:
        if tile.nbytes > self.capacity_bytes:
            return
        tile = tile if not tile.flags.writeable else tile.copy()
        tile.flags.writeable = False
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old.nbytes
            self._entries[key] = tile
            self._bytes += tile.nbytes
            while self._bytes > self.capacity_bytes and self._entries:
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= evicted.nbytes

    def invalidate(self, key: tuple) -> None:
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old.nbytes

    def invalidate_matrix(self, name: str) -> None:
        with self._lock:
            for key in [k for k in self._entries if k[0] == name]:
                self._bytes -= self._entries.pop(key).nbytes

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def reset_stats(self) -> None:
        with self._lock:
            self.hits = 0
            self.misses = 0


class ArrayStore:
    """Factory and shared context (device + buffer pool) for tiled arrays.

    Construct either from a :class:`~repro.storage.config.StorageConfig`
    (``ArrayStore(storage=StorageConfig(backend="mmap", ...))``) or from
    the classic keyword arguments, which describe the in-memory backend.
    The device always comes from
    :func:`~repro.storage.config.create_device` — the store never
    hard-codes a device class, so the same code runs against the
    simulator or a real page file.
    """

    def __init__(self, memory_bytes: int | None = None,
                 block_size: int | None = None,
                 policy: str | None = None, name: str = "riot-store",
                 scheduler: bool | None = None,
                 readahead_window: int | None = None,
                 storage: "StorageConfig | None" = None,
                 device: BlockDevice | None = None) -> None:
        from .config import StorageConfig, create_device
        if storage is None:
            storage = StorageConfig()
        overrides = {k: v for k, v in (
            ("memory_bytes", memory_bytes), ("block_size", block_size),
            ("policy", policy), ("scheduler", scheduler),
            ("readahead_window", readahead_window)) if v is not None}
        if overrides:
            storage = storage.with_options(**overrides)
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
        self.pool = pool_cls(self.device, capacity,
                             policy=storage.policy,
                             readahead_window=storage.readahead_window)
        self.pool.scheduler.enabled = storage.scheduler
        # Decoded tiles live beside the pool under the same byte
        # budget; with codec raw everywhere the cache stays empty.
        self.tile_cache = DecodedTileCache(storage.memory_bytes)
        # Observability: one tracer per store, off by default.  Kernels
        # and the evaluator bracket their work in store.tracer.span();
        # spans close with IOStats/PoolStats deltas from this device
        # and pool (see repro.obs.tracer for the overhead contract).
        self.tracer = Tracer(device=self.device, pool=self.pool)
        if storage.sanitize:
            # The sanitizer checks pin balance and footprint coverage
            # at span boundaries; observers fire even with tracing off.
            self.pool.attach_tracer(self.tracer)
        self._counter = 0
        # Parallel plan workers create temporaries concurrently; the
        # name counter and registry are the store's only mutable state
        # not already serialized by the pool's lock.
        self._names_lock = threading.Lock()
        self._arrays: dict[str, TiledVector | TiledMatrix] = {}
        self._closed = False

    @property
    def scalars_per_block(self) -> int:
        """Float64 scalars per block — the cost models' fixed B.
        Vectors always store float64; matrices use
        :meth:`matrix_scalars_per_block`."""
        return self.device.block_size // _FLOAT_BYTES

    @property
    def matrix_scalars_per_block(self) -> int:
        """Scalars of the store's matrix dtype that fit one block."""
        return self.device.block_size // self.dtype.itemsize

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
            if not arr.file.num_pages:
                continue  # dropped
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
        """Array names reachable in this store (live + persisted)."""
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
        self.pool.flush_all()
        if self.storage.fsync:
            self.device.sync()

    def close(self) -> None:
        """Flush dirty frames, persist the array directory, release the
        device.  Idempotent; after close the store must not be used."""
        if self._closed:
            return
        self._closed = True
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
