"""Out-of-core sparse matrices: CSR-encoded tiles over the page stack.

The dense :class:`~repro.storage.tile_store.TiledMatrix` proves the paper's
§5 argument — array semantics, not relational rows, should drive on-disk
layout — for dense data.  Real statistical workloads (design matrices,
graphs, term-document matrices) are overwhelmingly sparse, and dense tiling
then spends nearly all of its I/O moving zeros.  A
:class:`SparseTiledMatrix` keeps the same tile grid but stores each tile in
compressed sparse row (CSR) form:

- a **tile directory** maps grid coordinates of *nonempty* tiles to
  their byte offset and length in the matrix's
  :class:`~repro.storage.pagefile.PageFile` and their nonzero count, so
  it describes the data completely; **empty tiles occupy zero bytes**
  and cost zero I/O,
- each nonempty tile is serialized (:func:`pack_csr`) as
  ``[nnz: int64][data: float64][indptr][indices]``, the index arrays
  as narrow as the tile's shape allows — 4-byte row pointers and
  2-byte tile-local column indices for any tile under 2**31 cells and
  65 536 columns (:func:`repro.core.costs.tile_bytes`) — and a read
  widens them back to the int64 triple every kernel takes,
- tiles are *packed*: each starts where the last tile ended, unless
  that would make it span more pages than it would alone
  (:func:`repro.core.costs.packed_tile_offset`, the rule the cost
  models price too) — then on the next page.  Tiles far below a page
  share pages; a read of one tile still costs no page more than on
  pages of its own,
- :meth:`~SparseTiledMatrix.from_coo` / ``from_dense`` append tiles in
  linearization order, so a scan of the nonempty tiles in grid order
  produces sequential device I/O exactly like the dense store.

A sparse matrix is an array of its store like a dense one: its name is
listed by ``stored_names()`` and refused to a second array of either
kind, a named page file persists it at ``close()`` as a manifest entry
(its geometry, ``(offset, length, nnz)`` directory and page map), and
``open_matrix`` reattaches it, dense or sparse, without I/O.

All reads and writes go through the shared
:class:`~repro.storage.buffer_pool.BufferPool`, so every block is counted
by the same :class:`~repro.storage.block_device.IOStats` contract the dense
stack uses, and the schedule runner can announce tile footprints
(:meth:`SparseTiledMatrix.tile_blocks`).  A kernel reads an operand's
tiles through a :class:`TileScan`, one a pass, which fetches a page
that tiles share once, in whatever order the pass visits them.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable

import numpy as np

from repro.core.costs import csr_index_widths, packed_tile_offset, tile_bytes
from repro.storage import Linearization, PageFile, new_pagefile
from repro.storage.tile_store import ArrayStore, TiledMatrix, TileGrid

_FLOAT = np.float64
_INT = np.int64
#: Stored width in bytes -> dtype of a row pointer or column index.
_NARROW = {2: np.dtype(np.uint16), 4: np.dtype(np.int32),
           8: np.dtype(np.int64)}


#: Sparse tiles default to this multiple of the dense square-tile side.
#: Dense tiles must fit one block, so their area is pinned to B scalars;
#: a CSR tile's bytes scale with its nnz instead, so the grid can use
#: geometrically larger tiles — low-density regions then collapse into
#: *empty* tiles (zero bytes) while a nonempty tile still takes only
#: ``O(nnz)`` bytes, packed beside its neighbours (a 0.5 %-dense
#: 128 x 128 tile is ~1.3 KB on disk: six to an 8 KiB page).
SPARSE_TILE_FACTOR = 4


def default_sparse_tile_shape(shape: tuple[int, int],
                              scalars_per_block: int) -> tuple[int, int]:
    """Default square tile for a sparse matrix (4x the dense side)."""
    side = SPARSE_TILE_FACTOR * max(1, math.isqrt(scalars_per_block))
    return (min(shape[0], side), min(shape[1], side))


def csr_from_dense(tile: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR triple (indptr, indices, data) of a 2-D tile, scipy-free.

    One boolean-mask pass over the flattened tile; row and column come
    from the flat position, which is what ``np.nonzero`` computes per
    axis at four to five times the cost.
    """
    flat = tile.reshape(-1)
    pos = np.flatnonzero(flat != 0)
    rows, cols = np.divmod(pos, tile.shape[1])
    return (_indptr_of(rows, tile.shape[0]), cols.astype(_INT, copy=False),
            flat[pos].astype(_FLOAT, copy=False))


def _indptr_of(rows: np.ndarray, n_rows: int) -> np.ndarray:
    """CSR row pointer of ``n_rows`` rows from each nonzero's row id."""
    return np.cumsum(np.bincount(rows + 1, minlength=n_rows + 1),
                     dtype=_INT)


def csr_to_dense(indptr: np.ndarray, indices: np.ndarray,
                 data: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Densify a CSR triple into a fresh 2-D float64 array."""
    out = np.zeros(shape, dtype=_FLOAT)
    row_base = np.arange(0, shape[0] * shape[1], shape[1],
                         dtype=_INT).repeat(indptr[1:] - indptr[:-1])
    out.reshape(-1)[row_base + indices] = data
    return out


def csr_matvec(indptr: np.ndarray, indices: np.ndarray, data: np.ndarray,
               x: np.ndarray, out: np.ndarray) -> None:
    """Accumulate ``A @ x`` into ``out`` for a CSR tile (scipy-free)."""
    if data.size == 0:
        return
    rows = np.repeat(np.arange(out.size, dtype=_INT), np.diff(indptr))
    np.add.at(out, rows, data * x[indices])


def tile_words(rows: int, nnz: int) -> int:
    """8-byte words a CSR tile holds in memory once read: what the
    kernels' schedules budget for it.

    One word for the nnz header, ``rows + 1`` for indptr, and ``nnz``
    each for the column indices and the values.  On disk the indices
    are narrower (:func:`repro.core.costs.tile_bytes`).
    """
    return rows + 2 + 2 * nnz


def pack_csr(indptr: np.ndarray, indices: np.ndarray, data: np.ndarray,
             shape: tuple[int, int]) -> np.ndarray:
    """The page-file bytes of a CSR tile of ``shape``:
    ``[nnz: int64][data: nnz float64][indptr: rows + 1][indices: nnz]``
    at :func:`repro.core.costs.csr_index_widths`, zero-padded to
    :func:`repro.core.costs.tile_bytes`.  The values come first, so they
    stay 8-aligned wherever the tile starts."""
    rows, cols = shape
    nnz = int(data.size)
    ptr, idx = csr_index_widths(rows, cols)
    out = np.zeros(int(tile_bytes(rows, cols, nnz)), dtype=np.uint8)
    out[:8].view(_INT)[0] = nnz
    at = 8 + 8 * nnz
    out[8:at].view(_FLOAT)[:] = data
    end = at + ptr * (rows + 1)
    out[at:end].view(_NARROW[ptr])[:] = indptr
    out[end: end + idx * nnz].view(_NARROW[idx])[:] = indices
    return out


def unpack_csr(raw: np.ndarray, shape: tuple[int, int], nnz: int
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The triple :func:`pack_csr` laid out in ``raw``: indptr and
    indices widened to fresh int64 arrays, the values a view of
    ``raw``.  Raises ``ValueError`` on bytes that are no CSR tile of
    ``shape`` with ``nnz`` nonzeros: an indptr that does not rise from
    0 to ``nnz``, or a column index outside the tile.  (The checks
    shun ``ndarray.any`` / ``max``: on arrays this small their dispatch
    costs more than the work, and every kernel read pays it.)"""
    rows, cols = shape
    ptr, idx = csr_index_widths(rows, cols)
    at = 8 + 8 * nnz
    indptr = np.frombuffer(raw, _NARROW[ptr], rows + 1, at).astype(_INT)
    indices = np.frombuffer(raw, _NARROW[idx], nnz,
                            at + ptr * (rows + 1)).astype(_INT)
    if (indptr[0] or indptr[-1] != nnz
            or np.count_nonzero(np.less(indptr[1:], indptr[:-1]))):
        raise ValueError(f"stored indptr does not rise from 0 to {nnz}")
    if (np.maximum.reduce(indices) >= cols
            or (idx == 4 and np.minimum.reduce(indices) < 0)):
        raise ValueError(f"stored column index outside [0, {cols})")
    return indptr, indices, np.frombuffer(raw, _FLOAT, nnz, 8)


class SparseTiledMatrix(TileGrid):
    """A 2-D sparse array stored as a grid of CSR tiles packed into pages.

    The tile grid is :class:`TiledMatrix`'s (:class:`TileGrid`), but
    only nonempty tiles are backed by pages.  Instances take their name
    in the store, persist with it, and are write-once: build them with
    :meth:`from_coo` / :meth:`from_dense`, which append tiles in
    linearization order, or stream tiles through :meth:`append_tile`
    during construction by a kernel — in whatever order its schedule
    finishes them (``spgemm``: panel by panel, column by column); every
    reader finds a tile through the directory, never by position.
    """

    kind = "sparse matrix"

    def __init__(self, store: ArrayStore, name: str,
                 shape: tuple[int, int], tile_shape: tuple[int, int],
                 linearization: str | Linearization = "row") -> None:
        super().__init__(store, name, shape, tile_shape, linearization)
        self.file = new_pagefile(store.device, name=name)
        self._reset()
        store._register(self)

    def _reset(self) -> None:
        """Hold no tile: the state of a new matrix and a dropped one."""
        #: (ti, tj) -> (byte offset, byte length, nnz) in ``file``, for
        #: nonempty tiles only; :meth:`tile_pages` gives the pages.
        self.directory: dict[tuple[int, int], tuple[int, int, int]] = {}
        #: Where the last tile ends, and the image of its page while
        #: that page is only partly filled (``None`` on a boundary): a
        #: tile placed there rebuilds the page from it, so an append
        #: never reads the device.  ``_tail_due``: the pool has not seen
        #: the image yet (:meth:`put_tail`, which a read or the store's
        #: flush calls).
        self._end = 0
        self._tail: np.ndarray | None = None
        self._tail_due = False
        self._row_index: dict[int, list[int]] = {}
        self._col_index: dict[int, list[int]] = {}
        self.nnz = 0

    def _enter(self, ti: int, tj: int, offset: int, n_bytes: int,
               nnz: int) -> None:
        """Index a stored tile in the directory and row / column lists."""
        self.directory[(ti, tj)] = (offset, n_bytes, nnz)
        self._row_index.setdefault(ti, []).append(tj)
        self._col_index.setdefault(tj, []).append(ti)
        self.nnz += nnz

    def _entry(self) -> dict:
        """The grid's manifest entry, and the directory as ``[ti, tj,
        offset, length, nnz]`` rows in append order."""
        return {**super()._entry(), "directory": [
            [int(v) for v in (*tile, *at)]
            for tile, at in self.directory.items()]}

    @classmethod
    def _attach(cls, store: ArrayStore, name: str,
                entry: dict) -> "SparseTiledMatrix":
        """Rebind a persisted matrix (manifest entry) without I/O.  It
        stays write-once: its end sits past its last page, so a tile
        appended to it starts a page of its own and no page that its
        stored tiles share is written again."""
        mat = cls.__new__(cls)
        TileGrid.__init__(mat, store, name, entry["shape"],
                          entry["tile_shape"], entry["linearization"])
        mat.file = PageFile.attach(store.device, name, entry["pages"])
        mat._reset()
        for ti, tj, offset, n_bytes, nnz in entry["directory"]:
            mat._enter(ti, tj, offset, n_bytes, nnz)
        mat._end = mat.file.num_pages * store.device.block_size
        return mat

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_coo(cls, store: ArrayStore, rows, cols, values,
                 shape: tuple[int, int],
                 tile_shape: tuple[int, int] | None = None,
                 linearization: str = "row",
                 name: str | None = None) -> "SparseTiledMatrix":
        """Build from 0-based COO triplets (duplicates are summed).

        Explicit zeros are dropped so the nnz directory stays honest.
        """
        i = np.asarray(rows, dtype=_INT).ravel()
        j = np.asarray(cols, dtype=_INT).ravel()
        x = np.asarray(values, dtype=_FLOAT).ravel()
        if not (i.size == j.size == x.size):
            raise ValueError(
                f"COO triplets must align: {i.size}, {j.size}, {x.size}")
        n1, n2 = int(shape[0]), int(shape[1])
        if i.size and (i.min() < 0 or i.max() >= n1
                       or j.min() < 0 or j.max() >= n2):
            raise IndexError(
                f"COO index outside {n1}x{n2} matrix")
        if tile_shape is None:
            tile_shape = default_sparse_tile_shape(
                (n1, n2), store.scalars_per_block)
        mat = cls(store, name or store._fresh_name("spmat"),
                  (n1, n2), tile_shape, linearization)
        # Coalesce duplicates (R's sparseMatrix sums repeated triplets).
        if i.size:
            flat = i * n2 + j
            order = np.argsort(flat, kind="stable")
            flat, i, j, x = flat[order], i[order], j[order], x[order]
            uniq, inverse = np.unique(flat, return_inverse=True)
            summed = np.zeros(uniq.size, dtype=_FLOAT)
            np.add.at(summed, inverse, x)
            i, j, x = uniq // n2, uniq % n2, summed
            keep = x != 0.0
            i, j, x = i[keep], j[keep], x[keep]
        th, tw = mat.tile_shape
        # Group triplets by tile and append in linearization order so a
        # grid-order scan of the nonempty tiles is sequential on disk.
        # The curve is evaluated once per distinct tile (O(grid) Python
        # calls), not once per nonzero.
        if i.size:
            tile_flat = (i // th) * mat.grid[1] + (j // tw)
            uniq_tiles, inverse = np.unique(tile_flat,
                                            return_inverse=True)
            uniq_pos = np.array(
                [mat.linearization.index(int(t // mat.grid[1]),
                                         int(t % mat.grid[1]))
                 for t in uniq_tiles], dtype=_INT)
            tile_pos = uniq_pos[inverse]
        else:
            tile_pos = np.empty(0, dtype=_INT)
        order = np.argsort(tile_pos, kind="stable")
        i, j, x, tile_pos = i[order], j[order], x[order], tile_pos[order]
        # One run of equal positions per nonempty tile (positions are
        # >= 0, so the -1 sentinels open the first run and close the last).
        bounds = np.flatnonzero(
            np.diff(tile_pos, prepend=-1, append=-1)).tolist()
        for pos, end in zip(bounds, bounds[1:]):
            ti, tj = mat.linearization.coords(int(tile_pos[pos]))
            r0, r1, c0, c1 = mat.tile_bounds(ti, tj)
            li, lj = i[pos:end] - r0, j[pos:end] - c0
            sub = np.argsort(li * (c1 - c0) + lj, kind="stable")
            li, lj, lx = li[sub], lj[sub], x[pos:end][sub]
            mat.append_tile(ti, tj, _indptr_of(li, r1 - r0),
                            lj.astype(_INT), lx)
        mat.put_tail()                   # the build is complete
        return mat

    @classmethod
    def from_dense(cls, store: ArrayStore, values: np.ndarray,
                   tile_shape: tuple[int, int] | None = None,
                   linearization: str = "row",
                   name: str | None = None) -> "SparseTiledMatrix":
        """Build from a dense array, keeping only its nonzeros."""
        vals = np.asarray(values, dtype=_FLOAT)
        rows, cols = np.nonzero(vals)
        return cls.from_coo(store, rows, cols, vals[rows, cols],
                            vals.shape, tile_shape=tile_shape,
                            linearization=linearization, name=name)

    def append_tile(self, ti: int, tj: int, indptr: np.ndarray,
                    indices: np.ndarray, data: np.ndarray) -> None:
        """Serialize one CSR tile into the page file and index it.

        The tile starts where the last one ended, or on the next page
        where that would make it span more pages than it would alone
        (:func:`~repro.core.costs.packed_tile_offset`).  Empty tiles
        (``data.size == 0``) are skipped entirely — no directory entry,
        no bytes, no I/O.  A triple that is not the CSR
        form of a tile of this shape is rejected before any page is
        allocated: read back, it would densify into wrong numbers.
        """
        self._check_tile(ti, tj)
        if (ti, tj) in self.directory:
            raise ValueError(f"tile ({ti},{tj}) already written")
        nnz = int(data.size)
        if indices.size != nnz:
            raise ValueError(
                f"{self.name} tile ({ti},{tj}): {indices.size} column "
                f"indices for {nnz} values")
        if nnz == 0:
            return
        r0, r1, c0, c1 = self.tile_bounds(ti, tj)
        if (indptr.size != r1 - r0 + 1 or int(indptr[0]) != 0
                or int(indptr[-1]) != nnz):
            raise ValueError(
                f"{self.name} tile ({ti},{tj}) CSR indptr does not "
                f"describe its {r1 - r0} rows / {nnz} nonzeros")
        if np.any(indptr[1:] < indptr[:-1]):
            raise ValueError(
                f"{self.name} tile ({ti},{tj}) CSR indptr decreases")
        if indices.min() < 0 or indices.max() >= c1 - c0:
            raise ValueError(
                f"{self.name} tile ({ti},{tj}) has a column index "
                f"outside [0, {c1 - c0})")
        # The image of the pages the tile spans, built once: the tail
        # page's bytes so far, then the tile's, zero-padded to whole
        # pages.
        tile = pack_csr(indptr, indices, data, (r1 - r0, c1 - c0))
        n_bytes = tile.size
        page_size = self.store.device.block_size
        offset = packed_tile_offset(self._end, n_bytes, page_size)
        pages = self._span(offset, n_bytes)
        # From the tail page if the tile starts in it or the pool has
        # yet to see it, to the tile's last page.
        first = self.file.num_pages - 1 if self._tail_due else pages.start
        image = np.zeros((pages.stop - first, page_size), dtype=np.uint8)
        if first < self.file.num_pages:
            image[0] = self._tail
        self.file.allocate_pages(pages.stop - self.file.num_pages)
        at = offset - first * page_size
        image.reshape(-1)[at: at + n_bytes] = tile
        # The filled pages go to the pool in one call; a partly filled
        # last page waits as the tail until a later tile fills it or
        # moves past it, a read needs it or the store flushes, so a
        # build puts and writes each page once.
        self._end = offset + n_bytes
        whole = len(image) - bool(self._end % page_size)
        self._tail = image[-1].copy() if whole < len(image) else None
        self._tail_due = self._tail is not None
        if whole:
            self.store.pool.put_many(
                self.file.blocks_of(range(first, first + whole)),
                image[:whole])
        self._enter(ti, tj, offset, n_bytes, nnz)

    def append_tile_dense(self, ti: int, tj: int,
                          values: np.ndarray) -> None:
        """Sparsify a dense tile and append it (zero tiles are skipped)."""
        r0, r1, c0, c1 = self.tile_bounds(ti, tj)
        vals = np.ascontiguousarray(values, dtype=_FLOAT)
        if vals.shape != (r1 - r0, c1 - c0):
            raise ValueError(
                f"tile ({ti},{tj}) expects shape {(r1 - r0, c1 - c0)}, "
                f"got {vals.shape}")
        self.append_tile(ti, tj, *csr_from_dense(vals))

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    def nonempty_tiles(self) -> list[tuple[int, int]]:
        """Nonempty tile coordinates in on-disk (appended) order: by
        byte offset, since tiles share first pages."""
        return sorted(self.directory,
                      key=lambda t: self.directory[t][0])

    def nonempty_in_row(self, ti: int) -> list[int]:
        """Column coordinates of the nonempty tiles in block row ti."""
        return sorted(self._row_index.get(ti, []))

    def nonempty_in_col(self, tj: int) -> list[int]:
        """Row coordinates of the nonempty tiles in block column tj."""
        return sorted(self._col_index.get(tj, []))

    def tile_nnz(self, ti: int, tj: int) -> int:
        self._check_tile(ti, tj)
        entry = self.directory.get((ti, tj))
        return entry[2] if entry else 0

    def _span(self, offset: int, length: int) -> range:
        """The pages a directory entry's bytes span."""
        page_size = self.store.device.block_size
        return range(offset // page_size,
                     -(-(offset + length) // page_size))

    def tile_pages(self, ti: int, tj: int) -> range:
        """Pages of ``file`` tile (ti, tj) spans — empty if it is empty."""
        entry = self.directory.get((ti, tj))
        if entry is None:
            self._check_tile(ti, tj)
            return range(0)
        return self._span(*entry[:2])

    def tile_blocks(self, ti: int, tj: int) -> list[int]:
        """Device blocks backing tile (ti, tj) — empty list if empty.

        Asked before a read (the schedule runner's hint), so the tail
        page is put first: a block it names is in the pool or on the
        device."""
        pages = self.tile_pages(ti, tj)
        if not pages:
            return []
        self.put_tail()
        return self.file.blocks_of(pages)

    def put_tail(self) -> None:
        """Hand the pool the tail page's image if it has not seen it:
        when a read names its block (:meth:`tile_blocks`), when
        :meth:`from_coo` completes a build, and on the store's flush, so
        a kernel that appends tiles need not."""
        if self._tail_due:
            self.store.pool.put(self.file.block_of(self.file.num_pages - 1),
                                self._tail)
            self._tail_due = False

    @property
    def density(self) -> float:
        return self.nnz / (self.shape[0] * self.shape[1])

    @property
    def data_pages(self) -> int:
        """Pages actually occupied (empty tiles contribute nothing,
        packed tiles share)."""
        return self.file.num_pages

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def read_tile_csr(self, ti: int, tj: int,
                      scan: "TileScan | None" = None
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """Read tile (ti, tj) as (indptr, indices, data); None if empty.
        Its pages come from the pool, or through ``scan`` (a kernel's
        pass, :class:`TileScan`).  The arrays are private: the values
        are copied once and the narrow indices widened to int64.  Bytes
        that are not a tile of this shape — a header that disagrees
        with the directory, an indptr that does not rise from 0 to nnz,
        a column index outside the tile — raise ``ValueError`` naming
        the matrix and the tile."""
        entry = self.directory.get((ti, tj))
        if entry is None:
            self._check_tile(ti, tj)
            return None
        offset, n_bytes, nnz = entry
        frames = (scan.frames(ti, tj) if scan is not None else
                  self.store.pool.get_many(self.tile_blocks(ti, tj)))
        at = offset % self.store.device.block_size
        one = len(frames) == 1           # else the concatenation is ours
        raw = (frames[0] if one else np.concatenate(frames))[at: at + n_bytes]
        header = int(raw[:8].view(_INT)[0])
        if header != nnz:
            raise self._bad_tile(ti, tj, f"page header says {header} "
                                 f"nonzeros, directory says {nnz}")
        th, tw = self.tile_shape
        shape = (min(th, self.shape[0] - ti * th),
                 min(tw, self.shape[1] - tj * tw))
        try:
            indptr, indices, data = unpack_csr(raw, shape, nnz)
        except ValueError as err:
            raise self._bad_tile(ti, tj, str(err)) from None
        return indptr, indices, data.copy() if one else data

    def _bad_tile(self, ti: int, tj: int, why: str) -> ValueError:
        return ValueError(f"{self.name} tile ({ti},{tj}): {why}")

    def read_tile(self, ti: int, tj: int) -> np.ndarray:
        """Read tile (ti, tj) densified (zeros for an empty tile)."""
        r0, r1, c0, c1 = self.tile_bounds(ti, tj)
        csr = self.read_tile_csr(ti, tj)
        if csr is None:
            return np.zeros((r1 - r0, c1 - c0), dtype=_FLOAT)
        indptr, indices, data = csr
        return csr_to_dense(indptr, indices, data, (r1 - r0, c1 - c0))

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def to_numpy(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=_FLOAT)
        for ti, tj in self.nonempty_tiles():
            r0, r1, c0, c1 = self.tile_bounds(ti, tj)
            out[r0:r1, c0:c1] = self.read_tile(ti, tj)
        return out

    def to_dense(self, name: str | None = None) -> TiledMatrix:
        """Materialize as a dense TiledMatrix on the same tile grid.

        Using the same grid keeps every write tile-aligned, so the
        conversion costs exactly one write per dense tile and one read
        per nonempty sparse tile.
        """
        out = self.store.create_matrix(
            self.shape, tile_shape=self.tile_shape,
            linearization=self.linearization.name,
            name=name or self.store._fresh_name("densified"))
        for ti, tj in out.tiles():
            out.write_tile(ti, tj, self.read_tile(ti, tj))
        return out

    def drop(self) -> None:
        """Free the matrix's blocks; a second drop frees nothing
        (:meth:`~repro.storage.tile_store.ArrayStore._forget`)."""
        if not self.store._forget(self):
            return
        self.store.pool.discard(self.file.page_map)
        self.file.drop()
        self._reset()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"SparseTiledMatrix({self.name!r}, shape={self.shape}, "
                f"tile={self.tile_shape}, nnz={self.nnz}, "
                f"pages={self.data_pages})")


class TileScan:
    """One pass of a kernel over tiles of a sparse matrix that reads
    each of their pages once.

    Packed tiles share pages, and a kernel's pass need not follow the
    page file: ``spgemm`` reads B column by column, ``spmm`` a row
    panel's tiles column by column, both over a file packed row by
    row.  A pool too small to keep a shared page between the reads of
    its tiles would fetch it again for each.  The scan is told the
    tiles it will read (their order does not matter) and keeps the
    image of a page while a tile still to come spans it — at most one
    page per line of the page file the pass interleaves, a block row
    of a row-linearized matrix read column by column — so a pass
    reads every page its tiles span exactly once, whatever the pool
    keeps.  A scan stands in for its matrix as a step operand
    (:func:`repro.core.parallel.blocks` / ``read``): a step announces,
    and fetches, only the pages the scan does not hold.
    """

    def __init__(self, matrix: SparseTiledMatrix,
                 tiles: Iterable[tuple[int, int]]) -> None:
        self.matrix = matrix
        self.store = matrix.store
        # Page -> reads still to come that span it.
        self._due = Counter(p for t in tiles for p in matrix.tile_pages(*t))
        self._kept: dict[int, np.ndarray] = {}

    def tile_blocks(self, ti: int, tj: int) -> list[int]:
        """Device blocks of tile (ti, tj) the scan does not hold."""
        return self._blocks(self.matrix.tile_pages(ti, tj))

    def _blocks(self, pages: range) -> list[int]:
        if self._kept:
            pages = [p for p in pages if p not in self._kept]
        if not pages:
            return []
        self.matrix.put_tail()
        return self.matrix.file.blocks_of(pages)

    def read_tile_csr(self, ti: int, tj: int
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """Tile (ti, tj) as (indptr, indices, data); None if empty."""
        return self.matrix.read_tile_csr(ti, tj, scan=self)

    def frames(self, ti: int, tj: int) -> list[np.ndarray]:
        """The images of the pages tile (ti, tj) spans, those the scan
        holds from it and the rest from the pool; a page a later read
        spans is kept."""
        pages = self.matrix.tile_pages(ti, tj)
        blocks = self._blocks(pages)
        fetched = iter(self.store.pool.get_many(blocks) if blocks else ())
        frames = [self._kept[p] if p in self._kept else next(fetched)
                  for p in pages]
        for page, frame in zip(pages, frames):
            self._due[page] -= 1
            if self._due[page] <= 0:
                self._kept.pop(page, None)
            elif page not in self._kept:
                self._kept[page] = frame.copy()
        return frames
