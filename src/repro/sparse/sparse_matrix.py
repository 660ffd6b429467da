"""Out-of-core sparse matrices: CSR-encoded tiles over the page stack.

The dense :class:`~repro.storage.tile_store.TiledMatrix` proves the paper's
§5 argument — array semantics, not relational rows, should drive on-disk
layout — for dense data.  Real statistical workloads (design matrices,
graphs, term-document matrices) are overwhelmingly sparse, and dense tiling
then spends nearly all of its I/O moving zeros.  A
:class:`SparseTiledMatrix` keeps the same tile grid but stores each tile in
compressed sparse row (CSR) form:

- a **tile directory** maps grid coordinates of *nonempty* tiles to their
  page range and nonzero count; **empty tiles occupy zero pages** and cost
  zero I/O,
- each nonempty tile is serialized as ``[nnz][indptr][indices][data]``
  (all 8-byte words) into whole pages of the matrix's
  :class:`~repro.storage.pagefile.PageFile`,
- :meth:`~SparseTiledMatrix.from_coo` / ``from_dense`` append tiles in
  linearization order, so a scan of the nonempty tiles in grid order
  produces sequential device I/O exactly like the dense store.

All reads and writes go through the shared
:class:`~repro.storage.buffer_pool.BufferPool`, so every block is counted
by the same :class:`~repro.storage.block_device.IOStats` contract the dense
stack uses, and kernels can announce tile footprints via
``pool.prefetch()``.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from repro.storage import (Linearization, make_linearization,
                           new_pagefile)
from repro.storage.tile_store import ArrayStore, TiledMatrix

_FLOAT = np.float64
_INT = np.int64
_WORD_BYTES = 8


#: Sparse tiles default to this multiple of the dense square-tile side.
#: Dense tiles must fit one block, so their area is pinned to B scalars;
#: a CSR tile's page count scales with its nnz instead, so the grid can
#: use geometrically larger tiles — low-density regions then collapse
#: into *empty* tiles (zero pages) while a nonempty tile still spans
#: only ``O(nnz)`` pages.
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
    """8-byte words a CSR tile occupies on disk.

    One word for the nnz header, ``rows + 1`` for indptr, and ``nnz``
    each for the column indices and the values.
    """
    return rows + 2 + 2 * nnz


class SparseTiledMatrix:
    """A 2-D sparse array stored as a grid of CSR tiles on whole pages.

    The tile grid mirrors :class:`TiledMatrix` (same ``tile_shape`` /
    ``grid`` / ``tile_bounds`` geometry), but only nonempty tiles are
    backed by pages.  Instances are write-once: build them with
    :meth:`from_coo` / :meth:`from_dense`, which append tiles in
    linearization order, or stream tiles through :meth:`append_tile`
    during construction by a kernel — in whatever order its schedule
    finishes them (``spgemm``: panel by panel, column by column); every
    reader finds a tile through the directory, never by position.
    """

    def __init__(self, store: ArrayStore, name: str,
                 shape: tuple[int, int], tile_shape: tuple[int, int],
                 linearization: str | Linearization = "row") -> None:
        n1, n2 = shape
        th, tw = tile_shape
        if n1 <= 0 or n2 <= 0:
            raise ValueError(f"shape must be positive, got {shape}")
        if th <= 0 or tw <= 0:
            raise ValueError(f"tile shape must be positive, got {tile_shape}")
        self.store = store
        self.name = name
        self.shape = (n1, n2)
        self.tile_shape = (min(th, n1), min(tw, n2))
        self.grid = (-(-n1 // self.tile_shape[0]),
                     -(-n2 // self.tile_shape[1]))
        if isinstance(linearization, Linearization):
            self.linearization = linearization
        else:
            self.linearization = make_linearization(
                linearization, self.grid[0], self.grid[1])
        self.file = new_pagefile(store.device, name=name)
        #: (ti, tj) -> (first_page, n_pages, nnz) for nonempty tiles only.
        self.directory: dict[tuple[int, int], tuple[int, int, int]] = {}
        #: (ti, tj) -> device blocks of the tile's pages, fixed at append
        #: (tiles are write-once), so reads and hints never re-derive it.
        self._blocks: dict[tuple[int, int], list[int]] = {}
        self._row_index: dict[int, list[int]] = {}
        self._col_index: dict[int, list[int]] = {}
        self.nnz = 0

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
        """Serialize one CSR tile onto fresh pages and index it.

        Empty tiles (``data.size == 0``) are skipped entirely — no
        directory entry, no pages, no I/O.  A triple that is not the CSR
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
        # The page image, built once: ``[nnz][indptr][indices][data]``
        # as 8-byte words, zero-padded to whole pages.
        body = 2 + r1 - r0                          # header + indptr
        n_bytes = tile_words(r1 - r0, nnz) * _WORD_BYTES
        page_size = self.store.device.block_size
        n_pages = -(-n_bytes // page_size)
        image = np.zeros(n_pages * page_size, dtype=np.uint8)
        words = image[:n_bytes].view(_INT)
        words[0] = nnz
        words[1:body] = indptr
        words[body: body + nnz] = indices
        words[body + nnz:].view(_FLOAT)[:] = data
        first_page = self.file.allocate_pages(n_pages)[0]
        blocks = self.file.blocks_of(range(first_page,
                                           first_page + n_pages))
        self.store.pool.put_many(blocks, image.reshape(n_pages, page_size))
        self.directory[(ti, tj)] = (first_page, n_pages, nnz)
        self._blocks[(ti, tj)] = blocks
        self._row_index.setdefault(ti, []).append(tj)
        self._col_index.setdefault(tj, []).append(ti)
        self.nnz += nnz

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
    # Geometry (mirrors TiledMatrix)
    # ------------------------------------------------------------------
    def tile_bounds(self, ti: int, tj: int) -> tuple[int, int, int, int]:
        """Return (row_lo, row_hi, col_lo, col_hi) of tile (ti, tj)."""
        self._check_tile(ti, tj)
        th, tw = self.tile_shape
        r0 = ti * th
        c0 = tj * tw
        return (r0, min(r0 + th, self.shape[0]),
                c0, min(c0 + tw, self.shape[1]))

    def tiles(self) -> Iterator[tuple[int, int]]:
        """Yield every grid coordinate in linearization order."""
        total = self.grid[0] * self.grid[1]
        for pos in range(total):
            yield self.linearization.coords(pos)

    def nonempty_tiles(self) -> list[tuple[int, int]]:
        """Nonempty tile coordinates in on-disk (appended) order."""
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

    def tile_blocks(self, ti: int, tj: int) -> list[int]:
        """Device blocks backing tile (ti, tj) — empty list if empty."""
        blocks = self._blocks.get((ti, tj))
        if blocks is None:
            self._check_tile(ti, tj)
            return []
        return list(blocks)

    @property
    def density(self) -> float:
        return self.nnz / (self.shape[0] * self.shape[1])

    @property
    def data_pages(self) -> int:
        """Pages actually occupied (empty tiles contribute nothing)."""
        return self.file.num_pages

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def read_tile_csr(self, ti: int, tj: int
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """Read tile (ti, tj) as (indptr, indices, data); None if empty."""
        entry = self.directory.get((ti, tj))
        if entry is None:
            self._check_tile(ti, tj)
            return None
        frames = self.store.pool.get_many(self._blocks[(ti, tj)])
        # The one private copy; the triple is three views of it.
        words = np.concatenate(frames).view(_INT)
        nnz = int(words[0])
        if nnz != entry[2]:
            raise ValueError(
                f"{self.name} tile ({ti},{tj}): page header says {nnz} "
                f"nonzeros, directory says {entry[2]}")
        th = self.tile_shape[0]
        body = 2 + min(th, self.shape[0] - ti * th)   # header + indptr
        return (words[1:body], words[body: body + nnz],
                words[body + nnz: body + 2 * nnz].view(_FLOAT))

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
        out = TiledMatrix(self.store,
                          name or self.store._fresh_name("densified"),
                          self.shape, self.tile_shape,
                          self.linearization.name)
        for ti, tj in out.tiles():
            out.write_tile(ti, tj, self.read_tile(ti, tj))
        return out

    def drop(self) -> None:
        for page in range(self.file.num_pages):
            self.store.pool.invalidate(self.file.block_of(page))
        self.file.drop()
        self.directory.clear()
        self._blocks.clear()
        self._row_index.clear()
        self._col_index.clear()
        self.nnz = 0

    # ------------------------------------------------------------------
    def _check_tile(self, ti: int, tj: int) -> None:
        if not (0 <= ti < self.grid[0] and 0 <= tj < self.grid[1]):
            raise IndexError(
                f"tile ({ti},{tj}) outside grid {self.grid} of {self.name}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"SparseTiledMatrix({self.name!r}, shape={self.shape}, "
                f"tile={self.tile_shape}, nnz={self.nnz}, "
                f"pages={self.data_pages})")
