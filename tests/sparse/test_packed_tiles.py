"""Packed CSR tiles against tiles on pages of their own.

A sparse matrix's CSR tiles are packed into its page file: each starts
where the last one ended, unless that would make it span more pages
than it would alone (``repro.core.costs.packed_tile_offset``).  Each
draw here runs one sparse operation twice — under that writer, and
under a test-local copy of the writer it replaced, which put every tile
on fresh pages, patched in as ``SparseTiledMatrix.append_tile`` — and
checks that the results have the same bits, that the packed layout
never reads or writes more blocks, and that ``read_tile_csr`` gives
back every stored tile's triple.  ``spmm`` prices its panels on A's
pages, which packing lowers, so the layouts can choose different
panels; the comparison is of layouts, so the one-tile-per-page run
takes the panels the packed run chose.

The lattice: ``spmv``, ``spmm``, ``spgemm``, ``to_dense`` and
``to_numpy``; the memory and ``pread`` backends; the I/O scheduler on
and off; row and column linearization; pools of 4 to 64 pages of 512
bytes; tiles of 2 to 12 rows and columns, each empty, sparse or full,
so from no bytes to a few pages; kernel budgets from one scalar (one
block row a panel) to several tiles.
"""

from __future__ import annotations

import tempfile
from contextlib import nullcontext
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.sparse import SparseTiledMatrix, kernels, spgemm, spmm, spmv
from repro.sparse.sparse_matrix import csr_from_dense, pack_csr
from repro.storage import ArrayStore, StorageConfig

BLOCK = 512                  # 64 words a page: tiles span pages


def one_tile_per_page(self, ti, tj, indptr, indices, data):
    """``append_tile`` before packing: the tile's bytes (the shared
    ``pack_csr``) on fresh pages, all of them put at once."""
    nnz = int(data.size)
    if nnz == 0:
        return
    r0, r1, c0, c1 = self.tile_bounds(ti, tj)
    tile = pack_csr(indptr, indices, data, (r1 - r0, c1 - c0))
    page = self.store.device.block_size
    n_pages = -(-tile.size // page)
    image = np.zeros((n_pages, page), dtype=np.uint8)
    image.reshape(-1)[:tile.size] = tile
    first = self.file.allocate_pages(n_pages)[0]
    self.store.pool.put_many(
        self.file.blocks_of(range(first, first + n_pages)), image)
    self.directory[(ti, tj)] = (first * page, tile.size, nnz)
    self._row_index.setdefault(ti, []).append(tj)
    self._col_index.setdefault(tj, []).append(ti)
    self.nnz += nnz


def _operand(rng, shape, tile, fills) -> np.ndarray:
    """Small integers (every sum exact), each tile empty, sparse or
    full by a draw from ``fills``."""
    dense = np.zeros(shape)
    for r0 in range(0, shape[0], tile[0]):
        for c0 in range(0, shape[1], tile[1]):
            blk = dense[r0:r0 + tile[0], c0:c0 + tile[1]]
            blk[...] = ((rng.random(blk.shape) < rng.choice(fills))
                        * rng.integers(-3, 4, size=blk.shape))
    return dense


def _triples_come_back(mat, dense) -> None:
    """``read_tile_csr`` returns the triple of every stored tile."""
    for ti, tj in mat.nonempty_tiles():
        r0, r1, c0, c1 = mat.tile_bounds(ti, tj)
        want = csr_from_dense(dense[r0:r1, c0:c1])
        got = mat.read_tile_csr(ti, tj)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


def run(op, seed, th, tk, tw, rows, inner, cols, fills, backend,
        scheduler, linearization, pool, memory, packed):
    """Result, device reads and writes of one cold run of ``op``."""
    rng = np.random.default_rng(seed)
    m, l, n = rows * th, inner * tk, cols * tw
    a_np = _operand(rng, (m - rng.integers(0, th), l), (th, tk), fills)
    b_np = _operand(rng, (l, n), (tk, tw), fills)
    old = mock.patch.object(SparseTiledMatrix, "append_tile",
                            one_tile_per_page)
    with tempfile.TemporaryDirectory() as tmp, \
            (nullcontext() if packed else old):
        store = ArrayStore(StorageConfig(
            backend=backend, block_size=BLOCK, memory_bytes=pool * BLOCK,
            scheduler=scheduler,
            path=None if backend == "memory" else Path(tmp) / "riot.db"))
        try:
            a = SparseTiledMatrix.from_dense(store, a_np, tile_shape=(th, tk),
                                             linearization=linearization)
            if op == "spgemm":
                b = SparseTiledMatrix.from_dense(
                    store, b_np, tile_shape=(tk, tw),
                    linearization=linearization)
            elif op == "spmm":
                b = store.matrix_from_numpy(b_np)
            elif op == "spmv":
                b = store.vector_from_numpy(b_np[:, 0].copy())
            store.flush()
            store.pool.clear()
            store.reset_stats()
            if op == "to_numpy":
                values = a.to_numpy()
            else:
                out = {"spmv": lambda: spmv(store, a, b),
                       "spmm": lambda: spmm(store, a, b, memory),
                       "spgemm": lambda: spgemm(store, a, b, memory),
                       "to_dense": lambda: a.to_dense()}[op]()
            store.flush()
            reads, writes = store.device.stats.reads, store.device.stats.writes
            if op != "to_numpy":
                values = out.to_numpy()
            _triples_come_back(a, a_np)
            if op == "spgemm":
                _triples_come_back(b, b_np)
                _triples_come_back(out, values)
        finally:
            store.close()
    return values, reads, writes


@given(op=st.sampled_from(["spmv", "spmm", "spgemm", "to_dense",
                           "to_numpy"]),
       seed=st.integers(0, 2 ** 16),
       th=st.integers(2, 12), tk=st.integers(2, 12), tw=st.integers(2, 12),
       rows=st.integers(1, 5), inner=st.integers(1, 5),
       cols=st.integers(1, 5),
       fills=st.sampled_from([(0.0, 0.1), (0.0, 0.3, 1.0), (0.05,),
                              (1.0,)]),
       backend=st.sampled_from(["memory", "pread"]),
       scheduler=st.booleans(),
       linearization=st.sampled_from(["row", "col"]),
       pool=st.integers(4, 64), memory=st.integers(1, 1 << 12))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
# 320-byte tiles: a rule that let the second start at byte 320 would
# span two 512-byte pages with it, and one-row panels read it alone.
@example(op="spmm", seed=0, th=2, tk=9, tw=2, rows=3, inner=1, cols=3,
         fills=(1.0,), backend="memory", scheduler=False,
         linearization="row", pool=4, memory=1)
# Four block rows read column by column from five shared pages in a
# 4-page pool: each page is read once a column panel (the tile scan
# keeps it), not once a block column.
@example(op="spmm", seed=0, th=2, tk=4, tw=2, rows=4, inner=4, cols=1,
         fills=(1.0,), backend="memory", scheduler=True,
         linearization="row", pool=4, memory=32)
def test_packed_tiles_keep_every_bit_and_move_no_more_blocks(
        op, seed, th, tk, tw, rows, inner, cols, fills, backend,
        scheduler, linearization, pool, memory):
    args = (op, seed, th, tk, tw, rows, inner, cols, fills, backend,
            scheduler, linearization, pool, memory)
    chosen = []

    def schedule(*operands):
        chosen.append(spmm_schedule(*operands))
        return chosen[-1]

    spmm_schedule = kernels.spmm_schedule
    with mock.patch.object(kernels, "spmm_schedule", schedule):
        new_values, new_reads, new_writes = run(*args, packed=True)
    with mock.patch.object(kernels, "spmm_schedule",
                           lambda *_: chosen[0]):
        old_values, old_reads, old_writes = run(*args, packed=False)
    assert new_values.tobytes() == old_values.tobytes()
    assert new_reads <= old_reads
    assert new_writes <= old_writes
