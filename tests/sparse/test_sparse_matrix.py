"""Tests for the CSR-tiled sparse matrix store."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.sparse import (SparseTiledMatrix, csr_from_dense, csr_to_dense,
                          tile_words)
from repro.sparse.sparse_matrix import default_sparse_tile_shape
from repro.storage import ArrayStore
from repro.storage.linearization import linearization_names


def _random_sparse(rng, m, n, density):
    return (rng.random((m, n)) < density) * rng.standard_normal((m, n))


class TestCSRCodec:
    def test_roundtrip(self, rng):
        tile = _random_sparse(rng, 17, 23, 0.2)
        indptr, indices, data = csr_from_dense(tile)
        assert indptr[0] == 0 and indptr[-1] == data.size
        assert np.array_equal(csr_to_dense(indptr, indices, data,
                                           tile.shape), tile)

    def test_empty_tile(self):
        indptr, indices, data = csr_from_dense(np.zeros((4, 4)))
        assert data.size == 0
        assert np.array_equal(indptr, np.zeros(5, dtype=np.int64))

    @settings(max_examples=200, deadline=None)
    @given(tile=hnp.arrays(
        np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=9),
        elements=st.one_of(
            st.sampled_from([0.0, -0.0, np.nan, 5e-324, -2.2e-308, 1.0]),
            st.floats(allow_nan=True, allow_infinity=True,
                      allow_subnormal=True))))
    def test_mask_pass_is_the_nonzero_triple(self, tile):
        """``csr_from_dense`` finds nonzeros with one mask over the flat
        tile; the triple is the one ``np.nonzero`` gives, bit for bit
        and dtype for dtype: ``-0.0`` is a zero, NaN and subnormals are
        not.  ``csr_to_dense`` scatters by flat position; same array as
        the two-index scatter."""
        rows, cols = np.nonzero(tile)
        want = (np.cumsum(np.bincount(rows + 1,
                                      minlength=tile.shape[0] + 1)),
                cols, tile[rows, cols])
        got = csr_from_dense(tile)
        for part, ref in zip(got, want):
            assert part.dtype == ref.dtype
            assert part.tobytes() == ref.tobytes()
        dense = np.zeros(tile.shape)
        dense[rows, cols] = tile[rows, cols]
        assert csr_to_dense(*got, tile.shape).tobytes() == dense.tobytes()

    def test_tile_words_exact(self):
        # 1 header + (rows+1) indptr + nnz indices + nnz data words.
        assert tile_words(rows=32, nnz=10) == 1 + 33 + 10 + 10


class TestConstruction:
    def test_from_dense_roundtrip(self, store, rng):
        dense = _random_sparse(rng, 300, 200, 0.05)
        sp = SparseTiledMatrix.from_dense(store, dense)
        assert np.allclose(sp.to_numpy(), dense)
        assert sp.nnz == np.count_nonzero(dense)

    def test_from_coo_sums_duplicates_and_drops_zeros(self, store):
        i = [0, 0, 1, 2, 2]
        j = [1, 1, 2, 0, 3]
        x = [1.0, 2.0, 0.0, 5.0, -1.0]
        sp = SparseTiledMatrix.from_coo(store, i, j, x, (4, 5))
        expect = np.zeros((4, 5))
        np.add.at(expect, (np.asarray(i), np.asarray(j)), np.asarray(x))
        assert np.allclose(sp.to_numpy(), expect)
        assert sp.nnz == 3  # duplicate summed to one entry, zero dropped

    def test_from_coo_cancelling_duplicates_vanish(self, store):
        sp = SparseTiledMatrix.from_coo(store, [1, 1], [1, 1],
                                        [2.5, -2.5], (3, 3))
        assert sp.nnz == 0
        assert sp.data_pages == 0

    def test_from_coo_rejects_out_of_range(self, store):
        with pytest.raises(IndexError):
            SparseTiledMatrix.from_coo(store, [5], [0], [1.0], (4, 4))

    def test_from_coo_rejects_misaligned_triplets(self, store):
        with pytest.raises(ValueError):
            SparseTiledMatrix.from_coo(store, [0, 1], [0], [1.0], (4, 4))

    def test_default_tile_is_larger_than_dense(self, store):
        # A CSR tile's pages scale with nnz, so the default grid uses
        # 4x the dense square side (128 at 8 KB blocks).
        assert default_sparse_tile_shape((10_000, 10_000),
                                        store.scalars_per_block) == \
            (128, 128)
        sp = SparseTiledMatrix.from_coo(store, [0], [0], [1.0],
                                        (1000, 1000))
        assert sp.tile_shape == (128, 128)


def _append_tiles_old_loop(mat, i, j, x):
    """``from_coo``'s tile grouping as it was: a per-nonzero scan for
    each run's end and ``np.add.at`` row counts.  ``i, j, x`` are the
    coalesced triplets in row-major order."""
    th, tw = mat.tile_shape
    tile_pos = np.array([mat.linearization.index(int(r // th), int(c // tw))
                         for r, c in zip(i, j)], dtype=np.int64)
    order = np.argsort(tile_pos, kind="stable")
    i, j, x, tile_pos = i[order], j[order], x[order], tile_pos[order]
    pos = 0
    while pos < i.size:
        end = pos
        while end < i.size and tile_pos[end] == tile_pos[pos]:
            end += 1
        ti, tj = mat.linearization.coords(int(tile_pos[pos]))
        r0, r1, c0, c1 = mat.tile_bounds(ti, tj)
        li, lj = i[pos:end] - r0, j[pos:end] - c0
        sub = np.argsort(li * (c1 - c0) + lj, kind="stable")
        li, lj, lx = li[sub], lj[sub], x[pos:end][sub]
        indptr = np.zeros(r1 - r0 + 1, dtype=np.int64)
        np.add.at(indptr, li + 1, 1)
        np.cumsum(indptr, out=indptr)
        mat.append_tile(ti, tj, indptr, lj.astype(np.int64), lx)
        pos = end


def _raw_pages(mat) -> list[bytes]:
    return [bytes(mat.store.pool.get(mat.file.block_of(page)))
            for page in range(mat.file.num_pages)]


class TestFromCooGrouping:
    """Run boundaries from ``np.diff`` and row counts from
    ``np.bincount`` lay down the bytes the per-nonzero scan did."""

    @pytest.mark.parametrize("linearization", linearization_names())
    @pytest.mark.parametrize("shape,tile,density", [
        ((1, 1), (1, 1), 1.0),
        ((37, 53), (8, 5), 0.2),         # ragged on both axes
        ((64, 64), (16, 16), 0.03),      # aligned, many empty tiles
        ((50, 9), (7, 9), 1.0),          # every tile full, one column
        ((300, 200), (128, 128), 0.01),  # the default side, clipped
    ])
    def test_same_directory_and_pages_as_the_old_loop(
            self, rng, linearization, shape, tile, density):
        dense = _random_sparse(rng, *shape, density)
        new_store = ArrayStore(memory_bytes=4 * 1024 * 1024)
        new = SparseTiledMatrix.from_dense(
            new_store, dense, tile_shape=tile, linearization=linearization)
        old = SparseTiledMatrix(ArrayStore(memory_bytes=4 * 1024 * 1024),
                                new.name, shape, tile, linearization)
        rows, cols = np.nonzero(dense)
        _append_tiles_old_loop(old, rows, cols, dense[rows, cols])
        assert new.directory == old.directory
        assert list(new.directory) == list(old.directory)   # append order
        assert new.file.page_map == old.file.page_map
        assert _raw_pages(new) == _raw_pages(old)
        assert np.array_equal(new.to_numpy(), dense)

    def test_no_triplets_no_tiles(self, store):
        sp = SparseTiledMatrix.from_coo(store, [], [], [], (5, 5))
        assert sp.nnz == 0 and not sp.directory and sp.data_pages == 0


class TestTileDirectory:
    def test_empty_tiles_occupy_zero_pages(self, store):
        # One nonzero in one corner of a 512x512 matrix: exactly one
        # directory entry, one page, 15 empty tiles for free.
        sp = SparseTiledMatrix.from_coo(store, [0], [0], [7.0],
                                        (512, 512))
        assert sp.grid == (4, 4)
        assert len(sp.directory) == 1
        assert sp.data_pages == 1
        assert sp.tile_blocks(3, 3) == []
        assert sp.tile_nnz(0, 0) == 1 and sp.tile_nnz(3, 3) == 0

    def test_directory_matches_contents(self, store, rng):
        dense = _random_sparse(rng, 400, 300, 0.01)
        sp = SparseTiledMatrix.from_dense(store, dense)
        th, tw = sp.tile_shape
        for (ti, tj), (_, _, nnz) in sp.directory.items():
            block = dense[ti * th: (ti + 1) * th, tj * tw: (tj + 1) * tw]
            assert nnz == np.count_nonzero(block)
        assert sp.nnz == sum(e[2] for e in sp.directory.values())

    def test_row_and_col_indexes(self, store):
        sp = SparseTiledMatrix.from_coo(
            store, [0, 0, 200], [0, 200, 0], [1.0, 2.0, 3.0], (256, 256))
        assert sp.nonempty_in_row(0) == [0, 1]
        assert sp.nonempty_in_row(1) == [0]
        assert sp.nonempty_in_col(0) == [0, 1]
        assert sp.nonempty_in_col(1) == [0]

    def test_tiles_append_in_linearization_order(self, store, rng):
        dense = _random_sparse(rng, 512, 512, 0.01)
        sp = SparseTiledMatrix.from_dense(store, dense)
        order = [sp.linearization.index(ti, tj)
                 for ti, tj in sp.nonempty_tiles()]
        assert order == sorted(order)

    def test_read_tile_densifies_with_edge_clipping(self, store, rng):
        dense = _random_sparse(rng, 200, 150, 0.1)  # 128-tiles clip
        sp = SparseTiledMatrix.from_dense(store, dense)
        for ti, tj in sp.tiles():
            r0, r1, c0, c1 = sp.tile_bounds(ti, tj)
            assert np.array_equal(sp.read_tile(ti, tj),
                                  dense[r0:r1, c0:c1])

    def test_double_append_rejected(self, store):
        sp = SparseTiledMatrix.from_coo(store, [0], [0], [1.0],
                                        (64, 64))
        with pytest.raises(ValueError):
            sp.append_tile_dense(0, 0, np.ones((64, 64)))

    @pytest.mark.parametrize("indptr,indices,data,complaint", [
        ([0, 1, 2], [0, 3], [1.0, 2.0], "column index"),
        ([0, 1, 2], [-1, 0], [1.0, 2.0], "column index"),
        ([0, 3, 2], [0, 1], [1.0, 2.0], "indptr decreases"),
        ([0, 1, 2], [0, 1, 2], [1.0, 2.0], "3 column indices for 2"),
        ([0, 0, 0], [0], [], "1 column indices for 0"),
        ([1, 1, 2], [0, 1], [1.0, 2.0], "indptr does not describe"),
    ])
    def test_malformed_csr_triple_rejected(self, store, indptr, indices,
                                           data, complaint):
        # A negative index used to wrap inside csr_to_dense, a wide one
        # to spill into the next row: wrong numbers, no complaint.
        sp = SparseTiledMatrix(store, "bad", (2, 3), (2, 3))
        with pytest.raises(ValueError, match=complaint) as err:
            sp.append_tile(0, 0, np.array(indptr, dtype=np.int64),
                           np.array(indices, dtype=np.int64),
                           np.array(data, dtype=np.float64))
        assert "bad tile (0,0)" in str(err.value)
        # Rejected before anything was allocated or indexed.
        assert sp.data_pages == 0 and not sp.directory and sp.nnz == 0
        assert sp.tile_blocks(0, 0) == [] and sp.nonempty_in_row(0) == []

    def test_append_installs_one_page_image(self, store, rng):
        """A tile goes to the pool as one ``put_many`` of its whole
        zero-padded page image ``[nnz][indptr][indices][data]``."""
        dense = _random_sparse(rng, 128, 128, 0.2)   # 7 pages
        indptr, indices, data = csr_from_dense(dense)
        sp = SparseTiledMatrix(store, "img", (128, 128), (128, 128))
        with mock.patch.object(store.pool, "put_many",
                               wraps=store.pool.put_many) as put_many, \
                mock.patch.object(store.pool, "put",
                                  wraps=store.pool.put) as put:
            sp.append_tile(0, 0, indptr, indices, data)
        assert put_many.call_count == 1 and put.call_count == 0
        blocks = sp.tile_blocks(0, 0)
        assert len(blocks) == sp.directory[0, 0][1] == 7
        image = np.concatenate(store.pool.get_many(blocks))
        payload = np.concatenate([
            np.array([data.size]).view(np.uint8), indptr.view(np.uint8),
            indices.view(np.uint8), data.view(np.uint8)])
        assert payload.size == 8 * tile_words(128, data.size)
        assert image[:payload.size].tobytes() == payload.tobytes()
        assert not image[payload.size:].any()

    def test_tile_blocks_are_the_pages_blocks(self, store, rng):
        dense = _random_sparse(rng, 300, 200, 0.2)   # multi-page tiles
        sp = SparseTiledMatrix.from_dense(store, dense)
        assert max(e[1] for e in sp.directory.values()) > 1
        for (ti, tj), (first, n_pages, _) in sp.directory.items():
            blocks = sp.tile_blocks(ti, tj)
            assert blocks == sp.file.blocks_of(range(first,
                                                     first + n_pages))
            blocks.append(-1)            # the caller's list, not ours
            assert sp.tile_blocks(ti, tj) == blocks[:-1]

    def test_read_tile_csr_returns_private_arrays(self, store, rng):
        dense = _random_sparse(rng, 40, 30, 0.3)
        sp = SparseTiledMatrix.from_dense(store, dense)
        indptr, indices, data = sp.read_tile_csr(0, 0)
        assert (indptr.dtype, indices.dtype, data.dtype) == \
            (np.int64, np.int64, np.float64)
        assert np.array_equal(csr_to_dense(indptr, indices, data,
                                           dense.shape), dense)
        for part in (indptr, indices, data):
            part.fill(0)                 # scribbling changes nothing
        assert np.array_equal(sp.read_tile(0, 0), dense)

    def test_header_disagreeing_with_directory_is_named(self, store):
        sp = SparseTiledMatrix.from_coo(store, [0, 1], [0, 1], [1.0, 2.0],
                                        (4, 4), name="torn")
        page = store.pool.get(sp.tile_blocks(0, 0)[0]).copy()
        page[:8] = np.asarray([5], dtype=np.int64).view(np.uint8)
        store.pool.put(sp.tile_blocks(0, 0)[0], page)
        with pytest.raises(ValueError, match=r"torn tile \(0,0\).*5.*2"):
            sp.read_tile_csr(0, 0)


class TestIOAccounting:
    def test_cold_read_costs_directory_pages(self, rng):
        store = ArrayStore(memory_bytes=16 * 8192)
        dense = _random_sparse(rng, 512, 512, 0.02)
        sp = SparseTiledMatrix.from_dense(store, dense)
        store.pool.clear()
        store.reset_stats()
        sp.to_numpy()
        assert store.device.stats.reads == sp.data_pages

    def test_sparse_pages_far_below_dense(self, store, rng):
        n = 1024
        dense = _random_sparse(rng, n, n, 0.001)
        sp = SparseTiledMatrix.from_dense(store, dense)
        dense_pages = (n * n) // store.scalars_per_block
        assert sp.data_pages * 10 < dense_pages

    def test_to_dense_matches(self, store, rng):
        dense = _random_sparse(rng, 300, 300, 0.05)
        sp = SparseTiledMatrix.from_dense(store, dense)
        assert np.allclose(sp.to_dense().to_numpy(), dense)

    def test_drop_releases_everything(self, store):
        sp = SparseTiledMatrix.from_coo(store, [0, 100], [0, 100],
                                        [1.0, 2.0], (256, 256))
        sp.drop()
        assert sp.nnz == 0 and not sp.directory
        assert sp.file.num_pages == 0
        assert sp.tile_blocks(0, 0) == [] and sp.read_tile_csr(0, 0) is None
