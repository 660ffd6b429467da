"""Tests for the CSR-tiled sparse matrix store."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import RiotSession
from repro.core.costs import csr_index_widths, tile_bytes
from repro.sparse import (SparseTiledMatrix, csr_from_dense, csr_to_dense,
                          spmv, tile_words)
from repro.sparse.sparse_matrix import default_sparse_tile_shape
from repro.storage import ArrayStore, StorageConfig
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
    mat.store.flush()            # a build's last page is in the pool
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
        new_store = ArrayStore(StorageConfig(memory_bytes=4 * 1024 * 1024))
        new = SparseTiledMatrix.from_dense(
            new_store, dense, tile_shape=tile, linearization=linearization)
        old = SparseTiledMatrix(
            ArrayStore(StorageConfig(memory_bytes=4 * 1024 * 1024)),
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
        """A tile goes to the pool as one ``put_many`` of the pages it
        fills, and its partly filled last page when a read asks for it
        (``tile_blocks`` here): the whole zero-padded page image
        ``[nnz: int64][data: float64][indptr: int32][indices: uint16]``."""
        dense = _random_sparse(rng, 128, 128, 0.3)   # 7 pages
        indptr, indices, data = csr_from_dense(dense)
        sp = SparseTiledMatrix(store, "img", (128, 128), (128, 128))
        with mock.patch.object(store.pool, "put_many",
                               wraps=store.pool.put_many) as put_many, \
                mock.patch.object(store.pool, "put",
                                  wraps=store.pool.put) as put:
            sp.append_tile(0, 0, indptr, indices, data)
        assert put_many.call_count == 1 and put.call_count == 0
        assert len(put_many.call_args.args[0]) == 6
        blocks = sp.tile_blocks(0, 0)
        assert len(blocks) == len(sp.tile_pages(0, 0)) == 7
        image = np.concatenate(store.pool.get_many(blocks))
        payload = np.concatenate([
            np.array([data.size]).view(np.uint8), data.view(np.uint8),
            indptr.astype(np.int32).view(np.uint8),
            indices.astype(np.uint16).view(np.uint8)])
        assert sp.directory[(0, 0)] == (0, tile_bytes(128, 128, data.size),
                                         data.size)
        assert payload.size <= tile_bytes(128, 128, data.size) \
            < payload.size + 8
        assert image[:payload.size].tobytes() == payload.tobytes()
        assert not image[payload.size:].any()

    def test_tile_blocks_are_the_pages_blocks(self, store, rng):
        dense = _random_sparse(rng, 300, 200, 0.2)   # multi-page tiles
        sp = SparseTiledMatrix.from_dense(store, dense)
        page = store.device.block_size
        assert max(len(sp.tile_pages(*t)) for t in sp.directory) > 1
        for (ti, tj), (offset, length, _) in sp.directory.items():
            blocks = sp.tile_blocks(ti, tj)
            assert blocks == sp.file.blocks_of(
                range(offset // page, -(-(offset + length) // page)))
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


    @pytest.mark.parametrize("at,value,complaint", [
        (1, 3, r"indptr does not rise from 0 to 2"),      # 0 3 2 2 2
        (0, 1, r"indptr does not rise from 0 to 2"),      # starts at 1
        (4, 1, r"indptr does not rise from 0 to 2"),      # ends at 1
        (None, 4, r"column index outside \[0, 4\)"),      # column 4
    ])
    def test_corrupt_indices_in_a_frame_are_named(self, store, at, value,
                                                  complaint):
        """Bytes that are no CSR tile of this shape stop at the read
        with the matrix and the tile named, not deep in a kernel (an
        indptr that falls made ``csr_to_dense`` raise NumPy's "repeats
        may not contain negative values")."""
        sp = SparseTiledMatrix.from_coo(store, [0, 1], [0, 1], [1.0, 2.0],
                                        (4, 4), name="torn")
        block = sp.tile_blocks(0, 0)[0]
        offset, _, nnz = sp.directory[(0, 0)]
        tile = offset % store.device.block_size
        indptr_at = tile + 8 + 8 * nnz
        page = store.pool.get(block).copy()
        if at is None:               # the first column index
            page[indptr_at + 4 * 5:][:2].view(np.uint16)[0] = value
        else:
            page[indptr_at:][:4 * 5].view(np.int32)[at] = value
        store.pool.put(block, page)
        for read in (lambda: sp.read_tile_csr(0, 0), sp.to_numpy,
                     lambda: spmv(store, sp,
                                  store.vector_from_numpy(np.ones(4)))):
            with pytest.raises(ValueError,
                               match=r"torn tile \(0,0\): stored "
                               + complaint):
                read()


class TestNarrowEncoding:
    """Row pointers and column indices are stored as narrow as the tile
    shape allows and widened to int64 on the read."""

    @pytest.mark.parametrize("cols,index_type", [
        (65536, np.uint16), (65537, np.int32)])
    def test_index_width_follows_the_tile_width(self, cols, index_type):
        store = ArrayStore(StorageConfig(memory_bytes=1 << 20))
        dense = np.zeros((2, cols))
        dense[0, [0, 1]] = [1.5, -2.0]
        dense[1, [1, cols - 2, cols - 1]] = [3.25, 5e-324, -np.inf]
        sp = SparseTiledMatrix.from_dense(store, dense,
                                          tile_shape=(2, cols))
        offset, n_bytes, nnz = sp.directory[(0, 0)]
        size = index_type().itemsize
        assert n_bytes == tile_bytes(2, cols, nnz) \
            == -(-(8 + 8 * nnz + 4 * 3 + size * nnz) // 8) * 8
        raw = np.frombuffer(b"".join(_raw_pages(sp)), dtype=np.uint8)
        indices_at = offset + 8 + 8 * nnz + 4 * 3
        stored = raw[indices_at: indices_at + size * nnz].view(index_type)
        assert stored.tolist() == [0, 1, 1, cols - 2, cols - 1]
        got = sp.read_tile_csr(0, 0)
        for part, want in zip(got, csr_from_dense(dense)):
            assert part.dtype == want.dtype
            assert part.tobytes() == want.tobytes()

    def test_row_pointers_widen_at_2_31_cells(self):
        assert csr_index_widths(32768, 65535) == (4, 2)
        assert csr_index_widths(32768, 65536) == (8, 2)
        assert csr_index_widths(1, 65537) == (4, 4)

    @settings(max_examples=100, deadline=None)
    @given(shape=st.tuples(st.integers(1, 60), st.integers(1, 60)),
           tile=st.tuples(st.integers(1, 24), st.integers(1, 24)),
           density=st.sampled_from([0.02, 0.2, 1.0]),
           block=st.sampled_from([64, 512, 8192]),
           seed=st.integers(0, 2 ** 16))
    def test_every_directory_length_is_tile_bytes(self, shape, tile,
                                                  density, block, seed):
        dense = _random_sparse(np.random.default_rng(seed), *shape,
                               density)
        store = ArrayStore(StorageConfig(block_size=block,
                                         memory_bytes=64 * block))
        sp = SparseTiledMatrix.from_dense(store, dense, tile_shape=tile)
        for (ti, tj), (offset, n_bytes, nnz) in sp.directory.items():
            r0, r1, c0, c1 = sp.tile_bounds(ti, tj)
            assert n_bytes == tile_bytes(r1 - r0, c1 - c0, nnz)
            assert offset % 8 == 0
        assert np.array_equal(sp.to_numpy(), dense)


class TestIOAccounting:
    def test_cold_read_costs_directory_pages(self, rng):
        store = ArrayStore(StorageConfig(memory_bytes=16 * 8192))
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

    def test_to_dense_result_is_a_store_array(self, tmp_path, rng):
        """The dense result takes its name in the store like any matrix
        made there: the name is listed and refused a second time, and
        the matrix persists."""
        dense = _random_sparse(rng, 256, 256, 0.05)
        cfg = StorageConfig(backend="pread", path=tmp_path / "riot.db",
                            memory_bytes=16 * 8192)
        with ArrayStore(storage=cfg) as store:
            SparseTiledMatrix.from_dense(store, dense).to_dense(name="D")
            assert "D" in store.stored_names()
            with pytest.raises(ValueError, match="'D' is already live"):
                store.create_matrix((4, 4), name="D")
        with ArrayStore(storage=cfg) as store:
            assert np.array_equal(store.open_matrix("D").to_numpy(),
                                  dense)

    def test_sparse_matrix_is_a_store_array(self, tmp_path, rng):
        """So does the sparse matrix itself: its name is listed and
        refused a second time, and it persists and reopens sparse."""
        dense = _random_sparse(rng, 256, 256, 0.05)
        cfg = StorageConfig(backend="pread", path=tmp_path / "riot.db",
                            memory_bytes=16 * 8192)
        with ArrayStore(storage=cfg) as store:
            SparseTiledMatrix.from_dense(store, dense, name="S")
            assert store.stored_names() == ["S"]
            with pytest.raises(ValueError, match="'S' is already live"):
                SparseTiledMatrix.from_dense(store, dense, name="S")
        with ArrayStore(storage=cfg) as store:
            assert store.stored_names() == ["S"]
            again = store.open_matrix("S")
            assert isinstance(again, SparseTiledMatrix)
            assert np.array_equal(again.to_numpy(), dense)

    def test_drop_releases_everything(self, store):
        sp = SparseTiledMatrix.from_coo(store, [0, 100], [0, 100],
                                        [1.0, 2.0], (256, 256))
        sp.drop()
        assert sp.nnz == 0 and not sp.directory
        assert sp.file.num_pages == 0
        assert sp.tile_blocks(0, 0) == [] and sp.read_tile_csr(0, 0) is None


@pytest.mark.parametrize("mode", ["pread", "mmap"])
class TestPersistence:
    """A sparse matrix is one of its store's arrays on a page file: it
    takes its name through the store, persists at ``close()``, reopens
    through ``open_matrix`` and leaves the manifest when dropped."""

    @staticmethod
    def _config(tmp_path, mode):
        return StorageConfig(backend=mode, path=tmp_path / "riot.db",
                             memory_bytes=16 * 8192)

    def test_a_sparse_matrix_survives_reopen(self, tmp_path, mode):
        """The store-reopen probe: a 512 x 512 ``S`` of 1 297 nonzeros
        beside a dense ``M``.  ``S`` is listed before and after the
        reopen, reopens sparse with the same bits and directory, and a
        session handle over it has the same density and plans the same
        ``spmm`` and ``spgemm``.  While it is persisted its name is
        refused to a dense matrix; once dropped, it is gone from the
        manifest."""
        cfg = self._config(tmp_path, mode)
        rng = np.random.default_rng(0)
        flat = rng.choice(512 * 512, size=1297, replace=False)
        with RiotSession(storage=cfg) as s:
            sp = s.sparse_matrix(flat // 512, flat % 512,
                                 rng.standard_normal(1297), (512, 512),
                                 name="S")
            m = s.matrix(rng.standard_normal((512, 64)), name="M")
            assert s.stored_names() == ["M", "S"]
            plans = [s.plan(sp @ m).signature(),
                     s.plan(sp @ sp).signature()]
            assert "spmm" in plans[0] and "spgemm" in plans[1]
            density = sp.node.density
            values = sp.node.data.to_numpy()
            directory = dict(sp.node.data.directory)
        with RiotSession(storage=cfg) as s:
            assert s.stored_names() == ["M", "S"]
            with pytest.raises(ValueError, match="'S' is already persisted"):
                s.store.matrix_from_numpy(np.ones((8, 8)), name="S")
            sp, m = s.open_matrix("S"), s.open_matrix("M")
            again = sp.node.data
            assert isinstance(again, SparseTiledMatrix)
            assert again.to_numpy().tobytes() == values.tobytes()
            assert again.directory == directory
            assert sp.node.density == density
            assert [s.plan(sp @ m).signature(),
                    s.plan(sp @ sp).signature()] == plans
            again.drop()
            assert s.stored_names() == ["M"]
        with ArrayStore(storage=cfg) as store:
            assert store.stored_names() == ["M"]
            assert list(store.device.manifest) == ["M"]

    def test_a_name_is_refused_across_kinds(self, tmp_path, mode):
        """A live sparse name is refused to a dense matrix, and a live
        dense name to a sparse one; the first keeps name and values."""
        with ArrayStore(storage=self._config(tmp_path, mode)) as store:
            SparseTiledMatrix.from_coo(store, [0], [0], [1.0], (4, 4),
                                       name="S")
            store.matrix_from_numpy(np.ones((4, 4)), name="M")
            with pytest.raises(ValueError, match="'S' is already live"):
                store.matrix_from_numpy(np.ones((8, 8)), name="S")
            with pytest.raises(ValueError, match="'M' is already live"):
                SparseTiledMatrix.from_coo(store, [1], [1], [2.0], (4, 4),
                                           name="M")
            assert store.stored_names() == ["M", "S"]
            assert store.open_matrix("S").to_numpy()[0, 0] == 1.0
            assert np.array_equal(store.open_matrix("M").to_numpy(),
                                  np.ones((4, 4)))

    def test_a_forced_spgemm_result_persists(self, tmp_path, mode):
        """The sparse product a session forces is a store array like
        its operands: it keeps its name across a reopen and reads back
        the same exact integer product."""
        cfg = self._config(tmp_path, mode)
        rng = np.random.default_rng(1)
        dense = (rng.random((300, 300)) < 0.02) * rng.integers(
            1, 9, (300, 300)).astype(float)
        rows, cols = np.nonzero(dense)
        with RiotSession(storage=cfg) as s:
            a = s.sparse_matrix(rows, cols, dense[rows, cols], dense.shape,
                                name="A")
            product = s.force(a @ a)
            assert isinstance(product, SparseTiledMatrix)
            assert s.stored_names() == sorted(["A", product.name])
            name, values = product.name, product.to_numpy()
        assert np.array_equal(values, dense @ dense)
        with ArrayStore(storage=cfg) as store:
            assert store.stored_names() == sorted(["A", name])
            again = store.open_matrix(name)
            assert again.to_numpy().tobytes() == values.tobytes()
            assert again.nnz == np.count_nonzero(dense @ dense)

    def test_an_append_after_reopen_rewrites_no_stored_page(
            self, tmp_path, mode):
        """A reopened matrix is write-once like a built one: a tile
        appended to it starts past its last page, so the pages its
        stored tiles share keep their bytes and every tile reads back
        the same before and after the next reopen."""
        cfg = self._config(tmp_path, mode)
        dense = np.zeros((32, 32))
        dense[:8, :8] = np.arange(64.0).reshape(8, 8) + 1
        dense[:8, 8:16] = 2.0                  # packed beside it
        with ArrayStore(storage=cfg) as store:
            built = SparseTiledMatrix.from_dense(store, dense,
                                                 tile_shape=(8, 8),
                                                 name="S")
            assert built.data_pages == 1       # both tiles on one page
        extra = np.full((8, 8), 3.0)
        with ArrayStore(storage=cfg) as store:
            sp = store.open_matrix("S")
            old = store.pool.get(sp.file.block_of(0)).copy()
            sp.append_tile_dense(3, 3, extra)
            assert sp.tile_pages(3, 3) == range(1, 2)
            store.flush()
            assert np.array_equal(store.pool.get(sp.file.block_of(0)), old)
            dense[24:, 24:] = extra
            assert np.array_equal(sp.to_numpy(), dense)
        with ArrayStore(storage=cfg) as store:
            assert np.array_equal(store.open_matrix("S").to_numpy(), dense)
