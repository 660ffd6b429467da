"""Tests for the tiled array store (vectors, matrices, gather/scatter)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RiotSession
from repro.storage import (ArrayStore, IOStats, PoolStats, SchedulerStats,
                           StorageConfig, default_tile_side,
                           tile_shape_for_layout)


class TestTiledVector:
    def test_roundtrip(self, store, rng):
        data = rng.standard_normal(5000)
        vec = store.vector_from_numpy(data)
        assert np.allclose(vec.to_numpy(), data)

    def test_partial_last_chunk(self, store):
        vec = store.create_vector(1500, chunk=1024)
        assert vec.num_chunks == 2
        lo, hi = vec.chunk_bounds(1)
        assert (lo, hi) == (1024, 1500)

    def test_chunk_write_validates_length(self, store):
        vec = store.create_vector(100, chunk=64)
        with pytest.raises(ValueError):
            vec.write_chunk(0, np.zeros(10))

    def test_scan_order(self, store):
        data = np.arange(3000, dtype=np.float64)
        vec = store.vector_from_numpy(data)
        seen = [lo for lo, _ in vec.scan()]
        assert seen == sorted(seen)

    def test_gather_touches_only_needed_chunks(self, tiny_store, rng):
        data = rng.standard_normal(100_000)
        vec = tiny_store.vector_from_numpy(data)
        tiny_store.pool.clear()
        tiny_store.reset_stats()
        idx = np.asarray([5, 6, 7, 2048, 2049])  # two chunks
        out = vec.gather(idx)
        assert np.allclose(out, data[idx])
        assert tiny_store.device.stats.reads == 2

    def test_gather_empty(self, store):
        vec = store.create_vector(10)
        assert vec.gather(np.asarray([], dtype=np.int64)).size == 0

    def test_gather_out_of_range(self, store):
        vec = store.create_vector(10)
        with pytest.raises(IndexError):
            vec.gather(np.asarray([10]))

    def test_scatter_roundtrip(self, store, rng):
        data = rng.standard_normal(10_000)
        vec = store.vector_from_numpy(data.copy())
        idx = rng.choice(10_000, size=50, replace=False)
        vals = rng.standard_normal(50)
        vec.scatter(idx, vals)
        expect = data.copy()
        expect[idx] = vals
        assert np.allclose(vec.to_numpy(), expect)

    def test_scatter_shape_mismatch(self, store):
        vec = store.create_vector(10)
        with pytest.raises(ValueError):
            vec.scatter(np.asarray([1, 2]), np.asarray([1.0]))

    def test_chunk_larger_than_page_rejected(self, store):
        with pytest.raises(ValueError):
            store.create_vector(10, chunk=store.scalars_per_block + 1)

    def test_drop_releases_blocks(self, store):
        vec = store.vector_from_numpy(np.ones(5000))
        store.flush()
        resident_before = store.device.resident_blocks
        vec.drop()
        assert store.device.resident_blocks < resident_before

    @given(n=st.integers(1, 4000), chunk=st.integers(1, 1024))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, n, chunk):
        store = ArrayStore(memory_bytes=1 << 20)
        data = np.arange(n, dtype=np.float64) * 0.5
        vec = store.create_vector(n, chunk=chunk)
        vec.from_numpy(data)
        assert np.allclose(vec.to_numpy(), data)


class TestTiledMatrix:
    @pytest.mark.parametrize("layout", ["row", "col", "square"])
    def test_roundtrip_layouts(self, store, rng, layout):
        data = rng.standard_normal((100, 60))
        mat = store.matrix_from_numpy(data, layout=layout)
        assert np.allclose(mat.to_numpy(), data)

    @pytest.mark.parametrize("linearization",
                             ["row", "col", "zorder", "hilbert"])
    def test_roundtrip_linearizations(self, store, rng, linearization):
        data = rng.standard_normal((90, 90))
        mat = store.matrix_from_numpy(data, layout="square",
                                      linearization=linearization)
        assert np.allclose(mat.to_numpy(), data)

    def test_tile_bounds_clip_at_edges(self, store):
        mat = store.create_matrix((100, 70), tile_shape=(32, 32))
        r0, r1, c0, c1 = mat.tile_bounds(3, 2)
        assert (r0, r1, c0, c1) == (96, 100, 64, 70)

    def test_submatrix_read(self, store, rng):
        data = rng.standard_normal((128, 128))
        mat = store.matrix_from_numpy(data, layout="square")
        sub = mat.read_submatrix(10, 75, 20, 100)
        assert np.allclose(sub, data[10:75, 20:100])

    def test_submatrix_write_partial_tiles(self, store, rng):
        data = rng.standard_normal((96, 96))
        mat = store.matrix_from_numpy(data.copy(), layout="square")
        patch = rng.standard_normal((20, 30))
        mat.write_submatrix(5, 50, patch)
        expect = data.copy()
        expect[5:25, 50:80] = patch
        assert np.allclose(mat.to_numpy(), expect)

    def test_tile_write_validates_shape(self, store):
        mat = store.create_matrix((64, 64), tile_shape=(32, 32))
        with pytest.raises(ValueError):
            mat.write_tile(0, 0, np.zeros((16, 16)))

    def test_out_of_range_tile(self, store):
        mat = store.create_matrix((64, 64), tile_shape=(32, 32))
        with pytest.raises(IndexError):
            mat.read_tile(2, 0)

    def test_tiles_iterate_in_disk_order(self, store):
        mat = store.create_matrix((64, 64), tile_shape=(32, 32),
                                  linearization="col")
        order = list(mat.tiles())
        assert order == [(0, 0), (1, 0), (0, 1), (1, 1)]

    def test_multi_page_tiles(self, store, rng):
        """64x64 tiles of float64 are 4 pages each."""
        data = rng.standard_normal((128, 128))
        mat = store.create_matrix((128, 128), tile_shape=(64, 64))
        mat.from_numpy(data)
        assert mat.pages_per_tile == 4
        assert np.allclose(mat.to_numpy(), data)

    def test_reading_tile_costs_its_pages(self, tiny_store, rng):
        data = rng.standard_normal((128, 128))
        mat = tiny_store.create_matrix((128, 128), tile_shape=(64, 64))
        mat.from_numpy(data)
        tiny_store.pool.clear()
        tiny_store.reset_stats()
        mat.read_tile(0, 0)
        assert tiny_store.device.stats.reads == mat.pages_per_tile

    @given(rows=st.integers(1, 80), cols=st.integers(1, 80),
           th=st.integers(1, 32), tw=st.integers(1, 32))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, rows, cols, th, tw):
        store = ArrayStore(memory_bytes=1 << 21)
        data = np.arange(rows * cols, dtype=np.float64).reshape(rows, cols)
        mat = store.create_matrix((rows, cols), tile_shape=(th, tw))
        mat.from_numpy(data)
        assert np.allclose(mat.to_numpy(), data)


class TestTileShapeForLayout:
    def test_row_layout_packs_short_rows(self):
        assert tile_shape_for_layout("row", (100, 256), 1024) == (4, 256)

    def test_row_layout_wide_matrix(self):
        assert tile_shape_for_layout("row", (100, 5000), 1024) == (1, 1024)

    def test_col_layout_packs_short_columns(self):
        assert tile_shape_for_layout("col", (256, 100), 1024) == (256, 4)

    def test_square_layout(self):
        assert tile_shape_for_layout("square", (5000, 5000), 1024) == \
            (32, 32)

    def test_square_layout_in_a_pool(self):
        """Naming a pool lets the square tile span 16 pages."""
        shape = (5000, 5000)
        assert tile_shape_for_layout("square", shape, 1024, 255) == \
            (32, 32)
        assert tile_shape_for_layout("square", shape, 1024, 256) == \
            (128, 128)
        assert tile_shape_for_layout("square", (100, 5000), 1024,
                                     8192) == (100, 128)
        # Row and column tiles stay one page whatever the pool.
        assert tile_shape_for_layout("row", shape, 1024, 8192) == \
            (1, 1024)

    @pytest.mark.parametrize("shape,pages", [
        ((129, 129), 25),      # 64 in 128-side tiles
        ((160, 96), 15),       # 24
        ((200, 200), 49),      # 64
        ((333, 500), 192),     # 3 x 4 x 16, against 11 x 16 = 176
        ((512, 1), 4),         # 16 one-page tiles of 32 scalars each
    ])
    def test_large_tiles_only_where_the_shape_fits_them(self, shape,
                                                        pages):
        """A raw tile moves whole, padding included, so a shape the
        16-page tile would pad by more than an eighth (in pages, against
        the one-page layout) keeps the one-page tile."""
        store = ArrayStore(memory_bytes=256 * 8192)
        mat = store.create_matrix(shape)
        assert mat.grid[0] * mat.grid[1] * mat.pages_per_tile == pages
        one_page = ArrayStore(memory_bytes=255 * 8192).create_matrix(shape)
        assert one_page.tile_shape == (min(shape[0], 32),
                                       min(shape[1], 32))
        assert 8 * pages <= 9 * (one_page.grid[0] * one_page.grid[1])

    def test_unknown_layout(self):
        with pytest.raises(ValueError):
            tile_shape_for_layout("diagonal", (10, 10), 1024)

    @pytest.mark.parametrize("layout", ["row", "col", "square"])
    @pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0), (-1, 5)])
    def test_zero_sized_shape_raises_clearly(self, layout, shape):
        """A degenerate shape must raise ValueError, not ZeroDivisionError
        (the row/col branches divide by the opposite dimension)."""
        with pytest.raises(ValueError, match="zero- or negative-sized"):
            tile_shape_for_layout(layout, shape, 1024)

    def test_zero_block_raises_clearly(self):
        with pytest.raises(ValueError, match="scalars_per_block"):
            tile_shape_for_layout("square", (10, 10), 0)

    def test_create_matrix_zero_shape_raises_clearly(self):
        """The ArrayStore path reaches tile_shape_for_layout before the
        TiledMatrix constructor; it must fail just as clearly."""
        from repro.storage import ArrayStore
        store = ArrayStore(memory_bytes=8 * 8192)
        with pytest.raises(ValueError):
            store.create_matrix((0, 5))


class TestDefaultTileSide:
    """``default_tile_side``: the one statement of the dense default."""

    @given(block=st.integers(1, 1 << 16), pool=st.integers(1, 1 << 20),
           more=st.integers(0, 1 << 20),
           shape=st.tuples(st.integers(1, 5000), st.integers(1, 5000)))
    @settings(max_examples=200, deadline=None)
    def test_properties(self, block, pool, more, shape):
        base = default_tile_side(block)
        side = default_tile_side(block, pool)
        assert base * base <= block < (base + 1) ** 2
        # The one-page side, or four times it ...
        assert side in (base, 4 * base)
        # ... never taking more than 1/16 of the pool ...
        pages = -(-side * side // block)
        assert side == base or 16 * pages <= pool
        # ... so small pools keep the geometry they always had ...
        if pool < 64:
            assert side == base
        # ... a bigger pool never gets a smaller tile ...
        assert default_tile_side(block, pool + more) >= side
        # ... and a shape only ever turns the large tile down.
        assert default_tile_side(block, pool, shape) in (base, side)
        assert default_tile_side(block, None, shape) == base

    def test_fixed_points_at_the_default_block(self):
        assert [default_tile_side(1024, pool)
                for pool in (4, 63, 64, 255, 256, 8192)] \
            == [32, 32, 32, 32, 128, 128]

    @pytest.mark.parametrize("dtype,sides", [
        ("float64", (32, 128)), ("float32", (45, 180))])
    def test_create_matrix_follows_pool_and_dtype(self, dtype, sides):
        for pool_blocks, side in zip((255, 256), sides):
            store = ArrayStore(storage=StorageConfig(
                memory_bytes=pool_blocks * 8192, dtype=dtype))
            for kwargs in ({}, {"layout": "square"}):
                mat = store.create_matrix((720, 720), **kwargs)
                assert mat.tile_shape == (side, side)
                assert mat.pages_per_tile in (1, 16)
                assert 16 * mat.pages_per_tile <= max(pool_blocks, 16)
            # Explicit shapes and the skinny layouts are untouched.
            assert store.create_matrix(
                (400, 400), tile_shape=(8, 8)).tile_shape == (8, 8)
            assert store.create_matrix(
                (400, 400), layout="row").pages_per_tile == 1

    @pytest.mark.parametrize("backend", ["mmap", "pread"])
    def test_one_page_tiles_reopen_under_a_larger_default(
            self, tmp_path, backend, rng):
        """A page file written with 32-side tiles (a small pool, or a
        version whose default was one page) reads back under a pool
        whose default is 128: geometry comes from the manifest."""
        path = tmp_path / "riot.db"
        data = rng.standard_normal((200, 256))
        small = StorageConfig(backend=backend, path=path,
                              memory_bytes=48 * 8192)
        with ArrayStore(storage=small) as store:
            assert store.matrix_from_numpy(
                data, name="X").tile_shape == (32, 32)
        large = small.with_options(memory_bytes=256 * 8192)
        with RiotSession(storage=large) as session:
            x = session.open_matrix("X")
            stored = session.force(x)
            assert stored.tile_shape == (32, 32)
            assert stored.pages_per_tile == 1
            assert np.array_equal(stored.to_numpy(), data)
            assert np.array_equal(
                stored.read_submatrix(31, 130, 7, 150),
                data[31:130, 7:150])
            # New arrays beside it take the new default, and kernels
            # run across the two geometries.
            gram = session.force(x.T @ x)
            assert gram.tile_shape == (128, 128)
            assert np.allclose(gram.to_numpy(), data.T @ data)


class TestArrayStore:
    def test_fresh_names_unique(self, store):
        a = store.create_vector(10)
        b = store.create_vector(10)
        assert a.name != b.name

    def test_io_stats_counts_cold_reads(self, tiny_store, rng):
        data = rng.standard_normal(50_000)
        vec = tiny_store.vector_from_numpy(data)
        tiny_store.pool.clear()
        tiny_store.reset_stats()
        vec.to_numpy()
        expected_blocks = vec.num_chunks
        assert tiny_store.device.stats.reads == expected_blocks

    def test_reset_stats_zeroes_every_counter(self, rng):
        """Device, pool, scheduler and decoded-tile cache reset as one:
        a measured interval must not inherit the ingest's hints or
        cache probes."""
        with RiotSession(storage=StorageConfig(
                memory_bytes=16 * 8192, codec="zstd")) as session:
            store = session.store
            mat = store.matrix_from_numpy(
                np.round(rng.standard_normal((96, 96)), 1))
            store.pool.clear()
            store.tile_cache.clear()
            mat.read_submatrix(0, 96, 0, 96)   # hinted, decoded, cached
            mat.read_submatrix(0, 96, 0, 96)   # cache hits
            assert store.device.stats.reads and store.pool.stats.misses
            assert store.pool.scheduler.stats.hint_batches
            assert store.tile_cache.hits and store.tile_cache.misses
            session.reset_stats()
            assert store.device.stats == IOStats()
            assert store.pool.stats == PoolStats()
            assert store.pool.scheduler.stats == SchedulerStats()
            assert (store.tile_cache.hits, store.tile_cache.misses) == (0, 0)
