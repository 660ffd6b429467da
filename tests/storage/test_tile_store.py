"""Tests for the tiled array store (vectors, matrices, gather/scatter)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RiotSession
from repro.storage import (ArrayStore, IOStats, PoolStats, SchedulerStats,
                           StorageConfig, tile_shape_for_layout)


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
