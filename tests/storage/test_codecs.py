"""Tile codecs: wire-format round-trips, store integration, zero-copy.

The compression layer's contracts, from the bottom up: every codec
round-trips its own payloads (bitwise for the lossless ones, within
float32 tolerance for the downcast), the tile store charges logical vs
compressed bytes and survives reopen with per-matrix dtype/codec, and
the ``zero_copy`` opt-in hands out read-only mmap views exactly when
its guards hold.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.storage import (ArrayStore, CODECS, DeltaZstdCodec,
                           Float32Codec, IOSTATS_SCHEMA_KEYS, RawCodec,
                           StorageConfig, TileCodec, get_codec,
                           register_codec)

FILE_MODES = ("mmap", "pread")


def _store(codec="raw", dtype="float64", backend="memory", **kw):
    return ArrayStore(storage=StorageConfig(
        backend=backend, memory_bytes=16 * 8192, codec=codec,
        dtype=dtype, **kw))


# ----------------------------------------------------------------------
# Codec wire format
# ----------------------------------------------------------------------
class TestCodecRoundtrip:
    SAMPLES = [
        np.arange(512, dtype=np.float64),
        np.zeros(1024, dtype=np.float64),
        np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324,
                  np.finfo(np.float64).max, np.finfo(np.float64).min]),
        np.random.default_rng(0).standard_normal(777),
    ]

    @pytest.mark.parametrize("name", ["raw", "delta+zstd"])
    def test_lossless_bitwise(self, name):
        codec = get_codec(name)
        assert codec.lossless
        for sample in self.SAMPLES:
            payload = codec.encode_tile(sample)
            back = codec.decode_tile(payload, sample.dtype,
                                     sample.size)
            # view-compare bit patterns: NaN != NaN under ==
            assert np.array_equal(back.view(np.uint64),
                                  sample.view(np.uint64))

    def test_delta_zstd_float32_payloads(self):
        codec = get_codec("delta+zstd")
        sample = np.arange(600, dtype=np.float32) / 3
        back = codec.decode_tile(codec.encode_tile(sample),
                                 sample.dtype, sample.size)
        assert np.array_equal(back.view(np.uint32),
                              sample.view(np.uint32))

    def test_delta_zstd_wire_format_is_pinned(self, monkeypatch):
        """Tag byte, then the compressed little-endian wrapping deltas
        of the scalars' bit patterns, first delta taken against 0.  The
        deltas are spelled out so the format cannot drift unnoticed;
        the deflate bytes are whatever this zlib makes of them at
        level 6."""
        import zlib

        from repro.storage import codecs as codecs_mod
        monkeypatch.setattr(codecs_mod, "_zstd", None)
        tile = np.array([[1.0, 2.0], [-0.0, 0.5]])
        deltas = np.array(
            [0x3FF0000000000000, 0x0010000000000000,
             0x4000000000000000, -0x4020000000000000], dtype="<i8")
        payload = get_codec("delta+zstd").encode_tile(tile)
        assert isinstance(payload, bytes) and payload[0] == 0
        assert zlib.decompress(payload[1:]) == deltas.tobytes()
        assert payload == b"\x00" + zlib.compress(deltas.tobytes(), 6)
        for form in (payload, memoryview(payload),
                     memoryview(np.frombuffer(payload, dtype=np.uint8))):
            back = get_codec("delta+zstd").decode_tile(
                form, tile.dtype, tile.size)
            assert back.tobytes() == tile.tobytes()

    def test_delta_zstd_compresses_smooth_data(self):
        codec = get_codec("delta+zstd")
        smooth = np.arange(4096, dtype=np.float64)
        assert len(codec.encode_tile(smooth)) < smooth.nbytes / 2

    def test_float32_downcast_lossy_tolerance(self):
        codec = get_codec("float32-downcast")
        assert not codec.lossless
        sample = np.random.default_rng(1).standard_normal(500)
        payload = codec.encode_tile(sample)
        assert len(payload) == sample.size * 4
        back = codec.decode_tile(payload, np.dtype(np.float64),
                                 sample.size)
        assert back.dtype == np.float64
        assert np.array_equal(back,
                              sample.astype(np.float32)
                              .astype(np.float64))


class TestRegistry:
    def test_aliases(self):
        assert get_codec("zstd").name == "delta+zstd"
        assert get_codec("delta").name == "delta+zstd"
        assert get_codec("none").name == "raw"
        assert get_codec("float32").name == "float32-downcast"

    def test_instance_passthrough(self):
        codec = RawCodec()
        assert get_codec(codec) is codec

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown tile codec"):
            get_codec("lz77")

    def test_register_custom(self):
        class XorCodec(TileCodec):
            name = "xor-test"
            ratio_estimate = 1.0
            lossless = True

            def encode_tile(self, tile):
                return bytes(b ^ 0xFF
                             for b in np.ascontiguousarray(tile)
                             .tobytes())

            def decode_tile(self, payload, dtype, count):
                return np.frombuffer(
                    bytes(b ^ 0xFF for b in payload),
                    dtype=dtype, count=count)

        try:
            register_codec(XorCodec(), "xor")
            assert get_codec("xor").name == "xor-test"
            data = np.arange(64, dtype=np.float64).reshape(8, 8)
            with _store(codec="xor-test") as store:
                mat = store.matrix_from_numpy(data)
                assert np.array_equal(mat.to_numpy(), data)
        finally:
            from repro.storage import codecs as codecs_mod
            CODECS.pop("xor-test", None)
            codecs_mod._ALIASES.pop("xor-test", None)
            codecs_mod._ALIASES.pop("xor", None)

    def test_builtin_classes_exported(self):
        assert isinstance(get_codec("raw"), RawCodec)
        assert isinstance(get_codec("delta+zstd"), DeltaZstdCodec)
        assert isinstance(get_codec("float32-downcast"), Float32Codec)


# ----------------------------------------------------------------------
# Store integration: accounting, fallback, read-modify-write
# ----------------------------------------------------------------------
class TestCompressedStore:
    def test_roundtrip_and_byte_accounting(self):
        # 64 x 64 tiles span 4 pages each, so the codec has multi-page
        # frames to shrink (a single-page tile can't read fewer pages).
        data = np.arange(128 * 128, dtype=np.float64).reshape(128, 128)
        with _store(codec="delta+zstd") as store:
            mat = store.create_matrix(data.shape,
                                      tile_shape=(64, 64)) \
                .from_numpy(data)
            store.pool.clear()
            store.tile_cache.clear()
            store.reset_stats()
            assert np.array_equal(mat.to_numpy(), data)
            stats = store.device.stats
            assert stats.bytes_logical > 0
            assert 0 < stats.bytes_compressed < stats.bytes_logical
            assert 0 < stats.compression_ratio < 1
            assert stats.reads < stats.bytes_logical // 8192

    def test_raw_codec_charges_equal_bytes(self):
        data = np.random.default_rng(2).standard_normal((64, 64))
        with _store(codec="raw") as store:
            mat = store.matrix_from_numpy(data)
            assert np.array_equal(mat.to_numpy(), data)
            assert store.device.stats.compression_ratio == 1.0

    def test_incompressible_tile_falls_back_to_raw(self):
        # Random mantissas do not compress: the tile directory records
        # the raw-fallback sentinel and the data still round-trips.
        rng = np.random.default_rng(3)
        arr = rng.standard_normal((64, 64))
        with _store(codec="delta+zstd") as store:
            mat = store.matrix_from_numpy(arr)
            assert np.array_equal(mat.to_numpy(), arr)

    def test_read_modify_write_on_compressed(self):
        data = np.arange(100 * 100, dtype=np.float64).reshape(100, 100)
        with _store(codec="delta+zstd") as store:
            mat = store.matrix_from_numpy(data)
            patch = -np.ones((7, 9))
            mat.write_submatrix(13, 21, patch)
            expect = data.copy()
            expect[13:20, 21:30] = patch
            assert np.array_equal(mat.to_numpy(), expect)

    def test_unwritten_tiles_read_as_zeros_without_io(self):
        with _store(codec="delta+zstd") as store:
            mat = store.create_matrix((96, 96))
            store.reset_stats()
            assert np.array_equal(mat.to_numpy(), np.zeros((96, 96)))
            assert store.device.stats.reads == 0

    def test_float32_store_packs_twice_the_scalars(self):
        with _store(dtype="float32") as f32, _store() as f64:
            a32 = f32.create_matrix((200, 200), layout="square")
            a64 = f64.create_matrix((200, 200), layout="square")
            # Square tiles round sqrt(scalars) down, so compare the
            # budget they were cut from, not the exact tile area.
            assert (a32.tile_shape[0] * a32.tile_shape[1]
                    > a64.tile_shape[0] * a64.tile_shape[1])
            assert f32.matrix_scalars_per_block \
                == 2 * f64.matrix_scalars_per_block

    def test_float32_roundtrip_exact_for_representable(self):
        data = np.arange(80 * 80, dtype=np.float64).reshape(80, 80)
        with _store(dtype="float32") as store:
            mat = store.matrix_from_numpy(data)
            assert mat.dtype == np.float32
            out = mat.to_numpy()
            assert out.dtype == np.float32
            assert np.array_equal(out.astype(np.float64), data)

    def test_io_ratio_estimate_sources(self):
        with _store(codec="delta+zstd") as store:
            # No traffic yet: the codec's static estimate.
            assert store.io_ratio_estimate() \
                == get_codec("delta+zstd").ratio_estimate
            data = np.arange(120 * 120, dtype=np.float64) \
                .reshape(120, 120)
            mat = store.matrix_from_numpy(data)
            store.pool.clear()
            store.tile_cache.clear()
            store.reset_stats()
            mat.to_numpy()
            # Measured traffic exists: the estimate tracks it.
            measured = store.device.stats.compression_ratio
            assert store.io_ratio_estimate() == pytest.approx(
                min(1.0, measured))

    def test_tile_cache_counts_hits(self):
        data = np.arange(64 * 64, dtype=np.float64).reshape(64, 64)
        with _store(codec="delta+zstd") as store:
            mat = store.matrix_from_numpy(data)
            store.tile_cache.clear()
            mat.to_numpy()
            misses = store.tile_cache.misses
            assert misses > 0
            mat.to_numpy()
            assert store.tile_cache.hits >= misses
            assert store.tile_cache.misses == misses

    def test_schema_v3_keys(self):
        assert "compression_ratio" in IOSTATS_SCHEMA_KEYS
        with _store() as store:
            d = store.device.stats.as_dict()
            assert d["schema_version"] == 3
            assert d["compression_ratio"] == 1.0


# ----------------------------------------------------------------------
# Persistence: codec + dtype survive reopen
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", FILE_MODES)
class TestCompressedPersistence:
    def test_compressed_matrix_survives_reopen(self, tmp_path, mode):
        path = tmp_path / "riot.db"
        cfg = StorageConfig(backend=mode, path=path,
                            memory_bytes=16 * 8192,
                            codec="delta+zstd")
        data = np.arange(130 * 70, dtype=np.float64).reshape(130, 70)
        with ArrayStore(storage=cfg) as store:
            store.matrix_from_numpy(data, name="C")
        with ArrayStore(storage=cfg) as store:
            mat = store.open_matrix("C")
            assert mat.codec.name == "delta+zstd"
            assert np.array_equal(mat.to_numpy(), data)

    def test_per_matrix_codec_and_dtype_survive(self, tmp_path, mode):
        path = tmp_path / "riot.db"
        cfg = StorageConfig(backend=mode, path=path,
                            memory_bytes=16 * 8192)
        data = np.arange(90 * 90, dtype=np.float64).reshape(90, 90)
        with ArrayStore(storage=cfg) as store:
            store.matrix_from_numpy(data, name="Z",
                                    codec="delta+zstd")
            store.matrix_from_numpy(data, name="F",
                                    dtype="float32")
            store.matrix_from_numpy(data, name="R")
        with ArrayStore(storage=cfg) as store:
            z = store.open_matrix("Z")
            f = store.open_matrix("F")
            r = store.open_matrix("R")
            assert z.codec.name == "delta+zstd"
            assert f.dtype == np.float32
            assert r.codec.name == "raw" and r.dtype == np.float64
            assert np.array_equal(z.to_numpy(), data)
            assert np.array_equal(
                f.to_numpy().astype(np.float64), data)
            assert np.array_equal(r.to_numpy(), data)

    def test_reopened_compressed_matrix_is_writable(self, tmp_path,
                                                    mode):
        path = tmp_path / "riot.db"
        cfg = StorageConfig(backend=mode, path=path,
                            memory_bytes=16 * 8192,
                            codec="delta+zstd")
        data = np.arange(64 * 64, dtype=np.float64).reshape(64, 64)
        with ArrayStore(storage=cfg) as store:
            store.matrix_from_numpy(data, name="W")
        with ArrayStore(storage=cfg) as store:
            mat = store.open_matrix("W")
            mat.write_submatrix(0, 0, np.full((3, 3), -1.0))
        with ArrayStore(storage=cfg) as store:
            expect = data.copy()
            expect[:3, :3] = -1.0
            assert np.array_equal(
                store.open_matrix("W").to_numpy(), expect)


# ----------------------------------------------------------------------
# Zero-copy views
# ----------------------------------------------------------------------
class TestZeroCopy:
    def _zc_store(self, tmp_path, **kw):
        return ArrayStore(storage=StorageConfig(
            backend="mmap", path=tmp_path / "zc.db",
            memory_bytes=16 * 8192, zero_copy=True, **kw))

    def test_view_is_read_only_and_non_owning(self, tmp_path):
        data = np.arange(64 * 64, dtype=np.float64).reshape(64, 64)
        with self._zc_store(tmp_path) as store:
            if store.storage.sanitize:
                pytest.skip("zero-copy views are disabled under the "
                            "storage sanitizers (documented trade)")
            mat = store.matrix_from_numpy(data)
            store.flush()
            th, tw = mat.tile_shape
            view = mat.read_submatrix_view(0, min(th, 64),
                                           0, min(tw, 64))
            assert not view.flags.writeable
            assert not view.flags.owndata
            assert np.array_equal(
                view, data[:min(th, 64), :min(tw, 64)])

    def test_dirty_frames_fall_back_to_copy(self, tmp_path):
        data = np.arange(64 * 64, dtype=np.float64).reshape(64, 64)
        with self._zc_store(tmp_path) as store:
            mat = store.matrix_from_numpy(data)
            # No flush: the tile's frames are dirty in the pool, so
            # the mmap pages are stale and the guard must refuse.
            th, tw = mat.tile_shape
            r1, c1 = min(th, 64), min(tw, 64)
            view = mat.read_submatrix_view(0, r1, 0, c1)
            assert view.flags.writeable  # fresh copy, not the mapping
            assert np.array_equal(view, data[:r1, :c1])

    def test_compressed_matrix_falls_back(self, tmp_path):
        data = np.arange(64 * 64, dtype=np.float64).reshape(64, 64)
        with self._zc_store(tmp_path, codec="delta+zstd") as store:
            mat = store.matrix_from_numpy(data)
            store.flush()
            th, tw = mat.tile_shape
            r1, c1 = min(th, 64), min(tw, 64)
            view = mat.read_submatrix_view(0, r1, 0, c1)
            assert view.flags.writeable
            assert np.array_equal(view, data[:r1, :c1])

    def test_unaligned_rectangle_falls_back(self, tmp_path):
        data = np.arange(64 * 64, dtype=np.float64).reshape(64, 64)
        with self._zc_store(tmp_path) as store:
            mat = store.matrix_from_numpy(data)
            store.flush()
            view = mat.read_submatrix_view(1, 9, 1, 9)
            assert view.flags.writeable
            assert np.array_equal(view, data[1:9, 1:9])

    def test_opt_out_by_default(self, tmp_path):
        data = np.arange(64 * 64, dtype=np.float64).reshape(64, 64)
        cfg = StorageConfig(backend="mmap", path=tmp_path / "off.db",
                            memory_bytes=16 * 8192)
        with ArrayStore(storage=cfg) as store:
            mat = store.matrix_from_numpy(data)
            store.flush()
            th, tw = mat.tile_shape
            view = mat.read_submatrix_view(0, min(th, 64),
                                           0, min(tw, 64))
            assert view.flags.writeable


# ----------------------------------------------------------------------
# StorageConfig plumbing
# ----------------------------------------------------------------------
class TestConfigPlumbing:
    def test_url_params(self, tmp_path):
        cfg = StorageConfig.from_url(
            f"file://{tmp_path}/u.db?codec=zstd&dtype=float32"
            f"&zero_copy=1")
        assert cfg.codec == "delta+zstd"  # canonicalized
        assert cfg.dtype == "float32" and cfg.itemsize == 4
        assert cfg.zero_copy is True

    def test_bad_codec_and_dtype_rejected(self):
        with pytest.raises(ValueError, match="unknown tile codec"):
            StorageConfig(codec="nope")
        with pytest.raises(ValueError, match="dtype"):
            StorageConfig(dtype="float16")

    def test_itemsize_default(self):
        assert StorageConfig().itemsize == 8
