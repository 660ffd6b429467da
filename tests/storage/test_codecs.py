"""Tile codecs: wire-format round-trips, store integration, zero-copy.

The compression layer's contracts, from the bottom up: every codec
round-trips its own payloads (bitwise for the lossless ones, within
float32 tolerance for the downcast), the tile store charges logical vs
compressed bytes and survives reopen with per-matrix dtype/codec, and
the ``zero_copy`` opt-in hands out read-only mmap views exactly when
its guards hold.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import RiotSession
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
        """Tag byte, then the compressed byte planes of the scalars'
        little-endian bit patterns, no delta taken.  Plane ``k`` is
        byte ``k`` of every scalar in element order; planes go least
        significant first.  Tag bits: 1 = zstandard (clear: zlib),
        2 = byte planes (clear: the interleaved wrapping deltas older
        versions wrote).  The body is spelled out so the format cannot
        drift unnoticed; the deflate bytes are whatever this zlib makes
        of it at level 1 with one deflate block per plane (a sync
        flush after each), which any inflate reads as one stream."""
        from repro.storage import codecs as codecs_mod
        monkeypatch.setattr(codecs_mod, "_zstd", None)
        codec = get_codec("delta+zstd")
        # Bit patterns 3FF0.., 4000.., 8000.., 3FE0..
        tile = np.array([[1.0, 2.0], [-0.0, 0.5]])
        planes = bytes(6 * 4) + bytes(
            [0xF0, 0x00, 0x00, 0xE0,      # plane 6
             0x3F, 0x40, 0x80, 0x3F])     # plane 7
        payload = codec.encode_tile(tile)
        assert isinstance(payload, bytes) and payload[0] == 2
        assert zlib.decompress(payload[1:]) == planes
        deflate = zlib.compressobj(1)
        assert payload == b"\x02" + b"".join(
            deflate.compress(planes[k:k + 4])
            + deflate.flush(zlib.Z_SYNC_FLUSH)
            for k in range(0, len(planes), 4)) + deflate.flush()
        for form in (payload, memoryview(payload), memoryview(
                np.frombuffer(payload, dtype=np.uint8))):
            back = codec.decode_tile(form, tile.dtype, tile.size)
            assert back.tobytes() == tile.tobytes()
        # float32: four planes, same rule (3FC0 8000 7F80 0000).
        tile32 = np.array([1.5, -0.0, np.inf, 1e-45], dtype=np.float32)
        payload = codec.encode_tile(tile32)
        assert payload[0] == 2
        assert zlib.decompress(payload[1:]) == bytes(
            [0x00, 0x00, 0x00, 0x01,
             0x00, 0x00, 0x00, 0x00,
             0xC0, 0x00, 0x80, 0x00,
             0x3F, 0x80, 0x7F, 0x00])

    #: What the interleaved-delta encoder of earlier versions wrote
    #: (tag 0: zlib level 6 over little-endian wrapping deltas) for the
    #: scalars whose bytes follow — including a NaN with payload bits,
    #: -0.0 and the smallest subnormals.
    LEGACY_PAYLOADS = [
        ("float64",
         "00789c636000810ff6608a4180010a1c20d483fdeff7adbdc7c020e120e4"
         "18a4f8ff3f7b030094e309fa",
         "000000000000f03f00000000000000400000000000000080000000000000"
         "e03fefbeadde0000f87f0100000000000000"),
        ("float32",
         "00789c63603860cfc0e0e0c0c0d0f09f91a1a101001c020400",
         "0000c03f000000800000807f01000000"),
    ]

    @pytest.mark.parametrize("dtype,payload,scalars", LEGACY_PAYLOADS)
    def test_payloads_written_before_byte_planes_still_decode(
            self, dtype, payload, scalars):
        payload, scalars = bytes.fromhex(payload), bytes.fromhex(scalars)
        dt = np.dtype(dtype)
        back = get_codec("delta+zstd").decode_tile(
            payload, dt, len(scalars) // dt.itemsize)
        assert back.dtype == dt and back.tobytes() == scalars

    def test_unknown_tag_rejected(self):
        payload = bytearray(get_codec("delta+zstd").encode_tile(
            np.arange(8.0)))
        for tag in (4, 8, 255):
            payload[0] = tag
            with pytest.raises(ValueError, match="unknown delta\\+zstd"):
                get_codec("delta+zstd").decode_tile(
                    bytes(payload), np.dtype(np.float64), 8)

    def test_zstandard_backend(self):
        """With ``zstandard`` importable the codec writes tag 3 (same
        planes, zstd frame) and still reads every zlib tag."""
        zstd = pytest.importorskip("zstandard")
        codec = get_codec("delta+zstd")
        tile = np.array([[1.0, 2.0], [-0.0, 0.5]])
        payload = codec.encode_tile(tile)
        assert payload[0] == 3
        planes = zstd.ZstdDecompressor().decompress(payload[1:])
        assert codec.decode_tile(payload, tile.dtype, tile.size) \
            .tobytes() == tile.tobytes()
        # The same planes under the zlib tag, and the interleaved
        # deltas of earlier versions under tag 1.
        twin = b"\x02" + zlib.compress(planes, 1)
        assert codec.decode_tile(twin, tile.dtype, tile.size) \
            .tobytes() == tile.tobytes()
        deltas = np.diff(tile.reshape(-1).view("<i8"), prepend=0)
        legacy = b"\x01" + zstd.ZstdCompressor(level=3).compress(
            deltas.tobytes())
        assert codec.decode_tile(legacy, tile.dtype, tile.size) \
            .tobytes() == tile.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(),
           dtype=st.sampled_from(["float64", "float32"]),
           shape=hnp.array_shapes(min_dims=1, max_dims=3, max_side=12))
    def test_delta_zstd_roundtrip_property(self, data, dtype, shape):
        """Any bit patterns, any tile shape, every payload form the
        tile store hands over: bytes, a memoryview of them, and a
        view of a zero-padded pool frame cut to the payload length."""
        dt = np.dtype(dtype)
        uint = np.dtype(f"<u{dt.itemsize}")
        special = [np.array(v, dtype=dt).view(uint).item() for v in (
            0.0, -0.0, np.inf, -np.inf, np.nan, np.finfo(dt).tiny,
            np.finfo(dt).smallest_subnormal,
            -np.finfo(dt).smallest_subnormal, np.finfo(dt).max)]
        nan_payload = np.array(np.nan, dtype=dt).view(uint).item() | 0xBEEF
        bits = st.one_of(st.integers(0, np.iinfo(uint).max),
                         st.sampled_from(special + [nan_payload]))
        if data.draw(st.booleans(), label="smooth"):
            # Neighbours that share their top bits: long plane runs.
            start = data.draw(st.integers(0, np.iinfo(uint).max >> 1))
            steps = data.draw(hnp.arrays(uint, shape,
                                         elements=st.integers(0, 255)))
            tile = (start + np.cumsum(steps.reshape(-1), dtype=uint)) \
                .reshape(shape).view(dt)
        else:
            tile = data.draw(hnp.arrays(uint, shape, elements=bits)) \
                .view(dt)
        codec = get_codec("delta+zstd")
        payload = codec.encode_tile(tile)
        assert payload[0] in (2, 3)
        frame = np.zeros(-(-len(payload) // 512) * 512, dtype=np.uint8)
        frame[: len(payload)] = np.frombuffer(payload, dtype=np.uint8)
        for form in (payload, memoryview(payload),
                     memoryview(frame)[: len(payload)]):
            back = codec.decode_tile(form, dt, tile.size)
            assert back.dtype == dt
            assert back.tobytes() == tile.tobytes()

    def test_delta_zstd_compresses_smooth_data(self):
        codec = get_codec("delta+zstd")
        smooth = np.arange(4096, dtype=np.float64)
        assert len(codec.encode_tile(smooth)) < smooth.nbytes / 2

    @pytest.mark.parametrize("seed", range(6))
    def test_cross_product_tiles_stay_clear_of_a_page_mark(
            self, seed, monkeypatch):
        """Payloads land on whole pages, so a block count is a step
        function of payload length and a tile that deflates to just
        about k pages makes counts depend on the data.  The macro
        ``ols_zstd`` workload's tiles — integers in [-8, 8] and their
        cross product over 4096 rows — must sit well inside a step
        (one Huffman table for the whole tile put the cross product
        at 3.95-4.004 pages; a table per plane, 3.74-3.80)."""
        from repro.storage import codecs as codecs_mod
        monkeypatch.setattr(codecs_mod, "_zstd", None)
        codec = get_codec("delta+zstd")
        x = np.random.default_rng(seed).integers(
            -8, 9, size=(4096, 256)).astype(np.float64)
        gram = x.T @ x
        for tile, lo, hi in ((x[:128, :128], 1.5, 1.85),
                             (gram[:128, :128], 3.5, 3.9),
                             (gram[:128, 128:], 3.5, 3.9)):
            pages = len(codec.encode_tile(tile)) / 8192
            assert lo < pages < hi

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
            # Nothing stored yet: the codec's static estimate.
            assert store.io_ratio_estimate() \
                == get_codec("delta+zstd").ratio_estimate
            data = np.arange(128 * 128, dtype=np.float64) \
                .reshape(128, 128)
            # One-page tiles: however small the payload, a read moves
            # the page.
            store.matrix_from_numpy(data, name="one_page")
            assert store.io_ratio_estimate() == 1.0
            # Four-page tiles whose payloads fit one page each.
            big = store.create_matrix(data.shape, tile_shape=(64, 64)) \
                .from_numpy(data)
            assert set(big.tile_dir.values()) <= set(range(1, 8193))
            assert big.stored_pages() == (4, 16)
            assert store.io_ratio_estimate() == (16 + 4) / (16 + 16)
            # A tile that took the raw fallback counts its whole span,
            # and what is dropped no longer counts.
            rng = np.random.default_rng(5)
            big.write_tile(0, 0, rng.integers(
                0, 1 << 64, (64, 64), dtype=np.uint64).view(np.float64))
            assert big.stored_pages() == (7, 16)
            big.drop()
            assert store.io_ratio_estimate() == 1.0

    def test_planner_prices_what_is_stored(self):
        """The ratio is read when a plan is made, after ingest — not
        frozen at the static estimate when the session was built."""
        data = np.arange(256 * 256, dtype=np.float64).reshape(256, 256)
        with RiotSession(storage=StorageConfig(
                memory_bytes=256 * 8192, codec="zstd")) as s:
            x = s.matrix(data)
            stored = s.store.io_ratio_estimate()
            assert stored == 1 / 16    # 128-side tiles, one page each
            op = s.plan(x.crossprod()).root
            assert op.cost_inputs["ratio"] == stored
            raw = RiotSession(storage=StorageConfig(
                memory_bytes=256 * 8192))
            with raw:
                unscaled = raw.plan(raw.matrix(data).crossprod()).root
            assert op.predicted_io == pytest.approx(
                stored * unscaled.predicted_io)

    def test_random_bits_fall_back_to_raw_and_cost_their_span(self):
        """A multi-page tile the codec cannot shrink is stored raw
        (``tile_dir`` 0) and reads exactly its span, never more."""
        rng = np.random.default_rng(4)
        data = rng.integers(0, 1 << 64, (64, 64), dtype=np.uint64) \
            .view(np.float64)
        with _store(codec="delta+zstd") as store:
            mat = store.create_matrix(data.shape, tile_shape=(64, 64)) \
                .from_numpy(data)
            assert mat.tile_dir == {0: 0} and mat.pages_per_tile == 4
            assert mat.tile_blocks(0, 0) == mat._blocks[0, 0].tolist()
            store.pool.clear()
            store.tile_cache.clear()
            store.reset_stats()
            assert mat.to_numpy().tobytes() == data.tobytes()
            assert store.device.stats.reads == 4

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
# Multi-page compressed tiles on a real file: device calls per tile
# ----------------------------------------------------------------------
class TestCompressedTileCalls:
    """A payload sits in the first pages of its tile's span and the
    rest of the span is a gap, so a compressed tile is read in one
    device call and coalescing stops at every tile boundary: calls
    scale with tiles, not with bytes.  That is why the default tile
    side is chosen from ``io_calls`` as well as from bytes (a 64-side
    default moves a quarter of the bytes of a 32-side one in *more*
    calls)."""

    def _ingest(self, codec):
        store = ArrayStore(storage=StorageConfig(
            backend="pread", memory_bytes=256 * 8192, codec=codec))
        rng = np.random.default_rng(6)
        data = rng.integers(-8, 9, (256, 512)).astype(np.float64)
        mat = store.matrix_from_numpy(data)
        assert mat.tile_shape == (128, 128) and mat.pages_per_tile == 16
        store.flush()
        store.pool.clear()
        store.tile_cache.clear()
        store.reset_stats()
        return store, mat, data

    def test_one_call_per_compressed_tile(self):
        store, mat, data = self._ingest("delta+zstd")
        with store:
            pages = [len(mat.tile_blocks(0, tj)) for tj in range(4)]
            assert all(1 <= n < 16 for n in pages)
            blocks = mat.tile_blocks(0, 0)
            assert blocks == list(range(blocks[0], blocks[0] + pages[0]))
            assert np.array_equal(mat.read_tile(0, 0), data[:128, :128])
            stats = store.device.stats
            assert (stats.read_calls, stats.reads) == (1, pages[0])
            # A row of four tiles: four payloads, four gaps, four calls.
            store.pool.clear()
            store.tile_cache.clear()
            store.reset_stats()
            assert np.array_equal(mat.read_submatrix(0, 128, 0, 512),
                                  data[:128])
            stats = store.device.stats
            assert (stats.read_calls, stats.reads) == (4, sum(pages))

    def test_raw_tiles_of_the_same_rectangle_share_one_call(self):
        store, mat, data = self._ingest("raw")
        with store:
            assert np.array_equal(mat.read_submatrix(0, 128, 0, 512),
                                  data[:128])
            stats = store.device.stats
            assert (stats.read_calls, stats.reads) == (1, 4 * 16)


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
