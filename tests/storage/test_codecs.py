"""Tile codecs: wire-format round-trips, store integration, config.

The compression layer's contracts, from the bottom up: every codec
round-trips its own payloads (bitwise for the lossless ones, within
float32 tolerance for the downcast), the tile store charges logical vs
compressed bytes and survives reopen with per-matrix dtype/codec, and
the storage config carries the codec and dtype through URLs.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import threading
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import OptimizerConfig, RiotSession
from repro.core.plan import LUSolveOp
from repro.storage import (ArrayStore, CODECS, DeltaZstdCodec,
                           Float32Codec, IOSTATS_SCHEMA_KEYS, RawCodec,
                           StorageConfig, TileCodec, TiledMatrix,
                           get_codec, register_codec)
from repro.storage.tile_store import PENDING, STORED_RAW

FILE_MODES = ("mmap", "pread")


def _store(codec="raw", dtype="float64", backend="memory", **kw):
    return ArrayStore(storage=StorageConfig(
        backend=backend, memory_bytes=16 * 8192, codec=codec,
        dtype=dtype, **kw))


def _ratio(session, handle) -> float:
    """The stored-page ratio ``handle``'s operator is priced at."""
    return session.plan(handle).root.cost_inputs.get("ratio", 1.0)


def _one_stream_payload(tile: np.ndarray) -> bytes:
    """The tag-2 encoder earlier versions shipped: all byte planes in
    one zlib stream at level 1, a sync flush after each plane."""
    flat = np.ascontiguousarray(tile).reshape(-1)
    planes = np.ascontiguousarray(
        flat.view(np.uint8).reshape(-1, flat.dtype.itemsize).T)
    deflate = zlib.compressobj(1)
    parts = [b"\x02"]
    for plane in planes:
        parts += (deflate.compress(plane),
                  deflate.flush(zlib.Z_SYNC_FLUSH))
    parts.append(deflate.flush())
    return b"".join(parts)


def _raw_deflate(data: bytes) -> bytes:
    """A raw-deflate (``wbits=-15``) stream at level 1, through the
    API every supported Python has."""
    deflate = zlib.compressobj(1, zlib.DEFLATED, -15)
    return deflate.compress(data) + deflate.flush()


def _lu_factor(a: np.ndarray) -> np.ndarray:
    """Packed L \\ U of ``a`` by partial pivoting: the factor tiles an
    in-place LU writes, full mantissas in every off-diagonal entry."""
    a = a.copy()
    for k in range(len(a) - 1):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        a[[k, p]] = a[[p, k]]
        a[k + 1:, k] /= a[k, k]
        a[k + 1:, k + 1:] -= np.outer(a[k + 1:, k], a[k, k + 1:])
    return a


def _gaussian(shape=(128, 128), seed=7) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(shape)


def _padded(rows=128, cols=128) -> np.ndarray:
    """A 128 x 128 edge tile: ``rows`` x ``cols`` of data, zeros to
    the tile's edge."""
    tile = np.zeros((128, 128))
    tile[:rows, :cols] = _gaussian((rows, cols))
    return tile


def _specials() -> np.ndarray:
    nan_payload = (np.array(np.nan).view(np.uint64) | 0xBEEF) \
        .view(np.float64)
    values = np.array([np.nan, nan_payload, -0.0, 0.0, 5e-324, -5e-324,
                       np.finfo(np.float64).tiny, np.inf, -np.inf])
    return np.random.default_rng(8).choice(values, (128, 128))


def _ols_tile(gram: bool) -> np.ndarray:
    x = np.random.default_rng(9).integers(
        -8, 9, size=(4096, 128)).astype(np.float64)
    return x.T @ x if gram else x[:128]


#: Tiles whose records must never cost a page more than tag 2 did.
_PAGE_CORPUS = {
    "ols_x": lambda: _ols_tile(gram=False),
    "ols_gram": lambda: _ols_tile(gram=True),
    "gaussian": _gaussian,
    "bottom_edge_20_rows": lambda: _padded(rows=20),
    "right_edge_20_cols": lambda: _padded(cols=20),
    "repeated_rows": lambda: np.repeat(_gaussian((1, 128)), 128, axis=0),
    "ramp": lambda: np.arange(128 * 128, dtype=np.float64)
    .reshape(128, 128),
    "zeros": lambda: np.zeros((128, 128)),
    "specials": _specials,
    "float32": lambda: _gaussian((180, 180)).astype(np.float32),
}


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
        """Tag byte 6, a u32 LE scalar count, then one record per byte
        plane of the scalars' little-endian bit patterns, no delta
        taken.  Plane ``k`` is byte ``k`` of every scalar in element
        order; planes go least significant first.  A record is mode 0
        and the plane verbatim, or mode 1, a u32 LE length and the
        plane's own raw-deflate stream.  Tag bits: 1 = zstandard
        (clear: zlib), 2 = byte planes (clear: the interleaved
        wrapping deltas older versions wrote), 4 = records (clear: one
        stream for the whole body).  Four bytes never deflate smaller,
        so the samples store every plane and are spelled out byte by
        byte; the deflate bytes of a mode-1 record are whatever this
        zlib makes of the plane at level 1."""
        from repro.storage import codecs as codecs_mod
        monkeypatch.setattr(codecs_mod, "_zstd", None)
        codec = get_codec("delta+zstd")
        # Bit patterns 3FF0.., 4000.., 8000.., 3FE0..
        tile = np.array([[1.0, 2.0], [-0.0, 0.5]])
        payload = codec.encode_tile(tile)
        assert isinstance(payload, bytes)
        assert payload == bytes(
            [0x06, 0x04, 0x00, 0x00, 0x00,      # tag 6, 4 scalars
             0x00, 0x00, 0x00, 0x00, 0x00,      # plane 0, stored
             0x00, 0x00, 0x00, 0x00, 0x00,      # plane 1
             0x00, 0x00, 0x00, 0x00, 0x00,      # plane 2
             0x00, 0x00, 0x00, 0x00, 0x00,      # plane 3
             0x00, 0x00, 0x00, 0x00, 0x00,      # plane 4
             0x00, 0x00, 0x00, 0x00, 0x00,      # plane 5
             0x00, 0xF0, 0x00, 0x00, 0xE0,      # plane 6
             0x00, 0x3F, 0x40, 0x80, 0x3F])     # plane 7
        for form in (payload, memoryview(payload), memoryview(
                np.frombuffer(payload, dtype=np.uint8))):
            back = codec.decode_tile(form, tile.dtype, tile.size)
            assert back.tobytes() == tile.tobytes()
        # float32: four planes, same rule (3FC0 8000 7F80 0000).
        tile32 = np.array([1.5, -0.0, np.inf, 1e-45], dtype=np.float32)
        assert codec.encode_tile(tile32) == bytes(
            [0x06, 0x04, 0x00, 0x00, 0x00,
             0x00, 0x00, 0x00, 0x00, 0x01,
             0x00, 0x00, 0x00, 0x00, 0x00,
             0x00, 0xC0, 0x00, 0x80, 0x00,
             0x00, 0x3F, 0x80, 0x7F, 0x00])
        # Both modes in one tile: 4096 scalars in [1, 2) whose low
        # plane is noise (stored), planes 1-5 zero and planes 6-7
        # constant (each deflated on its own).
        planes = np.zeros((8, 4096), dtype=np.uint8)
        planes[0] = np.random.default_rng(0).integers(0, 256, 4096)
        planes[6], planes[7] = 0xF0, 0x3F
        tile = np.ascontiguousarray(planes.T).view(np.float64) \
            .reshape(64, 64)
        records = [b"\x00" + planes[0].tobytes()]
        for plane in planes[1:]:
            stream = _raw_deflate(plane.tobytes())
            records.append(b"\x01" + len(stream).to_bytes(4, "little")
                           + stream)
        payload = codec.encode_tile(tile)
        assert payload == b"\x06" + (4096).to_bytes(4, "little") \
            + b"".join(records)
        assert codec.decode_tile(payload, tile.dtype, tile.size) \
            .tobytes() == tile.tobytes()

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

    #: What the single-stream plane encoder of earlier versions wrote
    #: (tag 2: one zlib stream at level 1, a sync flush after each
    #: byte plane) for the same scalars as ``LEGACY_PAYLOADS``.
    STREAM_PAYLOADS = [
        ("float64",
         "0278016260606078cf08000000ffff02120cfb1800000000ffff0281b50c"
         "00000000ffff02817b0c00000000ffff820000000000ffff820000000000"
         "fffffac0c0f0e00703000000ffffb27768b0af6700000000ffff03009324"
         "07bf",
         LEGACY_PAYLOADS[0][2]),
        ("float32",
         "0278016260606004000000ffff62000200000000ffff3ac0d0c000000000"
         "ffffb26fa86700000000ffff03000c970280",
         LEGACY_PAYLOADS[1][2]),
    ]

    @pytest.mark.parametrize("dtype,payload,scalars", STREAM_PAYLOADS,
                             ids=["float64", "float32"])
    def test_payloads_written_as_one_plane_stream_still_decode(
            self, dtype, payload, scalars):
        """Page files written before planes became records hold tag 2;
        they read back bit for bit."""
        payload, scalars = bytes.fromhex(payload), bytes.fromhex(scalars)
        assert payload[0] == 2
        dt = np.dtype(dtype)
        back = get_codec("delta+zstd").decode_tile(
            payload, dt, len(scalars) // dt.itemsize)
        assert back.dtype == dt and back.tobytes() == scalars

    def test_unknown_tag_rejected(self):
        payload = bytearray(get_codec("delta+zstd").encode_tile(
            np.arange(8.0)))
        for tag in (4, 5, 7, 8, 255):
            payload[0] = tag
            with pytest.raises(ValueError, match="unknown delta\\+zstd"):
                get_codec("delta+zstd").decode_tile(
                    bytes(payload), np.dtype(np.float64), 8)

    def test_zstandard_backend(self, monkeypatch):
        """With ``zstandard`` importable the codec writes tag 3 (same
        planes, zstd frame) and still reads every zlib tag."""
        zstd = pytest.importorskip("zstandard")
        from repro.storage import codecs as codecs_mod
        codec = get_codec("delta+zstd")
        tile = np.array([[1.0, 2.0], [-0.0, 0.5]])
        payload = codec.encode_tile(tile)
        assert payload[0] == 3
        planes = zstd.ZstdDecompressor().decompress(payload[1:])
        assert codec.decode_tile(payload, tile.dtype, tile.size) \
            .tobytes() == tile.tobytes()
        # The same planes as one zlib stream (tag 2) and as records
        # (tag 6, what the zlib backend writes), and the interleaved
        # deltas of earlier versions under tag 1.
        twin = b"\x02" + zlib.compress(planes, 1)
        assert codec.decode_tile(twin, tile.dtype, tile.size) \
            .tobytes() == tile.tobytes()
        ramp = np.arange(4096.0).reshape(64, 64)
        with monkeypatch.context() as patch:
            patch.setattr(codecs_mod, "_zstd", None)
            records = codec.encode_tile(ramp)
        assert records[0] == 6 and codecs_mod._zstd is zstd
        assert codec.decode_tile(records, ramp.dtype, ramp.size) \
            .tobytes() == ramp.tobytes()
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
        view of a zero-padded pool frame cut to the payload length.
        The zlib backend writes tag 6, zstandard tag 3."""
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
        from repro.storage import codecs as codecs_mod
        codec = get_codec("delta+zstd")
        payload = codec.encode_tile(tile)
        assert payload[0] == (6 if codecs_mod._zstd is None else 3)
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
        ``ols_zstd`` workload's tiles — integers in [-8, 8], their
        cross product over 4096 rows and its LU factor, whose low
        mantissa planes are noise — must sit well inside a step (one
        Huffman table for the whole tile put the cross product at
        3.95-4.004 pages; a table per plane, 3.74-3.80)."""
        from repro.storage import codecs as codecs_mod
        monkeypatch.setattr(codecs_mod, "_zstd", None)
        codec = get_codec("delta+zstd")
        x = np.random.default_rng(seed).integers(
            -8, 9, size=(4096, 256)).astype(np.float64)
        gram = x.T @ x
        factor = _lu_factor(gram)
        for tile, lo, hi in ((x[:128, :128], 1.5, 1.85),
                             (gram[:128, :128], 3.5, 3.9),
                             (gram[:128, 128:], 3.5, 3.9),
                             (factor[:128, :128], 14.0, 14.3),
                             (factor[128:, :128], 14.0, 14.3),
                             (factor[128:, 128:], 14.0, 14.3)):
            pages = len(codec.encode_tile(tile)) / 8192
            assert lo < pages < hi

    @pytest.mark.parametrize("name", sorted(_PAGE_CORPUS))
    def test_records_never_need_more_pages_than_tag_2(
            self, name, monkeypatch):
        """Records change how planes are framed, never which bytes
        they hold, so every tile lands on at most the pages the
        single-stream encoder (tag 2, kept here as the reference)
        needed — the block counts of a codec matrix cannot grow."""
        from repro.storage import codecs as codecs_mod
        monkeypatch.setattr(codecs_mod, "_zstd", None)
        codec = get_codec("delta+zstd")
        tile = _PAGE_CORPUS[name]()
        payload = codec.encode_tile(tile)
        assert payload[0] == 6
        assert -(-len(payload) // 8192) \
            <= -(-len(_one_stream_payload(tile)) // 8192)
        assert codec.decode_tile(payload, tile.dtype, tile.size) \
            .tobytes() == tile.tobytes()

    def test_zlib_backend_needs_no_wbits_from_zlib_compress(
            self, monkeypatch):
        """``zlib.compress`` takes ``(data, level)`` only before Python
        3.11; the encoder must run on that signature."""
        from repro.storage import codecs as codecs_mod
        monkeypatch.setattr(codecs_mod, "_zstd", None)
        real = zlib.compress

        def compress(data, level=-1):
            return real(data, level)

        monkeypatch.setattr(zlib, "compress", compress)
        codec = get_codec("delta+zstd")
        for name in ("ols_x", "specials", "float32"):
            tile = _PAGE_CORPUS[name]()
            payload = codec.encode_tile(tile)
            assert codec.decode_tile(payload, tile.dtype, tile.size) \
                .tobytes() == tile.tobytes()

    def test_plane_deflate_cannot_shrink_is_stored(self, monkeypatch):
        """A strided sample can compress where its plane does not: a
        noise plane whose every 8th byte counts 0, 1, 2, ... deflates
        as a sample (the count repeats every 256 bytes) but not whole.
        The plane is then stored, never a stream longer than it."""
        from repro.storage import codecs as codecs_mod
        monkeypatch.setattr(codecs_mod, "_zstd", None)
        planes = np.zeros((8, 16384), dtype=np.uint8)
        planes[0] = np.random.default_rng(3).integers(0, 256, 16384)
        planes[0, ::8] = np.arange(2048) % 256
        assert len(_raw_deflate(planes[0, ::8].tobytes())) < 2048
        assert len(_raw_deflate(planes[0].tobytes())) >= 16384
        tile = np.ascontiguousarray(planes.T).view(np.float64) \
            .reshape(128, 128)
        payload = get_codec("delta+zstd").encode_tile(tile)
        assert payload[5:6 + 16384] == b"\x00" + planes[0].tobytes()
        assert get_codec("delta+zstd").decode_tile(
            payload, tile.dtype, tile.size).tobytes() == tile.tobytes()

    def test_small_tiles_deflate_each_plane_once(self, monkeypatch):
        """Below 4 096 scalars the strided sample is the whole plane,
        so its stream is reused as the record, not deflated again."""
        from repro.storage import codecs as codecs_mod
        monkeypatch.setattr(codecs_mod, "_zstd", None)
        sizes = []
        real = DeltaZstdCodec._deflate

        def deflate(self, data):
            sizes.append(len(data))
            return real(self, data)

        monkeypatch.setattr(DeltaZstdCodec, "_deflate", deflate)
        tile = np.arange(1024, dtype=np.float64).reshape(32, 32)
        payload = get_codec("delta+zstd").encode_tile(tile)
        assert sizes == [1024] * 8
        assert get_codec("delta+zstd").decode_tile(
            payload, tile.dtype, tile.size).tobytes() == tile.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(),
           dtype=st.sampled_from(["float64", "float32"]),
           shape=hnp.array_shapes(min_dims=1, max_dims=2, max_side=40))
    def test_truncated_payloads_fail_loudly(self, data, dtype, shape):
        """Every proper prefix of a records payload raises the codec's
        ``ValueError`` — never a reshape error or a short tile."""
        from repro.storage import codecs as codecs_mod
        dt = np.dtype(dtype)
        uint = np.dtype(f"<u{dt.itemsize}")
        bits = data.draw(hnp.arrays(
            uint, shape, elements=st.integers(0, np.iinfo(uint).max)))
        if data.draw(st.booleans(), label="zero high planes"):
            bits &= 0xFF    # upper planes deflate: mode-1 records
        tile = bits.view(dt)
        with mock.patch.object(codecs_mod, "_zstd", None):
            payload = get_codec("delta+zstd").encode_tile(tile)
        cut = data.draw(st.integers(0, len(payload) - 1), label="cut")
        with pytest.raises(ValueError, match="delta\\+zstd"):
            get_codec("delta+zstd").decode_tile(payload[:cut], dt,
                                                tile.size)

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


def _stored(plane: bytes) -> bytes:
    return b"\x00" + plane


def _deflated(plane: bytes) -> bytes:
    stream = _raw_deflate(plane)
    return b"\x01" + len(stream).to_bytes(4, "little") + stream


def _records(count: int, *records: bytes) -> bytes:
    return b"\x06" + count.to_bytes(4, "little") + b"".join(records)


#: The planes of [1.0, 2.0, -0.0, 0.5] as eight well-formed records.
_GOOD = (_stored(bytes(4)),) * 5 + (_deflated(bytes(4)),
                                     _deflated(b"\xf0\x00\x00\xe0"),
                                     _stored(b"\x3f\x40\x80\x3f"))


class TestMalformedRecords:
    """A tag-6 payload that does not hold ``itemsize`` complete plane
    records of at least ``count`` bytes each is refused with a
    ``ValueError`` naming the codec, before NumPy sees it."""

    def test_well_formed_records_decode(self):
        back = get_codec("delta+zstd").decode_tile(
            _records(4, *_GOOD), np.dtype(np.float64), 4)
        assert back.tolist() == [1.0, 2.0, -0.0, 0.5]

    @pytest.mark.parametrize("payload,count,match", [
        (b"", 4, "empty"),
        (_records(4, *_GOOD)[:3], 4, "inside the scalar count"),
        (_records(4, *_GOOD)[:-1], 4, "stored plane 7 holds 3 bytes"),
        (_records(4, *_GOOD[:7])[:-1], 4, "runs 1 bytes past the end"),
        (_records(4, *_GOOD[:6], _GOOD[6][:3]), 4,
         "inside plane 6's length"),
        (_records(4, *_GOOD[:6], b"\x01\xff\x00\x00\x00\x00",
                  _GOOD[7]), 4, "runs .* past the end"),
        (_records(4, *_GOOD[:7]), 4, "holds 7 plane records, not 8"),
        (_records(4, *_GOOD, _stored(bytes(4))), 4,
         "5 bytes follow its 8 plane records"),
        (_records(4, *_GOOD[:7], _stored(b"\x3f\x40\x80")), 4,
         "stored plane 7 holds 3 bytes, not 4"),
        (_records(4, *_GOOD), 5, "holds 4 scalars, 5 were asked for"),
        (_records(4, *_GOOD[:7], b"\x02" + bytes(4)), 4,
         "record mode 2"),
        (_records(4, *_GOOD[:7], _deflated(bytes(5))), 4,
         "plane 7 inflates to 5 bytes, not 4"),
        (_records(4, *_GOOD[:7], b"\x01\x02\x00\x00\x00\xff\xff"), 4,
         "plane 7: Error"),
    ], ids=["empty", "truncated_count", "truncated_stored",
            "truncated_stream", "truncated_length", "length_past_end",
            "fewer_records", "more_records", "short_stored_plane",
            "count_below_request", "unknown_mode", "wrong_inflated_size",
            "bad_stream"])
    def test_malformed_records_rejected(self, payload, count, match):
        with pytest.raises(ValueError, match="corrupt delta\\+zstd") \
                as err:
            get_codec("delta+zstd").decode_tile(
                payload, np.dtype(np.float64), count)
        assert err.match(match)

    def test_short_one_stream_payloads_rejected(self):
        """Tags 0 and 2 check their inflated length the same way."""
        codec = get_codec("delta+zstd")
        planes = zlib.compress(bytes(8 * 4), 1)
        for tag in (b"\x00", b"\x02"):
            with pytest.raises(ValueError, match="corrupt delta\\+zstd"):
                codec.decode_tile(tag + planes, np.dtype(np.float64), 5)
            with pytest.raises(ValueError, match="corrupt delta\\+zstd"):
                codec.decode_tile(tag + planes[:-3],
                                  np.dtype(np.float64), 4)


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
        """Raw and codec matrices keep one directory: under one write
        sequence — whole tiles, a partly covered tile, tiles never
        written — both report the same tiles written and read the same
        bytes, and neither reads a page for a tile never written,
        whether it is read or partly written, on any backend."""
        data = _integers(6, (96, 96))
        seen = {}
        for codec, backend in [(c, b) for c in ("raw", "delta+zstd")
                               for b in ("memory", "mmap", "pread")]:
            with _store(codec=codec, backend=backend) as store:
                mat = store.create_matrix((96, 96))
                assert mat.grid == (3, 3)
                store.reset_stats()
                assert np.array_equal(mat.to_numpy(), np.zeros((96, 96)))
                assert store.device.stats.reads == 0
                mat.write_tile(0, 0, data[:32, :32])
                mat.write_submatrix(0, 32, data[:64, 32:])
                store.flush()
                store.pool.clear()
                store.reset_stats()
                mat.write_submatrix(70, 5, data[70:80, 5:15])
                assert store.device.stats.reads == 0
                store.flush()
                store.pool.clear()
                store.tile_cache.clear()
                store.reset_stats()
                assert not mat.read_tile(1, 0).any()
                assert not mat.read_submatrix(64, 96, 40, 96).any()
                assert store.device.stats.reads == 0
                seen[codec, backend] = (
                    (mat.tile_dir >= STORED_RAW).tolist(),
                    mat.to_numpy().tobytes())
        expect = np.zeros((96, 96))
        expect[:32, :32] = data[:32, :32]
        expect[:64, 32:] = data[:64, 32:]
        expect[70:80, 5:15] = data[70:80, 5:15]
        written = [[True] * 3, [False, True, True], [True, False, False]]
        assert list(seen.values()) == [(written, expect.tobytes())] * 6

    def test_float32_store_packs_twice_the_scalars(self):
        with _store(dtype="float32") as f32, _store() as f64:
            a32 = f32.create_matrix((200, 200), layout="square")
            a64 = f64.create_matrix((200, 200), layout="square")
            # Square tiles round sqrt(scalars) down, so compare the
            # budget they were cut from, not the exact tile area.
            assert (a32.tile_shape[0] * a32.tile_shape[1]
                    > a64.tile_shape[0] * a64.tile_shape[1])
            assert f32.storage.block_scalars \
                == 2 * f64.storage.block_scalars

    def test_float32_roundtrip_exact_for_representable(self):
        data = np.arange(80 * 80, dtype=np.float64).reshape(80, 80)
        with _store(dtype="float32") as store:
            mat = store.matrix_from_numpy(data)
            assert mat.dtype == np.float32
            out = mat.to_numpy()
            assert out.dtype == np.float32
            assert np.array_equal(out.astype(np.float64), data)

    def test_operand_ratio_sources(self):
        """A map's ``ratio`` is the pages its own operands hold over
        the pages they span; nothing else in the store counts."""
        with RiotSession(storage=StorageConfig(
                memory_bytes=16 * 8192, codec="delta+zstd")) as s:
            data = np.arange(128 * 128, dtype=np.float64) \
                .reshape(128, 128)
            # One-page tiles: however small the payload, a read moves
            # the page.
            one = s.matrix(data, name="one_page")
            assert _ratio(s, one + 1) == 1.0
            # Four-page tiles whose payloads fit one page each.
            big = s.store.create_matrix(data.shape, tile_shape=(64, 64),
                                        name="big").from_numpy(data)
            assert big.stored_pages() == (4, 16)
            assert ((big.tile_dir > 0) & (big.tile_dir <= 8192)).all()
            both = one + s.open_matrix("big")
            assert _ratio(s, both) == (16 + 4) / (16 + 16)
            # A raw matrix holds every page it spans.
            s.store.matrix_from_numpy(data, name="raw", codec="raw")
            mixed = s.open_matrix("big") + s.open_matrix("raw")
            assert _ratio(s, mixed) == (4 + 16) / (16 + 16)
            # An array the operator does not read does not count.
            assert _ratio(s, one * 2) == 1.0
            # A tile that took the raw fallback counts its whole span.
            rng = np.random.default_rng(5)
            big.write_tile(0, 0, rng.integers(
                0, 1 << 64, (64, 64), dtype=np.uint64).view(np.float64))
            assert big.stored_pages() == (7, 16)
            assert _ratio(s, s.open_matrix("big") - 1) == 7 / 16
            # Nor does one that was dropped.
            big.drop()
            assert _ratio(s, one - 2) == 1.0

    def test_planner_prices_what_is_stored(self):
        """The ratio is read when a plan is made, after ingest — not
        frozen at the static estimate when the session was built."""
        data = np.arange(256 * 256, dtype=np.float64).reshape(256, 256)
        with RiotSession(storage=StorageConfig(
                memory_bytes=256 * 8192, codec="zstd")) as s:
            x = s.matrix(data)
            held, span = x.node.data.stored_pages()
            assert held / span == 1 / 16    # 128-side tiles, one page each
            op = s.plan(x.crossprod()).root
            assert op.cost_inputs["ratio"] == 1 / 16
            raw = RiotSession(storage=StorageConfig(
                memory_bytes=256 * 8192))
            with raw:
                unscaled = raw.plan(raw.matrix(data).crossprod()).root
            assert op.predicted_io == pytest.approx(
                unscaled.predicted_io / 16)

    def test_matrix_maps_and_transposes_are_priced_on_codec_pages(self):
        """A matrix map and a materialized transpose move codec tiles
        like a product does, so their models take the stored ratio: at
        1.0 ``abs(X) + 1`` predicted 2 048 blocks against 256 measured
        and ``explain`` flagged it outside the validated band."""
        data = np.random.default_rng(0).integers(
            0, 4, (1024, 1024)).astype(np.float64)
        with RiotSession(storage=StorageConfig(
                memory_bytes=2 << 20, codec="zstd")) as s:
            x = s.matrix(data)
            assert x.node.data.stored_pages() == (128, 1024)
            for handle in (x.abs() + 1, x.T):
                text = s.explain(handle, analyze=True)
                op = s.plan(handle).root
                assert op.cost_inputs["ratio"] == 0.125
                assert op.predicted_io == 0.125 * 2 * 1024 * 1024 / 1024
                assert "!!" not in text, text
                assert s.calibration_report(handle).ok

    def test_random_bits_fall_back_to_raw_and_cost_their_span(self):
        """A multi-page tile the codec cannot shrink is stored raw
        (``tile_dir`` 0) and reads exactly its span, never more."""
        rng = np.random.default_rng(4)
        data = rng.integers(0, 1 << 64, (64, 64), dtype=np.uint64) \
            .view(np.float64)
        with _store(codec="delta+zstd") as store:
            mat = store.create_matrix(data.shape, tile_shape=(64, 64)) \
                .from_numpy(data)
            # Written tiles are encoded when they leave memory.
            store.flush()
            assert mat.tile_dir.tolist() == [[STORED_RAW]]
            assert mat.pages_per_tile == 4
            assert mat.tile_blocks(0, 0) == mat._blocks[0, 0].tolist()
            store.pool.clear()
            store.tile_cache.clear()
            store.reset_stats()
            assert mat.to_numpy().tobytes() == data.tobytes()
            assert store.device.stats.reads == 4

    def test_tile_cache_counts_hits(self):
        """A read of a pending tile is a hit and fetches no page; a
        read of an encoded tile is a miss, decoded from the pages its
        read announced — every prefetched page is used."""
        data = np.arange(256 * 256, dtype=np.float64).reshape(256, 256)
        with ArrayStore(storage=StorageConfig(
                memory_bytes=64 * 8192, codec="delta+zstd")) as store:
            mat = store.matrix_from_numpy(data)
            assert mat.grid == (8, 8) and mat.pages_per_tile == 1
            store.reset_stats()
            assert mat.read_tile(0, 0).tobytes() == data[:32, :32].tobytes()
            assert (store.tile_cache.hits, store.tile_cache.misses) == (1, 0)
            assert store.pool.stats.accesses == 0
            assert store.device.stats.reads == 0
            # Encoded and released: no tile stays decoded.
            store.flush()
            store.pool.clear()
            store.reset_stats()
            assert mat.read_submatrix(0, 256, 0, 256).tobytes() \
                == data.tobytes()
            assert (store.tile_cache.hits, store.tile_cache.misses) \
                == (0, 64)
            pool = store.pool.stats
            assert pool.prefetched == 63     # one frame stays free
            assert pool.readahead_hits == pool.prefetched

    def test_schema_v3_keys(self):
        assert "compression_ratio" in IOSTATS_SCHEMA_KEYS
        with _store() as store:
            d = store.device.stats.as_dict()
            assert d["schema_version"] == 3
            assert d["compression_ratio"] == 1.0


# ----------------------------------------------------------------------
# Multi-page compressed tiles on a real file: device calls per tile
# ----------------------------------------------------------------------
@functools.cache
def _mixed_inputs() -> dict[str, np.ndarray]:
    """1024 x 1024 inputs that compress to different page shares on a
    ``zstd`` store: integers in [0, 4) keep 1/8 of their pages,
    Gaussians 15/16, and ``Z`` is stored raw."""
    rng = np.random.default_rng(0)
    return {"X": rng.integers(0, 4, (1024, 1024)).astype(np.float64),
            "Y": rng.standard_normal((1024, 1024)),
            "Z": rng.standard_normal((1024, 1024))}


class TestOperandRatios:
    """Each operator is priced on its own operands' stored pages, so a
    map's prediction does not move with whatever else the store holds.
    On one store-wide ratio, ``abs(X) + 1`` read 0.24 and ``abs(Y) + 1``
    2.29 of their predictions once X and Y shared a store, and a raw
    matrix priced at the codec's static 0.5 read 1.88."""

    @staticmethod
    def _map(target: str, holds: str, earlier: str | None = None):
        """``abs(target) + 1``, explained with ``analyze`` from a cold
        pool on a 2 MiB ``zstd`` store holding the matrices ``holds``
        (``Z`` stored raw) and the result of ``earlier(holds[0])``
        when given: each operator's ``(label, cost_inputs,
        predicted_io)``, and the root's measured / predicted."""
        data = _mixed_inputs()
        with RiotSession(storage=StorageConfig(
                memory_bytes=2 << 20, codec="zstd")) as s:
            for name in holds:
                s.store.matrix_from_numpy(
                    data[name], name=name,
                    codec="raw" if name == "Z" else None)
            if earlier is not None:
                s.force(getattr(s.open_matrix(holds[0]), earlier)() + 1)
            handle = s.open_matrix(target).abs() + 1
            s.store.flush()
            s.store.pool.clear()
            s.store.tile_cache.clear()
            s.explain(handle, analyze=True)
            plan = s.plan(handle)
            ops = [(op.label(), op.cost_inputs, op.predicted_io)
                   for op in plan.ops()]
            return ops, plan.root.measured_io / plan.root.predicted_io

    @pytest.mark.parametrize("target, holds, earlier", [
        ("X", "XY", None),      # beside a Gaussian
        ("X", "X", "sqrt"),     # beside an earlier statement's result
        ("Y", "XY", "abs"),     # after abs(X) + 1, as a session runs it
        ("Z", "ZX", None),      # a raw matrix beside an integer one
    ])
    def test_a_map_is_priced_on_its_own_operand(self, target, holds,
                                                earlier):
        alone, alone_ratio = self._map(target, target)
        mixed, mixed_ratio = self._map(target, holds, earlier)
        assert mixed == alone
        assert 0.8 <= alone_ratio <= 1.25
        assert 0.8 <= mixed_ratio <= 1.25
        # A raw matrix spans every page it holds.
        assert ("ratio" in alone[-1][1]) == (target != "Z")

    def test_sparse_operands_hold_no_pages(self):
        """A sparse matrix, stored or a SpGEMM result, adds nothing to
        the ratio of a map that also reads a codec matrix."""
        rng = np.random.default_rng(3)
        with RiotSession(storage=StorageConfig(
                memory_bytes=2 << 20, codec="zstd")) as s:
            x = s.matrix(_mixed_inputs()["X"], name="X")
            a, b = (s.sparse_matrix(rng.integers(0, 1024, 2000),
                                    rng.integers(0, 1024, 2000),
                                    np.ones(2000), (1024, 1024))
                    for _ in range(2))
            product = (a @ b) + x
            assert s.plan(product).root.children[0].label() \
                == "matmul.spgemm"
            for handle in (x + 1, a + x, product):
                assert _ratio(s, handle) == 0.125

    def test_an_unstored_result_takes_its_operators_ratio(self):
        """The solve of OLS reads two products no store holds yet; it
        is priced at the ratio of the crossprod computing both, which
        sums the pages of X and y."""
        with RiotSession(storage=StorageConfig(
                memory_bytes=2 << 20, codec="zstd")) as s:
            x = s.matrix(_integers(1, (1024, 256)), name="X")
            y = s.matrix(_integers(2, (1024, 1)), name="y")
            solve = s.plan((x.T @ x).solve(x.T @ y)).root
            cross = solve.children[0]
            assert solve.children == (cross, cross)
            assert x.node.data.stored_pages() == (32, 256)
            assert y.node.data.stored_pages() == (1, 1)
            assert cross.cost_inputs["ratio"] == (32 + 1) / (256 + 1)
            assert solve.cost_inputs["ratio"] == (32 + 1) / (256 + 1)


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
# Write-back: a codec tile is encoded when it leaves memory
# ----------------------------------------------------------------------
@contextlib.contextmanager
def _recording_spills():
    """Record every tile spilled, as ``(matrix name, ti, tj)``, and
    every ``encode_tile`` call of the ``delta+zstd`` codec."""
    spilled: list[tuple[str, int, int]] = []
    encoded: list[tuple[int, int]] = []
    spill, encode = TiledMatrix._spill, DeltaZstdCodec.encode_tile

    def spy_spill(self, ti, tj, tile, through=False):
        spilled.append((self.name, ti, tj))
        return spill(self, ti, tj, tile, through)

    def spy_encode(self, tile):
        encoded.append(tile.shape)
        return encode(self, tile)

    with mock.patch.object(TiledMatrix, "_spill", spy_spill), \
            mock.patch.object(DeltaZstdCodec, "encode_tile", spy_encode):
        yield spilled, encoded


def _pending(mat):
    """The tiles of ``mat`` written and not yet encoded: ``PENDING`` in
    its directory, which must name exactly the tiles the decoded-tile
    cache holds for it."""
    pending = [t for t in mat.tiles() if mat.tile_dir[t] == PENDING]
    assert pending == [t for t in mat.tiles()
                       if (mat, *t) in mat.store.tile_cache._entries]
    return pending


def _integers(seed, shape):
    g = np.random.default_rng(seed)
    return g.integers(-8, 9, size=shape).astype(np.float64)


def _ols(s):
    x = s.matrix(_integers(1, (300, 96)), name="X")
    y = s.matrix(_integers(2, (300, 1)), name="y")
    return (x.T @ x).solve(x.T @ y).node


class TestWriteBack:
    """Writes leave codec tiles pending in the decoded-tile cache; a
    tile is encoded when it leaves memory — evicted, flushed, closed,
    cleared, or priced — and never when its matrix is dropped."""

    @pytest.mark.parametrize("cache_tiles", [None, 9])
    def test_ols_encodes_what_leaves_memory(self, cache_tiles):
        """A shrunk OLS: the LU factors X'X in place and releases the
        factor and X'y.  Every encode is a tile spilled by an eviction
        or by the closing flush — only the result's at the flush.  In
        the default cache, which holds the whole factor, no released
        tile is encoded; cut to X'X's nine tiles, exactly one is
        spilled as the run evicts it, X'y's first: a tile read is not
        kept decoded, so only the run's own writes push pending tiles
        out.  Either way far fewer tiles are encoded than written, and
        the result is the raw store's, bit for bit."""
        s = RiotSession(storage=StorageConfig(
            memory_bytes=24 * 8192, codec="zstd"),
            config=OptimizerConfig(level=2))
        store = s.store
        if cache_tiles:
            store.tile_cache.capacity_bytes = cache_tiles * 8192 + 700
        plan = s.plan(_ols(s))
        # Pricing the plan encoded what ingest left pending.
        assert not store.tile_cache._entries
        assert [op.in_place for op in plan.ops()
                if isinstance(op, LUSolveOp)] == [True]
        dropped, drop = [], TiledMatrix.drop
        written, write = [], TiledMatrix._write_codec_tile
        shapes = {}

        def spy_drop(self):
            dropped.append(self.name)
            shapes[self.name] = self.shape
            drop(self)

        def spy_write(self, ti, tj, tile):
            written.append((self.name, ti, tj))
            write(self, ti, tj, tile)

        with _recording_spills() as (spilled, encoded), \
                mock.patch.object(TiledMatrix, "drop", spy_drop), \
                mock.patch.object(TiledMatrix, "_write_codec_tile",
                                  spy_write):
            out = s.evaluator.execute(plan)
            evicted = spilled[:]
            pending = {(mat.name, ti, tj)
                       for mat, ti, tj in store.tile_cache._entries}
            store.flush()
        assert len(encoded) == len(spilled) == len(evicted) + len(pending)
        assert set(spilled[len(evicted):]) == pending
        assert {name for name, _, _ in pending} == {out.name}
        assert len(set(dropped)) == 2 and out.name not in dropped
        released = [t for t in spilled if t[0] in dropped]
        if cache_tiles is None:
            assert evicted == released == []
        else:
            [xty] = [name for name in shapes if shapes[name] == (96, 1)]
            assert released == evicted == [(xty, 0, 0)]
        assert len(encoded) < len(written) // 2
        with RiotSession(storage=StorageConfig(
                memory_bytes=24 * 8192)) as raw:
            ref = raw.force(_ols(raw))
        assert out.to_numpy().tobytes() == ref.to_numpy().tobytes()
        s.close()

    @pytest.mark.parametrize("mode", FILE_MODES)
    def test_close_encodes_pending_tiles(self, tmp_path, mode):
        cfg = StorageConfig(backend=mode, path=tmp_path / "riot.db",
                            memory_bytes=16 * 8192, codec="delta+zstd")
        data = np.arange(96 * 96, dtype=np.float64).reshape(96, 96)
        with _recording_spills() as (spilled, encoded):
            with ArrayStore(storage=cfg) as store:
                mat = store.matrix_from_numpy(data, name="P")
                assert len(_pending(mat)) == 9
                assert (mat.tile_dir == PENDING).all()
                assert not encoded and not store.device.stats.writes
            assert len(spilled) == len(encoded) == 9
        with ArrayStore(storage=cfg) as store:
            again = store.open_matrix("P")
            assert again.tile_dir.shape == (3, 3)
            assert (again.tile_dir >= STORED_RAW).all()
            assert again.to_numpy().tobytes() == data.tobytes()

    def test_dropping_pending_tiles_encodes_and_writes_nothing(self):
        data = np.arange(96 * 96, dtype=np.float64).reshape(96, 96)
        with _store(codec="delta+zstd") as store, \
                _recording_spills() as (spilled, encoded):
            mat = store.matrix_from_numpy(data)
            assert len(_pending(mat)) == 9
            mat.drop()
            store.flush()
            store.tile_cache.clear()
            assert spilled == encoded == []
            assert store.device.stats.writes == 0
            assert store.pool.resident == 0
            assert not store.tile_cache._entries

    def test_a_tile_larger_than_the_cache_is_never_lost(self):
        """It is encoded at once, on every write, and read back from
        its pages."""
        data = np.arange(64 * 64, dtype=np.float64).reshape(64, 64)
        with _store(codec="delta+zstd") as store, \
                _recording_spills() as (spilled, _):
            store.tile_cache.capacity_bytes = 32 * 32 * 8 - 1
            mat = store.create_matrix(data.shape, tile_shape=(32, 32))
            mat.from_numpy(data)
            assert len(spilled) == 4 and not _pending(mat)
            assert (mat.tile_dir >= STORED_RAW).all()
            assert mat.tile_dir.shape == (2, 2)
            patch = -np.ones((3, 40))
            mat.write_submatrix(30, 10, patch)
            data[30:33, 10:50] = patch
            assert len(spilled) == 4 + 4 and not _pending(mat)
            assert not store.tile_cache._entries
            assert mat.to_numpy().tobytes() == data.tobytes()
            store.flush()
            store.pool.clear()
            assert mat.to_numpy().tobytes() == data.tobytes()

    def test_clearing_the_cache_writes_dirty_tiles_through(self):
        """``tile_cache.clear()`` drops no dirty tile: it encodes it
        and writes its pages to the device, leaving nothing in memory,
        so the next read is cold."""
        data = np.arange(96 * 96, dtype=np.float64).reshape(96, 96)
        with _store(codec="delta+zstd") as store, \
                _recording_spills() as (spilled, _):
            mat = store.matrix_from_numpy(data)
            assert len(_pending(mat)) == 9
            store.tile_cache.clear()
            assert len(spilled) == 9 and not _pending(mat)
            pages = sum(len(mat.tile_blocks(ti, tj))
                        for ti, tj in mat.tiles())
            assert store.device.stats.writes == pages
            assert store.pool.resident == 0
            store.reset_stats()
            assert mat.to_numpy().tobytes() == data.tobytes()
            assert store.device.stats.reads == pages
            assert len(spilled) == 9

    def test_a_pending_tile_reads_from_the_cache_and_has_no_pages(self):
        data = np.arange(64 * 64, dtype=np.float64).reshape(64, 64)
        with _store(codec="delta+zstd") as store:
            mat = store.create_matrix(data.shape, tile_shape=(32, 32))
            mat.from_numpy(data)
            store.flush()
            mat.write_tile(0, 1, -data[:32, 32:])
            assert mat.tile_blocks(0, 1) == []
            assert len(mat.tile_blocks(0, 0)) == 1
            store.reset_stats()
            assert mat.read_tile(0, 1).tobytes() \
                == (-data[:32, 32:]).tobytes()
            assert store.device.stats.reads == 0
            assert store.pool.stats.accesses == 0


    def test_a_rewrite_drops_the_pages_it_supersedes(self):
        """A stored tile rewritten smaller: the flush writes the new
        payload's page and none of the old span's."""
        rng = np.random.default_rng(7)
        noise = rng.integers(0, 1 << 64, (64, 64), dtype=np.uint64) \
            .view(np.float64)
        with _store(codec="delta+zstd") as store:
            mat = store.create_matrix((64, 64), tile_shape=(64, 64))
            mat.write_tile(0, 0, noise)
            assert mat.stored_pages() == (4, 4)   # stored raw, in the pool
            mat.write_tile(0, 0, np.zeros((64, 64)))
            store.flush()
            assert mat.stored_pages() == (1, 4)
            assert store.device.stats.writes == 1

    def test_a_read_racing_a_write_keeps_the_write(self):
        """A write that lands while a read decodes the tile's stored
        pages: the read returns what it decoded, and the write, still
        pending, is what the next read sees — a read keeps nothing
        decoded that could hide it."""
        data = np.arange(32 * 32, dtype=np.float64).reshape(32, 32)
        with _store(codec="delta+zstd") as store:
            mat = store.create_matrix((32, 32), tile_shape=(32, 32))
            mat.write_tile(0, 0, data)
            store.tile_cache.clear()
            decode = DeltaZstdCodec.decode_tile

            def racing(self, payload, dtype, count):
                tile = decode(self, payload, dtype, count)
                mat.write_tile(0, 0, -data)
                return tile

            with mock.patch.object(DeltaZstdCodec, "decode_tile", racing):
                assert mat.read_tile(0, 0).tobytes() == data.tobytes()
            assert mat.read_tile(0, 0).tobytes() == (-data).tobytes()
            store.tile_cache.clear()
            store.pool.clear()
            assert mat.read_tile(0, 0).tobytes() == (-data).tobytes()


    def test_matrices_sharing_a_name_keep_their_own_pending_tiles(self):
        """Pending tiles belong to the matrix object, not its name: a
        second matrix named ``X`` is refused while the first lives and
        takes none of its tiles, and one made under the name after the
        first is dropped sees none of the first's."""
        ones = np.ones((64, 64))
        with _store(codec="zstd") as store:
            first = store.matrix_from_numpy(ones, name="X")
            with pytest.raises(ValueError, match="already live"):
                store.matrix_from_numpy(2 * ones, name="X")
            assert (first.to_numpy() == 1).all()
            first.drop()
            second = store.matrix_from_numpy(2 * ones, name="X")
            assert (second.to_numpy() == 2).all()
            store.tile_cache.clear()
            store.pool.clear()
            assert (second.to_numpy() == 2).all()

    def test_two_stored_transposes_of_one_matrix(self):
        """A stored transpose of ``X`` is named ``t(X)``, a second one
        live beside it ``t(X)_<n>``: two arrays with their own pending
        tiles."""
        x = _integers(3, (300, 200))
        with RiotSession(storage=StorageConfig(codec="zstd"),
                         config=OptimizerConfig(level=0)) as s:
            xm = s.matrix(x, name="X")
            a, b = xm.T, xm.T
            got = s.values(a @ b.T)
        np.testing.assert_allclose(got, x.T @ x, rtol=1e-12)


class TestWriteBackConcurrency:
    """Threads sharing a decoded-tile cache of a few tiles: every read
    may race a spill, under the sanitizing pool."""

    def test_threads_sharing_a_tiny_cache_lose_no_write(self):
        """More threads than cores each write and read back their own
        tiles of one matrix through a cache of two tiles, so nearly
        every insert spills another thread's pending tile — racing
        that thread's read of it, or its next write.  Every read sees
        its thread's last write, and so does the device at the end."""
        workers, rounds, side = 4, 30, 32
        with _store(codec="delta+zstd", sanitize=True) as store:
            store.tile_cache.capacity_bytes = 2 * side * side * 8
            mat = store.create_matrix((2 * side, workers * side),
                                      tile_shape=(side, side))
            final = np.zeros(mat.shape)
            failures: list = []

            def work(w):
                rng = np.random.default_rng(w)
                cols = slice(w * side, (w + 1) * side)
                try:
                    for r in range(rounds):
                        for ti in range(2):
                            # Integers compress; noise is stored raw.
                            tile = (rng.integers(-8, 9, (side, side))
                                    .astype(np.float64) if r % 3
                                    else rng.standard_normal((side, side)))
                            mat.write_tile(ti, w, tile)
                            final[ti * side:(ti + 1) * side, cols] = tile
                        for ti in range(2):
                            want = final[ti * side:(ti + 1) * side, cols]
                            if (mat.read_tile(ti, w).tobytes()
                                    != want.tobytes()):
                                failures.append((w, r, ti))
                except Exception as exc:   # reported by the assert
                    failures.append((w, exc))

            switch = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                threads = [threading.Thread(target=work, args=(w,))
                           for w in range(workers)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
            finally:
                sys.setswitchinterval(switch)
            assert not any(thread.is_alive() for thread in threads)
            assert failures == []
            store.flush()
            store.tile_cache.clear()
            store.pool.clear()
            assert mat.to_numpy().tobytes() == final.tobytes()


# ----------------------------------------------------------------------
# StorageConfig plumbing
# ----------------------------------------------------------------------
class TestConfigPlumbing:
    def test_url_params(self, tmp_path):
        cfg = StorageConfig.from_url(
            f"file://{tmp_path}/u.db?codec=zstd&dtype=float32")
        assert cfg.codec == "delta+zstd"  # canonicalized
        assert cfg.dtype == "float32" and cfg.itemsize == 4

    def test_bad_codec_and_dtype_rejected(self):
        with pytest.raises(ValueError, match="unknown tile codec"):
            StorageConfig(codec="nope")
        with pytest.raises(ValueError, match="dtype"):
            StorageConfig(dtype="float16")

    def test_itemsize_default(self):
        assert StorageConfig().itemsize == 8
