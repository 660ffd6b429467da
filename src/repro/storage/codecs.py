"""Per-tile compression codecs — the TritanDB-style byte axis.

RIOT's thesis is that I/O cost dominates out-of-core numerical
computing, and the biggest remaining lever after scheduling is
shrinking the bytes that cross the device boundary.  A
:class:`TileCodec` transforms one tile's scalars into a compressed
payload at :class:`~repro.storage.tile_store.TiledMatrix` write time
and back at read time; the tile store records each tile's codec and
compressed length in its tile directory (persisted through the
``.meta`` sidecar manifest), charges the *compressed* bytes to
``IOStats.bytes_compressed`` (schema v3), and keeps decompressed tiles
in a decoded-frame cache so repeated reads pay the decode CPU once.

Codecs never leak outside the storage layer: kernels and the planner
only ever see decoded ``numpy`` tiles (enforced by the ``RPR005`` lint
rule — ``encode_tile``/``decode_tile`` may only be called under
``repro/storage``).

Built-in codecs:

``raw``
    Identity.  Tiles occupy their full page span.
``delta+zstd``
    Bitwise-lossless: split the scalars' bit patterns into byte planes
    and compress the planes at the fast level of ``zstandard`` when
    importable (tag 3, one frame) and of stdlib ``zlib`` otherwise
    (tag 6, one record per plane: stored verbatim when deflate cannot
    shrink it, else a raw-deflate stream of its own).  The payload is
    self-describing (a one-byte tag names the entropy coder and the
    layout, table at ``_TAGS``), so a file written with one backend —
    or by an earlier encoder: the interleaved deltas the codec is
    named after, tags 0 and 1, or one zlib stream of all planes,
    tag 2 — decodes everywhere.
``float32-downcast``
    Lossy 2x: store float64 tiles as float32 on disk.  Values
    round-trip within float32 precision (~1e-7 relative) — a
    documented tolerance contract instead of the bitwise one.

``register_codec`` makes the registry pluggable for experiments.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

try:  # pragma: no cover - environment-dependent
    import zstandard as _zstd
except ImportError:  # pragma: no cover - the stdlib fallback path
    _zstd = None

#: What ``decode_tile`` is handed: the tile store passes a one-page
#: payload as a view of its pool frame, not as a ``bytes`` copy.
Payload = bytes | memoryview

#: The ``delta+zstd`` wire format: one tag byte, then the body.  The
#: tag is a bit set naming the entropy coder and the layout of the
#: body.  This encoder writes 6 (zlib) / 3 (zstandard); tags 0 / 1 / 2
#: are what earlier versions wrote and still decode:
#:
#: ===  ===============================================================
#: tag  body
#: ===  ===============================================================
#: 0    zlib stream of the wrapping deltas, bytes interleaved
#: 1    the same under zstandard
#: 2    one zlib stream of the byte planes, a deflate block per plane
#: 3    one zstandard frame of the byte planes
#: 6    u32 LE scalar count, then one record per plane: mode 0 and
#:      ``count`` verbatim bytes, or mode 1, a u32 LE length and a
#:      raw-deflate stream of its own
#: ===  ===============================================================
_ZSTD = 1       # body compressed by zstandard (clear: zlib)
_PLANES = 2     # body is the byte planes of the bit patterns, least
                # significant plane first (clear: their wrapping
                # deltas, bytes interleaved)
_RECORDS = 4    # each plane is a record of its own: stored, or its
                # own raw-deflate stream (zlib only)
_TAGS = frozenset({0, _ZSTD, _PLANES, _PLANES | _ZSTD,
                   _PLANES | _RECORDS})

#: A plane is deflated only if a strided sample of about this many of
#: its bytes shrinks under deflate.
_SAMPLE = 2048


class TileCodec:
    """Transforms one tile's scalars to/from a compressed payload.

    ``name`` is the registry key recorded per tile in the manifest;
    ``ratio_estimate`` is the static compressed/raw byte ratio the
    planner uses before any measured traffic exists; ``lossless``
    states whether decode is bitwise (the determinism contract) or
    within a documented tolerance.
    """

    name = "codec"
    ratio_estimate = 1.0
    lossless = True

    def encode_tile(self, tile: np.ndarray) -> bytes:
        """Compress one full (edge-padded) tile into a payload."""
        raise NotImplementedError

    def decode_tile(self, payload: Payload, dtype: np.dtype,
                    count: int) -> np.ndarray:
        """Recover ``count`` scalars of ``dtype`` from a payload."""
        raise NotImplementedError


class RawCodec(TileCodec):
    """Identity codec: tiles are stored as their native bytes."""

    name = "raw"
    ratio_estimate = 1.0
    lossless = True

    def encode_tile(self, tile: np.ndarray) -> bytes:
        return np.ascontiguousarray(tile).tobytes()

    def decode_tile(self, payload: Payload, dtype: np.dtype,
                    count: int) -> np.ndarray:
        return np.frombuffer(payload, dtype=dtype)[:count].copy()


class DeltaZstdCodec(TileCodec):
    """Bitwise-lossless byte-plane + entropy coding of scalar bit
    patterns.

    Scalars are viewed as same-width little-endian integers and
    transposed into *byte planes* — byte 0 of every scalar, then byte
    1 of every scalar, ... — so the entropy coder sees long runs (the
    all-zero low mantissa planes of quantized data, the constant
    exponent plane of smooth data) instead of eight interleaved
    streams, and the fast compression level finds what the default
    level found before at a fraction of the time.  Earlier versions
    delta-encoded the integers first and compressed them interleaved
    (tags 0 / 1, still decoded: decompress, cumulative-sum with
    wraparound); on planes the delta stopped paying — measured on
    128 x 128 float64 tiles at zlib level 1, payload bytes with /
    without it: integers in [-8, 8] 16 261 / 13 676, a Gaussian
    118 605 / 116 368, and a ramp 803 / 2 175, one page of the tile's
    sixteen either way — so it is no longer taken.

    Planes differ in their byte histograms (a sign/exponent plane, a
    busy mantissa plane, zero planes), and a Huffman table shared
    across a plane boundary fits neither side — measured, a table per
    plane takes 5 % off integer-valued tiles (14 358 -> 13 676 above;
    a 128 x 128 tile of their cross product 32 450 -> 30 710 bytes,
    clear of the four-page mark it otherwise sits on).  So the zlib
    body (tag 6) is one *record* per plane, least significant first,
    after a u32 LE scalar count: mode byte 0 and the plane's bytes
    verbatim, or mode byte 1, a u32 LE length and a raw-deflate
    (``wbits=-15``) stream of that plane alone.  Independent streams
    replace the single stream with a sync flush per plane that tag 2
    wrote: the same table per plane, but 1.2-1.5x faster to deflate
    even when every plane compresses (the planes of an ``ols_zstd``
    X tile 0.93 -> 0.72 ms, of an X'X tile 1.85 -> 1.39 ms).  A
    shared stream's matcher keeps searching the earlier planes'
    window, whose bytes never match across a plane boundary; a full
    flush, which drops that history, recovers two thirds of the gap.

    A plane is stored verbatim when deflate cannot shrink it — the low
    mantissa planes of a Gaussian or of an LU factor carry ~8 bits of
    entropy per byte, and deflating them cost 2-2.5 ms of a 15-page
    factor tile's encode to save nothing.  The test is cheap: deflate
    every ``len // 2048``-th byte of the plane and store the plane if
    that sample does not shrink (below 4 096 scalars the sample is the
    plane, and its stream is the record's), or if the plane's own
    stream comes out no shorter than the plane, so no record exceeds
    ``count + 1`` bytes.  The sample is strided on
    purpose: a tile on the bottom edge carries zero padding in its
    last rows, which a sample of the first 2 KiB never sees — a
    20-row edge tile took 101 408 bytes that way instead of 19 478.
    A record costs at most five bytes of framing, and a stored plane a
    few hundred at most over what deflate made of it, so the tiles of
    the ``ols_zstd`` benchmark land on the pages tag 2 needed.  Decode
    reverses exactly — inflate or copy each record, gather the planes,
    reinterpret as the float dtype — so the round-trip is bit
    identical (NaN payloads, -0.0, subnormals) and float64 determinism
    contracts survive compression.  A malformed payload (truncated, a
    length past its end, a record too many or too few) raises
    ``ValueError``.
    """

    name = "delta+zstd"
    #: Typical ratio on smooth/quantized numeric data; incompressible
    #: tiles fall back to raw storage per tile, so 1.0 is the ceiling.
    ratio_estimate = 0.5
    lossless = True

    #: Compression level for both backends: the fast one.  On byte
    #: planes the default levels (zstd 3 / zlib 6) buy a few percent
    #: of size for 2-4x the encode time.
    level = 1

    def _int_dtype(self, dtype: np.dtype) -> np.dtype:
        return np.dtype(f"<i{np.dtype(dtype).itemsize}")

    def encode_tile(self, tile: np.ndarray) -> bytes:
        flat = np.ascontiguousarray(tile).reshape(-1)
        planes = np.ascontiguousarray(
            flat.view(np.uint8).reshape(-1, flat.dtype.itemsize).T)
        if _zstd is not None:
            body = _zstd.ZstdCompressor(level=self.level).compress(planes)
            return bytes([_PLANES | _ZSTD]) + body
        count = planes.shape[1]
        step = max(1, count // _SAMPLE)
        parts = [struct.pack("<BI", _PLANES | _RECORDS, count)]
        for plane in planes:
            sample = np.ascontiguousarray(plane[::step])
            stream = self._deflate(sample)
            if len(stream) < len(sample):
                if step > 1:    # else the sample is the plane
                    stream = self._deflate(plane)
                if len(stream) < count:
                    parts += (struct.pack("<BI", 1, len(stream)), stream)
                    continue
            parts += (b"\x00", plane)
        return b"".join(parts)

    def _deflate(self, data: np.ndarray) -> bytes:
        # zlib.compress takes no wbits before Python 3.11.
        deflate = zlib.compressobj(self.level, zlib.DEFLATED, -15)
        return deflate.compress(data) + deflate.flush()

    def decode_tile(self, payload: Payload, dtype: np.dtype,
                    count: int) -> np.ndarray:
        if not len(payload):
            raise _corrupt("the payload is empty")
        tag, body = payload[0], memoryview(payload)[1:]
        if tag not in _TAGS:
            raise ValueError(
                f"unknown delta+zstd tag {tag}; the payload is not a "
                f"delta+zstd tile")
        dtype = np.dtype(dtype)
        if tag & _RECORDS:
            planes = _read_records(body, dtype.itemsize, count)
        else:
            raw = _inflate(tag, body)
            if len(raw) % dtype.itemsize or \
                    len(raw) // dtype.itemsize < count:
                raise _corrupt(f"it inflates to {len(raw)} bytes, not "
                               f"{count} scalars of {dtype}")
            if not tag & _PLANES:
                # An older payload: the wrapping deltas, interleaved.
                idt = self._int_dtype(dtype)
                with np.errstate(over="ignore"):
                    ints = np.cumsum(np.frombuffer(raw, dtype=idt),
                                     dtype=idt)
                return ints.view(dtype)[:count]
            planes = np.frombuffer(raw, dtype=np.uint8) \
                .reshape(dtype.itemsize, -1)
        return np.ascontiguousarray(planes.T).view(dtype).reshape(-1)[
            :count]


def _corrupt(why: str) -> ValueError:
    return ValueError(f"corrupt delta+zstd payload: {why}")


def _inflate(tag: int, body: memoryview) -> bytes:
    """The body of a one-stream payload (tags 0-3), decompressed."""
    if not tag & _ZSTD:
        try:
            return zlib.decompress(body)
        except zlib.error as exc:
            raise _corrupt(str(exc)) from exc
    if _zstd is None:
        raise RuntimeError(
            "tile was compressed with zstandard, which is not "
            "importable here; install it or rewrite with the zlib "
            "backend")
    return _zstd.ZstdDecompressor().decompress(body)


def _read_records(body: memoryview, width: int, count: int) -> np.ndarray:
    """The ``width`` byte planes of a tag-6 body, one row each."""
    end = len(body)
    if end < 4:
        raise _corrupt("it ends inside the scalar count")
    n = int.from_bytes(body[:4], "little")
    if n < count:
        raise _corrupt(f"it holds {n} scalars, {count} were asked for")
    planes = np.empty((width, n), dtype=np.uint8)
    pos = 4
    for k in range(width):
        if pos == end:
            raise _corrupt(f"it holds {k} plane records, not {width}")
        mode, pos = body[pos], pos + 1
        if mode == 0:
            if pos + n > end:
                raise _corrupt(f"stored plane {k} holds {end - pos} "
                               f"bytes, not {n}")
            planes[k] = np.frombuffer(body[pos:pos + n], dtype=np.uint8)
            pos += n
            continue
        if mode != 1:
            raise _corrupt(f"plane {k} has record mode {mode}")
        if pos + 4 > end:
            raise _corrupt(f"it ends inside plane {k}'s length")
        size, pos = int.from_bytes(body[pos:pos + 4], "little"), pos + 4
        if pos + size > end:
            raise _corrupt(f"plane {k}'s {size}-byte stream runs "
                           f"{pos + size - end} bytes past the end")
        try:
            plane = zlib.decompress(body[pos:pos + size], -15, n)
        except zlib.error as exc:
            raise _corrupt(f"plane {k}: {exc}") from exc
        if len(plane) != n:
            raise _corrupt(f"plane {k} inflates to {len(plane)} bytes, "
                           f"not {n}")
        planes[k] = np.frombuffer(plane, dtype=np.uint8)
        pos += size
    if pos != end:
        raise _corrupt(f"{end - pos} bytes follow its {width} plane "
                       f"records")
    return planes


class Float32Codec(TileCodec):
    """Lossy 2x downcast: float64 tiles stored as float32 bytes.

    Decode upcasts back to the matrix dtype; values round-trip within
    float32 precision (~1e-7 relative), which is this codec's
    documented tolerance contract.  On a float32 matrix it is a no-op
    size-wise (ratio 1.0).
    """

    name = "float32-downcast"
    ratio_estimate = 0.5
    lossless = False

    def encode_tile(self, tile: np.ndarray) -> bytes:
        return np.ascontiguousarray(tile, dtype=np.float32).tobytes()

    def decode_tile(self, payload: Payload, dtype: np.dtype,
                    count: int) -> np.ndarray:
        return np.frombuffer(payload, dtype=np.float32)[:count] \
            .astype(np.dtype(dtype))


#: Registry: canonical codec name (and aliases) -> shared instance.
CODECS: dict[str, TileCodec] = {}

_ALIASES = {
    "raw": "raw",
    "none": "raw",
    "delta+zstd": "delta+zstd",
    "zstd": "delta+zstd",
    "delta": "delta+zstd",
    "float32-downcast": "float32-downcast",
    "float32": "float32-downcast",
}


def register_codec(codec: TileCodec, *aliases: str) -> TileCodec:
    """Register a codec under its ``name`` plus optional aliases."""
    CODECS[codec.name] = codec
    _ALIASES[codec.name] = codec.name
    for alias in aliases:
        _ALIASES[alias] = codec.name
    return codec


register_codec(RawCodec(), "none")
register_codec(DeltaZstdCodec(), "zstd", "delta")
register_codec(Float32Codec(), "float32")


def get_codec(name: str | TileCodec) -> TileCodec:
    """Resolve a codec by registry name or alias."""
    if isinstance(name, TileCodec):
        return name
    canonical = _ALIASES.get(str(name).lower())
    if canonical is None:
        raise ValueError(
            f"unknown tile codec {name!r}; registered: "
            f"{sorted(CODECS)} (aliases: {sorted(_ALIASES)})")
    return CODECS[canonical]
