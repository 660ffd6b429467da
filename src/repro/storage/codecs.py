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
    Identity.  Tiles occupy their full page span; the zero-copy
    ``block_view`` path requires it.
``delta+zstd``
    Bitwise-lossless: split the scalars' bit patterns into byte planes
    and compress the planes at the fast level of ``zstandard`` when
    importable and of stdlib ``zlib`` otherwise.  The payload is
    self-describing (a one-byte tag names the entropy coder and the
    transform), so a file written with one backend — or by the
    interleaved-delta encoder the codec is named after, tags 0 and 1 —
    decodes everywhere.
``float32-downcast``
    Lossy 2x: store float64 tiles as float32 on disk.  Values
    round-trip within float32 precision (~1e-7 relative) — a
    documented tolerance contract instead of the bitwise one.

``register_codec`` makes the registry pluggable for experiments.
"""

from __future__ import annotations

import zlib

import numpy as np

try:  # pragma: no cover - environment-dependent
    import zstandard as _zstd
except ImportError:  # pragma: no cover - the stdlib fallback path
    _zstd = None

#: What ``decode_tile`` is handed: the tile store passes a one-page
#: payload as a view of its pool frame, not as a ``bytes`` copy.
Payload = bytes | memoryview

#: The ``delta+zstd`` wire format: one tag byte, then the compressed
#: body.  The tag is a bit set naming the entropy coder and the
#: transform the body went through.  This encoder writes 2 / 3; tags
#: 0 / 1 are what earlier versions wrote and still decode.
_ZSTD = 1       # body compressed by zstandard (clear: zlib)
_PLANES = 2     # body is the byte planes of the bit patterns, least
                # significant plane first (clear: their wrapping
                # deltas, bytes interleaved)


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
    sixteen either way — so it is no longer taken.  The zlib body is
    one stream with a deflate block per plane: planes differ in their
    byte histograms (a sign/exponent plane, a busy mantissa plane,
    zero planes), and a Huffman table shared across a plane boundary
    fits neither side — measured, a table per plane takes 5 % off
    integer-valued tiles (14 358 -> 13 676 above; a 128 x 128 tile of
    their cross product 32 450 -> 30 710 bytes, clear of the four-page
    mark it otherwise sits on, some seeds either side) at the same
    encode time, and costs ~20 bytes per plane on tiles that deflate
    to almost nothing.  Decode reverses exactly — decompress, gather
    the planes, reinterpret as the float dtype — so the round-trip is
    bit identical (NaN payloads, -0.0, subnormals) and float64
    determinism contracts survive compression.
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
        # One deflate block per plane (a sync flush ends the block and
        # keeps the window), so each plane gets a Huffman table of its
        # own instead of sharing one with a neighbour whose bytes are
        # distributed differently.
        deflate = zlib.compressobj(self.level)
        parts = [bytes([_PLANES])]
        for plane in planes:
            parts += (deflate.compress(plane),
                      deflate.flush(zlib.Z_SYNC_FLUSH))
        parts.append(deflate.flush())
        return b"".join(parts)

    def decode_tile(self, payload: Payload, dtype: np.dtype,
                    count: int) -> np.ndarray:
        tag, body = payload[0], memoryview(payload)[1:]
        if tag > (_PLANES | _ZSTD):
            raise ValueError(
                f"unknown delta+zstd tag {tag}; the payload is not a "
                f"delta+zstd tile")
        if tag & _ZSTD:
            if _zstd is None:
                raise RuntimeError(
                    "tile was compressed with zstandard, which is not "
                    "importable here; install it or rewrite with the "
                    "zlib backend")
            raw = _zstd.ZstdDecompressor().decompress(body)
        else:
            raw = zlib.decompress(body)
        dtype = np.dtype(dtype)
        if tag & _PLANES:
            return np.ascontiguousarray(
                np.frombuffer(raw, dtype=np.uint8)
                .reshape(dtype.itemsize, -1).T).view(dtype).reshape(-1)[
                    :count]
        # An older payload: the wrapping deltas, bytes interleaved.
        idt = self._int_dtype(dtype)
        with np.errstate(over="ignore"):
            ints = np.cumsum(np.frombuffer(raw, dtype=idt), dtype=idt)
        return ints.view(dtype)[:count]


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
