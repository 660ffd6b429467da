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
    Bitwise-lossless: view the scalars' bit patterns as integers,
    delta-encode (wraparound arithmetic), then compress with
    ``zstandard`` when importable and stdlib ``zlib`` otherwise.  The
    payload is self-describing (a one-byte backend tag), so a file
    written with one backend decodes with the other.
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

#: Backend tags of the ``delta+zstd`` wire format (first payload byte).
_TAG_ZLIB = 0
_TAG_ZSTD = 1


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
    """Bitwise-lossless delta + entropy coding of scalar bit patterns.

    Scalars are viewed as same-width integers, delta-encoded with
    silent wraparound (``a[i] - a[i-1]`` mod 2^64), and compressed.
    Decode reverses exactly: decompress, cumulative-sum (wrapping
    back), reinterpret as the float dtype — the round-trip is bit
    identical, so float64 determinism contracts survive compression.
    """

    name = "delta+zstd"
    #: Typical ratio on smooth/quantized numeric data; incompressible
    #: tiles fall back to raw storage per tile, so 1.0 is the ceiling.
    ratio_estimate = 0.5
    lossless = True

    #: Compression level for both backends (zstd 3 / zlib 6 class).
    level = 3

    def _int_dtype(self, dtype: np.dtype) -> np.dtype:
        return np.dtype(f"<i{np.dtype(dtype).itemsize}")

    def encode_tile(self, tile: np.ndarray) -> bytes:
        flat = np.ascontiguousarray(tile).reshape(-1)
        ints = flat.view(self._int_dtype(flat.dtype))
        delta = np.empty_like(ints)
        delta[:1] = ints[:1]
        with np.errstate(over="ignore"):
            np.subtract(ints[1:], ints[:-1], out=delta[1:])
        raw = delta.view(np.uint8)
        if _zstd is not None:
            body = _zstd.ZstdCompressor(level=self.level).compress(raw)
            return bytes([_TAG_ZSTD]) + body
        return bytes([_TAG_ZLIB]) + zlib.compress(raw, 6)

    def decode_tile(self, payload: Payload, dtype: np.dtype,
                    count: int) -> np.ndarray:
        tag, body = payload[0], memoryview(payload)[1:]
        if tag == _TAG_ZSTD:
            if _zstd is None:
                raise RuntimeError(
                    "tile was compressed with zstandard, which is not "
                    "importable here; install it or rewrite with the "
                    "zlib backend")
            raw = _zstd.ZstdDecompressor().decompress(body)
        elif tag == _TAG_ZLIB:
            raw = zlib.decompress(body)
        else:
            raise ValueError(
                f"unknown delta+zstd backend tag {tag}; the payload is "
                f"not a delta+zstd tile")
        idt = self._int_dtype(dtype)
        delta = np.frombuffer(raw, dtype=idt)
        with np.errstate(over="ignore"):
            ints = np.cumsum(delta, dtype=idt)
        return ints.view(np.dtype(dtype))[:count]


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
