"""Storage configuration and device factory — the injected storage API.

Every subsystem that used to hard-construct its own
:class:`~repro.storage.block_device.BlockDevice` (the tile store, the
virtual-memory pager, the relational engine, and
:class:`~repro.core.session.RiotSession`) now takes a
:class:`StorageConfig` and builds its device through
:func:`create_device`.  One dataclass names the whole storage contract:
which backend serves the blocks (``memory`` simulator, ``mmap`` page
file, or ``pread`` page file), where the page file lives, the
buffer-pool budget, block size, replacement policy, scheduler knobs,
and durability flags.

URL form (``repro.open_session``)::

    StorageConfig.from_url("file:///tmp/riot.db")            # mmap
    StorageConfig.from_url("file:///tmp/riot.db?mode=pread")
    StorageConfig.from_url("memory://", memory="64MiB")
    StorageConfig.from_url("file:///tmp/riot.db?codec=zstd&dtype=float32")
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field, replace
from urllib.parse import parse_qsl, unquote, urlsplit

from .block_device import DEFAULT_BLOCK_SIZE, BlockDevice
from .file_device import FileBlockDevice

#: Backends a :class:`StorageConfig` can name.
BACKENDS = ("memory", "mmap", "pread")

_MEMORY_UNITS = {
    "": 1, "b": 1,
    "k": 1000, "kb": 1000, "kib": 1024,
    "m": 1000 ** 2, "mb": 1000 ** 2, "mib": 1024 ** 2,
    "g": 1000 ** 3, "gb": 1000 ** 3, "gib": 1024 ** 3,
}


def parse_memory(value: int | str) -> int:
    """Turn ``"64MiB"``-style strings (or plain ints) into bytes."""
    if isinstance(value, int):
        return value
    match = re.fullmatch(r"\s*(\d+(?:\.\d+)?)\s*([A-Za-z]*)\s*",
                         str(value))
    if not match:
        raise ValueError(f"cannot parse memory size {value!r}")
    number, unit = match.groups()
    factor = _MEMORY_UNITS.get(unit.lower())
    if factor is None:
        raise ValueError(
            f"unknown memory unit {unit!r} in {value!r} "
            f"(use B, KB/KiB, MB/MiB, GB/GiB)")
    return int(float(number) * factor)


_TRUE = ("1", "true", "yes", "on")

#: Storage dtypes and their per-scalar byte widths.  Kept as a plain
#: table so this module stays importable without numpy in the loop.
_DTYPE_SIZES = {"float64": 8, "float32": 4}


def _env_sanitize() -> bool:
    """Default of ``StorageConfig.sanitize``: the REPRO_SANITIZE env
    var, so a whole test run can be sanitized without code changes."""
    return os.environ.get("REPRO_SANITIZE", "").lower() in _TRUE


@dataclass
class StorageConfig:
    """Everything a subsystem needs to stand up its storage stack.

    ``backend``
        ``"memory"`` (the counted simulator), ``"mmap"`` or ``"pread"``
        (a real page file; see :mod:`repro.storage.file_device`).
    ``path``
        Page file location for the file backends.  ``None`` means a
        fresh temporary file, deleted when the owner closes.
    ``memory_bytes``
        Buffer-pool budget (the paper's physical-memory cap).  Accepts
        ``"64MiB"``-style strings.
    ``fsync``
        Make every flush a durability barrier (file backends).
    ``direct``
        Try ``O_DIRECT`` for the ``pread`` backend (falls back quietly
        where unsupported).
    ``sanitize``
        Build the buffer pool as a
        :class:`~repro.analysis.sanitizers.SanitizingBufferPool`,
        turning storage-protocol violations (pin leaks, use-after-
        unpin views, pinned discards, unannounced kernel reads) into
        loud errors.  Defaults to the ``REPRO_SANITIZE`` environment
        variable.
    ``codec``
        Default per-tile compression codec applied at array-store
        write time (a :mod:`repro.storage.codecs` registry name:
        ``raw``, ``delta+zstd``/``zstd``, ``float32-downcast``/
        ``float32``, or anything registered).
    ``dtype``
        Storage scalar type of newly created arrays: ``"float64"``
        (the paper's setting) or ``"float32"`` (halves bytes per
        scalar — the budgets and tile layouts scale accordingly).
    ``zero_copy``
        Let dense kernels read whole raw-codec tiles as read-only
        ``block_view`` mmap slices instead of buffer-pool frame
        copies.  Opt-in: the views bypass pool accounting (mmap
        backend only; ignored elsewhere).
    """

    backend: str = "memory"
    path: str | os.PathLike | None = None
    memory_bytes: int = 64 * 1024 * 1024
    block_size: int = DEFAULT_BLOCK_SIZE
    policy: str = "lru"
    scheduler: bool = True
    readahead_window: int = 0
    fsync: bool = False
    direct: bool = False
    sanitize: bool = field(default_factory=_env_sanitize)
    codec: str = "raw"
    dtype: str = "float64"
    zero_copy: bool = False

    def __post_init__(self) -> None:
        self.memory_bytes = parse_memory(self.memory_bytes)
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown storage backend {self.backend!r}; "
                f"use one of {'|'.join(BACKENDS)}")
        if self.memory_bytes <= 0:
            raise ValueError(
                f"memory_bytes must be positive, got {self.memory_bytes}")
        if self.block_size <= 0:
            raise ValueError(
                f"block_size must be positive, got {self.block_size}")
        if self.readahead_window < 0:
            raise ValueError(
                f"readahead_window must be >= 0, "
                f"got {self.readahead_window}")
        if self.dtype not in _DTYPE_SIZES:
            raise ValueError(
                f"unknown storage dtype {self.dtype!r}; use one of "
                f"{'|'.join(sorted(_DTYPE_SIZES))}")
        # Resolve codec aliases eagerly so typos fail at config time,
        # not at first tile write.
        from .codecs import get_codec
        self.codec = get_codec(self.codec).name

    @property
    def itemsize(self) -> int:
        """Bytes per stored scalar for this config's ``dtype``."""
        return _DTYPE_SIZES[self.dtype]

    def with_options(self, **overrides) -> "StorageConfig":
        """A copy with the given fields replaced (config is immutable
        by convention once handed to a subsystem)."""
        return replace(self, **overrides)

    @classmethod
    def from_url(cls, url: str | os.PathLike | None,
                 memory: int | str | None = None,
                 **overrides) -> "StorageConfig":
        """Build a config from a storage URL (or bare file path).

        ``None``/``""``/``"memory://"``/``":memory:"`` select the
        in-memory simulator; ``file:///path`` (or a bare path) selects
        a page file, ``mmap`` by default.  Query parameters map to
        fields: ``mode=pread|mmap``, ``block_size=...``,
        ``fsync=1``, ``direct=1``, ``policy=clock``,
        ``readahead=<blocks>``, ``codec=zstd``, ``dtype=float32``,
        ``zero_copy=1``.
        """
        kwargs: dict = {}
        if url is None:
            backend, path = "memory", None
        else:
            text = os.fspath(url)
            if text in ("", "memory://", ":memory:"):
                backend, path = "memory", None
            elif "://" in text:
                parts = urlsplit(text)
                if parts.scheme not in ("file", "memory"):
                    raise ValueError(
                        f"unsupported storage URL scheme "
                        f"{parts.scheme!r} in {text!r}")
                query = dict(parse_qsl(parts.query))
                if parts.scheme == "memory":
                    backend, path = "memory", None
                else:
                    backend = query.pop("mode", "mmap")
                    # "file://" with no path: a temporary page file
                    path = unquote(parts.path)
                    path = None if path in ("", "/") else path
                    if parts.netloc not in ("", "localhost"):
                        raise ValueError(
                            f"file URL must be local, got host "
                            f"{parts.netloc!r}")
                for key, cast in (("block_size", int),
                                  ("readahead_window", int),
                                  ("readahead", int),
                                  ("policy", str),
                                  ("codec", str),
                                  ("dtype", str)):
                    if key in query:
                        field_name = ("readahead_window"
                                      if key == "readahead" else key)
                        kwargs[field_name] = cast(query.pop(key))
                for key in ("fsync", "direct", "zero_copy"):
                    if key in query:
                        kwargs[key] = query.pop(key).lower() in _TRUE
                if query:
                    raise ValueError(
                        f"unknown storage URL parameter(s) "
                        f"{sorted(query)} in {text!r}")
            else:
                backend, path = "mmap", text
        kwargs.update(overrides)
        if memory is not None:
            kwargs["memory_bytes"] = parse_memory(memory)
        return cls(backend=backend, path=path, **kwargs)


def create_device(config: StorageConfig | None = None,
                  name: str = "disk") -> BlockDevice:
    """Construct the block device a :class:`StorageConfig` describes.

    This factory is the **only** place a device is constructed; every
    subsystem (tile store, pager swap, relational engine) goes through
    it, which is what makes backends swappable end to end.
    """
    config = config or StorageConfig()
    if config.backend == "memory":
        return BlockDevice(block_size=config.block_size, name=name)
    return FileBlockDevice(path=config.path, mode=config.backend,
                           block_size=config.block_size, name=name,
                           fsync=config.fsync, direct=config.direct)
