"""Simulated disk, buffer management, and tiled array storage.

This package is the storage substrate shared by every subsystem in the
reproduction: the virtual-memory pager that stands in for plain R, the
relational engine that stands in for MySQL, and the next-generation RIOT
tile store.  Routing all of them through one counted
:class:`~repro.storage.block_device.BlockDevice` is what makes the paper's
I/O comparisons (Figure 1(a), Figure 3) exact here.
"""

from .block_device import (BlockDevice, DEFAULT_BLOCK_SIZE,
                           IO_SCHEMA_VERSION, IOSTATS_SCHEMA_KEYS, IOStats,
                           SCALARS_PER_BLOCK, SimClock, coalesce_runs)
from .buffer_pool import (POOL_SCHEMA_KEYS, BufferPool, LRUPolicy,
                          PoolStats)
from .codecs import (CODECS, DeltaZstdCodec, Float32Codec, RawCodec,
                     TileCodec, get_codec, register_codec)
from .config import (BACKENDS, StorageConfig, create_device, parse_memory)
from .file_device import FileBlockDevice
from .io_scheduler import IOScheduler, SchedulerStats
from .linearization import (ColMajor, Hilbert, Linearization, RowMajor,
                            ZOrder, linearization_names, make_linearization)
from .pagefile import PageFile, new_pagefile
from .tile_store import (ArrayStore, DecodedTileCache, TiledMatrix,
                         TiledVector, default_tile_side,
                         tile_shape_for_layout)

__all__ = [
    "ArrayStore",
    "BACKENDS",
    "BlockDevice",
    "BufferPool",
    "CODECS",
    "ColMajor",
    "DEFAULT_BLOCK_SIZE",
    "DecodedTileCache",
    "DeltaZstdCodec",
    "FileBlockDevice",
    "Float32Codec",
    "Hilbert",
    "IOScheduler",
    "IOSTATS_SCHEMA_KEYS",
    "IO_SCHEMA_VERSION",
    "IOStats",
    "Linearization",
    "LRUPolicy",
    "POOL_SCHEMA_KEYS",
    "PageFile",
    "PoolStats",
    "RawCodec",
    "RowMajor",
    "SCALARS_PER_BLOCK",
    "SchedulerStats",
    "SimClock",
    "StorageConfig",
    "TileCodec",
    "TiledMatrix",
    "TiledVector",
    "ZOrder",
    "coalesce_runs",
    "create_device",
    "default_tile_side",
    "get_codec",
    "linearization_names",
    "make_linearization",
    "new_pagefile",
    "parse_memory",
    "register_codec",
    "tile_shape_for_layout",
]
