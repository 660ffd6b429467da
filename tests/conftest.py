"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.storage import (ArrayStore, BlockDevice, BufferPool,
                           StorageConfig)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20090104)


@pytest.fixture
def device() -> BlockDevice:
    return BlockDevice(block_size=8192)


@pytest.fixture
def small_pool(device: BlockDevice) -> BufferPool:
    """A deliberately tiny pool (8 frames) so evictions actually happen."""
    return BufferPool(device, capacity_blocks=8)


@pytest.fixture
def store() -> ArrayStore:
    return ArrayStore(StorageConfig(memory_bytes=4 * 1024 * 1024))


@pytest.fixture
def tiny_store() -> ArrayStore:
    """A store whose pool holds only 16 blocks — forces real I/O."""
    return ArrayStore(StorageConfig(memory_bytes=16 * 8192))
