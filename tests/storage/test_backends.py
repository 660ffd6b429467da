"""Storage backends: file devices, the config API, and equivalence.

The contract under test is the PR-6 redesign: every subsystem builds
its device through :func:`repro.storage.create_device` from a
:class:`repro.storage.StorageConfig`, and the file backends (``mmap``,
``pread``) are *accounting-identical* to the in-memory simulator — any
access sequence produces the same simulated block counts, with the
real-hardware counters (``read_ns``/``bytes_*``/``syscalls``) layered
on top.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import (ArrayStore, BACKENDS, BlockDevice,
                           FileBlockDevice, IO_SCHEMA_VERSION,
                           StorageConfig, create_device, parse_memory)
from repro.storage.tile_store import STORED_RAW, UNWRITTEN

FILE_MODES = ("mmap", "pread")


def _payload(n_blocks, block_size=8192, seed=1):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(n_blocks, block_size),
                        dtype=np.uint8)


# ----------------------------------------------------------------------
# FileBlockDevice: physical behaviour per mode
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", FILE_MODES)
class TestFileBlockDevice:
    def test_roundtrip_coalesced(self, tmp_path, mode):
        dev = FileBlockDevice(tmp_path / "pages.db", mode=mode)
        first = dev.allocate(5)
        data = _payload(5)
        dev.write_blocks((first + i, data[i]) for i in range(5))
        out = dev.read_blocks(range(first, first + 5))
        for got, want in zip(out, data):
            assert np.array_equal(got, want)
        dev.close()

    def test_reads_are_private_copies(self, tmp_path, mode):
        """Mutating a returned block must not touch the page file."""
        dev = FileBlockDevice(tmp_path / "pages.db", mode=mode)
        bid = dev.allocate(1)
        dev.write_block(bid, _payload(1)[0])
        copy = dev.read_block(bid)
        copy[:] = 0
        assert np.array_equal(dev.read_block(bid), _payload(1)[0])
        dev.close()

    def test_unwritten_blocks_read_as_zero(self, tmp_path, mode):
        dev = FileBlockDevice(tmp_path / "pages.db", mode=mode)
        bid = dev.allocate(2)
        assert not dev.read_block(bid + 1).any()
        dev.close()

    def test_wallclock_and_byte_counters(self, tmp_path, mode):
        dev = FileBlockDevice(tmp_path / "pages.db", mode=mode)
        first = dev.allocate(4)
        data = _payload(4)
        dev.write_blocks((first + i, data[i]) for i in range(4))
        dev.read_blocks(range(first, first + 4))
        s = dev.stats
        assert s.reads == 4 and s.writes == 4
        assert s.bytes_read == 4 * 8192
        assert s.bytes_written == 4 * 8192
        assert s.read_ns > 0 and s.write_ns > 0
        assert s.seconds == pytest.approx(
            (s.read_ns + s.write_ns) / 1e9)
        if mode == "pread":
            # one coalesced run each way = one syscall each way
            assert s.syscalls == 2
        else:
            assert s.syscalls == 0  # memcpys against the mapping
        dev.close()

    def test_reopen_with_sidecar_restores_manifest(self, tmp_path,
                                                   mode):
        path = tmp_path / "pages.db"
        dev = FileBlockDevice(path, mode=mode)
        bid = dev.allocate(3)
        data = _payload(3)
        dev.write_blocks((bid + i, data[i]) for i in range(3))
        dev.manifest["hello"] = {"first": bid}
        cursor = dev.allocated_blocks
        dev.close()

        again = FileBlockDevice(path, mode=mode)
        assert again.manifest == {"hello": {"first": bid}}
        assert again.allocated_blocks == cursor
        assert np.array_equal(again.read_block(bid), data[0])
        again.close()

    def test_reopen_raw_file_without_sidecar(self, tmp_path, mode):
        path = tmp_path / "pages.db"
        dev = FileBlockDevice(path, mode=mode)
        bid = dev.allocate(1)
        dev.write_block(bid, _payload(1)[0])
        dev.close()
        os.unlink(str(path) + ".meta")

        again = FileBlockDevice(path, mode=mode)
        # allocation cursor lands past every existing file block
        fresh = again.allocate(1)
        assert fresh * again.block_size >= os.path.getsize(path) or \
            fresh > bid
        assert np.array_equal(again.read_block(bid), _payload(1)[0])
        again.close()

    def test_block_size_mismatch_rejected(self, tmp_path, mode):
        path = tmp_path / "pages.db"
        FileBlockDevice(path, mode=mode, block_size=8192).close()
        with pytest.raises(ValueError, match="block_size"):
            FileBlockDevice(path, mode=mode, block_size=4096)

    def test_temporary_file_removed_on_close(self, mode):
        dev = FileBlockDevice(path=None, mode=mode)
        path = dev.path
        bid = dev.allocate(1)
        dev.write_block(bid, _payload(1)[0])
        assert os.path.exists(path)
        dev.close()
        assert not os.path.exists(path)
        assert not os.path.exists(path + ".meta")

    def test_close_is_idempotent(self, tmp_path, mode):
        dev = FileBlockDevice(tmp_path / "pages.db", mode=mode)
        dev.close()
        dev.close()


class TestFileDeviceExtras:
    def test_bad_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="mmap|pread"):
            FileBlockDevice(tmp_path / "x.db", mode="sync")

    def test_sync_counts_syscalls(self, tmp_path):
        dev = FileBlockDevice(tmp_path / "pages.db", mode="pread")
        bid = dev.allocate(1)
        dev.write_block(bid, _payload(1)[0])
        before = dev.stats.syscalls
        dev.sync()
        assert dev.stats.syscalls > before
        dev.close()

    def test_fsync_flag_on_writes(self, tmp_path):
        dev = FileBlockDevice(tmp_path / "pages.db", mode="pread",
                              fsync=True)
        bid = dev.allocate(1)
        dev.write_block(bid, _payload(1)[0])
        assert dev.stats.syscalls >= 2  # pwrite + fsync barrier
        dev.close()


@contextmanager
def _iovecs():
    """Record ``(call, iovec count)`` of every ``preadv``/``pwritev``."""
    calls: list[tuple[str, int]] = []
    real = {name: getattr(os, name) for name in ("preadv", "pwritev")}

    def spy(name):
        def call(fd, buffers, offset):
            calls.append((name, len(buffers)))
            return real[name](fd, buffers, offset)
        return call

    with mock.patch.multiple(os, **{n: spy(n) for n in real}):
        yield calls


class TestVectoredPread:
    """The buffered ``pread`` backend moves a run with one syscall: a
    read fills the run's one buffer through a single iovec, a write
    gathers the frames in place, one iovec per block."""

    BS = 512  # small blocks keep a run longer than IOV_MAX cheap

    def _device(self, tmp_path):
        return FileBlockDevice(tmp_path / "pages.db", mode="pread",
                               block_size=self.BS)

    def test_run_longer_than_iov_max_roundtrips(self, tmp_path):
        iov_max = os.sysconf("SC_IOV_MAX")
        n = 2 * iov_max + 7
        dev = self._device(tmp_path)
        first = dev.allocate(n)
        data = _payload(n, block_size=self.BS)
        with _iovecs() as calls:
            dev.write_blocks((first + i, data[i]) for i in range(n))
            out = dev.read_blocks(range(first, first + n))
        # The write splits at IOV_MAX buffers; the read is one iovec.
        assert calls == [("pwritev", iov_max), ("pwritev", iov_max),
                         ("pwritev", 7), ("preadv", 1)]
        assert dev.stats.write_calls == dev.stats.read_calls == 1
        assert dev.stats.syscalls == len(calls)
        assert np.array_equal(np.stack(out), data)
        dev.close()

    def test_syscalls_equal_device_calls_under_the_iovec_limit(
            self, tmp_path):
        dev = self._device(tmp_path)
        first = dev.allocate(40)
        data = _payload(40, block_size=self.BS)
        runs = [range(0, 16), range(20, 21), range(24, 40)]
        for run in runs:
            dev.write_blocks((first + i, data[i]) for i in run)
        for run in runs:
            out = dev.read_blocks([first + i for i in run])
            assert np.array_equal(np.stack(out), data[list(run)])
        assert dev.stats.calls == 6 == dev.stats.syscalls
        dev.close()

    def test_read_past_eof_is_zeros(self, tmp_path):
        dev = self._device(tmp_path)
        first = dev.allocate(6)
        dev.write_blocks((first + i, np.full(self.BS, 9, dtype=np.uint8))
                         for i in range(2))
        # Cut the file mid-block: block 1 is half there, 2.. are not.
        os.truncate(dev.path, self.BS + self.BS // 2)
        out = dev.read_blocks(range(first, first + 6))
        assert (out[0] == 9).all()
        assert (out[1][:self.BS // 2] == 9).all()
        assert not out[1][self.BS // 2:].any()
        assert not np.stack(out[2:]).any()
        assert dev.stats.syscalls == 2  # one write, one read
        dev.close()

    @pytest.mark.parametrize("mode", FILE_MODES)
    def test_a_run_is_read_into_one_buffer(self, tmp_path, mode):
        """The blocks of a run are the rows of one writable buffer the
        read filled; the pool keeps them as frames (and bounds what
        they keep alive, ``test_buffer_pool.TestRetention``)."""
        dev = FileBlockDevice(tmp_path / "pages.db", mode=mode,
                              block_size=self.BS)
        first = dev.allocate(8)
        data = _payload(8, self.BS)
        dev.write_blocks((first + i, data[i]) for i in range(8))
        with _iovecs() as calls:
            out = dev.read_blocks([first + i for i in (0, 1, 2, 5, 6)])
        assert calls == ([("preadv", 1)] * 2 if mode == "pread" else [])
        for rows in (out[:3], out[3:]):
            run = rows[0].base
            assert run.shape == (len(rows), self.BS) and run.flags.writeable
            assert all(row.base is run for row in rows)
        assert np.array_equal(np.stack(out), data[[0, 1, 2, 5, 6]])
        dev.close()

    def test_short_and_past_eof_reads_zero_fill(self, tmp_path):
        """A run the file ends inside reads its tail as zeros, and one
        wholly past the end reads all zeros — one syscall each, whatever
        the buffer held before."""
        dev = self._device(tmp_path)
        first = dev.allocate(8)
        dev.write_blocks((first + i, np.full(self.BS, 9, dtype=np.uint8))
                         for i in range(3))
        os.truncate(dev.path, 2 * self.BS + 100)
        with mock.patch.object(np, "empty", lambda shape, dtype: np.full(
                shape, 0xAB, dtype=dtype)):
            short = dev.read_blocks(range(first, first + 4))
            past = dev.read_blocks(range(first + 5, first + 8))
        assert (np.stack(short[:2]) == 9).all()
        assert (short[2][:100] == 9).all() and not short[2][100:].any()
        assert not short[3].any() and not np.stack(past).any()
        assert dev.stats.syscalls == 1 + 2
        dev.close()

    def test_non_contiguous_payload_is_written_whole(self, tmp_path):
        dev = self._device(tmp_path)
        first = dev.allocate(2)
        wide = _payload(2, block_size=2 * self.BS)
        dev.write_blocks((first + i, wide[i, ::2]) for i in range(2))
        out = dev.read_blocks([first, first + 1])
        assert np.array_equal(np.stack(out), wide[:, ::2])
        dev.close()


# ----------------------------------------------------------------------
# StorageConfig / parse_memory / URL form / factory
# ----------------------------------------------------------------------
class TestParseMemory:
    @pytest.mark.parametrize("text,expect", [
        (1234, 1234), ("1234", 1234), ("64KiB", 64 * 1024),
        ("64kb", 64_000), ("1.5MiB", 3 * 512 * 1024),
        ("2GiB", 2 * 1024 ** 3), ("8 MiB", 8 * 1024 ** 2),
    ])
    def test_values(self, text, expect):
        assert parse_memory(text) == expect

    @pytest.mark.parametrize("bad", ["", "MiB", "12XB", "1.2.3MB"])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_memory(bad)


class TestStorageConfig:
    def test_defaults_are_memory_backend(self):
        cfg = StorageConfig()
        assert cfg.backend == "memory" and cfg.path is None
        assert isinstance(create_device(cfg), BlockDevice)

    def test_memory_string_accepted(self):
        assert StorageConfig(memory_bytes="1MiB").memory_bytes == 1 << 20

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            StorageConfig(backend="tape")

    def test_with_options_returns_copy(self):
        cfg = StorageConfig()
        other = cfg.with_options(block_size=4096)
        assert other.block_size == 4096
        assert cfg.block_size != 4096 or cfg is not other

    @pytest.mark.parametrize("url", [None, "", "memory://", ":memory:"])
    def test_url_memory_forms(self, url):
        assert StorageConfig.from_url(url).backend == "memory"

    def test_url_bare_path_is_mmap(self, tmp_path):
        cfg = StorageConfig.from_url(tmp_path / "riot.db")
        assert cfg.backend == "mmap"
        assert cfg.path == str(tmp_path / "riot.db")

    def test_url_file_with_params(self):
        cfg = StorageConfig.from_url(
            "file:///tmp/riot.db?mode=pread&fsync=1&block_size=4096")
        assert cfg.backend == "pread" and cfg.path == "/tmp/riot.db"
        assert cfg.fsync and cfg.block_size == 4096

    def test_url_memory_override(self):
        cfg = StorageConfig.from_url("file:///tmp/r.db", memory="64MiB")
        assert cfg.memory_bytes == 64 << 20

    def test_url_unknown_param_rejected(self):
        for url in ("file:///tmp/r.db?compression=zstd",
                    "file:///tmp/r.db?readahead=8",
                    "memory://?readahead=8",
                    "file:///tmp/r.db?zero_copy=1",
                    "file:///tmp/r.db?policy=clock",
                    "file:///tmp/r.db?mode=pread&direct=1"):
            with pytest.raises(ValueError, match="parameter"):
                StorageConfig.from_url(url)

    @pytest.mark.parametrize("field", ["zero_copy", "direct"])
    def test_deleted_fields_rejected(self, field):
        with pytest.raises(TypeError, match=field):
            StorageConfig(**{field: True})

    def test_url_remote_host_rejected(self):
        with pytest.raises(ValueError, match="local"):
            StorageConfig.from_url("file://nas/share/r.db")

    def test_url_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="scheme"):
            StorageConfig.from_url("s3://bucket/r.db")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_factory_covers_every_backend(self, backend, tmp_path):
        cfg = StorageConfig(
            backend=backend,
            path=None if backend == "memory" else tmp_path / "p.db")
        dev = create_device(cfg)
        assert dev.backend == backend
        bid = dev.allocate(1)
        dev.write_block(bid, _payload(1)[0])
        assert np.array_equal(dev.read_block(bid), _payload(1)[0])
        dev.close()


class TestArrayStoreBudget:
    def test_below_minimum_raises_with_actual_minimum(self):
        with pytest.raises(ValueError) as err:
            ArrayStore(StorageConfig(memory_bytes=3 * 8192, block_size=8192))
        assert "4 blocks" in str(err.value)
        assert str(4 * 8192) in str(err.value)

    def test_exact_minimum_accepted(self):
        store = ArrayStore(StorageConfig(
            memory_bytes=4 * 8192, block_size=8192))
        assert store.pool.capacity == 4

    def test_no_silent_flooring(self):
        """The old max(4, ...) floor is gone: a budget that fits is
        honoured exactly."""
        store = ArrayStore(StorageConfig(
            memory_bytes=7 * 8192, block_size=8192))
        assert store.pool.capacity == 7


# ----------------------------------------------------------------------
# Cross-backend equivalence (the tentpole acceptance property)
# ----------------------------------------------------------------------
SIM_KEYS = ("seq_reads", "rand_reads", "seq_writes", "rand_writes",
            "read_calls", "write_calls", "coalesced_ios",
            "prefetched", "readahead_hits", "bytes_logical",
            "bytes_compressed")


def _sim_counts(stats):
    d = stats.as_dict()
    return {k: d[k] for k in SIM_KEYS}


def _run_workload(backend, codec, pattern, m, k, n, seed):
    """Force one DAG on a 6-block pool; return (values, sim counts)."""
    from repro.core import RiotSession
    cfg = StorageConfig(backend=backend, memory_bytes=6 * 8192,
                        block_size=8192, codec=codec)
    with RiotSession(storage=cfg) as s:
        g = np.random.default_rng(seed)
        a = s.matrix(g.standard_normal((m, k)))
        b = s.matrix(g.standard_normal((k, n)))
        c = s.matrix(g.standard_normal((m, n)))
        if pattern == "mm":
            out = a @ b
        elif pattern == "epilogue":
            out = (a @ b) * 0.5 + c
        elif pattern == "crossprod":
            out = a.T @ a
        else:  # chain
            out = (a @ b) @ c.T
        values = np.asarray(s.values(out))
        counts = _sim_counts(s.io_stats)
    return values, counts


@given(pattern=st.sampled_from(["mm", "epilogue", "crossprod",
                                "chain"]),
       codec=st.sampled_from(["raw", "delta+zstd"]),
       m=st.integers(33, 150), k=st.integers(33, 150),
       n=st.integers(33, 150), seed=st.integers(0, 2 ** 16))
@settings(max_examples=10, deadline=None)
def test_backends_bitwise_identical_and_same_block_counts(
        pattern, codec, m, k, n, seed):
    """Same DAG, same pool budget, same codec, three backends: the
    answers are bitwise identical and the *simulated* counters —
    blocks, calls and logical / stored bytes — agree exactly: the
    file devices only override the physical primitives, never the
    accounting."""
    ref_vals, ref_counts = _run_workload("memory", codec, pattern, m, k,
                                         n, seed)
    for backend in FILE_MODES:
        vals, counts = _run_workload(backend, codec, pattern, m, k, n,
                                     seed)
        assert np.array_equal(ref_vals, vals), backend
        assert counts == ref_counts, backend


@given(n=st.integers(300, 1200), seed=st.integers(0, 2 ** 16))
@settings(max_examples=10, deadline=None)
def test_vector_pipeline_identical_across_backends(n, seed):
    data = np.random.default_rng(seed).standard_normal(n)

    def run(backend):
        from repro.core import RiotSession
        cfg = StorageConfig(backend=backend, memory_bytes=4 * 8192,
                            block_size=8192)
        with RiotSession(storage=cfg) as s:
            x = s.vector(data)
            out = ((x - 3.0) ** 2.0).sqrt()[1: max(2, n // 2)]
            return np.asarray(s.values(out)), \
                _sim_counts(s.io_stats)

    ref = run("memory")
    for backend in FILE_MODES:
        vals, counts = run(backend)
        assert np.array_equal(ref[0], vals)
        assert ref[1] == counts


# ----------------------------------------------------------------------
# Persistence through the ArrayStore
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", FILE_MODES)
class TestPersistence:
    def test_arrays_survive_reopen(self, tmp_path, mode):
        """``P``, a raw matrix whose 32 x 32 tiles (grid 3 x 2) were
        written whole, written in part or never written, keeps its
        tile directory across reopen: a read fetches the pages of its
        written tiles only, and a never-written tile reads as zeros
        with no device read."""
        path = tmp_path / "riot.db"
        cfg = StorageConfig(backend=mode, path=path,
                            memory_bytes=16 * 8192)
        rng = np.random.default_rng(5)
        mat = rng.standard_normal((70, 40))
        vec = rng.standard_normal(2500)
        part = np.zeros_like(mat)
        part[:32] = mat[:32]
        part[40:50, 5:10] = mat[40:50, 5:10]
        with ArrayStore(storage=cfg) as store:
            store.matrix_from_numpy(mat, name="M",
                                    linearization="col")
            store.vector_from_numpy(vec, name="v")
            p = store.create_matrix(mat.shape, name="P",
                                    linearization="col")
            p.write_submatrix(0, 0, mat[:32])
            p.write_submatrix(40, 5, mat[40:50, 5:10])
            assert p.tile_dir.tolist() == [
                [STORED_RAW, STORED_RAW], [STORED_RAW, UNWRITTEN],
                [UNWRITTEN, UNWRITTEN]]
        assert path.exists()

        with ArrayStore(storage=cfg) as store:
            assert sorted(store.stored_names()) == ["M", "P", "v"]
            m2 = store.open_matrix("M")
            assert m2.linearization.name == "col"
            assert np.array_equal(m2.to_numpy(), mat)
            assert np.array_equal(store.open_vector("v").to_numpy(),
                                  vec)
            p2 = store.open_matrix("P")
            assert np.array_equal(p2.tile_dir, p.tile_dir)
            store.pool.clear()
            store.reset_stats()
            assert p2.to_numpy().tobytes() == part.tobytes()
            assert store.device.stats.reads == 3 * p2.pages_per_tile
            store.pool.clear()
            store.reset_stats()
            assert not p2.read_tile(2, 1).any()
            assert store.device.stats.reads == 0

    @pytest.mark.parametrize("codec", ["raw", "delta+zstd"])
    def test_an_older_manifest_entry_reattaches(self, tmp_path, mode,
                                                codec):
        """A manifest written before every matrix kept a tile directory
        held a matrix's as ``tile_dir``: a codec matrix's ``{position:
        payload length}`` over its written tiles, a raw matrix's always
        empty.  Such an entry reattaches with the same values — a raw
        matrix's tiles read as stored raw, a codec matrix's keep their
        states — and is written back in the current format."""
        path = tmp_path / "riot.db"
        cfg = StorageConfig(backend=mode, path=path,
                            memory_bytes=16 * 8192, codec=codec)
        data = np.arange(70 * 40, dtype=np.float64).reshape(70, 40)
        expect = np.zeros_like(data)
        expect[:32] = data[:32]
        with ArrayStore(storage=cfg) as store:
            m = store.create_matrix(data.shape, name="M",
                                    linearization="col")
            m.write_submatrix(0, 0, data[:32])
        directory = m.tile_dir
        meta_path = tmp_path / "riot.db.meta"
        meta = json.loads(meta_path.read_text())
        entry = meta["manifest"]["M"]
        del entry["tiles"]
        entry["tile_dir"] = {} if codec == "raw" else {
            str(m.linearization.index(ti, tj)): int(directory[ti, tj])
            for ti, tj in np.argwhere(directory >= STORED_RAW).tolist()}
        meta_path.write_text(json.dumps(meta))
        expected_dir = (np.full_like(directory, STORED_RAW)
                        if codec == "raw" else directory)
        for _ in range(2):
            with ArrayStore(storage=cfg) as store:
                again = store.open_matrix("M")
                assert np.array_equal(again.tile_dir, expected_dir)
                assert again.to_numpy().tobytes() == expect.tobytes()
            assert "tiles" in json.loads(
                meta_path.read_text())["manifest"]["M"]

    def test_wrong_kind_and_missing_names(self, tmp_path, mode):
        cfg = StorageConfig(backend=mode, path=tmp_path / "r.db",
                            memory_bytes=16 * 8192)
        with ArrayStore(storage=cfg) as store:
            store.vector_from_numpy(np.arange(10.0), name="v")
        with ArrayStore(storage=cfg) as store:
            with pytest.raises(KeyError, match="matrix"):
                store.open_matrix("v")
            with pytest.raises(KeyError, match="nope"):
                store.open_vector("nope")

    def test_temp_store_leaves_nothing_behind(self, mode):
        cfg = StorageConfig(backend=mode, memory_bytes=16 * 8192)
        store = ArrayStore(storage=cfg)
        store.vector_from_numpy(np.arange(100.0), name="v")
        path = store.device.path
        assert os.path.exists(path)
        store.close()
        store.close()  # idempotent
        assert not os.path.exists(path)
        assert not os.path.exists(path + ".meta")


def test_schema_version_in_stats_dict(tmp_path):
    dev = FileBlockDevice(tmp_path / "p.db", mode="pread")
    d = dev.stats.as_dict()
    assert d["schema_version"] == IO_SCHEMA_VERSION
    for key in ("read_ns", "write_ns", "bytes_read", "bytes_written",
                "syscalls", "seconds"):
        assert key in d
    dev.close()
