"""Block devices with exact I/O accounting.

Everything in this repository that touches "disk" does so through a
:class:`BlockDevice`.  The base device stores fixed-size blocks in memory
and keeps precise counters of how many blocks were read and written,
classified as *sequential* or *random* based on the distance from the
previously accessed block.  :class:`~repro.storage.file_device.
FileBlockDevice` subclasses it to move the same blocks through a real
page file on disk (``mmap`` or ``os.pread``/``os.pwrite``); all
accounting, run coalescing, and classification live here in the base, so
every backend reports **identical simulated block counts** for the same
access sequence — only the wall-clock and syscall counters differ.

This is the reproduction's substitute for the paper's DTrace measurements:
instead of sampling a live Solaris kernel, every subsystem (the virtual-memory
pager standing in for plain R, the relational engine standing in for MySQL,
and the tiled array store of next-generation RIOT) performs its I/O through
the same counted device, so the numbers behind Figure 1(a) and Figure 3 are
exact and reproducible.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

#: Default block size in bytes.  8 KB = 1024 float64 values, matching the
#: paper's Figure 3 setting of B = 1024 scalars per block.
DEFAULT_BLOCK_SIZE = 8192

#: Number of float64 scalars per default block.
SCALARS_PER_BLOCK = DEFAULT_BLOCK_SIZE // 8


@dataclass
class IOStats:
    """Counters for block-level I/O, split by direction and locality.

    ``seq_*``/``rand_*`` count *blocks transferred* — the unit every cost
    model in :mod:`repro.core.costs` is stated in.  The scheduler-era
    counters below track *how* those blocks moved:

    - ``read_calls``/``write_calls``: device operations issued.  A
      coalesced run of adjacent blocks moves many blocks in one call, so
      ``read_calls <= reads`` always holds.
    - ``coalesced_ios``: blocks that rode along in a preceding adjacent
      block's call instead of costing their own (``reads + writes -
      read_calls - write_calls``).
    - ``prefetched``: blocks transferred ahead of demand by an announced
      ``BufferPool.prefetch`` hint.  They still count in ``reads`` —
      prefetching changes call shape, never block totals.
    - ``readahead_hits``: buffer-pool hits served from a frame that a
      prefetch brought in.

    The backend-era counters (schema v2) record what the blocks *cost*
    on the device actually serving them:

    - ``read_ns``/``write_ns``: wall-clock nanoseconds spent inside the
      backend's physical read/write primitives.  On the in-memory
      backend this is memcpy time; on a file backend it includes the
      page cache and, with ``fsync``, the disk.
    - ``bytes_read``/``bytes_written``: bytes transferred (blocks times
      block size — the byte axis the TritanDB-style compressed-storage
      follow-on will decouple from block counts).
    - ``syscalls``: real I/O system calls issued (``pread``/``pwrite``/
      ``fsync``/``msync``).  Zero on the memory backend; on the
      ``pread`` backend this is the number the scheduler's coalescing
      visibly shrinks.

    The compression-era counters (schema v3) decouple the byte axis
    from block counts for codec-compressed tiles (see
    :mod:`repro.storage.codecs`):

    - ``bytes_logical``: uncompressed scalar bytes moved through
      codec-aware tile reads/writes (what the kernels consumed).
    - ``bytes_compressed``: the bytes those same transfers actually
      put on the device after encoding.  With codec ``raw`` both stay
      zero; :attr:`compression_ratio` is their quotient.
    """

    seq_reads: int = 0
    rand_reads: int = 0
    seq_writes: int = 0
    rand_writes: int = 0
    read_calls: int = 0
    write_calls: int = 0
    coalesced_ios: int = 0
    prefetched: int = 0
    readahead_hits: int = 0
    read_ns: int = 0
    write_ns: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    syscalls: int = 0
    bytes_logical: int = 0
    bytes_compressed: int = 0

    @property
    def reads(self) -> int:
        return self.seq_reads + self.rand_reads

    @property
    def writes(self) -> int:
        return self.seq_writes + self.rand_writes

    @property
    def total(self) -> int:
        return self.reads + self.writes

    @property
    def calls(self) -> int:
        """Device operations issued (coalesced runs count once)."""
        return self.read_calls + self.write_calls

    @property
    def seconds(self) -> float:
        """Wall-clock seconds spent in the backend's I/O primitives."""
        return (self.read_ns + self.write_ns) / 1e9

    @property
    def compression_ratio(self) -> float:
        """Measured compressed/logical byte ratio for codec traffic.

        1.0 when no codec traffic happened (codec ``raw`` everywhere),
        so multiplying a block-count cost by this ratio is always safe.
        """
        if self.bytes_logical <= 0:
            return 1.0
        return self.bytes_compressed / self.bytes_logical

    def bytes_total(self, block_size: int = DEFAULT_BLOCK_SIZE) -> int:
        return self.total * block_size

    def mb_total(self, block_size: int = DEFAULT_BLOCK_SIZE) -> float:
        return self.bytes_total(block_size) / (1024.0 * 1024.0)

    def as_dict(self) -> dict[str, int | float]:
        """Counters plus derived totals under the shared JSON schema.

        Every ``benchmarks/bench_*.py`` emits this exact shape in its
        ``extra_info["io"]`` so the CI artifact job can validate and
        aggregate results uniformly (see ``benchmarks/check_schema.py``
        and ``IOSTATS_SCHEMA_KEYS``).  Schema v2 added the wall-clock
        and byte counters plus the self-describing ``schema_version``
        key, so one JSON shape carries both the simulated block counts
        and the measured backend seconds (the dual report).
        """
        out: dict[str, int | float] = {
            f: int(getattr(self, f)) for f in _IOSTAT_FIELDS}
        out["reads"] = self.reads
        out["writes"] = self.writes
        out["total"] = self.total
        out["calls"] = self.calls
        out["seconds"] = round(self.seconds, 9)
        out["compression_ratio"] = round(self.compression_ratio, 9)
        out["schema_version"] = IO_SCHEMA_VERSION
        return out

    def snapshot(self) -> "IOStats":
        return IOStats(**{f: getattr(self, f) for f in _IOSTAT_FIELDS})

    def delta(self, earlier: "IOStats") -> "IOStats":
        """Return the I/O performed since ``earlier`` (a prior snapshot)."""
        return IOStats(**{f: getattr(self, f) - getattr(earlier, f)
                          for f in _IOSTAT_FIELDS})

    def merged(self, other: "IOStats") -> "IOStats":
        return IOStats(**{f: getattr(self, f) + getattr(other, f)
                          for f in _IOSTAT_FIELDS})

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (f"IOStats(reads={self.reads} [seq={self.seq_reads}, "
                f"rand={self.rand_reads}], writes={self.writes} "
                f"[seq={self.seq_writes}, rand={self.rand_writes}], "
                f"calls={self.calls} [coalesced={self.coalesced_ios}], "
                f"prefetched={self.prefetched}, "
                f"readahead_hits={self.readahead_hits})")


_IOSTAT_FIELDS = ("seq_reads", "rand_reads", "seq_writes", "rand_writes",
                  "read_calls", "write_calls", "coalesced_ios",
                  "prefetched", "readahead_hits", "read_ns", "write_ns",
                  "bytes_read", "bytes_written", "syscalls",
                  "bytes_logical", "bytes_compressed")

#: Version of the shared benchmark io schema.  v1 carried block and call
#: counters only; v2 added wall-clock (``read_ns``/``write_ns``/
#: ``seconds``), byte, and ``syscalls`` counters so every benchmark
#: dual-reports simulated blocks *and* real-backend seconds; v3 added
#: the codec byte axis (``bytes_logical``/``bytes_compressed``/
#: ``compression_ratio``) so compressed-storage runs report how many
#: device bytes the codec saved.
IO_SCHEMA_VERSION = 3

#: Keys every benchmark's ``extra_info["io"]`` must carry — the shared
#: JSON schema of the CI benchmark artifacts.
IOSTATS_SCHEMA_KEYS = _IOSTAT_FIELDS + ("reads", "writes", "total",
                                        "calls", "seconds",
                                        "compression_ratio",
                                        "schema_version")


def coalesce_runs(block_ids: list[int]) -> list[tuple[int, int]]:
    """Group block ids into maximal runs of consecutive ids.

    Returns ``(first_id, run_length)`` pairs in input order.  Runs only
    form across adjacent ids in the given sequence — callers wanting
    maximal coalescing should sort first.
    """
    n = len(block_ids)
    if n and block_ids[-1] - block_ids[0] == n - 1 and \
            list(range(block_ids[0], block_ids[0] + n)) == block_ids:
        return [(block_ids[0], n)]       # already one run
    runs: list[list[int]] = []           # [first, length]
    for bid in block_ids:
        if runs and bid == runs[-1][0] + runs[-1][1]:
            runs[-1][1] += 1
        else:
            runs.append([bid, 1])
    return [(first, length) for first, length in runs]


class BlockDevice:
    """An in-memory block store that counts every access.

    Blocks are numpy byte buffers of a fixed size.  A read or write is
    *sequential* when it targets the block immediately following the last
    accessed block, and *random* otherwise.  This matches how the paper
    distinguishes MySQL's "mostly bulky and sequential" I/O from the random
    page faults plain R suffers under virtual-memory thrashing.

    All physical storage flows through four overridable primitives —
    :meth:`_read_run`, :meth:`_write_run`, :meth:`_discard_run`, and
    :meth:`_sync_backend` — while classification, run accounting, and
    timing stay here.  A subclass that only overrides the primitives
    (``FileBlockDevice``) therefore produces bit-identical data and
    identical simulated block counts; what changes is where the bytes
    live and what ``read_ns``/``write_ns``/``syscalls`` record.
    """

    #: Identifier recorded in benchmark dual reports ("memory", "mmap",
    #: "pread").
    backend = "memory"

    def __init__(self, block_size: int = DEFAULT_BLOCK_SIZE,
                 name: str = "disk") -> None:
        if block_size <= 0:
            raise ValueError(f"block_size must be positive, got {block_size}")
        self.block_size = block_size
        self.name = name
        self.stats = IOStats()
        self._blocks: dict[int, np.ndarray] = {}
        self._next_block_id = 0
        self._last_accessed: int | None = None
        # Allocation is the one device entry point not serialized by the
        # buffer pool's lock (array stores may allocate from any
        # thread), so the cursor gets its own lock.  All transfer paths
        # stay single-threaded: they are only reached from inside
        # BufferPool methods, which hold the pool lock.
        self._alloc_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def allocate(self, n_blocks: int = 1) -> int:
        """Reserve ``n_blocks`` consecutive block ids; return the first id.

        Allocation itself performs no I/O — blocks come into existence on
        first write, the same way a filesystem extends a file.
        """
        if n_blocks <= 0:
            raise ValueError(f"n_blocks must be positive, got {n_blocks}")
        with self._alloc_lock:
            first = self._next_block_id
            self._next_block_id += n_blocks
        return first

    def free(self, block_id: int, n_blocks: int = 1) -> None:
        """Drop stored contents for a block range (no I/O is charged)."""
        self._discard_run(block_id, n_blocks)

    @property
    def allocated_blocks(self) -> int:
        return self._next_block_id

    @property
    def resident_blocks(self) -> int:
        """Blocks that have actually been written at least once."""
        return len(self._blocks)

    # ------------------------------------------------------------------
    # Physical storage primitives (overridden by file backends)
    # ------------------------------------------------------------------
    def _read_run(self, first: int, length: int) -> np.ndarray:
        """Materialize ``length`` consecutive blocks as one writable
        ``(length, block_size)`` buffer that owns its memory; row ``k``
        is block ``first + k``."""
        out = np.empty((length, self.block_size), dtype=np.uint8)
        for k in range(length):
            out[k] = self._fetch(first + k)
        return out

    def _write_run(self, first: int, bufs: list[np.ndarray]) -> None:
        """Persist consecutive blocks (each buffer is one full block)."""
        for k, buf in enumerate(bufs):
            self._blocks[first + k] = buf.copy()

    def _discard_run(self, first: int, length: int) -> None:
        for bid in range(first, first + length):
            self._blocks.pop(bid, None)

    def _sync_backend(self) -> None:
        """Make written blocks durable (no-op for the memory backend)."""

    # ------------------------------------------------------------------
    # Timed wrappers: every physical transfer is clocked and sized here,
    # so the wall-clock/byte counters mean the same thing on every
    # backend.
    # ------------------------------------------------------------------
    def _timed_read(self, first: int, length: int) -> np.ndarray:
        t0 = time.perf_counter_ns()
        out = self._read_run(first, length)
        self.stats.read_ns += time.perf_counter_ns() - t0
        self.stats.bytes_read += length * self.block_size
        return out

    def _timed_write(self, first: int, bufs: list[np.ndarray]) -> None:
        t0 = time.perf_counter_ns()
        self._write_run(first, bufs)
        self.stats.write_ns += time.perf_counter_ns() - t0
        self.stats.bytes_written += len(bufs) * self.block_size

    # ------------------------------------------------------------------
    # Durability / lifecycle (meaningful on file backends)
    # ------------------------------------------------------------------
    def sync(self) -> None:
        """Flush written blocks to stable storage."""
        t0 = time.perf_counter_ns()
        self._sync_backend()
        self.stats.write_ns += time.perf_counter_ns() - t0

    def close(self) -> None:
        """Release backend resources.  The memory backend keeps nothing."""

    # ------------------------------------------------------------------
    # I/O
    # ------------------------------------------------------------------
    def _classify(self, block_id: int) -> bool:
        """Return True when the access to ``block_id`` is sequential."""
        sequential = (self._last_accessed is not None
                      and block_id == self._last_accessed + 1)
        self._last_accessed = block_id
        return sequential

    def read_block(self, block_id: int) -> np.ndarray:
        """Read one block, charging one read I/O.

        Reading a block that was never written returns zeros, mirroring a
        sparse file.
        """
        self._check_id(block_id)
        if self._classify(block_id):
            self.stats.seq_reads += 1
        else:
            self.stats.rand_reads += 1
        self.stats.read_calls += 1
        return self._timed_read(block_id, 1)[0]

    def read_blocks(self, block_ids: list[int]) -> list[np.ndarray]:
        """Read many blocks, coalescing adjacent ids into single I/Os.

        Each maximal run of consecutive ids costs one device call moving
        ``run_length`` blocks: the first block of a run is classified
        against the previous access, the rest are sequential by
        construction.  Block *totals* are identical to calling
        :meth:`read_block` once per id — only the call count shrinks.
        A run arrives in one buffer: the blocks it returns are the rows
        of that ``(run_length, block_size)`` array (``row.base``).
        """
        out: list[np.ndarray] = []
        for first, length in coalesce_runs(list(block_ids)):
            self._check_id(first)
            self._check_id(first + length - 1)
            if self._classify(first):
                self.stats.seq_reads += 1
            else:
                self.stats.rand_reads += 1
            self.stats.seq_reads += length - 1
            self.stats.read_calls += 1
            self.stats.coalesced_ios += length - 1
            self._last_accessed = first + length - 1
            out.extend(self._timed_read(first, length))
        return out

    def write_block(self, block_id: int, data: np.ndarray) -> None:
        """Write one block, charging one write I/O."""
        self._check_id(block_id)
        buf = self._coerce(data)
        if self._classify(block_id):
            self.stats.seq_writes += 1
        else:
            self.stats.rand_writes += 1
        self.stats.write_calls += 1
        self._timed_write(block_id, [buf])

    def write_blocks(self, items: list[tuple[int, np.ndarray]]) -> None:
        """Write many blocks, coalescing adjacent ids into single I/Os.

        ``items`` is a list of ``(block_id, data)`` pairs; accounting
        mirrors :meth:`read_blocks`.
        """
        items = list(items)
        bufs = [self._coerce(data) for _, data in items]
        at = 0
        for first, length in coalesce_runs([bid for bid, _ in items]):
            self._check_id(first)
            self._check_id(first + length - 1)
            if self._classify(first):
                self.stats.seq_writes += 1
            else:
                self.stats.rand_writes += 1
            self.stats.seq_writes += length - 1
            self.stats.write_calls += 1
            self.stats.coalesced_ios += length - 1
            self._last_accessed = first + length - 1
            self._timed_write(first, bufs[at:at + length])
            at += length

    def _fetch(self, block_id: int) -> np.ndarray:
        """The stored bytes of a block (zeros if never written), not a
        copy: callers copy them out."""
        block = self._blocks.get(block_id)
        if block is None:
            return np.zeros(self.block_size, dtype=np.uint8)
        return block

    def _coerce(self, data: np.ndarray) -> np.ndarray:
        """Validate and zero-pad write payloads to one full,
        contiguous block (what a vectored write can gather from)."""
        if (type(data) is np.ndarray and data.dtype == np.uint8
                and data.shape == (self.block_size,)
                and data.flags.c_contiguous):
            return data                  # a frame: already one block
        buf = np.ascontiguousarray(data, dtype=np.uint8)
        if buf.size > self.block_size:
            raise ValueError(
                f"data of {buf.size} bytes exceeds block size "
                f"{self.block_size}")
        if buf.size < self.block_size:
            padded = np.zeros(self.block_size, dtype=np.uint8)
            padded[:buf.size] = buf
            buf = padded
        return buf

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def reset_stats(self) -> None:
        self.stats = IOStats()
        self._last_accessed = None

    def _check_id(self, block_id: int) -> None:
        if block_id < 0 or block_id >= self._next_block_id:
            raise IndexError(
                f"block {block_id} outside allocated range "
                f"[0, {self._next_block_id})")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"BlockDevice(name={self.name!r}, block_size="
                f"{self.block_size}, allocated={self.allocated_blocks})")


@dataclass
class SimClock:
    """Deterministic performance model for Figure 1(b).

    The paper measured wall-clock seconds on a 2005-era Opteron with local
    disks.  We cannot thrash a modern container the same way, so simulated
    time is derived from counted events using per-event costs roughly matching
    that hardware class:

    - a random block access pays a seek+rotate latency (~8 ms),
    - a sequential block access pays transfer time only (~0.13 ms for 8 KB at
      ~60 MB/s),
    - each scalar CPU operation pays ~2 ns.

    Only the *ratios* matter for reproducing the figure's shape; EXPERIMENTS.md
    records the constants used.
    """

    seq_io_cost: float = 0.00013
    rand_io_cost: float = 0.008
    cpu_op_cost: float = 2e-9
    cpu_ops: int = 0

    def charge_cpu(self, n_ops: int) -> None:
        self.cpu_ops += int(n_ops)

    def seconds(self, io: IOStats) -> float:
        """Simulated seconds for the given I/O counters plus charged CPU."""
        seq = io.seq_reads + io.seq_writes
        rand = io.rand_reads + io.rand_writes
        return (seq * self.seq_io_cost + rand * self.rand_io_cost
                + self.cpu_ops * self.cpu_op_cost)
