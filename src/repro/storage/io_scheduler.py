"""Prefetching I/O scheduler between :class:`BlockDevice` and the pool.

The paper's thesis is that I/O pattern — not CPU — decides out-of-core
performance.  A buffer pool on its own can only react, one block at a
time: a miss is one single-block device read and a dirty eviction one
single-block device write.  This module adds the three classic mechanisms
a storage stack uses to exploit *predictable* access patterns, and the
pool routes both directions through it — misses through :meth:`fetch`,
and the dirty victims of a whole pool call, parked until the call drains
them, through :meth:`write_back`:

1. **Sequential readahead.**  The scheduler watches demand accesses; once
   ``min_run`` consecutive block ids have been demanded, it speculatively
   schedules the next ``readahead_window`` blocks.  When demand reaches the
   readahead mark, the next window is scheduled, keeping a scan one window
   ahead of the consumer (the async-ahead scheme of OS readahead).
2. **Coalesced multi-block I/O.**  Every batch of block ids — speculative
   or hinted — is sorted and split into maximal runs of adjacent ids; each
   run moves in a single device call via
   :meth:`~repro.storage.block_device.BlockDevice.read_blocks` /
   ``write_blocks``.  On the write side the batches are ``flush`` and
   the pool's per-call drain of evicted dirty frames.
3. **Hint-driven prefetch.**  Operators that know their footprint
   (the streaming evaluator, ``square_tile_matmul``, tile scans) announce
   upcoming block keys through :meth:`BufferPool.prefetch` before reading
   them, so their misses become warm hits and their reads coalesce.

Accounting contract: prefetched blocks still count as device *reads* in
``IOStats`` — the scheduler's job is to change the number and size of
device *calls* (``read_calls``/``write_calls``/``coalesced_ios``), not the
block totals the cost models of :mod:`repro.core.costs` are validated
against.  In streaming regimes (one-pass scans, fused maps, out-of-core
matmul with footprints sized to memory) totals are exactly unchanged, and
``benchmarks/bench_prefetch.py`` asserts it.  Two bounded exceptions:
speculative readahead can overshoot the end of a scan by at most one
window (why ``readahead_window`` defaults to 0), and when a mid-sized
pool partially caches a *reused* working set, prefetch installs perturb
eviction order, which can shift a few hits to misses; any prefetched
frame evicted unread is counted in ``PoolStats.prefetch_wasted`` so the
drift is observable, never silent.

Concurrency contract: the scheduler has no lock of its own — every
entry point (``on_demand``, ``fetch``, ``write_back``) is invoked only
from :class:`~repro.storage.buffer_pool.BufferPool` methods that hold
the pool's lock, so its run-detection state and stats are serialized
by that lock.  Do not call it directly from worker threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .block_device import BlockDevice

#: Default number of blocks scheduled ahead of a detected sequential run.
DEFAULT_READAHEAD_WINDOW = 8

#: Consecutive demanded blocks required before readahead kicks in.
DEFAULT_MIN_RUN = 2


@dataclass
class SchedulerStats:
    """Counters for the scheduler's own decisions (not block movement).

    ``IOStats`` counts what moved and ``PoolStats`` counts residency;
    this records *why* — how often readahead triggered and how much was
    announced via hints — so the metrics registry can report coalescing
    behavior per session.
    """

    readahead_triggers: int = 0  # sequential runs that launched a window
    hint_batches: int = 0        # prefetch() calls that reached fetch
    hinted_blocks: int = 0       # blocks announced across those batches
    coalesced_batches: int = 0   # multi-block fetch/write_back batches

    def as_dict(self) -> dict[str, int]:
        return {f: int(getattr(self, f)) for f in _SCHED_FIELDS}

    def snapshot(self) -> "SchedulerStats":
        return SchedulerStats(
            **{f: getattr(self, f) for f in _SCHED_FIELDS})

    def delta(self, earlier: "SchedulerStats") -> "SchedulerStats":
        return SchedulerStats(
            **{f: getattr(self, f) - getattr(earlier, f)
               for f in _SCHED_FIELDS})


_SCHED_FIELDS = ("readahead_triggers", "hint_batches", "hinted_blocks",
                 "coalesced_batches")


class IOScheduler:
    """Schedules device I/O for a buffer pool: batching plus readahead.

    The scheduler is deliberately stateless about *residency* — the pool
    owns frames, pins, and eviction.  The pool asks the scheduler two
    questions (``on_demand``: "given this access, what should I read
    ahead?" and ``fetch``/``write_back``: "move these blocks efficiently")
    and keeps the answers honest by filtering out already-resident keys.
    """

    def __init__(self, device: BlockDevice,
                 readahead_window: int = 0,
                 min_run: int = DEFAULT_MIN_RUN,
                 enabled: bool = True) -> None:
        if readahead_window < 0:
            raise ValueError(
                f"readahead_window must be >= 0, got {readahead_window}")
        if min_run < 1:
            raise ValueError(f"min_run must be >= 1, got {min_run}")
        self.device = device
        self.readahead_window = readahead_window
        self.min_run = min_run
        self.enabled = enabled
        self.stats = SchedulerStats()
        self._last_demand: int | None = None
        self._run_len = 0
        self._ra_mark: int | None = None

    # ------------------------------------------------------------------
    # Sequential-run detection
    # ------------------------------------------------------------------
    def on_demand(self, block_id: int, *, miss: bool) -> list[int]:
        """Record a demand access; return block ids worth reading ahead.

        Candidates may include already-resident blocks — the pool filters
        those before fetching.  An empty list means "no speculation".
        """
        if self._last_demand is not None \
                and block_id == self._last_demand + 1:
            self._run_len += 1
        else:
            self._run_len = 1
        self._last_demand = block_id
        if not self.enabled or self.readahead_window <= 0:
            return []
        # Trigger on a miss that extends a run, or on demand reaching the
        # mark left by the previous readahead (pipelined streaming).
        if miss:
            if self._run_len < self.min_run:
                return []
        elif block_id != self._ra_mark:
            return []
        lo = block_id + 1
        hi = min(lo + self.readahead_window, self.device.allocated_blocks)
        if hi <= lo:
            return []
        self._ra_mark = hi - 1
        self.stats.readahead_triggers += 1
        return list(range(lo, hi))

    def reset(self) -> None:
        """Forget the current run (e.g. after the pool is cleared)."""
        self._last_demand = None
        self._run_len = 0
        self._ra_mark = None

    # ------------------------------------------------------------------
    # Batched transfers
    # ------------------------------------------------------------------
    def fetch(self, block_ids: list[int],
              n_speculative: int = 0) -> dict[int, np.ndarray]:
        """Read blocks, coalescing adjacent ids into single device calls.

        The *last* ``n_speculative`` entries of ``block_ids`` are the
        speculative ones (callers append them after the demanded ids);
        they are charged to the ``prefetched`` counter after dedup
        against the demand ids and each other, so an id that is both
        demanded and speculated — or speculated twice — counts once.
        All ids count as ordinary block reads either way.
        """
        ids = sorted(set(block_ids))
        if not ids:
            return {}
        if len(ids) > 1:
            self.stats.coalesced_batches += 1
        if self.enabled:
            arrays = self.device.read_blocks(ids)
        else:
            arrays = [self.device.read_block(b) for b in ids]
        if n_speculative:
            demand = block_ids[:len(block_ids) - n_speculative]
            speculative = set(block_ids[len(block_ids) - n_speculative:])
            n_spec = len(speculative.difference(demand))
            self.device.stats.prefetched += n_spec
            if n_spec:
                self.stats.hint_batches += 1
                self.stats.hinted_blocks += n_spec
        return dict(zip(ids, arrays))

    def write_back(self, items: list[tuple[int, np.ndarray]]) -> None:
        """Write blocks, coalescing adjacent ids into single device calls."""
        if not items:
            return
        items = sorted(items, key=lambda kv: kv[0])
        if len(items) > 1:
            self.stats.coalesced_batches += 1
            if self.enabled:
                self.device.write_blocks(items)
                return
        # A lone block is one call either way, and write_block is the
        # cheaper way to issue it.
        for bid, data in items:
            self.device.write_block(bid, data)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"IOScheduler(window={self.readahead_window}, "
                f"min_run={self.min_run}, enabled={self.enabled})")
