"""Prefetching I/O scheduler between :class:`BlockDevice` and the pool.

The paper's thesis is that I/O pattern — not CPU — decides out-of-core
performance.  A buffer pool on its own can only react, one block at a
time: a miss is one single-block device read and a dirty eviction one
single-block device write.  This module adds the two mechanisms a
storage stack uses to exploit access patterns it is *told* about, and
the pool routes both directions through it — misses and hints through
:meth:`fetch`, and the dirty victims of a whole pool call, parked until
the call drains them, through :meth:`write_back`:

1. **Hint-driven prefetch.**  Operators know their footprint from the
   expression, so it is announced through :meth:`BufferPool.prefetch`
   before it is read, and the misses become warm hits.  The announcers
   are the callers lint rule ``RPR009`` allows — the schedule runner
   (``run_steps``) for every dense kernel's steps, the evaluator's
   window loop and the sparse kernels — plus the tile store's own
   reads and scans (``read_submatrix``, a partial tile's
   read-modify-write, vector scans and gathers).  Nothing is read on
   a guess: a demand miss fetches exactly the block asked for.
2. **Coalesced multi-block I/O.**  Every batch of block ids is sorted
   and split into maximal runs of adjacent ids; each run moves in a
   single device call via
   :meth:`~repro.storage.block_device.BlockDevice.read_blocks` /
   ``write_blocks``.  On the write side the batches are ``flush`` and
   the pool's per-call drain of evicted dirty frames.

Accounting contract: prefetched blocks still count as device *reads* in
``IOStats`` — the scheduler's job is to change the number and size of
device *calls* (``read_calls``/``write_calls``/``coalesced_ios``), not the
block totals the cost models of :mod:`repro.core.costs` are validated
against.  In streaming regimes (one-pass scans, fused maps, out-of-core
matmul with footprints sized to memory) totals are exactly unchanged,
and ``tests/storage/test_io_scheduler.py`` asserts it against the
disabled scheduler.  One bounded exception: when a mid-sized pool
partially caches a *reused* working set, prefetch installs perturb
eviction order, which can shift a few hits to misses; any prefetched
frame evicted unread is counted in ``PoolStats.prefetch_wasted`` so the
drift is observable, never silent.

Concurrency contract: the scheduler has no lock of its own — every
entry point (``fetch``, ``write_back``) is invoked only from
:class:`~repro.storage.buffer_pool.BufferPool` methods that hold the
pool's lock, so its stats are serialized by that lock.  Do not call it
directly from another thread.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .block_device import BlockDevice, coalesce_runs


def _run_buffer(rows: list[np.ndarray]) -> np.ndarray:
    """The ``(len(rows), block_size)`` buffer a device run filled —
    the rows' common base — or, for a device that hands out blocks
    some other way, the rows stacked into one."""
    buf = rows[0].base
    if (isinstance(buf, np.ndarray)
            and buf.shape == (len(rows), rows[0].size)):
        return buf
    return np.stack(rows)


@dataclass
class SchedulerStats:
    """Counters for the scheduler's own decisions (not block movement).

    ``IOStats`` counts what moved and ``PoolStats`` counts residency;
    this records *why* — how much was announced via hints and how many
    batches coalesced — so the metrics registry can report coalescing
    behavior per session.  ``readahead_triggers`` is always 0: the macro
    benchmark still reads it.
    """

    readahead_triggers: int = 0  # always 0; read by the macro benchmark
    hint_batches: int = 0        # prefetch() calls that reached fetch
    hinted_blocks: int = 0       # blocks announced across those batches
    coalesced_batches: int = 0   # multi-block read/write_blocks batches

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
    """Schedules device I/O for a buffer pool: coalesced batches.

    The scheduler is deliberately stateless about *residency* — the pool
    owns frames and eviction, and filters out already-resident
    keys before it asks the scheduler to move anything.

    ``enabled=False`` is the hint-free reference path: the pool ignores
    every :meth:`BufferPool.prefetch` hint and the scheduler moves one
    block per device call.  Tests compare hinted runs against it — block
    totals and result bits must match, only call counts may differ — so
    it stays although no workload runs with it.
    """

    def __init__(self, device: BlockDevice, enabled: bool = True) -> None:
        self.device = device
        self.enabled = enabled
        self.stats = SchedulerStats()

    def on_demand(self, block_id: int, *, miss: bool) -> list[int]:
        """Uncalled; kept only for the macro benchmark's wrap table."""
        return []

    # ------------------------------------------------------------------
    # Batched transfers
    # ------------------------------------------------------------------
    def fetch(self, block_ids: list[int], hinted: bool = False
              ) -> list[tuple[int, np.ndarray]]:
        """Read blocks, coalescing adjacent ids into single device calls.

        Returns one ``(first id, (length, block_size) buffer)`` per
        run, in id order: the buffer the device filled, whose rows the
        pool installs as frames.  ``hinted`` marks a prefetch batch:
        each distinct id is charged once to the ``prefetched`` counter.
        All ids count as ordinary block reads either way.
        """
        ids = sorted(set(block_ids))
        if not ids:
            return []
        if self.enabled:
            if len(ids) > 1:
                self.stats.coalesced_batches += 1
            rows = self.device.read_blocks(ids)
            runs: list[tuple[int, np.ndarray]] = []
            at = 0
            for first, length in coalesce_runs(ids):
                runs.append((first, _run_buffer(rows[at:at + length])))
                at += length
        else:
            runs = [(b, self.device.read_block(b)[None]) for b in ids]
        if hinted:
            self.device.stats.prefetched += len(ids)
            self.stats.hint_batches += 1
            self.stats.hinted_blocks += len(ids)
        return runs

    def write_back(self, items: list[tuple[int, np.ndarray]]) -> None:
        """Write blocks, coalescing adjacent ids into single device calls."""
        if not items:
            return
        items = sorted(items, key=itemgetter(0))
        if len(items) > 1 and self.enabled:
            self.stats.coalesced_batches += 1
            self.device.write_blocks(items)
            return
        # A lone block is one call either way, and write_block is the
        # cheaper way to issue it.
        for bid, data in items:
            self.device.write_block(bid, data)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"IOScheduler(enabled={self.enabled})"
