"""Intra-query parallelism: tile-level kernel workers.

The evaluator runs a plan's operators one at a time, on the calling
thread.  :class:`TileParallelism` parallelizes the *inside* of one
kernel — ``square_tile_matmul``, ``crossprod_matmul`` and ``spmm``
hand it an ordered stream of pure GEMM thunks while the calling thread
keeps issuing the kernel's ``pool.prefetch()`` footprints and block
reads untouched, overlapping one panel's BLAS (which releases the GIL)
with the next panel's I/O.  This module is the only place a
``ThreadPoolExecutor`` is built (lint rule ``RPR007``).

Determinism contract
--------------------

*Results are bitwise-identical at every parallelism level*, by
construction: every pool/device interaction stays on the calling
thread in the exact serial order (the thunk stream is consumed lazily,
so reads interleave with submissions exactly as the serial loop would
issue them), workers compute pure ``a @ b`` partial products, and the
caller accumulates the results in increasing-``k`` order — the same
float additions in the same order as the serial kernel.  Consequently
*simulated block counts are also identical* at any worker count, in
total and in every operator's exclusive ``op.measured``.

BLAS interplay: workers pin OpenBLAS/MKL to one thread via
``threadpoolctl`` when it is installed (a no-op otherwise) so N kernel
workers don't oversubscribe cores by another BLAS-internal factor.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator

#: Environment variable consulted when OptimizerConfig.parallelism is
#: None (the default): the worker count inside the kernels.
PARALLELISM_ENV = "REPRO_PARALLELISM"

#: Upper bound on workers — far above any sane setting; a typo like
#: REPRO_PARALLELISM=1000 should not spawn a thousand threads.
MAX_WORKERS = 64


def resolve_parallelism(value: int | None = None) -> int:
    """Resolve a parallelism setting to a concrete worker count.

    ``None`` defers to ``$REPRO_PARALLELISM`` (default 1 = serial).
    Values are validated (>= 1) and clamped to :data:`MAX_WORKERS`.
    """
    if value is None:
        raw = os.environ.get(PARALLELISM_ENV, "").strip()
        if not raw:
            return 1
        try:
            value = int(raw)
        except ValueError as exc:
            raise ValueError(
                f"{PARALLELISM_ENV} must be an integer, got {raw!r}"
            ) from exc
    value = int(value)
    if value < 1:
        raise ValueError(f"parallelism must be >= 1, got {value}")
    return min(value, MAX_WORKERS)


@contextmanager
def single_threaded_blas() -> Iterator[None]:
    """Pin BLAS to one thread inside a worker, when threadpoolctl is
    available; otherwise a documented no-op (set OPENBLAS_NUM_THREADS=1
    / MKL_NUM_THREADS=1 externally on multithreaded-BLAS hosts)."""
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        yield
        return
    with threadpool_limits(limits=1):
        yield


class TileParallelism:
    """Ordered accumulation of kernel partial products over workers.

    :func:`accumulate` consumes ``thunks`` — zero-arg callables, each
    returning one partial product — *on the calling thread*, so any
    I/O embedded in producing the thunk stream (prefetch hints, block
    reads) happens in serial order.  Thunks run on the worker pool;
    results are folded into ``acc`` strictly in submission order with a
    bounded in-flight window (workers + 1), which bounds the extra
    memory to a couple of panels while keeping every worker busy.
    """

    def __init__(self, workers: int) -> None:
        self.workers = resolve_parallelism(workers)
        self.window = self.workers + 1
        self._executor: ThreadPoolExecutor | None = None
        if self.workers > 1:
            self._executor = ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix="riot-tile")

    def shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    @staticmethod
    def _run(fn: Callable):
        with single_threaded_blas():
            return fn()


def accumulate(parallel: TileParallelism | None, acc,
               thunks: Iterable[Callable]):
    """``for fn in thunks: acc += fn()`` — with ``fn()`` offloaded to
    ``parallel``'s workers when it has any.

    The one fold every kernel uses (``square_tile_matmul``,
    ``crossprod_matmul``, ``spmm``); ``parallel`` is ``None`` or a
    :class:`TileParallelism`.  The thunk stream is consumed lazily on
    the calling thread either way, so the prefetch hints and block
    reads embedded in producing each thunk run in exact serial order.
    In-order fold: bitwise-identical to the serial loop (numpy
    evaluates each product to a temporary, then adds in place —
    exactly what the serial kernel does).  Fold targets may override
    ``+=`` to route each product (the kernels' ``_Fold`` / ``_RowFold``).
    """
    executor = parallel._executor if parallel is not None else None
    if executor is None:
        for fn in thunks:
            acc += fn()
        return acc
    pending: deque = deque()
    for fn in thunks:
        pending.append(executor.submit(parallel._run, fn))
        while len(pending) >= parallel.window:
            acc += pending.popleft().result()
    while pending:
        acc += pending.popleft().result()
    return acc
