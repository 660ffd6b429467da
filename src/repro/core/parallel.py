"""The schedule runner and its tile-level kernel workers.

A dense kernel states its schedule as *steps* (the rectangles each
reads) in *panels* (one span, closing writes) plus one ``compute``;
:func:`run_steps` announces each step's footprint in one
``pool.prefetch()``, reads it, computes and writes for all of them.
:class:`TileParallelism` runs a folding panel's GEMMs on workers while
the calling thread keeps announcing and reading in serial order, so
one step's BLAS (which releases the GIL) overlaps the next step's I/O.
This module alone builds a ``ThreadPoolExecutor`` (lint rule
``RPR007``) and, beside the evaluator's window loop and the sparse
kernels, calls ``pool.prefetch()`` outside the storage layer
(``RPR009``).

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
from functools import partial
from typing import Any, Callable, Iterable, Iterator, NamedTuple

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
    """Kernel workers with a bounded in-flight window (workers + 1):
    at most that many steps' operands and products are alive while
    :func:`accumulate` folds their results in submission order."""

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
    ``parallel``'s workers when it has any (``parallel`` is ``None`` or
    a :class:`TileParallelism`).  The thunks are produced lazily on the
    calling thread either way, so the I/O that produces them keeps its
    serial order, and the fold keeps submission order: numpy evaluates
    each product to a temporary and adds it in place, bitwise as the
    serial loop does.  Fold targets may override ``+=`` to route each
    product (the kernels' ``_Fold`` / ``_RowFold``).
    """
    executor = parallel._executor if parallel is not None else None
    if executor is None:
        for fn in thunks:
            acc += fn()
            del fn      # free the step's operands before the next read
        return acc
    pending: deque = deque()
    for fn in thunks:
        pending.append(executor.submit(parallel._run, fn))
        while len(pending) >= parallel.window:
            acc += pending.popleft().result()
    while pending:
        acc += pending.popleft().result()
    return acc


class Step(NamedTuple):
    """The rectangles a step reads, in order, as ``(matrix, (r0, r1,
    c0, c1), trans)`` (``trans``: the stored mirror, transposed in
    memory); the ``tag`` its compute gets; the ``footprint`` it
    announces, in the same form, by default its reads."""

    reads: tuple
    tag: Any = None
    footprint: tuple | None = None


def _no_writes(_target) -> tuple:
    return ()


class Panel(NamedTuple):
    """Steps under one span (none if ``label`` is ``None``).  Each
    step's compute result is folded into a target ``fold()`` makes, or
    without ``fold`` is the step's writes; ``finish(target)`` yields the
    panel's, each ``(matrix, r0, c0, values)`` and written as made."""

    label: str | None
    args: dict
    steps: Iterable[Step]
    finish: Callable[[Any], Iterable] = _no_writes
    fold: Callable[[], Any] | None = None


def _stored(rect: tuple, trans: bool) -> tuple:
    r0, r1, c0, c1 = rect
    return (c0, c1, r0, r1) if trans else rect


def _operands(store, step: Step) -> list:
    """Announce ``step``'s footprint, unless part of it lives in
    another store (whose blocks are not this pool's), then read its
    rectangles.  ``read_submatrix`` announces each again: in a pool too
    small for the footprint, that fetches what the pool clipped."""
    footprint = step.reads if step.footprint is None else step.footprint
    if all(m.store is store for m, _, _ in footprint):
        store.pool.prefetch([bid for m, rect, trans in footprint
                             for bid in m.submatrix_blocks(
                                 *_stored(rect, trans))])
    return [m.read_submatrix(*_stored(rect, trans)).T if trans
            else m.read_submatrix(*rect)
            for m, rect, trans in step.reads]


def _write(writes: Iterable | None) -> None:
    for m, r0, c0, values in writes or ():
        m.write_submatrix(r0, c0, values)


def _run_panel(store, panel: Panel, compute: Callable,
               parallel: TileParallelism | None) -> None:
    thunks = (partial(compute, step.tag, *_operands(store, step))
              for step in panel.steps)
    if panel.fold is None:
        for thunk in thunks:
            _write(thunk())
            del thunk   # free the step's operands before the next read
        _write(panel.finish(None))
    else:
        _write(panel.finish(accumulate(parallel, panel.fold(), thunks)))


def run_steps(store, panels: Iterable[Panel], compute: Callable,
              parallel: TileParallelism | None = None) -> None:
    """Run a kernel's whole step stream against ``store``, lazily: a
    step is announced and read on this thread in its turn, then
    ``compute(step.tag, *operands)`` runs (on ``parallel``'s workers
    when its panel folds) and the operands are dropped — with workers,
    at most ``parallel.window`` steps later.  Each panel's writes close
    it, in its span."""
    for panel in panels:
        if panel.label is None:
            _run_panel(store, panel, compute, parallel)
        else:
            with store.tracer.span(panel.label, cat="kernel",
                                   **panel.args):
                _run_panel(store, panel, compute, parallel)
        del panel   # free its buffers before the next one is made
