"""The schedule runner: the one data mover outside the storage layer.

A kernel states its schedule as *steps* (the operands each reads) in
*panels* (one span, closing writes) plus one ``compute``;
:func:`run_steps` announces each step's footprint in one
``pool.prefetch()``, reads it, computes and writes for all of them, on
the calling thread.  The dense kernels, the sparse kernels and the
evaluator's elementwise regions run on it, so this module alone calls
``pool.prefetch()`` outside the storage layer (``RPR009``), and it is
the one place a thread pool may be built (``RPR007``).  None is: the
engine's only parallelism is the BLAS library's own threads
(``OPENBLAS_NUM_THREADS``).

A step's operands are ``(value, region, trans)``: :func:`blocks` and
:func:`read` answer for every kind of value.  Two lookahead rules
announce footprints: a dense step announces its own pool-sized reads;
a run of small steps (CSR tiles, vector chunks) gets :func:`batched`
footprints, each batch announced whole by its first step.

Determinism contract
--------------------

A folding panel adds its steps' products into its target in step
order, so results are bitwise fixed for a fixed BLAS thread count.
Across thread counts they can differ: OpenBLAS splits some products'
work by thread count (``tests/core/test_parallel.py`` pins the shapes
that keep their bits).  Simulated block counts never depend on it.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, NamedTuple

import numpy as np

from repro.storage import TiledMatrix, TiledVector

from .expr import Range


class Step(NamedTuple):
    """The operands a step reads, in order, as ``(value, region,
    trans)``; the ``tag`` its compute gets; the ``footprint`` it
    announces, in the same form, by default its reads."""

    reads: tuple
    tag: Any = None
    footprint: tuple | None = None


class Panel(NamedTuple):
    """Steps under one span (none if ``label`` is ``None``), whose
    args are read again as it closes, so a compute may add counts to
    them.  Each step's compute result is folded into a target
    ``fold()`` makes, or without ``fold`` is the step's writes;
    ``finish(target)`` yields the panel's, each ``(array, r0, c0,
    values)`` and written as made (:func:`_write`)."""

    label: str | None
    args: dict
    steps: Iterable[Step]
    finish: Callable[[Any], Iterable] = lambda _target: ()
    fold: Callable[[], Any] | None = None


def _stored(rect: tuple, trans: bool) -> tuple:
    r0, r1, c0, c1 = rect
    return (c0, c1, r0, r1) if trans else rect


def blocks(value, region: tuple, trans: bool = False) -> list[int]:
    """The device blocks :func:`read` of a stored ``value`` over
    ``region`` touches (a sparse matrix's by tile)."""
    if isinstance(value, TiledMatrix):
        return value.submatrix_blocks(*_stored(region, trans))
    if isinstance(value, TiledVector):
        lo, hi = region
        return value.blocks_for_chunks(
            range(lo // value.chunk, -(-hi // value.chunk)))
    return value.tile_blocks(*region)


def read(value, region: tuple, trans: bool = False):
    """``value`` over ``region``: a :class:`TiledMatrix` rectangle
    ``(r0, r1, c0, c1)`` (``trans``: its stored mirror, transposed in
    memory); a :class:`TiledVector` element range ``(lo, hi)``, as a
    read-only view of the pool's run buffer where it can be
    (:meth:`TiledVector.view_range`); a sparse matrix's tile ``(ti,
    tj)`` as its CSR triple, or a rectangle on its tile grid as dense
    values; a NumPy array sliced, a ``Range`` generated, a number as
    is."""
    if isinstance(value, TiledMatrix):
        if trans:
            return value.read_submatrix(*_stored(region, trans)).T
        return value.read_submatrix(*region)
    if isinstance(value, TiledVector):
        return value.view_range(*region)
    if hasattr(value, "read_tile_csr"):
        if len(region) == 2:
            return value.read_tile_csr(*region)
        th, tw = value.tile_shape
        return value.read_tile(region[0] // th, region[2] // tw)
    if isinstance(value, Range):
        lo, hi = region
        return np.arange(value.lo + lo, value.lo + hi, dtype=np.float64)
    if isinstance(value, np.ndarray) and value.ndim:
        return value[tuple(map(slice, region[::2], region[1::2]))]
    return value


def batched(store, steps: Iterable[Step]) -> list[Step]:
    """``steps``, one run of small reads, in greedy batches whose new
    blocks (not read earlier in the run) fit in half the pool less two
    frames, a first step always: a batch's first step announces the
    union of its reads, the rest nothing.  A larger hint would evict
    frames before their demand read, and the re-reads would inflate
    the block totals the cost models charge."""
    limit = max(1, store.pool.capacity // 2 - 2)
    seen: set[int] = set()
    batches: list[list[Step]] = []
    size = 0
    for step in steps:
        new = -len(seen)
        for op in step.reads:
            seen.update(blocks(*op))
        new += len(seen)
        if not batches or size and size + new > limit:
            batches.append([])
            size = 0
        batches[-1].append(step)
        size += new
    return [Step(step.reads, step.tag, () if i else tuple(
                op for s in batch for op in s.reads))
            for batch in batches for i, step in enumerate(batch)]


def _operands(store, step: Step) -> list:
    """Announce ``step``'s footprint, unless part of it lives in
    another store (whose blocks are not this pool's), then read its
    operands.  ``read_submatrix`` announces each again: in a pool too
    small for the footprint, that fetches what the pool clipped."""
    footprint = step.reads if step.footprint is None else step.footprint
    if footprint and all(v.store is store for v, _, _ in footprint):
        store.pool.prefetch([b for op in footprint for b in blocks(*op)])
    return [read(*op) for op in step.reads]


def _write(writes: Iterable | None) -> None:
    """Write each ``(array, r0, c0, values)``: a rectangle of a dense
    matrix; a sparse matrix's next tile, appended; a vector's run of
    chunks from element ``r0``, its values handed over."""
    for target, r0, c0, values in writes or ():
        if isinstance(target, TiledMatrix):
            target.write_submatrix(r0, c0, values)
        elif isinstance(target, TiledVector):
            target.write_chunk(r0 // target.chunk, values, hand_over=True)
        else:
            th, tw = target.tile_shape
            target.append_tile_dense(r0 // th, c0 // tw, values)


def _folded(store, panel: Panel, compute: Callable):
    """The panel's fold target with every step's result added, in step
    order."""
    target = panel.fold()
    for step in panel.steps:
        target += compute(step.tag, *_operands(store, step))
    return target


def _run_panel(store, panel: Panel, compute: Callable) -> None:
    if panel.fold is None:
        for step in panel.steps:
            _write(compute(step.tag, *_operands(store, step)))
        _write(panel.finish(None))
    else:
        # Hold no reference to the fold target while its writes run:
        # an epilogue's output would otherwise double the panel's peak.
        _write(panel.finish(_folded(store, panel, compute)))


def run_steps(store, panels: Iterable[Panel], compute: Callable) -> None:
    """Run a kernel's whole step stream against ``store``, lazily: a
    step is announced and read in its turn, then ``compute(step.tag,
    *operands)`` runs and the operands are dropped before the next
    step's read.  Each panel's writes close it, in its span."""
    for panel in panels:
        if panel.label is None:
            _run_panel(store, panel, compute)
        else:
            with store.tracer.span(panel.label, cat="kernel",
                                   **panel.args) as span:
                _run_panel(store, panel, compute)
                if span is not None:
                    span.args.update(panel.args)
        del panel   # free its buffers before the next one is made
