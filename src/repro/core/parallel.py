"""The schedule runner.

A dense kernel states its schedule as *steps* (the rectangles each
reads) in *panels* (one span, closing writes) plus one ``compute``;
:func:`run_steps` announces each step's footprint in one
``pool.prefetch()``, reads it, computes and writes for all of them, on
the calling thread.  Beside the evaluator's window loop and the sparse
kernels, this module alone calls ``pool.prefetch()`` outside the
storage layer (``RPR009``), and it is the one place a thread pool
may be built (``RPR007``).  None is: the engine's only parallelism is
the BLAS library's own threads (``OPENBLAS_NUM_THREADS``).

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
                                   **panel.args):
                _run_panel(store, panel, compute)
        del panel   # free its buffers before the next one is made
