"""Measured out-of-core matrix multiplication over the tile store.

Real algorithms from the paper, all running against
:class:`~repro.storage.TiledMatrix` with every block counted:

- :func:`bnlj_matmul` — the §3/§4 algorithm "borrowing the idea from block
  nested-loop join": as many rows of A (and the matching rows of the result)
  as fit in memory, scanning B once per chunk.  Cost
  ``Theta(n1*n2*n3*(n2+n3)/(B*M))``.
- :func:`square_tile_matmul` — the Appendix-A optimal schedule: p x p
  submatrices with ``p = sqrt(M/3)``, cost ``Theta(lmn/(B*sqrt(M)))``.
- :func:`crossprod_matmul` — the symmetric ``t(A) %*% A``, output-
  stationary: :func:`repro.core.costs.crossprod_schedule` holds a
  region of the upper triangle (the whole packed triangle when it fits
  beside one slab of A) while A streams through it in slabs of whole
  tile rows, so A is read once per region column range — once in all
  when one region fits, and never more often than Appendix A's p x p
  panels read it.  It can also compute *side products*
  ``t(A) %*% B_i`` on its diagonal regions from the A slab already in
  memory — the normal equations' X'X and X'y from one scan of X.

Each states its schedule from :mod:`repro.core.costs`
(``bnlj_schedule``, ``square_schedule``, ``crossprod_schedule``, which
refuse a budget the kernel cannot run in) as steps and panels and
computes; :func:`repro.core.parallel.run_steps` announces, reads and
writes for all of them.

The dense kernels take ``trans_a``/``trans_b`` *operand flags*: a flagged
operand is multiplied as its transpose but **read in its stored layout**,
each submatrix transposed in memory as it streams through — the transposed
copy never exists on disk.  They also accept an ``epilogue`` callback
(``epilogue(r0, c0, block) -> block``) applied to every output submatrix
while it is still memory-resident, which is how the evaluator fuses
elementwise consumers (``alpha * (A %*% B) + C``) into the multiply
without materializing the raw product.

``tests/linalg`` checks all of them for numerical equality with numpy and
for I/O agreement with the analytic models of :mod:`repro.core.costs`.
"""

from __future__ import annotations

from functools import partial
from itertools import chain, groupby
from operator import itemgetter

import numpy as np

from repro.core.costs import (bnlj_schedule, crossprod_schedule,
                              crossprod_side_fits, cuts, square_schedule)
from repro.core.parallel import Panel, Step, run_steps
from repro.storage import ArrayStore, TiledMatrix


def _dims(a: TiledMatrix, b: TiledMatrix, trans_a: bool,
          trans_b: bool) -> tuple[int, int, int]:
    """``(m, l, n)`` of the effective product; non-conformable operands
    raise :class:`ValueError`."""
    sa = a.shape[::-1] if trans_a else a.shape
    sb = b.shape[::-1] if trans_b else b.shape
    if sa[1] != sb[0]:
        raise ValueError(
            f"non-conformable matrices: {sa} x {sb}")
    return sa[0], sa[1], sb[1]


def square_tile_matmul(store: ArrayStore, a: TiledMatrix, b: TiledMatrix,
                       memory_scalars: int,
                       name: str | None = None,
                       trans_a: bool = False,
                       trans_b: bool = False,
                       epilogue=None,
                       epilogue_inputs: int = 0) -> TiledMatrix:
    """Appendix-A schedule: three p x p submatrices resident at a time.

    ``p`` is sized so one submatrix of A, one of B and one of the result
    fill the memory budget, then rounded down to a whole number of storage
    tiles so submatrix reads map to whole-tile I/O.
    ``epilogue`` (if given) maps each finished output submatrix before
    its single write, and ``epilogue_inputs`` declares how many extra
    p x p operand submatrices the callback will read so the panel
    shrinks to keep the whole working set inside the budget.
    """
    m, l, n = _dims(a, b, trans_a, trans_b)
    out_dtype = np.result_type(a.dtype, b.dtype)
    schedule = square_schedule(
        m, l, n, a.square_side, memory_scalars,
        epilogue_inputs if epilogue is not None else 0)
    out = store.create_matrix((m, n), layout="square", name=name,
                              dtype=out_dtype)

    def panel(rect, steps) -> Panel:
        i0, i1, j0, j1 = rect
        # Each step announces both operand submatrices at once, so the
        # scheduler turns its tile misses into a few coalesced reads.
        return Panel("matmul:panel", {"i0": i0, "j0": j0,
                                      "p": schedule.rows},
                     (Step(((a, rect_a, trans_a), (b, rect_b, trans_b)))
                      for _, rect_a, rect_b in steps),
                     lambda acc: [(out, i0, j0, acc if epilogue is None
                                   else epilogue(i0, j0, acc))],
                     lambda: np.zeros((i1 - i0, j1 - j0), dtype=out_dtype))

    run_steps(store, (panel(*group) for group in groupby(
        schedule.steps(), key=itemgetter(0))),
        lambda _, a_sub, b_sub: a_sub @ b_sub)
    return out


class _Fold:
    """Fold target of a crossprod pass: each slab's products (the
    packed region, then one ``t(A) B`` block per side product) go into
    their own zeroed accumulators of ``shapes``, each summing its slabs
    in stream order."""

    def __init__(self, shapes: list) -> None:
        self.accs = [np.zeros(s, dtype=d) for s, d in shapes]

    def __iadd__(self, parts: list[np.ndarray]) -> "_Fold":
        for acc, part in zip(self.accs, parts):
            acc += part
        return self


def _packed_rows(region: tuple[int, int, int, int],
                 rows: int) -> tuple[list[tuple[int, int, int, int]], int]:
    """``(offset, r0, r1, c0)`` of every tile row of a region as the
    pass packs it — rows ``r0:r1`` of the region from column ``c0``
    (the diagonal tile's on a diagonal region) to its right edge — and
    the packed size."""
    i0, i1, j0, j1 = region
    layout, size = [], 0
    for r0, r1 in cuts(i1 - i0, rows):
        c0 = r0 if i0 == j0 else 0
        layout.append((size, r0, r1, c0))
        size += (r1 - r0) * (j1 - j0 - c0)
    return layout, size


def _slab_products(tag, left: np.ndarray, *rest: np.ndarray
                   ) -> list[np.ndarray]:
    """One slab's products into the buffers of ``tag = (layout,
    buffers, diagonal)``: a GEMM per packed tile row of the region (its
    rows of ``left`` against the right range — ``left`` itself on a
    diagonal region — from the row's first column on), then
    ``t(left) %*% b`` per side slab."""
    layout, out, diag = tag
    right, subs = (left, rest) if diag else (rest[0], rest[1:])
    packed, *sides = out
    width = right.shape[1]
    for off, r0, r1, c0 in layout:
        np.matmul(left[:, r0:r1].T, right[:, c0:],
                  out=packed[off: off + (r1 - r0) * (width - c0)]
                  .reshape(r1 - r0, width - c0))
    for sub, dst in zip(subs, sides):
        np.matmul(left.T, sub, out=dst)
    return out


def _region_panel(out: TiledMatrix, a: TiledMatrix, schedule,
                  region: tuple[int, int, int, int], t_first: bool,
                  riders: list, epilogue) -> Panel:
    """One region's pass: every slab of A streams through it (with
    each rider's slab on a diagonal region), folding into the packed
    region and the region's rows of each side product; the pass ends
    by writing those rows, the region and its mirror."""
    i0, i1, j0, j1 = region
    diag = i0 == j0
    inner = a.shape[0] if t_first else a.shape[1]
    layout, size = _packed_rows(region, schedule.rows)
    shapes = [((size,), a.dtype)] + [
        ((i1 - i0, b.shape[1]), np.result_type(a.dtype, b.dtype))
        for b, _ in riders]
    # Every slab's products go into the same buffers, each folded
    # before the next slab overwrites it.
    buffers = [np.empty(s, dtype=d) for s, d in shapes]
    ranges = [(i0, i1)] if diag else [(i0, i1), (j0, j1)]

    def finish(fold):
        packed, *sums = fold.accs
        for (_, out_b), total in zip(riders, sums):
            yield out_b, i0, 0, total
        block = _region_block(region, layout, packed)
        yield out, i0, j0, _finished(epilogue, i0, j0, block,
                                     schedule.rows)
        if not diag:
            yield out, j0, i0, _finished(epilogue, j0, i0, block.T,
                                         schedule.rows)

    steps = (Step(tuple((a, (r0, r1, c0, c1), not t_first)
                        for c0, c1 in ranges)
                  + tuple((b, (r0, r1, 0, b.shape[1]), False)
                          for b, _ in riders),
                  (layout, buffers, diag))
             for r0, r1 in cuts(inner, schedule.slab))
    return Panel("crossprod:panel",
                 {"i0": i0, "j0": j0, "a": schedule.side,
                  "h": schedule.slab},
                 steps, finish, partial(_Fold, shapes))


def _region_block(region: tuple[int, int, int, int], layout: list,
                  packed: np.ndarray) -> np.ndarray:
    """The finished region as a rectangle.  A diagonal region is made
    exactly symmetric from its upper triangle: each diagonal tile's
    upper half is mirrored onto its lower, each tile row onto the
    column below it."""
    i0, i1, j0, j1 = region
    width = j1 - j0
    block = np.empty((i1 - i0, width), dtype=packed.dtype)
    for off, r0, r1, c0 in layout:
        block[r0:r1, c0:] = packed[
            off: off + (r1 - r0) * (width - c0)].reshape(r1 - r0,
                                                         width - c0)
        if i0 == j0:
            tile = block[r0:r1, r0:r1]
            tile[...] = np.triu(tile) + np.triu(tile, 1).T
            block[r1:, r0:r1] = block[r0:r1, r1:].T
    return block


def _finished(epilogue, r0: int, c0: int, block: np.ndarray,
              rows: int) -> np.ndarray:
    """``block`` (at output position ``(r0, c0)``) with ``epilogue``
    applied to every ``rows``-sided tile at that tile's coordinates."""
    if epilogue is None:
        return block
    done = np.empty_like(block)
    for br in range(0, block.shape[0], rows):
        for bc in range(0, block.shape[1], rows):
            done[br: br + rows, bc: bc + rows] = epilogue(
                r0 + br, c0 + bc, block[br: br + rows, bc: bc + rows])
    return done


def crossprod_matmul(store: ArrayStore, a: TiledMatrix,
                     memory_scalars: int,
                     name: str | None = None,
                     t_first: bool = True,
                     epilogue=None,
                     epilogue_inputs: int = 0,
                     side=()) -> TiledMatrix:
    """Symmetric product ``t(A) %*% A`` (or ``A %*% t(A)``), output-
    stationary.

    Runs :func:`repro.core.costs.crossprod_schedule`: each region of
    the upper triangle is held in memory for one pass while A streams
    through it in slabs of h rows, one runner step per slab.  Per
    slab, one GEMM per packed tile row of the region folds into it
    through reused buffers.  When the packed triangle and one
    slab fit, there is one region and A is read once.  Only the upper
    triangle is computed; each finished region is written once, with
    its mirror, and the diagonal regions are made exactly symmetric.

    ``epilogue`` is applied when a region finishes, to each of its
    tiles *and* to each mirrored tile (with the mirrored coordinates),
    so fused elementwise consumers need not be symmetric;
    ``epilogue_inputs`` reserves one tile per extra operand in the
    schedule's budget.

    ``side`` lists ``(b, out_b)`` pairs: products ``t(A) %*% b`` that
    ride along on the scan of A (``t_first`` only, no epilogue).  On
    each diagonal region's pass b's slab joins A's in each step,
    the resident A slab is multiplied into it and, when
    the pass ends, writes the region's rows of the result into
    ``out_b`` (created by the caller, ``k x n``).  A is never read for
    them, and the schedule is the one without them, so the bits of
    ``t(A) %*% A`` do not depend on sharing.  The products must fit
    beside it (:func:`repro.core.costs.crossprod_side_fits`) or this
    raises :class:`ValueError`.  Returns the ``t(A) %*% A`` matrix
    either way.
    """
    inner, k = a.shape if t_first else a.shape[::-1]
    tile_side = a.square_side
    schedule = crossprod_schedule(
        inner, k, tile_side, memory_scalars,
        epilogue_inputs if epilogue is not None else 0)
    side = list(side)
    if side:
        _check_side(a, side, memory_scalars, k, tile_side, t_first,
                    epilogue)
    out = store.create_matrix((k, k), layout="square", name=name,
                              dtype=a.dtype)
    run_steps(store,
              (_region_panel(out, a, schedule, region, t_first,
                             side if region[0] == region[2] else [],
                             epilogue)
               for region in schedule.regions),
              _slab_products)
    return out


def _check_side(a: TiledMatrix, side: list, memory_scalars: int, k: int,
                tile_side: int, t_first: bool, epilogue) -> None:
    """Refuse side products :func:`crossprod_matmul` cannot carry."""
    if not t_first or epilogue is not None:
        raise ValueError("side products ride on a plain t(A) %*% A: "
                         "no tcrossprod, no epilogue")
    for b, out_b in side:
        if b.shape[0] != a.shape[0]:
            raise ValueError(f"side operand has {b.shape[0]} rows, "
                             f"A has {a.shape[0]}")
        if out_b.shape != (a.shape[1], b.shape[1]):
            raise ValueError(f"side output is {out_b.shape}, expected "
                             f"{(a.shape[1], b.shape[1])}")
    cols = sum(b.shape[1] for b, _ in side)
    if not crossprod_side_fits(memory_scalars, k, tile_side, cols):
        raise ValueError(
            f"side products of {cols} columns do not fit beside the "
            f"crossprod schedule in {memory_scalars} scalars: its "
            f"largest pass plus (a + h) * {cols} exceeds the budget")


def bnlj_matmul(store: ArrayStore, a: TiledMatrix, b: TiledMatrix,
                memory_scalars: int,
                name: str | None = None,
                trans_a: bool = False,
                trans_b: bool = False) -> TiledMatrix:
    """§3's block-nested-loop-join-inspired algorithm.

    Memory is split between ``q`` rows of A and the matching ``q`` rows of
    the result (q = M/(n2+n3)); each chunk of A rows scans B in full.  Works
    best when A is stored with row tiles and B with column tiles, exactly
    as the paper's BNLJ-Inspired strategy assumes.  Each A-row chunk and
    each B column-block is one step of the runner, announced before it
    is read, so cold tile misses coalesce into large device reads.

    Accounting note: with *distinct* operands block totals are exactly
    equal hinted or unhinted (the dense streaming contract).  When the
    same stored matrix is passed as both operands (``t(A) %*% A`` via a
    flag), the B scan re-reads blocks the A chunk may have left cached;
    that reuse depends on eviction timing, so hinted runs may drift a
    few percent in block totals — the same bounded exception the sparse
    kernels document.  Prefer :func:`crossprod_matmul` there anyway.
    """
    n1, n2, n3 = _dims(a, b, trans_a, trans_b)
    schedule = bnlj_schedule(
        n1, n2, n3, b.tile_shape[0] if trans_b else b.tile_shape[1],
        memory_scalars)
    out_dtype = np.result_type(a.dtype, b.dtype)
    out = store.create_matrix((n1, n3), layout="row", name=name,
                              dtype=out_dtype)
    a_rows = None   # the chunk's rows of A, resident for its scan of B

    def panel(rows, steps) -> Panel:
        r0, r1 = rows[:2]
        t_rows = np.zeros((r1 - r0, n3), dtype=out_dtype)
        return Panel("bnlj:chunk", {"r0": r0, "q": schedule.rows},
                     chain([Step(((a, rows, trans_a),))],
                           (Step(((b, cols, trans_b),), (t_rows, *cols[2:]))
                            for _, _, cols in steps)),
                     lambda _: [(out, r0, 0, t_rows)])

    def compute(tag, operand):
        nonlocal a_rows
        if tag is None:
            a_rows = operand
        else:
            t_rows, c0, c1 = tag
            t_rows[:, c0:c1] = a_rows @ operand

    run_steps(store, (panel(*group) for group in groupby(
        schedule.steps(), key=itemgetter(1))), compute)
    return out
