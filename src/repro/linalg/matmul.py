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

import numpy as np

from repro.core.costs import (crossprod_schedule, crossprod_side_fits,
                              square_panel)
from repro.core.parallel import accumulate
from repro.storage import ArrayStore, TiledMatrix


def _effective_shape(m: TiledMatrix, trans: bool) -> tuple[int, int]:
    return m.shape[::-1] if trans else m.shape


def _check_conformable(a: TiledMatrix, b: TiledMatrix,
                       trans_a: bool = False,
                       trans_b: bool = False) -> None:
    sa = _effective_shape(a, trans_a)
    sb = _effective_shape(b, trans_b)
    if sa[1] != sb[0]:
        raise ValueError(
            f"non-conformable matrices: {sa} x {sb}")


def _square_panel(memory_scalars: int, tile_side: int, what: str,
                  panels: int = 3) -> int:
    """The Appendix-A submatrix side p = sqrt(M/panels), tile-aligned
    (:func:`repro.core.costs.square_panel`).

    ``panels`` is the number of p x p submatrices resident at once —
    3 for the plain schedule (A, B and C blocks), plus one more per
    fused-epilogue matrix input, which reads its own p x p submatrix
    while the accumulator is still live.  When the budget cannot hold
    ``panels`` whole storage tiles, the panel goes *ragged*: p drops
    below the tile side (submatrix reads then cross tile boundaries,
    costing extra partial-tile I/O but never overrunning the budget).
    Raises :class:`ValueError` only when even 1 x 1 panels do not fit.
    """
    if memory_scalars < panels:
        raise ValueError(
            f"memory budget of {memory_scalars} scalars cannot hold "
            f"{panels} 1 x 1 submatrices for {what}: the square-tile "
            f"schedule needs at least {panels} scalars")
    return square_panel(memory_scalars, tile_side, panels)


def _read_operand(m: TiledMatrix, r0: int, r1: int, c0: int, c1: int,
                  trans: bool) -> np.ndarray:
    """Rectangle (r0:r1, c0:c1) of the *effective* operand.

    A flagged operand reads the mirrored rectangle of the stored matrix
    and transposes it in memory — stored tiles are never re-laid out.
    """
    if trans:
        return m.read_submatrix(c0, c1, r0, r1).T
    return m.read_submatrix(r0, r1, c0, c1)


def _operand_blocks(m: TiledMatrix, r0: int, r1: int, c0: int, c1: int,
                    trans: bool) -> list[int]:
    """Device blocks backing the effective rectangle (prefetch hints)."""
    if trans:
        return m.submatrix_blocks(c0, c1, r0, r1)
    return m.submatrix_blocks(r0, r1, c0, c1)


def square_tile_matmul(store: ArrayStore, a: TiledMatrix, b: TiledMatrix,
                       memory_scalars: int,
                       name: str | None = None,
                       trans_a: bool = False,
                       trans_b: bool = False,
                       epilogue=None,
                       epilogue_inputs: int = 0,
                       parallel=None) -> TiledMatrix:
    """Appendix-A schedule: three p x p submatrices resident at a time.

    ``p`` is sized so one submatrix of A, one of B and one of the result
    fill the memory budget, then rounded down to a whole number of storage
    tiles so submatrix reads map to whole-tile I/O.  Flagged operands are
    read in stored layout and transposed per submatrix in memory;
    ``epilogue`` (if given) maps each finished output submatrix before
    its single write, and ``epilogue_inputs`` declares how many extra
    p x p operand submatrices the callback will read so the panel
    shrinks to keep the whole working set inside the budget.

    ``parallel`` (a ``TileParallelism`` or ``None``) offloads the
    per-step GEMMs to worker threads while this thread keeps issuing
    prefetch hints and block reads in serial order; results are folded
    in increasing-``k`` order, so output bits and block counts match
    the serial kernel exactly.
    """
    _check_conformable(a, b, trans_a, trans_b)
    m, l = _effective_shape(a, trans_a)
    n = _effective_shape(b, trans_b)[1]
    out_dtype = np.result_type(a.dtype, b.dtype)
    tile_side = max(a.tile_shape[0], a.tile_shape[1])
    panels = 3 + (epilogue_inputs if epilogue is not None else 0)
    p = _square_panel(memory_scalars, tile_side, "square_tile_matmul",
                      panels)
    out = store.create_matrix((m, n), layout="square", name=name,
                              dtype=out_dtype)
    hinting = a.store is store and b.store is store
    for i0 in range(0, m, p):
        i1 = min(i0 + p, m)
        for j0 in range(0, n, p):
            j1 = min(j0 + p, n)
            with store.tracer.span("matmul:panel", cat="kernel",
                                   i0=i0, j0=j0, p=p):

                def steps(i0=i0, i1=i1, j0=j0, j1=j1):
                    for k0 in range(0, l, p):
                        k1 = min(k0 + p, l)
                        if hinting:
                            # Announce the step's full footprint — both
                            # operand submatrices at once — so the
                            # scheduler turns the tile misses into a
                            # handful of coalesced reads.
                            store.pool.prefetch(
                                _operand_blocks(a, i0, i1, k0, k1,
                                                trans_a)
                                + _operand_blocks(b, k0, k1, j0, j1,
                                                  trans_b))
                        a_sub = _read_operand(a, i0, i1, k0, k1,
                                              trans_a)
                        b_sub = _read_operand(b, k0, k1, j0, j1,
                                              trans_b)
                        yield lambda a_s=a_sub, b_s=b_sub: a_s @ b_s

                acc = accumulate(parallel,
                                 np.zeros((i1 - i0, j1 - j0),
                                          dtype=out_dtype),
                                 steps())
                if epilogue is not None:
                    acc = epilogue(i0, j0, acc)
                out.write_submatrix(i0, j0, acc)
    return out


class _Fold:
    """Fold target of a crossprod pass.

    :func:`~repro.core.parallel.accumulate` folds ``target += fn()``;
    ``fn()`` returns one slab's products — the packed tile rows of the
    region, then one ``t(A) B`` block per side product — and each goes
    into its own accumulator.  Every accumulator sums its slabs in
    stream order, so the worker count never changes a bit.
    """

    def __init__(self, accs: list[np.ndarray]) -> None:
        self.accs = accs

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
    for r0 in range(0, i1 - i0, rows):
        r1 = min(r0 + rows, i1 - i0)
        c0 = r0 if i0 == j0 else 0
        layout.append((size, r0, r1, c0))
        size += (r1 - r0) * (j1 - j0 - c0)
    return layout, size


def _slab_products(left: np.ndarray, right: np.ndarray,
                   subs: list[np.ndarray], layout: list, out: list
                   ) -> list[np.ndarray]:
    """One slab's products into the reused buffers ``out``: a GEMM per
    packed tile row of the region (its rows of ``left`` against
    ``right`` from the row's first column on), then ``t(left) %*% b``
    per side slab."""
    packed, *sides = out
    width = right.shape[1]
    for off, r0, r1, c0 in layout:
        np.matmul(left[:, r0:r1].T, right[:, c0:],
                  out=packed[off: off + (r1 - r0) * (width - c0)]
                  .reshape(r1 - r0, width - c0))
    for sub, dst in zip(subs, sides):
        np.matmul(left.T, sub, out=dst)
    return out


def _region_pass(store: ArrayStore, a: TiledMatrix, schedule,
                 region: tuple[int, int, int, int], t_first: bool,
                 riders: list, parallel
                 ) -> tuple[list, list[np.ndarray]]:
    """Stream every slab of A through one region: returns the packed
    layout, then the packed region and the region's rows of each side
    product."""
    i0, i1, j0, j1 = region
    diag = i0 == j0
    inner = a.shape[0] if t_first else a.shape[1]
    layout, size = _packed_rows(region, schedule.rows)
    shapes = [((size,), a.dtype)] + [
        ((i1 - i0, b.shape[1]), np.result_type(a.dtype, b.dtype))
        for b, _ in riders]
    # TileParallelism keeps at most ``window`` slabs in flight, so
    # that many buffers are never overwritten before their fold.
    ring = [[np.empty(s, dtype=d) for s, d in shapes]
            for _ in range(getattr(parallel, "window", 1))]
    hinting = a.store is store

    def steps():
        for n, r0 in enumerate(range(0, inner, schedule.slab)):
            r1 = min(r0 + schedule.slab, inner)
            if hinting:
                blocks = _operand_blocks(a, r0, r1, i0, i1, not t_first)
                if not diag:
                    blocks = blocks + _operand_blocks(a, r0, r1, j0, j1,
                                                      not t_first)
                for b, _ in riders:
                    if b.store is store:
                        blocks = blocks + _operand_blocks(
                            b, r0, r1, 0, b.shape[1], False)
                store.pool.prefetch(blocks)
            left = _read_operand(a, r0, r1, i0, i1, not t_first)
            right = (left if diag else
                     _read_operand(a, r0, r1, j0, j1, not t_first))
            subs = [_read_operand(b, r0, r1, 0, b.shape[1], False)
                    for b, _ in riders]
            yield (lambda l_=left, r_=right, s_=subs,
                   o_=ring[n % len(ring)]:
                   _slab_products(l_, r_, s_, layout, o_))

    accs = [np.zeros(s, dtype=d) for s, d in shapes]
    accumulate(parallel, _Fold(accs), steps())
    return layout, accs


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
                     parallel=None,
                     side=()) -> TiledMatrix:
    """Symmetric product ``t(A) %*% A`` (or ``A %*% t(A)``), output-
    stationary.

    Runs :func:`repro.core.costs.crossprod_schedule`: each region of
    the upper triangle is held in memory for one pass while A streams
    through it in slabs of h rows, each slab announced in one prefetch
    hint.  Per slab, one GEMM per packed tile row of the region folds
    into it through reused buffers.  When the packed triangle and one
    slab fit, there is one region and A is read once.  Only the upper
    triangle is computed; each finished region is written once, with
    its mirror, and the diagonal regions are made exactly symmetric.
    The transpose never exists on disk.

    ``epilogue`` is applied when a region finishes, to each of its
    tiles *and* to each mirrored tile (with the mirrored coordinates),
    so fused elementwise consumers need not be symmetric;
    ``epilogue_inputs`` reserves one tile per extra operand in the
    schedule's budget.  ``parallel`` offloads each slab's GEMMs (reads
    stay serial on this thread; the in-order fold keeps results
    bitwise).

    ``side`` lists ``(b, out_b)`` pairs: products ``t(A) %*% b`` that
    ride along on the scan of A (``t_first`` only, no epilogue).  On
    each diagonal region's pass the kernel announces b's slab in the
    same hint as A's, multiplies the resident A slab into it and, when
    the pass ends, writes the region's rows of the result into
    ``out_b`` (created by the caller, ``k x n``).  A is never read for
    them, and the schedule is the one without them, so the bits of
    ``t(A) %*% A`` do not depend on sharing.  The products must fit
    beside it (:func:`repro.core.costs.crossprod_side_fits`) or this
    raises :class:`ValueError`.  Returns the ``t(A) %*% A`` matrix
    either way.
    """
    inner, k = a.shape if t_first else a.shape[::-1]
    tile_side = max(a.tile_shape[0], a.tile_shape[1])
    schedule = crossprod_schedule(
        inner, k, tile_side, memory_scalars,
        epilogue_inputs if epilogue is not None else 0)
    side = list(side)
    if side:
        _check_side(a, side, memory_scalars, k, tile_side, t_first,
                    epilogue)
    out = store.create_matrix((k, k), layout="square", name=name,
                              dtype=a.dtype)
    for region in schedule.regions:
        i0, i1, j0, j1 = region
        riders = side if i0 == j0 else []
        with store.tracer.span("crossprod:panel", cat="kernel",
                               i0=i0, j0=j0, a=schedule.side,
                               h=schedule.slab):
            layout, (packed, *sums) = _region_pass(
                store, a, schedule, region, t_first, riders, parallel)
            for (_, out_b), total in zip(riders, sums):
                out_b.write_submatrix(i0, 0, total)
            block = _region_block(region, layout, packed)
            out.write_submatrix(i0, j0, _finished(epilogue, i0, j0, block,
                                                  schedule.rows))
            if j0 != i0:
                out.write_submatrix(j0, i0, _finished(
                    epilogue, j0, i0, block.T, schedule.rows))
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
    each B column-block announces its footprint to the buffer pool before
    reading it, so cold tile misses coalesce into large device reads.
    Flagged operands stream in stored layout, transposed in memory.

    Accounting note: with *distinct* operands block totals are exactly
    equal hinted or unhinted (the dense streaming contract).  When the
    same stored matrix is passed as both operands (``t(A) %*% A`` via a
    flag), the B scan re-reads blocks the A chunk may have left cached;
    that reuse depends on eviction timing, so hinted runs may drift a
    few percent in block totals — the same bounded exception the sparse
    kernels document.  Prefer :func:`crossprod_matmul` there anyway.
    """
    _check_conformable(a, b, trans_a, trans_b)
    n1, n2 = _effective_shape(a, trans_a)
    n3 = _effective_shape(b, trans_b)[1]
    q = max(1, int(memory_scalars / (n2 + n3)))
    out_dtype = np.result_type(a.dtype, b.dtype)
    out = store.create_matrix((n1, n3), layout="row", name=name,
                              dtype=out_dtype)
    hinting = a.store is store and b.store is store
    for r0 in range(0, n1, q):
        r1 = min(r0 + q, n1)
        with store.tracer.span("bnlj:chunk", cat="kernel", r0=r0, q=q):
            if hinting:
                store.pool.prefetch(
                    _operand_blocks(a, r0, r1, 0, n2, trans_a))
            a_rows = _read_operand(a, r0, r1, 0, n2, trans_a)
            t_rows = np.zeros((r1 - r0, n3), dtype=out_dtype)
            # Scan B one column-block at a time (a block of columns costs
            # the same I/O as one column when B uses column tiles).
            col_step = max(1,
                           b.tile_shape[0] if trans_b else b.tile_shape[1])
            for c0 in range(0, n3, col_step):
                c1 = min(c0 + col_step, n3)
                if hinting:
                    store.pool.prefetch(
                        _operand_blocks(b, 0, n2, c0, c1, trans_b))
                b_cols = _read_operand(b, 0, n2, c0, c1, trans_b)
                t_rows[:, c0:c1] = a_rows @ b_cols
            out.write_submatrix(r0, 0, t_rows)
    return out
