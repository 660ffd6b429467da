"""Measured out-of-core matrix multiplication over the tile store.

Real algorithms from the paper, all running against
:class:`~repro.storage.TiledMatrix` with every block counted:

- :func:`bnlj_matmul` — the §3/§4 algorithm "borrowing the idea from block
  nested-loop join": as many rows of A (and the matching rows of the result)
  as fit in memory, scanning B once per chunk.  Cost
  ``Theta(n1*n2*n3*(n2+n3)/(B*M))``.
- :func:`square_tile_matmul` — the Appendix-A optimal schedule: p x p
  submatrices with ``p = sqrt(M/3)``, cost ``Theta(lmn/(B*sqrt(M)))``.
- :func:`crossprod_matmul` — the symmetric ``t(A) %*% A`` schedule: only
  upper-triangular output blocks are computed (mirrored on write), so it
  moves about half the operand blocks of the general algorithm.  It can
  also compute *side products* ``t(A) %*% B_i`` on its diagonal passes
  from the A panel already in memory — the normal equations' X'X and
  X'y from one scan of X, with X'y bitwise what the flagged square-tile
  multiply gives.

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

from repro.core.costs import crossprod_side_fits, square_panel
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
    Dense kernels never mutate operand rectangles, so this goes through
    ``read_submatrix_view`` when the matrix offers it: on a raw-codec
    mmap store with ``zero_copy=1`` a tile-aligned rectangle comes back
    as a read-only view over the page mapping instead of a copy.
    """
    reader = getattr(m, "read_submatrix_view", m.read_submatrix)
    if trans:
        return reader(c0, c1, r0, r1).T
    return reader(r0, r1, c0, c1)


def _operand_blocks(m: TiledMatrix, r0: int, r1: int, c0: int, c1: int,
                    trans: bool) -> list[int]:
    """Device blocks backing the effective rectangle (prefetch hints)."""
    if trans:
        return m.submatrix_blocks(c0, c1, r0, r1)
    return m.submatrix_blocks(r0, r1, c0, c1)


def _accumulate(parallel, acc, thunks):
    """``for fn in thunks: acc += fn()``, offloaded when possible.

    ``parallel`` is duck-typed (anything with ``.accumulate(acc,
    thunks)`` — in practice :class:`repro.core.parallel.TileParallelism`)
    so this module keeps its storage-only import surface.  The thunk
    stream is consumed lazily either way: the prefetch hints and block
    reads embedded in producing each thunk run on the calling thread in
    exact serial order, which is what keeps simulated block counts
    identical at every worker count.
    """
    if parallel is None:
        for fn in thunks:
            acc += fn()
        return acc
    return parallel.accumulate(acc, thunks)


def square_tile_matmul(store: ArrayStore, a: TiledMatrix, b: TiledMatrix,
                       memory_scalars: int,
                       name: str | None = None,
                       trans_a: bool = False,
                       trans_b: bool = False,
                       epilogue=None,
                       epilogue_inputs: int = 0,
                       parallel=None,
                       out_tile_shape: tuple[int, int] | None = None
                       ) -> TiledMatrix:
    """Appendix-A schedule: three p x p submatrices resident at a time.

    ``p`` is sized so one submatrix of A, one of B and one of the result
    fill the memory budget, then rounded down to a whole number of storage
    tiles so submatrix reads map to whole-tile I/O.  Flagged operands are
    read in stored layout and transposed per submatrix in memory;
    ``epilogue`` (if given) maps each finished output submatrix before
    its single write, and ``epilogue_inputs`` declares how many extra
    p x p operand submatrices the callback will read so the panel
    shrinks to keep the whole working set inside the budget.

    ``parallel`` (a ``TileParallelism``-like accumulator) offloads the
    per-step GEMMs to worker threads while this thread keeps issuing
    prefetch hints and block reads in serial order; results are folded
    in increasing-``k`` order, so output bits and block counts match
    the serial kernel exactly.

    ``out_tile_shape`` overrides the result's tile layout (e.g. to give
    chain intermediates larger tiles so the storage codec sees frames
    worth compressing); ``None`` keeps the store's default square
    layout.
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
                              dtype=out_dtype,
                              tile_shape=out_tile_shape)
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

                acc = _accumulate(parallel,
                                  np.zeros((i1 - i0, j1 - j0),
                                           dtype=out_dtype),
                                  steps())
                if epilogue is not None:
                    acc = epilogue(i0, j0, acc)
                out.write_submatrix(i0, j0, acc)
    return out


class _SideFold:
    """Fold target of a diagonal pass that carries side products.

    :func:`_accumulate` folds ``target += fn()``; on such a pass
    ``fn()`` returns the ``t(A) A`` product and one ``t(A) B`` product
    per column panel of every side, which go into ``acc`` and into
    their side's accumulator.  Each array sums its products in stream
    (inner-panel) order, so the worker count never changes a bit.
    """

    def __init__(self, acc: np.ndarray, sides: list[np.ndarray],
                 cuts: list[tuple[int, int, int]]) -> None:
        self.acc = acc
        self.sides = sides
        self.cuts = cuts

    def __iadd__(self, step) -> "_SideFold":
        product, side_products = step
        self.acc += product
        for (s, j0, j1), part in zip(self.cuts, side_products):
            self.sides[s][:, j0:j1] += part
        return self


def crossprod_matmul(store: ArrayStore, a: TiledMatrix,
                     memory_scalars: int,
                     name: str | None = None,
                     t_first: bool = True,
                     epilogue=None,
                     epilogue_inputs: int = 0,
                     parallel=None,
                     side=()) -> TiledMatrix:
    """Symmetric product ``t(A) %*% A`` (or ``A %*% t(A)``) in one pass.

    Exploits symmetry two ways the general schedule cannot: only the
    upper-triangular p x p output blocks are computed (off-diagonal
    blocks are mirrored to their transposed position on write), and the
    diagonal blocks read their single operand panel once instead of
    twice.  Roughly half the operand reads and half the multiply FLOPs
    of running ``square_tile_matmul`` with a transposed flag — and the
    transpose itself never exists on disk either way.

    ``epilogue`` is applied independently to each output block *and* to
    its mirror (with the mirrored block coordinates), so fused
    elementwise consumers need not be symmetric; ``epilogue_inputs``
    shrinks the panel like in :func:`square_tile_matmul`, and
    ``parallel`` offloads the per-step GEMMs exactly as there (reads
    stay serial on this thread; in-order fold keeps results bitwise).

    ``side`` lists ``(b, out_b)`` pairs: products ``t(A) %*% b`` that
    ride along on the scan of A (``t_first`` only, no epilogue).  On
    each diagonal pass the kernel announces b's p-row rectangle in the
    same prefetch hint as the A panel, multiplies the resident A panel
    into it and, when the pass ends, writes the p x n result rectangle
    into ``out_b`` (created by the caller, ``k x n``).  The GEMMs are
    the ones ``square_tile_matmul(a, b, trans_a=True)`` issues — same
    operand arrays, same column panels, same inner order — so each
    ``out_b`` holds that kernel's bits, and A is never read for them.
    The panel stays the crossprod's own; the products must fit beside
    it (:func:`repro.core.costs.crossprod_side_fits`) or this raises
    :class:`ValueError`.  Returns the ``t(A) %*% A`` matrix either way.
    """
    inner, k = a.shape if t_first else a.shape[::-1]
    tile_side = max(a.tile_shape[0], a.tile_shape[1])
    panels = 3 + (epilogue_inputs if epilogue is not None else 0)
    p = _square_panel(memory_scalars, tile_side, "crossprod_matmul",
                      panels)
    side = list(side)
    if side:
        _check_side(a, side, memory_scalars, tile_side, p, t_first,
                    epilogue)
    # One (side, j0, j1) entry per column panel of every side product.
    cuts = [(s, j0, min(j0 + p, b.shape[1]))
            for s, (b, _) in enumerate(side)
            for j0 in range(0, b.shape[1], p)]
    out = store.create_matrix((k, k), layout="square", name=name,
                              dtype=a.dtype)
    hinting = a.store is store
    for i0 in range(0, k, p):
        i1 = min(i0 + p, k)
        for j0 in range(i0, k, p):
            j1 = min(j0 + p, k)
            riders = side if j0 == i0 else []
            with store.tracer.span("crossprod:panel", cat="kernel",
                                   i0=i0, j0=j0, p=p):

                def steps(i0=i0, i1=i1, j0=j0, j1=j1, riders=riders):
                    for r0 in range(0, inner, p):
                        r1 = min(r0 + p, inner)
                        if hinting:
                            blocks = _operand_blocks(a, r0, r1, i0, i1,
                                                     not t_first)
                            if j0 != i0:
                                blocks = blocks + _operand_blocks(
                                    a, r0, r1, j0, j1, not t_first)
                            for b, _ in riders:
                                if b.store is store:
                                    blocks = blocks + _operand_blocks(
                                        b, r0, r1, 0, b.shape[1], False)
                            store.pool.prefetch(blocks)
                        left = _read_operand(a, r0, r1, i0, i1,
                                             not t_first)
                        right = (left if j0 == i0 else
                                 _read_operand(a, r0, r1, j0, j1,
                                               not t_first))
                        if not riders:
                            yield lambda l_=left, r_=right: l_.T @ r_
                            continue
                        subs = [_read_operand(b, r0, r1, 0, b.shape[1],
                                              False) for b, _ in riders]
                        yield lambda l_=left, r_=right, s_=subs: (
                            l_.T @ r_,
                            [l_.T @ s_[s][:, c0:c1]
                             for s, c0, c1 in cuts])

                acc = np.zeros((i1 - i0, j1 - j0), dtype=a.dtype)
                if riders:
                    sums = [np.zeros((i1 - i0, b.shape[1]),
                                     dtype=np.result_type(a.dtype,
                                                          b.dtype))
                            for b, _ in riders]
                    _accumulate(parallel, _SideFold(acc, sums, cuts),
                                steps())
                    for (_, out_b), total in zip(riders, sums):
                        out_b.write_submatrix(i0, 0, total)
                else:
                    acc = _accumulate(parallel, acc, steps())
                block = acc if epilogue is None else epilogue(i0, j0, acc)
                out.write_submatrix(i0, j0, block)
                if j0 != i0:
                    mirror = (acc.T if epilogue is None
                              else epilogue(j0, i0, acc.T))
                    out.write_submatrix(j0, i0, mirror)
    return out


def _check_side(a: TiledMatrix, side: list, memory_scalars: int,
                tile_side: int, p: int, t_first: bool, epilogue) -> None:
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
    if not crossprod_side_fits(memory_scalars, tile_side, cols):
        raise ValueError(
            f"side products of {cols} columns do not fit beside the "
            f"crossprod's {p} x {p} panels: 3p^2 + 2p*{cols} > "
            f"{memory_scalars} scalars")


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


def naive_tile_matmul(store: ArrayStore, a: TiledMatrix, b: TiledMatrix,
                      name: str | None = None) -> TiledMatrix:
    """The unblocked triple loop at tile granularity (baseline).

    Iterates output tiles in row-major order and re-reads the A tile row
    and B tile column for every output tile with no submatrix blocking —
    the access pattern of Example 2's straightforward algorithm, at tile
    rather than element granularity.  I/O grows as
    ``Theta(n1*n2*n3 / (B * t))`` for tile side t, which a small buffer
    pool cannot hide.  Deliberately unhinted: this is the baseline the
    prefetching benchmarks compare against.
    """
    _check_conformable(a, b)
    m, l = a.shape
    n = b.shape[1]
    out_dtype = np.result_type(a.dtype, b.dtype)
    out = store.create_matrix((m, n), layout="square", name=name,
                              dtype=out_dtype)
    th_a, tw_a = a.tile_shape
    th_b, tw_b = b.tile_shape
    th_o, tw_o = out.tile_shape
    for ti in range(out.grid[0]):
        for tj in range(out.grid[1]):
            r0, r1, c0, c1 = out.tile_bounds(ti, tj)
            acc = np.zeros((r1 - r0, c1 - c0), dtype=out_dtype)
            for k0 in range(0, l, tw_a):
                k1 = min(k0 + tw_a, l)
                a_sub = a.read_submatrix(r0, r1, k0, k1)
                b_sub = b.read_submatrix(k0, k1, c0, c1)
                acc += a_sub @ b_sub
            out.write_tile(ti, tj, acc)
    return out


ALGORITHMS = {
    "square": square_tile_matmul,
    "bnlj": bnlj_matmul,
}


def multiply_chain(store: ArrayStore, mats: list[TiledMatrix],
                   memory_scalars: int, order=None,
                   algorithm: str = "square",
                   out_tile_shape: tuple[int, int] | None = None
                   ) -> TiledMatrix:
    """Appendix-B schedule: one multiplication at a time, optimal order.

    ``order`` defaults to the DP-optimal parenthesization; pass
    ``repro.core.chain.in_order(len(mats))`` to reproduce R's left-deep
    evaluation for comparison.  ``out_tile_shape`` (square algorithm
    only) fixes the tile layout of every intermediate, so compressed
    stores keep multi-page tiles through the whole chain.
    """
    from repro.core.chain import optimal_order

    if len(mats) == 1:
        return mats[0]
    dims = [mats[0].shape[0]] + [m.shape[1] for m in mats]
    if order is None:
        order = optimal_order(dims)
    if algorithm == "square":
        multiply = lambda x, y: square_tile_matmul(  # noqa: E731
            store, x, y, memory_scalars,
            out_tile_shape=out_tile_shape)
    elif algorithm == "bnlj":
        multiply = lambda x, y: bnlj_matmul(  # noqa: E731
            store, x, y, memory_scalars)
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")

    temps: list[TiledMatrix] = []

    def build(o) -> TiledMatrix:
        if isinstance(o, int):
            return mats[o]
        left = build(o[0])
        right = build(o[1])
        result = multiply(left, right)
        for t in (left, right):
            if t in temps:
                temps.remove(t)
                t.drop()
        temps.append(result)
        return result

    return build(order)
