"""I/O-measured sparse kernels: SpMV, SpMM, SpGEMM.

Each kernel runs against the counted storage stack and announces its tile
footprint through ``pool.prefetch()`` before reading it, exactly like the
dense ``square_tile_matmul`` — so the PR-1 scheduler turns the misses into
a few coalesced device calls without changing block totals.

``spmm`` and ``spgemm`` follow the dense kernels' panel idea and their
memory convention: what a schedule holds between uses — accumulators,
the held operand, the one streamed tile or strip — stays within the
``memory_scalars`` it is handed, *beside* the buffer pool (a step's
arithmetic temporaries are not counted, as a GEMM's are not).  Both hold
a panel of A's block rows and stream B past it, so a B tile is read once
per panel instead of once per block row.  The panel geometry is one pure
function per kernel in :mod:`repro.core.costs` (``spmm_panels``,
``spgemm_row_panels``): the kernel calls it with the exact tile
directory (:func:`spmm_schedule`, :func:`spgemm_schedule`), the
analytic twin (``spmm_io``, ``spgemm_io``) with the expected one —
where every block row is alike, so ``spgemm_panel_rows`` gives the
greedy cut's height without walking them — and ``tests/sparse`` checks
both: a cold pool's block count equals a count over the schedule, and
the model lands within 0.8x-1.25x of the measurement.  Every output
tile still receives its contributions in ascending inner-tile order,
so results do not depend on the budget, the pool or the panel height.
``spmv`` keeps one block row at a time (``spmv_io``).

``spgemm`` also does its arithmetic per panel, not per tile.  The held
form is one stacked CSR block per inner index ``k``
(:class:`_HeldColumn`: the panel's tiles ``A(ti, k)`` laid end to end,
``ti`` ascending, in no more words than the schedule budgets for them),
built once per panel.  A *step* multiplies one streamed ``B(k, tj)``
into the panel's stacked accumulator for every held row at once
(:func:`_multiply_step`): one count of the join, one expansion, one
scatter-add — where a pair-at-a-time loop paid that fixed cost per
``(ti, k, tj)``.  The compressed-or-dense choice stays per tile pair,
from the pair's own product count (``SPGEMM_DENSE_CROSSOVER``); a pair
above it is multiplied by BLAS alone and masked out of the step's join.
Held tiles write disjoint accumulator rows and steps run ``k``
ascending, so each output element receives the same additions in the
same order whatever is stacked: results are bitwise those of the
pair-at-a-time loop (``model_spgemm`` in ``tests/sparse``).  What a
step allocates and drops: per held nonzero three words (row offset,
B-row start, count — the size of the held column), per product some 70
bytes, at most about ``JOIN_PRODUCTS`` products at a time.

Accounting note: hints are announced in pool-sized batches (see
:class:`_BatchedHints`), which keeps hinted block totals within a few
percent of the unhinted run.  Unlike the chunk-aligned dense streams,
exact equality is not guaranteed — batching shifts eviction *timing*,
so a vector chunk that happened to stay cached across block rows in the
unhinted run may be re-read in the hinted one.  Results are always
bitwise identical and call counts strictly drop.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.core.costs import spgemm_row_panels, spmm_panels
from repro.storage import ArrayStore, TiledMatrix, TiledVector

from .sparse_matrix import (SparseTiledMatrix, csr_matvec, csr_to_dense,
                            tile_words)

_FLOAT = np.float64
_INT = np.int64

#: ``spgemm`` multiplies a tile pair in compressed form while the pair's
#: exact product count ``P`` is at most this fraction of the dense tile
#: product's ``th * tk * tw`` multiply-adds, and densifies both tiles for
#: one BLAS GEMM above it.  The rule is per pair, but the compressed
#: path's fixed cost is paid per *step* — one ``(k, tj)`` multiply for
#: every held tile ``A(ti, k)`` at once — about 12 us a step plus 1.5 us
#: a held tile, then 7-10 ns a product.  Measured per pair on this
#: repo's 2-vCPU container, BLAS pinned to one thread, 128-side tiles,
#: a tile alone in its step and six stacked (CSR vs dense, us): 12 vs
#: 145 and 3.3 vs 130 at 0.5 % tile density (``P`` ~ 56), 20 vs 145 and
#: 13 vs 131 at 2 % (850), 49 vs 146 and 63 vs 135 at 5 % (4.9 k), 74 vs
#: 147 and 97 vs 131 at 7 % (10.3 k), 106 vs 165 and 134 vs 137 at
#: 8.5 % (15.1 k), 151 vs 151 and 179 vs 137 at 10 % (21.4 k), 8 472 vs
#: 206 and 7 940 vs 177 at 50 % (523 k).  (The dense path is cheaper in
#: a stack because B is densified once a step; the same container ran
#: it in 94-107 us when the constant was first set, so read ratios, not
#: microseconds.)  At side 128 the paths meet near ``P`` = 21 k alone
#: and 15 k in a stack of six, 1/100 and 1/140 of the 2 097 152; the
#: same sweep gives 1/50 and 1/130 at side 64, 1/165 and 1/160 at side
#: 256, so 1/256 keeps the compressed path on its winning side at all
#: three with a factor of 1.6 to spare — moving it toward 1/160 is a
#: change of bits (other pairs densify) for a later PR to weigh.
#: ``benchmarks/bench_sparse.py::test_spgemm_density_sweep`` repeats the
#: comparison end to end on both sides of it (n = 1024, adaptive vs
#: densify-every-pair seconds, csr / dense pairs in steps): 0.018 vs
#: 0.084 at operand density 0.1 % (430 / 0 in 116), 0.014 vs 0.093 at
#: 0.5 % (512 / 0 in 128), 0.036 vs 0.095 at 2 %, 0.076 vs 0.107 at
#: 5 %, then 0.189 vs 0.199 at 20 % (0 / 512 in 512 one-row steps) and
#: 0.274 vs 0.280 at 50 %.
SPGEMM_DENSE_CROSSOVER = 1 / 256

#: A step expands about this many products at a time — whole tiles, cut
#: where the running count passes a multiple of it; one pair is never
#: split — so the expansion's temporaries (some 70 bytes a product)
#: stay the size of one large pair's whatever the panel height, as the
#: memory convention above assumes.  16 384 is also where a product's
#: cost doubles once the temporaries outgrow the cache (six stacked 7 %
#: tiles, 62 k products: 195 us a pair in one expansion, 97 cut here).
JOIN_PRODUCTS = 16384


def _check_conformable(a: SparseTiledMatrix, b) -> None:
    b_rows = b.length if isinstance(b, TiledVector) else b.shape[0]
    if a.shape[1] != b_rows:
        raise ValueError(
            f"non-conformable operands: {a.shape} x {(b_rows,)}")


class _BatchedHints:
    """Announce per-tile footprints in batches the pool can hold.

    An oversized hint is clipped by the pool, and frames prefetched
    beyond what fits can be evicted before their demand read — the
    re-reads would badly inflate the block totals the cost models
    charge.  Capping each announcement at half the pool keeps every
    hinted block resident until it is consumed, mirroring the
    windowing of ``TiledVector.scan``.
    """

    def __init__(self, pool, groups: list[list[int]],
                 enabled: bool) -> None:
        self.pool = pool
        self.groups = groups
        self.enabled = enabled
        self.limit = max(1, pool.capacity // 2 - 2)
        self._next = 0

    def before(self, idx: int) -> None:
        """Ensure group ``idx`` has been announced (greedy lookahead)."""
        if not self.enabled or idx < self._next:
            return
        batch: list[int] = []
        t = idx
        while t < len(self.groups) and (
                not batch
                or len(batch) + len(self.groups[t]) <= self.limit):
            batch.extend(self.groups[t])
            t += 1
        if batch:
            self.pool.prefetch(batch)
        self._next = max(t, idx + 1)


class _StreamingVectorWriter:
    """Write a vector front to back in arbitrary-sized pieces.

    Block rows of SpMV produce ``tile_rows`` results at a time, which
    rarely align with the output's chunk grid; this buffers exactly one
    chunk so every chunk is still written once, in order.
    """

    def __init__(self, out: TiledVector) -> None:
        self.out = out
        self._buf = np.zeros(out.chunk, dtype=_FLOAT)
        self._filled = 0
        self._ci = 0

    def emit(self, piece: np.ndarray) -> None:
        pos = 0
        while pos < piece.size:
            lo, hi = self.out.chunk_bounds(self._ci)
            room = (hi - lo) - self._filled
            take = min(room, piece.size - pos)
            self._buf[self._filled: self._filled + take] = \
                piece[pos: pos + take]
            self._filled += take
            pos += take
            if self._filled == hi - lo:
                self.out.write_chunk(self._ci, self._buf[: hi - lo])
                self._ci += 1
                self._filled = 0

    def close(self) -> None:
        if self._filled:
            raise RuntimeError("vector writer closed mid-chunk")


def spmv(store: ArrayStore, a: SparseTiledMatrix, x: TiledVector,
         name: str | None = None) -> TiledVector:
    """``y = A x`` one block row at a time, skipping empty tiles.

    Per block row the footprint — every nonempty CSR tile plus the x
    chunks their column ranges cover — is announced up front; empty
    tiles cost nothing, which is where the win over dense tiling
    comes from.
    """
    _check_conformable(a, x)
    out = store.create_vector(a.shape[0], name=name)
    writer = _StreamingVectorWriter(out)
    hinting = a.store is store and x.store is store
    for ti in range(a.grid[0]):
        with store.tracer.span("spmv:block_row", cat="kernel", ti=ti):
            r0 = ti * a.tile_shape[0]
            r1 = min(r0 + a.tile_shape[0], a.shape[0])
            acc = np.zeros(r1 - r0, dtype=_FLOAT)
            tjs = a.nonempty_in_row(ti)
            groups: list[list[int]] = []
            seen_chunks: set[int] = set()
            for tj in tjs:
                keys = a.tile_blocks(ti, tj)
                _, _, c0, c1 = a.tile_bounds(ti, tj)
                fresh = [ci
                         for ci in range(c0 // x.chunk, -(-c1 // x.chunk))
                         if ci not in seen_chunks]
                seen_chunks.update(fresh)
                groups.append(keys + x.blocks_for_chunks(fresh))
            hints = _BatchedHints(store.pool, groups, hinting)
            for idx, tj in enumerate(tjs):
                hints.before(idx)
                indptr, indices, data = a.read_tile_csr(ti, tj)
                _, _, c0, c1 = a.tile_bounds(ti, tj)
                csr_matvec(indptr, indices, data,
                           x.read_range(c0, c1), acc)
            writer.emit(acc)
    writer.close()
    return out


def _accumulate(parallel, acc, thunks):
    """``for fn in thunks: acc += fn()``, offloaded when possible.

    Same contract as the dense kernels' helper: ``parallel`` is
    duck-typed (``.accumulate``), the thunk stream is consumed lazily so
    hint announcements and tile reads stay on the calling thread in
    exact serial order, and the in-order fold keeps results bitwise
    identical to the serial loop.
    """
    if parallel is None:
        for fn in thunks:
            acc += fn()
        return acc
    return parallel.accumulate(acc, thunks)


class _RowFold:
    """Fold target that hands each step's product to its own block row.

    :func:`_accumulate` folds ``target += fn()``; here ``fn()`` returns
    ``(rows, product)`` and the product is added into ``acc[rows]``, so
    one ordered stream feeds every accumulator of a row panel and each
    still sums its products in stream order.
    """

    def __init__(self, acc: np.ndarray) -> None:
        self.acc = acc

    def __iadd__(self, step) -> "_RowFold":
        rows, product = step
        self.acc[rows] += product
        return self


def _row_product(rows: slice, a_tile: np.ndarray, b_strip: np.ndarray):
    """One :class:`_RowFold` step: ``A(ti, tj) @ strip`` for the block
    row at ``rows`` of the panel's accumulator."""
    return lambda: (rows, a_tile @ b_strip)


def spmm_schedule(a: SparseTiledMatrix, b: TiledMatrix,
                  memory_scalars: int) -> tuple[int, int]:
    """``(pw, r)`` of :func:`spmm` on these operands:
    :func:`repro.core.costs.spmm_panels` on the exact directory."""
    th, tk = a.tile_shape
    return spmm_panels(memory_scalars, b.shape[1], th, tk, a.grid[0],
                       a.data_pages, b.file.num_pages, th * tk)


def spmm(store: ArrayStore, a: SparseTiledMatrix, b: TiledMatrix,
         memory_scalars: int, name: str | None = None,
         parallel=None) -> TiledMatrix:
    """``C = A B`` with sparse A and dense tiled B, by row panels inside
    column panels.

    :func:`repro.core.costs.spmm_panels` sizes both from
    ``memory_scalars``: ``r`` accumulator strips (one per held block
    row, ``pw`` columns wide), the B strip being multiplied and one
    densified A tile.  Within a column panel, a row panel walks A's
    block columns ``tj`` in ascending order; each B strip is read once
    and multiplied by ``A(ti, tj)`` for every held row that has that
    tile, so A is read once per column panel and B once per row panel.
    Each accumulator sums its products in ascending ``tj`` whatever
    ``r`` is.  Block columns where no held row has a tile read nothing,
    and a row panel with no nonzeros writes its zeros without reading.
    ``parallel`` offloads the per-tile multiplies to worker threads
    exactly as in the dense kernels (reads stay serial; in-order
    accumulation).
    """
    _check_conformable(a, b)
    m = a.shape[0]
    n = b.shape[1]
    th = a.tile_shape[0]
    pw, r = spmm_schedule(a, b, memory_scalars)
    out = store.create_matrix((m, n), tile_shape=a.tile_shape,
                              linearization=a.linearization.name,
                              name=name)
    hinting = a.store is store and b.store is store
    for j0 in range(0, n, pw):
        j1 = min(j0 + pw, n)
        for lo in range(0, a.grid[0], r):
            hi = min(lo + r, a.grid[0])
            with store.tracer.span("spmm:row_panel", cat="kernel",
                                   j0=j0, lo=lo, hi=hi):
                r0 = lo * th
                acc = np.zeros((min(hi * th, m) - r0, j1 - j0),
                               dtype=_FLOAT)
                # Block column -> the held rows with a tile in it.
                rows_at: dict[int, list[int]] = {}
                for ti in range(lo, hi):
                    for tj in a.nonempty_in_row(ti):
                        rows_at.setdefault(tj, []).append(ti)
                # The B strip under each of those columns, tj ascending.
                strips = [(tj, *a.tile_bounds(lo, tj)[2:], j0, j1)
                          for tj in sorted(rows_at)]
                # One hint group per read, in read order: a strip of
                # B, then the held rows' A tiles it multiplies.
                groups = []
                for tj, *strip in strips:
                    groups.append(b.submatrix_blocks(*strip))
                    groups.extend(a.tile_blocks(ti, tj)
                                  for ti in rows_at[tj])
                hints = _BatchedHints(store.pool, groups, hinting)

                def steps(lo=lo, rows_at=rows_at, strips=strips,
                          hints=hints):
                    read = itertools.count()
                    for tj, *strip in strips:
                        hints.before(next(read))
                        b_strip = b.read_submatrix(*strip)
                        for ti in rows_at[tj]:
                            hints.before(next(read))
                            a_tile = a.read_tile(ti, tj)
                            top = (ti - lo) * th
                            yield _row_product(
                                slice(top, top + a_tile.shape[0]),
                                a_tile, b_strip)

                _accumulate(parallel, _RowFold(acc), steps())
                out.write_submatrix(r0, j0, acc)
    return out


class _HeldColumn:
    """The held tiles ``A(ti, k)`` of one inner index ``k``, stacked.

    One CSR block over the tiles' rows laid end to end, ``ti``
    ascending: ``indices`` / ``data`` are the tiles' arrays
    concatenated, ``lens`` the stored entries of every stacked row,
    ``seg`` each tile's first entry and ``heights`` its row count —
    ``2 nnz + rows + 2`` words a tile, the ``tile_words`` the schedule
    budgets for it.  The arrays are sized from the directory and filled
    as the tiles are read, so nothing page-backed outlives a read.
    ``spans`` lists the accumulator rows ``(top, rows)`` the stacked
    rows stand for, consecutive tiles merged: one span unless a held
    row between two others has no tile at ``k``.
    """

    __slots__ = ("tis", "tops", "row_bounds", "entry_bounds", "indices",
                 "data", "lens", "seg", "heights", "shortest", "spans",
                 "_filled")

    def __init__(self, tis: list[int], tops: list[int],
                 heights: list[int], nnzs: list[int]) -> None:
        self.tis = tis
        self.tops = tops
        self.row_bounds = [0, *itertools.accumulate(heights)]
        self.entry_bounds = [0, *itertools.accumulate(nnzs)]
        self.indices = np.empty(self.entry_bounds[-1], dtype=_INT)
        self.data = np.empty(self.entry_bounds[-1], dtype=_FLOAT)
        self.lens = np.empty(self.row_bounds[-1], dtype=_INT)
        self.seg = np.array(self.entry_bounds[:-1], dtype=_INT)
        self.heights = np.array(heights, dtype=_INT)
        self.shortest = min(heights)
        self.spans: list[tuple[int, int]] = []
        for top, rows in zip(tops, heights):
            if self.spans and sum(self.spans[-1]) == top:
                top, above = self.spans.pop()
                rows += above
            self.spans.append((top, rows))
        self._filled = 0

    def append(self, indptr: np.ndarray, indices: np.ndarray,
               data: np.ndarray) -> None:
        """Copy the next tile (``ti`` ascending) into its segment."""
        t = self._filled
        np.subtract(
            indptr[1:], indptr[:-1],
            out=self.lens[self.row_bounds[t]: self.row_bounds[t + 1]])
        entries = slice(self.entry_bounds[t], self.entry_bounds[t + 1])
        self.indices[entries] = indices
        self.data[entries] = data
        self._filled = t + 1

    def tile_csr(self, t: int
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ``t``-th held tile as a CSR triple again."""
        lens = self.lens[self.row_bounds[t]: self.row_bounds[t + 1]]
        indptr = np.zeros(lens.size + 1, dtype=_INT)
        np.cumsum(lens, out=indptr[1:])
        entries = slice(self.entry_bounds[t], self.entry_bounds[t + 1])
        return indptr, self.indices[entries], self.data[entries]

    def row_offsets(self, ramp: np.ndarray) -> np.ndarray:
        """``ramp`` (one value per accumulator row) at every stacked row."""
        if len(self.spans) == 1:
            top, rows = self.spans[0]
            return ramp[top: top + rows]
        return np.concatenate([ramp[top: top + rows]
                               for top, rows in self.spans])


def _hold_panel(pool, a: SparseTiledMatrix, lo: int, hi: int,
                needed: list[list[int]], hinting: bool
                ) -> dict[int, _HeldColumn]:
    """Read the needed A tiles of block rows ``[lo, hi)`` once, in
    ``(ti, k)`` order, into one :class:`_HeldColumn` per inner index."""
    th = a.tile_shape[0]
    coords = [(ti, k) for ti in range(lo, hi) for k in needed[ti]]
    # Inner tile -> the held rows with a tile in it.
    rows_at: dict[int, list[int]] = {}
    for ti, k in coords:
        rows_at.setdefault(k, []).append(ti)
    held = {k: _HeldColumn(tis, [(ti - lo) * th for ti in tis],
                           [min(th, a.shape[0] - ti * th) for ti in tis],
                           [a.tile_nnz(ti, k) for ti in tis])
            for k, tis in rows_at.items()}
    hints = _BatchedHints(
        pool, [a.tile_blocks(ti, k) for ti, k in coords], hinting)
    for idx, (ti, k) in enumerate(coords):
        hints.before(idx)
        held[k].append(*a.read_tile_csr(ti, k))
    return held


def _multiply_step(acc: np.ndarray, ramp: np.ndarray, col: _HeldColumn,
                   b_csr) -> tuple[int, int]:
    """``acc[rows of ti] += A(ti, k) @ B(k, tj)`` for every held ``ti``
    in one pass; returns how many of those tile pairs took the
    compressed and the dense path.

    The sparse product is a join on the inner index followed by a keyed
    sum: nonzero ``a[i, p]`` meets every stored entry of B's row ``p``.
    The size of that join costs O(nnz) to count for the whole stack, and
    one ``reduceat`` over the tiles' segments (never empty: only
    nonempty tiles are held) gives each pair's exact product count
    ``P``, which decides that pair's path before anything is expanded
    (see ``SPGEMM_DENSE_CROSSOVER``).  A pair above the crossover is
    densified and multiplied by one GEMM on its own and masked out of
    the join; the rest are expanded together, their products laid out
    in ``(ti, A's CSR order, B's row order)`` and scatter-added in that
    order.  Tiles of one step write disjoint rows, so every output
    element receives the additions the pair-at-a-time loop gave it, in
    the same order: the bits depend on the two tiles alone, never on
    what was stacked beside them or on the schedule that delivered them.

    ``acc`` is the panel's stacked accumulator for output column ``tj``
    and ``ramp[r]`` the flat offset of its row ``r``.
    """
    b_indptr, b_indices, b_data = b_csr
    tk, tw = b_indptr.size - 1, acc.shape[1]
    counts = (b_indptr[1:] - b_indptr[:-1])[col.indices]
    per_tile = np.add.reduceat(counts, col.seg)
    total = int(per_tile.sum())
    dense_pairs = 0
    # No pair is above its crossover unless the whole step is above the
    # lowest one (the shortest tile's); most steps stop at this test.
    if total > SPGEMM_DENSE_CROSSOVER * col.shortest * tk * tw:
        dense = np.flatnonzero(
            per_tile > SPGEMM_DENSE_CROSSOVER * col.heights * tk * tw)
        if dense.size:
            b_dense = csr_to_dense(b_indptr, b_indices, b_data, (tk, tw))
            for t in dense.tolist():
                rows = col.row_bounds[t + 1] - col.row_bounds[t]
                acc[col.tops[t]: col.tops[t] + rows] += csr_to_dense(
                    *col.tile_csr(t), (rows, tk)) @ b_dense
                counts[col.entry_bounds[t]: col.entry_bounds[t + 1]] = 0
            per_tile[dense] = 0
            dense_pairs = dense.size
            total = int(per_tile.sum())
    if total:
        # Flat offset in ``acc`` of every A nonzero's output row, and
        # where its B row starts.
        row_base = col.row_offsets(ramp).repeat(col.lens)
        starts = b_indptr[col.indices]
        cuts = [0, per_tile.size]
        if total > JOIN_PRODUCTS:
            # Whole tiles, cut wherever the running product count
            # passes another multiple of the limit.
            ends = per_tile.cumsum()
            cuts[1:1] = (np.flatnonzero(np.diff((ends - 1) // JOIN_PRODUCTS))
                         + 1).tolist()
        for t0, t1 in zip(cuts, cuts[1:]):
            part = slice(col.entry_bounds[t0], col.entry_bounds[t1])
            _join_expand(acc.reshape(-1), row_base[part], col.data[part],
                         starts[part], counts[part], b_indices, b_data)
    return int(np.count_nonzero(per_tile)), dense_pairs


def _join_expand(acc_flat, row_base, a_data, starts, counts,
                 b_indices, b_data) -> None:
    """Form the products of a run of A nonzeros and scatter-add them.

    Nonzero ``q`` (output row at flat offset ``row_base[q]``) meets B's
    stored entries ``starts[q] : starts[q] + counts[q]``; the products
    are laid out, and added, in the nonzeros' order.
    """
    ends = counts.cumsum()
    if not ends[-1]:
        return
    # Position in B's arrays of every product's right factor: a ramp
    # 0..total-1 shifted, per A nonzero, from its offset in the product
    # list to its row's offset in B.
    b_pos = np.arange(ends[-1], dtype=_INT) \
        + (starts - ends + counts).repeat(counts)
    np.add.at(acc_flat, row_base.repeat(counts) + b_indices[b_pos],
              a_data.repeat(counts) * b_data[b_pos])


def spgemm_schedule(a: SparseTiledMatrix, b: SparseTiledMatrix,
                    memory_scalars: int
                    ) -> tuple[list[list[int]], list[tuple[int, int]]]:
    """``(needed, panels)`` of :func:`spgemm` on these operands: per
    block row of A the inner tiles it reads (those that meet a B tile
    at all), and the row panels ``[lo, hi)``
    :func:`repro.core.costs.spgemm_row_panels` cuts from the exact
    directories."""
    th, tw = a.tile_shape[0], b.tile_shape[1]
    b_rows = {k for k, _ in b.directory}
    needed = [[k for k in a.nonempty_in_row(ti) if k in b_rows]
              for ti in range(a.grid[0])]
    panels = spgemm_row_panels(
        memory_scalars, th * tw,
        [sum(tile_words(th, a.tile_nnz(ti, k)) for k in ks)
         for ti, ks in enumerate(needed)],
        max((pages for _, pages, _ in b.directory.values()), default=0)
        * b.store.scalars_per_block)
    return needed, panels


def spgemm(store: ArrayStore, a: SparseTiledMatrix,
           b: SparseTiledMatrix, memory_scalars: int,
           name: str | None = None) -> SparseTiledMatrix:
    """``C = A B`` with both operands sparse; C is built sparse too.

    Requires the k-grids to line up (``a`` tile width == ``b`` tile
    height).  :func:`repro.core.costs.spgemm_row_panels` cuts A's block
    rows into panels that fit ``memory_scalars``: per held row one
    dense output-tile accumulator and the row's A tiles in compressed
    form, beside the B tile being multiplied.  A panel reads its A
    tiles once and keeps them stacked by inner index — one
    :class:`_HeldColumn` per ``k``, built once per panel; then, one
    output column ``tj`` at a time, it reads each needed ``B(k, tj)``
    once (k ascending) and multiplies it into the panel's stacked
    ``(panel rows x tw)`` accumulator in one step for every held row
    that has ``A(ti, k)`` — see :func:`_multiply_step`, which still
    picks the compressed or the dense path per tile pair — and appends
    the column's finished tiles, each cut from the accumulator with one
    mask pass.  So A is read once and B once per panel, and every output
    tile sums its pairs in ascending k whatever the panel height.  The
    tile directories decide what is needed without I/O: ``A(ti, k)`` is
    skipped when B's block row ``k`` is empty, ``B(k, tj)`` when no
    held row has a tile in block column ``k``, and an all-zero result
    tile is never written.  Output tiles are appended panel by panel,
    column by column, rows ascending.

    With the tracer enabled each ``spgemm:row_panel`` span carries the
    panel's ``steps`` (``(k, tj)`` multiplies that did any arithmetic)
    and the tile pairs they covered by path, ``csr_pairs`` (only pairs
    with a product count) and ``dense_pairs``.
    """
    _check_conformable(a, b)
    if a.tile_shape[1] != b.tile_shape[0]:
        raise ValueError(
            f"k-grids must align: A tiles {a.tile_shape} vs "
            f"B tiles {b.tile_shape}")
    m, n = a.shape[0], b.shape[1]
    th = a.tile_shape[0]
    out = SparseTiledMatrix(
        store, name or store._fresh_name("spgemm"), (m, n),
        (th, b.tile_shape[1]), a.linearization.name)
    hinting = a.store is store and b.store is store
    needed, panels = spgemm_schedule(a, b, memory_scalars)
    for lo, hi in panels:
        with store.tracer.span("spgemm:row_panel", cat="kernel",
                               lo=lo, hi=hi) as span:
            held = _hold_panel(store.pool, a, lo, hi, needed, hinting)
            panel_rows = min(hi * th, m) - lo * th
            csr_pairs = dense_pairs = steps = 0
            for tj in range(out.grid[1]):
                ks = [k for k in b.nonempty_in_col(tj) if k in held]
                if not ks:
                    continue
                hints = _BatchedHints(
                    store.pool, [b.tile_blocks(k, tj) for k in ks],
                    hinting)
                tw = min(out.tile_shape[1], n - tj * out.tile_shape[1])
                acc = np.zeros((panel_rows, tw), dtype=_FLOAT)
                ramp = np.arange(0, acc.size, tw, dtype=_INT)
                for idx, k in enumerate(ks):
                    hints.before(idx)
                    csr, dense = _multiply_step(acc, ramp, held[k],
                                                b.read_tile_csr(k, tj))
                    csr_pairs += csr
                    dense_pairs += dense
                    steps += bool(csr or dense)
                for ti in sorted({ti for k in ks for ti in held[k].tis}):
                    top = (ti - lo) * th
                    out.append_tile_dense(ti, tj, acc[top: top + th])
            if span is not None:
                span.args.update(csr_pairs=csr_pairs,
                                 dense_pairs=dense_pairs, steps=steps)
    return out
