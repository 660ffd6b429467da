"""I/O-measured sparse kernels: SpMV, SpMM, SpGEMM.

Each kernel runs against the counted storage stack and announces its tile
footprint through ``pool.prefetch()`` before reading it, exactly like the
dense ``square_tile_matmul`` — so the PR-1 scheduler turns the misses into
a few coalesced device calls without changing block totals.

``spmm`` and ``spgemm`` follow the dense kernels' panel idea and their
memory convention: what a schedule holds between uses — accumulators,
the held operand, the one streamed tile or strip — stays within the
``memory_scalars`` it is handed, *beside* the buffer pool (a pair's
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
#: one BLAS GEMM above it.  Measured per pair on this repo's 2-vCPU
#: container, BLAS pinned to one thread, 128-side tiles (CSR vs dense,
#: us): 10 vs 94 at 0.5 % tile density (``P`` ~ 50), 19 vs 98 at 2 %
#: (840), 46 vs 98 at 5 % (5.6 k), 65 vs 101 at 7 % (9.5 k), 314 vs 107
#: at 10 % (21.5 k), 8 017 vs 167 at 50 % (523 k).  The compressed step
#: is ~10 us + ~5 ns per product until its temporaries pass 128 KiB at
#: ``P`` = 16 384 and then ~15 ns per product, so at side 128 the paths
#: meet near ``P`` = 16 k, 1/128 of the 2 097 152; the same sweep gives
#: ~1/100 at side 64 and ~1/250 at side 256, and 1/256 keeps the
#: compressed path on its winning side at all three.
#: ``benchmarks/bench_sparse.py::test_spgemm_density_sweep`` repeats the
#: comparison end to end on both sides of it.
SPGEMM_DENSE_CROSSOVER = 1 / 256


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


def _multiply_pair(acc: np.ndarray, a_csr, b_csr) -> None:
    """``acc += A_tile @ B_tile`` for two CSR tiles, by the cheaper path.

    The sparse product is a join on the inner index followed by a keyed
    sum: nonzero ``a[i, p]`` meets every stored entry of B's row ``p``.
    The size of that join, ``P``, costs O(nnz) to count and decides the
    path before anything is expanded (see ``SPGEMM_DENSE_CROSSOVER``).
    Either way the summation order depends only on the two tiles, never
    on the pool or the schedule that delivered them.
    """
    a_indptr, a_indices, a_data = a_csr
    b_indptr, b_indices, b_data = b_csr
    starts = b_indptr[a_indices]
    counts = b_indptr[a_indices + 1] - starts
    total = int(counts.sum())
    th, tw = acc.shape
    tk = b_indptr.size - 1
    if total > SPGEMM_DENSE_CROSSOVER * th * tk * tw:
        acc += (csr_to_dense(a_indptr, a_indices, a_data, (th, tk))
                @ csr_to_dense(b_indptr, b_indices, b_data, (tk, tw)))
    elif total:
        _expand_pair(acc, a_indptr, a_data, b_indices, b_data,
                     starts, counts, total)


def _expand_pair(acc, a_indptr, a_data, b_indices, b_data,
                 starts, counts, total) -> None:
    """Form a pair's ``total`` products and scatter-add them into ``acc``.

    A's nonzero ``q`` contributes ``counts[q]`` products with B's stored
    entries ``starts[q] : starts[q] + counts[q]``; they are laid out in
    A's CSR order and added in that order.
    """
    th, tw = acc.shape
    # Flat offset in ``acc`` of the output row of every A nonzero.
    row_base = np.arange(0, th * tw, tw, dtype=_INT).repeat(
        a_indptr[1:] - a_indptr[:-1])
    # Position in B's arrays of every product's right factor: a ramp
    # 0..total-1 shifted, per A nonzero, from its offset in the product
    # list to its row's offset in B.
    first = counts.cumsum() - counts
    b_pos = np.arange(total, dtype=_INT) + (starts - first).repeat(counts)
    flat = row_base.repeat(counts) + b_indices[b_pos]
    np.add.at(acc.reshape(-1), flat,
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
    dense output-tile accumulator and the row's A tiles as CSR triples,
    beside the B tile being multiplied.  A panel reads its A tiles once
    and keeps them; then, one output column ``tj`` at a time, it reads
    each needed ``B(k, tj)`` once (k ascending) and multiplies it into
    the accumulator of every held row that has ``A(ti, k)`` — see
    :func:`_multiply_pair` — and appends the column's finished tiles.
    So A is read once and B once per panel, and every output tile sums
    its pairs in ascending k whatever the panel height.  The tile
    directories decide what is needed without I/O: ``A(ti, k)`` is
    skipped when B's block row ``k`` is empty, ``B(k, tj)`` when no
    held row has a tile in block column ``k``, and an all-zero result
    tile is never written.  Output tiles are appended panel by panel,
    column by column, rows ascending.
    """
    _check_conformable(a, b)
    if a.tile_shape[1] != b.tile_shape[0]:
        raise ValueError(
            f"k-grids must align: A tiles {a.tile_shape} vs "
            f"B tiles {b.tile_shape}")
    m, n = a.shape[0], b.shape[1]
    out = SparseTiledMatrix(
        store, name or store._fresh_name("spgemm"), (m, n),
        (a.tile_shape[0], b.tile_shape[1]), a.linearization.name)
    hinting = a.store is store and b.store is store
    needed, panels = spgemm_schedule(a, b, memory_scalars)
    for lo, hi in panels:
        with store.tracer.span("spgemm:row_panel", cat="kernel",
                               lo=lo, hi=hi):
            coords = [(ti, k) for ti in range(lo, hi) for k in needed[ti]]
            hints = _BatchedHints(
                store.pool, [a.tile_blocks(ti, k) for ti, k in coords],
                hinting)
            held = {}
            # Inner tile -> the held rows with a tile in it.
            rows_at: dict[int, list[int]] = {}
            for idx, (ti, k) in enumerate(coords):
                hints.before(idx)
                # Own, exactly-sized copies: what a read returns is
                # backed by whole pages, which the budget does not cover.
                held[ti, k] = tuple(
                    part.copy() for part in a.read_tile_csr(ti, k))
                rows_at.setdefault(k, []).append(ti)
            for tj in range(out.grid[1]):
                ks = [k for k in b.nonempty_in_col(tj) if k in rows_at]
                hints = _BatchedHints(
                    store.pool, [b.tile_blocks(k, tj) for k in ks],
                    hinting)
                accs: dict[int, np.ndarray] = {}
                for idx, k in enumerate(ks):
                    hints.before(idx)
                    b_csr = b.read_tile_csr(k, tj)
                    for ti in rows_at[k]:
                        if ti not in accs:
                            r0, r1, c0, c1 = out.tile_bounds(ti, tj)
                            accs[ti] = np.zeros((r1 - r0, c1 - c0),
                                                dtype=_FLOAT)
                        _multiply_pair(accs[ti], held[ti, k], b_csr)
                for ti in sorted(accs):
                    out.append_tile_dense(ti, tj, accs[ti])
    return out
