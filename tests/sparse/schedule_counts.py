"""Block counts of the sparse kernels' schedules on real tile directories.

The kernels and the cost models share their panel geometry
(``repro.core.costs.spgemm_row_panels`` / ``spmm_panels``, applied to
real operands by ``kernels.spgemm_schedule`` / ``spmm_schedule``);
these helpers take that geometry and count, tile by tile, what a run
with no help from the pool must read — the number ``tests/sparse``
holds the measured cold-pool reads to.  They also give the count of the
loop the ``spgemm`` panels replaced, which one-row panels fall back to
on the B side.
"""

from __future__ import annotations

from repro.sparse.kernels import spgemm_schedule, spmm_schedule


def _pages(mat, ti, tj) -> int:
    return mat.directory[ti, tj][1]


def biggest_tile(mat) -> int:
    """Pages of the largest stored tile (0 for an all-zero matrix)."""
    return max((pages for _, pages, _ in mat.directory.values()), default=0)


def hints_fit(store, biggest_read: int) -> bool:
    """Is every read's footprint announced whole?  Always with the
    scheduler — and so every hint — off.  With it on the kernels hint
    at most half the pool at a time; a single footprint over that is
    clipped by the pool and can cost a re-read (the accounting note in
    ``repro.sparse.kernels``), so exact counts are promised only below
    it.  Above it a sparse tile's page can be fetched by the hint and,
    evicted unread, again by the one ``get_many`` that reads the tile:
    ``spgemm`` stays within twice its schedule's count."""
    return (not store.pool.scheduler.enabled
            or biggest_read <= max(1, store.pool.capacity // 2 - 2))


def spgemm_schedule_reads(a, b, memory: int) -> int:
    """A's needed tiles once; per panel, every B tile whose block row
    some held row of A has a tile for."""
    needed, panels = spgemm_schedule(a, b, memory)
    reads = sum(_pages(a, ti, k) for ti, ks in enumerate(needed) for k in ks)
    for lo, hi in panels:
        held = {k for ks in needed[lo:hi] for k in ks}
        reads += sum(_pages(b, k, tj) for k, tj in b.directory if k in held)
    return reads


def spgemm_pair_reads(a, b) -> tuple[int, int]:
    """``(A pages, B pages)`` of the output-tile loop: both tiles of
    every pair ``A(ti, k), B(k, tj)``, once per pair."""
    a_reads = b_reads = 0
    for ti in range(a.grid[0]):
        for tj in range(b.grid[1]):
            for k in set(a.nonempty_in_row(ti)) & set(b.nonempty_in_col(tj)):
                a_reads += _pages(a, ti, k)
                b_reads += _pages(b, k, tj)
    return a_reads, b_reads


def spmm_schedule_reads(a, b, memory: int) -> int:
    """Per column panel, A's tiles once; per row panel inside it, the B
    strip under every block column where a held row has a tile."""
    pw, r = spmm_schedule(a, b, memory)
    tk = a.tile_shape[1]
    reads = 0
    for j0 in range(0, b.shape[1], pw):
        j1 = min(j0 + pw, b.shape[1])
        reads += a.data_pages
        for lo in range(0, a.grid[0], r):
            tjs = {tj for ti in range(lo, min(lo + r, a.grid[0]))
                   for tj in a.nonempty_in_row(ti)}
            reads += sum(
                len(b.submatrix_blocks(tj * tk,
                                       min((tj + 1) * tk, a.shape[1]),
                                       j0, j1))
                for tj in tjs)
    return reads
