"""Analytic I/O cost models (§3, §5, Appendices A/B, Figure 3).

The paper's Figure 3 reports **calculated** I/O costs — an n = 100000 square
matrix is an 80 GB object, so the authors costed the strategies analytically
exactly as we do here.  Units: ``memory`` and ``block`` are in scalars
(8-byte float64 values); results are in disk blocks.

The measured out-of-core implementations in :mod:`repro.linalg` are checked
against these models at small n by ``tests/linalg/test_cost_agreement.py`` —
a validation the paper itself did not show.  Each dense kernel runs a
schedule stated here once, for it and its verifier:
:func:`square_schedule` (with its fused epilogue), :func:`bnlj_schedule`,
:func:`crossprod_schedule` and :func:`lu_schedule`.  The crossprod and
LU models count over their schedules; the square-tile and BNLJ models
are the paper's closed forms, which
``tests/core/test_costs.py::TestClosedFormsAgainstSchedules`` keeps
within a band of the schedules' counts.

:data:`COST_MODELS` names every model the planner prices an operator
with; the planner calls each only as ``COST_MODELS[name](**inputs)``,
with the inputs ``explain`` prints.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

from repro.storage.tile_store import default_tile_side

#: Figure 3 parameters: block size B = 1024 scalars (8 KB).
FIG3_BLOCK = 1024
#: 2 GB and 4 GB of memory expressed in scalars.
GB_IN_SCALARS = (1 << 30) // 8


# ----------------------------------------------------------------------
# Single multiplications
# ----------------------------------------------------------------------
def matmul_io_lower_bound(m: float, l: float, n: float,
                          memory: float, block: float) -> float:
    """Appendix A lower bound: ``lmn / (B sqrt(M))`` blocks."""
    return (l * m * n) / (block * math.sqrt(memory))


def square_tile_matmul_io(m: float, l: float, n: float,
                          memory: float, block: float,
                          ratio: float = 1.0) -> float:
    """Appendix A optimal schedule with p x p tiles, p = sqrt(M/3).

    ``(2 p^2/B * l/p + p^2/B) * (mn/p^2) = 2*sqrt(3)*lmn/(B*sqrt(M)) + mn/B``
    — reads of the A/B tile pairs plus one write of each C tile.

    ``ratio`` is the stored-page ratio of the operands: pages holding
    data over pages spanned, summed over the dense matrices the
    operator reads (1.0 uncompressed; see
    :meth:`repro.core.planner.Planner._price`).  Every term is
    device traffic through codec tiles, so the whole cost scales with
    it.
    """
    return ratio * ((2.0 * math.sqrt(3.0) * l * m * n
                     / (block * math.sqrt(memory))) + (m * n) / block)


def matmul_io(m: float, l: float, n: float, memory: float, block: float,
              ratio: float = 1.0) -> float:
    """The dense product the planner prices: the Appendix-A cost
    (:func:`square_tile_matmul_io`), clamped at the one-pass floor.

    The formula is asymptotic; at small sizes it drops below the
    trivial floor of reading both operands and writing the result
    once, so comparisons clamp it there.  ``ratio`` scales both the
    formula and the floor — compression shrinks the one-pass traffic
    too.
    """
    return max(square_tile_matmul_io(m, l, n, memory, block, ratio),
               ratio * (m * l + l * n + m * n) / block)


def transpose_materialize_io(rows: float, cols: float, block: float,
                             ratio: float = 1.0) -> float:
    """One full disk pass to store an explicit transpose: read every
    source tile once, write every output tile once.  This is the pass
    the ``trans_a``/``trans_b`` operand flags delete.  ``ratio`` scales
    it by the storage codec's compressed-byte ratio."""
    return ratio * (2.0 * rows * cols / block)


def square_panel(memory: float, tile_side: int, panels: int = 3) -> int:
    """The Appendix-A submatrix side ``p = sqrt(M / panels)``,
    tile-aligned — the p of :func:`square_schedule` and the Appendix-A
    candidate of :func:`crossprod_schedule`.

    ``panels`` is the number of p x p submatrices resident at once.
    When the budget cannot hold ``panels`` whole storage tiles the
    panel goes *ragged*: p drops below the tile side, never below 1.
    ``tile_side = 1`` gives ``floor(sqrt(M / panels))``, the largest
    panel any tile side can give.
    """
    p = int(math.sqrt(memory / float(panels)))
    if p < tile_side:
        return max(1, p)
    return max(tile_side, (p // tile_side) * tile_side)


def held_submatrices(extra: float = 0) -> float:
    """Submatrices an Appendix-A step holds: A's, B's and C's, and one
    per fused-epilogue input."""
    return 3 + extra


def _panels_fit(memory: float, extra: int, kernel: str) -> int:
    """``held_submatrices(extra)``; ``kernel`` refuses fewer scalars."""
    panels = held_submatrices(extra)
    if memory < panels:
        fused = f" with a fused epilogue reading {extra} more" if extra else ""
        raise ValueError(
            f"memory budget of {memory} scalars cannot hold {panels} "
            f"1 x 1 submatrices for {kernel}{fused}: the schedule "
            f"needs at least {panels} scalars")
    return panels


#: A rectangle ``(r0, r1, c0, c1)`` of a matrix.
Rect = tuple[int, int, int, int]


def cuts(n: int, step: int) -> list[tuple[int, int]]:
    """``[0, n)`` in ranges ``step`` long, the last one ragged — the
    loop arithmetic of every schedule and kernel."""
    return [(lo, min(lo + step, n)) for lo in range(0, n, step)]


@dataclass(frozen=True)
class ProductSchedule:
    """The blocked schedule of an m x l by l x n product: the result in
    ``rows`` x ``cols`` blocks, row-major, each summed over inner steps
    ``depth`` wide.  Appendix A's is p x p blocks of depth p; §3's BNLJ
    is chunks of q rows at full depth, B scanned ``cols`` columns at a
    time while the chunk's rows of A and of the result stay resident."""

    m: int
    l: int
    n: int
    rows: int
    cols: int
    depth: int

    def steps(self) -> Iterator[tuple[Rect, Rect, Rect]]:
        """``(out, a, b)`` per step, in execution order: A's rectangle
        ``a`` times B's ``b`` folds into the output block ``out``."""
        for i0, i1 in cuts(self.m, self.rows):
            for j0, j1 in cuts(self.n, self.cols):
                for k0, k1 in cuts(self.l, self.depth):
                    yield ((i0, i1, j0, j1), (i0, i1, k0, k1),
                           (k0, k1, j0, j1))


def square_schedule(m: int, l: int, n: int, tile_side: int,
                    memory: float, extra: int = 0) -> ProductSchedule:
    """Appendix A's schedule, p = :func:`square_panel` for an A on
    ``tile_side``-sided tiles and ``extra`` fused-epilogue inputs."""
    panels = _panels_fit(memory, extra, "square_tile_matmul")
    p = square_panel(memory, tile_side, panels)
    return ProductSchedule(int(m), int(l), int(n), p, p, p)


def bnlj_schedule(n1: int, n2: int, n3: int, col_step: int,
                  memory: float) -> ProductSchedule:
    """§3's BNLJ with q = floor(M / (n2 + n3)), B scanned ``col_step``
    columns at a time (on column tiles a block of columns costs what
    one does); a budget under one row of A and one of C is refused."""
    need = n2 + n3
    if memory < need:
        raise ValueError(
            f"memory budget of {memory} scalars cannot hold one A row "
            f"plus one result row (n2 + n3 = {need} scalars); the BNLJ "
            f"schedule would overrun the pool")
    return ProductSchedule(int(n1), int(n2), int(n3), int(memory // need),
                           max(1, int(col_step)), int(n2))


def _packed_triangle(w: int, rows: int) -> int:
    """Scalars of the upper triangle of a w x w block kept as tile
    rows ``rows`` high, each from its diagonal tile to the block's
    right edge: ``sum_r height_r * (w - r * rows)``."""
    n = -(-w // rows)
    last = w - (n - 1) * rows
    return rows * ((n - 1) * w - rows * (n - 1) * (n - 2) // 2) \
        + last * last


@dataclass(frozen=True)
class CrossprodSchedule:
    """The output-stationary schedule of ``crossprod_matmul``, stated
    once for kernel, cost model and verifier.

    The upper triangle of the k x k result is cut into ``regions``
    ``(i0, i1, j0, j1)`` of ``side`` (a) columns, each held in memory
    for one pass while A streams through it in slabs of ``slab`` (h)
    rows.  A diagonal region (``i0 == j0``) keeps its upper triangle
    packed in tile rows ``rows`` high and reads its own a columns of
    every slab; an off-diagonal region keeps its whole rectangle and
    reads both column ranges.  With one region (``side == k``) A is
    read exactly once.

    A pass over a region holds the region, one slab of every column
    range it reads and, with a fused epilogue, one ``rows``-sided tile
    of each of the ``epilogue_inputs`` extra operands; a diagonal
    region carrying side products ``t(A) %*% B_i`` also holds each B's
    slab and the region's rows of each result, ``(a + h) sum(n_i)``.
    The product a GEMM folds in is a transient the schedule does not
    count, as Appendix A never counted it.
    """

    m: int
    k: int
    side: int
    slab: int
    rows: int
    epilogue_inputs: int
    regions: tuple[tuple[int, int, int, int], ...]

    def working_set(self, region: tuple[int, int, int, int],
                    side_cols: float = 0) -> float:
        """Scalars resident during the pass over ``region``."""
        i0, i1, j0, j1 = region
        held, cols = _pass(i1 - i0, j1 - j0, i0 == j0, self.rows,
                           self.epilogue_inputs)
        sides = (i1 - i0 + self.slab) * side_cols if i0 == j0 else 0
        return held + self.slab * cols + sides

    def peak(self, side_cols: float = 0) -> float:
        """The largest working set of any pass."""
        return max(self.working_set(r, side_cols) for r in self.regions)

    def reads(self) -> int:
        """Scalars of A the passes read: every region reads all m rows
        of its column ranges, which sums to ``m k`` per diagonal
        region."""
        return self.m * self.k * self.diagonal_regions()

    def diagonal_regions(self) -> int:
        return -(-self.k // self.side)


def _pass(wi: int, wj: int, diag: bool, rows: int,
          extra: int) -> tuple[int, int]:
    """``(scalars held, columns of A read per slab row)`` of a pass over
    a wi x wj region: its packed triangle or rectangle plus one tile
    per epilogue input, and the columns of its one or two ranges."""
    held = _packed_triangle(wi, rows) if diag else wi * wj
    return held + extra * rows * rows, wi if diag else wi + wj


def _slab_room(k: int, a: int, rows: int, extra: int,
               memory: float) -> int:
    """The tallest slab every pass of side ``a`` fits in ``memory``:
    the minimum over the distinct region shapes."""
    full, last = divmod(k, a)
    shapes = [(a, a, True)] + ([(last, last, True)] if last else [])
    if full >= 2:
        shapes.append((a, a, False))
    if full and last:
        shapes.append((a, last, False))
    return int(min((memory - held) // cols for held, cols in
                   (_pass(*shape, rows, extra) for shape in shapes)))


def crossprod_schedule(m: int, k: int, tile_side: int, memory: float,
                       epilogue_inputs: int = 0) -> CrossprodSchedule:
    """The :class:`CrossprodSchedule` of ``t(A) %*% A`` for an m x k A
    with ``tile_side``-sided tiles in ``memory`` scalars, with
    ``epilogue_inputs`` extra operands read by a fused epilogue.

    Every region side a that is a whole number of tiles is a candidate,
    paired with the tallest whole-tile slab h its passes fit — capped
    at ``max(a, p)``, where ``p = square_panel(M, t, 3 + e)``: taller
    slabs save no read, and the slack is room for side products.  So is
    ``a = h = p``, Appendix A's three p x p submatrices, which also
    covers budgets too small for whole tiles (ragged p).  The schedule
    takes the candidate that reads A the fewest times (``ceil(k / a)``
    passes over each column), then the tallest slab, then the smaller
    side — so it never reads more than the Appendix-A schedule, and
    reads A once whenever the packed triangle and one slab fit.  Rows
    enter only the counts, never the choice.  Raises
    :class:`ValueError` when ``memory`` cannot hold ``3 + e`` scalars.
    """
    k, extra = int(k), int(epilogue_inputs)
    panels = _panels_fit(memory, extra, "crossprod_matmul")
    t = max(int(tile_side), 1)
    p = square_panel(memory, t, panels)
    # (passes over each column of A, -slab, side, slab)
    best = (-(-k // p), -p, min(p, k), p)
    for a in range(t, k + t, t):
        a = min(a, k)
        h = min(_slab_room(k, a, min(t, a), extra, memory), max(a, p))
        h -= h % t
        if h >= t:
            best = min(best, (-(-k // a), -h, a, h))
    _, _, a, h = best
    bounds = cuts(k, a)
    regions = tuple((i0, i1, j0, j1)
                    for n, (i0, i1) in enumerate(bounds)
                    for j0, j1 in bounds[n:])
    return CrossprodSchedule(int(m), k, a, h, min(t, a), extra, regions)


def crossprod_side_fits(memory: float, k: int, tile_side: int,
                        side_cols: float) -> bool:
    """Can ``crossprod_matmul`` carry side products ``t(A) %*% B_i``
    with ``side_cols = sum(n_i)`` columns on its diagonal passes, for
    an A of k columns with ``tile_side``-sided tiles?

    The schedule is :func:`crossprod_schedule`'s without the sides —
    so the bits of ``t(A) %*% A`` never depend on sharing — and the
    sides fit when its largest pass plus each B's slab and result rows,
    ``(a + h) sum(n_i)`` on a diagonal region, stays within ``memory``.
    The one statement of the rule: the kernel refuses what it rejects,
    the planner shares only what it accepts and the verifier re-checks
    it.
    """
    if memory < 3:
        return False
    schedule = crossprod_schedule(0, k, tile_side, memory)
    return schedule.peak(side_cols) <= memory


def crossprod_io(m: float, k: float, memory: float,
                 block: float, ratio: float = 1.0,
                 side_cols: float = 0,
                 tile_side: int | None = None) -> float:
    """I/O of ``t(A) %*% A`` for an m x k A: a count over
    :func:`crossprod_schedule`.

    Each diagonal region reads all m rows of its a columns of A, each
    off-diagonal region both of its column ranges, which totals
    ``m k ceil(k / a)`` scalars; every output block is written once
    (mirrors are writes of already-resident data), ``k^2``.  One region
    reads A once.  ``tile_side`` is A's; ``None`` takes the store's
    default tile for an m x k matrix.  ``ratio`` scales the device
    traffic by the storage codec's compressed-byte ratio.

    ``side_cols`` prices side products ``t(A) %*% B_i`` (``sum(n_i)``
    columns) computed on the diagonal passes: each m x n_i B is read
    once per diagonal region and each k x n_i result is written once.
    A is not read again for them.
    """
    if tile_side is None:
        tile_side = _default_tile_side(memory, block, (m, k))
    schedule = crossprod_schedule(int(m), int(k), tile_side, memory)
    io = (schedule.reads() + k * k) / block
    if side_cols:
        io += (schedule.diagonal_regions() * m + k) * side_cols / block
    return ratio * io


def matmul_epilogue_io(m: float, l: float, n: float,
                       extra_inputs: float, memory: float, block: float,
                       fused: bool = True,
                       ratio: float = 1.0) -> float:
    """I/O of ``map(A %*% B, C1..Ck)`` — an elementwise epilogue over a
    product with ``extra_inputs`` additional matrix operands.

    Fused, the epilogue is applied to each product submatrix while it
    is resident: the multiply's own single write is the *only* write,
    and each extra operand is read tile-aligned once.  The panel
    shrinks to ``p = sqrt(M / (3 + extra_inputs))`` so the callback's
    resident submatrices stay inside the budget, which scales the
    operand-read term by ``sqrt(3 + extra_inputs) / sqrt(3)``.
    Unfused, the raw product is materialized and the elementwise pass
    re-reads it and writes the final result — ``2 m n / B`` extra
    blocks on top of the plain multiply.  ``ratio`` scales all device
    traffic by the storage codec's compressed-byte ratio, so the
    fuse-vs-materialize comparison stays apples to apples under
    compression.
    """
    if fused:
        return ratio * (2.0 * math.sqrt(held_submatrices(extra_inputs))
                        * l * m * n
                        / (block * math.sqrt(memory))
                        + (1.0 + extra_inputs) * m * n / block)
    return (square_tile_matmul_io(m, l, n, memory, block, ratio)
            + ratio * (2.0 + extra_inputs) * m * n / block)


def bnlj_matmul_io(n1: float, n2: float, n3: float,
                   memory: float, block: float,
                   ratio: float = 1.0) -> float:
    """Block-nested-loop-inspired algorithm of §3/§4.

    A is row-major, B and the result column-major.  Memory holds q rows of A
    *and* the corresponding q rows of T (q = M/(n2+n3)), plus a scan block
    for B; every chunk of A rows scans all of B.  Total:
    ``Theta(n1*n2*n3*(n2+n3)/(B*M))`` plus the linear input/output terms.
    ``ratio`` scales the device traffic by the storage codec's
    compressed-byte ratio.
    """
    q = max(1.0, memory / (n2 + n3))
    chunks = math.ceil(n1 / q)
    scan_b = chunks * (n2 * n3 / block)
    read_a = n1 * n2 / block
    write_t = n1 * n3 / block
    return ratio * (scan_b + read_a + write_t)


def naive_colmajor_matmul_io(n1: float, n2: float, n3: float,
                             block: float) -> float:
    """R's triple loop with both operands column-major (§3).

    Each access to A along a row faults a distinct page:
    ``Theta(n1*n2*n3)`` block I/Os — the paper's motivating disaster case.
    """
    return n1 * n2 * n3 + n2 * n3 / block + n1 * n3 / block


def rowmajor_scan_matmul_io(n1: float, n2: float, n3: float,
                            block: float) -> float:
    """Triple loop with A row-major: ``Theta(n1*n2*n3/B)`` (§3)."""
    return n1 * n2 * n3 / block + n2 * n3 / block + n1 * n3 / block


def riotdb_matmul_io(n1: float, n2: float, n3: float,
                     memory: float, block: float) -> float:
    """The RIOT-DB SQL plan: grace hash join, external sort, aggregate.

    Per footnote 5 of the paper, index-column storage overhead is excluded
    (each tuple is costed as one scalar), which *"has no effect on the
    relative ordering of performance"*.

    - partition both inputs and re-read them: ``3 (|A| + |B|)``,
    - the join yields ``n1*n2*n3`` tuples that must be sorted by (I, J):
      run formation writes them, each merge pass reads and writes them, the
      final pass streams into aggregation,
    - the aggregated result ``|C|`` is written once.
    """
    a_blocks = n1 * n2 / block
    b_blocks = n2 * n3 / block
    join_blocks = n1 * n2 * n3 / block
    fan_in = max(2.0, memory / block - 1)
    runs = max(1.0, join_blocks * block / memory)
    passes = max(1.0, math.ceil(math.log(runs, fan_in))) if runs > 1 \
        else 1.0
    sort_io = 2.0 * join_blocks * passes
    c_blocks = n1 * n3 / block
    return 3.0 * (a_blocks + b_blocks) + sort_io + c_blocks


# ----------------------------------------------------------------------
# Sparse kernels (nnz-parameterized; see repro.sparse)
# ----------------------------------------------------------------------
#: Default side of a *sparse* tile at B = 1024 scalars per block: 4x the
#: dense square-tile side (see ``SPARSE_TILE_FACTOR`` in
#: :mod:`repro.sparse.sparse_matrix` — a CSR tile's bytes scale with its
#: nnz, so the grid can use geometrically larger tiles than dense
#: storage, making empty tiles common at low density).
DEFAULT_TILE_SIDE = 128


def csr_index_widths(rows: int, cols: int) -> tuple[int, int]:
    """Bytes of one stored row pointer and one stored column index of a
    ``rows x cols`` CSR tile: the narrowest that hold every value the
    tile can have.  A row pointer runs up to ``rows * cols`` (4 bytes
    below 2**31, else 8); a column index is tile-local, below ``cols``
    (2 bytes up to 65 536 columns, else 4)."""
    return (4 if rows * cols < 1 << 31 else 8,
            2 if cols <= 1 << 16 else 4)


def tile_bytes(rows: float, cols: float, nnz: float) -> float:
    """Bytes a ``rows x cols`` CSR tile of ``nnz`` nonzeros takes in
    its matrix's page file: ``[nnz: int64][data: nnz float64][indptr:
    rows + 1][indices: nnz]`` at :func:`csr_index_widths`, padded to a
    multiple of 8 so the next tile's values stay 8-aligned.

    The writer (:func:`repro.sparse.sparse_matrix.pack_csr`) lays a
    tile out by it and :func:`sparse_matrix_profile` prices the
    expected tile by it (a fractional ``nnz`` there).  What a read
    tile holds in memory is another quantity, the ``tile_words`` of
    :mod:`repro.sparse.sparse_matrix`: its indices widen to 8 bytes.
    """
    ptr, idx = csr_index_widths(int(rows), int(cols))
    return -(-(8 + 8 * nnz + ptr * (rows + 1) + idx * nnz) // 8) * 8


def packed_tile_offset(end: int, size: int, page: int) -> int:
    """Where a CSR tile of ``size`` bytes goes in a page file of
    ``page``-byte pages whose last tile ends at ``end``.

    Right at ``end``, unless that would make the tile span more pages
    than it would alone (``ceil(size / page)``); then at the next page
    boundary.  So a tile read alone never costs a page more than on
    pages of its own, and every page of the one-tile-per-page layout
    lands in exactly one packed page.  The writer
    (:meth:`repro.sparse.SparseTiledMatrix.append_tile`) places every
    tile by it and :func:`packed_page_share` prices it.
    """
    if -(-(end + size) // page) - end // page <= -(-size // page):
        return end
    return -(-end // page) * page


def packed_page_share(size: float, page: int) -> float:
    """Pages per tile when tiles of ``size`` bytes follow each other by
    :func:`packed_tile_offset` in ``page``-byte pages: the pages of one
    cycle (from a page boundary to the next tile that starts on one)
    over its tiles.

    Tiles under a page go ``floor(page / size)`` to a page; tiles just
    over one (the ~8.7 KB ``G`` tiles of ``sparse_chain``, ~800 nonzeros
    in 8 KiB pages) follow each other across pages, about
    ``size / page`` pages each.
    """
    size = max(1, math.ceil(size))
    end = tiles = 0
    while True:
        start = packed_tile_offset(end, size, page)
        if tiles and start % page == 0:
            return start / page / tiles
        end, tiles = start + size, tiles + 1


def sparse_matrix_profile(m: float, l: float, nnz: float, block: float,
                          tile_rows: float = DEFAULT_TILE_SIDE,
                          tile_cols: float | None = None) -> dict:
    """Expected tile-directory statistics of an m x l matrix with ``nnz``
    uniformly placed nonzeros on a ``tile_rows x tile_cols`` grid
    (square when ``tile_cols`` is omitted).

    Returns grid dimensions, the probability that a tile is nonempty,
    the expected nonempty-tile count, the expected nnz of a nonempty
    tile and the words it holds once read (``tile_words``: header,
    indptr, indices and values at 8 bytes each), and the expected total
    pages of the packed page file (:func:`packed_page_share` of the
    tile's :func:`tile_bytes`, in pages of ``block`` 8-byte scalars) —
    the quantities every sparse cost model below is built from.
    The kernels read a sparse operand through tile scans
    (:class:`repro.sparse.sparse_matrix.TileScan`) that fetch each page
    once a pass, so the models count a pass over some tiles as their
    share of ``pages``.
    """
    if tile_cols is None:
        tile_cols = tile_rows
    area = tile_rows * tile_cols
    density = min(1.0, nnz / (m * l)) if m and l else 0.0
    grid_rows = math.ceil(m / tile_rows)
    grid_cols = math.ceil(l / tile_cols)
    p_nonempty = 1.0 - (1.0 - density) ** area
    n_nonempty = grid_rows * grid_cols * p_nonempty
    avg_nnz = (density * area / p_nonempty) if p_nonempty > 0 else 0.0
    size = tile_bytes(tile_rows, tile_cols, avg_nnz)
    return {"grid_rows": grid_rows, "grid_cols": grid_cols,
            "p_nonempty": p_nonempty, "n_nonempty": n_nonempty,
            "avg_nnz": avg_nnz,
            "tile_words": tile_rows + 2.0 + 2.0 * avg_nnz,
            "pages": n_nonempty * packed_page_share(size, int(8 * block))}


def spmv_io(m: float, l: float, nnz: float, block: float,
            tile_side: float = DEFAULT_TILE_SIDE) -> float:
    """I/O of ``y = A x`` with sparse tiled A and a chunked dense x.

    Every page of A is read once (one tile scan over all of A), and
    per block row an x chunk is read iff any of the tiles it spans is
    nonempty (the kernel's slice reads within one block row coalesce
    to one read per touched chunk via the buffer pool).  y is written
    once, streaming.
    """
    prof = sparse_matrix_profile(m, l, nnz, block, tile_side)
    x_blocks = math.ceil(l / block)
    tiles_per_chunk = max(1.0, min(l, block) / tile_side)
    p_chunk = 1.0 - (1.0 - prof["p_nonempty"]) ** tiles_per_chunk
    x_reads = prof["grid_rows"] * x_blocks * p_chunk
    y_writes = math.ceil(m / block)
    return prof["pages"] + x_reads + y_writes


def _panels_touching(p_nonempty: float, grid_rows: int, r: int) -> float:
    """Expected number of row panels (``r`` block rows each, the last
    one whatever remains of ``grid_rows``) in which one block column of
    A holds a nonempty tile — how often the schedules below read the B
    tile or strip it multiplies."""
    full, rest = divmod(grid_rows, r)
    p_empty = 1.0 - p_nonempty
    return full * (1.0 - p_empty ** r) + (1.0 - p_empty ** rest)


def spmm_strip_blocks(n: float, pw: int, b_blocks: float,
                      b_tile_cols: float) -> float:
    """Blocks of B one row panel of the SpMM schedule reads over the
    column panels ``pw`` wide: each panel reads the whole B tiles its
    columns touch, so a panel narrower than B's tiles re-reads the
    tiles it shares with its neighbours (B 6 x 9 on 6 x 8 tiles in
    panels of 4: three tile reads where B has two).  ``b_blocks`` are
    B's blocks, spread evenly over its ``ceil(n / b_tile_cols)`` block
    columns."""
    n, bw = int(n), int(min(b_tile_cols, n))
    if pw % bw == 0 or pw >= n:
        return b_blocks                  # the panels cover tiles whole
    touched = sum((min(j0 + pw, n) - 1) // bw - j0 // bw + 1
                  for j0 in range(0, n, pw))
    return b_blocks * touched / -(-n // bw)


def spmm_panels(memory: float, n: float, tile_rows: float,
                tile_cols: float, grid_rows: int, a_pages: float,
                b_blocks: float, a_tile_words: float,
                b_tile_cols: float) -> tuple[int, int]:
    """Geometry ``(pw, r)`` of the SpMM schedule, shared by kernel and
    model: column panels ``pw`` wide, row panels of ``r`` block rows.

    Memory holds ``r`` accumulator strips (tile_rows x pw each), one
    dense B strip (tile_cols x pw) and the A tile being multiplied
    (``a_tile_words``).  A is re-read once per column panel and B,
    ``b_tile_cols`` wide a tile, once per row panel
    (:func:`spmm_strip_blocks`), so among the widths that are whole
    output tiles the pair minimising ``ceil(n / pw) * a_pages +
    ceil(grid_rows / r) * spmm_strip_blocks(...)`` wins (the wider
    panel on a tie); a budget too small for one tile-wide strip per
    operand still gets ``r = 1`` at one tile.
    The height is then evened out over the row panels it implies,
    which costs no I/O and holds less.  The search stops at the first
    width no accumulator strip fits beside, so its length is set by
    ``memory / (tile area)``, not by ``n``.
    """
    n = int(n)
    tile_w = int(min(tile_cols, n))
    best = None
    for pw in range(tile_w, n + tile_w, tile_w):
        pw = min(pw, n)
        room = memory - tile_cols * pw - a_tile_words
        if best is not None and room < tile_rows * pw:
            break               # no row fits, here or any wider
        r = int(max(1, min(grid_rows, room // (tile_rows * pw))))
        cost = (math.ceil(n / pw) * a_pages + math.ceil(grid_rows / r)
                * spmm_strip_blocks(n, pw, b_blocks, b_tile_cols))
        if best is None or cost <= best[0]:
            best = (cost, pw, r)
    _, pw, r = best
    return pw, math.ceil(grid_rows / math.ceil(grid_rows / r))


def spmm_io(m: float, l: float, n: float, nnz: float, memory: float,
            block: float,
            tiles: tuple[float, float] = (DEFAULT_TILE_SIDE,) * 2
            ) -> float:
    """I/O of ``C = A B`` with sparse tiled A and dense tiled B;
    ``tiles`` is A's ``(tile rows, tile columns)`` — the grid the
    kernel cuts its panels from, square or not.

    A count over :func:`spmm_panels` on the expected tile directory:
    every page of A is read once per column panel (one tile scan); per
    row panel the strip of B under block column ``tj`` (one A tile
    column high) is read once iff some held block row has a tile
    there; C is written once, tile-aligned.  B is taken to lie on
    tiles ``tk`` wide, which every column panel covers whole.
    """
    th, tk = tiles
    prof = sparse_matrix_profile(m, l, nnz, block, th, tk)
    b_blocks = l * n / block
    pw, r = spmm_panels(memory, n, th, tk, prof["grid_rows"],
                        prof["pages"], b_blocks, th * tk, tk)
    a_reads = math.ceil(n / pw) * prof["pages"]
    b_reads = b_blocks * _panels_touching(prof["p_nonempty"],
                                          prof["grid_rows"], r)
    c_writes = m * n / block
    return a_reads + b_reads + c_writes


def spgemm_row_panels(memory: float, acc_words: float,
                      row_csr_words: list[float], b_tile_words: float
                      ) -> list[tuple[int, int]]:
    """Block-row panels ``[lo, hi)`` of the SpGEMM schedule on a real
    tile directory.

    A panel holds, per block row, one output-tile accumulator
    (``acc_words``) and the row's A tiles in CSR form
    (``row_csr_words[ti]``), beside the one B tile being multiplied
    (``b_tile_words``).  Rows are taken greedily while that fits
    ``memory`` — never fewer than one, so a budget below a single
    row's needs degrades to one-row panels instead of failing.
    """
    panels = []
    lo, held = 0, b_tile_words
    for ti, csr_words in enumerate(row_csr_words):
        need = acc_words + csr_words
        if ti > lo and held + need > memory:
            panels.append((lo, ti))
            lo, held = ti, b_tile_words
        held += need
    if row_csr_words:
        panels.append((lo, len(row_csr_words)))
    return panels


def spgemm_panel_rows(memory: float, acc_words: float,
                      row_csr_words: float, b_tile_words: float,
                      grid_rows: int) -> int:
    """Height of the panels :func:`spgemm_row_panels` cuts when every
    one of ``grid_rows`` block rows holds the same ``row_csr_words`` —
    the model's directory — without walking the rows: as many as fit
    beside the B tile, at least one, at most all."""
    fit = (memory - b_tile_words) // (acc_words + row_csr_words)
    return int(max(1, min(grid_rows, fit)))


def spgemm_io(m: float, l: float, n: float, nnz_a: float, nnz_b: float,
              memory: float, block: float,
              tiles: tuple[float, float, float] = (DEFAULT_TILE_SIDE,) * 3
              ) -> float:
    """I/O of ``C = A B`` with both operands sparse tiled; ``tiles`` is
    ``(A tile rows, shared inner side, B tile columns)``.

    A count over the SpGEMM schedule on the expected tile directories
    (every block row alike, so :func:`spgemm_panel_rows` gives the
    panels): ``A(i, k)`` is read once iff B's block row ``k`` has a
    tile at all, ``B(k, j)`` once per row panel in which some held row
    has a tile in block column ``k``, and C's nonempty tiles are
    written once — each in its share of the packed pages, as the
    kernel's tile scans read them (A's in one scan, B's in one a
    panel).  The panels budget the streamed B tile at the words it
    holds once read (``tile_words``), not at its pages: a tile's
    narrow indices widen on the read, so it can outgrow its pages.
    Result density follows the standard independence estimate
    ``1 - (1 - dA dB)^l`` per element.
    """
    th, tk, tw = tiles
    prof_a = sparse_matrix_profile(m, l, nnz_a, block, th, tk)
    prof_b = sparse_matrix_profile(l, n, nnz_b, block, tk, tw)
    grid_rows = prof_a["grid_rows"]
    r = spgemm_panel_rows(
        memory, th * tw,
        prof_a["grid_cols"] * prof_a["p_nonempty"] * prof_a["tile_words"],
        prof_b["tile_words"], grid_rows)
    a_reads = prof_a["pages"] * (
        1.0 - (1.0 - prof_b["p_nonempty"]) ** prof_b["grid_cols"])
    b_reads = prof_b["pages"] * _panels_touching(prof_a["p_nonempty"],
                                                 grid_rows, r)
    d_a = min(1.0, nnz_a / (m * l))
    d_b = min(1.0, nnz_b / (l * n))
    d_c = 1.0 - (1.0 - d_a * d_b) ** l
    writes = sparse_matrix_profile(m, n, d_c * m * n, block,
                                   th, tw)["pages"]
    return a_reads + b_reads + writes


def matmul_result_density(d_a: float, d_b: float, inner: float) -> float:
    """Density estimate for a product of matrices with densities
    ``d_a``/``d_b`` and inner dimension ``inner`` (independence model)."""
    return 1.0 - (1.0 - min(1.0, d_a) * min(1.0, d_b)) ** max(inner, 0.0)


# ----------------------------------------------------------------------
# Dense LU factorization and triangular solves (§5 first-class operators)
# ----------------------------------------------------------------------
def lu_panel_width(n: float, memory: float, tile_side: float) -> int:
    """Column-panel width of the out-of-core pivoted LU
    (:class:`LUSchedule`).

    Partial pivoting needs the full trailing column panel resident to
    choose pivot rows, so the panel is *tall*: ``n x p`` scalars.  One
    third of the memory budget goes to the panel (the other two thirds
    cover the strip being swapped/updated and pool working frames),
    giving ``p = M / (3 n)``, rounded down to whole storage tiles and
    clamped to ``[tile_side, n]``.
    """
    p = (memory / 3.0) / max(n, 1.0)
    p = max(tile_side, (p // tile_side) * tile_side)
    return int(min(p, max(n, 1.0)))


def _default_tile_side(memory: float, block: float,
                       shape: tuple[float, float]) -> int:
    """The store's default dense tile side (``default_tile_side``) for
    a matrix of ``shape`` in a pool of ``memory`` scalars, blocks of
    ``block``."""
    return default_tile_side(int(block), int(memory // block),
                             (int(shape[0]), int(shape[1])))


def lu_tile_side(n: float, memory: float, block: float,
                 pool_blocks: int | None = None) -> int:
    """Tile side of the working factor of the out-of-core pivoted LU,
    shared by kernel and model.

    A tall pivot panel is at least one tile wide and three of them
    must fit the budget (see :func:`lu_panel_width`), so the factor —
    a copy LU lays out itself — takes the store's default for an
    n x n matrix, halved down to the one-page side until
    ``3 n side <= memory``.  The one-page side is returned even when it
    does not fit: that is the budget the kernel refuses.  ``memory``
    bounds the pool when ``pool_blocks`` does not say otherwise.
    """
    budget = int(memory // block)
    pool = budget if pool_blocks is None else min(pool_blocks, budget)
    side = default_tile_side(int(block), pool, (int(n), int(n)))
    floor = default_tile_side(int(block))
    while side > floor and 3 * n * min(n, side) > memory:
        side //= 2
    return side


def lu_in_place(n: int, tile_shape: tuple[int, int], memory: float,
                block: float, pool_blocks: int | None = None) -> bool:
    """Can the pivoted LU factor an n x n operand on ``tile_shape``
    tiles in place, shared by kernel and planner?  Exactly when those
    tiles are the working factor's own: square, of side
    :func:`lu_tile_side` clamped to n.  Whether the operand may be
    overwritten at all — it dies at the factorization — is the plan's
    to prove (:class:`repro.core.planner.Planner`)."""
    side = min(n, lu_tile_side(n, memory, block, pool_blocks))
    return tuple(tile_shape) == (side, side)


@dataclass(frozen=True)
class LUStep:
    """One pass of the out-of-core pivoted LU over the factor: rows
    ``k0..n`` of columns ``j0..j1`` are read, updated in memory while
    the tall panel of columns ``k0..k1`` is resident, and written back
    once.  The panel's own step (``j0 == k0``) factors it; a strip left
    of it only takes its row interchanges; a trailing strip takes the
    interchanges, ``inv(L_kk)`` for U's new rows and the update of the
    rows below by ``L_below @ U_top``."""

    k0: int
    k1: int
    j0: int
    j1: int

    @property
    def factors_panel(self) -> bool:
        return self.j0 == self.k0

    @property
    def trailing(self) -> bool:
        return self.j0 >= self.k1


@dataclass(frozen=True)
class LUSchedule:
    """The right-looking schedule of the out-of-core pivoted LU of an
    n x n matrix, stated once for kernel, cost models and verifier.

    The factor, on ``tile``-sided tiles, is cut into column panels
    ``width`` wide (:func:`lu_panel_width` in ``memory`` scalars, whole
    tiles).  Each panel makes one pass: its own step first, then one
    step per other strip of the same width, in column order
    (:meth:`steps`), so every strip of the trailing rows is read and
    written once per panel and there is no separate update pass.  The
    substitution sweeps step through the same panels as block rows.
    """

    n: int
    tile: int
    memory: float
    width: int

    def panels(self) -> list[tuple[int, int]]:
        """The column panels ``(k0, k1)``, which are also the strips
        and the sweeps' block rows."""
        return cuts(self.n, self.width)

    def steps(self) -> Iterator[LUStep]:
        """Every pass in execution order."""
        panels = self.panels()
        for k0, k1 in panels:
            yield LUStep(k0, k1, k0, k1)
            for j0, j1 in panels:
                if j0 != k0:
                    yield LUStep(k0, k1, j0, j1)

    def factor_scalars(self) -> int:
        """Scalars the passes read, and again write back: each step
        covers rows ``k0..n`` of its columns."""
        return sum((self.n - s.k0) * (s.j1 - s.j0) for s in self.steps())

    def sweep(self, forward: bool
              ) -> Iterator[tuple[Rect, list[tuple[int, int]]]]:
        """``(footprint, off)`` per block row of a sweep, top down over L
        (forward) or bottom up over U: the factor rectangle it reads and
        the column ranges of its off-diagonal blocks, read in order."""
        panels = self.panels()
        for i0, i1 in (panels if forward else panels[::-1]):
            yield ((i0, i1, 0, i1) if forward else (i0, i1, i0, self.n),
                   [p for p in panels if (p[1] <= i0 if forward
                                          else p[0] > i0)])

    def sweep_scalars(self, forward: bool) -> int:
        """Scalars of the factor one substitution sweep reads."""
        return sum((i1 - i0) * (c1 - c0)
                   for (i0, i1, c0, c1), _ in self.sweep(forward))

    def rhs_panels(self, k: int, tile: int) -> list[tuple[int, int]]:
        """The column panels of a k-column right-hand side solved one at
        a time: :func:`lu_panel_width` on its ``tile``-wide tiles."""
        return cuts(int(k), lu_panel_width(self.n, self.memory,
                                            min(tile, int(k))))


def _lu(n: float, memory: float, tile: float) -> LUSchedule:
    n, tile = int(n), min(int(n), int(tile))
    return LUSchedule(n, tile, memory, lu_panel_width(n, memory, tile))


def lu_schedule(n: float, memory: float, tile: float) -> LUSchedule:
    """The :class:`LUSchedule` of an n x n factor on ``tile``-sided
    tiles in ``memory`` scalars; a budget that cannot hold three tall
    panels one tile wide is refused.  The models price such a plan
    all the same (``_lu``) and leave it to the verifier to reject."""
    schedule = _lu(n, memory, tile)
    if memory < 3 * schedule.n * schedule.tile:
        raise ValueError(
            f"memory budget of {memory} scalars cannot hold a tall LU "
            f"panel of {schedule.n} x {schedule.tile}: partial pivoting "
            f"holds a tall pivot panel, a strip and working frames, "
            f"3 * n * tile_side = {3 * schedule.n * schedule.tile} scalars")
    return schedule


def lu_io(n: float, memory: float, block: float,
          tile_side: float | None = None, ratio: float = 1.0,
          in_place: bool = False) -> float:
    """I/O (blocks) of the blocked partial-pivoting LU of an n x n matrix:
    a count over :func:`lu_schedule`, each step's rectangle read and
    written back once.

    Plus the initial copy of the input into the working factor
    (RIOT's pure-operator discipline: read once, write once) — unless
    the factorization runs ``in_place`` on a dying operand.  Such an
    operand was computed by the plan, so the pool still holds what its
    producer wrote last — up to the whole budget — and the first
    panel's pass finds that much of it resident.  A right-hand side
    carried through the passes is in memory and costs nothing here.
    ``ratio`` scales all of it by the storage codec's stored-page
    ratio, as in the product models: input, factor and strips are
    codec tiles like any other.
    """
    schedule = _lu(n, memory, tile_side or lu_tile_side(n, memory, block))
    copy = -min(n * n, memory) if in_place else 2.0 * n * n
    return ratio * (copy + 2.0 * schedule.factor_scalars()) / block


def solve_io(n: float, nrhs: float, memory: float, block: float,
             tile_side: float | None = None, ratio: float = 1.0) -> float:
    """I/O (blocks) of the two blocked substitution sweeps of ``A x = b``
    given a packed L\\U factor (the RHS rides along in memory): a count
    over :func:`lu_schedule`'s block rows — together one pass over the
    packed factor with the diagonal blocks touched twice.
    """
    schedule = _lu(n, memory, tile_side or lu_tile_side(n, memory, block))
    return ratio * (schedule.sweep_scalars(True)
                    + schedule.sweep_scalars(False)) / block


def _solve_panels_io(n: float, nrhs: float, memory: float, block: float,
                     tile_side: float | None, out_tile: float) -> float:
    """Factor plus sweeps of a solve whose RHS has ``nrhs`` columns in
    :meth:`LUSchedule.rhs_panels` on the result's tile width: the first
    panel rides through the factorization and pays the backward sweep
    alone, every later one both sweeps."""
    schedule = _lu(n, memory, tile_side or lu_tile_side(n, memory, block))
    panels = len(schedule.rhs_panels(nrhs, out_tile))
    sweeps = (schedule.sweep_scalars(False) + (panels - 1)
              * (schedule.sweep_scalars(True)
                 + schedule.sweep_scalars(False)))
    return sweeps / block


def inverse_io(n: float, memory: float, block: float,
               tile_side: float | None = None,
               ratio: float = 1.0, in_place: bool = False) -> float:
    """I/O of materializing ``inv(A)``: one pivoted factorization that
    carries the identity's first column panel, substitution sweeps for
    the rest, and one write of the n x n result; ``ratio`` scales it by
    the storage codec's stored-page ratio."""
    out_tile = tile_side or _default_tile_side(memory, block, (n, n))
    return ratio * (lu_io(n, memory, block, tile_side, in_place=in_place)
                    + _solve_panels_io(n, n, memory, block, tile_side,
                                       out_tile)
                    + n * n / block)


def solve_op_io(n: float, nrhs: float, memory: float, block: float,
                tile_side: float | None = None,
                ratio: float = 1.0, in_place: bool = False) -> float:
    """I/O of the full ``solve(A, B)`` operator: one pivoted
    factorization that carries B's first memory-sized column panel,
    substitution sweeps for the rest, plus reading B and writing X
    once; ``ratio`` scales it by the storage codec's stored-page
    ratio."""
    out_tile = tile_side or _default_tile_side(memory, block, (n, nrhs))
    return ratio * (lu_io(n, memory, block, tile_side, in_place=in_place)
                    + _solve_panels_io(n, nrhs, memory, block, tile_side,
                                       out_tile)
                    + 2.0 * n * nrhs / block)


def crossprod_epilogue_io(m: float, k: float, extra_inputs: float,
                          memory: float, block: float,
                          fused: bool = True,
                          ratio: float = 1.0,
                          tile_side: int | None = None) -> float:
    """I/O of ``map(crossprod(A), C1..Ce)`` — an elementwise epilogue
    over the symmetric product.

    Fused, a count over :func:`crossprod_schedule` with ``e`` epilogue
    inputs — each pass also holds one tile of every extra operand — plus
    one read of each extra operand, and the kernel's single write
    remains the only write.  Unfused, the raw product is materialized
    by :func:`crossprod_io` and the elementwise pass re-reads it and
    writes the final result.  ``tile_side`` is as there; ``ratio``
    scales all device traffic by the storage codec's compressed-byte
    ratio.
    """
    if tile_side is None:
        tile_side = _default_tile_side(memory, block, (m, k))
    if fused:
        schedule = crossprod_schedule(int(m), int(k), tile_side, memory,
                                      int(extra_inputs))
        return ratio * (schedule.reads()
                        + (1.0 + extra_inputs) * k * k) / block
    return (crossprod_io(m, k, memory, block, ratio, tile_side=tile_side)
            + ratio * (2.0 + extra_inputs) * k * k / block)


# ----------------------------------------------------------------------
# Streaming / access-path operators (physical-plan models)
# ----------------------------------------------------------------------
def stream_io(input_scalars: float, output_scalars: float,
              block: float, ratio: float = 1.0) -> float:
    """One fused streaming pass: read every stored input once, write
    the result once (the loop-fusion regime of §3).  ``ratio`` scales
    a matrix pass by the storage codec's compressed-byte ratio; vectors
    are never codec-stored."""
    return ratio * ((input_scalars + output_scalars) / block)


def gather_io(n_src: float, k: float, block: float,
              index: float = 0) -> float:
    """Selective evaluation of ``x[s]`` with k selected elements: at
    most one read per selected element, never more than a full scan,
    plus writing the gathered vector.  ``n_src`` is 0 for a generated
    source (a range, read by nobody); a stored index of ``index``
    elements is read once."""
    return (min(math.ceil(n_src / block), k) + 2.0 * k / block
            + index / block)


def scatter_io(n: float, k: float, block: float) -> float:
    """Positional ``b[s] <- v``: copy-on-write pass over the base plus
    one random touch per scattered element (bounded by the base)."""
    return 2.0 * n / block + min(math.ceil(n / block), k)


# ----------------------------------------------------------------------
# Chains
# ----------------------------------------------------------------------
def chain_io(dims: list[float], order, per_multiply) -> float:
    """Total I/O of a parenthesized chain given a per-multiply model.

    Appendix B: the optimum performs one multiplication at a time,
    materializing each intermediate; the per-multiply formulas already
    include reading the inputs and writing the output.
    """
    from .chain import pairwise_shapes
    total = 0.0
    for (m, l, n) in pairwise_shapes([int(d) for d in dims], order):
        total += per_multiply(m, l, n)
    return total


def chain_io_lower_bound(dims: list[float], memory: float,
                         block: float) -> float:
    """Appendix B: ``Theta(N/(B sqrt(M)))`` with N = optimal multiply count."""
    from .chain import optimal_multiplications
    n_mult = optimal_multiplications([int(d) for d in dims])
    return n_mult / (block * math.sqrt(memory))


# ----------------------------------------------------------------------
# Figure 3 reproduction
# ----------------------------------------------------------------------
def fig3_dims(n: int, s: float) -> list[int]:
    """A: n x n/s, B: n/s x n, C: n x n -> dims [n, n/s, n, n]."""
    return [n, int(round(n / s)), n, n]


def fig3_strategy_costs(n: int, s: float, memory: float,
                        block: float = FIG3_BLOCK) -> dict[str, float]:
    """I/O (blocks) of the four §5 strategies for the A·B·C chain.

    - ``RIOT-DB``: two hash-join-sort-aggregate subplans, in program order.
    - ``BNLJ-Inspired``: row/column layouts, in program order.
    - ``Square/In-Order``: square tiles, in program order.
    - ``Square/Opt-Order``: square tiles, DP-chosen order (A(BC) once the
      skew s makes it cheaper).
    """
    from .chain import in_order, optimal_order
    dims = fig3_dims(n, s)
    left_deep = in_order(3)
    best = optimal_order(dims)
    return {
        "RIOT-DB": chain_io(
            dims, left_deep,
            lambda m, l, k: riotdb_matmul_io(m, l, k, memory, block)),
        "BNLJ-Inspired": chain_io(
            dims, left_deep,
            lambda m, l, k: bnlj_matmul_io(m, l, k, memory, block)),
        "Square/In-Order": chain_io(
            dims, left_deep,
            lambda m, l, k: square_tile_matmul_io(m, l, k, memory, block)),
        "Square/Opt-Order": chain_io(
            dims, best,
            lambda m, l, k: square_tile_matmul_io(m, l, k, memory, block)),
    }


def fig3a_rows(s: float = 2.0, block: float = FIG3_BLOCK):
    """Figure 3(a): n in {100000, 120000} x memory in {2 GB, 4 GB}."""
    rows = []
    for n in (100000, 120000):
        for gb in (2, 4):
            memory = gb * GB_IN_SCALARS
            costs = fig3_strategy_costs(n, s, memory, block)
            for strategy, io in costs.items():
                rows.append({"n": n, "memory_gb": gb,
                             "strategy": strategy, "io_blocks": io})
    return rows


def fig3b_rows(n: int = 100000, memory_gb: int = 2,
               block: float = FIG3_BLOCK):
    """Figure 3(b): skew s in {2, 4, 6, 8}, 2 GB memory, n = 100000.

    RIOT-DB is omitted, as in the paper (*"no longer shown because it
    performs far worse than others"*).
    """
    rows = []
    memory = memory_gb * GB_IN_SCALARS
    for s in (2, 4, 6, 8):
        costs = fig3_strategy_costs(n, float(s), memory, block)
        for strategy in ("BNLJ-Inspired", "Square/In-Order",
                         "Square/Opt-Order"):
            rows.append({"s": s, "strategy": strategy,
                         "io_blocks": costs[strategy]})
    return rows


# ----------------------------------------------------------------------
# Cost-model registry
# ----------------------------------------------------------------------
#: Every ``PhysOp.cost_model`` name mapped to the function that prices
#: it: the planner prices an operator only as ``COST_MODELS[name](
#: **inputs)`` (an unregistered name fails every plan that uses it),
#: :func:`repro.analysis.planlint.verify_plan` re-prices each operator
#: the same way, and the calibration pipeline groups measured/predicted
#: ratios by these keys.
COST_MODELS = {
    "stream_io": stream_io,
    "gather_io": gather_io,
    "scatter_io": scatter_io,
    "matmul_io": matmul_io,
    "bnlj_io": bnlj_matmul_io,
    "crossprod_io": crossprod_io,
    "spmv_io": spmv_io,
    "spmm_io": spmm_io,
    "spgemm_io": spgemm_io,
    "solve_io": solve_op_io,
    "inverse_io": inverse_io,
    "transpose_io": transpose_materialize_io,
    "matmul_epilogue_io": matmul_epilogue_io,
    "crossprod_epilogue_io": crossprod_epilogue_io,
}
