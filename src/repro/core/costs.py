"""Analytic I/O cost models (§3, §5, Appendices A/B, Figure 3).

The paper's Figure 3 reports **calculated** I/O costs — an n = 100000 square
matrix is an 80 GB object, so the authors costed the strategies analytically
exactly as we do here.  Units: ``memory`` and ``block`` are in scalars
(8-byte float64 values); results are in disk blocks.

The measured out-of-core implementations in :mod:`repro.linalg` are checked
against these models at small n by ``tests/linalg/test_cost_agreement.py`` —
a validation the paper itself did not show.
"""

from __future__ import annotations

import math

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

    ``ratio`` is the compressed/logical device-byte ratio of the
    storage codec (1.0 uncompressed; see
    :meth:`repro.storage.tile_store.ArrayStore.io_ratio_estimate`):
    every term is device traffic through codec tiles, so the whole
    cost scales with it.
    """
    return ratio * ((2.0 * math.sqrt(3.0) * l * m * n
                     / (block * math.sqrt(memory))) + (m * n) / block)


def transposed_matmul_io(m: float, l: float, n: float,
                         memory: float, block: float) -> float:
    """Appendix-A schedule with a *flagged* (transposed) operand.

    The flag is free: a flagged operand's submatrices are read in
    stored layout (the mirrored rectangle covers the same number of
    whole tiles) and transposed in memory, so the model is exactly the
    unflagged :func:`square_tile_matmul_io`.  Stated as its own symbol
    so plans can be costed against the *materialized-transpose*
    alternative, which additionally pays
    :func:`transpose_materialize_io`.
    """
    return square_tile_matmul_io(m, l, n, memory, block)


def transpose_materialize_io(rows: float, cols: float,
                             block: float) -> float:
    """One full disk pass to store an explicit transpose: read every
    source tile once, write every output tile once.  This is the pass
    the ``trans_a``/``trans_b`` operand flags delete."""
    return 2.0 * rows * cols / block


def square_panel(memory: float, tile_side: int, panels: int = 3) -> int:
    """The Appendix-A submatrix side ``p = sqrt(M / panels)``,
    tile-aligned — the panel of ``square_tile_matmul`` and
    ``crossprod_matmul``, stated once for kernel, planner and verifier.

    ``panels`` is the number of p x p submatrices resident at once.
    When the budget cannot hold ``panels`` whole storage tiles the
    panel goes *ragged*: p drops below the tile side (never below 1;
    the kernels refuse a budget under ``panels`` scalars themselves).
    ``tile_side = 1`` gives ``floor(sqrt(M / panels))``, the largest
    panel any tile side can give.
    """
    p = int(math.sqrt(memory / float(panels)))
    if p < tile_side:
        return max(1, p)
    return max(tile_side, (p // tile_side) * tile_side)


def crossprod_side_fits(memory: float, tile_side: int,
                        side_cols: float) -> bool:
    """Can ``crossprod_matmul`` carry side products ``t(A) %*% B_i``
    with ``side_cols = sum(n_i)`` columns on its diagonal passes?

    The crossprod keeps its own panel ``p = square_panel(M, tile, 3)``
    — shrinking it would change the bits of ``t(A) %*% A`` — so the
    side products fit when ``3 p^2 + 2 p sum(n_i) <= M``: the three
    p x p submatrices plus each B's p-row rectangle and its p-row
    result.  The one statement of the rule: the kernel refuses what it
    rejects, the planner shares only what it accepts and the verifier
    re-checks it.  ``tile_side = 1`` asks about the largest panel any
    tile gives, a safe answer for an operand whose tiles are not known
    yet (the predicate grows with p).
    """
    p = square_panel(memory, tile_side, 3)
    return 3 * p * p + 2 * p * side_cols <= memory


def crossprod_io(m: float, k: float, memory: float,
                 block: float, ratio: float = 1.0,
                 side_cols: float = 0, tile_side: int = 1) -> float:
    """I/O of the symmetric ``t(A) %*% A`` schedule for an m x k A.

    Per inner panel the kernel reads one p x p operand block for each
    diagonal output block (g of them) and two for each strictly-upper
    pair (g(g-1)/2), totalling g^2 block reads per panel — half the
    2 g^2 the general schedule pays — and every output block is written
    once (mirrors are writes of already-resident data):

    ``sqrt(3) * m k^2 / (B sqrt(M)) + k^2 / B``.  ``ratio`` scales the
    device traffic by the storage codec's compressed-byte ratio.

    ``side_cols`` prices side products ``t(A) %*% B_i`` (``sum(n_i)``
    columns) computed on the diagonal passes: each m x n_i B is read
    once per diagonal pass — ``ceil(k / p)`` of them, p the kernel's
    ``square_panel(M, tile_side, 3)`` — and each k x n_i result is
    written once.  A is not read again for them.
    """
    io = (math.sqrt(3.0) * m * k * k / (block * math.sqrt(memory))
          + (k * k) / block)
    if side_cols:
        passes = math.ceil(k / square_panel(memory, tile_side, 3))
        io += (passes * m + k) * side_cols / block
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
        return ratio * (2.0 * math.sqrt(3.0 + extra_inputs) * l * m * n
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
#: :mod:`repro.sparse.sparse_matrix` — a CSR tile's pages scale with its
#: nnz, so the grid can use geometrically larger tiles than dense
#: storage, making empty tiles common at low density).
DEFAULT_TILE_SIDE = 128


def sparse_tile_pages(tile_rows: float, tile_nnz: float,
                      block: float) -> float:
    """Pages one CSR tile occupies: header + indptr + indices + data.

    ``tile_words`` in :mod:`repro.sparse.sparse_matrix` is the exact
    integer version; here the ceiling is taken on the expectation.
    """
    words = tile_rows + 2.0 + 2.0 * tile_nnz
    return max(1.0, math.ceil(words / block))


def sparse_matrix_profile(m: float, l: float, nnz: float, block: float,
                          tile_rows: float = DEFAULT_TILE_SIDE,
                          tile_cols: float | None = None) -> dict:
    """Expected tile-directory statistics of an m x l matrix with ``nnz``
    uniformly placed nonzeros on a ``tile_rows x tile_cols`` grid
    (square when ``tile_cols`` is omitted).

    Returns grid dimensions, the probability that a tile is nonempty,
    the expected nonempty-tile count, the expected nnz, words and pages
    of a nonempty tile and the expected total pages — the quantities
    every sparse cost model below is built from.
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
    tile_pages = sparse_tile_pages(tile_rows, avg_nnz, block)
    return {"grid_rows": grid_rows, "grid_cols": grid_cols,
            "p_nonempty": p_nonempty, "n_nonempty": n_nonempty,
            "avg_nnz": avg_nnz,
            "tile_words": tile_rows + 2.0 + 2.0 * avg_nnz,
            "tile_pages": tile_pages, "pages": n_nonempty * tile_pages}


def spmv_io(m: float, l: float, nnz: float, block: float,
            tile_side: float = DEFAULT_TILE_SIDE) -> float:
    """I/O of ``y = A x`` with sparse tiled A and a chunked dense x.

    Per block row: every nonempty tile is read once, and an x chunk is
    read iff any of the tiles it spans is nonempty (the kernel's slice
    reads within one block row coalesce to one read per touched chunk
    via the buffer pool).  y is written once, streaming.
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


def spmm_panels(memory: float, n: float, tile_rows: float,
                tile_cols: float, grid_rows: int, a_pages: float,
                b_blocks: float, a_tile_words: float) -> tuple[int, int]:
    """Geometry ``(pw, r)`` of the SpMM schedule, shared by kernel and
    model: column panels ``pw`` wide, row panels of ``r`` block rows.

    Memory holds ``r`` accumulator strips (tile_rows x pw each), one
    dense B strip (tile_cols x pw) and the A tile being multiplied
    (``a_tile_words``).  A is re-read once per column panel and B once
    per row panel, so among the widths that are whole output tiles the
    pair minimising ``ceil(n / pw) * a_pages + ceil(grid_rows / r) *
    b_blocks`` wins (the wider panel on a tie); a budget too small for
    one tile-wide strip per operand still gets ``r = 1`` at one tile.
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
        cost = (math.ceil(n / pw) * a_pages
                + math.ceil(grid_rows / r) * b_blocks)
        if best is None or cost <= best[0]:
            best = (cost, pw, r)
    _, pw, r = best
    return pw, math.ceil(grid_rows / math.ceil(grid_rows / r))


def spmm_model(m: float, l: float, n: float, nnz: float, memory: float,
               block: float,
               tiles: tuple[float, float] = (DEFAULT_TILE_SIDE,) * 2
               ) -> tuple[float, dict]:
    """``(blocks, geometry)`` of ``C = A B`` with sparse tiled A and
    dense tiled B: :func:`spmm_io` and the panel shape it counted over;
    ``tiles`` is A's ``(tile rows, tile columns)`` — the grid the
    kernel cuts its panels from, square or not.

    A count over :func:`spmm_panels` on the expected tile directory:
    every nonempty A tile is read once per column panel; per row panel
    the strip of B under block column ``tj`` (one A tile column high)
    is read once iff some held block row has a tile there; C is
    written once, tile-aligned.
    """
    th, tk = tiles
    prof = sparse_matrix_profile(m, l, nnz, block, th, tk)
    b_blocks = l * n / block
    pw, r = spmm_panels(memory, n, th, tk, prof["grid_rows"],
                        prof["pages"], b_blocks, th * tk)
    a_reads = math.ceil(n / pw) * prof["pages"]
    b_reads = b_blocks * _panels_touching(prof["p_nonempty"],
                                          prof["grid_rows"], r)
    c_writes = m * n / block
    return (a_reads + b_reads + c_writes,
            {"panel_width": pw, "panel_rows": r})


def spmm_io(m: float, l: float, n: float, nnz: float, memory: float,
            block: float,
            tiles: tuple[float, float] = (DEFAULT_TILE_SIDE,) * 2
            ) -> float:
    """I/O of ``C = A B`` with sparse tiled A and dense tiled B (the
    block count of :func:`spmm_model`)."""
    return spmm_model(m, l, n, nnz, memory, block, tiles)[0]


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


def spgemm_model(m: float, l: float, n: float, nnz_a: float,
                 nnz_b: float, memory: float, block: float,
                 tiles: tuple[float, float, float] = (DEFAULT_TILE_SIDE,) * 3
                 ) -> tuple[float, dict]:
    """``(blocks, geometry)`` of ``C = A B`` with both operands sparse
    tiled: :func:`spgemm_io` and the panel shape it counted over;
    ``tiles`` is ``(A tile rows, shared inner side, B tile columns)``.

    A count over the SpGEMM schedule on the expected tile directories
    (every block row alike, so :func:`spgemm_panel_rows` gives the
    panels): ``A(i, k)`` is read once iff B's block row ``k`` has a
    tile at all, ``B(k, j)`` once per row panel in which some held row
    has a tile in block column ``k``, and C's nonempty tiles are
    written once.  Result density follows the standard independence
    estimate ``1 - (1 - dA dB)^l`` per element.
    """
    th, tk, tw = tiles
    prof_a = sparse_matrix_profile(m, l, nnz_a, block, th, tk)
    prof_b = sparse_matrix_profile(l, n, nnz_b, block, tk, tw)
    grid_rows = prof_a["grid_rows"]
    r = spgemm_panel_rows(
        memory, th * tw,
        prof_a["grid_cols"] * prof_a["p_nonempty"] * prof_a["tile_words"],
        prof_b["tile_pages"] * block, grid_rows)
    a_reads = prof_a["pages"] * (
        1.0 - (1.0 - prof_b["p_nonempty"]) ** prof_b["grid_cols"])
    b_reads = prof_b["pages"] * _panels_touching(prof_a["p_nonempty"],
                                                 grid_rows, r)
    d_a = min(1.0, nnz_a / (m * l))
    d_b = min(1.0, nnz_b / (l * n))
    d_c = 1.0 - (1.0 - d_a * d_b) ** l
    writes = sparse_matrix_profile(m, n, d_c * m * n, block,
                                   th, tw)["pages"]
    return (a_reads + b_reads + writes,
            {"row_panels": math.ceil(grid_rows / r)})


def spgemm_io(m: float, l: float, n: float, nnz_a: float, nnz_b: float,
              memory: float, block: float,
              tiles: tuple[float, float, float] = (DEFAULT_TILE_SIDE,) * 3
              ) -> float:
    """I/O of ``C = A B`` with both operands sparse tiled (the block
    count of :func:`spgemm_model`)."""
    return spgemm_model(m, l, n, nnz_a, nnz_b, memory, block, tiles)[0]


def matmul_result_density(d_a: float, d_b: float, inner: float) -> float:
    """Density estimate for a product of matrices with densities
    ``d_a``/``d_b`` and inner dimension ``inner`` (independence model)."""
    return 1.0 - (1.0 - min(1.0, d_a) * min(1.0, d_b)) ** max(inner, 0.0)


# ----------------------------------------------------------------------
# Dense LU factorization and triangular solves (§5 first-class operators)
# ----------------------------------------------------------------------
def lu_panel_width(n: float, memory: float, tile_side: float) -> int:
    """Column-panel width of the out-of-core pivoted LU, shared by
    kernel and model.

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


def lu_io(n: float, memory: float, block: float,
          tile_side: float | None = None, ratio: float = 1.0) -> float:
    """I/O (blocks) of the blocked partial-pivoting LU of an n x n matrix.

    Mirrors the schedule of :func:`repro.linalg.lu.lu_decompose` term by
    term.  Per column panel of width p (tall panel resident in memory):

    - the trailing ``h x p`` panel is read, factored, and written back,
    - one pass over the remaining ``h x (n - p)`` rows applies the
      panel's row interchanges (and, for trailing strips, the
      triangular solve producing U's row panel) — read + write,
    - the trailing update streams L blocks once per block row and the
      U/target blocks per (i, j) pair, exactly as the kernel loops.

    Plus the initial copy of the input into the working factor
    (RIOT's pure-operator discipline: read once, write once).
    ``ratio`` scales all of it by the storage codec's stored-page
    ratio, as in the product models: input, factor and strips are
    codec tiles like any other.
    """
    tile = tile_side or lu_tile_side(n, memory, block)
    p = lu_panel_width(n, memory, tile)
    total = 2.0 * n * n / block          # copy input -> working factor
    k0 = 0.0
    while k0 < n:
        k1 = min(k0 + p, n)
        w = k1 - k0                      # panel width
        h = n - k0                       # trailing height
        total += 2.0 * h * w / block     # panel read + factored write-back
        total += 2.0 * h * (n - w) / block   # swap (+U) pass, read + write
        t = n - k1                       # trailing square side
        if t > 0:
            nb = math.ceil(t / p)        # trailing blocks per side
            total += t * w / block       # L blocks, once per block row
            total += nb * t * w / block  # U row panel, re-read per block row
            total += 2.0 * t * t / block  # trailing blocks read + written
        k0 = k1
    return ratio * total


def solve_io(n: float, nrhs: float, memory: float, block: float,
             tile_side: float | None = None, ratio: float = 1.0) -> float:
    """I/O (blocks) of the two blocked substitution sweeps of ``A x = b``
    given a packed L\\U factor (the RHS rides along in memory).

    The forward sweep reads each block row of the strictly-lower
    triangle plus the diagonal block; the backward sweep mirrors it on
    the upper triangle — together one pass over the packed factor with
    the diagonal blocks touched twice.
    """
    tile = tile_side or lu_tile_side(n, memory, block)
    b = lu_panel_width(n, memory, tile)
    total = 0.0
    i0 = 0.0
    while i0 < n:
        i1 = min(i0 + b, n)
        total += (i1 - i0) * i1 / block        # forward: row strip to diag
        total += (i1 - i0) * (n - i0) / block  # backward: diag to row end
        i0 = i1
    return ratio * total


def inverse_io(n: float, memory: float, block: float,
               tile_side: float | None = None,
               ratio: float = 1.0) -> float:
    """I/O of materializing ``inv(A)``: one pivoted factorization, one
    substitution sweep per resident column panel of the identity RHS,
    and one write of the n x n result; ``ratio`` scales it by the
    storage codec's stored-page ratio."""
    out_tile = tile_side or _default_tile_side(memory, block, (n, n))
    pw = lu_panel_width(n, memory, min(out_tile, n))
    panels = math.ceil(n / pw)
    return ratio * (lu_io(n, memory, block, tile_side)
                    + panels * solve_io(n, pw, memory, block, tile_side)
                    + n * n / block)


def solve_op_io(n: float, nrhs: float, memory: float, block: float,
                tile_side: float | None = None,
                ratio: float = 1.0) -> float:
    """I/O of the full ``solve(A, B)`` operator: one pivoted
    factorization, one substitution sweep per memory-sized column
    panel of the RHS, plus reading B and writing X once; ``ratio``
    scales it by the storage codec's stored-page ratio."""
    if nrhs <= 1:
        return ratio * (lu_io(n, memory, block, tile_side)
                        + solve_io(n, 1, memory, block, tile_side)
                        + 2.0 * n / block)
    out_tile = tile_side or _default_tile_side(memory, block, (n, nrhs))
    pw = lu_panel_width(n, memory, min(out_tile, nrhs))
    panels = math.ceil(nrhs / pw)
    return ratio * (lu_io(n, memory, block, tile_side)
                    + panels * solve_io(n, pw, memory, block, tile_side)
                    + 2.0 * n * nrhs / block)


def crossprod_epilogue_io(m: float, k: float, extra_inputs: float,
                          memory: float, block: float,
                          fused: bool = True,
                          ratio: float = 1.0) -> float:
    """I/O of ``map(crossprod(A), C1..Ce)`` — an elementwise epilogue
    over the symmetric product.

    Fused, the panel shrinks to ``p = sqrt(M / (3 + e))`` (scaling the
    operand-read term of :func:`crossprod_io` by ``sqrt(3 + e) /
    sqrt(3)``), each extra operand is read once, and the kernel's
    single write remains the only write.  Unfused, the raw product is
    materialized and the elementwise pass re-reads it and writes the
    final result.  ``ratio`` scales all device traffic by the storage
    codec's compressed-byte ratio.
    """
    if fused:
        return ratio * (math.sqrt(3.0 + extra_inputs) * m * k * k
                        / (block * math.sqrt(memory))
                        + (1.0 + extra_inputs) * k * k / block)
    return (crossprod_io(m, k, memory, block, ratio)
            + ratio * (2.0 + extra_inputs) * k * k / block)


# ----------------------------------------------------------------------
# Streaming / access-path operators (physical-plan models)
# ----------------------------------------------------------------------
def stream_io(input_scalars: float, output_scalars: float,
              block: float) -> float:
    """One fused streaming pass: read every stored input once, write
    the result once (the loop-fusion regime of §3)."""
    return (input_scalars + output_scalars) / block


#: Chunks of lookahead a streamed window announces at most.
STREAM_PREFETCH_CHUNKS = 16


def stream_window(pool_blocks: float, sources: int) -> int:
    """Chunks per streamed window that a pool of ``pool_blocks`` holds.

    Each chunk of the window touches ``sources`` input blocks and one
    output block; a full window of prefetched inputs plus the outputs
    written after consuming it must fit beside two spare frames.  An
    oversized window would evict its own prefetched frames before they
    are read — re-reading them later and silently inflating the block
    totals the cost models rely on.
    """
    fits = max(1, (int(pool_blocks) - 2) // (sources + 1))
    return min(STREAM_PREFETCH_CHUNKS, fits)


def gather_io(n_src: float, k: float, block: float) -> float:
    """Selective evaluation of ``x[s]`` with k selected elements: at
    most one read per selected element, never more than a full scan,
    plus writing the gathered vector."""
    return min(math.ceil(n_src / block), k) + 2.0 * k / block


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
#: it.  The planner may only construct operators whose model is listed
#: here — enforced statically by the RPR002 lint rule
#: (:mod:`repro.analysis.lint`) and again at plan time by
#: :func:`repro.analysis.planlint.verify_plan` — and the calibration
#: pipeline groups measured/predicted ratios by these keys.
COST_MODELS = {
    "stream_io": stream_io,
    "gather_io": gather_io,
    "scatter_io": scatter_io,
    "matmul_io": square_tile_matmul_io,
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
