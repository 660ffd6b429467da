"""SpMV/SpMM/SpGEMM: numerics vs numpy, I/O vs schedule and cost model.

The numerical references are plain numpy dense products (scipy-free).
The I/O references come in two strengths.  ``spmm`` and ``spgemm`` run
a panel schedule whose geometry is one function shared with the model,
so a cold pool's block total must *equal* a count over that schedule on
the real tile directories (``schedule_counts``), and the closed-form
models on expected nnz (``spmm_io``, ``spgemm_io``) must land within
0.8x-1.25x of the measurement.  ``spmv`` keeps the 0.5x-2.0x band
``tests/linalg/test_cost_agreement.py`` uses for the dense algorithms.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.analysis.sanitizers import SanitizingBufferPool
from repro.core.costs import (spgemm_io, spgemm_panel_rows,
                              spgemm_row_panels, spmm_io, spmv_io)
from repro.core.parallel import TileParallelism
from repro.sparse import SparseTiledMatrix, kernels, spgemm, spmm, spmv
from repro.sparse.sparse_matrix import tile_words
from repro.storage import ArrayStore, StorageConfig
from schedule_counts import (biggest_tile, hints_fit, spgemm_pair_reads,
                             spgemm_schedule_reads, spmm_schedule_reads)

MEMORY = 128 * 1024          # 1 MiB of working memory beside the pool


def _random_sparse(m, n, density, seed):
    rng = np.random.default_rng(seed)
    return (rng.random((m, n)) < density) * rng.standard_normal((m, n))


class TestNumerics:
    @pytest.mark.parametrize("density", [0.0, 0.001, 0.05, 0.3])
    def test_spmv_matches_numpy(self, store, rng, density):
        m, l = 500, 700
        dense = _random_sparse(m, l, density, seed=1)
        a = SparseTiledMatrix.from_dense(store, dense)
        xv = rng.standard_normal(l)
        x = store.vector_from_numpy(xv)
        y = spmv(store, a, x)
        assert np.allclose(y.to_numpy(), dense @ xv)

    def test_spmv_output_aligns_with_chunk_grid(self, store, rng):
        # 128-row block rows never align with 1024-scalar chunks; the
        # streaming writer must still produce every chunk exactly once.
        m, l = 2500, 300
        dense = _random_sparse(m, l, 0.02, seed=2)
        a = SparseTiledMatrix.from_dense(store, dense)
        xv = rng.standard_normal(l)
        y = spmv(store, a, store.vector_from_numpy(xv))
        assert np.allclose(y.to_numpy(), dense @ xv)

    def test_spmv_rejects_nonconformable(self, store):
        a = SparseTiledMatrix.from_coo(store, [0], [0], [1.0], (4, 5))
        with pytest.raises(ValueError):
            spmv(store, a, store.vector_from_numpy(np.zeros(7)))

    @pytest.mark.parametrize("density", [0.0, 0.01, 0.2])
    def test_spmm_matches_numpy(self, store, rng, density):
        m, l, n = 300, 400, 200
        dense = _random_sparse(m, l, density, seed=3)
        a = SparseTiledMatrix.from_dense(store, dense)
        bv = rng.standard_normal((l, n))
        b = store.matrix_from_numpy(bv)
        c = spmm(store, a, b, 32 * 1024)
        assert np.allclose(c.to_numpy(), dense @ bv)

    def test_spmm_vector_shaped_rhs(self, store, rng):
        m, l = 300, 400
        dense = _random_sparse(m, l, 0.05, seed=4)
        a = SparseTiledMatrix.from_dense(store, dense)
        bv = rng.standard_normal((l, 1))
        c = spmm(store, a, store.matrix_from_numpy(bv), 32 * 1024)
        assert np.allclose(c.to_numpy(), dense @ bv)

    @pytest.mark.parametrize("da,db", [(0.0, 0.05), (0.01, 0.01),
                                       (0.1, 0.02)])
    def test_spgemm_matches_numpy(self, store, da, db):
        m, l, n = 400, 300, 350
        ad = _random_sparse(m, l, da, seed=5)
        bd = _random_sparse(l, n, db, seed=6)
        a = SparseTiledMatrix.from_dense(store, ad)
        b = SparseTiledMatrix.from_dense(store, bd)
        c = spgemm(store, a, b, MEMORY)
        assert np.allclose(c.to_numpy(), ad @ bd)
        assert c.nnz == np.count_nonzero(ad @ bd)

    def test_spgemm_result_is_sparse_stored(self, store):
        a = SparseTiledMatrix.from_coo(store, [0], [0], [2.0],
                                       (512, 512))
        b = SparseTiledMatrix.from_coo(store, [0], [0], [3.0],
                                       (512, 512))
        c = spgemm(store, a, b, MEMORY)
        assert isinstance(c, SparseTiledMatrix)
        assert c.nnz == 1 and c.data_pages == 1
        assert c.to_numpy()[0, 0] == 6.0

    def test_spgemm_rejects_misaligned_k_grids(self, store):
        a = SparseTiledMatrix.from_coo(store, [0], [0], [1.0],
                                       (64, 256), tile_shape=(64, 64))
        b = SparseTiledMatrix.from_coo(store, [0], [0], [1.0],
                                       (256, 64), tile_shape=(128, 64))
        with pytest.raises(ValueError):
            spgemm(store, a, b, MEMORY)


class TestIOAgreement:
    """Measured block totals vs the closed-form models on expected nnz:
    0.8x-1.25x for the two panel schedules, 0.5x-2.0x for ``spmv``."""

    def test_spmv_io_agreement(self):
        # x (32 blocks) exceeds the 16-frame pool, so the per-block-row
        # re-reads of x that the model charges actually happen.
        m, l, density = 1024, 32768, 0.003
        store = ArrayStore(memory_bytes=16 * 8192)
        dense = _random_sparse(m, l, density, seed=7)
        a = SparseTiledMatrix.from_dense(store, dense)
        x = store.vector_from_numpy(np.ones(l))
        store.pool.clear()
        store.reset_stats()
        spmv(store, a, x)
        store.flush()
        measured = store.device.stats.total
        model = spmv_io(m, l, a.nnz, 1024, tile_side=a.tile_shape[0])
        assert 0.5 <= measured / model <= 2.0

    def test_spmm_io_agreement(self):
        # 24K scalars hold one 128-wide strip per operand and no more:
        # two column panels of one-row panels, in an 8-frame pool.
        m, l, n = 512, 512, 256
        mem = 24 * 1024
        store = ArrayStore(memory_bytes=8 * 8192)
        dense = _random_sparse(m, l, 0.02, seed=8)
        a = SparseTiledMatrix.from_dense(store, dense)
        b = store.matrix_from_numpy(
            np.random.default_rng(9).standard_normal((l, n)))
        store.pool.clear()
        store.reset_stats()
        spmm(store, a, b, mem)
        store.flush()
        measured = store.device.stats.total
        assert kernels.spmm_schedule(a, b, mem) == (128, 1)
        model = spmm_io(m, l, n, a.nnz, mem, 1024, tiles=a.tile_shape)
        assert 0.8 <= measured / model <= 1.25

    def test_spmm_io_agreement_on_rectangular_tiles(self):
        """A stored ``spgemm`` result takes its tile rows from one
        factor and its tile columns from the other, so A's grid need
        not be square: the model prices the ``(th, tk)`` grid the
        kernel cuts its panels from, not a ``th x th`` one."""
        m, l, n = 512, 1024, 256
        mem = 24 * 1024
        store = ArrayStore(memory_bytes=8 * 8192)
        dense = _random_sparse(m, l, 0.02, seed=12)
        a = SparseTiledMatrix.from_dense(store, dense,
                                         tile_shape=(64, 256))
        b = store.matrix_from_numpy(
            np.random.default_rng(13).standard_normal((l, n)))
        store.pool.clear()
        store.reset_stats()
        c = spmm(store, a, b, mem)
        store.flush()
        measured = store.device.stats.total
        assert np.allclose(c.to_numpy(), dense @ b.to_numpy())
        model = spmm_io(m, l, n, a.nnz, mem, 1024, tiles=a.tile_shape)
        assert 0.8 <= measured / model <= 1.25
        # The square grid the old spelling priced is a different plan.
        square = spmm_io(m, l, n, a.nnz, mem, 1024, tiles=(64, 64))
        assert not 0.8 <= measured / square <= 1.25

    def test_spgemm_io_agreement(self):
        # 48K scalars hold two block rows (accumulator + CSR row each):
        # four panels over a 16-frame pool that holds neither operand.
        m = l = n = 1024
        mem = 48 * 1024
        store = ArrayStore(memory_bytes=16 * 8192)
        ad = _random_sparse(m, l, 0.005, seed=10)
        bd = _random_sparse(l, n, 0.005, seed=11)
        a = SparseTiledMatrix.from_dense(store, ad)
        b = SparseTiledMatrix.from_dense(store, bd)
        store.pool.clear()
        store.reset_stats()
        spgemm(store, a, b, mem)
        store.flush()
        measured = store.device.stats.total
        assert len(kernels.spgemm_schedule(a, b, mem)[1]) == 4
        model = spgemm_io(m, l, n, a.nnz, b.nnz, mem, 1024,
                          tiles=(*a.tile_shape, b.tile_shape[1]))
        assert 0.8 <= measured / model <= 1.25

    def test_prefetch_hints_change_calls_not_totals(self):
        """The accounting contract, sparse edition: hints shrink device
        *calls*, never results, and block totals stay within a few
        percent.  (Exact equality — the dense streaming contract — is
        not achievable here: batched installs shift eviction *timing*,
        so an x chunk that happened to survive across block rows
        unhinted may be re-read hinted.  The drift is bounded and both
        runs stay within the cost model's 0.5x-2.0x band.)"""
        m, l = 1024, 4096
        results = {}
        for enabled in (True, False):
            store = ArrayStore(memory_bytes=32 * 8192,
                               scheduler=enabled)
            dense = _random_sparse(m, l, 0.01, seed=12)
            a = SparseTiledMatrix.from_dense(store, dense)
            x = store.vector_from_numpy(np.ones(l))
            store.pool.clear()
            store.reset_stats()
            y = spmv(store, a, x)
            store.flush()
            results[enabled] = (store.device.stats.snapshot(),
                                y.to_numpy())
        on, off = results[True], results[False]
        assert np.array_equal(on[1], off[1])
        assert abs(on[0].reads - off[0].reads) <= 0.1 * off[0].reads
        assert on[0].writes == off[0].writes
        assert on[0].read_calls < 0.5 * off[0].read_calls


class TestSanitizedChain:
    def test_spgemm_then_spmm_leaks_nothing_and_holds_its_own_tiles(self):
        """Multi-row panels in both kernels under the storage-protocol
        sanitizer (it raises at a kernel span's close on a leaked pin,
        latch or parked write-back, and on a miss nobody announced):
        the A tiles ``spgemm`` keeps across its column loop are copies
        it owns, never views of frames the pool may recycle."""
        store = ArrayStore(storage=StorageConfig(
            memory_bytes=32 * 8192, sanitize=True))
        pool = store.pool
        assert isinstance(pool, SanitizingBufferPool)
        a_np = _random_sparse(768, 512, 0.01, seed=20)
        b_np = _random_sparse(512, 384, 0.01, seed=21)
        v_np = np.random.default_rng(22).standard_normal((384, 96))
        a = SparseTiledMatrix.from_dense(store, a_np)
        b = SparseTiledMatrix.from_dense(store, b_np)
        v = store.matrix_from_numpy(v_np)
        mem = 64 * 1024
        needed, panels = kernels.spgemm_schedule(a, b, mem)
        assert [hi - lo for lo, hi in panels] == [3, 3]
        held_words, held_tiles = [], []

        def checked_hold(*args):
            held = hold_panel(*args)
            arrays = [value for col in held.values()
                      for value in (getattr(col, slot)
                                    for slot in col.__slots__)
                      if isinstance(value, np.ndarray)]
            assert len(arrays) >= 4 * len(held)
            for part in arrays:
                assert part.flags.owndata
                assert not any(np.shares_memory(part, frame)
                               for frame in pool._frames.values())
            held_words.append(sum(part.nbytes for part in arrays) // 8)
            held_tiles.extend(ti for col in held.values() for ti in col.tis)
            return held

        hold_panel = kernels._hold_panel
        with mock.patch.object(kernels, "_hold_panel", checked_hold):
            g = spgemm(store, a, b, mem)
        # Built once per panel and held across its column loop: every A
        # tile is stacked once, not re-read per pair — in no more words
        # than the schedule budgeted for the panel's CSR rows.
        assert len(held_words) == len(panels)
        assert len(held_tiles) == len(a.directory)
        th = a.tile_shape[0]
        assert all(
            words <= sum(tile_words(th, a.tile_nnz(ti, k))
                         for ti in range(lo, hi) for k in needed[ti])
            for words, (lo, hi) in zip(held_words, panels))
        assert kernels.spmm_schedule(g, v, mem)[1] == 3
        workers = TileParallelism(4)
        try:
            c = spmm(store, g, v, mem, parallel=workers)
        finally:
            workers.shutdown()
        assert not pool._pinned and not pool._pending
        assert not pool._tls.latches
        assert np.allclose(c.to_numpy(), a_np @ b_np @ v_np)


# ----------------------------------------------------------------------
# Schedule vs measurement
# ----------------------------------------------------------------------
BLOCK = 512                  # 64 words a page: small tiles span pages


@st.composite
def panel_cases(draw):
    """A sparse left operand with a nonzero in *every* tile, so every
    row panel streams the whole right operand — the regime where more
    memory can only mean fewer reads — under two budgets, from "one row
    per panel" up, and a pool of a few pages."""
    th, tk, tw = (draw(st.integers(3, 8)) for _ in range(3))
    m, l, n = (draw(st.integers(side + 1, 6 * side))
               for side in (th, tk, tw))
    budgets = sorted(draw(st.lists(st.integers(1, 1 << 12),
                                   min_size=2, max_size=2)))
    return dict(tiles=(th, tk, tw), shape=(m, l, n), budgets=budgets,
                capacity=draw(st.integers(4, 16)),
                scheduler=draw(st.booleans()),
                seed=draw(st.integers(0, 2 ** 16)))


def _full_operand(rng, shape, tile) -> np.ndarray:
    """Per-tile densities from one nonzero to full, never empty."""
    dense = np.zeros(shape)
    for r0 in range(0, shape[0], tile[0]):
        for c0 in range(0, shape[1], tile[1]):
            blk = dense[r0:r0 + tile[0], c0:c0 + tile[1]]
            blk[...] = ((rng.random(blk.shape) < rng.choice([0.0, 0.3, 1.0]))
                        * rng.integers(1, 4, size=blk.shape))
            blk[0, 0] = 1.0
    return dense


def _cold_store(case) -> ArrayStore:
    return ArrayStore(storage=StorageConfig(
        block_size=BLOCK, memory_bytes=case["capacity"] * BLOCK,
        scheduler=case["scheduler"]))


def _measure(kernel, store, *operands) -> tuple:
    """``kernel(store, *operands)`` on a cold pool, flushed: the result
    and the device's ``(reads, writes)``."""
    store.flush()
    store.pool.clear()
    store.reset_stats()
    out = kernel(store, *operands)
    store.flush()
    return out, store.device.stats.reads, store.device.stats.writes


class TestScheduleAgreement:
    """The kernels read what their schedule says, block for block."""

    @settings(max_examples=100, deadline=None)
    @given(case=panel_cases())
    def test_spgemm_reads_are_the_schedules(self, case):
        rng = np.random.default_rng(case["seed"])
        th, tk, tw = case["tiles"]
        m, l, n = case["shape"]
        a_np = _full_operand(rng, (m, l), (th, tk))
        b_np = ((rng.random((l, n)) < rng.choice([0.05, 0.5]))
                * rng.integers(1, 4, size=(l, n)))
        reads_at = []
        for memory in case["budgets"]:
            store = _cold_store(case)
            a = SparseTiledMatrix.from_dense(store, a_np,
                                             tile_shape=(th, tk))
            b = SparseTiledMatrix.from_dense(store, b_np,
                                             tile_shape=(tk, tw))
            c, reads, writes = _measure(spgemm, store, a, b, memory)
            planned = spgemm_schedule_reads(a, b, memory)
            _, panels = kernels.spgemm_schedule(a, b, memory)
            assert writes == c.data_pages
            assert np.array_equal(c.to_numpy(), a_np @ b_np)
            # No B page outlives a panel in a pool it outnumbers twice
            # over (the margin is a hint batch of half the pool).
            fit = hints_fit(store, max(biggest_tile(a), biggest_tile(b)))
            exact = fit and (
                len(panels) == 1
                or b.data_pages - biggest_tile(b) >= 2 * case["capacity"])
            # A clipped hint (see ``hints_fit``) can cost a page of the
            # tile it announced a second fetch by the read itself.
            assert reads <= (planned if fit else 2 * planned)
            if exact:
                assert reads == planned
            reads_at.append((reads, planned, exact, len(panels)))
        (lo_reads, lo_planned, lo_exact, lo_panels), \
            (hi_reads, hi_planned, hi_exact, hi_panels) = reads_at
        assert hi_planned <= lo_planned
        if lo_exact and hi_exact:
            assert hi_reads <= lo_reads
        event(f"panels {min(lo_panels, 3)}->{min(hi_panels, 3)}, "
              f"exact {lo_exact and hi_exact}")

    @given(memory=st.integers(0, 1 << 14), acc=st.integers(1, 256),
           row=st.integers(0, 2048), b_tile=st.integers(0, 1024),
           grid_rows=st.integers(1, 40))
    def test_the_models_panel_height_is_the_greedy_cut(
            self, memory, acc, row, b_tile, grid_rows):
        """``spgemm_io`` prices a directory whose block rows are all
        alike and does not walk them: the height it computes is the one
        the kernel's greedy cut gives such rows."""
        r = spgemm_panel_rows(memory, acc, row, b_tile, grid_rows)
        assert spgemm_row_panels(memory, acc, [row] * grid_rows, b_tile) \
            == [(lo, min(lo + r, grid_rows))
                for lo in range(0, grid_rows, r)]

    @settings(max_examples=50, deadline=None)
    @given(case=panel_cases())
    def test_one_row_spgemm_panels_read_b_like_the_output_tile_loop(
            self, case):
        """A budget below one row's needs still takes one row: A's
        tiles are read once (they are held across the row now) and B's
        exactly as the output-tile loop read them, once per pair."""
        rng = np.random.default_rng(case["seed"])
        th, tk, tw = case["tiles"]
        m, l, n = case["shape"]
        store = _cold_store(case)
        a = SparseTiledMatrix.from_dense(
            store, _full_operand(rng, (m, l), (th, tk)),
            tile_shape=(th, tk))
        b = SparseTiledMatrix.from_dense(
            store, (rng.random((l, n)) < 0.3) * 1.0, tile_shape=(tk, tw))
        assert kernels.spgemm_schedule(a, b, 1)[1] \
            == [(ti, ti + 1) for ti in range(a.grid[0])]
        b_rows = {k for k, _ in b.directory}
        a_once = sum(e[1] for (_, k), e in a.directory.items()
                     if k in b_rows)
        assert spgemm_schedule_reads(a, b, 1) \
            == a_once + spgemm_pair_reads(a, b)[1]

    @settings(max_examples=100, deadline=None)
    @given(case=panel_cases())
    def test_spmm_reads_are_the_schedules(self, case):
        rng = np.random.default_rng(case["seed"])
        th, tk, _ = case["tiles"]
        m, l, n = case["shape"]
        a_np = _full_operand(rng, (m, l), (th, tk))
        b_np = rng.integers(-3, 4, size=(l, n)).astype(float)
        reads_at = []
        for memory in case["budgets"]:
            store = _cold_store(case)
            a = SparseTiledMatrix.from_dense(store, a_np,
                                             tile_shape=(th, tk))
            # B on A's inner grid: every strip is whole one-page tiles.
            b = store.create_matrix((l, n), tile_shape=(tk, tk)) \
                .from_numpy(b_np)
            c, reads, writes = _measure(spmm, store, a, b, memory)
            planned = spmm_schedule_reads(a, b, memory)
            pw, r = kernels.spmm_schedule(a, b, memory)
            col_panels = -(-n // pw)
            row_panels = -(-a.grid[0] // r)
            assert planned == (col_panels * a.data_pages
                               + row_panels * b.file.num_pages)
            assert writes == c.file.num_pages
            assert np.array_equal(c.to_numpy(), a_np @ b_np)
            # An A page must not survive a column panel, nor a B page a
            # row panel: each is followed by twice the pool in other
            # pages (the margin is a hint batch of half the pool).
            strip = -(-pw // tk)             # one-page tiles a strip
            fit = hints_fit(store, max(biggest_tile(a), strip))
            shortest = a.grid[0] - (row_panels - 1) * r
            exact = (fit
                     and (col_panels == 1 or a.data_pages - biggest_tile(a)
                          >= 2 * case["capacity"])
                     and (row_panels == 1 or shortest * a.grid[1]
                          >= 2 * case["capacity"]))
            if fit:
                assert reads <= planned
            if exact:
                assert reads == planned
            reads_at.append((reads, planned, exact, (pw, r)))
        (lo_reads, lo_planned, lo_exact, lo_geometry), \
            (hi_reads, hi_planned, hi_exact, hi_geometry) = reads_at
        assert hi_planned <= lo_planned
        if lo_exact and hi_exact:
            assert hi_reads <= lo_reads
        event(f"geometry moved {lo_geometry != hi_geometry}, "
              f"exact {lo_exact and hi_exact}")

    def test_one_row_spmm_panels_are_the_block_row_loop(self):
        """A budget that fits one accumulator strip gives one-tile-wide
        column panels of single block rows — the loop ``spmm`` ran
        before: per column panel, every A tile and the B strip under it
        once each."""
        store = ArrayStore(storage=StorageConfig(
            block_size=BLOCK, memory_bytes=4 * BLOCK))
        a_np = _full_operand(np.random.default_rng(3), (20, 30), (8, 8))
        a = SparseTiledMatrix.from_dense(store, a_np, tile_shape=(8, 8))
        b = store.create_matrix((30, 20), tile_shape=(8, 8)).from_numpy(
            np.ones((30, 20)))
        assert kernels.spmm_schedule(a, b, 1) == (8, 1)
        _, reads, _ = _measure(spmm, store, a, b, 1)
        strip_pages = 1          # an 8x8 strip is one 8x8 tile, one page
        assert reads == spmm_schedule_reads(a, b, 1) \
            == 3 * (a.data_pages + len(a.directory) * strip_pages)
